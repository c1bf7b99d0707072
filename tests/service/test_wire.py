"""Wire protocol: socket round trips and typed errors across the socket."""

from __future__ import annotations

import asyncio
import os

import pytest

from repro.ckpt.store import MemoryStore
from repro.exceptions import (
    CheckpointNotFoundError,
    FormatError,
    QuotaExceededError,
    ServiceUnavailableError,
    UnknownTenantError,
)
from repro.service import (
    CheckpointIngestService,
    ServiceClient,
    ServiceServer,
    ShardedStore,
    TenantRegistry,
    TenantSpec,
)
from repro.service.wire import _pack_blobs, _unpack_blobs, _write_message


def _service() -> CheckpointIngestService:
    return CheckpointIngestService(
        ShardedStore({"s0": MemoryStore()}, placement=MemoryStore()),
        TenantRegistry(
            [TenantSpec("alice", byte_quota=10_000), TenantSpec("bob")]
        ),
    )


def _run_with_server(coro_factory):
    """Start service + server on a temp socket, run the client coroutine."""

    async def run():
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            sock = os.path.join(tmp, "svc.sock")
            svc = _service()
            async with svc, ServiceServer(svc, sock):
                return await coro_factory(sock, svc)

    return asyncio.run(run())


class TestFraming:
    def test_pack_unpack_round_trip(self):
        blobs = {"u": b"abc", "v": b"", "w": os.urandom(100)}
        index, parts = _pack_blobs(blobs)
        assert _unpack_blobs(index, b"".join(parts)) == blobs

    def test_unpack_length_mismatch(self):
        with pytest.raises(FormatError, match="payload carries"):
            _unpack_blobs([["u", 3]], b"abcdef")


#: Blob indexes whose lengths sum to the payload but slice it wrongly:
#: two empty blobs out of nothing, ``c`` handed the bytes of ``a``, and
#: one name given the bytes of another.
BAD_INDEXES = [
    pytest.param([["a", -5], ["b", 5]], b"", id="negative-over-empty"),
    pytest.param([["a", 3], ["b", -3], ["c", 3]], b"xyz", id="negative-rewinds"),
    pytest.param([["a", 1], ["a", 1]], b"xy", id="duplicate-name"),
]


class TestBlobIndex:
    @pytest.mark.parametrize("index, payload", BAD_INDEXES)
    def test_unpack_refuses(self, index, payload):
        with pytest.raises(FormatError, match="negative length|twice"):
            _unpack_blobs(index, payload)

    @pytest.mark.parametrize("entry", [["a"], ["a", 1, 2], ["a", "one"], 7])
    def test_unpack_refuses_an_entry_that_is_not_a_pair(self, entry):
        with pytest.raises(FormatError, match="is not"):
            _unpack_blobs([entry], b"x")

    @pytest.mark.parametrize("index, payload", BAD_INDEXES)
    def test_submit_refused_by_the_server(self, index, payload):
        async def go(sock, svc):
            async with ServiceClient(sock) as client:
                with pytest.raises(FormatError, match="negative length|twice"):
                    await client._call(
                        {"op": "submit", "tenant": "alice", "step": 0, "blobs": index},
                        [payload],
                    )
            return svc.committed_steps("alice")

        assert _run_with_server(go) == []

    @pytest.mark.parametrize("index, payload", BAD_INDEXES)
    def test_restore_refused_by_the_client(self, index, payload):
        async def answer(reader, writer):
            await reader.read(1 << 16)  # the restore request
            await _write_message(writer, {"ok": True, "blobs": index}, [payload])
            writer.close()

        async def run(sock):
            server = await asyncio.start_unix_server(answer, path=sock)
            async with server, ServiceClient(sock) as client:
                with pytest.raises(FormatError, match="negative length|twice"):
                    await client.restore("alice")

        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            asyncio.run(run(os.path.join(tmp, "svc.sock")))


class TestRoundTrips:
    def test_ping(self):
        async def go(sock, svc):
            async with ServiceClient(sock) as client:
                return await client.ping()

        assert _run_with_server(go) is True

    def test_submit_restore_steps_stats(self):
        # small blobs under alice's quota, then frames of several parts
        # (three 1 MiB blobs and an empty one) for bob, who has none
        inputs = [
            ("alice", {"u": os.urandom(1024), "v": b"small"}),
            ("bob", {**{f"m{i}": os.urandom(1 << 20) for i in range(3)}, "z": b""}),
        ]

        async def go(sock, svc):
            for commits, (tenant, blobs) in enumerate(inputs, start=1):
                async with ServiceClient(sock) as client:
                    ack = await client.submit(
                        tenant, 4, blobs, app_meta={"epoch": 1}
                    )
                    assert ack["step"] == 4 and ack["n_blobs"] == len(blobs)
                    assert await client.steps(tenant) == [4]
                    restored = await client.restore(tenant)
                    stats = await client.stats()
                assert restored == blobs
                assert stats["commits"] == commits

        _run_with_server(go)

    def test_many_sequential_clients(self):
        async def go(sock, svc):
            for step in range(5):
                async with ServiceClient(sock) as client:
                    await client.submit("bob", step, {"u": bytes([step]) * 64})
            async with ServiceClient(sock) as client:
                return await client.steps("bob")

        assert _run_with_server(go) == list(range(5))

    def test_concurrent_clients_batch(self):
        async def go(sock, svc):
            async def one(step):
                async with ServiceClient(sock) as client:
                    return await client.submit("bob", step, {"u": b"x" * 128})

            acks = await asyncio.gather(*[one(s) for s in range(10)])
            assert svc.commits == 10
            return max(a["batch_size"] for a in acks)

        assert _run_with_server(go) >= 1

    def test_empty_blob_survives_wire(self):
        async def go(sock, svc):
            async with ServiceClient(sock) as client:
                await client.submit("bob", 0, {"empty": b"", "one": b"z"})
                return await client.restore("bob", 0)

        assert _run_with_server(go) == {"empty": b"", "one": b"z"}


class TestTypedErrorsAcrossTheWire:
    def test_unknown_tenant(self):
        async def go(sock, svc):
            async with ServiceClient(sock) as client:
                with pytest.raises(UnknownTenantError, match="carol"):
                    await client.submit("carol", 0, {"u": b"x"})
                # the connection survives a refusal
                assert await client.ping()

        _run_with_server(go)

    def test_quota_exceeded(self):
        async def go(sock, svc):
            async with ServiceClient(sock) as client:
                with pytest.raises(QuotaExceededError, match="byte quota"):
                    await client.submit("alice", 0, {"u": b"x" * 20_000})

        _run_with_server(go)

    def test_not_found(self):
        async def go(sock, svc):
            async with ServiceClient(sock) as client:
                with pytest.raises(CheckpointNotFoundError):
                    await client.restore("bob")

        _run_with_server(go)

    def test_connect_refused_is_service_unavailable(self):
        async def go():
            with pytest.raises(ServiceUnavailableError, match="cannot connect"):
                await ServiceClient("/nonexistent/service.sock").connect()

        asyncio.run(go())

    def test_payload_over_limit_rejected_with_typed_error(self):
        async def go(sock, svc):
            from repro.service.wire import MAX_PAYLOAD_BYTES, _read_message

            reader, writer = await asyncio.open_unix_connection(sock)
            try:
                # a header declaring more than the limit, and no payload
                # behind it: the server must answer without waiting for one
                await _write_message(
                    writer,
                    {"op": "submit", "tenant": "alice", "step": 0,
                     "payload_bytes": MAX_PAYLOAD_BYTES + 1},
                )
                resp, _ = await asyncio.wait_for(_read_message(reader), timeout=5.0)
                assert resp["ok"] is False
                assert resp["error"]["type"] == "FormatError"
                assert "exceeds limit" in resp["error"]["message"]
            finally:
                writer.close()
                await writer.wait_closed()

        _run_with_server(go)

    def test_missing_header_fields_get_format_error(self):
        async def go(sock, svc):
            from repro.service.wire import _read_message, _write_message

            reader, writer = await asyncio.open_unix_connection(sock)
            try:
                # a submit without tenant/step must come back as a typed
                # FormatError frame, not a dropped connection
                await _write_message(writer, {"op": "submit"})
                resp, _ = await _read_message(reader)
                assert resp["ok"] is False
                assert resp["error"]["type"] == "FormatError"
                # and the connection survives for well-formed requests
                await _write_message(writer, {"op": "ping"})
                resp, _ = await _read_message(reader)
                assert resp["ok"] is True
            finally:
                writer.close()
                await writer.wait_closed()

        _run_with_server(go)


class TestTraceContext:
    def test_trace_context_propagates_across_the_wire(self):
        from repro.obs import TraceReport, get_tracer
        from repro.obs.sink import MemorySink

        sink = MemorySink()
        tracer = get_tracer()
        tracer.enable(sink)
        try:

            async def go(sock, svc):
                async with ServiceClient(sock) as client:
                    await client.submit("bob", 0, {"u": b"x" * 64})

            _run_with_server(go)
        finally:
            tracer.disable()
            tracer.reset()
        spans = {s["name"]: s for s in sink.spans()}
        client_span = spans["service.client.submit"]
        request = spans["service.request"]
        submit = spans["service.submit"]
        # server-side request adopted the client's ids from the header
        assert request["parent_id"] == client_span["span_id"]
        assert request["trace_id"] == client_span["trace_id"]
        assert submit["parent_id"] == request["span_id"]
        assert submit["trace_id"] == client_span["trace_id"]
        # regression lint: no span anywhere may float free of the tree
        report = TraceReport(sink.spans())
        assert report.orphans() == []

    def test_untraced_legacy_header_is_served(self):
        async def go(sock, svc):
            from repro.service.wire import _read_message, _write_message

            # a pre-telemetry client: no "trace" field at all
            reader, writer = await asyncio.open_unix_connection(sock)
            try:
                await _write_message(writer, {"op": "steps", "tenant": "bob"})
                resp, _ = await _read_message(reader)
                assert resp["ok"] is True
                assert resp["steps"] == []
            finally:
                writer.close()
                await writer.wait_closed()

        _run_with_server(go)

    def test_malformed_trace_context_gets_typed_format_error(self):
        async def go(sock, svc):
            from repro.service.wire import _read_message, _write_message

            reader, writer = await asyncio.open_unix_connection(sock)
            try:
                for bogus in (
                    "not-a-mapping",
                    {"span_id": 7},  # span_id must be a string
                    {"span_id": ""},  # ... and non-empty
                    {"span_id": "ok", "trace_id": 42},  # trace_id not str
                ):
                    await _write_message(
                        writer, {"op": "ping", "trace": bogus}
                    )
                    resp, _ = await _read_message(reader)
                    assert resp["ok"] is False, bogus
                    assert resp["error"]["type"] == "FormatError", bogus
                # the connection survives every refusal
                await _write_message(writer, {"op": "ping"})
                resp, _ = await _read_message(reader)
                assert resp["ok"] is True
            finally:
                writer.close()
                await writer.wait_closed()

        _run_with_server(go)


class TestClientTimeouts:
    def test_connect_retries_with_exponential_backoff(self):
        async def go():
            naps = []

            async def fake_sleep(seconds):
                naps.append(seconds)

            client = ServiceClient("/nonexistent/service.sock", sleep=fake_sleep)
            with pytest.raises(
                ServiceUnavailableError, match="after 3 attempt"
            ):
                await client.connect()
            # no sleep before the first attempt, doubling after that
            assert naps == [0.2, 0.4]

        asyncio.run(go())

    def test_op_timeout_raises_typed_error_not_a_hang(self):
        async def run():
            import tempfile

            async def black_hole(reader, writer):
                await reader.read()  # swallow the request, never answer

            with tempfile.TemporaryDirectory() as tmp:
                sock = os.path.join(tmp, "svc.sock")
                server = await asyncio.start_unix_server(black_hole, path=sock)
                try:
                    client = ServiceClient(sock, op_timeout=0.05)
                    await client.connect()
                    with pytest.raises(
                        ServiceUnavailableError, match="did not answer"
                    ):
                        await client.ping()
                    # the stream is torn down: no half-read frame lingers
                    assert client._writer is None
                    await client.close()
                finally:
                    server.close()
                    await server.wait_closed()

        asyncio.run(run())

    def test_bad_client_knobs_refused(self):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError, match="op_timeout"):
            ServiceClient("x", op_timeout=0)


class TestAdminOps:
    def _sharded_service(self):
        shards = {f"s{i}": MemoryStore() for i in range(3)}
        store = ShardedStore(shards, placement=MemoryStore(), replication=2)
        svc = CheckpointIngestService(
            store, TenantRegistry([TenantSpec("bob")])
        )
        return svc, store, shards

    def _run_sharded(self, coro_factory):
        async def run():
            import tempfile

            with tempfile.TemporaryDirectory() as tmp:
                sock = os.path.join(tmp, "svc.sock")
                svc, store, shards = self._sharded_service()
                async with svc, ServiceServer(svc, sock):
                    return await coro_factory(sock, svc, store, shards)

        return asyncio.run(run())

    def test_drain_and_remove_over_the_wire(self):
        async def go(sock, svc, store, shards):
            async with ServiceClient(sock) as client:
                for step in range(4):
                    await client.submit("bob", step, {"u": os.urandom(256)})
                summary = await client.drain("s1", remove=True)
                assert summary["remaining"] == 0
                assert summary.get("removed") is True
                assert "s1" not in store.shards
                # every generation still restores through the survivors
                for step in range(4):
                    assert await client.restore("bob", step)

        self._run_sharded(go)

    def test_rebalance_over_the_wire(self):
        async def go(sock, svc, store, shards):
            async with ServiceClient(sock) as client:
                for step in range(6):
                    await client.submit("bob", step, {"u": os.urandom(128)})
                store.add_shard("s9", MemoryStore())
                summary = await client.rebalance()
                assert summary["units_moved"] + summary["units_in_place"] >= 6
                for unit, replicas in store.placement_map().items():
                    assert replicas == store.ring.successors(unit, 2)

        self._run_sharded(go)

    def test_repair_over_the_wire(self):
        async def go(sock, svc, store, shards):
            async with ServiceClient(sock) as client:
                await client.submit("bob", 0, {"u": b"x" * 512})
                summary = await client.repair()
                assert summary["remaining_debt"]["units"] == 0

        self._run_sharded(go)

class TestMetricsOp:
    def test_metrics_op_serves_prometheus_text(self):
        from repro.obs import get_registry

        get_registry().reset()

        async def go(sock, svc):
            async with ServiceClient(sock) as client:
                await client.submit("bob", 3, {"u": b"x" * 64})
                text = await client.metrics()
            assert "# TYPE service_submits counter" in text
            assert 'service_submits{tenant="bob"} 1' in text
            assert "# TYPE service_requests counter" in text
            assert 'service_requests{op="submit"} 1' in text
            assert "# TYPE service_ingest_seconds summary" in text

        _run_with_server(go)
