"""The ingest service end to end (in-process): commits, quotas, batching."""

from __future__ import annotations

import asyncio
import os
import threading

import pytest

from repro.ckpt.journal import is_committed
from repro.ckpt.store import MemoryStore, StoreWrapper
from repro.config import ServiceConfig
from repro.exceptions import (
    CommitError,
    ConfigurationError,
    QuotaExceededError,
    ServiceUnavailableError,
    StorageError,
    UnknownTenantError,
)
from repro.service import (
    CheckpointIngestService,
    ShardedStore,
    TenantRegistry,
    TenantSpec,
)
from repro.service.ingest import build_service
from repro.service.tenants import RATE_BURST


def _registry(**quotas) -> TenantRegistry:
    return TenantRegistry(
        [
            TenantSpec("alice", **quotas.get("alice", {})),
            TenantSpec("bob", **quotas.get("bob", {})),
        ]
    )


def _service(store=None, registry=None, **kw) -> CheckpointIngestService:
    """A service over one shard: ``store`` (a fresh ``MemoryStore`` by
    default) behind a ``ShardedStore``."""
    shard = store if store is not None else MemoryStore()
    return CheckpointIngestService(
        ShardedStore({"s0": shard}, placement=MemoryStore()),
        registry if registry is not None else _registry(),
        **kw,
    )


def test_service_needs_a_sharded_store():
    with pytest.raises(ConfigurationError, match="needs a ShardedStore, got MemoryStore"):
        CheckpointIngestService(MemoryStore(), _registry())


def test_submit_commits_and_restores_bit_identically():
    async def run():
        svc = _service()
        blobs = {"u": os.urandom(4096), "v": os.urandom(1024)}
        async with svc:
            ack = await svc.submit("alice", 0, blobs, app_meta={"epoch": 3})
        assert ack.step == 0 and ack.nbytes == 5120 and ack.n_blobs == 2
        assert is_committed(svc.view("alice"), 0)
        assert svc.restore_blobs("alice", 0) == blobs

    asyncio.run(run())


def test_concurrent_submits_all_commit():
    async def run():
        svc = _service(config=ServiceConfig(max_batch=16))
        payloads = {
            ("alice", s): {"u": os.urandom(512)} for s in range(10)
        } | {
            ("bob", s): {"u": os.urandom(512)} for s in range(10)
        }
        async with svc:
            acks = await asyncio.gather(
                *[
                    svc.submit(t, s, blobs)
                    for (t, s), blobs in payloads.items()
                ]
            )
        assert len(acks) == 20
        for (tenant, step), blobs in payloads.items():
            assert svc.restore_blobs(tenant, step) == blobs
        assert svc.committed_steps("alice") == list(range(10))

    asyncio.run(run())


def test_group_commit_batches_concurrent_generations():
    async def run():
        svc = _service(config=ServiceConfig(max_batch=16))
        async with svc:
            acks = await asyncio.gather(
                *[svc.submit("alice", s, {"u": b"x" * 256}) for s in range(12)]
            )
        assert svc.commits == 12
        # concurrency must have produced at least one multi-generation
        # batch -- fewer group commits than commits
        assert svc.group_commits < 12
        assert max(a.batch_size for a in acks) > 1

    asyncio.run(run())


class _GatedSync(StoreWrapper):
    """A MemoryStore whose first ``sync`` -- the first seal's first
    barrier -- blocks until the test sets ``release``."""

    def __init__(self) -> None:
        super().__init__(MemoryStore())
        self.entered = threading.Event()
        self.release = threading.Event()

    def sync(self) -> None:
        if not self.entered.is_set():
            self.entered.set()
            assert self.release.wait(5.0), "the test never released the seal"
        super().sync()

    async def wait_entered(self) -> None:
        assert await asyncio.to_thread(self.entered.wait, 5.0)


def test_generations_ready_during_a_seal_form_the_next_batch():
    async def run():
        store = _GatedSync()
        svc = _service(store, config=ServiceConfig(max_batch=16))
        async with svc:
            first = asyncio.ensure_future(
                svc.submit("alice", 0, {"u": b"x" * 64})
            )
            await store.wait_entered()
            rest = [
                asyncio.ensure_future(svc.submit("alice", s, {"u": b"x" * 64}))
                for s in (1, 2, 3)
            ]

            async def queued(n):
                while svc._commit_queue.qsize() < n:
                    await asyncio.sleep(0.001)

            await asyncio.wait_for(queued(3), 5.0)
            store.release.set()
            acks = [await first, *await asyncio.gather(*rest)]
        assert [a.batch_size for a in acks] == [1, 3, 3, 3]
        assert (svc.commits, svc.group_commits) == (4, 2)

    asyncio.run(run())


def test_max_batch_one_degenerates_to_per_generation():
    async def run():
        svc = _service(config=ServiceConfig(max_batch=1))
        async with svc:
            await asyncio.gather(
                *[svc.submit("alice", s, {"u": b"x" * 64}) for s in range(6)]
            )
        assert svc.commits == 6
        assert svc.group_commits == 6

    asyncio.run(run())


def test_unknown_tenant_refused_before_any_state():
    async def run():
        store = MemoryStore()
        svc = _service(store)
        async with svc:
            with pytest.raises(UnknownTenantError, match="carol"):
                await svc.submit("carol", 0, {"u": b"x"})
        assert store.list_keys("") == []

    asyncio.run(run())


def test_byte_quota_refusal_leaves_no_state_and_charges_nothing():
    async def run():
        store = MemoryStore()
        registry = _registry(alice={"byte_quota": 1000})
        svc = _service(store, registry)
        async with svc:
            await svc.submit("alice", 0, {"u": b"x" * 600})
            with pytest.raises(QuotaExceededError, match="byte quota"):
                await svc.submit("alice", 1, {"u": b"x" * 600})
            # the refused generation left nothing behind
            assert svc.committed_steps("alice") == [0]
            assert not [
                k for k in store.list_keys("") if "0000000001" in k
            ]
            # quota accounting kept only the committed generation
            assert registry.stats()["alice"]["used_bytes"] == 600

    asyncio.run(run())


def test_rate_quota_refusal():
    async def run():
        registry = TenantRegistry([TenantSpec("alice", rate_quota=1.0)])
        svc = _service(MemoryStore(), registry)
        async with svc:
            for step in range(RATE_BURST):
                await svc.submit("alice", step, {"u": b"x"})
            with pytest.raises(QuotaExceededError, match="ingest-rate"):
                await svc.submit("alice", RATE_BURST, {"u": b"x"})

    asyncio.run(run())


def test_duplicate_inflight_step_refused():
    async def run():
        store = _GatedSync()
        svc = _service(store)
        async with svc:
            first = asyncio.ensure_future(
                svc.submit("alice", 7, {"u": b"x" * 128})
            )
            # the first submit's seal is parked in its barrier: in flight
            await store.wait_entered()
            with pytest.raises(CommitError, match="in flight"):
                await svc.submit("alice", 7, {"u": b"y" * 128})
            store.release.set()
            await first

    asyncio.run(run())


def test_simultaneous_duplicate_submits_commit_exactly_once():
    async def run():
        svc = _service()
        first = {"u": b"x" * 256}
        second = {"u": b"y" * 256}
        async with svc:
            results = await asyncio.gather(
                svc.submit("alice", 5, first),
                svc.submit("alice", 5, second),
                return_exceptions=True,
            )
        acks = [r for r in results if not isinstance(r, BaseException)]
        errors = [r for r in results if isinstance(r, BaseException)]
        # exactly one wins admission; the loser gets a typed refusal
        # instead of racing it to the same blob keys
        assert len(acks) == 1 and len(errors) == 1
        assert isinstance(errors[0], CommitError)
        assert svc.commits == 1
        # the committed generation is internally consistent (CRC-checked
        # on restore) and matches one submit wholesale, not a mix
        assert svc.restore_blobs("alice", 5) in (first, second)

    asyncio.run(run())


def test_rewriting_committed_step_refused():
    async def run():
        svc = _service()
        async with svc:
            await svc.submit("alice", 3, {"u": b"x"})
            with pytest.raises(CommitError, match="already holds"):
                await svc.submit("alice", 3, {"u": b"y"})

    asyncio.run(run())


def test_tenant_isolation():
    async def run():
        store = MemoryStore()
        svc = _service(store)
        async with svc:
            await svc.submit("alice", 0, {"secret": b"alice-data"})
            await svc.submit("bob", 0, {"u": b"bob-data"})
        # same step number, fully separate namespaces
        assert svc.restore_blobs("alice", 0) == {"secret": b"alice-data"}
        assert svc.restore_blobs("bob", 0) == {"u": b"bob-data"}
        bob_view = svc.view("bob")
        assert not any("secret" in k for k in bob_view.list_keys(""))
        # and every key in the shared store is namespaced
        assert all(k.startswith("tenants/") for k in store.list_keys(""))

    asyncio.run(run())


def test_oversized_blob_writes_through_and_still_commits():
    async def run():
        svc = _service(config=ServiceConfig(buffer_capacity_bytes=1024))
        big = os.urandom(4096)
        async with svc:
            await svc.submit("alice", 0, {"big": big, "small": b"s" * 16})
        assert svc.restore_blobs("alice", 0)["big"] == big
        assert svc.buffer.stats.through_blobs == 1

    asyncio.run(run())


def test_build_service_over_sharded_directories(tmp_path):
    async def run():
        registry = _registry()
        svc = build_service(
            str(tmp_path), registry, ServiceConfig(shards=3, max_batch=8)
        )
        assert isinstance(svc.store, ShardedStore)
        blobs = {"u": os.urandom(2048)}
        async with svc:
            await asyncio.gather(
                *[svc.submit("alice", s, blobs) for s in range(8)]
            )
        # reopen the same root: everything is still there
        svc2 = build_service(str(tmp_path), _registry(), ServiceConfig(shards=3))
        assert svc2.committed_steps("alice") == list(range(8))
        assert svc2.restore_blobs("alice", 5) == blobs

    asyncio.run(run())


def test_recover_tenants_reaps_torn_generations(tmp_path):
    async def run():
        svc = build_service(str(tmp_path), _registry(), ServiceConfig(shards=2))
        async with svc:
            await svc.submit("alice", 0, {"u": b"good"})
        # fabricate a torn generation: blobs + manifest, no marker
        view = svc.view("alice")
        view.put("ckpt/0000000005/u.bin", b"torn")
        view.put("ckpt/0000000005/manifest.json", b"{}")

        svc2 = build_service(str(tmp_path), _registry(), ServiceConfig(shards=2))
        reports = svc2.recover_tenants()
        assert reports["alice"].reaped == [5]
        assert svc2.committed_steps("alice") == [0]
        assert not view.exists("ckpt/0000000005/u.bin")

    asyncio.run(run())


def test_restore_missing_raises_not_found():
    async def run():
        svc = _service()
        from repro.exceptions import CheckpointNotFoundError

        with pytest.raises(CheckpointNotFoundError, match="no committed"):
            svc.restore_blobs("alice")
        async with svc:
            await svc.submit("alice", 0, {"u": b"x"})
        with pytest.raises(CheckpointNotFoundError, match="step 9"):
            svc.restore_blobs("alice", 9)

    asyncio.run(run())


def test_submit_before_start_refused_without_state():
    async def run():
        store = MemoryStore()
        svc = _service(store)
        with pytest.raises(ServiceUnavailableError, match="not started"):
            await svc.submit("alice", 0, {"u": b"x"})
        # refused at admission: nothing absorbed, nothing charged
        assert store.list_keys("") == []
        assert svc.tenants.stats()["alice"]["used_bytes"] == 0

    asyncio.run(run())


def test_close_waits_for_inflight_submit():
    class _DelayedPutStore(MemoryStore):
        def put(self, key, data):
            import time

            time.sleep(0.04)
            super().put(key, data)

    async def run():
        svc = _service(_DelayedPutStore())
        await svc.start()
        task = asyncio.create_task(svc.submit("alice", 0, {"u": b"x" * 64}))
        await asyncio.sleep(0.01)  # the submit is now draining its blob
        # close() must keep the committer alive until the in-flight
        # submit's commit resolves -- not strand it mid-pipeline
        await asyncio.wait_for(svc.close(), timeout=5.0)
        ack = await asyncio.wait_for(task, timeout=1.0)
        assert ack.step == 0
        assert is_committed(svc.view("alice"), 0)

    asyncio.run(run())


def test_stats_shape():
    async def run():
        svc = _service()
        async with svc:
            await svc.submit("alice", 0, {"u": b"x" * 100})
        stats = svc.stats()
        assert stats["commits"] == 1
        assert stats["buffer"]["drained_blobs"] == 1
        assert stats["tenants"]["alice"]["submits"] == 1
        assert stats["crashed"] is False

    asyncio.run(run())


def test_build_service_with_replication(tmp_path):
    async def run():
        config = ServiceConfig(shards=3, replication=2)
        svc = build_service(str(tmp_path), _registry(), config)
        blobs = {"u": os.urandom(1024), "v": b"small"}
        async with svc:
            await svc.submit("alice", 0, blobs)
        # every generation really landed on two distinct shards
        for unit, replicas in svc.store.placement_map().items():
            assert len(replicas) == 2, (unit, replicas)
        assert svc.stats()["degraded"] is False
        # a reopened service restores through the replicated placement
        svc2 = build_service(str(tmp_path), _registry(), config)
        assert svc2.restore_blobs("alice", 0) == blobs

    asyncio.run(run())


def test_restore_blobs_fails_over_a_corrupt_replica(tmp_path):
    async def run():
        config = ServiceConfig(shards=3, replication=2)
        svc = build_service(str(tmp_path), _registry(), config)
        blobs = {"u": os.urandom(4096)}
        async with svc:
            await svc.submit("alice", 0, blobs)
        # corrupt the blob on its first replica, on disk, behind the
        # service's back
        store = svc.store
        key = "tenants/alice/ckpt/0000000000/u.bin"
        first = store.replicas_for(key)[0]
        assert store.shards[first].exists(key)
        raw = store.shards[first].get(key)
        store.shards[first].put(key, b"\x00" + raw[1:])
        # the CRC-verified restore path must skip the corrupt copy,
        # serve the good one, and repair the bad replica in place
        assert svc.restore_blobs("alice", 0) == blobs
        assert store.shards[first].get(key) == raw

    asyncio.run(run())


def test_repair_replication_repays_debt(tmp_path):
    async def run():
        from repro.service.health import ShardHealth
        from repro.service.sharded import ShardedStore as _SS

        clock_t = [0.0]
        health = ShardHealth(
            failure_threshold=1, open_seconds=10.0, clock=lambda: clock_t[0]
        )
        shards = {f"s{i}": MemoryStore() for i in range(3)}
        down = {"flag": False}

        class Breakable(MemoryStore):
            def __init__(self, inner):
                super().__init__()
                self._inner = inner

            def put(self, key, data):
                if down["flag"]:
                    raise StorageError("injected: shard down")
                self._inner.put(key, data)

            def get(self, key):
                return self._inner.get(key)

            def exists(self, key):
                return self._inner.exists(key)

            def delete(self, key):
                self._inner.delete(key)

            def list_keys(self, prefix):
                return self._inner.list_keys(prefix)

        shards["s0"] = Breakable(MemoryStore())
        store = _SS(
            shards, placement=MemoryStore(), replication=2, health=health
        )
        svc = _service(store=store)
        blobs = {"u": os.urandom(512)}
        down["flag"] = True
        async with svc:
            for step in range(4):
                await svc.submit("alice", step, _b := {"u": blobs["u"]})
            degraded_during = svc.stats()["degraded"]
            down["flag"] = False
            clock_t[0] = 20.0  # breaker half-opens, probe succeeds
            summary = svc.repair_replication()
        if degraded_during:  # s0 was in some unit's replica set
            assert summary["repaired_units"] == summary["attempted_units"]
        assert summary["remaining_debt"]["units"] == 0
        assert svc.stats()["degraded"] is False

    asyncio.run(run())


def test_repair_replication_noop_on_unsharded_store():
    async def run():
        svc = _service()
        async with svc:
            await svc.submit("alice", 0, {"u": b"x" * 64})
        summary = svc.repair_replication()
        assert summary["remaining_debt"]["units"] == 0

    asyncio.run(run())
