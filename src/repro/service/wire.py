"""Local-socket wire protocol for the checkpoint ingest service.

A deliberately small length-prefixed framing so ``repro-ckpt serve`` can
take checkpoint streams from other processes on the same machine:

* every message is a 4-byte big-endian header length, the UTF-8 JSON
  header, then raw binary payload bytes;
* the header's ``blobs`` field is an ordered list of ``[name, nbytes]``
  pairs describing how to slice the payload, so array payloads cross the
  socket without base64 inflation;
* responses carry ``ok: true`` plus op-specific fields, or ``ok: false``
  with a typed error frame ``{"type": ..., "message": ...}``.

The error frame is the taxonomy satellite on the wire: the client
re-raises the *same* exception family the service raised
(:class:`QuotaExceededError`, :class:`UnknownTenantError`, ...), so a
remote caller and an in-process caller handle failures identically and
nobody ever diagnoses a quota refusal from a hung stream or a generic
``OSError``.

Trace propagation rides the header: a tracing client adds
``"trace": {"trace_id": ..., "span_id": ...}`` naming its in-flight
request span, and the server parents its ``service.request`` span (and
everything below it) on that context.  Span ids embed the PID and the
span clock is machine-monotonic, so the client-side and server-side
JSONL traces stitch into a single tree with ``repro report client.jsonl
server.jsonl``.  A header without ``trace`` is a legacy client (the
server span becomes a local root); a malformed ``trace`` is answered
with a typed :class:`FormatError` frame like any other bad header.
"""

from __future__ import annotations

import asyncio
import json
import struct
import time
from typing import Any, Mapping, Sequence

from ..exceptions import (
    CheckpointNotFoundError,
    CommitError,
    ConfigurationError,
    FormatError,
    QuotaExceededError,
    ReproError,
    ServiceError,
    ServiceUnavailableError,
    StorageError,
    UnknownTenantError,
)
from ..obs.metrics import get_registry
from ..obs.trace import Span, get_tracer
from .ingest import CheckpointIngestService
from .migration import MigrationWorker

__all__ = [
    "ServiceServer",
    "ServiceClient",
    "MAX_HEADER_BYTES",
    "MAX_PAYLOAD_BYTES",
]

_LEN = struct.Struct(">I")

#: Upper bound on a header frame; payload sizes are bounded by the byte
#: quotas, but a malformed header length must not allocate gigabytes.
MAX_HEADER_BYTES = 16 * 1024 * 1024

#: Default upper bound on one message's payload.  Quota admission runs
#: only after the payload is read, so the framing layer itself must cap
#: how much a single message may make the peer buffer.
MAX_PAYLOAD_BYTES = 1024 * 1024 * 1024

#: Exception families a typed error frame may resurrect client-side.
_ERROR_TYPES: dict[str, type[ReproError]] = {
    cls.__name__: cls
    for cls in (
        ServiceError,
        UnknownTenantError,
        QuotaExceededError,
        ServiceUnavailableError,
        CommitError,
        CheckpointNotFoundError,
        ConfigurationError,
        FormatError,
        StorageError,
    )
}


def _error_frame(exc: ReproError) -> dict[str, Any]:
    return {
        "ok": False,
        "error": {"type": type(exc).__name__, "message": str(exc)},
    }


def _parse_trace_context(header: Mapping[str, Any]) -> dict[str, Any] | None:
    """Extract and validate the header's trace context.

    ``None`` when absent (a legacy or non-tracing client -- fine).  A
    present-but-malformed context raises :class:`FormatError`: silently
    mis-parenting spans would be worse than refusing the request.
    """
    ctx = header.get("trace")
    if ctx is None:
        return None
    if not isinstance(ctx, Mapping):
        raise FormatError(
            f"wire trace context must be an object, got {type(ctx).__name__}"
        )
    span_id = ctx.get("span_id")
    trace_id = ctx.get("trace_id")
    if not isinstance(span_id, str) or not span_id:
        raise FormatError(
            "wire trace context requires a non-empty string 'span_id'"
        )
    if trace_id is not None and not isinstance(trace_id, str):
        raise FormatError("wire trace context 'trace_id' must be a string")
    return {"span_id": span_id, "trace_id": trace_id}


async def _read_message(reader: asyncio.StreamReader) -> tuple[dict[str, Any], bytes]:
    raw_len = await reader.readexactly(_LEN.size)
    (header_len,) = _LEN.unpack(raw_len)
    if header_len > MAX_HEADER_BYTES:
        raise FormatError(
            f"wire header of {header_len} bytes exceeds limit {MAX_HEADER_BYTES}"
        )
    try:
        header = json.loads((await reader.readexactly(header_len)).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"wire header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise FormatError("wire header must be a JSON object")
    try:
        payload_len = int(header.get("payload_bytes", 0))
    except (TypeError, ValueError) as exc:
        raise FormatError(f"payload_bytes is not an integer: {exc}") from exc
    if payload_len < 0:
        raise FormatError(f"payload_bytes must be >= 0, got {payload_len}")
    if payload_len > MAX_PAYLOAD_BYTES:
        raise FormatError(
            f"wire payload of {payload_len} bytes exceeds limit {MAX_PAYLOAD_BYTES}"
        )
    payload = await reader.readexactly(payload_len) if payload_len else b""
    return header, payload


async def _write_message(
    writer: asyncio.StreamWriter,
    header: dict[str, Any],
    parts: Sequence[bytes] = (),
) -> None:
    """Frame ``header`` and a payload of ``parts``, back to back.

    Each part goes to the transport as the caller's own buffer: a payload
    of megabyte blobs is never joined into one, nor glued to its header.
    """
    payload_bytes = sum(len(part) for part in parts)
    if payload_bytes:
        header = {**header, "payload_bytes": payload_bytes}
    body = json.dumps(header, sort_keys=True).encode("utf-8")
    writer.write(_LEN.pack(len(body)) + body)
    for part in parts:
        writer.write(part)
    await writer.drain()


def _pack_blobs(blobs: Mapping[str, bytes]) -> tuple[list[list[Any]], list[bytes]]:
    """The blob index of a header and the payload parts it slices, by name."""
    index: list[list[Any]] = []
    parts: list[bytes] = []
    for name in sorted(blobs):
        data = blobs[name]
        index.append([name, len(data)])
        parts.append(data)
    return index, parts


def _unpack_blobs(index: list[list[Any]], payload: bytes) -> dict[str, bytes]:
    """Slice ``payload`` by ``index``: each name once, each length >= 0, and
    together the whole payload -- anything else is a :class:`FormatError`,
    never blobs holding bytes that belong to another."""
    out: dict[str, bytes] = {}
    offset = 0
    for entry in index:
        try:
            name, nbytes = entry
            name, nbytes = str(name), int(nbytes)
        except (TypeError, ValueError) as exc:
            raise FormatError(f"blob index entry {entry!r} is not [name, nbytes]") from exc
        if nbytes < 0:
            raise FormatError(f"blob index gives {name!r} a negative length {nbytes}")
        if name in out:
            raise FormatError(f"blob index names {name!r} twice")
        out[name] = payload[offset : offset + nbytes]
        offset += nbytes
    if offset != len(payload):
        raise FormatError(
            f"blob index covers {offset} bytes, payload carries {len(payload)}"
        )
    return out


class ServiceServer:
    """Serve a :class:`CheckpointIngestService` on a unix socket."""

    def __init__(
        self,
        service: CheckpointIngestService,
        path: str,
        *,
        on_disconnect=None,
    ) -> None:
        self.service = service
        self.path = path
        self.on_disconnect = on_disconnect
        self._server: asyncio.AbstractServer | None = None

    async def start(self) -> None:
        self._server = await asyncio.start_unix_server(self._handle, path=self.path)

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def __aenter__(self) -> "ServiceServer":
        await self.start()
        return self

    async def __aexit__(self, *exc: Any) -> None:
        await self.close()

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    header, payload = await _read_message(reader)
                except (asyncio.IncompleteReadError, ConnectionResetError):
                    break
                except FormatError as exc:
                    # Broken framing (oversized or malformed frame): the
                    # stream cannot be resynchronized, so report the
                    # typed error and close the connection.
                    await _write_message(writer, _error_frame(exc))
                    break
                registry = get_registry()
                started = time.perf_counter()
                try:
                    # The request span adopts the client's trace context
                    # (when sent), making every server-side span a
                    # descendant of the client's request span.
                    ctx = _parse_trace_context(header)
                    op = str(header.get("op"))
                    with get_tracer().span(
                        "service.request", parent=ctx, op=op
                    ) as req_span:
                        resp, resp_parts = await self._dispatch(
                            header, payload, parent=req_span
                        )
                    registry.counter("service.requests", op=op).inc()
                    registry.histogram(
                        "service.request_seconds", op=op
                    ).observe(time.perf_counter() - started)
                except ReproError as exc:
                    registry.counter(
                        "service.request_errors", type=type(exc).__name__
                    ).inc()
                    resp = _error_frame(exc)
                    resp_parts = ()
                except (KeyError, TypeError, ValueError) as exc:
                    # A header missing required fields (or carrying the
                    # wrong types) is the client's fault, not a server
                    # crash: answer with a typed FormatError frame.
                    registry.counter(
                        "service.request_errors", type="FormatError"
                    ).inc()
                    resp = _error_frame(
                        FormatError(f"malformed request header: {exc!r}")
                    )
                    resp_parts = ()
                await _write_message(writer, resp, resp_parts)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            if self.on_disconnect is not None:
                self.on_disconnect()

    async def _dispatch(
        self, header: dict[str, Any], payload: bytes, parent: Any = None
    ) -> tuple[dict[str, Any], Sequence[bytes]]:
        op = header.get("op")
        svc = self.service
        # Only a real recorded span can parent downstream work; when
        # tracing is off the request "span" is a _NullSpan with no ids.
        trace_parent = parent if isinstance(parent, Span) else None
        if op == "ping":
            return {"ok": True, "pong": True}, ()
        if op == "submit":
            blobs = _unpack_blobs(header.get("blobs", []), payload)
            ack = await svc.submit(
                str(header["tenant"]),
                int(header["step"]),
                blobs,
                app_meta=header.get("app_meta"),
                trace_parent=trace_parent,
            )
            return {"ok": True, "ack": ack.to_dict()}, ()
        if op == "restore":
            step = header.get("step")
            blobs = await asyncio.to_thread(
                svc.restore_blobs,
                str(header["tenant"]),
                None if step is None else int(step),
            )
            index, parts = _pack_blobs(blobs)
            return {"ok": True, "blobs": index}, parts
        if op == "steps":
            steps = await asyncio.to_thread(svc.committed_steps, str(header["tenant"]))
            return {"ok": True, "steps": steps}, ()
        if op == "stats":
            return {"ok": True, "stats": svc.stats()}, ()
        if op == "metrics":
            text = await asyncio.to_thread(svc.metrics_text)
            return {"ok": True}, [text.encode("utf-8")]
        if op == "drain":
            worker = MigrationWorker(svc.store)
            summary = await asyncio.to_thread(worker.drain, str(header["shard"]))
            if header.get("remove") and summary["remaining"] == 0:
                await asyncio.to_thread(
                    worker.sharded.remove_shard, str(header["shard"])
                )
                summary = {**summary, "removed": True}
            return {"ok": True, "drain": summary}, ()
        if op == "rebalance":
            worker = MigrationWorker(svc.store)
            summary = await asyncio.to_thread(worker.rebalance)
            return {"ok": True, "rebalance": summary}, ()
        if op == "repair":
            summary = await asyncio.to_thread(svc.repair_replication)
            return {"ok": True, "repair": summary}, ()
        raise FormatError(f"unknown wire op {op!r}")


class ServiceClient:
    """Async client speaking the wire protocol to a :class:`ServiceServer`.

    One client holds one connection; requests on a single client are
    serialized (run many clients for concurrency, as the load benchmark
    does).  Service refusals arrive as the original typed exceptions.

    Every blocking step is bounded: connection attempts time out after
    ``CONNECT_TIMEOUT`` seconds and are retried ``CONNECT_RETRIES`` times
    with exponential backoff (a server restarting mid-deploy), and each
    request/response exchange times out after ``op_timeout`` -- a dead or
    wedged server surfaces as a typed
    :class:`~repro.exceptions.ServiceUnavailableError` instead of a
    forever-hung ``svc-put``.  Requests themselves are *not* retried:
    a timed-out submit may have committed server-side, and silently
    re-sending it would turn one ambiguous outcome into a duplicate.
    ``op_timeout=None`` disables the per-request bound (long restores of
    huge generations over a loaded server).

    Parameters
    ----------
    op_timeout:
        Seconds one request/response round trip may take, or ``None``.
    sleep:
        Backoff sleeper, injectable for deterministic tests.
    """

    #: Seconds one connection attempt may take.
    CONNECT_TIMEOUT = 5.0
    #: Extra connection attempts after the first fails.
    CONNECT_RETRIES = 2
    #: Base seconds between connection attempts, doubled each retry.
    RETRY_BACKOFF = 0.2

    def __init__(
        self,
        path: str,
        *,
        op_timeout: float | None = 60.0,
        sleep=asyncio.sleep,
    ) -> None:
        if op_timeout is not None and op_timeout <= 0:
            raise ConfigurationError(
                f"op_timeout must be > 0 or None, got {op_timeout!r}"
            )
        self.path = path
        self.op_timeout = op_timeout
        self._sleep = sleep
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def connect(self) -> "ServiceClient":
        last: Exception | None = None
        for attempt in range(self.CONNECT_RETRIES + 1):
            if attempt:
                await self._sleep(self.RETRY_BACKOFF * (2 ** (attempt - 1)))
            try:
                self._reader, self._writer = await asyncio.wait_for(
                    asyncio.open_unix_connection(self.path),
                    timeout=self.CONNECT_TIMEOUT,
                )
                return self
            except (OSError, asyncio.TimeoutError) as exc:
                last = exc
        detail = "timed out" if isinstance(last, asyncio.TimeoutError) else str(last)
        raise ServiceUnavailableError(
            f"cannot connect to service socket {self.path!r} after "
            f"{self.CONNECT_RETRIES + 1} attempt(s): {detail}"
        ) from last

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self._reader = self._writer = None

    async def __aenter__(self) -> "ServiceClient":
        return await self.connect()

    async def __aexit__(self, *exc: Any) -> None:
        await self.close()

    async def _call(
        self, header: dict[str, Any], parts: Sequence[bytes] = ()
    ) -> tuple[dict[str, Any], bytes]:
        if self._reader is None or self._writer is None:
            raise ServiceError("client is not connected; call connect() first")
        with get_tracer().span(f"service.client.{header.get('op')}") as sp:
            if sp.span_id is not None:
                # Tracing is on: name our request span in the header so
                # the server parents its spans on it (trace propagation).
                header = {
                    **header,
                    "trace": {"trace_id": sp.trace_id, "span_id": sp.span_id},
                }
            try:
                async def _exchange() -> tuple[dict[str, Any], bytes]:
                    await _write_message(self._writer, header, parts)
                    return await _read_message(self._reader)

                if self.op_timeout is not None:
                    resp, resp_payload = await asyncio.wait_for(
                        _exchange(), timeout=self.op_timeout
                    )
                else:
                    resp, resp_payload = await _exchange()
            except asyncio.IncompleteReadError as exc:
                raise ServiceUnavailableError(
                    "connection closed by the service mid-request"
                ) from exc
            except asyncio.TimeoutError as exc:
                # The stream may now carry a half-read response; it cannot
                # be resynchronized, so tear the connection down.
                await self.close()
                raise ServiceUnavailableError(
                    f"service did not answer {header.get('op')!r} within "
                    f"{self.op_timeout}s"
                ) from exc
        if not resp.get("ok"):
            err = resp.get("error") or {}
            cls = _ERROR_TYPES.get(str(err.get("type")), ServiceError)
            raise cls(str(err.get("message", "service error")))
        return resp, resp_payload

    async def ping(self) -> bool:
        resp, _ = await self._call({"op": "ping"})
        return bool(resp.get("pong"))

    async def submit(
        self,
        tenant: str,
        step: int,
        blobs: Mapping[str, bytes],
        *,
        app_meta: Mapping[str, Any] | None = None,
    ) -> dict[str, Any]:
        index, parts = _pack_blobs(blobs)
        header = {
            "op": "submit",
            "tenant": tenant,
            "step": int(step),
            "blobs": index,
        }
        if app_meta:
            header["app_meta"] = dict(app_meta)
        resp, _ = await self._call(header, parts)
        return resp["ack"]

    async def restore(
        self, tenant: str, step: int | None = None
    ) -> dict[str, bytes]:
        header: dict[str, Any] = {"op": "restore", "tenant": tenant}
        if step is not None:
            header["step"] = int(step)
        resp, payload = await self._call(header)
        return _unpack_blobs(resp.get("blobs", []), payload)

    async def steps(self, tenant: str) -> list[int]:
        resp, _ = await self._call({"op": "steps", "tenant": tenant})
        return [int(s) for s in resp.get("steps", [])]

    async def stats(self) -> dict[str, Any]:
        resp, _ = await self._call({"op": "stats"})
        return resp["stats"]

    async def metrics(self) -> str:
        """Prometheus text exposition of the server's metric registry."""
        _, payload = await self._call({"op": "metrics"})
        return payload.decode("utf-8")

    async def drain(self, shard: str, *, remove: bool = False) -> dict[str, Any]:
        """Drain ``shard`` server-side; optionally remove it once empty."""
        resp, _ = await self._call(
            {"op": "drain", "shard": shard, "remove": bool(remove)}
        )
        return resp["drain"]

    async def rebalance(self) -> dict[str, Any]:
        """Converge placements onto the current ring (after a shard add)."""
        resp, _ = await self._call({"op": "rebalance"})
        return resp["rebalance"]

    async def repair(self) -> dict[str, Any]:
        """Repay replication debt left by degraded writes."""
        resp, _ = await self._call({"op": "repair"})
        return resp["repair"]
