"""Asyncio burst-buffer drain stage: bounded absorb, background drain.

This turns :class:`repro.iomodel.burst_buffer.BurstBufferModel` from a
cost model into a working component.  The model predicts three things;
this stage implements and *measures* all three so the service benchmark
can validate prediction against behaviour:

* **absorb** -- the blob itself joins the drain queue once the buffer's
  capacity can hold it, so absorbing costs no slow-tier write;
* **drain** -- background workers move absorbed blobs to the slow tier;
  each blob's drain completion is exposed as a future so commit logic
  can wait for durability without blocking ingest;
* **overflow/backpressure** -- a blob larger than the buffer writes
  through at slow-tier speed (the model's degraded path), and when the
  buffer is full the absorb path *waits* for drain progress instead of
  growing without bound -- the backpressure that makes drain lag bounded.

All waiting is asyncio-native (conditions/futures on one event loop);
only the slow-tier ``put`` runs in worker threads via
``asyncio.to_thread``, because backend stores are blocking.
"""

from __future__ import annotations

import asyncio
import time

from typing import Any

from ..ckpt.store import Store
from ..exceptions import ConfigurationError, SimulatedCrash
from ..obs import get_registry, get_tracer
from .sharded import TENANT_PREFIX

__all__ = ["BurstDrain", "DrainStats"]


def _tenant_of(key: str) -> str:
    """Tenant label value for a buffered key (``""`` for shared keys)."""
    root, _, rest = key.partition("/")
    return rest.partition("/")[0] if root == TENANT_PREFIX else ""


class DrainStats:
    """Live counters mirrored into the obs registry by the service."""

    __slots__ = (
        "absorbed_blobs",
        "absorbed_bytes",
        "through_blobs",
        "through_bytes",
        "drained_blobs",
        "drained_bytes",
        "backpressure_waits",
        "backpressure_seconds",
        "peak_used_bytes",
        "absorb_seconds",
        "drain_seconds",
        "drain_lag_seconds_max",
    )

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0 if "seconds" not in name else 0.0)

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in self.__slots__}


class BurstDrain:
    """Bounded absorb queue with background drain to a slow tier.

    Parameters
    ----------
    slow:
        The drain target (sharded directory stores); its ``put`` runs in
        worker threads.
    capacity_bytes:
        Buffer capacity.  Blobs larger than this write through to the
        slow tier directly; total buffered bytes never exceed it.
    drain_workers:
        Concurrent background drain tasks.
    """

    def __init__(
        self,
        slow: Store,
        *,
        capacity_bytes: int,
        drain_workers: int = 2,
    ) -> None:
        if capacity_bytes <= 0:
            raise ConfigurationError(
                f"capacity_bytes must be positive, got {capacity_bytes}"
            )
        if drain_workers < 1:
            raise ConfigurationError(
                f"drain_workers must be >= 1, got {drain_workers}"
            )
        self.slow = slow
        self.capacity_bytes = capacity_bytes
        self.stats = DrainStats()
        self._used = 0
        self._cond: asyncio.Condition | None = None
        self._queue: asyncio.Queue | None = None
        self._workers: list[asyncio.Task] = []
        self._n_workers = drain_workers
        self._crashed: BaseException | None = None
        self._closed = False
        self._tracer = get_tracer()
        self._metrics = get_registry()

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        self._cond = asyncio.Condition()
        self._queue = asyncio.Queue()
        self._workers = [
            asyncio.create_task(self._drain_loop(i), name=f"drain-{i}")
            for i in range(self._n_workers)
        ]

    async def close(self) -> None:
        """Drain everything still buffered, then stop the workers."""
        self._closed = True
        if self._queue is not None and self._crashed is None:
            await self._queue.join()
        for task in self._workers:
            task.cancel()
        for task in self._workers:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._workers = []

    @property
    def crashed(self) -> BaseException | None:
        return self._crashed

    # -- absorb path ---------------------------------------------------------

    async def absorb(
        self, key: str, data: bytes, *, parent: Any = None
    ) -> "asyncio.Future[None]":
        """Accept one blob; return a future resolved when it is on ``slow``.

        Returns as soon as the blob is queued for the drain (or written
        through); the future tells when it reached ``slow``.
        ``parent`` (a span or trace context) parents the write-through
        and drain spans explicitly -- the drain runs on a worker task
        whose implicit span stack has nothing to do with this submit.
        """
        assert self._queue is not None and self._cond is not None, "not started"
        if self._crashed is not None:
            raise self._crashed
        loop = asyncio.get_running_loop()
        done: asyncio.Future[None] = loop.create_future()
        nbytes = len(data)
        tenant = _tenant_of(key)
        t0 = time.monotonic()

        if nbytes > self.capacity_bytes:
            # Overflow path: the blob cannot fit, write through at
            # slow-tier speed (the model's degraded blocking case).
            with self._tracer.span(
                "service.write_through", parent=parent, key=key, nbytes=nbytes
            ):
                try:
                    await asyncio.to_thread(self.slow.put, key, data)
                except BaseException as exc:  # noqa: BLE001 - must reach client
                    self._note_failure(exc)
                    done.set_exception(exc)
                    done.exception()  # consumed: caller may only await absorb
                    raise
            self.stats.through_blobs += 1
            self.stats.through_bytes += nbytes
            self.stats.absorb_seconds += time.monotonic() - t0
            self._metrics.counter("service.write_through").inc()
            self._metrics.counter("service.write_through", tenant=tenant).inc()
            done.set_result(None)
            return done

        async with self._cond:
            waited = False
            while self._used + nbytes > self.capacity_bytes:
                if self._crashed is not None:
                    raise self._crashed
                if not waited:
                    waited = True
                    self.stats.backpressure_waits += 1
                    self._metrics.counter("service.backpressure_waits").inc()
                    self._metrics.counter(
                        "service.backpressure_waits", tenant=tenant
                    ).inc()
                await self._cond.wait()
            if waited:
                self.stats.backpressure_seconds += time.monotonic() - t0
            self._used += nbytes
            self.stats.peak_used_bytes = max(self.stats.peak_used_bytes, self._used)
        if self._crashed is not None:
            raise self._crashed

        self.stats.absorbed_blobs += 1
        self.stats.absorbed_bytes += nbytes
        self.stats.absorb_seconds += time.monotonic() - t0
        self._metrics.counter("service.absorbed_bytes", tenant=tenant).inc(nbytes)
        self._metrics.gauge("service.buffer_used_bytes").set(self._used)
        self._queue.put_nowait((key, data, time.monotonic(), done, parent))
        return done

    # -- drain path ----------------------------------------------------------

    async def _drain_loop(self, worker_id: int) -> None:
        assert self._queue is not None and self._cond is not None
        while True:
            key, data, enqueued, done, parent = await self._queue.get()
            nbytes = len(data)
            try:
                if self._crashed is not None:
                    if not done.done():
                        done.set_exception(self._crashed)
                        done.exception()
                    await self._release(nbytes)
                    continue
                t0 = time.monotonic()
                try:
                    with self._tracer.span(
                        "service.drain", parent=parent, key=key, nbytes=nbytes
                    ):
                        await asyncio.to_thread(self.slow.put, key, data)
                except BaseException as exc:  # noqa: BLE001 - reach the future
                    self._note_failure(exc)
                    if not done.done():
                        done.set_exception(exc)
                    # The blob never reached the slow tier, so its
                    # reservation must be returned -- otherwise repeated
                    # transient failures shrink effective capacity until
                    # absorbers livelock in the backpressure wait.  The
                    # notify also wakes parked absorbers so they see a
                    # crash instead of waiting for drain progress that
                    # will never come.
                    await self._release(nbytes)
                    continue
                now = time.monotonic()
                self.stats.drain_seconds += now - t0
                lag = now - enqueued
                self.stats.drain_lag_seconds_max = max(
                    self.stats.drain_lag_seconds_max, lag
                )
                self._metrics.histogram("service.drain_lag_seconds").observe(lag)
                self._metrics.histogram(
                    "service.drain_lag_seconds", tenant=_tenant_of(key)
                ).observe(lag)
                self.stats.drained_blobs += 1
                self.stats.drained_bytes += nbytes
                await self._release(nbytes)
                if not done.done():
                    done.set_result(None)
            finally:
                self._queue.task_done()

    async def _release(self, nbytes: int) -> None:
        """Return a drained (or failed) blob's reservation."""
        async with self._cond:
            self._used -= nbytes
            self._cond.notify_all()
        self._metrics.gauge("service.buffer_used_bytes").set(self._used)

    def _note_failure(self, exc: BaseException) -> None:
        """A drain/through write failed; a crash poisons the whole stage."""
        if isinstance(exc, SimulatedCrash) and self._crashed is None:
            self._crashed = exc
            self._metrics.counter("service.crashes").inc()
