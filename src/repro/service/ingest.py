"""The multi-tenant checkpoint ingest service.

:class:`CheckpointIngestService` is the long-running component tying the
service layer together.  One submit travels:

1. **admission** -- tenant lookup (:class:`UnknownTenantError` for
   strangers), rate-quota token (bounded wait, then
   :class:`QuotaExceededError`), byte-quota reservation (refused *before*
   any payload is absorbed);
2. **absorb** -- each blob is queued in the burst buffer
   (:class:`~repro.service.buffer.BurstDrain`) under the tenant's
   namespaced generation key, with backpressure when the buffer is full;
3. **drain** -- background workers move the blobs to the slow (typically
   sharded) tier;
4. **group commit** -- once a generation's blobs have all drained, its
   manifest joins the committer's queue; the committer seals whatever is
   ready (up to ``max_batch`` generations) with
   :func:`repro.ckpt.journal.group_seal` and two shared sync barriers, and
   only after the second barrier returns is the submit acknowledged.

An acknowledged submit is therefore durably committed under exactly the
same two-phase marker protocol a single-writer
:class:`~repro.ckpt.journal.CommitTransaction` uses -- recovery and
restore need no service-specific cases.  An injected
:class:`~repro.exceptions.SimulatedCrash` anywhere in the pipeline
poisons the service: pending submits fail with
:class:`ServiceUnavailableError`, nothing new is accepted, and the next
service incarnation's :meth:`CheckpointIngestService.recover_tenants`
reaps whatever the crash tore.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Mapping

from ..ckpt.journal import (
    COMMIT_FORMAT_VERSION,
    GroupSealItem,
    committed_steps,
    group_seal,
    is_committed,
    load_committed,
)
from ..ckpt.manifest import (
    ArrayEntry,
    CheckpointManifest,
    array_key,
    validate_app_meta,
)
from ..ckpt.recovery import RecoveryReport, recover
from ..ckpt.store import Store
from ..config import ServiceConfig
from ..exceptions import (
    CommitError,
    QuotaExceededError,
    ServiceUnavailableError,
    SimulatedCrash,
    UnknownTenantError,
)
from ..obs import MetricsFlusher, SLOTracker, get_registry, get_tracer
from .sharded import NamespacedStore, ShardedStore, TENANT_PREFIX
from .buffer import BurstDrain
from .health import ShardHealth
from .tenants import TenantRegistry

__all__ = ["CheckpointIngestService", "IngestAck", "build_service"]


class IngestAck:
    """What a successful submit returns: the commit, timed."""

    __slots__ = ("tenant", "step", "nbytes", "n_blobs", "latency_seconds", "batch_size")

    def __init__(self, tenant, step, nbytes, n_blobs, latency_seconds, batch_size):
        self.tenant = tenant
        self.step = step
        self.nbytes = nbytes
        self.n_blobs = n_blobs
        self.latency_seconds = latency_seconds
        self.batch_size = batch_size

    def to_dict(self) -> dict[str, Any]:
        return {name: getattr(self, name) for name in self.__slots__}


def _admission_outcome(exc: BaseException) -> str:
    """Label value classifying why a submit was refused."""
    if isinstance(exc, UnknownTenantError):
        return "unknown-tenant"
    if isinstance(exc, QuotaExceededError):
        return "quota"
    if isinstance(exc, CommitError):
        return "duplicate"
    if isinstance(exc, ServiceUnavailableError):
        return "unavailable"
    return "error"


class _PendingCommit:
    __slots__ = ("item", "future", "batch_size", "trace_ctx")

    def __init__(
        self,
        item: GroupSealItem,
        future: "asyncio.Future",
        trace_ctx: Mapping[str, Any] | None = None,
    ) -> None:
        self.item = item
        self.future = future
        self.batch_size = 0
        self.trace_ctx = trace_ctx


class CheckpointIngestService:
    """Asyncio front-end accepting concurrent checkpoint streams.

    Parameters
    ----------
    store:
        The slow/durable tier all tenants share -- usually a
        :class:`~repro.service.sharded.ShardedStore` over
        ``DirectoryStore(durability="batch")`` backends so the group
        commit's sync barriers amortize real fsyncs.
    tenants:
        The :class:`~repro.service.tenants.TenantRegistry` holding
        namespaces and quotas.
    config:
        The service's sizing (:class:`~repro.config.ServiceConfig`, which
        validates it): burst-buffer capacity and drain workers, the most
        generations one group commit may seal (``max_batch=1`` is the
        benchmark's per-generation baseline arm), the longest a submit
        waits for a rate-quota token, and the metrics flush interval.
    slo:
        Optional :class:`~repro.obs.slo.SLOTracker` fed one good/bad
        observation per submit; its verdict surfaces in :meth:`stats`
        and :meth:`metrics_text`.
    flush_sink:
        When set and ``config.metrics_flush_interval`` is positive,
        :meth:`start` launches a :class:`~repro.obs.flush.MetricsFlusher`
        that emits registry (and SLO) snapshots to the sink at that
        interval for offline ``repro report`` analysis.
    """

    def __init__(
        self,
        store: Store,
        tenants: TenantRegistry,
        config: ServiceConfig | None = None,
        *,
        slo: SLOTracker | None = None,
        flush_sink: Any = None,
    ) -> None:
        self.store = store
        self.tenants = tenants
        self.config = config if config is not None else ServiceConfig()
        self.buffer = BurstDrain(
            store,
            capacity_bytes=self.config.buffer_capacity_bytes,
            drain_workers=self.config.drain_workers,
        )
        self._views: dict[str, NamespacedStore] = {}
        self._commit_queue: asyncio.Queue[_PendingCommit] | None = None
        self._committer: asyncio.Task | None = None
        self._inflight: set[tuple[str, int]] = set()
        self._crashed: BaseException | None = None
        self._closed = False
        self._tracer = get_tracer()
        self._metrics = get_registry()
        self.slo = slo
        self._flusher: MetricsFlusher | None = None
        self._flush_sink = flush_sink
        self.commits = 0
        self.group_commits = 0

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        await self.buffer.start()
        self._commit_queue = asyncio.Queue()
        self._committer = asyncio.create_task(self._commit_loop(), name="committer")
        interval = self.config.metrics_flush_interval
        if self._flush_sink is not None and interval > 0:
            self._flusher = MetricsFlusher(
                self._flush_sink,
                interval=interval,
                registry=self._metrics,
                slo=self.slo,
            )
            self._flusher.start()

    async def close(self) -> None:
        """Stop accepting, finish in-flight work, sync the stores."""
        self._closed = True
        if self._flusher is not None:
            await self._flusher.close()
            self._flusher = None
        # A submit holds an _inflight entry from admission until its
        # commit future resolves; once _closed is set no new entry can
        # appear, so waiting here keeps the committer alive until every
        # already-admitted submit has enqueued and been resolved.
        while self._inflight:
            await asyncio.sleep(0.002)
        if self._commit_queue is not None and self._crashed is None:
            await self._commit_queue.join()
        if self._committer is not None:
            self._committer.cancel()
            try:
                await self._committer
            except asyncio.CancelledError:
                pass
            self._committer = None
        # Nothing should still be enqueued, but never strand a submitter
        # awaiting a future the committer can no longer resolve.
        self._fail_queued(ServiceUnavailableError("service is shutting down"))
        await self.buffer.close()
        if self._crashed is None:
            await asyncio.to_thread(self.store.sync)

    async def __aenter__(self) -> "CheckpointIngestService":
        await self.start()
        return self

    async def __aexit__(self, *exc: Any) -> None:
        await self.close()

    @property
    def crashed(self) -> BaseException | None:
        return self._crashed or self.buffer.crashed

    def _check_accepting(self) -> None:
        crash = self.crashed
        if crash is not None:
            raise ServiceUnavailableError(
                f"service crashed and is no longer accepting submits: {crash}"
            ) from crash
        if self._closed:
            raise ServiceUnavailableError("service is shutting down")
        if self._commit_queue is None or self._committer is None:
            raise ServiceUnavailableError("service is not started")

    def view(self, tenant: str) -> NamespacedStore:
        """The tenant's namespaced view of the shared store."""
        self.tenants.spec(tenant)  # UnknownTenantError for strangers
        store = self._views.get(tenant)
        if store is None:
            store = NamespacedStore(self.store, f"{TENANT_PREFIX}/{tenant}")
            self._views[tenant] = store
        return store

    # -- ingest path ---------------------------------------------------------

    async def submit(
        self,
        tenant: str,
        step: int,
        blobs: Mapping[str, bytes],
        *,
        app_meta: Mapping[str, Any] | None = None,
        trace_parent: Any = None,
    ) -> IngestAck:
        """Ingest one checkpoint generation; returns once durably committed.

        ``trace_parent`` (a :class:`~repro.obs.trace.Span` or a
        ``tracer.context()`` dict) parents the ``service.submit`` span on
        a remote caller's request span instead of this thread's stack.
        """
        t_start = time.monotonic()
        try:
            ack = await self._submit_once(
                tenant, step, blobs, app_meta=app_meta,
                trace_parent=trace_parent, t_start=t_start,
            )
        except BaseException as exc:
            self._observe_submit(
                str(tenant), time.monotonic() - t_start, _admission_outcome(exc)
            )
            raise
        self._observe_submit(ack.tenant, ack.latency_seconds, "accepted")
        return ack

    def _observe_submit(self, tenant: str, latency: float, outcome: str) -> None:
        """Per-tenant admission/latency accounting for one submit attempt."""
        m = self._metrics
        try:
            m.counter("service.admission", tenant=tenant, outcome=outcome).inc()
        except ValueError:
            # a tenant name the label charset refuses (only possible for
            # refused strangers) still must not break accounting
            m.counter("service.admission", tenant="_invalid", outcome=outcome).inc()
            tenant = "_invalid"
        if outcome == "accepted":
            m.counter("service.submits").inc()
            m.counter("service.submits", tenant=tenant).inc()
            m.histogram("service.ingest_seconds").observe(latency)
            m.histogram("service.ingest_seconds", tenant=tenant).observe(latency)
        if self.slo is not None:
            # Quota/duplicate refusals are the service *working*; only
            # service-side failures burn the error budget.
            self.slo.record(
                latency, error=outcome in ("unavailable", "error")
            )

    async def _submit_once(
        self,
        tenant: str,
        step: int,
        blobs: Mapping[str, bytes],
        *,
        app_meta: Mapping[str, Any] | None,
        trace_parent: Any,
        t_start: float,
    ) -> IngestAck:
        self._check_accepting()
        view = self.view(tenant)  # raises UnknownTenantError first
        step = int(step)
        if step < 0:
            raise CommitError(f"step must be >= 0, got {step}")
        if not blobs:
            raise CommitError("a checkpoint submit needs at least one blob")
        meta = validate_app_meta(app_meta)
        total = sum(len(data) for data in blobs.values())

        delay = self.tenants.reserve_rate(
            tenant, max_wait=self.config.rate_max_wait
        )
        if delay > 0.0:
            await asyncio.sleep(delay)
        self.tenants.reserve_bytes(tenant, total)
        charged = True
        key = (tenant, step)
        try:
            self._check_accepting()
            # Check-and-reserve with no await in between: asyncio runs
            # this block atomically, so two concurrent submits of the
            # same (tenant, step) cannot both pass admission.
            if key in self._inflight:
                raise CommitError(
                    f"tenant {tenant!r} already has step {step} in flight"
                )
            self._inflight.add(key)
            try:
                if await asyncio.to_thread(is_committed, view, step):
                    raise CommitError(
                        f"tenant {tenant!r} step {step} already holds a committed "
                        f"checkpoint; delete it before rewriting"
                    )
                with self._tracer.span(
                    "service.submit",
                    parent=trace_parent,
                    tenant=tenant,
                    step=step,
                    nbytes=total,
                ) as sub_span:
                    entries = []
                    drained = []
                    for name, data in sorted(blobs.items()):
                        bkey = view._k(array_key(step, name))
                        try:
                            drained.append(
                                await self.buffer.absorb(
                                    bkey,
                                    data,
                                    parent=(
                                        sub_span
                                        if sub_span.span_id is not None
                                        else None
                                    ),
                                )
                            )
                        except SimulatedCrash as exc:
                            raise ServiceUnavailableError(
                                f"service crashed while absorbing "
                                f"{tenant}/{step}: {exc}"
                            ) from exc
                        entries.append(
                            ArrayEntry(
                                name=name,
                                shape=(len(data),),
                                dtype="|u1",
                                codec="raw",
                                raw_bytes=len(data),
                                stored_bytes=len(data),
                                crc32=ArrayEntry.checksum(data),
                            )
                        )
                    # every blob of the generation must be on the slow
                    # tier before its manifest may join a commit batch
                    try:
                        await asyncio.gather(*drained)
                    except SimulatedCrash as exc:
                        raise ServiceUnavailableError(
                            f"service crashed while draining {tenant}/{step}: {exc}"
                        ) from exc
                    manifest = CheckpointManifest(
                        step=step,
                        entries=tuple(entries),
                        app_meta=meta,
                        format_version=COMMIT_FORMAT_VERSION,
                    )
                    pending = _PendingCommit(
                        GroupSealItem(view, manifest),
                        asyncio.get_running_loop().create_future(),
                        # the submit span's own ids (not the thread-local
                        # stack top, which another coroutine may own at
                        # this await point): the committer parents the
                        # batch's group-commit span on it
                        trace_ctx=(
                            {
                                "trace_id": sub_span.trace_id,
                                "span_id": sub_span.span_id,
                            }
                            if sub_span.span_id is not None
                            else None
                        ),
                    )
                    # _check_accepting() verified the queue exists at
                    # admission, before any payload was absorbed.
                    self._commit_queue.put_nowait(pending)
                    try:
                        await pending.future
                    except SimulatedCrash as exc:
                        raise ServiceUnavailableError(
                            f"service crashed while committing {tenant}/{step}: {exc}"
                        ) from exc
                charged = False  # committed: the bytes are now owned storage
            finally:
                self._inflight.discard(key)
        finally:
            if charged:
                self.tenants.release_bytes(tenant, total)
        latency = time.monotonic() - t_start
        return IngestAck(
            tenant=tenant,
            step=step,
            nbytes=total,
            n_blobs=len(blobs),
            latency_seconds=latency,
            batch_size=pending.batch_size,
        )

    # -- group committer -----------------------------------------------------

    async def _commit_loop(self) -> None:
        assert self._commit_queue is not None
        queue = self._commit_queue
        max_batch = self.config.max_batch
        while True:
            # Seal what is ready: the first generation plus whatever else
            # queued; generations that drain while this seal runs in its
            # worker thread form the next batch.
            batch = [await queue.get()]
            while len(batch) < max_batch:
                try:
                    batch.append(queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            try:
                if self._crashed is not None:
                    for p in batch:
                        if not p.future.done():
                            p.future.set_exception(self._crashed)
                    continue
                try:
                    await asyncio.to_thread(
                        group_seal,
                        [p.item for p in batch],
                        barrier=self.store,
                        # the worker thread has no span stack; parent the
                        # group-commit span on the first traced submit
                        parent=next(
                            (p.trace_ctx for p in batch if p.trace_ctx), None
                        ),
                    )
                except BaseException as exc:  # noqa: BLE001 - reach submitters
                    if isinstance(exc, SimulatedCrash):
                        self._poison(exc)
                    for p in batch:
                        if not p.future.done():
                            p.future.set_exception(exc)
                    continue
                self.commits += len(batch)
                self.group_commits += 1
                self._metrics.histogram("service.commit_batch").observe(len(batch))
                for p in batch:
                    p.batch_size = len(batch)
                    if not p.future.done():
                        p.future.set_result(p.item.marker)
            finally:
                for _ in batch:
                    queue.task_done()

    def _poison(self, exc: BaseException) -> None:
        """An injected crash kills the whole service incarnation."""
        if self._crashed is None:
            self._crashed = exc
            self._metrics.counter("service.crashes").inc()
        self._fail_queued(exc)

    def _fail_queued(self, exc: BaseException) -> None:
        """Fail every commit still queued with ``exc``."""
        if self._commit_queue is None:
            return
        while True:
            try:
                p = self._commit_queue.get_nowait()
            except asyncio.QueueEmpty:
                return
            if not p.future.done():
                p.future.set_exception(exc)
            self._commit_queue.task_done()

    # -- read / recovery side ------------------------------------------------

    def committed_steps(self, tenant: str) -> list[int]:
        """Committed generation numbers of one tenant, ascending."""
        return committed_steps(self.view(tenant))

    def restore_blobs(self, tenant: str, step: int | None = None) -> dict[str, bytes]:
        """Read back one committed generation, CRC-verified, as raw blobs."""
        view = self.view(tenant)
        # the manifest is read by the CRC its marker seals, so a replica
        # holding a damaged copy of it fails over and is repaired, exactly
        # like the blobs below
        manifest = load_committed(view, step)
        step = manifest.step
        out: dict[str, bytes] = {}
        for entry in manifest.entries:
            # get_verified routes the CRC down into the sharded store, so a
            # replica corrupt at rest fails over to a good copy (and is
            # repaired) instead of surfacing IntegrityError to the tenant;
            # its acceptance test is the one hash each blob gets.
            out[entry.name] = view.get_verified(
                array_key(step, entry.name), entry.crc32, entry.stored_bytes
            )
        return out

    def recover_tenants(self) -> dict[str, RecoveryReport]:
        """Startup recovery pass over every registered tenant's namespace.

        Reaps torn/orphaned generations per tenant and prunes stale
        placement records when the shared store is sharded.  Run this on a
        *fresh* service incarnation before accepting submits.
        """
        reports: dict[str, RecoveryReport] = {}
        for name in self.tenants.names():
            reports[name] = recover(self.view(name), reap=True)
        if isinstance(self.store, ShardedStore):
            self.store.prune_placement()
        return reports

    def repair_replication(self) -> dict[str, Any]:
        """Repay recorded replication debt (run after a shard recovers).

        Degraded writes accepted while a replica shard was down left the
        shortfall in the store's debt ledger; this pass re-copies those
        units onto their missing replicas (verify-before-trust) and
        retires exactly the debt that was actually repaid.
        """
        if not isinstance(self.store, ShardedStore):
            return {
                "repaired_units": 0,
                "attempted_units": 0,
                "keys_copied": 0,
                "bytes_copied": 0,
                "remaining_debt": {"units": 0, "missing_copies": 0},
            }
        from .replication import repair_debt

        return repair_debt(self.store)

    # -- diagnostics ---------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "commits": self.commits,
            "group_commits": self.group_commits,
            "mean_batch": (self.commits / self.group_commits) if self.group_commits else 0.0,
            "buffer": self.buffer.stats.as_dict(),
            "tenants": self.tenants.stats(),
            "crashed": self.crashed is not None,
        }
        if isinstance(self.store, ShardedStore):
            out["shards"] = self.store.shard_stats()
            out["degraded"] = self.store.degraded
        if self.slo is not None:
            out["slo"] = self.slo.status()
        return out

    def metrics_text(self) -> str:
        """Prometheus text exposition of the shared registry.

        Refreshes the derived gauges (shard occupancy, SLO verdict)
        first so a scrape always sees current values, not whatever the
        last submit left behind.
        """
        if isinstance(self.store, ShardedStore):
            self.store.shard_stats()
        if self.slo is not None:
            self.slo.export(self._metrics)
        return self._metrics.to_prometheus()


def build_service(
    root: str,
    tenants: TenantRegistry,
    config: ServiceConfig | None = None,
    *,
    flush_sink: Any = None,
) -> CheckpointIngestService:
    """Stand up a service over sharded directory stores under ``root``.

    Layout: ``root/shard-<i>/`` data shards plus ``root/_placement/`` for
    the persisted placement map.  Re-opening the same root with the same
    (or a grown) shard count finds every earlier generation: recorded
    placements pin old units, the ring only places new ones.  Used by the
    ``repro-ckpt serve`` CLI and the load benchmark.
    """
    import os

    from ..ckpt.store import DirectoryStore

    if config is None:
        config = ServiceConfig()
    shards = {
        f"shard-{i:02d}": DirectoryStore(
            os.path.join(root, f"shard-{i:02d}"), durability=config.durability
        )
        for i in range(config.shards)
    }
    placement = DirectoryStore(
        os.path.join(root, "_placement"), durability=config.durability
    )
    store = ShardedStore(
        shards,
        placement=placement,
        replication=config.replication,
        health=ShardHealth(),
    )
    slo = None
    if config.slo_latency_p99 is not None:
        slo = SLOTracker(
            latency_threshold_seconds=config.slo_latency_p99,
            objective=config.slo_objective,
            histogram=get_registry().histogram("service.ingest_seconds"),
        )
    return CheckpointIngestService(
        store, tenants, config, slo=slo, flush_sink=flush_sink
    )
