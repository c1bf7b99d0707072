"""Sharded and namespaced store views for the multi-tenant service.

Two composable wrappers over the :class:`~repro.ckpt.store.Store`
interface:

* :class:`NamespacedStore` -- one tenant's view of a shared store: every
  key is transparently prefixed with ``tenants/<name>/``, so the
  per-tenant commit journal and recovery machinery run unmodified while
  tenants can never name each other's objects.
* :class:`ShardedStore` -- consistent-hash placement over N backend
  stores.  The *placement unit* is a whole checkpoint generation (every
  key under ``.../ckpt/<step>/`` routes together), which keeps each
  generation's blobs, manifest and COMMIT marker colocated on one
  replica set: commit atomicity and recovery classification then never
  straddle backends.

Placement is **stable** three ways deep:

1. the :class:`~repro.service.hashring.HashRing` is a pure function of
   the shard-id set (same key -> same shards across runs);
2. every *first placement* of a unit is persisted as a tiny record in a
   placement-map store, so generations written under an older shard set
   are still found after shards join (the per-tenant placement map the
   service exposes);
3. reads fall back to probing every shard, so even a lost placement map
   degrades to a slower lookup, never to data loss.

Since the replication PR, placement is also **redundant**: with
``replication=N`` every unit is written to the first N distinct shards
clockwise of its hash (the successor walk), reads fail over across the
replicas (optionally guided by a :class:`~repro.service.health.ShardHealth`
circuit breaker so a dead shard is skipped instead of waited out), a
read that finds a replica missing -- or, through :meth:`ShardedStore.get_verified`,
failing CRC -- repairs it from a good copy, and writes that cannot reach
every replica *degrade* instead of erroring the tenant: they land on the
replicas that are up and record the shortfall in a
:class:`~repro.service.replication.ReplicationDebt` ledger for the
repair pass to repay.
"""

from __future__ import annotations

import re
import threading
import zlib
from typing import Any, Callable, Iterable, Mapping

from ..ckpt.store import Store, StoreWrapper
from ..exceptions import ConfigurationError, IntegrityError, StorageError
from ..obs.metrics import get_registry
from .hashring import HashRing
from .health import ShardHealth
from .replication import ReplicationDebt, decode_replicas, encode_replicas

__all__ = ["NamespacedStore", "ShardedStore", "placement_unit", "TENANT_PREFIX"]

TENANT_PREFIX = "tenants"

#: A generation directory anywhere in a key: everything up to and
#: including ``ckpt/<digits>`` routes as one unit.
_GENERATION_RE = re.compile(r"^(?P<unit>(?:[^/]+/)*ckpt/\d+)/")

_PLACEMENT_PREFIX = "placement/"


def placement_unit(key: str) -> str:
    """The routing unit of ``key``: its generation directory, or itself.

    ``tenants/a/ckpt/0000000007/u.bin`` -> ``tenants/a/ckpt/0000000007``
    so a generation's blobs, manifest and marker always share a replica
    set; keys outside any generation directory route individually.
    """
    m = _GENERATION_RE.match(key)
    return m.group("unit") if m else key


class NamespacedStore(StoreWrapper):
    """A prefix-scoped view of an inner store (one tenant's namespace)."""

    def __init__(self, inner: Store, namespace: str) -> None:
        if not namespace or namespace.endswith("/") or "//" in namespace:
            raise ConfigurationError(
                f"namespace must be a clean relative path, got {namespace!r}"
            )
        super().__init__(inner)
        self.namespace = namespace
        self._prefix = namespace + "/"

    def _k(self, key: str) -> str:
        return self._prefix + key

    def put(self, key: str, data: bytes) -> None:
        self.inner.put(self._k(key), data)

    def get(self, key: str) -> bytes:
        return self.inner.get(self._k(key))

    def get_verified(self, key: str, crc32: int, nbytes: int | None = None) -> bytes:
        return self.inner.get_verified(self._k(key), crc32, nbytes)

    def exists(self, key: str) -> bool:
        return self.inner.exists(self._k(key))

    def delete(self, key: str) -> None:
        self.inner.delete(self._k(key))

    def list_keys(self, prefix: str = "") -> list[str]:
        n = len(self._prefix)
        return [k[n:] for k in self.inner.list_keys(self._prefix + prefix)]


class ShardedStore(Store):
    """Consistent-hash, replicated placement of generations across backends.

    Parameters
    ----------
    shards:
        ``{shard_id: store}`` backends.  Ids are the ring identity --
        reuse the same ids across restarts.
    placement:
        Small store persisting first-placement records (unit -> ordered
        replica list).  Point it at a durable location (e.g. a
        ``DirectoryStore`` next to the shard roots) so placement survives
        restarts and shard-set changes; a ``MemoryStore`` keeps the map
        for the process only, after which the ring + probe fallback find
        the data.  Records written before replication existed (a single
        shard id) load unchanged.
    replication:
        Distinct shards each placement unit is written to (successor
        walk).  Clamped by the number of shards actually on the ring; a
        two-shard store with ``replication=3`` holds two copies.
    health:
        Optional :class:`~repro.service.health.ShardHealth` breaker set.
        When present, writes skip shards whose breaker is open (the unit
        goes into replication debt) and reads try live replicas first,
        falling back to open-breaker shards only when no live replica
        holds the data.
    """

    def __init__(
        self,
        shards: Mapping[str, Store],
        *,
        placement: Store,
        replication: int = 1,
        health: ShardHealth | None = None,
    ) -> None:
        if not shards:
            raise ConfigurationError("ShardedStore needs at least one shard")
        if not isinstance(replication, int) or isinstance(replication, bool) \
                or replication < 1:
            raise ConfigurationError(
                f"replication must be an int >= 1, got {replication!r}"
            )
        self.shards: dict[str, Store] = dict(shards)
        self.ring = HashRing(list(self.shards))
        self.placement = placement
        self.replication = replication
        self.health = health
        self.debt = ReplicationDebt()
        self._cache: dict[str, tuple[str, ...]] = {}
        self._put_bytes: dict[str, int] = {sid: 0 for sid in self.shards}
        self._lock = threading.Lock()

    # -- shard membership ----------------------------------------------------

    def add_shard(self, shard_id: str, store: Store) -> None:
        """Join a new backend; existing units keep their recorded homes."""
        if shard_id in self.shards:
            raise ConfigurationError(f"shard {shard_id!r} already exists")
        self.ring.add(shard_id)
        self.shards[shard_id] = store

    def remove_shard(self, shard_id: str) -> None:
        """Remove an *empty* backend from the ring.

        Refuses while the shard still holds objects: placement records
        pointing at a vanished shard would turn into data loss.  Drain
        (:class:`~repro.service.migration.MigrationWorker`) first.  Any
        recorded replica list still naming the departed shard -- records
        a crashed drain left behind, or pre-drain debt -- is scrubbed
        down to its surviving members so reads never consult a ghost.
        """
        store = self.shards.get(shard_id)
        if store is None:
            raise ConfigurationError(f"shard {shard_id!r} does not exist")
        leftover = store.list_keys("")
        if leftover:
            raise StorageError(
                f"shard {shard_id!r} still holds {len(leftover)} object(s) "
                f"(e.g. {leftover[0]!r}); migrate them before removal"
            )
        self.ring.remove(shard_id)
        del self.shards[shard_id]
        for unit, replicas in self.placement_map().items():
            if shard_id not in replicas:
                continue
            survivors = [sid for sid in replicas if sid != shard_id]
            if survivors:
                self._record(unit, tuple(survivors), force=True)
            else:
                self._drop_record(unit)
            self.debt.resolve(unit, [shard_id])
        with self._lock:
            self._cache = {
                u: tuple(s for s in reps if s != shard_id) or tuple()
                for u, reps in self._cache.items()
            }
            self._cache = {u: reps for u, reps in self._cache.items() if reps}

    # -- placement -----------------------------------------------------------

    def _record(
        self, unit: str, replicas: tuple[str, ...], *, force: bool = False
    ) -> None:
        with self._lock:
            known = self._cache.get(unit)
            if known == replicas and not force:
                return
            self._cache[unit] = replicas
        self.placement.put(_PLACEMENT_PREFIX + unit, encode_replicas(list(replicas)))

    def _drop_record(self, unit: str) -> None:
        with self._lock:
            self._cache.pop(unit, None)
        self.placement.delete(_PLACEMENT_PREFIX + unit)
        self.debt.forget(unit)

    def _recorded(self, unit: str) -> tuple[str, ...] | None:
        """The unit's recorded replica list, filtered to live shard ids."""
        with self._lock:
            replicas = self._cache.get(unit)
        if replicas is None:
            pkey = _PLACEMENT_PREFIX + unit
            if self.placement.exists(pkey):
                replicas = tuple(decode_replicas(self.placement.get(pkey)))
                with self._lock:
                    self._cache[unit] = replicas
        if replicas is None:
            return None
        known = tuple(sid for sid in replicas if sid in self.shards)
        return known or None

    def _target_replicas(self, unit: str) -> tuple[str, ...]:
        """Where the unit's copies should live: recorded homes, topped up
        from the ring walk when the record is shorter than the target."""
        recorded = self._recorded(unit) or ()
        if len(recorded) >= self.replication:
            return recorded
        extra = self.ring.successors(
            unit, self.replication, exclude=set(recorded)
        )
        return recorded + tuple(extra[: self.replication - len(recorded)])

    def replicas_for(self, key: str) -> list[str]:
        """The ordered replica set a read of ``key`` should walk."""
        unit = placement_unit(key)
        recorded = self._recorded(unit)
        if recorded is not None:
            return list(recorded)
        return self.ring.successors(unit, self.replication)

    def _read_order(self, key: str) -> tuple[list[str], list[str]]:
        """``(candidates, probes)``: replicas to try in order, then every
        other shard for the probe fallback."""
        candidates = self.replicas_for(key)
        probes = [sid for sid in sorted(self.shards) if sid not in candidates]
        return candidates, probes

    def placement_map(self) -> dict[str, list[str]]:
        """Every persisted ``{unit: [replica ids]}`` record: where each
        generation of every tenant lives."""
        out: dict[str, list[str]] = {}
        for key in self.placement.list_keys(_PLACEMENT_PREFIX):
            unit = key[len(_PLACEMENT_PREFIX):]
            out[unit] = decode_replicas(self.placement.get(key))
        return out

    def prune_placement(self) -> int:
        """Drop placement records whose unit no longer holds any object
        (generations reaped by recovery or retention), and rebuild the
        replication-debt ledger from what is left; returns removals.

        :meth:`delete` already retires a unit's record when its last key
        goes, so the pruning only catches records orphaned out-of-band --
        crash debris, or keys reaped directly on a backend store.  The
        ledger lives in memory, so a restarted service would otherwise
        forget the copies its predecessor's degraded writes still owe: a
        recorded replica that holds fewer of the unit's keys than another
        recorded replica is recorded as owing them, and so is one that
        cannot be listed; a unit with such a replica is never dropped.
        """
        removed = 0
        for unit, replicas in self.placement_map().items():
            held: dict[str, int] = {}
            unreachable: list[str] = []
            for sid in replicas:
                store = self.shards.get(sid)
                if store is None:
                    continue
                try:
                    held[sid] = len(store.list_keys(unit + "/")) + store.exists(unit)
                except StorageError:
                    unreachable.append(sid)
            most = max(held.values(), default=0)
            if most:
                owed = [sid for sid, n in held.items() if n < most]
                self.debt.record(unit, owed + unreachable)
            elif not unreachable:
                self._drop_record(unit)
                removed += 1
        return removed

    # -- replica helpers -----------------------------------------------------

    def unit_keys(self, unit: str) -> list[str]:
        """Every key of ``unit`` present on any reachable shard (union)."""
        keys: set[str] = set()
        for store in self.shards.values():
            try:
                keys.update(store.list_keys(unit + "/"))
                if store.exists(unit):
                    keys.add(unit)
            except StorageError:
                continue  # unreachable shard; its replicas cover the unit
        return sorted(keys)

    def replica_get(self, key: str, *, exclude: set[str] = frozenset()) -> bytes:
        """Read ``key`` from any replica not in ``exclude`` (repair source)."""
        return self._read(key, skip=exclude)

    def copy_verified(self, sid: str, key: str, data: bytes) -> bool:
        """Make shard ``sid`` hold ``data`` under ``key``, and prove it.

        The one verify-before-trust copy (repair and migration): an
        already identical copy is left alone, anything else is put, read
        back and compared.  Returns whether bytes were written; a copy
        that reads back differently raises and never counts.
        """
        store = self.shards[sid]
        if store.exists(key) and store.get(key) == data:
            return False
        store.put(key, data)
        if store.get(key) != data:
            raise StorageError(f"copy of {key!r} to {sid!r} read back differently")
        return True

    def _available(self, sid: str) -> bool:
        return self.health is None or self.health.available(sid)

    def _note_success(self, sid: str) -> None:
        if self.health is not None:
            self.health.record_success(sid)

    def _note_failure(self, sid: str, exc: BaseException) -> None:
        if self.health is not None:
            self.health.record_failure(sid, str(exc))

    def _read_repair(
        self, key: str, data: bytes, targets: Iterable[str], reason: str
    ) -> None:
        """Re-put a good copy onto replicas that missed or corrupted it."""
        for sid in targets:
            store = self.shards.get(sid)
            if store is None or not self._available(sid):
                continue
            try:
                store.put(key, data)
                self._note_success(sid)
                get_registry().counter(
                    "service.read_repairs", shard=sid, reason=reason
                ).inc()
            except StorageError as exc:
                self._note_failure(sid, exc)

    # -- store interface -----------------------------------------------------

    def put(self, key: str, data: bytes) -> None:
        unit = placement_unit(key)
        replicas = self._target_replicas(unit)
        self._record(unit, replicas)
        wrote: list[str] = []
        missed: list[str] = []
        for sid in replicas:
            if not self._available(sid):
                missed.append(sid)
                continue
            try:
                self.shards[sid].put(key, data)
            except StorageError as exc:
                self._note_failure(sid, exc)
                missed.append(sid)
                continue
            self._note_success(sid)
            wrote.append(sid)
        if not wrote:
            raise StorageError(
                f"write of {key!r} failed on every replica {list(replicas)}"
            )
        if missed:
            # Degraded write: the data is durable on the replicas that
            # are up; the shortfall is recorded as replication debt for
            # the repair pass, never surfaced as a tenant error.
            self.debt.record(unit, missed)
            get_registry().counter("service.degraded_writes").inc()
        metrics = get_registry()
        with self._lock:
            for sid in wrote:
                self._put_bytes[sid] = self._put_bytes.get(sid, 0) + len(data)
        for sid in wrote:
            metrics.counter("service.shard_put_bytes", shard=sid).inc(len(data))

    def _read(
        self,
        key: str,
        accept: Callable[[bytes], bool] | None = None,
        skip: set[str] = frozenset(),
    ) -> bytes:
        """The replica read ladder, written once.

        Live replicas first; shards with open breakers only as a last
        resort (they may hold the only copy of a degraded write); the
        full probe sweep last (lost placement map).  Shards in ``skip``
        are left out of every tier.  Every shard the read touches reports
        one outcome to its breaker -- a success whenever it answered,
        whatever it held -- so a half-open probe granted here always
        ends here.  ``accept`` is the test a copy must
        pass to be served (``None``: any copy that reads).  A copy that
        fails it is re-read once -- a misread is cheaper to rule out than
        a failover -- and if it fails again it is corrupt at rest *on
        that replica only*: the walk moves on, and the first good copy is
        written back over every corrupt or missing one (read-repair).
        Raises :class:`~repro.exceptions.IntegrityError` when every
        replica that holds the key is corrupt.
        """
        candidates, probes = (
            [sid for sid in tier if sid not in skip] for tier in self._read_order(key)
        )
        live = [sid for sid in candidates if self._available(sid)]
        skipped = [sid for sid in candidates if sid not in live]
        corrupt: list[str] = []
        missing: list[str] = []
        failed = False
        metrics = get_registry()
        for order in (live, skipped, probes):
            for i, sid in enumerate(order):
                store = self.shards[sid]
                try:
                    held = store.exists(key)
                    if held:
                        data = store.get(key)
                        good = accept is None or accept(data)
                        if not good:
                            metrics.counter("store.retry.crc_rereads").inc()
                            data = store.get(key)
                            good = accept(data)
                except StorageError as exc:
                    self._note_failure(sid, exc)
                    failed = True
                    metrics.counter("service.failover_reads", shard=sid).inc()
                    continue
                self._note_success(sid)
                if not held:
                    if order is live:
                        missing.append(sid)
                    continue
                if not good:
                    # data corruption on one replica, not shard
                    # unavailability: the walk moves on
                    corrupt.append(sid)
                    metrics.counter("service.failover_reads", shard=sid).inc()
                    continue
                if order is live:
                    # Audit the replicas behind the serving one, so a copy
                    # lost or silently corrupted *behind* it is healed
                    # while a good copy provably exists.  Comparing bytes
                    # costs a read per replica: paid only where the caller
                    # brought a test that says which copy is right.
                    for other in order[i + 1:]:
                        try:
                            if not self.shards[other].exists(key):
                                missing.append(other)
                            elif (
                                accept is not None
                                and self.shards[other].get(key) != data
                            ):
                                corrupt.append(other)
                        except StorageError as exc:
                            self._note_failure(other, exc)
                            continue
                        self._note_success(other)
                self._read_repair(key, data, corrupt, reason="crc")
                self._read_repair(key, data, missing, reason="missing")
                if failed and order is not live:
                    metrics.counter("service.failover_served").inc()
                return data
        if corrupt:
            raise IntegrityError(
                f"blob {key!r} is corrupt on every replica that holds it "
                f"({sorted(corrupt)})"
            )
        raise StorageError(f"no object stored under key {key!r}")

    def get(self, key: str) -> bytes:
        return self._read(key)

    def get_verified(self, key: str, crc32: int, nbytes: int | None = None) -> bytes:
        """CRC-checked read that fails over *and repairs* across replicas
        (:meth:`_read` with the CRC and length as the acceptance test)."""
        want = crc32 & 0xFFFFFFFF
        return self._read(
            key,
            lambda data: nbytes in (None, len(data)) and zlib.crc32(data) == want,
        )

    def exists(self, key: str) -> bool:
        candidates, probes = self._read_order(key)
        for sid in [*candidates, *probes]:
            try:
                if self.shards[sid].exists(key):
                    return True
            except StorageError:
                continue
        return False

    def delete(self, key: str) -> None:
        unit = placement_unit(key)
        for sid, store in self.shards.items():
            try:
                if store.exists(key):
                    store.delete(key)
            except StorageError:
                continue
        # Placement records must not outlive their unit: when the last
        # key of the generation goes, retire the record (and any debt)
        # instead of leaking one stale record per reaped generation.
        if self._recorded(unit) is not None and not self.unit_keys(unit):
            self._drop_record(unit)

    def list_keys(self, prefix: str = "") -> list[str]:
        merged: set[str] = set()
        for store in self.shards.values():
            try:
                merged.update(store.list_keys(prefix))
            except StorageError:
                # Unreachable shard: with replication its keys are also
                # enumerable from a live replica; without, a listing gap
                # is the honest answer while the shard is down.
                continue
        return sorted(merged)

    def sync(self) -> None:
        """Barrier over every backend (and the placement map)."""
        for store in self.shards.values():
            store.sync()
        self.placement.sync()

    # -- diagnostics ---------------------------------------------------------

    @property
    def degraded(self) -> bool:
        """True while a shard breaker is open or replication debt exists."""
        if self.health is not None and self.health.degraded:
            return True
        return len(self.debt) > 0

    def shard_key_counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for sid, store in sorted(self.shards.items()):
            try:
                out[sid] = len(store.list_keys(""))
            except StorageError:
                out[sid] = -1  # unreachable shard; occupancy unknown
        return out

    def shard_stats(self) -> dict[str, Any]:
        """Per-shard occupancy plus imbalance and health, gauges refreshed.

        ``imbalance`` is max/mean key count across shards (1.0 = perfectly
        even); the value the rebalancing worker watches.
        """
        counts = self.shard_key_counts()
        with self._lock:
            put_bytes = dict(self._put_bytes)
        reachable = {sid: n for sid, n in counts.items() if n >= 0}
        mean = sum(reachable.values()) / len(reachable) if reachable else 0.0
        imbalance = (max(reachable.values()) / mean) if mean > 0 else 1.0
        metrics = get_registry()
        for sid, n in counts.items():
            metrics.gauge("service.shard_keys", shard=sid).set(max(n, 0))
            metrics.gauge("service.shard_bytes_written", shard=sid).set(
                put_bytes.get(sid, 0)
            )
        metrics.gauge("service.shard_imbalance").set(imbalance)
        metrics.gauge("service.degraded").set(1.0 if self.degraded else 0.0)
        out: dict[str, Any] = {
            "keys": counts,
            "put_bytes": put_bytes,
            "imbalance": imbalance,
            "replication": self.replication,
            "degraded": self.degraded,
            "debt": self.debt.stats(),
        }
        if self.health is not None:
            out["health"] = self.health.snapshot()
        return out
