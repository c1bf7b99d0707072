"""Deterministic fault injection for checkpoint stores.

The storage layer's resilience claims are only as good as the faults they
were tested against, so this module makes faults first-class: a
:class:`FaultPlan` decides -- deterministically, from a seed -- which store
operations fail and how, and :class:`FaultInjectingStore` wraps any
:class:`~repro.ckpt.store.Store` to act those failures out.  Four kinds
model the storage *medium* misbehaving while the writer lives on:

``transient``
    The operation raises :class:`~repro.exceptions.TransientStorageError`
    and leaves the store untouched; a retry succeeds.  Models NFS hiccups,
    EINTR, brief network partitions.
``torn``
    A ``put`` persists only a prefix of the payload.  Models a writer that
    died mid-write on a medium without atomic rename.
``bitflip``
    On ``put``, the payload lands with one bit flipped (corruption at
    rest); on ``get``, the returned copy has one bit flipped while the
    store stays intact (a transient misread a CRC-aware re-read heals).
``missing``
    A ``put`` is silently dropped (the blob never lands); a ``get``
    spuriously reports the key absent once.

Three more model the opposite -- the medium is fine but the writing
*process* dies at a store operation, the Tsubame2.5 failure mode (paper
SSV) that motivates checkpointing in the first place and exactly what the
two-phase commit journal must survive.  Each raises
:class:`~repro.exceptions.SimulatedCrash`, which no retry or repair layer
catches, and can only be placed by an explicit schedule; together they
put a death strictly before, inside, and strictly after any protocol
step -- mid-blob, post-blob/pre-manifest, post-manifest/pre-marker:

``crash-before``
    The process dies before the operation touches the store.
``crash-torn``
    A ``put`` persists a deterministic prefix of the payload, then the
    process dies; on a ``get`` it degrades to ``crash-before``.
``crash-after``
    The operation completes, then the process dies (a read's result dies
    with it).

Plans compose with the :mod:`repro.failure` models: build one from a
:class:`~repro.failure.distributions.FailureDistribution` and an MTBF model
decides which store ops die (``repro-ckpt restart --crash-mtbf-ops``).
All randomness flows through one seeded :class:`numpy.random.Generator`
with a fixed draw discipline, so a given seed and operation sequence
always produce the same faults -- the property the CI determinism job
checks.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Iterable, Mapping

import numpy as np

from ..exceptions import (
    ConfigurationError,
    SimulatedCrash,
    StorageError,
    TransientStorageError,
)
from ..failure.distributions import FailureDistribution
from ..obs.metrics import get_registry
from .store import Store, StoreWrapper

__all__ = [
    "FAULT_TRANSIENT",
    "FAULT_TORN",
    "FAULT_BITFLIP",
    "FAULT_MISSING",
    "FAULT_KINDS",
    "CRASH_BEFORE",
    "CRASH_TORN",
    "CRASH_AFTER",
    "CRASH_KINDS",
    "FaultEvent",
    "FaultPlan",
    "FaultInjectingStore",
    "STORM_DOWN",
    "STORM_SLOW",
    "STORM_FLAKY",
    "STORM_BITFLIP",
    "STORM_KINDS",
    "StormWindow",
    "ShardStormPlan",
    "StormInjectingStore",
]

FAULT_TRANSIENT = "transient"
FAULT_TORN = "torn"
FAULT_BITFLIP = "bitflip"
FAULT_MISSING = "missing"

#: The rate-drawable kinds, in canonical order; also the per-operation draw
#: order of :class:`FaultPlan`.  Crash kinds must never join this tuple:
#: rate mode consumes one variate per entry per operation, so every seeded
#: placement would move.
FAULT_KINDS = (FAULT_TRANSIENT, FAULT_TORN, FAULT_BITFLIP, FAULT_MISSING)

CRASH_BEFORE = "crash-before"
CRASH_TORN = "crash-torn"
CRASH_AFTER = "crash-after"

#: Process deaths: schedule-only kinds (never drawn by rate).
CRASH_KINDS = (CRASH_BEFORE, CRASH_TORN, CRASH_AFTER)


def _eligible(kind: str, op: str) -> bool:
    """Every kind can hit both data operations, except that only a ``put``
    can be ``torn`` (a ``crash-torn`` get still dies, untorn)."""
    return op == "put" or kind != FAULT_TORN


def _check_kinds(
    kinds: Iterable[str], allowed: tuple[str, ...], noun: str = "fault"
) -> None:
    for kind in kinds:
        if kind not in allowed:
            raise ConfigurationError(
                f"unknown {noun} kind {kind!r}; expected one of {allowed}"
            )


def _flip_bit(data: bytes, bit: int) -> bytes:
    buf = bytearray(data)
    buf[bit // 8] ^= 1 << (bit % 8)
    return bytes(buf)


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, recorded for assertions and repair-event logs."""

    index: int  # global operation index (puts and gets share one counter)
    op: str  # "put" | "get"
    key: str
    kind: str
    detail: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


class FaultPlan:
    """Seed-driven schedule deciding which store operations fail, and how.

    Two construction modes:

    * **Rate mode** (``rates={kind: probability}``): every eligible
      operation draws one uniform variate per kind, in :data:`FAULT_KINDS`
      order, first hit wins.  The fixed draw discipline keeps the RNG
      stream aligned with the operation sequence, so identical seeds give
      identical fault placements.
    * **Schedule mode** (``schedule=[(op_index, kind), ...]``): explicit
      deterministic placements by global operation index (``put`` and
      ``get`` share one counter), of any kind including
      :data:`CRASH_KINDS` -- the crash-matrix tests enumerate every index
      of the commit protocol; :meth:`from_distribution` builds one from a
      failure-time distribution.  Each placement fires at most once.

    The two modes are mutually exclusive.  One plan may drive several
    injecting stores: they then share its operation counter.
    """

    def __init__(
        self,
        *,
        seed: int = 0,
        rates: Mapping[str, float] | None = None,
        schedule: Iterable[tuple[int, str]] | None = None,
    ) -> None:
        if rates is not None and schedule is not None:
            raise ConfigurationError(
                "FaultPlan takes either rates or an explicit schedule, not both"
            )
        self._rng = np.random.default_rng(seed)
        self.seed = seed
        self._rates: dict[str, float] = {}
        for kind, p in dict(rates or {}).items():
            _check_kinds((kind,), FAULT_KINDS)
            if not 0.0 <= float(p) <= 1.0:
                raise ConfigurationError(
                    f"fault rate for {kind!r} must be in [0, 1], got {p}"
                )
            self._rates[kind] = float(p)
        self._schedule: dict[int, str] = {}
        for op_index, kind in schedule or ():
            _check_kinds((kind,), FAULT_KINDS + CRASH_KINDS)
            if int(op_index) < 0:
                raise ConfigurationError(
                    f"scheduled op index must be >= 0, got {op_index}"
                )
            self._schedule[int(op_index)] = kind
        #: index of the last decided operation (-1 before any)
        self.op_index = -1

    @classmethod
    def from_distribution(
        cls,
        dist: FailureDistribution,
        *,
        horizon_ops: int,
        kinds: tuple[str, ...] = FAULT_KINDS,
        seed: int = 0,
    ) -> "FaultPlan":
        """Convert a failure-time distribution into a per-operation schedule.

        Each store operation advances a simulated clock by one time unit
        (the distribution's MTBF is in operations); a failure at time
        ``t`` hits operation ``floor(t)``.  The fault kind at each hit is
        drawn uniformly from ``kinds`` (pass :data:`CRASH_KINDS` for
        process deaths).
        """
        if horizon_ops < 0:
            raise ConfigurationError(f"horizon_ops must be >= 0, got {horizon_ops}")
        _check_kinds(kinds, FAULT_KINDS + CRASH_KINDS)
        rng = np.random.default_rng(seed)
        times = dist.failure_times(float(horizon_ops), rng)
        schedule = [(int(t), str(rng.choice(kinds))) for t in times]
        return cls(seed=seed, schedule=schedule)

    # -- decision ----------------------------------------------------------

    def draw(self, op: str) -> str | None:
        """The fault kind for the next operation of type ``op``, or None.

        Advances the global operation counter; rate mode consumes exactly
        one uniform variate per fault kind regardless of the outcome, so
        the stream stays aligned with the op sequence.
        """
        self.op_index += 1
        hit: str | None = self._schedule.pop(self.op_index, None)
        if hit is not None and not _eligible(hit, op):
            hit = None
        if self._rates:
            draws = {kind: float(self._rng.random()) for kind in FAULT_KINDS}
            for kind in FAULT_KINDS:
                rate = self._rates.get(kind, 0.0)
                if rate and _eligible(kind, op) and draws[kind] < rate:
                    hit = kind
                    break
        return hit

    def position(self, n: int) -> int:
        """A deterministic position in ``[0, n)``, ``n > 0`` (bit/cut placement)."""
        return int(self._rng.integers(0, n))


class FaultInjectingStore(StoreWrapper):
    """Store wrapper that acts out a :class:`FaultPlan` on ``put``/``get``.

    Metadata operations (``exists``/``delete``/``list_keys``/``sync``)
    pass through untouched -- the interesting failure surface is the data
    path, and a directory listing cannot tear a commit.  A verified read
    is a ``get``: it draws one decision and suffers the same effects, so
    no caller reads around the injection; a bit it flips is caught by the
    check :meth:`StoreWrapper.get_verified` runs again on the bytes a
    ``_read`` replaced, and never comes back as a verified read.  Every
    injection is appended to
    :attr:`events`; media faults are counted in the global metrics
    registry under ``store.faults.<kind>``, process deaths under
    ``store.crashes``.

    Stacking order: media faults go *inside* a
    :class:`~repro.ckpt.resilience.ResilientStore` (the retry layer is
    what is under test), a plan of crash kinds *outermost*, inside only
    the harness that models the scheduler restarting the job.
    """

    def __init__(self, inner: Store, plan: FaultPlan) -> None:
        super().__init__(inner)
        self.plan = plan
        self.events: list[FaultEvent] = []

    def _record(self, op: str, key: str, kind: str, **detail: Any) -> None:
        self.events.append(
            FaultEvent(
                index=self.plan.op_index, op=op, key=key, kind=kind, detail=detail
            )
        )
        get_registry().counter(
            "store.crashes" if kind in CRASH_KINDS else f"store.faults.{kind}"
        ).inc()

    def _crash(self, op: str, key: str, kind: str) -> None:
        index = self.plan.op_index
        self._record(op, key, kind, op_index=index)
        raise SimulatedCrash(
            f"injected process death at store op {index} "
            f"({kind.removeprefix('crash-')} {op} of {key!r})"
        )

    def put(self, key: str, data: bytes) -> None:
        kind = self.plan.draw("put")
        if kind in CRASH_KINDS:
            if kind == CRASH_TORN and len(data) > 0:
                self.inner.put(key, data[: self.plan.position(len(data))])
            elif kind == CRASH_AFTER:
                self.inner.put(key, data)
            self._crash("put", key, kind)
        if kind == FAULT_TRANSIENT:
            self._record("put", key, kind)
            raise TransientStorageError(
                f"injected transient I/O error writing {key!r}"
            )
        if kind == FAULT_MISSING:
            self._record("put", key, kind)
            return  # dropped write: the blob never lands
        # empty payloads cannot be torn or bit-flipped; they land intact
        if kind == FAULT_TORN and len(data) > 0:
            cut = self.plan.position(len(data))
            self._record("put", key, kind, cut=cut, size=len(data))
            data = data[:cut]
        elif kind == FAULT_BITFLIP and len(data) > 0:
            bit = self.plan.position(len(data) * 8)
            self._record("put", key, kind, bit=bit)
            data = _flip_bit(data, bit)
        self.inner.put(key, data)

    def _read(self, key: str, read: Callable[[], bytes]) -> bytes:
        """``read`` is the inner ``get`` or verified read: one decision,
        the same effects for both."""
        kind = self.plan.draw("get")
        if kind == FAULT_TRANSIENT:
            self._record("get", key, kind)
            raise TransientStorageError(
                f"injected transient I/O error reading {key!r}"
            )
        if kind == FAULT_MISSING:
            self._record("get", key, kind)
            raise StorageError(
                f"no object stored under key {key!r} (injected spurious miss)"
            )
        if kind in (CRASH_BEFORE, CRASH_TORN):  # a read cannot tear
            self._crash("get", key, kind)
        data = read()
        if kind == CRASH_AFTER:  # the read completes, its result dies with us
            self._crash("get", key, kind)
        if kind == FAULT_BITFLIP and len(data) > 0:
            bit = self.plan.position(len(data) * 8)
            self._record("get", key, kind, bit=bit)
            return _flip_bit(data, bit)
        return data


# -- shard-level fault storms ---------------------------------------------------
#
# Faults and crashes above hit individual *operations*.  Storms model what
# the replicated service actually faces: a whole shard misbehaving for a
# window of time -- a machine down, a disk slow, a NIC flaky, a controller
# corrupting reads -- while concurrent tenant load keeps flowing.  The
# chaos harness wraps every shard backend in a StormInjectingStore driven
# by one ShardStormPlan and asserts the service invariants (no acked
# generation lost, restores bit-identical, SLO surface degrading and
# recovering) rather than exact fault placements, because the asyncio
# service interleaves operations nondeterministically; windows are
# therefore scheduled in *time* (injected clock), not by op index.

STORM_DOWN = "down"  # every data operation fails hard
STORM_SLOW = "slow"  # operations complete after an injected delay
STORM_FLAKY = "flaky"  # operations fail transiently with probability `rate`
STORM_BITFLIP = "bitflip"  # reads return a flipped bit with probability `rate`

STORM_KINDS = (STORM_DOWN, STORM_SLOW, STORM_FLAKY, STORM_BITFLIP)


@dataclass(frozen=True)
class StormWindow:
    """One shard-level fault window on the plan's relative clock.

    ``start``/``end`` are seconds since the plan was armed.  ``rate`` is
    the per-operation hit probability for ``flaky``/``bitflip`` storms
    (``down`` ignores it: every op fails); ``delay`` is the per-operation
    stall for ``slow`` storms.  Bitflips are **read-side only** by
    design: a flipped byte *at rest* would silently corrupt manifests and
    commit markers in ways no storage layer can distinguish from valid
    data, whereas a misread is exactly what the CRC failover + read-repair
    path exists to heal -- corruption at rest is the bitflip FaultPlan
    kind's job, exercised by the resilience suite.
    """

    shard: str
    kind: str
    start: float
    end: float
    rate: float = 1.0
    delay: float = 0.0

    def __post_init__(self) -> None:
        _check_kinds((self.kind,), STORM_KINDS, "storm")
        if not self.end > self.start >= 0:
            raise ConfigurationError(
                f"storm window needs 0 <= start < end, got [{self.start}, {self.end})"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ConfigurationError(
                f"storm rate must be in [0, 1], got {self.rate}"
            )
        if self.delay < 0:
            raise ConfigurationError(
                f"storm delay must be >= 0, got {self.delay}"
            )


class ShardStormPlan:
    """A time-windowed schedule of shard-level fault storms.

    Shared by every :class:`StormInjectingStore` of one chaos run so all
    shards march to the same clock.  The plan is *armed* (t=0 pinned) on
    construction using the injected ``clock``; tests pass a fake clock
    and step it explicitly, the chaos benchmark uses wall time.

    ``from_seed`` builds a deterministic storm matrix: ``storms`` windows
    placed over ``[0, duration)`` across ``shards``, kinds and shards
    drawn from a seeded RNG -- the fixed seed matrix CI replays.
    """

    def __init__(
        self,
        windows: Iterable[StormWindow] = (),
        *,
        seed: int = 0,
        clock=None,
    ) -> None:
        self.windows = sorted(windows, key=lambda w: (w.start, w.shard))
        self._rng = np.random.default_rng(seed)
        self.seed = seed
        self._clock = clock if clock is not None else time.monotonic
        self._t0 = self._clock()

    @classmethod
    def from_seed(
        cls,
        shards: Iterable[str],
        *,
        seed: int = 0,
        duration: float = 2.0,
        storms: int = 4,
        rate: float = 0.5,
        delay: float = 0.001,
        clock=None,
    ) -> "ShardStormPlan":
        shard_ids = sorted(shards)
        if not shard_ids:
            raise ConfigurationError("a storm plan needs at least one shard")
        rng = np.random.default_rng(seed)
        windows = []
        for _ in range(int(storms)):
            shard = str(rng.choice(shard_ids))
            kind = str(rng.choice(list(STORM_KINDS)))
            start = float(rng.uniform(0.0, duration * 0.6))
            length = float(rng.uniform(duration * 0.1, duration * 0.4))
            windows.append(
                StormWindow(
                    shard=shard,
                    kind=kind,
                    start=start,
                    end=min(start + length, duration),
                    rate=rate,
                    delay=delay,
                )
            )
        return cls(windows, seed=seed, clock=clock)

    def now(self) -> float:
        """Seconds since the plan was armed."""
        return self._clock() - self._t0

    def active(self, shard: str) -> list[StormWindow]:
        """The storm windows currently covering ``shard``."""
        t = self.now()
        return [
            w for w in self.windows if w.shard == shard and w.start <= t < w.end
        ]

    def hit(self, rate: float) -> bool:
        """One seeded Bernoulli draw (flaky / bitflip per-op decision)."""
        return float(self._rng.random()) < rate

    def position(self, n: int) -> int:
        """A deterministic position in ``[0, n)``, ``n > 0`` (bitflip placement)."""
        return int(self._rng.integers(0, n))

    @property
    def horizon(self) -> float:
        """End of the last window (seconds since armed); 0 when empty."""
        return max((w.end for w in self.windows), default=0.0)


class StormInjectingStore(StoreWrapper):
    """Shard backend wrapper acting out a :class:`ShardStormPlan`.

    Wrap each shard of a :class:`~repro.service.sharded.ShardedStore`
    with its own shard id and the *shared* plan.  During a ``down``
    window every data operation (put/get/exists/list_keys/delete) raises
    :class:`~repro.exceptions.StorageError` -- the shard is gone as far
    as callers can tell, which is what trips the circuit breaker and
    forces failover.  ``sync`` passes through even while down: the
    wrapper simulates an unreachable shard, not lost history, and the
    group-commit barrier syncing a shard it never wrote to must not
    explode the whole batch.  A ``bitflip`` window's flipped read fails a
    verified read (the check :meth:`StoreWrapper.get_verified` runs again
    on replaced bytes) rather than passing for the stored payload.
    """

    def __init__(self, inner: Store, shard_id: str, plan: ShardStormPlan, *, sleep=None) -> None:
        super().__init__(inner)
        self.shard_id = shard_id
        self.plan = plan
        self._sleep = sleep if sleep is not None else time.sleep
        self.events: list[FaultEvent] = []

    def _before(self, op: str, key: str) -> None:
        """Apply active windows; raises when the op must fail."""
        if op == "sync":
            return
        for w in self.plan.active(self.shard_id):
            if w.kind == STORM_DOWN:
                self._note(op, key, STORM_DOWN)
                raise StorageError(
                    f"shard {self.shard_id!r} is down (injected storm)"
                )
            if w.kind == STORM_SLOW and w.delay > 0:
                self._note(op, key, STORM_SLOW, delay=w.delay)
                self._sleep(w.delay)
            elif w.kind == STORM_FLAKY and self.plan.hit(w.rate):
                self._note(op, key, STORM_FLAKY)
                raise TransientStorageError(
                    f"shard {self.shard_id!r} flaked on {op} of {key!r} "
                    f"(injected storm)"
                )

    def _note(self, op: str, key: str, kind: str, **detail: Any) -> None:
        self.events.append(
            FaultEvent(index=len(self.events), op=op, key=key, kind=f"storm-{kind}", detail=detail)
        )
        get_registry().counter(
            f"store.storms.{kind}", shard=self.shard_id
        ).inc()

    def _read(self, key: str, read: Callable[[], bytes]) -> bytes:
        self._before("get", key)
        data = read()
        for w in self.plan.active(self.shard_id):
            if w.kind == STORM_BITFLIP and len(data) > 0 and self.plan.hit(w.rate):
                bit = self.plan.position(len(data) * 8)
                self._note("get", key, STORM_BITFLIP, bit=bit)
                return _flip_bit(data, bit)
        return data
