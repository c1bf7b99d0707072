"""Deterministic fault injection for checkpoint stores.

The storage layer's resilience claims are only as good as the faults they
were tested against, so this module makes faults first-class: a
:class:`FaultPlan` decides -- deterministically, from a seed -- which store
operations fail and how, and :class:`FaultInjectingStore` wraps any
:class:`~repro.ckpt.store.Store` to act those failures out.  Three
families of kinds (DESIGN.md SS9 tabulates them):

* the storage *medium* misbehaving while the writer lives on:
  ``transient`` (raises :class:`~repro.exceptions.TransientStorageError`,
  store untouched, a retry succeeds), ``torn`` (a ``put`` persists a
  prefix), ``bitflip`` (a ``put`` lands with one bit flipped; a ``get``
  returns a flipped copy and the store stays intact) and ``missing`` (a
  ``put`` is dropped; a ``get`` reports the key absent once);
* a whole *shard* misbehaving for a while under tenant load, metadata
  operations included: ``down`` (raises
  :class:`~repro.exceptions.StorageError`), ``slow`` (an injected stall)
  and ``flaky`` (a transient failure);
* the writing *process* dying at a store operation, the Tsubame2.5
  failure mode (paper SSV) the commit journal must survive:
  ``crash-before``, ``crash-torn`` (a ``put`` persists a prefix first; a
  ``get`` degrades to ``crash-before``) and ``crash-after`` (the
  operation completes first) raise
  :class:`~repro.exceptions.SimulatedCrash`, which no retry or repair
  layer catches.  Only a schedule places them.

Every random choice -- whether a window hits an operation, which bit
flips, where a write tears -- hashes what it decides (seed, purpose, kind,
shard, operation, key, and the store's attempt count for that operation
on that key), never a position in a shared stream: a seed fixes the
faults whatever order concurrent callers reach the store in.
"""

from __future__ import annotations

import hashlib
import math
import threading
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Iterable, Mapping

import numpy as np

from ..exceptions import ConfigurationError, SimulatedCrash, StorageError, TransientStorageError
from ..failure.distributions import FailureDistribution
from ..obs.metrics import get_registry
from .store import Store, StoreWrapper

__all__ = [
    "FAULT_TRANSIENT", "FAULT_TORN", "FAULT_BITFLIP", "FAULT_MISSING", "FAULT_KINDS",
    "FAULT_DOWN", "FAULT_SLOW", "FAULT_FLAKY", "STORM_KINDS", "WINDOW_OPS",
    "CRASH_BEFORE", "CRASH_TORN", "CRASH_AFTER", "CRASH_KINDS",
    "FaultEvent", "FaultWindow", "FaultPlan", "FaultInjectingStore",
]

FAULT_TRANSIENT = "transient"
FAULT_TORN = "torn"
FAULT_BITFLIP = "bitflip"
FAULT_MISSING = "missing"
#: The media kinds, in canonical order.
FAULT_KINDS = (FAULT_TRANSIENT, FAULT_TORN, FAULT_BITFLIP, FAULT_MISSING)

FAULT_DOWN = "down"
FAULT_SLOW = "slow"
FAULT_FLAKY = "flaky"

#: The kinds :meth:`FaultPlan.from_seed` mixes into a storm, in draw order.
STORM_KINDS = (FAULT_DOWN, FAULT_SLOW, FAULT_FLAKY, FAULT_BITFLIP)

_DATA_OPS = ("put", "get")
_EVERY_OP = ("put", "get", "exists", "delete", "list_keys")

#: The operations a window of each kind hits.  ``sync`` is in none: the
#: group-commit barrier syncs every shard, and a shard that is down is
#: unreachable, not rolled back.  A window's ``bitflip`` is read-side
#: only -- a flipped byte at rest would corrupt manifests and commit
#: markers past any check; an at-rest flip is placed by a schedule.
WINDOW_OPS = {
    FAULT_TRANSIENT: _DATA_OPS, FAULT_TORN: ("put",), FAULT_BITFLIP: ("get",),
    FAULT_MISSING: _DATA_OPS, FAULT_DOWN: _EVERY_OP, FAULT_SLOW: _EVERY_OP,
    FAULT_FLAKY: _EVERY_OP,
}

CRASH_BEFORE = "crash-before"
CRASH_TORN = "crash-torn"
CRASH_AFTER = "crash-after"
#: Process deaths: schedule-only kinds (no window can hold one).
CRASH_KINDS = (CRASH_BEFORE, CRASH_TORN, CRASH_AFTER)


def _check_kinds(kinds: Iterable[str], allowed: Iterable[str]) -> None:
    for kind in kinds:
        if kind not in allowed:
            raise ConfigurationError(f"unknown fault kind {kind!r}; expected one of {tuple(allowed)}")


def _flip_bit(data: bytes, bit: int) -> bytes:
    buf = bytearray(data)
    buf[bit // 8] ^= 1 << (bit % 8)
    return bytes(buf)


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, recorded for assertions and repair-event logs."""

    index: int  # the plan's put/get counter when the fault fired
    op: str  # "put" | "get" | "exists" | "delete" | "list_keys"
    key: str
    kind: str
    detail: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


@dataclass(frozen=True)
class FaultWindow:
    """A fault of ``kind`` hitting each operation it covers with chance ``rate``.

    It covers the operations :data:`WINDOW_OPS` names for its kind, on
    ``shard`` (every shard when None), from ``start`` up to ``end``
    seconds after the plan was armed.  ``delay`` is what a ``slow``
    window stalls each operation it hits.
    """

    kind: str
    rate: float
    shard: str | None = None
    start: float = 0.0
    end: float = math.inf
    delay: float = 0.0

    def __post_init__(self) -> None:
        _check_kinds((self.kind,), WINDOW_OPS)
        if not self.end > self.start >= 0:
            raise ConfigurationError(f"fault window needs 0 <= start < end, got {self.start}, {self.end}")
        if not 0.0 <= self.rate <= 1.0:
            raise ConfigurationError(f"fault rate for {self.kind!r} must be in [0, 1], got {self.rate}")
        if self.delay < 0:
            raise ConfigurationError(f"fault delay must be >= 0, got {self.delay}")


class FaultPlan:
    """Seed-driven placement of the faults a store's operations suffer.

    One plan may hold both kinds of placement.  A **schedule**
    (``[(op_index, kind), ...]``, any media or crash kind) fires each
    placement once, at an index of one counter that only ``put`` and
    ``get`` advance, shared by every store the plan drives -- the crash
    matrices enumerate every index of the commit protocol -- and wins over
    any window.  **Windows** (:class:`FaultWindow`) live on the injected
    ``clock``, armed at construction; ``rates={kind: p}`` is shorthand
    for windows over all time and every shard.  The first window, in
    start order, whose keyed draw hits an operation decides its fault.
    """

    def __init__(
        self,
        *,
        seed: int = 0,
        rates: Mapping[str, float] | None = None,
        schedule: Iterable[tuple[int, str]] | None = None,
        windows: Iterable[FaultWindow] = (),
        clock: Callable[[], float] | None = None,
    ) -> None:
        self.seed = seed
        shorthand = [FaultWindow(kind, float(p)) for kind, p in (rates or {}).items()]
        self.windows = sorted([*shorthand, *windows], key=lambda w: w.start)
        self._schedule: dict[int, str] = {}
        for op_index, kind in schedule or ():
            _check_kinds((kind,), FAULT_KINDS + CRASH_KINDS)
            if int(op_index) < 0:
                raise ConfigurationError(f"scheduled op index must be >= 0, got {op_index}")
            self._schedule[int(op_index)] = kind
        self._clock = clock if clock is not None else time.monotonic
        self._t0 = self._clock()
        self._lock = threading.Lock()
        #: index of the last put or get (-1 before any)
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
        """A schedule from a failure-time distribution whose MTBF is in
        store operations: a failure at time ``t`` hits operation
        ``floor(t)`` with a kind drawn uniformly from ``kinds``."""
        if horizon_ops < 0:
            raise ConfigurationError(f"horizon_ops must be >= 0, got {horizon_ops}")
        _check_kinds(kinds, FAULT_KINDS + CRASH_KINDS)
        rng = np.random.default_rng(seed)
        times = dist.failure_times(float(horizon_ops), rng)
        schedule = [(int(t), str(rng.choice(kinds))) for t in times]
        return cls(seed=seed, schedule=schedule)

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
        clock: Callable[[], float] | None = None,
    ) -> "FaultPlan":
        """A storm matrix: ``storms`` windows over ``[0, duration)``, shard,
        kind and placement drawn from ``seed``.  ``rate`` is the hit chance
        of ``flaky`` and ``bitflip`` storms; ``down`` hits every operation,
        and ``slow`` every operation when ``delay`` is positive."""
        shard_ids = sorted(shards)
        if not shard_ids:
            raise ConfigurationError("a storm plan needs at least one shard")
        rng = np.random.default_rng(seed)
        always = {FAULT_DOWN: 1.0, FAULT_SLOW: float(delay > 0)}
        windows = []
        for _ in range(int(storms)):
            shard = str(rng.choice(shard_ids))
            kind = str(rng.choice(list(STORM_KINDS)))
            start = float(rng.uniform(0.0, duration * 0.6))
            length = float(rng.uniform(duration * 0.1, duration * 0.4))
            end = min(start + length, duration)
            windows.append(FaultWindow(kind, always.get(kind, rate), shard, start, end, delay))
        return cls(windows=windows, seed=seed, clock=clock)

    def now(self) -> float:
        """Seconds since the plan was armed."""
        return self._clock() - self._t0

    def active(self, shard: str | None) -> list[FaultWindow]:
        """The windows covering ``shard`` now, in start order."""
        t = self.now()
        return [w for w in self.windows if w.shard in (None, shard) and w.start <= t < w.end]

    @property
    def horizon(self) -> float:
        """End of the last window (seconds since armed); 0 when empty."""
        return max((w.end for w in self.windows), default=0.0)

    def keyed(self, purpose: str, *what: Any) -> int:
        """A 64-bit draw that depends only on the seed and what it decides."""
        digest = hashlib.blake2b(repr((self.seed, purpose, *what)).encode(), digest_size=8)
        return int.from_bytes(digest.digest(), "big")

    def draw(self, op: str, key: str, shard: str | None, attempt: int) -> tuple[int, str | None, float]:
        """``(op index, kind or None, delay)`` for one operation.  ``attempt``
        counts the earlier ``op`` on ``key`` by the same store, so a retry
        draws afresh.  Only ``put`` and ``get`` advance the op index and
        meet a scheduled fault (a ``torn`` one on a ``put`` only)."""
        scheduled = None
        with self._lock:
            if op in _DATA_OPS:
                self.op_index += 1
                scheduled = self._schedule.pop(self.op_index, None)
            index = self.op_index
        if scheduled is not None and (op == "put" or scheduled != FAULT_TORN):
            return index, scheduled, 0.0
        for w in self.active(shard):
            if op in WINDOW_OPS[w.kind] and self.keyed("hit", w.kind, shard, op, key, attempt) < w.rate * 2**64:
                return index, w.kind, w.delay
        return index, None, 0.0


class FaultInjectingStore(StoreWrapper):
    """Store wrapper that acts out a :class:`FaultPlan`.

    Each shard of a :class:`~repro.service.sharded.ShardedStore` gets its
    own wrapper with its ``shard`` id and one shared plan.  A verified
    read is a ``get`` with the same effects: a bit it flips fails the
    check :meth:`StoreWrapper.get_verified` runs again on replaced bytes.
    Every injection is appended to :attr:`events` and counted under
    ``store.faults.<kind>`` (labelled with the shard, if any), process
    deaths under ``store.crashes``.  Media faults go *inside* a
    :class:`~repro.ckpt.resilience.ResilientStore`, a plan of crash kinds
    *outermost*, inside only the harness that restarts the job.
    """

    def __init__(
        self, inner: Store, plan: FaultPlan, shard: str | None = None, *, sleep=None
    ) -> None:
        super().__init__(inner)
        self.plan = plan
        self.shard = shard
        self._sleep = sleep if sleep is not None else time.sleep
        self._attempts: Counter[tuple[str, str]] = Counter()
        self._lock = threading.Lock()
        self.events: list[FaultEvent] = []

    def _record(self, index: int, op: str, key: str, kind: str, **detail: Any) -> None:
        self.events.append(FaultEvent(index=index, op=op, key=key, kind=kind, detail=detail))
        labels = {} if self.shard is None else {"shard": self.shard}
        name = "store.crashes" if kind in CRASH_KINDS else f"store.faults.{kind}"
        get_registry().counter(name, **labels).inc()

    def _strike(self, op: str, key: str) -> tuple[int, str | None, Callable[[str, int], int]]:
        """Draw the fault for one operation and act out whatever strikes
        before it reaches the store; return ``(op index, kind, position)``
        for the caller to act out the rest, ``position(purpose, n)`` being
        the operation's keyed draw in ``[0, n)``."""
        with self._lock:
            attempt = self._attempts[op, key]
            self._attempts[op, key] += 1
        index, kind, delay = self.plan.draw(op, key, self.shard, attempt)

        def position(purpose: str, n: int) -> int:
            return self.plan.keyed(purpose, kind, self.shard, op, key, attempt) % n

        where = f"{op} of {key!r}"
        if kind == FAULT_SLOW:
            self._record(index, op, key, kind, delay=delay)
            self._sleep(delay)
        elif kind == FAULT_DOWN:
            self._record(index, op, key, kind)
            raise StorageError(f"shard {self.shard!r} is down (injected fault on {where})")
        elif kind in (FAULT_TRANSIENT, FAULT_FLAKY):
            self._record(index, op, key, kind)
            raise TransientStorageError(f"injected transient I/O error: {where} flaked")
        elif kind == FAULT_MISSING and op == "get":
            self._record(index, op, key, kind)
            raise StorageError(f"no object stored under key {key!r} (injected spurious miss)")
        elif kind == CRASH_BEFORE or (kind == CRASH_TORN and op != "put"):
            self._crash(index, op, key, kind)  # a read cannot tear
        return index, kind, position

    def _crash(self, index: int, op: str, key: str, kind: str) -> None:
        self._record(index, op, key, kind, op_index=index)
        raise SimulatedCrash(
            f"injected process death at store op {index} "
            f"({kind.removeprefix('crash-')} {op} of {key!r})"
        )

    def _before(self, op: str, key: str) -> None:
        self._strike(op, key)

    def put(self, key: str, data: bytes) -> None:
        index, kind, position = self._strike("put", key)
        if kind == FAULT_MISSING:
            self._record(index, "put", key, kind)
            return  # dropped write: the blob never lands
        # empty payloads cannot be torn or bit-flipped; they land intact
        if kind in (FAULT_TORN, CRASH_TORN) and data:
            cut = position("cut", len(data))
            if kind == FAULT_TORN:
                self._record(index, "put", key, kind, cut=cut, size=len(data))
            else:
                self.inner.put(key, data[:cut])
            data = data[:cut]
        elif kind == FAULT_BITFLIP and data:
            bit = position("bit", len(data) * 8)
            self._record(index, "put", key, kind, bit=bit)
            data = _flip_bit(data, bit)
        if kind in CRASH_KINDS:
            if kind == CRASH_AFTER:
                self.inner.put(key, data)
            self._crash(index, "put", key, kind)
        self.inner.put(key, data)

    def _read(self, key: str, read: Callable[[], bytes]) -> bytes:
        """``read`` is the inner ``get`` or verified read: one decision,
        the same effects for both."""
        index, kind, position = self._strike("get", key)
        data = read()
        if kind == CRASH_AFTER:  # the read completes, its result dies with us
            self._crash(index, "get", key, kind)
        if kind == FAULT_BITFLIP and data:
            bit = position("bit", len(data) * 8)
            self._record(index, "get", key, kind, bit=bit)
            return _flip_bit(data, bit)
        return data
