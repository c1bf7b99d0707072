"""Shard-level fault storms: windowed plans and the injecting wrapper."""

import zlib

import pytest

from repro.ckpt.faults import (
    FAULT_BITFLIP,
    FAULT_DOWN,
    FAULT_FLAKY,
    FAULT_SLOW,
    STORM_KINDS,
    FaultInjectingStore,
    FaultPlan,
    FaultWindow,
)
from repro.ckpt.store import MemoryStore
from repro.exceptions import (
    ConfigurationError,
    IntegrityError,
    StorageError,
    TransientStorageError,
)


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def _storm(kind, start=1.0, end=2.0, shard="s0", rate=1.0, **kw):
    clock = FakeClock()
    plan = FaultPlan(
        windows=[FaultWindow(kind, rate, shard=shard, start=start, end=end, **kw)],
        clock=clock,
    )
    inner = MemoryStore()
    return FaultInjectingStore(inner, plan, shard), inner, clock


class TestWindows:
    def test_validation(self):
        with pytest.raises(ConfigurationError, match="unknown fault kind"):
            FaultWindow("hurricane", 1.0, shard="s0", start=0, end=1)
        with pytest.raises(ConfigurationError, match="start < end"):
            FaultWindow(FAULT_DOWN, 1.0, shard="s0", start=2, end=1)
        with pytest.raises(ConfigurationError, match="rate"):
            FaultWindow(FAULT_FLAKY, 2.0, shard="s0", start=0, end=1)

    def test_active_respects_time_and_shard(self):
        store, _, clock = _storm(FAULT_DOWN, start=1.0, end=2.0)
        plan = store.plan
        assert plan.active("s0") == []
        clock.t = 1.5
        assert len(plan.active("s0")) == 1
        assert plan.active("other") == []
        clock.t = 2.0  # end is exclusive
        assert plan.active("s0") == []

    def test_from_seed_is_deterministic(self):
        a = FaultPlan.from_seed(
            ["s0", "s1", "s2"], seed=42, duration=3.0, storms=6,
            clock=FakeClock(),
        )
        b = FaultPlan.from_seed(
            ["s0", "s1", "s2"], seed=42, duration=3.0, storms=6,
            clock=FakeClock(),
        )
        assert a.windows == b.windows
        c = FaultPlan.from_seed(
            ["s0", "s1", "s2"], seed=43, duration=3.0, storms=6,
            clock=FakeClock(),
        )
        assert a.windows != c.windows

    def test_horizon(self):
        plan = FaultPlan(
            windows=[
                FaultWindow(FAULT_DOWN, 1.0, shard="s0", start=0.5, end=1.5),
                FaultWindow(FAULT_SLOW, 1.0, shard="s1", start=1.0, end=2.5),
            ],
            clock=FakeClock(),
        )
        assert plan.horizon == 2.5
        assert FaultPlan(clock=FakeClock()).horizon == 0.0


class TestDownStorm:
    def test_every_data_op_fails_during_the_window(self):
        store, inner, clock = _storm(FAULT_DOWN)
        store.put("k", b"v")  # before the window: fine
        clock.t = 1.5
        for op in (
            lambda: store.put("k2", b"v"),
            lambda: store.get("k"),
            lambda: store.get_verified("k", 0),  # a storm sees every read
            lambda: store.exists("k"),
            lambda: store.list_keys(""),
            lambda: store.delete("k"),
        ):
            with pytest.raises(StorageError, match="down"):
                op()
        assert inner.get("k") == b"v"  # the medium is intact, not lost
        clock.t = 2.5
        assert store.get("k") == b"v"  # storm passed: shard is back

    def test_sync_passes_through_while_down(self):
        store, _, clock = _storm(FAULT_DOWN)
        clock.t = 1.5
        store.sync()  # must not raise: barriers span all shards


class TestFlakyStorm:
    def test_fails_transiently_at_the_given_rate(self):
        store, _, clock = _storm(FAULT_FLAKY, rate=1.0)
        store.put("k", b"v")
        clock.t = 1.5
        with pytest.raises(TransientStorageError, match="flaked"):
            store.get("k")

    def test_zero_rate_never_fires(self):
        store, _, clock = _storm(FAULT_FLAKY, rate=0.0)
        store.put("k", b"v")
        clock.t = 1.5
        assert store.get("k") == b"v"


class TestSlowStorm:
    def test_delays_via_injected_sleeper(self):
        clock = FakeClock()
        plan = FaultPlan(
            windows=[FaultWindow(FAULT_SLOW, 1.0, shard="s0", start=0.0, end=1.0,
                                 delay=0.25)],
            clock=clock,
        )
        slept = []
        store = FaultInjectingStore(
            MemoryStore(), plan, "s0", sleep=slept.append
        )
        store.put("k", b"v")
        assert slept == [0.25]


class TestBitflipStorm:
    def test_reads_corrupt_but_store_stays_intact(self):
        store, inner, clock = _storm(FAULT_BITFLIP, rate=1.0)
        payload = bytes(64)
        store.put("k", payload)
        clock.t = 1.5
        got = store.get("k")
        assert got != payload
        assert len(got) == len(payload)
        with pytest.raises(IntegrityError):  # no reading around it
            store.get_verified("k", zlib.crc32(payload), len(payload))
        assert inner.get("k") == payload  # read-side only: rest intact

    def test_writes_never_corrupted(self):
        store, inner, clock = _storm(FAULT_BITFLIP, rate=1.0)
        clock.t = 1.5
        store.put("k", b"precious")
        assert inner.get("k") == b"precious"


class TestEvents:
    def test_events_recorded_with_kinds(self):
        store, _, clock = _storm(FAULT_DOWN)
        clock.t = 1.5
        with pytest.raises(StorageError):
            store.get("k")
        assert store.events[0].kind == "down"
        assert store.events[0].op == "get"

    def test_all_kinds_covered(self):
        assert set(STORM_KINDS) == {
            FAULT_DOWN, FAULT_SLOW, FAULT_FLAKY, FAULT_BITFLIP
        }
