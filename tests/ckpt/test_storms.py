"""Shard-level fault storms: windowed plans and the injecting wrapper."""

import zlib

import pytest

from repro.ckpt.faults import (
    STORM_BITFLIP,
    STORM_DOWN,
    STORM_FLAKY,
    STORM_KINDS,
    STORM_SLOW,
    ShardStormPlan,
    StormInjectingStore,
    StormWindow,
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


def _storm(kind, start=1.0, end=2.0, shard="s0", **kw):
    clock = FakeClock()
    plan = ShardStormPlan(
        [StormWindow(shard=shard, kind=kind, start=start, end=end, **kw)],
        clock=clock,
    )
    inner = MemoryStore()
    return StormInjectingStore(inner, shard, plan), inner, clock


class TestWindows:
    def test_validation(self):
        with pytest.raises(ConfigurationError, match="unknown storm kind"):
            StormWindow(shard="s0", kind="hurricane", start=0, end=1)
        with pytest.raises(ConfigurationError, match="start < end"):
            StormWindow(shard="s0", kind=STORM_DOWN, start=2, end=1)
        with pytest.raises(ConfigurationError, match="rate"):
            StormWindow(shard="s0", kind=STORM_FLAKY, start=0, end=1, rate=2.0)

    def test_active_respects_time_and_shard(self):
        store, _, clock = _storm(STORM_DOWN, start=1.0, end=2.0)
        plan = store.plan
        assert plan.active("s0") == []
        clock.t = 1.5
        assert len(plan.active("s0")) == 1
        assert plan.active("other") == []
        clock.t = 2.0  # end is exclusive
        assert plan.active("s0") == []

    def test_from_seed_is_deterministic(self):
        a = ShardStormPlan.from_seed(
            ["s0", "s1", "s2"], seed=42, duration=3.0, storms=6,
            clock=FakeClock(),
        )
        b = ShardStormPlan.from_seed(
            ["s0", "s1", "s2"], seed=42, duration=3.0, storms=6,
            clock=FakeClock(),
        )
        assert a.windows == b.windows
        c = ShardStormPlan.from_seed(
            ["s0", "s1", "s2"], seed=43, duration=3.0, storms=6,
            clock=FakeClock(),
        )
        assert a.windows != c.windows

    def test_horizon(self):
        plan = ShardStormPlan(
            [
                StormWindow(shard="s0", kind=STORM_DOWN, start=0.5, end=1.5),
                StormWindow(shard="s1", kind=STORM_SLOW, start=1.0, end=2.5),
            ],
            clock=FakeClock(),
        )
        assert plan.horizon == 2.5
        assert ShardStormPlan(clock=FakeClock()).horizon == 0.0


class TestDownStorm:
    def test_every_data_op_fails_during_the_window(self):
        store, inner, clock = _storm(STORM_DOWN)
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
        store, _, clock = _storm(STORM_DOWN)
        clock.t = 1.5
        store.sync()  # must not raise: barriers span all shards


class TestFlakyStorm:
    def test_fails_transiently_at_the_given_rate(self):
        store, _, clock = _storm(STORM_FLAKY, rate=1.0)
        store.put("k", b"v")
        clock.t = 1.5
        with pytest.raises(TransientStorageError, match="flaked"):
            store.get("k")

    def test_zero_rate_never_fires(self):
        store, _, clock = _storm(STORM_FLAKY, rate=0.0)
        store.put("k", b"v")
        clock.t = 1.5
        assert store.get("k") == b"v"


class TestSlowStorm:
    def test_delays_via_injected_sleeper(self):
        clock = FakeClock()
        plan = ShardStormPlan(
            [StormWindow(shard="s0", kind=STORM_SLOW, start=0.0, end=1.0,
                         delay=0.25)],
            clock=clock,
        )
        slept = []
        store = StormInjectingStore(
            MemoryStore(), "s0", plan, sleep=slept.append
        )
        store.put("k", b"v")
        assert slept == [0.25]


class TestBitflipStorm:
    def test_reads_corrupt_but_store_stays_intact(self):
        store, inner, clock = _storm(STORM_BITFLIP, rate=1.0)
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
        store, inner, clock = _storm(STORM_BITFLIP, rate=1.0)
        clock.t = 1.5
        store.put("k", b"precious")
        assert inner.get("k") == b"precious"


class TestEvents:
    def test_events_recorded_with_kinds(self):
        store, _, clock = _storm(STORM_DOWN)
        clock.t = 1.5
        with pytest.raises(StorageError):
            store.get("k")
        assert store.events[0].kind == "storm-down"
        assert store.events[0].op == "get"

    def test_all_kinds_covered(self):
        assert set(STORM_KINDS) == {
            STORM_DOWN, STORM_SLOW, STORM_FLAKY, STORM_BITFLIP
        }
