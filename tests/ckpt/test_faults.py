"""Unit tests for deterministic store fault injection."""

from __future__ import annotations

import zlib

import pytest

from repro.ckpt.faults import (
    CRASH_AFTER,
    CRASH_BEFORE,
    CRASH_KINDS,
    CRASH_TORN,
    FAULT_BITFLIP,
    FAULT_KINDS,
    FAULT_MISSING,
    FAULT_TORN,
    FAULT_TRANSIENT,
    FaultInjectingStore,
    FaultPlan,
)
from repro.ckpt.store import MemoryStore
from repro.exceptions import (
    ConfigurationError,
    IntegrityError,
    SimulatedCrash,
    StorageError,
    TransientStorageError,
)
from repro.failure.distributions import ExponentialFailures


def _kinds(plan, n, op="put"):
    """The fault kind the plan draws for each of ``n`` first ``op``s of
    distinct keys."""
    return [plan.draw(op, f"k{i}", None, 0)[1] for i in range(n)]


def _decisions(store):
    """What a store's faults were, without the arrival-order op index."""
    return sorted(
        (e.op, e.key, e.kind, sorted(e.detail.items())) for e in store.events
    )


class TestFaultPlan:
    def test_no_rates_no_schedule_never_faults(self):
        plan = FaultPlan(seed=1)
        assert all(kind is None for kind in _kinds(plan, 100))

    def test_rate_mode_is_deterministic(self):
        outcomes = []
        for _ in range(2):
            plan = FaultPlan(seed=7, rates={FAULT_TRANSIENT: 0.3})
            outcomes.append(_kinds(plan, 50))
        assert outcomes[0] == outcomes[1]
        assert FAULT_TRANSIENT in outcomes[0]
        assert None in outcomes[0]

    def test_different_seeds_differ(self):
        plan_a = FaultPlan(seed=1, rates={FAULT_BITFLIP: 0.5})
        plan_b = FaultPlan(seed=2, rates={FAULT_BITFLIP: 0.5})
        a = _kinds(plan_a, 64, "get")  # a rate's bitflip is read-side only
        b = _kinds(plan_b, 64, "get")
        assert a != b

    def test_schedule_mode_hits_exact_ops(self):
        plan = FaultPlan(schedule=[(0, FAULT_TORN), (2, FAULT_MISSING)])
        assert plan.draw("put", "k", None, 0)[1] == FAULT_TORN
        assert plan.draw("put", "k", None, 1)[1] is None
        assert plan.draw("put", "k", None, 2)[1] == FAULT_MISSING

    def test_schedule_respects_eligibility(self):
        # torn writes cannot hit a get
        plan = FaultPlan(schedule=[(0, FAULT_TORN)])
        assert plan.draw("get", "k", None, 0)[1] is None

    def test_rates_and_schedule_fire_together(self):
        plan = FaultPlan(
            seed=3, rates={FAULT_TRANSIENT: 0.5}, schedule=[(0, FAULT_MISSING)]
        )
        store = FaultInjectingStore(MemoryStore(), plan)
        for i in range(20):
            try:
                store.put(f"k{i}", b"x")
            except TransientStorageError:
                pass
        first = store.events[0]
        assert (first.index, first.key, first.kind) == (0, "k0", FAULT_MISSING)
        assert {e.kind for e in store.events} == {FAULT_MISSING, FAULT_TRANSIENT}

    def test_shared_rate_plan_decides_by_key_not_arrival_order(self):
        """Two stores on one plan, driven in two interleavings: every key
        meets the same faults, so a seed fixes them under concurrency."""

        def run(order):
            plan = FaultPlan(seed=11, rates={FAULT_TRANSIENT: 0.3, FAULT_BITFLIP: 0.4})
            stores = {sid: FaultInjectingStore(MemoryStore(), plan, sid) for sid in ("s0", "s1")}
            for sid, key in order:
                for op in ("put", "get", "get"):
                    try:
                        if op == "put":
                            stores[sid].put(key, bytes(range(32)))
                        else:
                            stores[sid].get(key)
                    except StorageError:
                        pass
            return {sid: _decisions(store) for sid, store in stores.items()}

        calls = [(sid, f"k{i}") for i in range(24) for sid in ("s0", "s1")]
        first = run(calls)
        assert first == run(calls[::-1])
        assert all(first.values()), "each store must meet some faults"

    @pytest.mark.parametrize("bad", [{"nope": 0.5}, {FAULT_TORN: 1.5}])
    def test_rate_validation(self, bad):
        with pytest.raises(ConfigurationError):
            FaultPlan(rates=bad)

    def test_from_distribution_composes_with_failure_model(self):
        dist = ExponentialFailures(mtbf=10.0)
        a = FaultPlan.from_distribution(dist, horizon_ops=200, seed=3)
        b = FaultPlan.from_distribution(dist, horizon_ops=200, seed=3)
        hits_a = [a.draw("put", "k", None, i)[1] for i in range(200)]
        hits_b = [b.draw("put", "k", None, i)[1] for i in range(200)]
        assert hits_a == hits_b
        injected = [k for k in hits_a if k is not None]
        assert injected, "an MTBF of 10 ops over 200 ops should fault"
        assert set(injected) <= set(FAULT_KINDS)


class TestCrashKinds:
    def test_crash_kinds_are_schedule_only(self):
        assert not set(CRASH_KINDS) & set(FAULT_KINDS)
        with pytest.raises(ConfigurationError, match="unknown fault kind"):
            FaultPlan(rates={CRASH_BEFORE: 0.5})

    def test_negative_op_index_rejected(self):
        with pytest.raises(ConfigurationError, match="op index"):
            FaultPlan(schedule=[(-1, CRASH_BEFORE)])

    def test_from_distribution_draws_the_requested_kinds(self):
        plan = FaultPlan.from_distribution(
            ExponentialFailures(mtbf=5.0), horizon_ops=200, kinds=CRASH_KINDS, seed=3
        )
        drawn = (plan.draw("put", "k", None, i)[1] for i in range(200))
        hits = [k for k in drawn if k is not None]
        assert hits and set(hits) <= set(CRASH_KINDS)

    @pytest.mark.parametrize(
        "kind, stored",
        [(CRASH_BEFORE, None), (CRASH_AFTER, b"payload")],
    )
    def test_put_retains_what_the_kind_says(self, kind, stored):
        inner = MemoryStore()
        store = FaultInjectingStore(inner, FaultPlan(schedule=[(0, kind)]))
        with pytest.raises(SimulatedCrash, match="injected process death at store op 0"):
            store.put("k", b"payload")
        assert (inner.get("k") if inner.exists("k") else None) == stored
        assert [e.kind for e in store.events] == [kind]

    def test_torn_put_persists_a_strict_prefix_then_dies(self):
        inner = MemoryStore()
        store = FaultInjectingStore(inner, FaultPlan(seed=5, schedule=[(0, CRASH_TORN)]))
        with pytest.raises(SimulatedCrash):
            store.put("k", b"0123456789")
        assert b"0123456789".startswith(inner.get("k"))
        assert len(inner.get("k")) < 10

    def test_shared_plan_advances_one_counter(self):
        plan = FaultPlan(schedule=[(2, CRASH_BEFORE)])
        a = FaultInjectingStore(MemoryStore(), plan)
        b = FaultInjectingStore(MemoryStore(), plan)
        a.put("k", b"x")
        b.put("k", b"x")
        with pytest.raises(SimulatedCrash):
            a.get("k")
        assert plan.op_index == 2


_PAYLOAD_CRC = zlib.crc32(b"payload")


class TestVerifiedReadIsAGet:
    """A verified read draws one ``get`` decision and suffers its effects:
    nothing reads around the injection, and a flipped read never passes
    for the payload."""

    def _store(self, kind):
        inner = MemoryStore()
        inner.put("k", b"payload")
        return FaultInjectingStore(inner, FaultPlan(seed=2, schedule=[(0, kind)]))

    def test_advances_the_op_index_by_exactly_one(self):
        store = FaultInjectingStore(MemoryStore(), FaultPlan())
        store.put("k", b"payload")
        before = store.plan.op_index
        assert store.get_verified("k", _PAYLOAD_CRC) == b"payload"
        assert store.plan.op_index == before + 1

    def test_transient(self):
        with pytest.raises(TransientStorageError):
            self._store(FAULT_TRANSIENT).get_verified("k", _PAYLOAD_CRC)

    def test_missing(self):
        with pytest.raises(StorageError, match="spurious miss"):
            self._store(FAULT_MISSING).get_verified("k", _PAYLOAD_CRC)

    def test_bitflip(self):
        store = self._store(FAULT_BITFLIP)
        with pytest.raises(IntegrityError, match="read back CRC"):
            store.get_verified("k", _PAYLOAD_CRC)
        assert store.events[0].kind == FAULT_BITFLIP
        assert store.get_verified("k", _PAYLOAD_CRC) == b"payload"

    @pytest.mark.parametrize("kind", CRASH_KINDS)
    def test_crash_kinds(self, kind):
        store = self._store(kind)
        with pytest.raises(SimulatedCrash):
            store.get_verified("k", _PAYLOAD_CRC)
        assert store.events[0].op == "get" and store.events[0].kind == kind
        assert store.get_verified("k", _PAYLOAD_CRC) == b"payload"


class TestFaultInjectingStore:
    def _store(self, **plan_kwargs):
        inner = MemoryStore()
        return inner, FaultInjectingStore(inner, FaultPlan(**plan_kwargs))

    def test_clean_plan_is_transparent(self):
        inner, store = self._store(seed=0)
        store.put("k", b"payload")
        assert store.get("k") == b"payload"
        assert inner.get("k") == b"payload"
        assert store.events == []

    def test_transient_put_leaves_store_untouched(self):
        inner, store = self._store(schedule=[(0, FAULT_TRANSIENT)])
        with pytest.raises(TransientStorageError, match="injected transient"):
            store.put("k", b"x")
        assert not inner.exists("k")
        store.put("k", b"x")  # the retry succeeds
        assert inner.get("k") == b"x"

    def test_torn_put_persists_a_prefix(self):
        inner, store = self._store(schedule=[(0, FAULT_TORN)])
        store.put("k", b"0123456789")
        stored = inner.get("k")
        assert len(stored) < 10
        assert b"0123456789".startswith(stored)
        (event,) = store.events
        assert event.kind == FAULT_TORN and event.detail["size"] == 10

    def test_bitflip_put_corrupts_exactly_one_bit(self):
        inner, store = self._store(schedule=[(0, FAULT_BITFLIP)])
        data = bytes(64)
        store.put("k", data)
        stored = inner.get("k")
        assert len(stored) == 64
        flipped = [i for i in range(64) if stored[i] != data[i]]
        assert len(flipped) == 1
        assert bin(stored[flipped[0]] ^ data[flipped[0]]).count("1") == 1

    def test_bitflip_get_is_transient(self):
        inner, store = self._store(schedule=[(1, FAULT_BITFLIP)])
        store.put("k", bytes(16))
        assert store.get("k") != bytes(16)  # misread
        assert store.get("k") == bytes(16)  # store was never touched
        assert inner.get("k") == bytes(16)

    def test_missing_put_drops_the_write(self):
        inner, store = self._store(schedule=[(0, FAULT_MISSING)])
        store.put("k", b"x")
        assert not inner.exists("k")

    def test_missing_get_reports_spurious_miss(self):
        _inner, store = self._store(schedule=[(1, FAULT_MISSING)])
        store.put("k", b"x")
        with pytest.raises(StorageError, match="spurious"):
            store.get("k")
        assert store.get("k") == b"x"

    def test_metadata_ops_pass_through(self):
        inner, store = self._store(schedule=[(0, FAULT_TRANSIENT)])
        inner.put("k", b"x")
        assert store.exists("k")
        assert store.list_keys() == ["k"]
        store.delete("k")
        assert not inner.exists("k")
        assert store.events == []  # no put/get ever ran

    def test_events_record_op_index_and_key(self):
        _inner, store = self._store(
            schedule=[(0, FAULT_TRANSIENT), (2, FAULT_MISSING)]
        )
        with pytest.raises(TransientStorageError):
            store.put("a", b"1")
        store.put("a", b"1")
        store.put("b", b"2")  # dropped
        assert [(e.index, e.op, e.key, e.kind) for e in store.events] == [
            (0, "put", "a", FAULT_TRANSIENT),
            (2, "put", "b", FAULT_MISSING),
        ]
        assert all(isinstance(e.to_dict(), dict) for e in store.events)

    def test_empty_payload_never_torn_or_flipped(self):
        inner, store = self._store(
            schedule=[(0, FAULT_TORN), (1, FAULT_BITFLIP)]
        )
        store.put("a", b"")
        store.put("b", b"")
        assert inner.get("a") == b"" and inner.get("b") == b""

    def test_fault_counters_reach_registry(self):
        from repro.obs.metrics import get_registry

        registry = get_registry()
        before = (
            registry.counter("store.faults.transient").value
            if "store.faults.transient" in registry
            else 0.0
        )
        _inner, store = self._store(schedule=[(0, FAULT_TRANSIENT)])
        with pytest.raises(TransientStorageError):
            store.put("k", b"x")
        assert registry.counter("store.faults.transient").value == before + 1
