"""End-to-end fault injection: checkpoint/restore through the full
self-healing stack (FaultInjectingStore -> ResilientStore -> parity repair).

The acceptance bar: with parity enabled, a restore after any single
injected blob corruption or deletion returns arrays byte-identical to a
fault-free restore, and identical seeds produce identical fault events
and repair outcomes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ckpt.faults import (
    FAULT_BITFLIP,
    FAULT_MISSING,
    FAULT_TORN,
    FAULT_TRANSIENT,
    FaultInjectingStore,
    FaultPlan,
)
from repro.ckpt.manager import CheckpointManager
from repro.ckpt.manifest import array_key
from repro.ckpt.protocol import ArrayRegistry
from repro.ckpt.resilience import ResilientStore, RetryPolicy
from repro.ckpt.store import CountingStore, LatencyStore, MemoryStore, StoreWrapper
from repro.config import ResilienceConfig
from repro.exceptions import CorruptionError

SEED_MATRIX = [11, 23, 47, 101]


def build_registry(seed: int) -> ArrayRegistry:
    rng = np.random.default_rng(seed)
    reg = ArrayRegistry()
    reg.register("alpha", rng.normal(0.0, 1.0, (24, 24)))
    reg.register("beta", rng.integers(0, 1000, 256, dtype=np.int64))
    reg.register("gamma", rng.random(777, dtype=np.float32))
    return reg


def reference_arrays(seed: int) -> dict[str, np.ndarray]:
    """Fault-free checkpoint + restore: the byte-identical yardstick."""
    manager = CheckpointManager(
        build_registry(seed),
        MemoryStore(),
        resilience=ResilienceConfig(parity=True),
    )
    manager.checkpoint(1)
    return manager.load_arrays(1)


def run_faulty(
    seed: int, plan: FaultPlan, *, retries: int = 4, parity: bool = True
):
    """Checkpoint + restore through an injecting store; returns
    (restored arrays, faulty store, manager)."""
    faulty = FaultInjectingStore(MemoryStore(), plan)
    manager = CheckpointManager(
        build_registry(seed),
        faulty,
        resilience=ResilienceConfig(
            retries=retries, retry_base_delay=0.0, parity=parity
        ),
    )
    manager.checkpoint(1)
    return manager.load_arrays(1), faulty, manager


def assert_byte_identical(restored, reference):
    assert sorted(restored) == sorted(reference)
    for name, ref in reference.items():
        assert restored[name].tobytes() == ref.tobytes()
        assert restored[name].dtype == ref.dtype
        assert restored[name].shape == ref.shape


class TestSingleFaultMatrix:
    """Every blob x {corruption, deletion} heals to byte-identical."""

    @pytest.mark.parametrize("seed", SEED_MATRIX)
    @pytest.mark.parametrize("victim", ["alpha", "beta", "gamma"])
    def test_corrupt_any_single_blob(self, seed, victim):
        reference = reference_arrays(seed)
        store = MemoryStore()
        manager = CheckpointManager(
            build_registry(seed),
            store,
            resilience=ResilienceConfig(parity=True),
        )
        manager.checkpoint(1)
        key = array_key(1, victim)
        blob = bytearray(store.get(key))
        blob[len(blob) // 2] ^= 0x40
        store.put(key, bytes(blob))
        assert_byte_identical(manager.load_arrays(1), reference)
        assert [e.name for e in manager.repair_log] == [victim]

    @pytest.mark.parametrize("seed", SEED_MATRIX)
    @pytest.mark.parametrize("victim", ["alpha", "beta", "gamma"])
    def test_delete_any_single_blob(self, seed, victim):
        reference = reference_arrays(seed)
        store = MemoryStore()
        manager = CheckpointManager(
            build_registry(seed),
            store,
            resilience=ResilienceConfig(parity=True),
        )
        manager.checkpoint(1)
        store.delete(array_key(1, victim))
        assert_byte_identical(manager.load_arrays(1), reference)


class TestInjectedWriteFaults:
    """Faults fired during the checkpoint write path itself."""

    # puts happen in sorted-name order: alpha=0, beta=1, gamma=2,
    # then parity, then the manifest
    @pytest.mark.parametrize("op", [0, 1, 2])
    def test_torn_write_heals_on_restore(self, op):
        plan = FaultPlan(schedule=[(op, FAULT_TORN)])
        restored, faulty, manager = run_faulty(5, plan)
        assert_byte_identical(restored, reference_arrays(5))
        assert [e.kind for e in faulty.events] == [FAULT_TORN]
        assert len(manager.repair_log) == 1

    @pytest.mark.parametrize("op", [0, 1, 2])
    def test_bitflip_write_heals_on_restore(self, op):
        plan = FaultPlan(schedule=[(op, FAULT_BITFLIP)])
        restored, faulty, _ = run_faulty(5, plan)
        assert_byte_identical(restored, reference_arrays(5))
        assert [e.kind for e in faulty.events] == [FAULT_BITFLIP]

    @pytest.mark.parametrize("op", [0, 1, 2])
    def test_dropped_write_heals_on_restore(self, op):
        plan = FaultPlan(schedule=[(op, FAULT_MISSING)])
        restored, _, manager = run_faulty(5, plan)
        assert_byte_identical(restored, reference_arrays(5))
        (event,) = manager.repair_log
        assert "no object stored" in event.reason

    def test_transient_storm_rides_on_retries(self):
        plan = FaultPlan(
            schedule=[(i, FAULT_TRANSIENT) for i in (0, 2, 5, 7, 9)]
        )
        restored, faulty, manager = run_faulty(5, plan)
        assert_byte_identical(restored, reference_arrays(5))
        assert manager.repair_log == []  # retries absorbed everything
        assert all(e.kind == FAULT_TRANSIENT for e in faulty.events)


class TestSeededRateRuns:
    """Rate-mode runs under the seed matrix: deterministic end to end."""

    def _run(self, seed):
        plan = FaultPlan(seed=seed, rates={FAULT_TRANSIENT: 0.15})
        restored, faulty, manager = run_faulty(seed, plan, retries=6)
        return (
            {k: v.tobytes() for k, v in restored.items()},
            [e.to_dict() for e in faulty.events],
            [e.to_dict() for e in manager.repair_log],
        )

    @pytest.mark.parametrize("seed", SEED_MATRIX)
    def test_restore_is_correct_and_deterministic(self, seed):
        first = self._run(seed)
        second = self._run(seed)
        assert first == second, "identical seeds must replay identically"
        reference = reference_arrays(seed)
        assert first[0] == {k: v.tobytes() for k, v in reference.items()}

    def test_matrix_actually_injects_faults(self):
        total = sum(len(self._run(seed)[1]) for seed in SEED_MATRIX)
        assert total > 0, "a 15% transient rate over the matrix must fire"


class TestNoSilentCorruption:
    """With parity off, injected damage must raise -- never wrong data."""

    @pytest.mark.parametrize(
        "kind", [FAULT_TORN, FAULT_BITFLIP, FAULT_MISSING]
    )
    def test_write_faults_raise_without_parity(self, kind):
        plan = FaultPlan(schedule=[(1, kind)])
        faulty = FaultInjectingStore(MemoryStore(), plan)
        manager = CheckpointManager(
            build_registry(5),
            faulty,
            resilience=ResilienceConfig(retries=2, retry_base_delay=0.0),
        )
        manager.checkpoint(1)
        with pytest.raises(CorruptionError):
            manager.load_arrays(1)


class _ReadLog(StoreWrapper):
    """Logs the (op, key) of every put/get, the ops a FaultPlan counts."""

    def __init__(self, inner):
        super().__init__(inner)
        self.ops = []

    def _before(self, op, key):
        if op in ("put", "get"):
            self.ops.append((op, key))


class TestVerifiedReadSurvivesAnyStackingOrder:
    """One transient misread of a blob heals by re-read whatever sits on
    top of the ResilientStore: callers never look into the stack."""

    STACKS = {
        "resilient": lambda r: r,
        "counting-over-resilient": CountingStore,
        "latency-over-resilient": LatencyStore,
        "injector-over-resilient": lambda r: FaultInjectingStore(r, FaultPlan()),
    }

    @pytest.mark.parametrize("stack", sorted(STACKS))
    def test_transient_read_bitflip_is_healed(self, stack):
        media = MemoryStore()
        CheckpointManager(build_registry(3), media).checkpoint(1)
        log = _ReadLog(media)
        CheckpointManager(build_registry(0), log).load_arrays(1)
        blob_get = log.ops.index(("get", array_key(1, "alpha")))

        faulty = FaultInjectingStore(
            media, FaultPlan(seed=1, schedule=[(blob_get, FAULT_BITFLIP)])
        )
        resilient = ResilientStore(
            faulty, RetryPolicy(max_attempts=3, base_delay=0.0), sleep=lambda _s: None
        )
        reader = CheckpointManager(build_registry(0), self.STACKS[stack](resilient))
        restored = reader.load_arrays(1)

        assert [e.kind for e in faulty.events] == [FAULT_BITFLIP]
        assert resilient.retries == 1
        assert_byte_identical(restored, CheckpointManager(build_registry(0), media).load_arrays(1))
