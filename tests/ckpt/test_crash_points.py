"""Crash-matrix tests: kill the commit protocol at every store operation.

The central crash-consistency claim: whatever instant the writer dies --
before, inside, or after any single store operation of the commit protocol
-- recovery finds only committed generations, restore hands back the
newest committed one bit-exactly, and reaping is idempotent.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ckpt.faults import (
    CRASH_AFTER,
    CRASH_BEFORE,
    CRASH_KINDS,
    FaultInjectingStore,
    FaultPlan,
)
from repro.ckpt.journal import GEN_COMMITTED, scan_generations
from repro.ckpt.manager import CheckpointManager
from repro.ckpt.protocol import ArrayRegistry
from repro.ckpt.recovery import recover, restore_with_fallback
from repro.ckpt.store import CountingStore, MemoryStore
from repro.config import ResilienceConfig
from repro.exceptions import SimulatedCrash


def _values(tag: int) -> dict[str, np.ndarray]:
    """Deterministic, distinguishable per-step array contents."""
    rng = np.random.default_rng(100 + tag)
    return {
        "field": rng.standard_normal((6, 5)),
        "counter": np.array([tag, tag + 1], dtype=np.int64),
    }


def _registry(tag: int) -> ArrayRegistry:
    reg = ArrayRegistry()
    for name, arr in _values(tag).items():
        reg.register(name, arr.copy())
    return reg


def _manager(registry: ArrayRegistry, store, *, parity: bool = False):
    # lossless policy -> restores are bit-exact, so content equality is a
    # hard assertion rather than a tolerance check
    return CheckpointManager(
        registry,
        store,
        policy={"field": "lossless"},
        resilience=ResilienceConfig(parity=True) if parity else None,
    )


def _ops_per_checkpoint(*, parity: bool) -> int:
    """How many put/get operations one full commit performs."""
    store = CountingStore(MemoryStore())
    _manager(_registry(1), store, parity=parity).checkpoint(1)
    return store.puts + store.gets


@pytest.mark.parametrize("parity", [False, True], ids=["plain", "parity"])
@pytest.mark.parametrize("mode", CRASH_KINDS)
def test_crash_at_every_protocol_op(mode, parity):
    n_ops = _ops_per_checkpoint(parity=parity)
    assert n_ops >= 4  # blobs + manifest + marker at minimum

    for op_index in range(n_ops):
        inner = MemoryStore()
        # generation 1 lands cleanly before the crash campaign
        _manager(_registry(1), inner, parity=parity).checkpoint(1)

        crashing = FaultInjectingStore(
            inner, FaultPlan(schedule=[(op_index, mode)], seed=op_index)
        )
        writer = _manager(_registry(2), crashing, parity=parity)
        with pytest.raises(SimulatedCrash):
            writer.checkpoint(2)

        # --- next incarnation: recover, then restore ---
        report = recover(inner)
        committed = report.committed
        assert 1 in committed, (
            f"op {op_index} mode {mode}: the previously committed "
            f"generation was lost"
        )
        # only the very last operation is the marker put; completing it
        # ("after") is the one case where generation 2 survives the crash
        if mode == CRASH_AFTER and op_index == n_ops - 1:
            assert committed == [1, 2]
        else:
            assert committed == [1]
        # nothing torn or orphaned survives recovery
        for gen in scan_generations(inner):
            assert gen.state == GEN_COMMITTED, (
                f"op {op_index} mode {mode}: {gen.state} generation "
                f"{gen.step} survived recovery ({gen.reason})"
            )

        # restore must yield the newest committed generation, CRC-verified
        # and bit-exact
        newest = committed[-1]
        reader_reg = _registry(0)
        reader = _manager(reader_reg, inner, parity=parity)
        result = restore_with_fallback(reader)
        assert result.step == newest
        assert result.skipped == ()
        reader.verify(newest)
        expected = _values(newest)
        for name, arr in expected.items():
            np.testing.assert_array_equal(reader_reg.get(name), arr)

        # recovery is idempotent: a second pass finds nothing to do
        again = recover(inner)
        assert again.reaped == []
        assert again.torn == [] and again.orphaned == []


def test_crash_matrix_outcome_is_deterministic():
    """The same seed and crash point must classify identically every run."""

    def campaign() -> list[tuple[int, str, tuple[int, ...]]]:
        outcomes = []
        n_ops = _ops_per_checkpoint(parity=False)
        for op_index in range(n_ops):
            for mode in CRASH_KINDS:
                inner = MemoryStore()
                _manager(_registry(1), inner).checkpoint(1)
                crashing = FaultInjectingStore(
                    inner, FaultPlan(schedule=[(op_index, mode)], seed=7)
                )
                with pytest.raises(SimulatedCrash):
                    _manager(_registry(2), crashing).checkpoint(2)
                report = recover(inner)
                outcomes.append((op_index, mode, tuple(report.committed)))
        return outcomes

    assert campaign() == campaign()


def test_crash_during_recovery_reap_is_safe():
    """Dying *inside* the recovery reap leaves no committed-looking junk."""
    inner = MemoryStore()
    _manager(_registry(1), inner).checkpoint(1)
    # produce a torn generation 2: die right before the marker put
    n_ops = _ops_per_checkpoint(parity=False)
    crashing = FaultInjectingStore(
        inner, FaultPlan(schedule=[(n_ops - 1, CRASH_BEFORE)], seed=0)
    )
    with pytest.raises(SimulatedCrash):
        _manager(_registry(2), crashing).checkpoint(2)

    # now crash during the reap itself: a store whose delete dies after
    # removing one object (deletes pass through FaultInjectingStore
    # untouched, so the death is emulated directly)
    class DyingDeletes(MemoryStore):
        def __init__(self, src: MemoryStore) -> None:
            super().__init__()
            self._blobs = src._blobs
            self._deaths = 0

        def delete(self, key: str) -> None:
            if self._deaths >= 1:
                raise SimulatedCrash("died mid-reap")
            self._deaths += 1
            super().delete(key)

    with pytest.raises(SimulatedCrash):
        recover(DyingDeletes(inner))

    # next incarnation still recovers to a clean, committed-only store
    report = recover(inner)
    assert report.committed == [1]
    assert all(g.state == GEN_COMMITTED for g in scan_generations(inner))
