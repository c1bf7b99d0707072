"""Unit tests for the incremental checkpointing baseline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ckpt.incremental import IncrementalArrayStore
from repro.exceptions import CheckpointError, DecompressionError


@pytest.fixture
def drifting_arrays(rng):
    """A sequence where every value changes slightly each step (the mesh
    scenario the paper says defeats incremental checkpointing)."""
    arrays = []
    a = rng.standard_normal((32, 16))
    for _ in range(7):
        a = a + 1e-3 * rng.standard_normal(a.shape)
        arrays.append(a.copy())
    return arrays


class TestRoundtrip:
    @pytest.mark.parametrize("differencer", ["xor", "subtract"])
    def test_restore_latest(self, drifting_arrays, differencer):
        store = IncrementalArrayStore(differencer=differencer, full_every=3)
        for step, arr in enumerate(drifting_arrays):
            store.append(step, arr)
        back = store.restore()
        np.testing.assert_array_equal(back, drifting_arrays[-1])

    def test_restore_every_step_xor_exact(self, drifting_arrays):
        store = IncrementalArrayStore(differencer="xor", full_every=4)
        for step, arr in enumerate(drifting_arrays):
            store.append(step, arr)
        for step, arr in enumerate(drifting_arrays):
            np.testing.assert_array_equal(store.restore(step), arr)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_subtract_bit_exact_over_full_chain(self, rng, dtype):
        """Regression: subtract replay used to round <= 1 ulp per link and
        compound over the chain; the XOR correction makes every step of a
        full ``full_every`` chain restore bit-identically."""
        full_every = 6
        store = IncrementalArrayStore(differencer="subtract", full_every=full_every)
        arrays = []
        a = rng.standard_normal((17, 9)).astype(dtype)
        for step in range(full_every + 1):  # one full chain plus next keyframe
            # Drift by irrational-ish increments so base + d genuinely rounds.
            a = (a * dtype(1.0000001) + dtype(1e-7)
                 * rng.standard_normal(a.shape).astype(dtype))
            arrays.append(a.copy())
            store.append(step, a)
        for step, arr in enumerate(arrays):
            back = store.restore(step)
            assert back.dtype == arr.dtype
            np.testing.assert_array_equal(back, arr)

    @pytest.mark.parametrize("differencer", ["xor", "subtract"])
    def test_bit_exact_over_random_steps(self, rng, differencer):
        """Property-style check: arbitrary (sorted random) step labels and
        chain positions restore bit-identically for both differencers,
        including values that stress float rounding."""
        steps = sorted(rng.choice(10_000, size=23, replace=False).tolist())
        store = IncrementalArrayStore(differencer=differencer, full_every=5)
        expected = {}
        a = rng.standard_normal((8, 8, 3))
        for step in steps:
            a = a * 1.0000000001 + rng.standard_normal(a.shape) * 1e-9
            a.flat[0] = np.pi * step  # exercise large/small mixtures
            expected[step] = a.copy()
            store.append(step, a)
        order = list(expected)
        rng.shuffle(order)
        for step in order:
            np.testing.assert_array_equal(store.restore(step), expected[step])

    def test_integer_arrays(self, rng):
        store = IncrementalArrayStore()
        a = rng.integers(0, 100, (16, 8)).astype(np.int64)
        store.append(0, a)
        b = a.copy()
        b[3, 4] += 1
        store.append(1, b)
        np.testing.assert_array_equal(store.restore(1), b)


class TestChainStructure:
    def test_full_every(self, drifting_arrays):
        store = IncrementalArrayStore(full_every=3)
        fulls = [store.append(step, arr).is_full for step, arr in enumerate(drifting_arrays)]
        assert fulls == [True, False, False, True, False, False, True]

    def test_chain_length(self, drifting_arrays):
        store = IncrementalArrayStore(full_every=3)
        lengths = []
        for step, arr in enumerate(drifting_arrays):
            store.append(step, arr)
            lengths.append(store.chain_length())
        # a full image, then one more link per delta until the next full
        assert lengths == [1, 2, 3, 1, 2, 3, 1]

    def test_identical_checkpoints_store_tiny_deltas(self, rng):
        """Unchanged state is incremental checkpointing's best case."""
        store = IncrementalArrayStore(full_every=10)
        a = rng.standard_normal((64, 64))
        store.append(0, a)
        rec = store.append(1, a)
        assert not rec.is_full
        assert rec.stored_bytes < rec.raw_bytes / 100

    def test_fully_changed_state_barely_shrinks(self, rng):
        """...and the paper's mesh scenario is its worst case: when every
        double changes, the XOR delta is noise."""
        store = IncrementalArrayStore(full_every=10)
        store.append(0, rng.standard_normal((64, 64)))
        rec = store.append(1, rng.standard_normal((64, 64)))
        assert rec.stored_bytes > rec.raw_bytes / 2


class TestRecords:
    def test_empty_array_rate_is_zero_not_nan(self):
        store = IncrementalArrayStore()
        rec = store.append(0, np.empty((0,), dtype=np.float64))
        assert rec.raw_bytes == 0
        assert rec.compression_rate_percent == 0.0

    def test_keyframe_restore_decodes_single_blob(self, rng, monkeypatch):
        """Keyframe restores short-circuit: exactly one decompress call."""
        store = IncrementalArrayStore(full_every=3)
        arrays = [rng.standard_normal((8, 8)) for _ in range(5)]
        for step, arr in enumerate(arrays):
            store.append(step, arr)
        calls = []
        real = store.codec.decompress
        monkeypatch.setattr(
            store.codec, "decompress", lambda b: calls.append(1) or real(b)
        )
        np.testing.assert_array_equal(store.restore(3), arrays[3])
        assert len(calls) == 1


class TestValidation:
    def test_bad_differencer(self):
        with pytest.raises(CheckpointError):
            IncrementalArrayStore(differencer="diff")

    def test_bad_full_every(self):
        with pytest.raises(CheckpointError):
            IncrementalArrayStore(full_every=0)

    def test_shape_change_rejected(self, rng):
        store = IncrementalArrayStore()
        store.append(0, rng.standard_normal((4, 4)))
        with pytest.raises(CheckpointError, match="shape"):
            store.append(1, rng.standard_normal((4, 5)))

    def test_non_monotone_step_rejected(self, rng):
        store = IncrementalArrayStore()
        store.append(5, rng.standard_normal(4))
        with pytest.raises(CheckpointError):
            store.append(5, rng.standard_normal(4))

    def test_restore_empty(self):
        with pytest.raises(DecompressionError):
            IncrementalArrayStore().restore()

    def test_restore_unknown_step(self, rng):
        store = IncrementalArrayStore()
        store.append(0, rng.standard_normal(4))
        with pytest.raises(DecompressionError):
            store.restore(99)
