"""Unit tests for the burst-buffer checkpoint model (paper ref. [30])."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.iomodel.burst_buffer import BurstBufferModel
from repro.iomodel.storage import StorageModel


@pytest.fixture
def model():
    return BurstBufferModel(
        buffer_tier=StorageModel("nvme", 10e9),
        drain_tier=StorageModel("pfs", 1e9),
        capacity_bytes=10**9,
    )


class TestTiming:
    def test_blocking_is_fast_absorb_when_it_fits(self, model):
        timing = model.checkpoint_timing(10**8)
        assert timing.blocking_seconds == pytest.approx(10**8 / 10e9)
        assert timing.drain_seconds == pytest.approx(10**8 / 1e9)
        assert timing.blocking_seconds < timing.drain_seconds

    def test_overflow_blocks_on_the_slow_tier(self, model):
        nbytes = 3 * 10**9  # 3x the capacity
        timing = model.checkpoint_timing(nbytes)
        expected = 10**9 / 10e9 + 2 * 10**9 / 1e9
        assert timing.blocking_seconds == pytest.approx(expected)

    def test_zero_bytes(self, model):
        timing = model.checkpoint_timing(0)
        assert timing.blocking_seconds == 0.0

    def test_negative_rejected(self, model):
        with pytest.raises(ConfigurationError):
            model.checkpoint_timing(-1)


class TestCadence:
    def test_compression_relaxes_the_drain_floor(self, model):
        """The composition claim: 19 % of the bytes -> 19 % of the drain,
        the floor under the checkpoint interval."""
        raw = model.checkpoint_timing(10**9).drain_seconds
        compressed = model.checkpoint_timing(0.19 * 10**9).drain_seconds
        assert compressed == pytest.approx(0.19 * raw)


class TestValidation:
    def test_capacity(self):
        with pytest.raises(ConfigurationError):
            BurstBufferModel(StorageModel("a", 2.0), StorageModel("b", 1.0), 0)

    def test_pointless_buffer_rejected(self):
        with pytest.raises(ConfigurationError, match="pointless"):
            BurstBufferModel(StorageModel("a", 1.0), StorageModel("b", 2.0), 10)
