"""Integration tests exercising the full stack together.

These mirror the paper's actual experimental setup at test-friendly sizes:
a NICAM-like application checkpointed through the lossy pipeline into a
store, restored, and measured.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro import CompressionConfig, WaveletCompressor
from repro.apps.climate import ClimateProxy
from repro.ckpt.manager import CheckpointManager
from repro.ckpt.protocol import registry_from_checkpointable
from repro.ckpt.store import CountingStore, DirectoryStore, MemoryStore

SHAPE = (64, 16, 2)


class TestClimateCheckpointCycle:
    def test_full_cycle_on_disk(self, tmp_path):
        """Run, checkpoint to a real directory, clobber, restore, verify."""
        app = ClimateProxy(shape=SHAPE, seed=2)
        for _ in range(15):
            app.step()
        registry = registry_from_checkpointable(app)
        manager = CheckpointManager(
            registry,
            DirectoryStore(str(tmp_path / "ckpts")),
            config=CompressionConfig(n_bins=128, quantizer="proposed"),
        )
        reference_temp = app.temperature.copy()
        manifest = manager.checkpoint(app.step_index, {"sim": "climate"})
        assert manifest.compression_rate_percent < 60.0

        for _ in range(10):
            app.step()
        manager.restore()
        assert app.step_index == 15
        assert repro.mean_relative_error(reference_temp, app.temperature) < 1e-3

    def test_lossy_restart_trajectory_stays_close(self):
        """Short-horizon version of the Fig. 10 claim: the restarted run
        tracks the original within a small relative error."""
        ref = ClimateProxy(shape=SHAPE, seed=6)
        for _ in range(30):
            ref.step()
        registry = registry_from_checkpointable(ref)
        manager = CheckpointManager(registry, MemoryStore())
        manager.checkpoint(30)

        restarted = ClimateProxy(shape=SHAPE, seed=6)
        rreg = registry_from_checkpointable(restarted)
        rman = CheckpointManager(rreg, manager.store)
        rman.restore(30)
        assert restarted.step_index == 30

        for _ in range(40):
            ref.step()
            restarted.step()
        err = repro.mean_relative_error(ref.temperature, restarted.temperature)
        assert 0 < err < 0.01  # diverged, but mildly


class TestFailureRecoveryEconomics:
    def test_counting_store_shows_compression_wins_bytes(self):
        """The byte traffic with compression is a fraction of raw size."""
        app = ClimateProxy(shape=SHAPE, seed=1)
        registry = registry_from_checkpointable(app)
        counting = CountingStore(MemoryStore())
        manager = CheckpointManager(registry, counting)
        manager.checkpoint(0)
        raw = sum(arr.nbytes for arr in registry.snapshot().values())
        assert counting.bytes_written < raw * 0.6


class TestHeadlineNumbers:
    def test_all_variables_average_error_paper_ballpark(self, nicam_small):
        """Abstract: '~1.2 % relative error on overall average of all
        variables' -- ours must land well under a few percent at n=128."""
        comp = WaveletCompressor(CompressionConfig(n_bins=128, quantizer="proposed"))
        errors = []
        for arr in nicam_small.values():
            approx = comp.decompress(comp.compress(arr))
            errors.append(repro.mean_relative_error(arr, approx) * 100)
        assert np.mean(errors) < 3.0

    def test_checkpoint_time_reduction_with_compression(self):
        """Abstract: 81 % checkpoint-time reduction at scale.  Using the
        analytic model with measured compression cost, large parallelism
        must approach 1 - rate."""
        from repro.apps.fields import nicam_like_variables
        from repro.iomodel.breakdown import measure_breakdown
        from repro.iomodel.scaling import estimate_point
        from repro.iomodel.storage import PAPER_PFS

        arr = nicam_like_variables((128, 32, 2), 0)["temperature"]
        breakdown = measure_breakdown(arr, repeats=1)
        rate = breakdown.compression_rate_percent / 100.0
        pt = estimate_point(10_000_000, breakdown, PAPER_PFS)
        assert pt.saving_fraction == pytest.approx(1 - rate, abs=0.02)
