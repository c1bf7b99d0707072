"""Integration: the full parallel story end to end.

Domain-decomposed global state -> per-rank lossy compression -> XOR-parity
redundancy -> single-rank loss -> reconstruction -> global restore -- the
composition of the paper's contribution with the related-work machinery
its conclusion proposes to combine with.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro import CompressionConfig
from repro.apps.climate import ClimateProxy
from repro.ckpt.redundancy import encode_parity, rebuild_member
from repro.core.pipeline import WaveletCompressor
from repro.iomodel.storage import StorageModel
from repro.parallel import parallel_checkpoint, parallel_restore, reassemble


class TestParallelClimatePipeline:
    @pytest.fixture(scope="class")
    def evolved_field(self):
        app = ClimateProxy(shape=(96, 16, 2), seed=4)
        for _ in range(30):
            app.step()
        return app.temperature.copy()

    def test_weak_scaling_accounting(self, evolved_field):
        """Splitting across more ranks divides the per-rank payload while
        total bytes and I/O accounting stay consistent (the embarrassing
        parallelism of IV-D; wall-clock itself is too noisy to assert on a
        shared single-core box)."""
        storage = StorageModel("pfs", 1e9)
        r2 = parallel_checkpoint(evolved_field, 2, storage=storage)
        r8 = parallel_checkpoint(evolved_field, 8, storage=storage)
        assert r2.total_raw_bytes == r8.total_raw_bytes == evolved_field.nbytes
        assert max(r.raw_bytes for r in r8.ranks) <= max(
            r.raw_bytes for r in r2.ranks
        ) / 3
        # every rank reports a positive measured compression time
        assert all(r.compress_seconds > 0 for r in r8.ranks)
        # simulated I/O follows the stored bytes exactly
        assert r8.io_seconds_with == pytest.approx(r8.total_stored_bytes / 1e9)

    def test_rank_loss_recovery(self, evolved_field):
        result = parallel_checkpoint(
            evolved_field, 6, config=CompressionConfig(n_bins=128)
        )
        rank_blobs = [r.blob for r in result.ranks]
        parity = encode_parity(rank_blobs)
        lost = 3
        survivors = {i: b for i, b in enumerate(rank_blobs) if i != lost}
        rank_blobs[lost] = rebuild_member(parity, survivors, 6, lost)
        blocks = [WaveletCompressor.decompress(b) for b in rank_blobs]
        restored = reassemble(result.decomposition, blocks)
        direct = parallel_restore(result)
        np.testing.assert_array_equal(restored, direct)
        assert repro.mean_relative_error(evolved_field, restored) < 1e-2

    def test_global_vs_per_rank_compression_close(self, evolved_field):
        """Decomposing before compressing costs some rate (per-blob headers
        and shallower statistics) but stays in the same regime for slabs of
        reasonable size."""
        whole = WaveletCompressor(CompressionConfig(n_bins=128)).compress(
            evolved_field
        )
        sharded = parallel_checkpoint(evolved_field, 4)
        whole_rate = 100.0 * len(whole) / evolved_field.nbytes
        assert whole_rate < sharded.compression_rate_percent < whole_rate * 2.5

    def test_errors_do_not_cross_rank_boundaries(self, evolved_field):
        """Each rank decodes independently: corrupting one rank's blob must
        not affect any other rank's slab."""
        result = parallel_checkpoint(evolved_field, 4)
        clean = parallel_restore(result)
        # decode ranks 0,1,3 individually and compare with the clean restore
        for i in (0, 1, 3):
            block = WaveletCompressor.decompress(result.ranks[i].blob)
            sl = result.decomposition.slices(i)
            np.testing.assert_array_equal(block, clean[sl])
