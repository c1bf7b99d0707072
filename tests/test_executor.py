"""Unit tests for the slab-compression executor layer."""

from __future__ import annotations

import numpy as np
import pytest

from repro import CompressionConfig, WaveletCompressor
from repro.exceptions import ConfigurationError
from repro.parallel.executor import (
    MultiprocessExecutor,
    SerialExecutor,
    SlabExecutor,
    aggregate_stats,
    default_worker_count,
    resolve_executor,
)


@pytest.fixture
def slabs(smooth3d):
    return [np.ascontiguousarray(smooth3d[i : i + 16]) for i in range(0, 64, 16)]


class TestSerialExecutor:
    def test_matches_direct_pipeline(self, slabs):
        cfg = CompressionConfig()
        results = SerialExecutor().compress_slabs(slabs, cfg)
        assert len(results) == len(slabs)
        direct = WaveletCompressor(cfg)
        for slab, (blob, stats) in zip(slabs, results):
            assert blob == direct.compress(slab)
            assert stats.original_bytes == slab.nbytes
            assert stats.compressed_bytes == len(blob)

    def test_empty_list(self):
        assert SerialExecutor().compress_slabs([], CompressionConfig()) == []

    def test_context_manager(self):
        with SerialExecutor() as ex:
            assert isinstance(ex, SlabExecutor)


class TestMultiprocessExecutor:
    def test_byte_identical_to_serial(self, slabs):
        cfg = CompressionConfig()
        serial = SerialExecutor().compress_slabs(slabs, cfg)
        with MultiprocessExecutor(2) as ex:
            parallel = ex.compress_slabs(slabs, cfg)
        assert [b for b, _ in parallel] == [b for b, _ in serial]

    def test_results_preserve_order(self, rng):
        # slabs of different sizes finish out of order; results must not
        slabs = [rng.standard_normal((rows, 8)) for rows in (40, 2, 30, 4)]
        cfg = CompressionConfig()
        with MultiprocessExecutor(2) as ex:
            results = ex.compress_slabs(slabs, cfg)
        for slab, (blob, _) in zip(slabs, results):
            back = WaveletCompressor.decompress(blob)
            np.testing.assert_array_equal(back.shape, slab.shape)

    def test_single_slab_skips_pool(self, slabs):
        ex = MultiprocessExecutor(4)
        try:
            ex.compress_slabs(slabs[:1], CompressionConfig())
            assert ex._pool is None  # nothing to overlap: no pool started
        finally:
            ex.close()

    def test_pool_reused_across_calls(self, slabs):
        cfg = CompressionConfig()
        with MultiprocessExecutor(2) as ex:
            ex.compress_slabs(slabs, cfg)
            pool = ex._pool
            ex.compress_slabs(slabs, cfg)
            assert ex._pool is pool

    def test_fallback_when_pool_cannot_start(self, slabs):
        def broken(**_kw):
            raise PermissionError("sandbox forbids fork")

        cfg = CompressionConfig()
        ex = MultiprocessExecutor(2, _pool_factory=broken)
        results = ex.compress_slabs(slabs, cfg)
        assert ex.fallback_reason is not None
        assert "sandbox forbids fork" in ex.fallback_reason
        serial = SerialExecutor().compress_slabs(slabs, cfg)
        assert [b for b, _ in results] == [b for b, _ in serial]

    def test_no_fallback_raises(self, slabs):
        def broken(**_kw):
            raise PermissionError("nope")

        ex = MultiprocessExecutor(2, fallback=False, _pool_factory=broken)
        with pytest.raises(ConfigurationError, match="cannot start"):
            ex.compress_slabs(slabs, CompressionConfig())

    @pytest.mark.parametrize("workers", [0, -1, 1.5, True])
    def test_validation(self, workers):
        with pytest.raises(ConfigurationError):
            MultiprocessExecutor(workers)

    def test_close_idempotent(self):
        ex = MultiprocessExecutor(2)
        ex.close()
        ex.close()


class TestResolveExecutor:
    def test_serial_for_one_or_none(self):
        for workers in (None, 1):
            ex, owned = resolve_executor(workers)
            assert isinstance(ex, SerialExecutor) and owned

    def test_multiprocess_for_many(self):
        ex, owned = resolve_executor(3)
        try:
            assert isinstance(ex, MultiprocessExecutor) and owned
            assert ex.workers == 3
        finally:
            ex.close()

    def test_explicit_executor_borrowed(self):
        mine = SerialExecutor()
        ex, owned = resolve_executor(4, mine)
        assert ex is mine and not owned

    def test_rejects_non_executor(self):
        with pytest.raises(ConfigurationError):
            resolve_executor(2, object())

    @pytest.mark.parametrize("workers", [0, -3, "two"])
    def test_rejects_bad_counts(self, workers):
        with pytest.raises(ConfigurationError):
            resolve_executor(workers)

    def test_default_worker_count_positive(self):
        assert default_worker_count() >= 1


class TestAggregateStats:
    def test_sums_sizes_and_timings(self, slabs):
        cfg = CompressionConfig()
        results = SerialExecutor().compress_slabs(slabs, cfg)
        per_slab = [s for _, s in results]
        agg = aggregate_stats(per_slab)
        assert agg.original_bytes == sum(s.original_bytes for s in per_slab)
        assert agg.compressed_bytes == sum(s.compressed_bytes for s in per_slab)
        assert agg.n_coefficients == sum(s.n_coefficients for s in per_slab)
        assert agg.n_quantized == sum(s.n_quantized for s in per_slab)
        for key in per_slab[0].timings:
            assert agg.timings[key] == pytest.approx(
                sum(s.timings[key] for s in per_slab)
            )
        assert agg.config is cfg or agg.config == cfg

    def test_stream_bytes_override(self, slabs):
        results = SerialExecutor().compress_slabs(slabs, CompressionConfig())
        agg = aggregate_stats([s for _, s in results], stream_bytes=12345)
        assert agg.compressed_bytes == 12345

    def test_empty(self):
        agg = aggregate_stats([])
        assert agg.original_bytes == 0
        assert agg.timings == {}
