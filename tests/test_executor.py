"""Unit tests for the slab-compression executor layer."""

from __future__ import annotations

import numpy as np
import pytest

import repro.parallel.executor as executor_module
from repro import CompressionConfig, WaveletCompressor
from repro.core.chunked import chunked_compress
from repro.exceptions import ConfigurationError
from repro.parallel.executor import MultiprocessExecutor, aggregate_stats


@pytest.fixture
def slabs(smooth3d):
    return [np.ascontiguousarray(smooth3d[i : i + 16]) for i in range(0, 64, 16)]


def in_process(slabs, cfg):
    """The slabs through the executor's own loop (one worker, no pool)."""
    with MultiprocessExecutor(1) as ex:
        results = ex.compress_slabs(slabs, cfg)
        assert ex._pool is None
    return results


class TestSerialExecutor:
    """One worker: the executor's own in-process loop, the reference."""

    def test_matches_direct_pipeline(self, slabs):
        cfg = CompressionConfig()
        results = in_process(slabs, cfg)
        assert len(results) == len(slabs)
        direct = WaveletCompressor(cfg)
        for slab, (blob, stats) in zip(slabs, results):
            assert blob == direct.compress(slab)
            assert stats.original_bytes == slab.nbytes
            assert stats.compressed_bytes == len(blob)

    def test_empty_list(self):
        assert in_process([], CompressionConfig()) == []

    def test_context_manager(self):
        ex = MultiprocessExecutor(1)
        with ex as entered:
            assert entered is ex


class TestMultiprocessExecutor:
    def test_byte_identical_to_serial(self, slabs):
        cfg = CompressionConfig()
        serial = in_process(slabs, cfg)
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
        serial = in_process(slabs, cfg)
        assert [b for b, _ in results] == [b for b, _ in serial]

    def test_fallback_reason_describes_the_last_call(self, slabs):
        """A call that runs on the pool reports no fallback, even after an
        earlier call whose pool would not start."""
        from concurrent.futures import ProcessPoolExecutor

        starts = []

        def refuses_first(**kw):
            starts.append(kw)
            if len(starts) == 1:
                raise PermissionError("first start refused")
            return ProcessPoolExecutor(**kw)

        cfg = CompressionConfig()
        with MultiprocessExecutor(2, _pool_factory=refuses_first) as ex:
            ex.compress_slabs(slabs, cfg)
            assert "first start refused" in ex.fallback_reason
            ex.compress_slabs(slabs, cfg)
            assert ex._pool is not None  # the second call ran on the pool
            assert ex.fallback_reason is None

    @pytest.mark.parametrize("workers", [0, -1, 1.5, True])
    def test_validation(self, workers):
        with pytest.raises(ConfigurationError):
            MultiprocessExecutor(workers)

    def test_close_idempotent(self):
        ex = MultiprocessExecutor(2)
        ex.close()
        ex.close()


class TestResolveExecutor:
    """``chunked_compress`` resolves ``workers=``/``executor=`` to one
    executor: its own, built and closed per call, or the caller's."""

    @pytest.fixture
    def built(self, monkeypatch):
        made = []

        class Recording(MultiprocessExecutor):
            pools = 0
            closed = False

            def __init__(self, workers, **kwargs):
                super().__init__(workers, **kwargs)
                made.append(self)

            def _make_pool(self):
                self.pools += 1
                return super()._make_pool()

            def close(self):
                self.closed = True
                super().close()

        monkeypatch.setattr(executor_module, "MultiprocessExecutor", Recording)
        return made

    def test_serial_for_one_or_none(self, built, smooth2d):
        for workers in (None, 1):
            chunked_compress(smooth2d, chunk_rows=16, workers=workers)
        assert [(ex.workers, ex.pools, ex.closed) for ex in built] == [(1, 0, True)] * 2

    def test_multiprocess_for_many(self, built, smooth2d):
        blob = chunked_compress(smooth2d, chunk_rows=16, workers=3)
        (ex,) = built
        assert ex.workers == 3 and ex.closed and ex._pool is None
        assert blob == chunked_compress(smooth2d, chunk_rows=16)

    def test_explicit_executor_borrowed(self, built, smooth2d):
        mine = MultiprocessExecutor(1)
        chunked_compress(smooth2d, chunk_rows=16, workers=4, executor=mine)
        assert built == []

    @pytest.mark.parametrize("workers", [0, -3, "two"])
    def test_rejects_bad_counts(self, workers, smooth2d):
        with pytest.raises(ConfigurationError):
            chunked_compress(smooth2d, workers=workers)


class TestAggregateStats:
    def test_sums_sizes_and_timings(self, slabs):
        cfg = CompressionConfig()
        results = in_process(slabs, cfg)
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
        results = in_process(slabs, CompressionConfig())
        agg = aggregate_stats([s for _, s in results], stream_bytes=12345)
        assert agg.compressed_bytes == 12345

    def test_empty(self):
        agg = aggregate_stats([])
        assert agg.original_bytes == 0
        assert agg.timings == {}
