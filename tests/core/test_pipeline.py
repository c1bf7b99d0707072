"""Unit tests for the end-to-end compression pipeline (paper Fig. 1)."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro import CompressionConfig, WaveletCompressor
from repro.core.errors import max_relative_error
from repro.core.pipeline import compress, decompress, inspect
from repro.exceptions import CompressionError, FormatError


class TestRoundtrip:
    @pytest.mark.parametrize("quantizer", ["simple", "proposed"])
    def test_shape_and_dtype_preserved(self, smooth3d, quantizer):
        comp = WaveletCompressor(CompressionConfig(quantizer=quantizer))
        out = comp.decompress(comp.compress(smooth3d))
        assert out.shape == smooth3d.shape
        assert out.dtype == smooth3d.dtype

    def test_lossless_mode_near_exact(self, smooth3d):
        comp = WaveletCompressor(CompressionConfig(quantizer="none"))
        out = comp.decompress(comp.compress(smooth3d))
        # exact up to Haar floating-point rounding (a few ulps)
        np.testing.assert_allclose(out, smooth3d, rtol=1e-13, atol=1e-10)

    def test_mean_error_small_on_smooth_data(self, smooth3d):
        comp = WaveletCompressor(CompressionConfig(n_bins=128, quantizer="proposed"))
        out = comp.decompress(comp.compress(smooth3d))
        assert repro.mean_relative_error(smooth3d, out) < 1e-3

    def test_proposed_max_error_below_simple(self, smooth3d):
        outs = {}
        for q in ("simple", "proposed"):
            comp = WaveletCompressor(CompressionConfig(n_bins=16, quantizer=q))
            outs[q] = max_relative_error(
                smooth3d, comp.decompress(comp.compress(smooth3d))
            )
        assert outs["proposed"] < outs["simple"]

    def test_float32_roundtrip(self, smooth2d):
        a = smooth2d.astype(np.float32)
        comp = WaveletCompressor(CompressionConfig(n_bins=128))
        out = comp.decompress(comp.compress(a))
        assert out.dtype == np.float32
        assert repro.mean_relative_error(a, out) < 1e-2

    @pytest.mark.parametrize(
        "shape", [(2,), (3,), (7, 5), (1, 16), (9, 3, 2), (4, 4, 4, 4)]
    )
    def test_arbitrary_shapes(self, rng, shape):
        a = rng.standard_normal(shape)
        comp = WaveletCompressor(CompressionConfig(n_bins=64, levels="max"))
        out = comp.decompress(comp.compress(a))
        assert out.shape == shape

    def test_constant_array_exact(self):
        a = np.full((16, 16), 2.5)
        comp = WaveletCompressor()
        out = comp.decompress(comp.compress(a))
        np.testing.assert_allclose(out, a, atol=1e-12)

    def test_roundtrip_helper(self, smooth2d):
        comp = WaveletCompressor()
        out, stats = comp.roundtrip(smooth2d)
        assert out.shape == smooth2d.shape
        assert stats.compressed_bytes > 0


class TestCompressionBehaviour:
    def test_lossy_beats_gzip_on_smooth_data(self, smooth3d):
        """Paper Fig. 6: lossless deflate of doubles is weak, the lossy
        pipeline is an order of magnitude stronger."""
        import zlib

        gzip_rate = 100.0 * len(zlib.compress(smooth3d.tobytes(), 6)) / smooth3d.nbytes
        comp = WaveletCompressor(CompressionConfig(n_bins=128, quantizer="proposed"))
        _, stats = comp.compress_with_stats(smooth3d)
        assert stats.compression_rate_percent < gzip_rate / 2

    def test_rate_grows_with_n(self, smooth3d):
        """Paper Fig. 7: larger division numbers compress slightly worse."""
        rates = []
        for n in (1, 128):
            comp = WaveletCompressor(CompressionConfig(n_bins=n, quantizer="simple"))
            _, stats = comp.compress_with_stats(smooth3d)
            rates.append(stats.compression_rate_percent)
        assert rates[0] <= rates[1] + 0.5  # near-monotone, gzip jitter allowed

    def test_error_shrinks_with_n(self, smooth3d):
        """Paper Fig. 8: larger division numbers quantize more finely."""
        errs = []
        for n in (1, 128):
            comp = WaveletCompressor(CompressionConfig(n_bins=n, quantizer="simple"))
            out = comp.decompress(comp.compress(smooth3d))
            errs.append(repro.mean_relative_error(smooth3d, out))
        assert errs[1] < errs[0]

    def test_rough_data_compresses_worse(self, rng, smooth3d):
        rough = rng.standard_normal(smooth3d.shape)
        comp = WaveletCompressor(CompressionConfig(n_bins=128))
        _, s_smooth = comp.compress_with_stats(smooth3d)
        _, s_rough = comp.compress_with_stats(rough)
        assert s_rough.compression_rate_percent > s_smooth.compression_rate_percent


class TestStats:
    def test_fields(self, smooth2d):
        comp = WaveletCompressor()
        blob, stats = comp.compress_with_stats(smooth2d)
        assert stats.original_bytes == smooth2d.nbytes
        assert stats.compressed_bytes == len(blob)
        assert 0 < stats.formatted_bytes
        assert stats.n_coefficients == smooth2d.size
        assert 0 <= stats.n_quantized <= stats.n_coefficients
        assert stats.applied_levels >= 1
        assert stats.config == comp.config

    def test_timing_keys(self, smooth2d):
        _, stats = WaveletCompressor().compress_with_stats(smooth2d)
        assert set(stats.timings) == {
            "wavelet", "quantization", "encoding", "formatting", "backend",
        }
        assert all(t >= 0 for t in stats.timings.values())
        assert stats.total_compression_seconds > 0

    def test_tempfile_backend_adds_split(self, smooth2d, tmp_path):
        comp = WaveletCompressor(CompressionConfig(backend="tempfile-gzip"))
        _, stats = comp.compress_with_stats(smooth2d)
        assert "temp_write" in stats.timings
        assert "gzip" in stats.timings

    def test_quantized_fraction(self, smooth2d):
        _, stats = WaveletCompressor(
            CompressionConfig(quantizer="simple", levels=1)
        ).compress_with_stats(smooth2d)
        assert stats.quantized_fraction == pytest.approx(
            stats.n_quantized / stats.n_coefficients
        )

    def test_rate_nan_when_empty(self):
        from repro.core.pipeline import CompressionStats

        assert np.isnan(CompressionStats().compression_rate_percent)

    def test_backend_mb_s(self, smooth2d):
        _, stats = WaveletCompressor().compress_with_stats(smooth2d)
        expected = stats.formatted_bytes / stats.timings["backend"] / 1e6
        assert stats.backend_mb_s == pytest.approx(expected)
        assert stats.backend_mb_s > 0

    def test_backend_mb_s_nan_when_untimed(self):
        from repro.core.pipeline import CompressionStats

        assert np.isnan(CompressionStats().backend_mb_s)
        assert np.isnan(
            CompressionStats(formatted_bytes=10, timings={"backend": 0.0}).backend_mb_s
        )


class TestInputValidation:
    def test_int_dtype_rejected(self):
        with pytest.raises(CompressionError, match="dtype"):
            WaveletCompressor().compress(np.arange(10))

    def test_0d_rejected(self):
        with pytest.raises(CompressionError):
            WaveletCompressor().compress(np.float64(1.0))

    def test_nan_rejected(self):
        a = np.ones((4, 4))
        a[0, 0] = np.nan
        with pytest.raises(CompressionError, match="non-finite"):
            WaveletCompressor().compress(a)

    def test_inf_rejected(self):
        a = np.ones(8)
        a[3] = np.inf
        with pytest.raises(CompressionError):
            WaveletCompressor().compress(a)

    def test_garbage_blob_rejected(self):
        with pytest.raises(FormatError):
            WaveletCompressor.decompress(b"not a container at all")


class TestSelfDescription:
    def test_static_decompress(self, smooth2d):
        blob = WaveletCompressor(CompressionConfig(n_bins=4)).compress(smooth2d)
        # a differently-configured (or no) instance can decode it
        out = WaveletCompressor.decompress(blob)
        assert out.shape == smooth2d.shape

    def test_inspect_header(self, smooth2d):
        cfg = CompressionConfig(n_bins=32, quantizer="simple", levels=2)
        blob = WaveletCompressor(cfg).compress(smooth2d)
        header = inspect(blob)
        assert tuple(header["shape"]) == smooth2d.shape
        assert header["dtype"] == "float64"
        assert header["config"]["n_bins"] == 32
        assert header["config"]["quantizer"] == "simple"
        assert header["applied_levels"] == 2

    def test_module_level_api(self, smooth2d):
        blob = compress(smooth2d, n_bins=64)
        out = decompress(blob)
        assert out.shape == smooth2d.shape

    def test_constructor_overrides(self):
        comp = WaveletCompressor(CompressionConfig(n_bins=8), quantizer="simple")
        assert comp.config.n_bins == 8
        assert comp.config.quantizer == "simple"


class TestBackendChoice:
    @pytest.mark.parametrize(
        "backend", ["zlib", "gzip", "gzip-mt", "zlib-mt", "none", "rle", "xor-delta"]
    )
    def test_all_backends_roundtrip(self, smooth2d, backend):
        comp = WaveletCompressor(CompressionConfig(backend=backend))
        out = comp.decompress(comp.compress(smooth2d))
        assert out.shape == smooth2d.shape

    def test_threaded_backend_deterministic(self, smooth3d):
        blobs = {
            threads: WaveletCompressor(
                CompressionConfig(
                    backend="gzip-mt",
                    backend_threads=threads,
                    backend_block_bytes=4_096,
                )
            ).compress(smooth3d)
            for threads in (1, 2, 8)
        }
        assert blobs[1] == blobs[2] == blobs[8]

    def test_zlib_smaller_than_none(self, smooth3d):
        sizes = {}
        for backend in ("zlib", "none"):
            comp = WaveletCompressor(CompressionConfig(backend=backend))
            sizes[backend] = len(comp.compress(smooth3d))
        assert sizes["zlib"] < sizes["none"]
