"""Unit and property tests for the error-bounded quantizer/pipeline."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro import CompressionConfig, WaveletCompressor
from repro.core.quantization import bounded_quantize
from repro.exceptions import ConfigurationError


class TestBoundedQuantize:
    def test_per_value_guarantee(self, rng):
        v = rng.standard_normal(2000)
        r = bounded_quantize(v, 0.01)
        approx = v.copy()
        approx[r.quantized_mask] = r.averages[r.indices]
        assert np.abs(v - approx).max() <= 0.01

    def test_tighter_bound_more_bins(self, rng):
        v = rng.standard_normal(2000)
        loose = bounded_quantize(v, 0.1)
        tight = bounded_quantize(v, 0.001)
        assert tight.averages.size > loose.averages.size

    def test_indices_uint16(self, rng):
        r = bounded_quantize(rng.standard_normal(100), 0.5)
        assert r.indices.dtype == np.uint16

    def test_infeasible_bound_quantizes_nothing(self, rng):
        v = rng.uniform(-1e6, 1e6, 1000)
        r = bounded_quantize(v, 1e-9)  # would need > 65536 bins
        assert r.n_quantized == 0

    def test_constant_values(self):
        r = bounded_quantize(np.full(10, 3.0), 0.1)
        np.testing.assert_array_equal(r.averages[r.indices], 3.0)

    def test_empty(self):
        r = bounded_quantize(np.zeros(0), 0.1)
        assert r.quantized_mask.size == 0

    @pytest.mark.parametrize("bound", [0.0, -1.0])
    def test_validation(self, bound, rng):
        with pytest.raises(ConfigurationError):
            bounded_quantize(rng.standard_normal(10), bound)


class TestConfigBounded:
    def test_requires_error_bound(self):
        with pytest.raises(ConfigurationError, match="error_bound"):
            CompressionConfig(quantizer="bounded")

    def test_error_bound_only_for_bounded(self):
        with pytest.raises(ConfigurationError):
            CompressionConfig(quantizer="proposed", error_bound=0.1)

    def test_roundtrip_dict(self):
        cfg = CompressionConfig(quantizer="bounded", error_bound=0.25)
        assert CompressionConfig.from_dict(cfg.to_dict()) == cfg


class TestBoundedPipeline:
    @pytest.mark.parametrize("bound", [1.0, 0.1, 0.01])
    def test_element_guarantee_after_inverse_transform(self, smooth3d, bound):
        """The headline contract: |x - x~|_inf <= error_bound end to end."""
        comp = WaveletCompressor(
            CompressionConfig(quantizer="bounded", error_bound=bound)
        )
        approx = comp.decompress(comp.compress(smooth3d))
        assert float(np.abs(smooth3d - approx).max()) <= bound

    def test_tighter_bound_worse_rate(self, smooth3d):
        rates = []
        for bound in (1.0, 0.01):
            comp = WaveletCompressor(
                CompressionConfig(quantizer="bounded", error_bound=bound)
            )
            _, stats = comp.compress_with_stats(smooth3d)
            rates.append(stats.compression_rate_percent)
        assert rates[1] > rates[0]

    def test_header_records_uint16(self, smooth2d):
        from repro.core.pipeline import inspect

        comp = WaveletCompressor(
            CompressionConfig(quantizer="bounded", error_bound=0.05)
        )
        blob = comp.compress(smooth2d)
        header = inspect(blob)
        assert header["index_dtype"] == "uint16"
        assert header["config"]["error_bound"] == 0.05

    SETTINGS = settings(max_examples=40, deadline=None)

    @SETTINGS
    @given(
        arr=hnp.arrays(
            np.float64,
            st.lists(st.integers(2, 10), min_size=1, max_size=3).map(tuple),
            elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
        ),
        bound=st.sampled_from([1e3, 1.0, 1e-3]),
    )
    def test_guarantee_property(self, arr, bound):
        comp = WaveletCompressor(
            CompressionConfig(quantizer="bounded", error_bound=bound, levels="max")
        )
        approx = comp.decompress(comp.compress(arr))
        slack = 1e-9 * max(1.0, float(np.abs(arr).max()))
        assert float(np.abs(arr - approx).max()) <= bound + slack
