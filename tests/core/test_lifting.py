"""Unit and property tests for the CDF 5/3 lifting wavelet."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import repro
from repro import CompressionConfig, WaveletCompressor
from repro.core.lifting import cdf53_forward_axis, cdf53_inverse_axis
from repro.core.wavelet import wavelet_forward, wavelet_inverse
from repro.exceptions import CompressionError, ConfigurationError

from .test_wavelet import PEEL_SHAPES, check_peeled_equals_unpeeled, kernel_calls

RT_KW = dict(rtol=1e-12, atol=1e-12)


class TestAxisTransform:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 17, 64, 101])
    def test_roundtrip_lengths(self, rng, n):
        a = rng.standard_normal(n)
        np.testing.assert_allclose(
            cdf53_inverse_axis(cdf53_forward_axis(a, 0), 0), a, **RT_KW
        )

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_roundtrip_each_axis_3d(self, rng, axis):
        a = rng.standard_normal((6, 5, 4))
        np.testing.assert_allclose(
            cdf53_inverse_axis(cdf53_forward_axis(a, axis), axis), a, **RT_KW
        )

    def test_short_axis_copy(self):
        a = np.array([3.0])
        out = cdf53_forward_axis(a, 0)
        np.testing.assert_array_equal(out, a)
        out[0] = 0.0
        assert a[0] == 3.0

    def test_linear_data_near_zero_high_band(self):
        """The point of linear prediction: a ramp's interior residuals
        vanish (only boundary mirroring leaves a trace)."""
        x = np.linspace(0.0, 1.0, 64)
        c = cdf53_forward_axis(x, 0)
        interior_high = c[33:-1]
        np.testing.assert_allclose(interior_high, 0.0, atol=1e-12)

    def test_smaller_high_band_than_haar_on_smooth_data(self, smooth1d):
        from repro.core.wavelet import haar_forward_axis

        n = smooth1d.size
        haar_high = np.abs(haar_forward_axis(smooth1d, 0)[n - n // 2 :])
        cdf_high = np.abs(cdf53_forward_axis(smooth1d, 0)[n - n // 2 :])
        assert cdf_high.mean() < haar_high.mean()

    def test_packed_layout_matches_haar(self, rng):
        """Low band occupies [0, ceil(n/2)) so the band bookkeeping holds."""
        a = rng.standard_normal(9)
        c = cdf53_forward_axis(a, 0)
        assert c.shape == a.shape  # 5 low + 4 high, in place


class TestMultiLevel:
    @pytest.mark.parametrize(
        "shape", [(16,), (15,), (8, 8), (7, 9), (4, 6, 2), (5, 3, 7)]
    )
    @pytest.mark.parametrize("levels", [1, 2, "max"])
    def test_roundtrip(self, rng, shape, levels):
        a = rng.standard_normal(shape)
        coeffs, applied = wavelet_forward(a, levels, "cdf53")
        back = wavelet_inverse(coeffs, applied, "cdf53")
        np.testing.assert_allclose(back, a, **RT_KW)

    def test_unknown_wavelet(self, rng):
        with pytest.raises(CompressionError, match="unknown wavelet"):
            wavelet_forward(rng.standard_normal(8), 1, "db4")

    SETTINGS = settings(max_examples=40, deadline=None)

    @SETTINGS
    @given(
        arr=hnp.arrays(
            np.float64,
            st.lists(st.integers(1, 10), min_size=1, max_size=3).map(tuple),
            elements=st.floats(-1e9, 1e9, allow_nan=False, allow_infinity=False),
        ),
        levels=st.one_of(st.integers(1, 3), st.just("max")),
    )
    def test_roundtrip_property(self, arr, levels):
        coeffs, applied = wavelet_forward(arr, levels, "cdf53")
        back = wavelet_inverse(coeffs, applied, "cdf53")
        scale = max(1.0, float(np.abs(arr).max()))
        np.testing.assert_allclose(back, arr, atol=1e-9 * scale, rtol=1e-9)


class TestPipelineIntegration:
    def test_roundtrip_through_pipeline(self, smooth3d):
        comp = WaveletCompressor(CompressionConfig(wavelet="cdf53"))
        out = comp.decompress(comp.compress(smooth3d))
        assert out.shape == smooth3d.shape
        assert repro.mean_relative_error(smooth3d, out) < 1e-2

    def test_self_describing_blob(self, smooth2d):
        """The header carries the wavelet so any decoder instance works."""
        blob = WaveletCompressor(CompressionConfig(wavelet="cdf53")).compress(
            smooth2d
        )
        out = WaveletCompressor.decompress(blob)
        assert out.shape == smooth2d.shape
        from repro.core.pipeline import inspect

        assert inspect(blob)["config"]["wavelet"] == "cdf53"

    def test_lossless_mode_tight(self, smooth2d):
        comp = WaveletCompressor(
            CompressionConfig(quantizer="none", wavelet="cdf53")
        )
        out = comp.decompress(comp.compress(smooth2d))
        np.testing.assert_allclose(out, smooth2d, rtol=1e-12, atol=1e-9)

    def test_lower_error_than_haar_at_same_n(self, smooth3d):
        """The improvement the ablation quantifies: at equal n the linear
        predictor's smaller residuals quantize more finely."""
        errs = {}
        for wavelet in ("haar", "cdf53"):
            comp = WaveletCompressor(
                CompressionConfig(n_bins=128, wavelet=wavelet)
            )
            out = comp.decompress(comp.compress(smooth3d))
            errs[wavelet] = repro.mean_relative_error(smooth3d, out)
        assert errs["cdf53"] < errs["haar"]

    def test_bounded_mode_requires_haar(self):
        with pytest.raises(ConfigurationError, match="haar"):
            CompressionConfig(quantizer="bounded", error_bound=0.1, wavelet="cdf53")

    def test_config_roundtrip(self):
        cfg = CompressionConfig(wavelet="cdf53")
        assert CompressionConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_wavelet_in_config(self):
        with pytest.raises(ConfigurationError):
            CompressionConfig(wavelet="db9")


class TestPeeledAxisKernels:
    """``cdf53`` goes through the same peeling helper as Haar (DESIGN 16)."""

    @pytest.mark.parametrize("shape", PEEL_SHAPES)
    def test_peeled_equals_unpeeled(self, monkeypatch, rng, shape):
        check_peeled_equals_unpeeled(monkeypatch, rng, "cdf53", shape)

    def test_benchmark_shape_peels_axis_1_and_only_axis_1(self, monkeypatch, rng):
        import repro.core.lifting as lifting_module

        a = rng.standard_normal((1156, 82, 2))
        whole, half = (1156, 82, 2), (1156, 82)
        calls = kernel_calls(
            monkeypatch, lifting_module, ["cdf53_forward_axis", "cdf53_inverse_axis"],
            lambda: wavelet_inverse(*wavelet_forward(a, 1, "cdf53"), "cdf53"),
        )
        fwd, inv = "cdf53_forward_axis", "cdf53_inverse_axis"
        assert calls == [
            (fwd, whole, 0), (fwd, half, 1), (fwd, half, 1), (fwd, whole, 2),
            (inv, whole, 2), (inv, half, 1), (inv, half, 1), (inv, whole, 0),
        ]
