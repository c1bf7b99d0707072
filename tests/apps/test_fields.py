"""Unit tests for the synthetic field generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro import CompressionConfig, WaveletCompressor
from repro.apps.fields import (
    NICAM_SHAPE,
    as_rng,
    layered_field,
    nicam_like_variables,
    rough_field,
    smooth_field,
    trend_field,
)
from repro.exceptions import ConfigurationError


class TestAsRng:
    def test_int_seed(self):
        a = as_rng(5).standard_normal(3)
        b = as_rng(5).standard_normal(3)
        np.testing.assert_array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert as_rng(gen) is gen


class TestSmoothField:
    def test_shape_and_dtype(self):
        f = smooth_field((8, 6, 2), 0)
        assert f.shape == (8, 6, 2)
        assert f.dtype == np.float64

    def test_deterministic(self):
        np.testing.assert_array_equal(smooth_field((16, 8), 3), smooth_field((16, 8), 3))

    def test_different_seeds_differ(self):
        assert not np.array_equal(smooth_field((16, 8), 1), smooth_field((16, 8), 2))

    def test_amplitude_and_offset(self):
        f = smooth_field((64, 32), 0, amplitude=3.0, offset=100.0)
        assert 90.0 < f.mean() < 110.0
        assert np.abs(f - 100.0).max() <= 3.0 + 1e-9

    def test_smoother_than_noise(self, rng):
        """The library's central assumption, checked directly: smooth fields
        have smaller neighbour differences than white noise of equal scale."""
        smooth = smooth_field((128, 64), rng, amplitude=1.0)
        noise = rough_field((128, 64), rng, amplitude=1.0)
        assert np.abs(np.diff(smooth, axis=0)).mean() < np.abs(
            np.diff(noise, axis=0)
        ).mean() / 5

    def test_noise_parameter_degrades_compressibility(self, rng):
        comp = WaveletCompressor(CompressionConfig(n_bins=128))
        clean = smooth_field((128, 64), np.random.default_rng(0), noise=0.0)
        dirty = smooth_field((128, 64), np.random.default_rng(0), noise=0.5)
        _, s_clean = comp.compress_with_stats(clean)
        _, s_dirty = comp.compress_with_stats(dirty)
        assert s_clean.compression_rate_percent < s_dirty.compression_rate_percent

    @pytest.mark.parametrize("shape", [(), (0,), (4, -1)])
    def test_bad_shapes(self, shape):
        with pytest.raises(ConfigurationError):
            smooth_field(shape, 0)


class TestLayeredField:
    def test_profile_monotone_on_average(self):
        f = layered_field((32, 16, 2), 0, axis=1, top=200.0, bottom=1000.0)
        column = f.mean(axis=(0, 2))
        assert column[0] > column[-1]  # bottom -> top decreasing
        assert abs(column[0] - 1000.0) < 60.0

    def test_axis_choice(self):
        f = layered_field((8, 8), 0, axis=0, top=1.0, bottom=0.0, perturbation=0.0)
        np.testing.assert_allclose(f[0, :], 0.0, atol=1e-12)
        np.testing.assert_allclose(f[-1, :], 1.0, atol=1e-12)

    def test_bad_axis(self):
        with pytest.raises(ConfigurationError):
            layered_field((8, 8), 0, axis=5)


class TestTrendField:
    def test_exact_values(self):
        f = trend_field((3, 2), (1.0, 10.0), offset=5.0)
        assert f[0, 0] == pytest.approx(5.0)
        assert f[2, 1] == pytest.approx(5.0 + 1.0 + 10.0)

    def test_gradient_count_mismatch(self):
        with pytest.raises(ConfigurationError):
            trend_field((3, 2), (1.0,))


class TestNicamLikeVariables:
    def test_default_shape_is_papers(self):
        assert NICAM_SHAPE == (1156, 82, 2)

    def test_five_variables(self, nicam_small):
        assert set(nicam_small) == {
            "pressure", "temperature", "wind_u", "wind_v", "wind_w",
        }

    def test_physical_magnitudes(self, nicam_small):
        assert 200.0 < nicam_small["temperature"].mean() < 310.0
        assert 200.0 < nicam_small["pressure"].mean() < 1100.0
        assert abs(nicam_small["wind_u"]).max() <= 30.0
        assert abs(nicam_small["wind_w"]).max() <= 5.0

    def test_deterministic(self):
        a = nicam_like_variables((16, 8, 2), 3)
        b = nicam_like_variables((16, 8, 2), 3)
        for k in a:
            np.testing.assert_array_equal(a[k], b[k])

    def test_all_compress_well(self, nicam_small):
        """Every variable lands in the paper's broad lossy-rate territory."""
        comp = WaveletCompressor(CompressionConfig(n_bins=128))
        for name, arr in nicam_small.items():
            _, stats = comp.compress_with_stats(arr)
            assert stats.compression_rate_percent < 60.0, name
