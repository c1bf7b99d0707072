"""Unit tests for high-band distribution diagnostics (Fig. 4's premise)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.distribution import (
    high_band_distribution,
    render_histogram,
)
from repro.apps.fields import rough_field, smooth_field
from repro.exceptions import ReproError


class TestHighBandDistribution:
    def test_smooth_data_is_spiked(self, smooth2d):
        dist = high_band_distribution(smooth2d, d=64)
        # most values in few partitions -- the paper's Fig. 4 picture
        assert dist.spiked_fraction > 0.7
        assert dist.spiked_partition_fraction < 0.5
        assert dist.excess_kurtosis > 0

    def test_noise_is_less_spiked_than_smooth(self, rng):
        smooth = smooth_field((64, 64), np.random.default_rng(0), amplitude=1.0)
        noise = rough_field((64, 64), np.random.default_rng(0))
        d_smooth = high_band_distribution(smooth)
        d_noise = high_band_distribution(noise)
        assert d_smooth.excess_kurtosis > d_noise.excess_kurtosis

    def test_counts_sum_to_band_size(self, smooth2d):
        from repro.core.bands import high_band_mask
        from repro.core.wavelet import haar_forward

        dist = high_band_distribution(smooth2d, levels=2, d=32)
        _, applied = haar_forward(smooth2d, 2)
        expected = int(high_band_mask(smooth2d.shape, applied).sum())
        assert int(dist.counts.sum()) == expected

    def test_structure_sizes(self, smooth2d):
        dist = high_band_distribution(smooth2d, d=16)
        assert dist.counts.shape == (16,)
        assert dist.edges.shape == (17,)
        assert dist.spiked.shape == (16,)

    def test_tiny_input_rejected(self):
        with pytest.raises(ReproError):
            high_band_distribution(np.array([1.0]))

    def test_constant_input(self):
        dist = high_band_distribution(np.full((8, 8), 3.0))
        assert dist.spiked_fraction == 1.0  # everything in the zero spike


class TestRenderHistogram:
    def test_renders_rows_and_summary(self, smooth2d):
        dist = high_band_distribution(smooth2d, d=64)
        text = render_histogram(dist, max_rows=8)
        lines = text.splitlines()
        assert len(lines) <= 9
        assert "spiked:" in lines[-1]
        assert "*" in text  # at least one spiked partition marked

    def test_validation(self, smooth2d):
        dist = high_band_distribution(smooth2d)
        with pytest.raises(ReproError):
            render_histogram(dist, max_rows=0)
