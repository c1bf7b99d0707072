"""Unit tests for sub-band bookkeeping."""

from __future__ import annotations

import numpy as np

from repro.core.bands import final_low_shape, high_band_mask
from repro.core.wavelet import haar_forward


class TestFinalLowShape:
    def test_even(self):
        assert final_low_shape((16, 8), 2) == (4, 2)

    def test_odd_carries_tail(self):
        # 5 -> 3 -> 2
        assert final_low_shape((5,), 2) == (2,)

    def test_zero_levels(self):
        assert final_low_shape((6, 7), 0) == (6, 7)

    def test_short_axes_stay(self):
        assert final_low_shape((1, 8), 2) == (1, 2)


class TestHighBandMask:
    def test_complement_is_low_corner(self):
        mask = high_band_mask((8, 8), 1)
        assert not mask[:4, :4].any()
        assert mask[4:, :].all() and mask[:, 4:].all()

    def test_count(self):
        mask = high_band_mask((8, 6, 4), 2)
        low = final_low_shape((8, 6, 4), 2)
        assert (~mask).sum() == np.prod(low)

    def test_zero_levels_all_low(self):
        assert not high_band_mask((4, 4), 0).any()

    def test_matches_transform_of_constant(self):
        """High-band positions of a constant array carry zero coefficients."""
        a = np.full((12, 6), 3.0)
        coeffs, applied = haar_forward(a, "max")
        mask = high_band_mask(a.shape, applied)
        np.testing.assert_allclose(coeffs[mask], 0.0, atol=1e-12)
        assert np.all(np.abs(coeffs[~mask]) > 0)
