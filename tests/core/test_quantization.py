"""Unit tests for the simple and proposed quantizers (paper Section III-B)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.quantization import (
    detect_spiked_partitions,
    proposed_quantize,
    simple_quantize,
)
from repro.exceptions import CompressionError, ConfigurationError


def spiked_values(rng, n_spike=1000, n_outlier=20, spread=10.0):
    """The paper's Fig. 4 distribution: a dense spike near zero plus sparse
    outliers."""
    spike = rng.normal(0.0, 0.05, n_spike)
    outliers = rng.uniform(-spread, spread, n_outlier)
    vals = np.concatenate([spike, outliers])
    rng.shuffle(vals)
    return vals


class TestSimpleQuantize:
    def test_quantizes_everything(self, rng):
        v = rng.standard_normal(100)
        r = simple_quantize(v, 4)
        assert r.quantized_mask.all()
        assert r.n_quantized == 100

    def test_at_most_n_distinct_values(self, rng):
        v = rng.standard_normal(500)
        r = simple_quantize(v, 4)
        assert len(np.unique(r.averages[r.indices])) <= 4

    def test_error_bounded_by_bin_width(self, rng):
        v = rng.standard_normal(300)
        r = simple_quantize(v, 8)
        approx = r.averages[r.indices]
        assert np.abs(v - approx).max() <= r.bin_width + 1e-12

    def test_n1_collapses_to_global_mean(self, rng):
        v = rng.standard_normal(64)
        r = simple_quantize(v, 1)
        np.testing.assert_allclose(r.averages[r.indices], v.mean())

    def test_bin_means_exact_small_example(self):
        # range [0, 4], 2 half-open bins: [0,2) holds {0.0}, [2,4] holds
        # {2.0, 4.0, 2.0} -> means 0.0 and 8/3
        v = np.array([0.0, 2.0, 4.0, 2.0])
        r = simple_quantize(v, 2)
        np.testing.assert_allclose(sorted(set(r.averages[r.indices])), [0.0, 8.0 / 3.0])

    def test_top_edge_in_last_bin(self):
        v = np.array([0.0, 1.0])
        r = simple_quantize(v, 2)
        assert r.indices[1] == 1

    def test_constant_values_zero_error(self):
        v = np.full(32, 3.25)
        r = simple_quantize(v, 16)
        np.testing.assert_array_equal(r.averages[r.indices], 3.25)
        assert r.bin_width == 0.0

    def test_empty_input(self):
        r = simple_quantize(np.zeros(0), 4)
        assert r.quantized_mask.size == 0
        assert r.indices.size == 0
        assert r.averages.shape == (4,)

    def test_indices_are_uint8(self, rng):
        r = simple_quantize(rng.standard_normal(50), 256)
        assert r.indices.dtype == np.uint8

    @pytest.mark.parametrize("bad_n", [0, -1, 257, 1.5, "4", True])
    def test_invalid_n_bins(self, bad_n, rng):
        with pytest.raises(ConfigurationError):
            simple_quantize(rng.standard_normal(10), bad_n)

    def test_rejects_2d(self, rng):
        with pytest.raises(CompressionError):
            simple_quantize(rng.standard_normal((4, 4)), 4)

    def test_rejects_non_finite(self):
        with pytest.raises(CompressionError):
            simple_quantize(np.array([1.0, np.nan]), 4)
        with pytest.raises(CompressionError):
            simple_quantize(np.array([1.0, np.inf]), 4)

    def test_unpopulated_bins_never_referenced(self):
        v = np.array([0.0, 0.01, 10.0])  # middle bins empty with n=8
        r = simple_quantize(v, 8)
        counts = np.bincount(r.indices, minlength=8)
        assert (r.averages[counts == 0] == 0.0).all()


class TestDetectSpikedPartitions:
    def test_pigeonhole_at_least_one_spiked(self, rng):
        for _ in range(5):
            v = rng.uniform(-1, 1, rng.integers(1, 200))
            spiked, member = detect_spiked_partitions(v, 16)
            assert spiked.any()
            assert member.any()

    def test_uniform_data_all_spiked(self):
        # equal counts in every partition meet the average threshold
        v = np.repeat(np.linspace(0, 1, 8), 10) + np.tile(
            np.linspace(0, 0.124, 10), 8
        )
        spiked, member = detect_spiked_partitions(np.sort(v), 8)
        assert member.all()

    def test_spike_detected_outliers_not(self, rng):
        v = spiked_values(rng)
        spiked, member = detect_spiked_partitions(v, 64)
        # the dense spike is in, the far outliers are out
        assert member[np.abs(v) < 0.05].all()
        assert not member[np.abs(v) > 5.0].any()

    def test_member_mask_matches_partitions(self, rng):
        v = rng.standard_normal(200)
        d = 10
        spiked, member = detect_spiked_partitions(v, d)
        lo, hi = v.min(), v.max()
        part = np.clip(((v - lo) * (d / (hi - lo))).astype(int), 0, d - 1)
        np.testing.assert_array_equal(member, spiked[part])

    def test_empty(self):
        spiked, member = detect_spiked_partitions(np.zeros(0), 8)
        assert member.size == 0 and spiked.shape == (8,)

    @pytest.mark.parametrize("bad_d", [0, -2, 0.5, "64", True])
    def test_invalid_d(self, bad_d, rng):
        with pytest.raises(ConfigurationError):
            detect_spiked_partitions(rng.standard_normal(10), bad_d)


class TestProposedQuantize:
    def test_outliers_kept_exact(self, rng):
        v = spiked_values(rng)
        r = proposed_quantize(v, 8, 64)
        untouched = v[~r.quantized_mask]
        assert untouched.size > 0
        # untouched values are exactly preserved by construction
        assert np.abs(untouched).min() > 0.2  # only outliers escape

    def test_quantized_subset_error_bound(self, rng):
        v = spiked_values(rng)
        r = proposed_quantize(v, 16, 64)
        approx = v.copy()
        approx[r.quantized_mask] = r.averages[r.indices]
        assert np.abs(v - approx)[r.quantized_mask].max() <= r.bin_width + 1e-12

    def test_max_error_below_simple_on_spiked_data(self, rng):
        """The paper's core claim: spike detection slashes worst-case error."""
        v = spiked_values(rng)
        rs = simple_quantize(v, 8)
        rp = proposed_quantize(v, 8, 64)
        err_simple = np.abs(v - rs.averages[rs.indices]).max()
        approx = v.copy()
        approx[rp.quantized_mask] = rp.averages[rp.indices]
        err_proposed = np.abs(v - approx).max()
        assert err_proposed < err_simple / 5

    def test_d1_equals_simple(self, rng):
        """With one coarse partition everything is spiked and the proposed
        method degenerates to the simple one."""
        v = rng.standard_normal(128)
        rs = simple_quantize(v, 8)
        rp = proposed_quantize(v, 8, 1)
        assert rp.quantized_mask.all()
        np.testing.assert_allclose(
            rp.averages[rp.indices], rs.averages[rs.indices]
        )

    def test_spiked_partitions_recorded(self, rng):
        r = proposed_quantize(spiked_values(rng), 8, 64)
        assert r.spiked_partitions.shape == (64,)
        assert r.spiked_partitions.any()

    def test_empty(self):
        r = proposed_quantize(np.zeros(0), 8, 64)
        assert r.quantized_mask.size == 0 and r.n_quantized == 0

    def test_indices_align_with_mask_order(self, rng):
        v = spiked_values(rng)
        r = proposed_quantize(v, 4, 32)
        assert r.indices.size == int(r.quantized_mask.sum())

    def test_rejects_non_finite(self):
        with pytest.raises(CompressionError):
            proposed_quantize(np.array([np.nan, 1.0]), 4, 8)
