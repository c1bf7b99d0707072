"""Unit tests for the Haar wavelet transform (paper Section III-A)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.wavelet import (
    haar_forward,
    haar_forward_axis,
    haar_inverse,
    haar_inverse_axis,
    level_shapes,
    low_band_shape,
    plan_levels,
    wavelet_forward,
    wavelet_inverse,
)
from repro.exceptions import CompressionError, DecompressionError

RT_KW = dict(rtol=1e-12, atol=1e-12)


class TestAxisTransform:
    def test_paper_formulas_1d(self):
        # L[i] = (A[2i] + A[2i+1]) / 2, H[i] = (A[2i] - A[2i+1]) / 2
        a = np.array([1.0, 3.0, 10.0, 4.0])
        out = haar_forward_axis(a, 0)
        np.testing.assert_allclose(out[:2], [2.0, 7.0])
        np.testing.assert_allclose(out[2:], [-1.0, 3.0])

    def test_reconstruction_formulas(self):
        # A[2i] = L[i] + H[i], A[2i+1] = L[i] - H[i]
        a = np.array([5.0, 1.0, -2.0, 8.0])
        back = haar_inverse_axis(haar_forward_axis(a, 0), 0)
        np.testing.assert_allclose(back, a, **RT_KW)

    def test_odd_length_keeps_tail_in_low_band(self):
        a = np.array([1.0, 3.0, 42.0])
        out = haar_forward_axis(a, 0)
        assert out[1] == 42.0  # low band = [mean, tail]
        np.testing.assert_allclose(haar_inverse_axis(out, 0), a, **RT_KW)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 17, 64, 101])
    def test_roundtrip_lengths(self, rng, n):
        a = rng.standard_normal(n)
        np.testing.assert_allclose(
            haar_inverse_axis(haar_forward_axis(a, 0), 0), a, **RT_KW
        )

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_roundtrip_each_axis_3d(self, rng, axis):
        a = rng.standard_normal((6, 5, 4))
        np.testing.assert_allclose(
            haar_inverse_axis(haar_forward_axis(a, axis), axis), a, **RT_KW
        )

    def test_short_axis_returns_copy(self):
        a = np.array([[1.0], [2.0]])
        out = haar_forward_axis(a, 1)  # axis of length 1
        np.testing.assert_array_equal(out, a)
        out[0, 0] = 99.0
        assert a[0, 0] == 1.0  # a copy, not a view

    def test_input_not_mutated(self, rng):
        a = rng.standard_normal(16)
        backup = a.copy()
        haar_forward_axis(a, 0)
        np.testing.assert_array_equal(a, backup)

    def test_non_contiguous_input(self, rng):
        base = rng.standard_normal((10, 8))
        view = base[::2, ::2]  # strided view
        out = haar_forward_axis(view, 1)
        np.testing.assert_allclose(haar_inverse_axis(out, 1), view, **RT_KW)

    def test_smooth_data_has_small_high_band(self):
        a = np.linspace(0.0, 1.0, 64)  # maximally smooth
        out = haar_forward_axis(a, 0)
        assert np.abs(out[32:]).max() < np.abs(np.diff(a)).max()


class TestLowBandShape:
    @pytest.mark.parametrize(
        "shape,expected",
        [((4,), (2,)), ((5,), (3,)), ((1,), (1,)), ((4, 6, 2), (2, 3, 1)), ((3, 5), (2, 3))],
    )
    def test_values(self, shape, expected):
        assert low_band_shape(shape) == expected


class TestPlanLevels:
    def test_natural_depth_power_of_two(self):
        assert plan_levels((8,), "max") == 3

    def test_natural_depth_odd(self):
        # 5 -> 3 -> 2 -> 1
        assert plan_levels((5,), "max") == 3

    def test_clamps_request(self):
        assert plan_levels((8,), 99) == 3

    def test_exact_request(self):
        assert plan_levels((8,), 2) == 2

    def test_multidim_uses_longest_axis(self):
        # (2, 16): axis 1 keeps halving after axis 0 bottoms out
        assert plan_levels((2, 16), "max") == 4

    def test_all_short_axes(self):
        assert plan_levels((1, 1), "max") == 0

    def test_invalid_levels(self):
        with pytest.raises(CompressionError):
            plan_levels((8,), 0)
        with pytest.raises(CompressionError):
            plan_levels((8,), -1)

    def test_empty_shape(self):
        assert plan_levels((), "max") == 0


class TestLevelShapes:
    def test_sequence(self):
        assert level_shapes((8, 6), 2) == [(8, 6), (4, 3)]

    def test_zero_levels(self):
        assert level_shapes((8,), 0) == []


class TestMultiLevel:
    @pytest.mark.parametrize(
        "shape",
        [(16,), (15,), (8, 8), (7, 9), (4, 6, 2), (5, 3, 7), (1, 17), (13, 1, 2)],
    )
    @pytest.mark.parametrize("levels", [1, 2, "max"])
    def test_roundtrip(self, rng, shape, levels):
        a = rng.standard_normal(shape)
        coeffs, applied = haar_forward(a, levels)
        np.testing.assert_allclose(haar_inverse(coeffs, applied), a, **RT_KW)

    def test_applied_levels_reported(self):
        a = np.zeros((8, 8))
        _, applied = haar_forward(a, "max")
        assert applied == 3
        _, applied = haar_forward(a, 2)
        assert applied == 2

    def test_constant_array_high_bands_zero(self):
        a = np.full((16, 8), 7.5)
        coeffs, applied = haar_forward(a, "max")
        # the final low block keeps the constant; everything else is 0
        assert applied == 4
        assert coeffs[0, 0] == pytest.approx(7.5)
        coeffs_flat = coeffs.ravel().copy()
        coeffs_flat[0] = 0.0
        np.testing.assert_allclose(coeffs_flat, 0.0, atol=1e-12)

    def test_level1_high_band_of_linear_ramp_constant(self):
        a = np.arange(16, dtype=np.float64)
        coeffs, _ = haar_forward(a, 1)
        high = coeffs[8:]
        np.testing.assert_allclose(high, -0.5)  # (a[2i]-a[2i+1])/2 = -0.5

    def test_preserves_shape(self, rng):
        a = rng.standard_normal((6, 10, 3))
        coeffs, _ = haar_forward(a, 2)
        assert coeffs.shape == a.shape

    def test_float32_input_upcast(self):
        a = np.linspace(0, 1, 32, dtype=np.float32)
        coeffs, applied = haar_forward(a, 1)
        assert coeffs.dtype == np.float64
        np.testing.assert_allclose(haar_inverse(coeffs, applied), a, atol=1e-6)

    def test_0d_raises(self):
        with pytest.raises(CompressionError):
            haar_forward(np.float64(3.0), 1)
        with pytest.raises(DecompressionError):
            haar_inverse(np.float64(3.0), 0)

    def test_inverse_validates_levels(self):
        a = np.zeros(8)
        with pytest.raises(DecompressionError):
            haar_inverse(a, 4)  # natural max is 3
        with pytest.raises(DecompressionError):
            haar_inverse(a, -1)

    def test_inverse_zero_levels_identity(self, rng):
        a = rng.standard_normal(8)
        np.testing.assert_array_equal(haar_inverse(a, 0), a)

    def test_inverse_copy_flag(self, rng):
        a = rng.standard_normal(8)
        coeffs, applied = haar_forward(a, 1)
        out = haar_inverse(coeffs, applied, copy=False)
        assert out is coeffs  # in-place inversion returns the same buffer

    def test_energy_concentration(self, smooth1d):
        """For smooth data the high bands carry a tiny share of the total
        energy -- the mechanism behind the compression rate."""
        c3, _ = haar_forward(smooth1d, 3)
        n = smooth1d.size
        total = np.sum(c3 ** 2)
        tail3 = np.sum(c3[n // 8 :] ** 2)
        assert tail3 < 0.05 * total
        assert np.abs(c3[: n // 8]).max() > np.abs(c3[n // 8 :]).max()


class TestScratchBuffer:
    """The reusable work-buffer path must be byte-identical to the
    allocating path for every shape / wavelet / level combination."""

    SHAPES = [(16,), (17,), (8, 12), (9, 7), (4, 6, 5)]

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("wavelet", ["haar", "cdf53"])
    @pytest.mark.parametrize("levels", [1, 2, "max"])
    def test_forward_identical_with_scratch(self, rng, shape, wavelet, levels):
        a = rng.standard_normal(shape)
        ref, ref_applied = wavelet_forward(a, levels, wavelet)
        scratch = np.empty(shape, dtype=np.float64)
        out, applied = wavelet_forward(a, levels, wavelet, scratch=scratch)
        assert applied == ref_applied
        np.testing.assert_array_equal(out, ref)

    def test_scratch_reused_across_calls(self, rng):
        scratch = np.empty((8, 8), dtype=np.float64)
        for _ in range(3):
            a = rng.standard_normal((8, 8))
            out, applied = wavelet_forward(a, 2, scratch=scratch)
            back = wavelet_inverse(out, applied)
            np.testing.assert_allclose(back, a, **RT_KW)

    def test_scratch_shape_mismatch(self, rng):
        a = rng.standard_normal((8, 8))
        with pytest.raises(CompressionError, match="scratch"):
            wavelet_forward(a, 1, scratch=np.empty((4, 4)))

    def test_scratch_dtype_mismatch(self, rng):
        a = rng.standard_normal((8, 8))
        with pytest.raises(CompressionError, match="scratch"):
            wavelet_forward(a, 1, scratch=np.empty((8, 8), dtype=np.float32))

    def test_scratch_aliasing_input_rejected(self, rng):
        a = rng.standard_normal((8, 8))
        with pytest.raises(CompressionError, match="share memory"):
            wavelet_forward(a, 1, scratch=a)

    def test_input_not_mutated_with_scratch(self, rng):
        a = rng.standard_normal((9, 6))
        backup = a.copy()
        wavelet_forward(a, 2, scratch=np.empty_like(a))
        np.testing.assert_array_equal(a, backup)


class TestAxisOutParameter:
    @pytest.mark.parametrize("axis", [0, 1])
    def test_forward_axis_out(self, rng, axis):
        a = rng.standard_normal((6, 8))
        out = np.empty_like(a)
        result = haar_forward_axis(a, axis, out=out)
        np.testing.assert_array_equal(result, haar_forward_axis(a, axis))
        assert np.shares_memory(result, out)

    def test_inverse_axis_out(self, rng):
        a = rng.standard_normal(16)
        coeffs = haar_forward_axis(a, 0)
        out = np.empty_like(a)
        np.testing.assert_allclose(
            haar_inverse_axis(coeffs, 0, out=out), a, **RT_KW
        )

    def test_out_shape_mismatch(self, rng):
        with pytest.raises(ValueError, match="shape"):
            haar_forward_axis(rng.standard_normal(8), 0, out=np.empty(4))

    def test_out_aliasing_rejected(self, rng):
        a = rng.standard_normal(8)
        with pytest.raises(ValueError, match="share memory"):
            haar_forward_axis(a, 0, out=a)


# -- peeled axis kernels -------------------------------------------------------

#: trailing axes of 1..5 (1, 4 and 5 must not peel), odd lengths, 2-D and 4-D
PEEL_SHAPES = [(40, 9, 1), (40, 9, 2), (41, 11, 3), (12, 7, 4), (12, 7, 5), (9, 2), (6, 5, 4, 2)]


def input_variants(rng, shape):
    """One field in the memory layouts a caller can hand in."""
    a = rng.standard_normal(shape)
    wide = rng.standard_normal(tuple(2 * s for s in shape))
    yield "c", a
    yield "float32", a.astype(np.float32)
    yield "fortran", np.asfortranarray(a)
    yield "strided", wide[tuple(slice(None, None, 2) for _ in shape)]
    yield "transposed", np.ascontiguousarray(a.T).T


def check_peeled_equals_unpeeled(monkeypatch, rng, wavelet, shape):
    """Both directions, levels 1..max, with and without a caller's scratch:
    the peeled kernels produce the very bits of the whole-block ones."""
    import repro.core.wavelet as wavelet_module

    def unpeeled(fn, *args, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(wavelet_module, "_PEEL_MAX", 0)
            return fn(*args, **kwargs)

    natural = plan_levels(shape, "max")
    for label, a in input_variants(rng, shape):
        for levels in [*range(1, natural + 1), "max"]:
            for scratch in (None, np.empty(shape, dtype=np.float64)):
                ref, applied = unpeeled(wavelet_forward, a, levels, wavelet, scratch=scratch)
                coeffs, got = wavelet_forward(a, levels, wavelet, scratch=scratch)
                assert got == applied
                np.testing.assert_array_equal(coeffs, ref, err_msg=f"{label} fwd {levels}")
                # the inverse keeps its input's layout (copy=True is order "K")
                for given in (coeffs, np.asfortranarray(coeffs)):
                    back_ref = unpeeled(wavelet_inverse, given, applied, wavelet)
                    back = wavelet_inverse(given, applied, wavelet)
                    np.testing.assert_array_equal(
                        back, back_ref, err_msg=f"{label} inv {levels}"
                    )


def kernel_calls(monkeypatch, module, names, run):
    """``(kernel name, operand shape, axis)`` of every axis-kernel call
    ``run()`` makes."""
    calls = []

    def counting(name, kernel):
        def wrapper(arr, axis, out=None):
            calls.append((name, np.shape(arr), axis))
            return kernel(arr, axis, out=out)

        return wrapper

    for name in names:
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    run()
    return calls


class TestPeeledAxisKernels:
    @pytest.mark.parametrize("shape", PEEL_SHAPES)
    def test_peeled_equals_unpeeled(self, monkeypatch, rng, shape):
        check_peeled_equals_unpeeled(monkeypatch, rng, "haar", shape)

    def test_benchmark_shape_peels_axis_1_and_only_axis_1(self, monkeypatch, rng):
        import repro.core.wavelet as wavelet_module

        a = rng.standard_normal((1156, 82, 2))
        whole, half, deep = (1156, 82, 2), (1156, 82), (578, 41, 1)
        calls = kernel_calls(
            monkeypatch, wavelet_module, ["haar_forward_axis", "haar_inverse_axis"],
            lambda: wavelet_inverse(*wavelet_forward(a, 2)),
        )
        fwd, inv = "haar_forward_axis", "haar_inverse_axis"
        assert calls == [
            (fwd, whole, 0), (fwd, half, 1), (fwd, half, 1), (fwd, whole, 2),
            (fwd, deep, 0), (fwd, deep, 1),  # trailing axis of 1: nothing to peel
            (inv, deep, 1), (inv, deep, 0),
            (inv, whole, 2), (inv, half, 1), (inv, half, 1), (inv, whole, 0),
        ]

    @pytest.mark.parametrize("trailing, peels", [(1, False), (2, True), (3, True), (4, False), (5, False)])
    def test_only_a_trailing_axis_of_2_or_3_peels(self, monkeypatch, rng, trailing, peels):
        import repro.core.wavelet as wavelet_module

        a = rng.standard_normal((12, 10, trailing))
        calls = kernel_calls(
            monkeypatch, wavelet_module, ["haar_forward_axis"],
            lambda: wavelet_forward(a, 1),
        )
        on_axis_1 = [shape for _name, shape, axis in calls if axis == 1]
        assert on_axis_1 == ([(12, 10)] * trailing if peels else [(12, 10, trailing)])
