"""Haar wavelet transformation (paper Section III-A, Figs. 2-3).

The transform splits an array along an axis into a low-frequency band of
pairwise averages and a high-frequency band of pairwise half-differences::

    L[i] = (A[2i] + A[2i+1]) / 2
    H[i] = (A[2i] - A[2i+1]) / 2

so that ``A[2i] = L[i] + H[i]`` and ``A[2i+1] = L[i] - H[i]`` -- the
transform is exactly invertible up to floating-point rounding of the
sum/difference.  For a multi-dimensional array the 1D transform is applied
along every axis in turn, yielding one low-frequency block (``LL..L``) and
``2**ndim - 1`` high-frequency blocks per level, and the decomposition is
recursed on the low block for deeper levels.

Packed layout
-------------
Coefficients are stored *in place of* the original array ("packed" layout):
after one level along an axis of length ``m``, indices ``[0, ceil(m/2))``
hold the low band and ``[ceil(m/2), m)`` the high band.  Odd axes carry
their unpaired trailing element into the low band unchanged (lazy-wavelet
convention), so arbitrary shapes round-trip.

All functions are pure vectorized NumPy; no Python-level loops over
elements.
"""

from __future__ import annotations

import numpy as np

from ..config import MAX_LEVELS
from ..exceptions import CompressionError, DecompressionError

__all__ = [
    "haar_forward_axis",
    "haar_inverse_axis",
    "haar_forward",
    "haar_inverse",
    "wavelet_forward",
    "wavelet_inverse",
    "plan_levels",
    "low_band_shape",
    "level_shapes",
]


def _low_len(n: int) -> int:
    """Length of the low band produced from an axis of length ``n``."""
    return n - n // 2


def _resolve_out(
    arr: np.ndarray, a: np.ndarray, out: np.ndarray | None, axis: int
) -> np.ndarray:
    """The moved-axis destination for an axis transform.

    ``out`` (same shape as ``arr``) must not share memory with the source:
    both bands are computed from views of the source after parts of the
    destination have been written, so aliasing would corrupt the result.
    """
    if out is None:
        return np.empty_like(a)
    if out.shape != np.shape(arr):
        raise ValueError(
            f"out has shape {out.shape}, expected {np.shape(arr)}"
        )
    if np.may_share_memory(out, np.asarray(arr)):
        raise ValueError("out must not share memory with the input array")
    return np.moveaxis(out, axis, -1)


def haar_forward_axis(
    arr: np.ndarray, axis: int, out: np.ndarray | None = None
) -> np.ndarray:
    """One level of the Haar transform along ``axis``; returns a new array.

    Axes shorter than 2 are returned as an unchanged copy.  ``out`` (same
    shape as ``arr``, float64, non-overlapping) receives the coefficients
    in place of a fresh allocation; the return value is then a view of it.
    """
    a = np.moveaxis(np.asarray(arr, dtype=np.float64), axis, -1)
    n = a.shape[-1]
    o = _resolve_out(arr, a, out, axis)
    if n < 2:
        o[...] = a
        return np.moveaxis(o, -1, axis)
    m = n // 2
    lo = n - m
    even = a[..., 0 : 2 * m : 2]
    odd = a[..., 1 : 2 * m : 2]
    low = o[..., :m]
    high = o[..., lo:]
    np.add(even, odd, out=low)
    low *= 0.5
    np.subtract(even, odd, out=high)
    high *= 0.5
    if n % 2:
        o[..., m] = a[..., -1]
    return np.moveaxis(o, -1, axis)


def haar_inverse_axis(
    arr: np.ndarray, axis: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Invert :func:`haar_forward_axis` along ``axis``; returns a new array."""
    a = np.moveaxis(np.asarray(arr, dtype=np.float64), axis, -1)
    n = a.shape[-1]
    o = _resolve_out(arr, a, out, axis)
    if n < 2:
        o[...] = a
        return np.moveaxis(o, -1, axis)
    m = n // 2
    lo = n - m
    low = a[..., :m]
    high = a[..., lo:]
    np.add(low, high, out=o[..., 0 : 2 * m : 2])
    np.subtract(low, high, out=o[..., 1 : 2 * m : 2])
    if n % 2:
        o[..., -1] = a[..., m]
    return np.moveaxis(o, -1, axis)


def low_band_shape(shape: tuple[int, ...]) -> tuple[int, ...]:
    """Shape of the low-frequency block after one decomposition level."""
    return tuple(_low_len(s) for s in shape)


def plan_levels(shape: tuple[int, ...], levels: int | str) -> int:
    """Resolve the requested recursion depth against a concrete shape.

    Returns the number of levels that will actually be applied: recursion
    stops once every axis of the running low block is shorter than 2, and
    an explicit integer request is clamped to that natural maximum.
    """
    if len(shape) == 0:
        return 0
    natural = 0
    cur = tuple(shape)
    while any(s >= 2 for s in cur):
        cur = low_band_shape(cur)
        natural += 1
    if levels == MAX_LEVELS:
        return natural
    if not isinstance(levels, int) or levels < 1:
        raise CompressionError(f"invalid levels request: {levels!r}")
    return min(levels, natural)


def level_shapes(shape: tuple[int, ...], applied_levels: int) -> list[tuple[int, ...]]:
    """Shapes of the running low block before each level (len = levels).

    ``level_shapes(shape, k)[i]`` is the region the ``i``-th decomposition
    operates on; the final low block is ``low_band_shape`` of the last entry.
    """
    shapes: list[tuple[int, ...]] = []
    cur = tuple(shape)
    for _ in range(applied_levels):
        shapes.append(cur)
        cur = low_band_shape(cur)
    return shapes


def _axis_transforms(wavelet: str):
    from .lifting import cdf53_forward_axis, cdf53_inverse_axis

    table = {
        "haar": (haar_forward_axis, haar_inverse_axis),
        "cdf53": (cdf53_forward_axis, cdf53_inverse_axis),
    }
    try:
        return table[wavelet]
    except KeyError:
        raise CompressionError(
            f"unknown wavelet {wavelet!r}; available: {sorted(table)}"
        ) from None


def _resolve_scratch(
    scratch: np.ndarray | None, ref: np.ndarray, source: np.ndarray
) -> np.ndarray:
    """The per-call ping-pong buffer: caller-provided (reusable across
    calls of the same shape) or one fresh allocation."""
    if scratch is None:
        return np.empty_like(ref)
    s = np.asarray(scratch)
    if s.shape != ref.shape or s.dtype != ref.dtype:
        raise CompressionError(
            f"scratch must be a {ref.dtype} array of shape {ref.shape}, "
            f"got {s.dtype} {s.shape}"
        )
    if np.may_share_memory(s, ref) or np.may_share_memory(s, source):
        raise CompressionError("scratch must not share memory with the input array")
    return s


#: Longest smallest-stride axis worth peeling off (see :func:`_transform_axis`).
_PEEL_MAX = 3


def _transform_axis(kernel, src: np.ndarray, ax: int, dst: np.ndarray) -> None:
    """``kernel(src, ax, out=dst)``, peeled where NumPy would loop over 2.

    A ufunc's inner loop runs along the smallest-stride axis.  When that
    axis is tiny and the transform axis sits directly above it, the
    kernels' stride-2 slices keep the two from coalescing and every inner
    loop is 2-3 elements long (axis 1 of a ``(1156, 82, 2)`` block).  One
    kernel call per index of the tiny axis loops along the transform axis
    instead: the same ufuncs on the same elements, bit-identical.  Any
    other axis above the tiny one coalesces with it into one long run and
    is left alone (peeling axis 0 of that block costs half again); from 4
    elements on, the per-index passes over every cache line cost more
    than the short loops do.
    """
    # axes longer than 1, smallest stride first
    order = sorted(
        (abs(s), i) for i, (s, n) in enumerate(zip(dst.strides, dst.shape)) if n > 1
    )
    tiny = order[0][1] if len(order) > 1 and order[1][1] == ax else None
    if tiny is None or dst.shape[tiny] > _PEEL_MAX:
        kernel(src, ax, out=dst)
        return
    for j in range(dst.shape[tiny]):
        sub = (slice(None),) * tiny + (j,)
        kernel(src[sub], ax - (tiny < ax), out=dst[sub])


def wavelet_forward(
    arr: np.ndarray,
    levels: int | str = 1,
    wavelet: str = "haar",
    *,
    scratch: np.ndarray | None = None,
) -> tuple[np.ndarray, int]:
    """Multi-level, multi-dimensional wavelet transform.

    Parameters
    ----------
    arr:
        Array of any dimensionality; transformed in float64.
    levels:
        Recursion depth, or ``"max"``.
    wavelet:
        ``"haar"`` (the paper's transform) or ``"cdf53"`` (the JPEG 2000
        LeGall lifting wavelet -- smaller high bands on smooth data).
    scratch:
        Optional float64 work buffer of ``arr``'s shape, reused across
        calls (e.g. over same-shaped slabs).  The per-axis transforms
        ping-pong between the output array and this one buffer, so the
        whole call allocates at most once (the scratch itself when not
        provided) instead of once per axis per level.  Contents on return
        are unspecified; must not share memory with ``arr``.

    Returns
    -------
    (coeffs, applied_levels):
        ``coeffs`` has the same shape as ``arr`` (packed layout) and
        ``applied_levels`` records how many levels actually ran, which
        the inverse needs.

    Notes
    -----
    Level 0 reads straight from ``arr``: the first axis kernel writes its
    result into the output buffer, so the transform never makes the
    up-front whole-array copy earlier versions did (one full memory pass
    saved per call -- the hot path when chunked compression streams
    slab after slab through here).
    """
    forward_axis, _ = _axis_transforms(wavelet)
    a = np.asarray(arr)
    if a.ndim == 0:
        raise CompressionError("cannot wavelet-transform a 0-dimensional array")
    applied = plan_levels(a.shape, levels)
    if applied == 0:
        return np.array(a, dtype=np.float64, copy=True), applied
    out = np.empty(a.shape, dtype=np.float64)
    buf = _resolve_scratch(scratch, out, a)
    source = np.asarray(a, dtype=np.float64)  # view when already float64
    region = a.shape
    for level in range(applied):
        sl = tuple(slice(0, s) for s in region)
        o_view, b_view = out[sl], buf[sl]
        if level == 0:
            # Read the input directly; the first write lands in `out`
            # (plan_levels guarantees at least one axis transforms here,
            # so `out` is fully populated before any deeper level).
            cur, cur_in_out = source, False
            dst, dst_in_out = o_view, True
        else:
            cur, cur_in_out = o_view, True
            dst, dst_in_out = b_view, False
        for ax in range(a.ndim):
            if region[ax] >= 2:
                _transform_axis(forward_axis, cur, ax, dst)
                cur, cur_in_out = dst, dst_in_out
                dst, dst_in_out = (b_view, False) if cur_in_out else (o_view, True)
        if not cur_in_out:  # the level's result lives in the scratch view
            o_view[...] = cur
        region = low_band_shape(region)
    return out, applied


def wavelet_inverse(
    coeffs: np.ndarray,
    applied_levels: int,
    wavelet: str = "haar",
    *,
    copy: bool = True,
) -> np.ndarray:
    """Invert :func:`wavelet_forward` given the recorded level count."""
    _, inverse_axis = _axis_transforms(wavelet)
    a = np.asarray(coeffs, dtype=np.float64)
    if a.ndim == 0:
        raise DecompressionError("cannot invert a 0-dimensional coefficient array")
    if applied_levels < 0:
        raise DecompressionError(f"applied_levels must be >= 0, got {applied_levels}")
    natural = plan_levels(a.shape, MAX_LEVELS)
    if applied_levels > natural:
        raise DecompressionError(
            f"applied_levels={applied_levels} exceeds the maximum depth "
            f"{natural} for shape {a.shape}"
        )
    out = np.array(a, copy=True) if copy else a
    if applied_levels == 0:
        return out
    buf = np.empty_like(out)
    regions = level_shapes(a.shape, applied_levels)
    for region in reversed(regions):
        sl = tuple(slice(0, s) for s in region)
        src, dst = out[sl], buf[sl]
        in_scratch = False
        for ax in reversed(range(a.ndim)):
            if region[ax] >= 2:
                _transform_axis(inverse_axis, src, ax, dst)
                src, dst = dst, src
                in_scratch = not in_scratch
        if in_scratch:
            out[sl] = src
    return out


def haar_forward(arr: np.ndarray, levels: int | str = 1) -> tuple[np.ndarray, int]:
    """Multi-level Haar transform (see :func:`wavelet_forward`)."""
    return wavelet_forward(arr, levels, "haar")


def haar_inverse(
    coeffs: np.ndarray, applied_levels: int, *, copy: bool = True
) -> np.ndarray:
    """Invert :func:`haar_forward` given the recorded level count."""
    return wavelet_inverse(coeffs, applied_levels, "haar", copy=copy)
