"""Quantization of high-frequency wavelet coefficients (paper Section III-B).

Two strategies are implemented:

*Simple quantization* (SIII-B1, Fig. 4 steps 1-2)
    The value range ``[min, max]`` is divided into ``n`` equal-width
    partitions and every value is replaced by the mean of its partition.
    After this step only ``n`` distinct values remain, which is what the
    downstream byte-encoding + gzip exploit.

*Proposed quantization* (SIII-B2, Fig. 4 steps 3-5)
    High-frequency Haar coefficients of smooth mesh data concentrate in a
    narrow spike around zero; quantizing the sparse outlier partitions is
    what produces the intolerable worst-case errors the paper reports for
    the simple method.  The proposed method first cuts the range into ``d``
    partitions, detects the *spiked* partitions -- those holding at least
    the average population ``N_total / d`` (paper Eq. 4) -- and applies the
    simple quantization with ``n`` bins only to values inside spiked
    partitions.  Everything else is kept bit-exact.

Both quantizers return a :class:`QuantizationResult`, which is all the
decoder needs: which values were replaced (``quantized_mask``), the bin
index of each replaced value (``indices``) and the table of bin means
(``averages``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..exceptions import (
    CompressionError,
    ConfigurationError,
    NonFiniteDataError,
)

__all__ = [
    "QuantizationResult",
    "simple_quantize",
    "proposed_quantize",
    "bounded_quantize",
    "detect_spiked_partitions",
    "non_finite_error",
]

_MAX_BINS = 256  # one byte per encoded index (paper SIII-C)
_MAX_BOUNDED_BINS = 65536  # two bytes per index for the error-bounded mode


@dataclass
class QuantizationResult:
    """Outcome of a quantization pass over a 1D value array.

    Attributes
    ----------
    quantized_mask:
        Boolean array aligned with the input; True where the value was
        replaced by a partition average.
    indices:
        For each True position of ``quantized_mask`` (in input order), the
        partition index into ``averages``.  dtype uint8.
    averages:
        Partition means, length ``n_bins`` (unpopulated partitions hold 0.0
        and are never referenced by ``indices``).
    bin_width:
        Width of one partition in value units -- an upper bound on the
        absolute error introduced for any quantized value.
    spiked_partitions:
        For the proposed method, the boolean spike-detection outcome over
        the ``d`` coarse partitions; empty for the simple method.
    """

    quantized_mask: np.ndarray
    indices: np.ndarray
    averages: np.ndarray
    bin_width: float
    spiked_partitions: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=bool)
    )

    @property
    def n_quantized(self) -> int:
        return int(self.quantized_mask.sum())


def non_finite_error(arr: np.ndarray, context: str) -> NonFiniteDataError:
    """A pointed error naming how much of ``arr`` is NaN/Inf and where.

    The range and spike computations below take mins, maxes and bin counts
    over the data; a single NaN poisons every one of them silently (NaN
    comparisons are all false), so the caller must reject the array with
    an error precise enough to act on rather than let garbage bins
    propagate into the checkpoint.
    """
    flat = np.asarray(arr).ravel()
    bad = ~np.isfinite(flat)
    n_nan = int(np.isnan(flat).sum())
    n_inf = int(bad.sum()) - n_nan
    first = int(np.argmax(bad))
    return NonFiniteDataError(
        f"{context} contains {n_nan} NaN and {n_inf} Inf among {flat.size} "
        f"values (first at flat index {first}); lossy quantization of "
        f"non-finite data would produce garbage bins -- mask the values or "
        f"use the lossless path"
    )


def _validate_1d(values: np.ndarray) -> np.ndarray:
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise CompressionError(f"quantizer expects a 1D array, got ndim={v.ndim}")
    return v


def _finite_range(v: np.ndarray) -> tuple[float, float]:
    """``(min, max)`` of ``v``, doubling as the NaN/Inf rejection pass.

    One fused reduction replaces the old ``np.isfinite(v).all()`` check,
    which allocated a same-sized bool temporary and made an extra full
    pass before the quantizers recomputed min/max anyway: a NaN anywhere
    poisons the min, and an Inf endpoint shows up directly, so finiteness
    of the two scalars certifies the whole (non-empty) array.
    """
    lo = float(v.min())
    hi = float(v.max())
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise non_finite_error(v, "quantizer input")
    return lo, hi


def _check_bins(n_bins: int) -> None:
    if not isinstance(n_bins, (int, np.integer)) or isinstance(n_bins, bool):
        raise ConfigurationError(f"n_bins must be an int, got {n_bins!r}")
    if not 1 <= int(n_bins) <= _MAX_BINS:
        raise ConfigurationError(f"n_bins must be in [1, {_MAX_BINS}], got {n_bins}")


def _partition_indices(v: np.ndarray, lo: float, hi: float, n: int) -> np.ndarray:
    """Equal-width partition index of each value of ``v`` in ``[lo, hi]``.

    The top edge is inclusive (a value equal to ``hi`` lands in the last
    partition), matching the closed range the paper divides.  Slab-sized
    kernel: one float scratch mutated in place plus the int result --
    the naive ``((v - lo) / span) * n`` chain allocated three full-size
    float temporaries per call on the multi-million-coefficient arrays
    the pipeline feeds through here.
    """
    span = hi - lo
    if span <= 0.0:
        return np.zeros(v.shape, dtype=np.int64)
    # Divide before scaling: (v - lo) / span is always a finite value in
    # [0, 1] (n / span would overflow for subnormal spans).
    scaled = v - lo
    scaled /= span
    scaled *= n
    idx = scaled.astype(np.int64)
    np.clip(idx, 0, n - 1, out=idx)
    return idx


def _bin_means(v: np.ndarray, idx: np.ndarray, n: int) -> np.ndarray:
    sums = np.bincount(idx, weights=v, minlength=n)
    counts = np.bincount(idx, minlength=n)
    means = np.zeros(n, dtype=np.float64)
    populated = counts > 0
    means[populated] = sums[populated] / counts[populated]
    return means


def simple_quantize(values: np.ndarray, n_bins: int) -> QuantizationResult:
    """Replace every value by the mean of its equal-width partition.

    Implements paper Fig. 4 steps (1)-(2): the range of ``values`` is cut
    into ``n_bins`` partitions and all members of a partition collapse to
    its average.  Every input value is quantized.
    """
    v = _validate_1d(values)
    _check_bins(n_bins)
    n = int(n_bins)
    if v.size == 0:
        return QuantizationResult(
            quantized_mask=np.zeros(0, dtype=bool),
            indices=np.zeros(0, dtype=np.uint8),
            averages=np.zeros(n, dtype=np.float64),
            bin_width=0.0,
        )
    lo, hi = _finite_range(v)
    idx = _partition_indices(v, lo, hi, n)
    means = _bin_means(v, idx, n)
    width = (hi - lo) / n
    return QuantizationResult(
        quantized_mask=np.ones(v.shape, dtype=bool),
        indices=idx.astype(np.uint8),
        averages=means,
        bin_width=width,
    )


def detect_spiked_partitions(
    values: np.ndarray, d: int
) -> tuple[np.ndarray, np.ndarray]:
    """Spike detection of paper Eq. (4).

    Divides the range of ``values`` into ``d`` partitions and flags those
    holding at least the mean population ``N_total / d``.

    Returns
    -------
    (spiked, member_mask):
        ``spiked`` is a bool array of length ``d``; ``member_mask`` is a
        bool array aligned with ``values``, True where the value lies in a
        spiked partition.  At least one partition is always spiked
        (pigeonhole: the largest count is >= the average).
    """
    v = _validate_1d(values)
    d = _check_d(d)
    if v.size == 0:
        return np.zeros(d, dtype=bool), np.zeros(0, dtype=bool)
    lo, hi = _finite_range(v)
    return _detect_spiked(v, d, lo, hi)


def _check_d(d: int) -> int:
    if not isinstance(d, (int, np.integer)) or isinstance(d, bool) or d < 1:
        raise ConfigurationError(f"d must be a positive int, got {d!r}")
    return int(d)


def _detect_spiked(
    v: np.ndarray, d: int, lo: float, hi: float
) -> tuple[np.ndarray, np.ndarray]:
    """Spike detection with the range already in hand (no re-scan)."""
    part = _partition_indices(v, lo, hi, d)
    counts = np.bincount(part, minlength=d)
    spiked = counts >= (v.size / d)
    return spiked, spiked[part]


def proposed_quantize(
    values: np.ndarray, n_bins: int, d: int = 64
) -> QuantizationResult:
    """Spike-detecting quantization (paper Fig. 4 steps 3-5).

    Only values inside spiked partitions (see
    :func:`detect_spiked_partitions`) are quantized; the simple quantizer
    with ``n_bins`` partitions is applied to that subset over the subset's
    own value range.  Values in sparse partitions are left exact, which is
    what keeps the maximum relative error an order of magnitude below the
    simple method at equal ``n``.
    """
    v = _validate_1d(values)
    _check_bins(n_bins)
    n = int(n_bins)
    d = _check_d(d)
    if v.size == 0:
        return QuantizationResult(
            quantized_mask=np.zeros(0, dtype=bool),
            indices=np.zeros(0, dtype=np.uint8),
            averages=np.zeros(n, dtype=np.float64),
            bin_width=0.0,
            spiked_partitions=np.zeros(d, dtype=bool),
        )
    full_lo, full_hi = _finite_range(v)  # one pass: range + NaN/Inf gate
    spiked, member = _detect_spiked(v, d, full_lo, full_hi)
    subset = v[member]
    # subset is never empty: the most populated partition always meets the
    # N_total/d threshold.
    lo = float(subset.min())
    hi = float(subset.max())
    idx = _partition_indices(subset, lo, hi, n)
    means = _bin_means(subset, idx, n)
    width = (hi - lo) / n
    return QuantizationResult(
        quantized_mask=member,
        indices=idx.astype(np.uint8),
        averages=means,
        bin_width=width,
        spiked_partitions=spiked,
    )


def bounded_quantize(
    values: np.ndarray, error_bound: float, d: int = 64
) -> QuantizationResult:
    """Error-targeted quantization (the paper's stated future work).

    Section IV-C closes with: "we will provide more intuitive capability,
    which can control the errors by specifying a value, such as tolerable
    degree of errors."  This quantizer inverts the proposed method's
    knob: instead of a fixed partition count ``n``, the caller fixes the
    tolerable *absolute* error per value and the partition width is set to
    it, so ``|v - average[i]| < error_bound`` holds for every quantized
    value by construction (both the value and its partition mean lie in
    the same ``error_bound``-wide partition).

    Spike detection (paper Eq. 4) still limits quantization to the dense
    partitions.  If honouring the bound would need more than 65536
    partitions (two-byte indices), nothing is quantized -- correctness
    over rate.
    """
    v = _validate_1d(values)
    if not error_bound > 0:
        raise ConfigurationError(f"error_bound must be positive, got {error_bound}")
    d = _check_d(d)
    if v.size == 0:
        return QuantizationResult(
            quantized_mask=np.zeros(v.shape, dtype=bool),
            indices=np.zeros(0, dtype=np.uint16),
            averages=np.zeros(0, dtype=np.float64),
            bin_width=float(error_bound),
            spiked_partitions=np.zeros(d, dtype=bool),
        )
    full_lo, full_hi = _finite_range(v)
    spiked, member = _detect_spiked(v, d, full_lo, full_hi)
    empty = QuantizationResult(
        quantized_mask=np.zeros(v.shape, dtype=bool),
        indices=np.zeros(0, dtype=np.uint16),
        averages=np.zeros(0, dtype=np.float64),
        bin_width=float(error_bound),
        spiked_partitions=spiked,
    )
    subset = v[member]
    lo = float(subset.min())
    hi = float(subset.max())
    span = hi - lo
    if span == 0.0:
        n = 1
    else:
        n = int(np.ceil(span / error_bound))
        if n > _MAX_BOUNDED_BINS:
            return empty
    idx = _partition_indices(subset, lo, hi, n)
    means = _bin_means(subset, idx, n)
    width = span / n if n else 0.0
    return QuantizationResult(
        quantized_mask=member,
        indices=idx.astype(np.uint16),
        averages=means,
        bin_width=width,
        spiked_partitions=spiked,
    )
