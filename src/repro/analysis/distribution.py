"""High-frequency-band distribution diagnostics (paper Fig. 4's premise).

The proposed quantizer rests on one empirical claim: Haar high-band
coefficients of smooth mesh data concentrate in a narrow spike around
zero, with most partitions nearly empty.  This module measures that claim
directly -- the partition histogram, the spike statistics the detector
sees, and excess kurtosis as a scalar "spikiness" score -- and renders the
paper's Fig. 4 histogram as text.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.bands import high_band_mask
from ..core.quantization import detect_spiked_partitions
from ..core.wavelet import haar_forward
from ..exceptions import ReproError

__all__ = ["BandDistribution", "high_band_distribution", "render_histogram"]


@dataclass(frozen=True)
class BandDistribution:
    """Distribution summary of the high-frequency coefficients.

    Attributes
    ----------
    counts:
        Per-partition population over ``d`` equal-width partitions.
    edges:
        Partition edges (length ``d + 1``).
    spiked:
        The spike-detection outcome for each partition (paper Eq. 4).
    spiked_fraction:
        Fraction of *values* living in spiked partitions -- near 1.0 for
        smooth data even though few partitions are spiked.
    spiked_partition_fraction:
        Fraction of *partitions* that are spiked -- small for smooth data.
    excess_kurtosis:
        Fisher kurtosis of the coefficients (0 for a Gaussian; large and
        positive for the heavy-centred spike the method exploits).
    """

    counts: np.ndarray
    edges: np.ndarray
    spiked: np.ndarray
    spiked_fraction: float
    spiked_partition_fraction: float
    excess_kurtosis: float


def high_band_distribution(
    arr: np.ndarray, *, levels: int | str = 3, d: int = 64
) -> BandDistribution:
    """Measure the high-band coefficient distribution of ``arr``."""
    a = np.asarray(arr, dtype=np.float64)
    if a.size < 2:
        raise ReproError("need at least 2 elements to form a high band")
    coeffs, applied = haar_forward(a, levels)
    values = coeffs[high_band_mask(a.shape, applied)]
    if values.size == 0:
        raise ReproError("decomposition produced no high-band coefficients")
    spiked, member = detect_spiked_partitions(values, d)
    lo, hi = float(values.min()), float(values.max())
    if hi == lo:
        hi = lo + 1.0
    counts, edges = np.histogram(values, bins=d, range=(lo, hi))
    centred = values - values.mean()
    var = float(np.mean(centred**2))
    kurt = float(np.mean(centred**4) / var**2 - 3.0) if var > 0 else 0.0
    return BandDistribution(
        counts=counts,
        edges=edges,
        spiked=spiked,
        spiked_fraction=float(member.mean()),
        spiked_partition_fraction=float(spiked.mean()),
        excess_kurtosis=kurt,
    )


#: Characters in a full-height row of :func:`render_histogram`.
HISTOGRAM_WIDTH = 50


def render_histogram(dist: BandDistribution, *, max_rows: int = 24) -> str:
    """Text rendering of the Fig. 4 distribution (one row per partition
    group, spiked partitions marked with ``*``)."""
    if max_rows < 1:
        raise ReproError("max_rows must be >= 1")
    d = dist.counts.size
    group = max(1, int(np.ceil(d / max_rows)))
    peak = max(1, int(dist.counts.max()))
    lines = []
    for start in range(0, d, group):
        stop = min(start + group, d)
        count = int(dist.counts[start:stop].sum())
        spiked = bool(dist.spiked[start:stop].any())
        lo = dist.edges[start]
        hi = dist.edges[stop]
        bar = "#" * max(0, round(HISTOGRAM_WIDTH * count / (peak * group)))
        marker = "*" if spiked else " "
        lines.append(f"[{lo:+10.3e}, {hi:+10.3e}) {marker} {bar} {count}")
    lines.append(
        f"spiked: {dist.spiked_fraction * 100:.1f}% of values in "
        f"{dist.spiked_partition_fraction * 100:.1f}% of partitions; "
        f"excess kurtosis {dist.excess_kurtosis:.1f}"
    )
    return "\n".join(lines)
