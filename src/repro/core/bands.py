"""Sub-band bookkeeping for the packed Haar coefficient layout.

After :func:`repro.core.wavelet.haar_forward` the coefficient array holds,
for every level, one low-frequency block in its leading corner and the
high-frequency bands everywhere else.  Quantization (paper Section III-B)
applies only to high-frequency coefficients, so the pipeline needs to know
*which* positions those are.

Because every level's high bands are disjoint and their union with the
final low block tiles the whole array, the high-frequency region is simply
"everything outside the final low block" -- a fact this module exposes as
a boolean mask.
"""

from __future__ import annotations

import numpy as np

from .wavelet import low_band_shape

__all__ = ["high_band_mask", "final_low_shape"]


def final_low_shape(shape: tuple[int, ...], applied_levels: int) -> tuple[int, ...]:
    """Shape of the residual low-frequency block after ``applied_levels``."""
    cur = tuple(shape)
    for _ in range(applied_levels):
        cur = low_band_shape(cur)
    return cur


def high_band_mask(shape: tuple[int, ...], applied_levels: int) -> np.ndarray:
    """Boolean mask, True where a coefficient is high-frequency.

    The complement (the final low block in the leading corner) is kept
    exact by the pipeline.
    """
    mask = np.ones(shape, dtype=bool)
    low = final_low_shape(shape, applied_levels)
    mask[tuple(slice(0, s) for s in low)] = False
    return mask
