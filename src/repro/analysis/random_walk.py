"""Random-walk error model (paper Section IV-E).

The paper observes that post-restart errors "randomly grow up and down
while slowly increasing, and the movements resemble a 1D random walk.  If
we assume that the errors grow according to a 1D random walk, the expected
errors after n steps becomes the order of sqrt(n)."

This module fits that model -- ``err(k) ~ err0 + c * sqrt(k - k0)`` -- to a
measured drift series and reports the goodness of fit, letting the Fig. 10
bench state quantitatively whether the sqrt-growth explanation holds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ReproError

__all__ = ["SqrtFit", "fit_sqrt_growth", "expected_random_walk_error"]


@dataclass(frozen=True)
class SqrtFit:
    """Least-squares fit of ``err = intercept + coeff * sqrt(k - k0)``."""

    k0: int
    intercept: float
    coeff: float
    r_squared: float


def fit_sqrt_growth(steps: np.ndarray, errors: np.ndarray) -> SqrtFit:
    """Fit the sqrt-growth model to a drift series.

    ``steps`` are absolute step numbers; the restart step ``k0`` is taken
    as ``steps[0] - 1`` (the first recorded point is one step after the
    restart).
    """
    k = np.asarray(steps, dtype=np.float64)
    e = np.asarray(errors, dtype=np.float64)
    if k.shape != e.shape or k.ndim != 1:
        raise ReproError("steps and errors must be 1D arrays of equal length")
    if k.size < 3:
        raise ReproError(f"need at least 3 points to fit, got {k.size}")
    if np.any(np.diff(k) <= 0):
        raise ReproError("steps must be strictly increasing")
    k0 = int(k[0]) - 1
    basis = np.sqrt(k - k0)
    design = np.column_stack([np.ones_like(basis), basis])
    coeffs, *_ = np.linalg.lstsq(design, e, rcond=None)
    predicted = design @ coeffs
    ss_res = float(np.sum((e - predicted) ** 2))
    ss_tot = float(np.sum((e - e.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return SqrtFit(k0=k0, intercept=float(coeffs[0]), coeff=float(coeffs[1]), r_squared=r2)


def expected_random_walk_error(
    step_noise: float, n_steps: int | np.ndarray
) -> np.ndarray:
    """Expected |position| of a 1D random walk with per-step scale
    ``step_noise`` after ``n_steps``: ``step_noise * sqrt(2 n / pi)``."""
    if step_noise < 0:
        raise ReproError(f"step_noise must be >= 0, got {step_noise}")
    n = np.asarray(n_steps, dtype=np.float64)
    if np.any(n < 0):
        raise ReproError("n_steps must be >= 0")
    return step_noise * np.sqrt(2.0 * n / np.pi)
