"""Error-targeted parameter selection.

The paper's Section IV-C closes with: "In future, we will provide more
intuitive capability, which can control the errors by specifying a value,
such as tolerable degree of errors."  This module implements that future
work: given an error tolerance, search the division-number / quantizer
space for the configuration with the best (lowest) compression rate that
still meets the tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..config import QUANTIZER_PROPOSED, QUANTIZER_SIMPLE, CompressionConfig
from ..exceptions import TuningError
from .errors import max_relative_error, mean_relative_error
from .pipeline import WaveletCompressor

__all__ = [
    "TuningResult",
    "tune_division_number",
    "tune_for_tolerance",
]

_METRICS = {"mean": mean_relative_error, "max": max_relative_error}

#: The paper's power-of-two division numbers, in the order they are tried.
CANDIDATES = (1, 2, 4, 8, 16, 32, 64, 128, 256)


@dataclass(frozen=True)
class TuningResult:
    """A configuration that satisfies the requested error bound.

    ``achieved_error`` and ``tolerance`` are fractions (0.01 == 1 %);
    ``compression_rate_percent`` is paper Eq. 5.
    """

    config: CompressionConfig
    achieved_error: float
    tolerance: float
    compression_rate_percent: float
    evaluations: int


def _evaluate(
    arr: np.ndarray, config: CompressionConfig, metric: str
) -> tuple[float, float]:
    comp = WaveletCompressor(config)
    approx, stats = comp.roundtrip(arr)
    err = _METRICS[metric](arr, approx)
    return err, stats.compression_rate_percent


def _check(tolerance: float, metric: str) -> None:
    if metric not in _METRICS:
        raise TuningError(f"metric must be one of {sorted(_METRICS)}, got {metric!r}")
    if not (tolerance > 0 and math.isfinite(tolerance)):  # NaN fails both
        raise TuningError(f"tolerance must be positive and finite, got {tolerance}")


def tune_division_number(
    arr: np.ndarray,
    tolerance: float,
    *,
    metric: str = "mean",
    base: CompressionConfig,
) -> TuningResult:
    """Smallest division number ``n`` whose error meets ``tolerance``.

    Sweeps :data:`CANDIDATES` in increasing order (larger ``n``
    monotonically reduces error but worsens the rate, Figs. 7-8) and
    returns the first satisfying configuration: ``base`` with that
    ``n_bins``.

    Raises
    ------
    TuningError
        If the metric is unknown, the tolerance is not positive and finite,
        or even the largest candidate misses the tolerance.
    """
    _check(tolerance, metric)
    evaluations = 0
    last_err = float("inf")
    for n in CANDIDATES:
        candidate = base.replace(n_bins=n)
        err, rate = _evaluate(arr, candidate, metric)
        evaluations += 1
        last_err = err
        if err <= tolerance:
            return TuningResult(candidate, err, tolerance, rate, evaluations)
    raise TuningError(
        f"no division number in {CANDIDATES} meets {metric} relative error "
        f"<= {tolerance} (best achieved {last_err:.3g}); consider the "
        "proposed quantizer, deeper wavelet levels, or a lossless codec"
    )


def tune_for_tolerance(
    arr: np.ndarray,
    tolerance: float,
    *,
    metric: str = "mean",
) -> TuningResult:
    """Best-rate configuration across both quantizers meeting ``tolerance``.

    Tries the proposed and simple quantizers (the former usually wins on
    error at a slightly worse rate, Figs. 7-8) and returns whichever
    satisfying configuration compresses harder.
    """
    # checked here too: the loop takes a TuningError for "this quantizer misses"
    _check(tolerance, metric)
    best: TuningResult | None = None
    total_evals = 0
    for quantizer in (QUANTIZER_PROPOSED, QUANTIZER_SIMPLE):
        try:
            result = tune_division_number(
                arr, tolerance, metric=metric, base=CompressionConfig(quantizer=quantizer)
            )
        except TuningError:
            continue
        total_evals += result.evaluations
        if best is None or result.compression_rate_percent < best.compression_rate_percent:
            best = result
    if best is None:
        raise TuningError(
            f"neither quantizer meets {metric} relative error <= {tolerance} "
            "for this array"
        )
    return TuningResult(
        best.config, best.achieved_error, tolerance,
        best.compression_rate_percent, total_evals,
    )
