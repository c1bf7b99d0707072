"""Optimal checkpoint interval models (Young 1974, Daly 2006; paper refs
[25][26] motivate interval optimization around checkpoint cost).

Compression changes the checkpoint cost ``C`` (it shrinks the I/O but adds
compute), which moves the optimal interval and the expected-runtime curve.
These models quantify that coupling; the interval tests check
:func:`expected_runtime` against a Monte Carlo run of sampled exponential
failures.

All times are in consistent units (seconds throughout the library).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..exceptions import ConfigurationError

__all__ = [
    "daly_interval",
    "expected_runtime",
    "optimal_interval_with_compression",
    "IntervalComparison",
    "compare_compression_intervals",
]


def _check_positive(**kwargs: float) -> None:
    for name, value in kwargs.items():
        if not value > 0:
            raise ConfigurationError(f"{name} must be positive, got {value}")


def daly_interval(checkpoint_cost: float, mtbf: float) -> float:
    """Daly's higher-order optimum.

    For ``C < 2M``::

        sqrt(2CM) * [1 + (1/3) sqrt(C / 2M) + (1/9)(C / 2M)] - C

    otherwise the machine fails faster than it checkpoints and the best
    strategy degenerates to ``M``.
    """
    _check_positive(checkpoint_cost=checkpoint_cost, mtbf=mtbf)
    c, m = checkpoint_cost, mtbf
    if c >= 2.0 * m:
        return m
    ratio = c / (2.0 * m)
    return math.sqrt(2.0 * c * m) * (1.0 + math.sqrt(ratio) / 3.0 + ratio / 9.0) - c


def expected_runtime(
    work: float,
    interval: float,
    checkpoint_cost: float,
    restart_cost: float,
    mtbf: float,
) -> float:
    """Daly's complete expected-wallclock model under exponential failures.

    ``M * exp(R/M) * (exp((tau + C)/M) - 1) * W / tau`` -- the expected time
    to push ``W`` seconds of useful work through segments of ``tau`` work +
    ``C`` checkpoint, restarting (cost ``R``) after every failure.
    """
    _check_positive(work=work, interval=interval, mtbf=mtbf)
    if checkpoint_cost < 0 or restart_cost < 0:
        raise ConfigurationError("checkpoint and restart costs must be >= 0")
    m = mtbf
    return (
        m
        * math.exp(restart_cost / m)
        * (math.exp((interval + checkpoint_cost) / m) - 1.0)
        * (work / interval)
    )


def optimal_interval_with_compression(
    io_seconds: float,
    compression_seconds: float,
    compression_rate_fraction: float,
    mtbf: float,
) -> tuple[float, float]:
    """Daly-optimal intervals without and with compression.

    Parameters
    ----------
    io_seconds:
        Checkpoint I/O time *without* compression.
    compression_seconds:
        Per-checkpoint compute cost of the compressor.
    compression_rate_fraction:
        Paper Eq. 5 as a fraction (0.19 for 19 %): compressed I/O is
        ``io_seconds * rate``.
    mtbf:
        Mean time between failures.

    Returns
    -------
    (tau_without, tau_with)
    """
    _check_positive(io_seconds=io_seconds, mtbf=mtbf)
    if not 0 < compression_rate_fraction <= 1:
        raise ConfigurationError(
            "compression_rate_fraction must be in (0, 1], got "
            f"{compression_rate_fraction}"
        )
    if compression_seconds < 0:
        raise ConfigurationError("compression_seconds must be >= 0")
    c_without = io_seconds
    c_with = compression_seconds + io_seconds * compression_rate_fraction
    return daly_interval(c_without, mtbf), daly_interval(c_with, mtbf)


@dataclass(frozen=True)
class IntervalComparison:
    """Side-by-side expected-runtime comparison with/without compression."""

    checkpoint_cost_without: float
    checkpoint_cost_with: float
    interval_without: float
    interval_with: float
    runtime_without: float
    runtime_with: float

    @property
    def runtime_saving_fraction(self) -> float:
        if self.runtime_without <= 0:
            return 0.0
        return 1.0 - self.runtime_with / self.runtime_without


def compare_compression_intervals(
    work: float,
    io_seconds: float,
    compression_seconds: float,
    compression_rate_fraction: float,
    restart_cost: float,
    mtbf: float,
) -> IntervalComparison:
    """Quantify how compression changes the whole C/R economics.

    Each variant runs at its own Daly-optimal interval; the returned
    comparison carries both expected runtimes for ``work`` seconds of
    useful computation.
    """
    tau_without, tau_with = optimal_interval_with_compression(
        io_seconds, compression_seconds, compression_rate_fraction, mtbf
    )
    c_without = io_seconds
    c_with = compression_seconds + io_seconds * compression_rate_fraction
    return IntervalComparison(
        checkpoint_cost_without=c_without,
        checkpoint_cost_with=c_with,
        interval_without=tau_without,
        interval_with=tau_with,
        runtime_without=expected_runtime(work, tau_without, c_without, restart_cost, mtbf),
        runtime_with=expected_runtime(work, tau_with, c_with, restart_cost, mtbf),
    )
