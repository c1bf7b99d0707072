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
    "young_interval",
    "daly_interval",
    "expected_runtime",
    "expected_runtime_async",
    "checkpoint_overhead_fraction",
    "optimal_interval_with_compression",
    "IntervalComparison",
    "compare_compression_intervals",
    "temporal_checkpoint_cost",
    "temporal_restart_cost",
    "KeyframePlan",
    "plan_keyframe_interval",
]


def _check_positive(**kwargs: float) -> None:
    for name, value in kwargs.items():
        if not value > 0:
            raise ConfigurationError(f"{name} must be positive, got {value}")


def young_interval(checkpoint_cost: float, mtbf: float) -> float:
    """Young's first-order optimum: ``sqrt(2 * C * M)``."""
    _check_positive(checkpoint_cost=checkpoint_cost, mtbf=mtbf)
    return math.sqrt(2.0 * checkpoint_cost * mtbf)


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


def expected_runtime_async(
    work: float,
    interval: float,
    checkpoint_cost: float,
    restart_cost: float,
    mtbf: float,
    overlap_fraction: float = 1.0,
) -> float:
    """Expected wallclock with *asynchronous* checkpointing (paper ref. [2]).

    Non-blocking checkpointing overlaps the write with computation, hiding
    ``overlap_fraction`` of the checkpoint cost from the critical path
    (1.0 = fully hidden, 0.0 = the blocking model).  The visible cost
    ``(1 - f) * C`` replaces ``C`` in Daly's model; the rework window after
    a failure still spans the full segment.
    """
    if not 0.0 <= overlap_fraction <= 1.0:
        raise ConfigurationError(
            f"overlap_fraction must be in [0, 1], got {overlap_fraction}"
        )
    visible = (1.0 - overlap_fraction) * checkpoint_cost
    return expected_runtime(work, interval, visible, restart_cost, mtbf)


def checkpoint_overhead_fraction(
    interval: float, checkpoint_cost: float, mtbf: float
) -> float:
    """First-order overhead fraction ``C/tau + tau/(2M)`` (dimensionless).

    The two terms are the checkpoint-writing overhead and the expected
    rework after a failure; minimizing it yields Young's interval.
    """
    _check_positive(interval=interval, mtbf=mtbf)
    if checkpoint_cost < 0:
        raise ConfigurationError("checkpoint cost must be >= 0")
    return checkpoint_cost / interval + interval / (2.0 * mtbf)


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


def temporal_checkpoint_cost(
    keyframe_cost: float, delta_cost: float, keyframe_every: int
) -> float:
    """Average per-generation write cost of a temporal delta chain.

    One generation in ``keyframe_every`` pays the full keyframe cost; the
    rest pay the (much cheaper) delta cost: ``(K + (k-1) D) / k``.
    """
    _check_positive(keyframe_every=keyframe_every)
    if keyframe_cost < 0 or delta_cost < 0:
        raise ConfigurationError("keyframe and delta costs must be >= 0")
    k = int(keyframe_every)
    return (keyframe_cost + (k - 1) * delta_cost) / k


def temporal_restart_cost(
    keyframe_read_cost: float,
    delta_read_cost: float,
    keyframe_every: int,
    base_cost: float = 0.0,
) -> float:
    """Expected restore cost when restarting from a temporal chain.

    A failure lands uniformly on one of the ``k`` chain positions
    ``0..k-1``; restoring position ``i`` reads the keyframe plus ``i``
    deltas, so on average ``(k-1)/2`` deltas replay on top of the
    keyframe.  ``base_cost`` carries any chain-independent restart work
    (job relaunch, store scan).
    """
    _check_positive(keyframe_every=keyframe_every)
    if keyframe_read_cost < 0 or delta_read_cost < 0 or base_cost < 0:
        raise ConfigurationError("restart cost components must be >= 0")
    k = int(keyframe_every)
    return base_cost + keyframe_read_cost + delta_read_cost * (k - 1) / 2.0


@dataclass(frozen=True)
class KeyframePlan:
    """The chain-length choice that minimizes Daly expected runtime.

    Temporal compression makes checkpoints cheaper as chains grow (more
    deltas per keyframe) but restarts dearer (more links to replay); this
    is the trade the plan resolves.
    """

    keyframe_every: int
    checkpoint_cost: float
    restart_cost: float
    interval: float
    runtime: float


def plan_keyframe_interval(
    work: float,
    keyframe_cost: float,
    delta_cost: float,
    mtbf: float,
    *,
    keyframe_read_cost: float | None = None,
    delta_read_cost: float | None = None,
    base_restart_cost: float = 0.0,
    max_keyframe_every: int = 64,
) -> KeyframePlan:
    """Choose ``keyframe_every`` (and the Daly interval) minimizing the
    expected wallclock of ``work`` seconds of useful computation.

    For every chain length ``k`` in ``[1, max_keyframe_every]`` the model
    pairs the averaged checkpoint cost
    (:func:`temporal_checkpoint_cost`) with the expected chain-replay
    restart cost (:func:`temporal_restart_cost`), runs each at its own
    Daly-optimal interval, and keeps the cheapest.  Read costs default to
    the corresponding write costs.  ``k = 1`` is the independent
    (keyframe-only) baseline, so the returned plan never loses to it.
    """
    _check_positive(work=work, keyframe_cost=keyframe_cost, mtbf=mtbf)
    if delta_cost < 0:
        raise ConfigurationError("delta_cost must be >= 0")
    if not isinstance(max_keyframe_every, int) or max_keyframe_every < 1:
        raise ConfigurationError(
            f"max_keyframe_every must be an int >= 1, got {max_keyframe_every!r}"
        )
    kf_read = keyframe_cost if keyframe_read_cost is None else keyframe_read_cost
    d_read = delta_cost if delta_read_cost is None else delta_read_cost
    best: KeyframePlan | None = None
    for k in range(1, max_keyframe_every + 1):
        c = temporal_checkpoint_cost(keyframe_cost, delta_cost, k)
        r = temporal_restart_cost(kf_read, d_read, k, base_restart_cost)
        tau = daly_interval(c, mtbf) if c > 0 else mtbf
        runtime = expected_runtime(work, tau, c, r, mtbf)
        if best is None or runtime < best.runtime:
            best = KeyframePlan(
                keyframe_every=k, checkpoint_cost=c, restart_cost=r,
                interval=tau, runtime=runtime,
            )
    assert best is not None
    return best


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
