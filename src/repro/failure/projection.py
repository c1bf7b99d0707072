"""Exascale efficiency projection (paper Section I's motivation).

The introduction argues from machine scale: MTBF shrinks toward "a few
hours" at exascale while filesystem bandwidth lags, so naive checkpointing
stops working.  This module quantifies that argument and how lossy
compression moves it: machine efficiency (useful work / wallclock) as a
function of MTBF, with each point running at its Daly-optimal interval.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ckpt.interval import daly_interval, expected_runtime
from ..exceptions import ConfigurationError

__all__ = ["EfficiencyPoint", "efficiency_at", "mtbf_at_scale"]


@dataclass(frozen=True)
class EfficiencyPoint:
    """Machine efficiency under one failure/checkpoint-cost regime."""

    mtbf: float
    checkpoint_cost: float
    interval: float
    efficiency: float


def efficiency_at(
    mtbf: float, checkpoint_cost: float, restart_cost: float
) -> EfficiencyPoint:
    """Efficiency at the Daly-optimal interval for this (M, C) pair."""
    if mtbf <= 0 or checkpoint_cost <= 0 or restart_cost < 0:
        raise ConfigurationError(
            "mtbf and checkpoint_cost must be positive, restart_cost >= 0"
        )
    tau = daly_interval(checkpoint_cost, mtbf)
    work = 1.0e6  # any reference amount; efficiency is scale-free
    wall = expected_runtime(work, tau, checkpoint_cost, restart_cost, mtbf)
    return EfficiencyPoint(
        mtbf=mtbf,
        checkpoint_cost=checkpoint_cost,
        interval=tau,
        efficiency=work / wall,
    )


def mtbf_at_scale(node_mtbf: float, n_nodes: int) -> float:
    """System MTBF of ``n_nodes`` independent exponential failure processes.

    The superposition of independent Poisson processes has rate equal to
    the sum of rates, so the system MTBF is ``node_mtbf / n_nodes`` -- the
    arithmetic behind "MTBF of exa-scale supercomputers is projected to
    decrease to about a few hours" (paper ref. [4]).
    """
    if node_mtbf <= 0 or n_nodes < 1:
        raise ConfigurationError(
            f"node_mtbf must be positive and n_nodes >= 1, got "
            f"{node_mtbf}/{n_nodes}"
        )
    return node_mtbf / n_nodes
