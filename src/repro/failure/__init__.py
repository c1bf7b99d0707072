"""Failure models and their exascale projection."""

from .distributions import ExponentialFailures, FailureDistribution, WeibullFailures
from .projection import (
    EfficiencyPoint,
    efficiency_at,
    efficiency_sweep,
    mtbf_at_scale,
)

__all__ = [
    "FailureDistribution",
    "ExponentialFailures",
    "WeibullFailures",
    "EfficiencyPoint",
    "efficiency_at",
    "efficiency_sweep",
    "mtbf_at_scale",
]
