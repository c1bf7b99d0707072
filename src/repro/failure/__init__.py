"""Failure models and their exascale projection."""

from .distributions import ExponentialFailures, FailureDistribution
from .projection import (
    EfficiencyPoint,
    efficiency_at,
    mtbf_at_scale,
)

__all__ = [
    "FailureDistribution",
    "ExponentialFailures",
    "EfficiencyPoint",
    "efficiency_at",
    "mtbf_at_scale",
]
