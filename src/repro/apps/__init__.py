"""Proxy applications and synthetic workload generators."""

from .climate import ClimateProxy
from .fields import smooth_field

__all__ = ["ClimateProxy", "smooth_field"]
