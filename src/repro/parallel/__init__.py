"""Slab compression across worker processes."""

from .executor import MultiprocessExecutor, aggregate_stats

__all__ = ["MultiprocessExecutor", "aggregate_stats"]
