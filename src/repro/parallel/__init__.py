"""Slab compression across worker processes."""

from .executor import (
    MultiprocessExecutor,
    SerialExecutor,
    SlabExecutor,
    aggregate_stats,
    default_worker_count,
    resolve_executor,
)

__all__ = [
    "SlabExecutor",
    "SerialExecutor",
    "MultiprocessExecutor",
    "resolve_executor",
    "aggregate_stats",
    "default_worker_count",
]
