"""Weak-scaling checkpoint-time estimator (paper Fig. 9).

Combines the measured per-process compression breakdown with the analytic
shared-storage model:

* compression is embarrassingly parallel per process, so its cost is
  *constant* in the parallelism;
* I/O through the shared filesystem is ``per-process bytes x P /
  bandwidth``, so it grows linearly -- with compression only ``rate``
  percent of the bytes travel.

The with-compression line therefore has a flatter slope, crosses the
without-compression line at some parallelism (768 processes in the paper's
setting) and approaches an asymptotic saving of ``1 - rate`` (81 % for the
paper's 19 % rate).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import ConfigurationError
from .breakdown import PhaseBreakdown
from .storage import PAPER_PER_PROCESS_BYTES, PAPER_PFS, StorageModel

__all__ = [
    "ScalingPoint",
    "estimate_point",
    "estimate_series",
    "crossover_parallelism",
    "asymptotic_saving_fraction",
    "PAPER_PARALLELISMS",
]

#: The x-axis of paper Fig. 9.
PAPER_PARALLELISMS = (256, 512, 768, 1024, 1280, 1536, 1792, 2048)


@dataclass(frozen=True)
class ScalingPoint:
    """Estimated checkpoint times at one parallelism."""

    parallelism: int
    compression_seconds: float
    io_with_compression_seconds: float
    io_without_compression_seconds: float
    components: dict[str, float]

    @property
    def with_compression_seconds(self) -> float:
        """Total checkpoint time with compression (compute + reduced I/O)."""
        return self.compression_seconds + self.io_with_compression_seconds

    @property
    def without_compression_seconds(self) -> float:
        return self.io_without_compression_seconds

    @property
    def saving_fraction(self) -> float:
        """Fraction of checkpoint time saved by compressing (can be < 0
        below the crossover)."""
        base = self.without_compression_seconds
        if base <= 0:
            return 0.0
        return 1.0 - self.with_compression_seconds / base


def estimate_point(
    parallelism: int,
    breakdown: PhaseBreakdown,
    storage: StorageModel = PAPER_PFS,
    *,
    rate_fraction: float | None = None,
) -> ScalingPoint:
    """Estimate checkpoint times at one parallelism.

    Parameters
    ----------
    breakdown:
        Measured per-process compression cost (constant in ``parallelism``)
        and uncompressed checkpoint bytes per process (the paper's 1.5 MB
        when it measured none).
    rate_fraction:
        Compression rate as a fraction; defaults to the breakdown's
        measured rate.
    """
    if parallelism < 1:
        raise ConfigurationError(f"parallelism must be >= 1, got {parallelism}")
    nbytes = breakdown.per_process_bytes or PAPER_PER_PROCESS_BYTES
    rate = rate_fraction
    if rate is None:
        rate = breakdown.compression_rate_percent / 100.0
    if not 0 < rate <= 1:
        raise ConfigurationError(f"rate fraction must be in (0, 1], got {rate}")
    io_with = storage.aggregate_write_seconds(nbytes * rate, parallelism)
    io_without = storage.aggregate_write_seconds(nbytes, parallelism)
    components = dict(breakdown.as_dict())
    components.pop("compression_rate_percent", None)
    components.pop("per_process_bytes", None)
    components["io"] = io_with
    return ScalingPoint(
        parallelism=parallelism,
        compression_seconds=breakdown.total_seconds,
        io_with_compression_seconds=io_with,
        io_without_compression_seconds=io_without,
        components=components,
    )


def estimate_series(
    parallelisms: tuple[int, ...] | list[int],
    breakdown: PhaseBreakdown,
    storage: StorageModel = PAPER_PFS,
) -> list[ScalingPoint]:
    """Fig. 9's x-axis sweep."""
    return [estimate_point(p, breakdown, storage) for p in parallelisms]


def crossover_parallelism(
    breakdown: PhaseBreakdown,
    storage: StorageModel = PAPER_PFS,
) -> float:
    """Parallelism beyond which compression wins (paper: ~768 processes).

    Solves ``C + rate * B * P / W = B * P / W`` for ``P``:
    ``P* = C * W / (B * (1 - rate))``, with the breakdown's measured rate
    and bytes.
    """
    nbytes = breakdown.per_process_bytes or PAPER_PER_PROCESS_BYTES
    rate = breakdown.compression_rate_percent / 100.0
    if not 0 < rate < 1:
        raise ConfigurationError(
            f"rate fraction must be in (0, 1) for a crossover, got {rate}"
        )
    return (
        breakdown.total_seconds
        * storage.bandwidth_bytes_per_sec
        / (nbytes * (1.0 - rate))
    )


def asymptotic_saving_fraction(rate_fraction: float) -> float:
    """Paper Section IV-D: scaling out, the saving approaches ``1 - rate``
    (81 % for rate 0.19) because compression cost stays constant while both
    I/O terms grow linearly."""
    if not 0 < rate_fraction <= 1:
        raise ConfigurationError(
            f"rate fraction must be in (0, 1], got {rate_fraction}"
        )
    return 1.0 - rate_fraction
