"""Two-tier burst-buffer checkpoint model (paper ref. [30]).

A burst buffer is a fast intermediate tier that absorbs checkpoint writes
at near-memory speed and drains them to the parallel filesystem in the
background.  The application only blocks for the absorb; the drain
overlaps computation unless checkpoints arrive faster than the buffer
empties.

The model answers the question the paper's conclusion raises (combining
lossy compression "with ... harnessing storage hierarchy"): compression
shrinks both the blocking absorb *and* the background drain.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import ConfigurationError
from .storage import StorageModel

__all__ = ["BurstBufferModel", "BurstBufferTiming"]


@dataclass(frozen=True)
class BurstBufferTiming:
    """Cost split of one checkpoint through the burst buffer."""

    absorb_seconds: float
    drain_seconds: float
    blocking_seconds: float


@dataclass(frozen=True)
class BurstBufferModel:
    """Fast absorb tier in front of a slower drain target.

    Parameters
    ----------
    buffer_tier:
        The burst buffer itself (e.g. node-local NVMe, tens of GB/s).
    drain_tier:
        The parallel filesystem behind it.
    capacity_bytes:
        Buffer capacity; a checkpoint larger than the buffer degrades to
        writing through at the drain tier's bandwidth.
    """

    buffer_tier: StorageModel
    drain_tier: StorageModel
    capacity_bytes: int

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ConfigurationError(
                f"capacity must be positive, got {self.capacity_bytes}"
            )
        if (
            self.buffer_tier.bandwidth_bytes_per_sec
            <= self.drain_tier.bandwidth_bytes_per_sec
        ):
            raise ConfigurationError(
                "a burst buffer slower than its drain target is pointless; "
                f"got {self.buffer_tier.bandwidth_bytes_per_sec} <= "
                f"{self.drain_tier.bandwidth_bytes_per_sec}"
            )

    def checkpoint_timing(self, nbytes: int | float) -> BurstBufferTiming:
        """Absorb/drain/blocking split for one checkpoint of ``nbytes``."""
        if nbytes < 0:
            raise ConfigurationError(f"nbytes must be >= 0, got {nbytes}")
        absorb = self.buffer_tier.write_seconds(min(nbytes, self.capacity_bytes))
        drain = self.drain_tier.write_seconds(nbytes)
        if nbytes <= self.capacity_bytes:
            blocking = absorb
        else:
            # overflow writes through: block for the slow tier on the excess
            overflow = nbytes - self.capacity_bytes
            blocking = absorb + self.drain_tier.write_seconds(overflow)
        return BurstBufferTiming(
            absorb_seconds=absorb, drain_seconds=drain, blocking_seconds=blocking
        )
