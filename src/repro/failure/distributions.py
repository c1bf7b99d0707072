"""Failure-time distributions.

The paper's motivation is the shrinking MTBF of exascale systems ("a few
hours", ref. [4]).  These distributions generate inter-failure times for
fault plans (:meth:`repro.ckpt.faults.FaultPlan.from_distribution`) under
the memoryless exponential model standard in checkpointing theory (it
underlies Young/Daly).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
import numpy as np

from ..exceptions import ConfigurationError

__all__ = ["FailureDistribution", "ExponentialFailures"]


class FailureDistribution(ABC):
    """Generator of positive inter-failure times with a defined mean."""

    @property
    @abstractmethod
    def mean(self) -> float:
        """Mean time between failures in seconds."""

    @abstractmethod
    def sample(self, rng: np.random.Generator) -> float:
        """Draw one inter-failure time."""

    def failure_times(
        self, horizon: float, rng: np.random.Generator | int | None = None
    ) -> list[float]:
        """Absolute failure times in ``[0, horizon)``."""
        if horizon < 0:
            raise ConfigurationError(f"horizon must be >= 0, got {horizon}")
        gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        times: list[float] = []
        t = 0.0
        while True:
            t += self.sample(gen)
            if t >= horizon:
                return times
            times.append(t)

class ExponentialFailures(FailureDistribution):
    """Memoryless failures with the given MTBF."""

    def __init__(self, mtbf: float) -> None:
        if mtbf <= 0:
            raise ConfigurationError(f"mtbf must be positive, got {mtbf}")
        self._mtbf = float(mtbf)

    @property
    def mean(self) -> float:
        return self._mtbf

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.exponential(self._mtbf))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ExponentialFailures(mtbf={self._mtbf})"
