"""Failure-time distributions.

The paper's motivation is the shrinking MTBF of exascale systems ("a few
hours", ref. [4]).  These distributions generate inter-failure times for
fault plans (:meth:`repro.ckpt.faults.FaultPlan.from_distribution`): the
memoryless exponential model standard in checkpointing theory (it
underlies Young/Daly), plus a Weibull model whose ``shape < 1`` captures
the infant-mortality behaviour real failure logs show (refs. [1]-[3]).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterator

import numpy as np

from ..exceptions import ConfigurationError

__all__ = ["FailureDistribution", "ExponentialFailures", "WeibullFailures"]


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

    def iter_times(
        self, rng: np.random.Generator | int | None = None
    ) -> Iterator[float]:
        """Unbounded stream of absolute failure times."""
        gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        t = 0.0
        while True:
            t += self.sample(gen)
            yield t


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


class WeibullFailures(FailureDistribution):
    """Weibull inter-failure times.

    Parameters
    ----------
    mtbf:
        Desired mean; the scale parameter is derived from it.
    shape:
        Weibull shape ``k``; ``k < 1`` clusters failures (hazard decreases
        with uptime), ``k = 1`` degenerates to exponential.
    """

    def __init__(self, mtbf: float, shape: float = 0.7) -> None:
        if mtbf <= 0:
            raise ConfigurationError(f"mtbf must be positive, got {mtbf}")
        if shape <= 0:
            raise ConfigurationError(f"shape must be positive, got {shape}")
        self._mtbf = float(mtbf)
        self.shape = float(shape)
        # mean = scale * Gamma(1 + 1/k)  =>  scale = mean / Gamma(1 + 1/k)
        from math import gamma

        self.scale = self._mtbf / gamma(1.0 + 1.0 / self.shape)

    @property
    def mean(self) -> float:
        return self._mtbf

    def sample(self, rng: np.random.Generator) -> float:
        return float(self.scale * rng.weibull(self.shape))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"WeibullFailures(mtbf={self._mtbf}, shape={self.shape})"
