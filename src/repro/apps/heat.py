"""3D heat-diffusion proxy application.

A minimal, analytically tractable CFD stand-in: explicit finite-difference
diffusion on a periodic 3D grid.  Used by tests (its invariants are exact:
total heat is conserved under periodic boundaries and extremes contract
monotonically) and by benchmarks that need a second, dynamics-free workload
whose smoothness *increases* over time.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..exceptions import ConfigurationError, RestoreError
from .fields import smooth_field

__all__ = ["HeatDiffusionProxy"]


class HeatDiffusionProxy:
    """Explicit heat equation ``dT/dt = ALPHA * lap(T)``, periodic.

    The explicit scheme is stable for ``ALPHA * DT < 1 / (2 * ndim)`` with
    dx = 1; the constants give 0.05 < 1/6.

    Parameters
    ----------
    shape:
        3D grid shape.
    seed:
        Seed of the initial smooth temperature field.
    """

    #: Diffusivity.
    ALPHA = 0.1
    #: Time step.
    DT = 0.5

    def __init__(self, shape: tuple[int, int, int] = (64, 32, 8), seed: int = 0) -> None:
        shape = tuple(int(s) for s in shape)
        if len(shape) != 3 or any(s < 2 for s in shape):
            raise ConfigurationError(
                f"HeatDiffusionProxy needs a 3D shape with axes >= 2, got {shape}"
            )
        self.shape = shape
        self.seed = int(seed)
        self.step_index = 0
        self.temperature = smooth_field(
            shape, np.random.default_rng(self.seed), amplitude=50.0, offset=300.0
        )

    def _laplacian(self, f: np.ndarray) -> np.ndarray:
        out = np.zeros_like(f)
        for ax in range(3):
            out += np.roll(f, 1, axis=ax) + np.roll(f, -1, axis=ax) - 2.0 * f
        return out

    def step(self) -> None:
        self.temperature = self.temperature + (
            self.ALPHA * self.DT
        ) * self._laplacian(self.temperature)
        self.step_index += 1

    def total_heat(self) -> float:
        """Conserved under periodic boundaries (up to fp summation error)."""
        return float(self.temperature.sum())

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {
            "temperature": self.temperature,
            "step": np.array([self.step_index], dtype=np.int64),
        }

    def load_state_arrays(self, arrays: Mapping[str, np.ndarray]) -> None:
        if "temperature" not in arrays or "step" not in arrays:
            raise RestoreError("heat snapshot needs 'temperature' and 'step'")
        value = np.asarray(arrays["temperature"], dtype=np.float64)
        if value.shape != self.shape:
            raise RestoreError(
                f"snapshot shape {value.shape} does not match grid {self.shape}"
            )
        self.temperature = value.copy()
        self.step_index = int(np.asarray(arrays["step"]).ravel()[0])
