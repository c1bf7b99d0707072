"""3D upwind advection proxy application.

A passive scalar transported by a constant velocity on a periodic grid
with first-order upwinding.  Its invariant -- the exact conservation of the
scalar sum under periodic boundaries -- makes it the canonical test of the
paper's Section IV-E caveat: lossy checkpoint compression can break the
conservation properties an application relies on, so conserved quantities
should be verified (or re-adjusted) after a lossy restart.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..exceptions import ConfigurationError, RestoreError
from .fields import smooth_field

__all__ = ["AdvectionProxy"]


class AdvectionProxy:
    """``dq/dt + v . grad(q) = 0`` with constant ``v``, upwind, periodic.

    Upwinding is stable for the CFL number ``sum(|v_ax|) * DT < 1``; the
    constants give 0.6.

    Parameters
    ----------
    shape:
        3D grid shape.
    seed:
        Seed of the initial smooth scalar field.
    """

    #: Per-axis velocities, all non-negative (upwind differences look back).
    VELOCITY = (0.8, 0.3, 0.1)
    #: Time step.
    DT = 0.5

    def __init__(self, shape: tuple[int, int, int] = (64, 32, 8), seed: int = 0) -> None:
        shape = tuple(int(s) for s in shape)
        if len(shape) != 3 or any(s < 2 for s in shape):
            raise ConfigurationError(
                f"AdvectionProxy needs a 3D shape with axes >= 2, got {shape}"
            )
        self.shape = shape
        self.seed = int(seed)
        self.step_index = 0
        self.scalar = smooth_field(
            shape, np.random.default_rng(self.seed), amplitude=1.0, offset=2.0
        )

    def step(self) -> None:
        q = self.scalar
        dq = np.zeros_like(q)
        for ax, v in enumerate(self.VELOCITY):
            dq -= v * (q - np.roll(q, 1, axis=ax))
        self.scalar = q + self.DT * dq
        self.step_index += 1

    def total_mass(self) -> float:
        """Exactly conserved by the upwind scheme under periodic boundaries
        (each flux leaves one cell and enters its neighbour)."""
        return float(self.scalar.sum())

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {
            "scalar": self.scalar,
            "step": np.array([self.step_index], dtype=np.int64),
        }

    def load_state_arrays(self, arrays: Mapping[str, np.ndarray]) -> None:
        if "scalar" not in arrays or "step" not in arrays:
            raise RestoreError("advection snapshot needs 'scalar' and 'step'")
        value = np.asarray(arrays["scalar"], dtype=np.float64)
        if value.shape != self.shape:
            raise RestoreError(
                f"snapshot shape {value.shape} does not match grid {self.shape}"
            )
        self.scalar = value.copy()
        self.step_index = int(np.asarray(arrays["step"]).ravel()[0])
