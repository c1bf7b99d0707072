"""2D shallow-water equations proxy -- the paper's motivating CFD class.

The introduction and Section II-C motivate the compressor with
computational fluid dynamics: pressures and velocities that are spatially
smooth.  This proxy integrates the conservative-form shallow-water
equations (height h, momenta hu, hv) on a doubly periodic grid with a
Lax-Friedrichs flux -- a real finite-volume CFD kernel, not a toy
relaxation:

    dh/dt  + d(hu)/dx + d(hv)/dy                        = 0
    dhu/dt + d(hu^2 + g h^2/2)/dx + d(hu v)/dy          = 0
    dhv/dt + d(hu v)/dx + d(hv^2 + g h^2/2)/dy          = 0

Invariants exercised by the tests: total mass ``sum(h)`` is conserved to
floating-point summation exactly (flux form), total momentum likewise, and
the flow stays bounded under the CFL condition.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..exceptions import ConfigurationError, RestoreError
from .fields import smooth_field

__all__ = ["ShallowWaterProxy"]


def _rusanov_div(flux_x: np.ndarray, flux_y: np.ndarray,
                 state: np.ndarray, lam: float, dx: float) -> np.ndarray:
    """Divergence of a Rusanov (local Lax-Friedrichs) flux, periodic.

    Interface flux between cells i and i+1:
    ``(F_i + F_{i+1}) / 2 - (lam / 2) (q_{i+1} - q_i)`` with ``lam`` the
    fastest wave speed -- only as much numerical dissipation as stability
    needs, unlike classic LF's ``dx / (2 dt)``.  The interface fluxes
    telescope, so the scheme conserves the state sum exactly.
    """

    def div_axis(flux: np.ndarray, axis: int) -> np.ndarray:
        f_plus = 0.5 * (flux + np.roll(flux, -1, axis=axis)) - 0.5 * lam * (
            np.roll(state, -1, axis=axis) - state
        )
        f_minus = np.roll(f_plus, 1, axis=axis)
        return (f_plus - f_minus) / dx

    return div_axis(flux_x, 0) + div_axis(flux_y, 1)


class ShallowWaterProxy:
    """Conservative shallow-water solver on a periodic square grid.

    Parameters
    ----------
    shape:
        (nx, ny) grid.
    seed:
        Seed of the initial smooth free-surface perturbation.

    Stability requires the gravity-wave CFL ``sqrt(g h_max) DT / DX`` to
    stay below 0.5; the constants give about 0.1 at the initial depth
    (velocities start small).
    """

    #: Gravitational acceleration in simulation units.
    GRAVITY = 9.81
    #: Depth the free surface is perturbed around.
    MEAN_DEPTH = 10.0
    #: Amplitude of the initial free-surface perturbation.
    PERTURBATION = 0.1
    #: Time step.
    DT = 0.01
    #: Cell size.
    DX = 1.0

    def __init__(self, shape: tuple[int, int] = (128, 128), seed: int = 0) -> None:
        shape = tuple(int(s) for s in shape)
        if len(shape) != 2 or any(s < 4 for s in shape):
            raise ConfigurationError(
                f"ShallowWaterProxy needs a 2D grid with axes >= 4, got {shape}"
            )
        self.shape = shape
        self.seed = int(seed)
        self.step_index = 0

        self.height = self.MEAN_DEPTH + smooth_field(
            shape, np.random.default_rng(self.seed), amplitude=self.PERTURBATION
        )
        self.momentum_x = np.zeros(shape, dtype=np.float64)
        self.momentum_y = np.zeros(shape, dtype=np.float64)

    # -- dynamics ------------------------------------------------------------

    def step(self) -> None:
        h, hu, hv = self.height, self.momentum_x, self.momentum_y
        g, dt, dx = self.GRAVITY, self.DT, self.DX
        u = hu / h
        v = hv / h
        half_gh2 = 0.5 * g * h * h
        lam = float(
            np.sqrt(g * h.max()) + max(np.abs(u).max(), np.abs(v).max())
        )

        dh = _rusanov_div(hu, hv, h, lam, dx)
        dhu = _rusanov_div(hu * u + half_gh2, hu * v, hu, lam, dx)
        dhv = _rusanov_div(hv * u, hv * v + half_gh2, hv, lam, dx)

        self.height = h - dt * dh
        self.momentum_x = hu - dt * dhu
        self.momentum_y = hv - dt * dhv
        self.step_index += 1

    # -- diagnostics ---------------------------------------------------------

    def total_mass(self) -> float:
        """Exactly conserved (telescoping fluxes, periodic boundaries)."""
        return float(self.height.sum())

    def total_momentum(self) -> tuple[float, float]:
        return float(self.momentum_x.sum()), float(self.momentum_y.sum())

    def total_energy(self) -> float:
        """Kinetic + potential; decays slowly under LF dissipation."""
        kinetic = 0.5 * float(
            np.sum((self.momentum_x**2 + self.momentum_y**2) / self.height)
        )
        potential = 0.5 * self.GRAVITY * float(np.sum(self.height**2))
        return kinetic + potential

    # -- checkpoint protocol ---------------------------------------------------

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {
            "height": self.height,
            "momentum_x": self.momentum_x,
            "momentum_y": self.momentum_y,
            "step": np.array([self.step_index], dtype=np.int64),
        }

    def load_state_arrays(self, arrays: Mapping[str, np.ndarray]) -> None:
        needed = ("height", "momentum_x", "momentum_y", "step")
        missing = [k for k in needed if k not in arrays]
        if missing:
            raise RestoreError(f"shallow-water snapshot is missing: {missing}")
        for name in needed[:3]:
            value = np.asarray(arrays[name], dtype=np.float64)
            if value.shape != self.shape:
                raise RestoreError(
                    f"array {name!r}: snapshot shape {value.shape} does not "
                    f"match grid {self.shape}"
                )
            setattr(self, name, value.copy())
        if np.any(self.height <= 0):
            raise RestoreError("snapshot height field is not strictly positive")
        self.step_index = int(np.asarray(arrays["step"]).ravel()[0])
