"""Direct N-body proxy application.

The closest prior feasibility study of lossy checkpoint compression (paper
ref. [31], Ni et al.) used an N-body cosmology simulation; the paper's
future work is "to investigate the feasibility in other applications".
This proxy covers that workload class: particle state (positions,
velocities, masses) instead of mesh fields.

Particle data stresses the compressor differently from mesh data --
neighbouring array entries belong to *unrelated* particles, so the
smoothness assumption of Section II-C does not hold and the lossy rate is
much worse.  That contrast is itself one of the reproduction's findings
and is asserted in the tests.

Dynamics: softened direct-sum gravity with leapfrog (kick-drift-kick)
integration, fully vectorized (O(N^2) per step, fine for N <= ~1024).
Total momentum is conserved exactly up to floating-point summation; energy
is conserved to integrator order -- both are the conserved quantities the
Section IV-E caveat is about.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..exceptions import ConfigurationError, RestoreError

__all__ = ["NBodyProxy"]


class NBodyProxy:
    """Softened direct-sum gravitational N-body with leapfrog stepping.

    Parameters
    ----------
    n_particles:
        Particle count (memory and per-step cost are O(n^2)).
    seed:
        Seed of the initial phase-space distribution (a virialised-ish
        Plummer-like blob).
    """

    #: Leapfrog time step.
    DT = 0.005
    #: Plummer softening length; keeps close encounters bounded.
    SOFTENING = 0.05
    #: Gravitational constant in simulation units.
    G = 1.0

    def __init__(self, n_particles: int = 256, seed: int = 0) -> None:
        if n_particles < 2:
            raise ConfigurationError(f"need >= 2 particles, got {n_particles}")
        self.n = int(n_particles)
        self.seed = int(seed)
        self.step_index = 0

        rng = np.random.default_rng(self.seed)
        self.positions = rng.standard_normal((self.n, 3))
        self.masses = rng.uniform(0.5, 1.5, self.n) / self.n
        # remove the centre-of-mass drift: zero *momentum*, not mean velocity
        v = rng.standard_normal((self.n, 3)) * 0.3
        com_velocity = (self.masses[:, None] * v).sum(axis=0) / self.masses.sum()
        self.velocities = v - com_velocity[None, :]

    # -- dynamics ------------------------------------------------------------

    def _accelerations(self, pos: np.ndarray) -> np.ndarray:
        # pairwise displacements r_ij = x_j - x_i, shape (n, n, 3)
        disp = pos[None, :, :] - pos[:, None, :]
        dist2 = np.sum(disp * disp, axis=-1) + self.SOFTENING**2
        inv_r3 = dist2 ** (-1.5)
        np.fill_diagonal(inv_r3, 0.0)
        # a_i = G * sum_j m_j r_ij / |r_ij|^3
        return self.G * np.einsum("ij,ijk,j->ik", inv_r3, disp, self.masses)

    def step(self) -> None:
        """One kick-drift-kick leapfrog step."""
        acc = self._accelerations(self.positions)
        v_half = self.velocities + 0.5 * self.DT * acc
        self.positions = self.positions + self.DT * v_half
        acc_new = self._accelerations(self.positions)
        self.velocities = v_half + 0.5 * self.DT * acc_new
        self.step_index += 1

    # -- diagnostics ---------------------------------------------------------

    def total_momentum(self) -> np.ndarray:
        """Conserved by the pairwise-antisymmetric forces (to fp summation)."""
        return (self.masses[:, None] * self.velocities).sum(axis=0)

    def total_energy(self) -> float:
        """Kinetic + softened potential energy (leapfrog conserves it to
        O(dt^2) per step with no secular drift)."""
        kinetic = 0.5 * float(
            np.sum(self.masses * np.sum(self.velocities**2, axis=-1))
        )
        disp = self.positions[None, :, :] - self.positions[:, None, :]
        dist = np.sqrt(np.sum(disp * disp, axis=-1) + self.SOFTENING**2)
        mm = self.masses[:, None] * self.masses[None, :]
        potential = -0.5 * self.G * float(
            np.sum(np.triu(mm / dist, k=1)) * 2.0
        )
        return kinetic + potential

    # -- checkpoint protocol ---------------------------------------------------

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {
            "positions": self.positions,
            "velocities": self.velocities,
            "masses": self.masses,
            "step": np.array([self.step_index], dtype=np.int64),
        }

    def load_state_arrays(self, arrays: Mapping[str, np.ndarray]) -> None:
        needed = ("positions", "velocities", "masses", "step")
        missing = [k for k in needed if k not in arrays]
        if missing:
            raise RestoreError(f"n-body snapshot is missing arrays: {missing}")
        pos = np.asarray(arrays["positions"], dtype=np.float64)
        vel = np.asarray(arrays["velocities"], dtype=np.float64)
        mass = np.asarray(arrays["masses"], dtype=np.float64)
        if pos.shape != (self.n, 3) or vel.shape != (self.n, 3):
            raise RestoreError(
                f"snapshot particle arrays must be ({self.n}, 3), got "
                f"{pos.shape}/{vel.shape}"
            )
        if mass.shape != (self.n,):
            raise RestoreError(f"masses must be ({self.n},), got {mass.shape}")
        self.positions = pos.copy()
        self.velocities = vel.copy()
        self.masses = mass.copy()
        self.step_index = int(np.asarray(arrays["step"]).ravel()[0])
