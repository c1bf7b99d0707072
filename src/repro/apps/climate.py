"""NICAM-like climate proxy application.

The paper evaluates its compressor on checkpoints of NICAM, a production
nonhydrostatic icosahedral atmosphere model, using 3D double arrays of
pressure, temperature and wind velocity of shape 1156 x 82 x 2 (~1.5 MB
each; one time step simulates 1200 s of climate).  NICAM itself is a large
Fortran code with proprietary input data, so this module substitutes the
closest synthetic equivalent that exercises the same code paths:

* the same five physical variables at the same shape, dtype and magnitude;
* smooth spatial structure (the property the compressor exploits);
* deterministic, stable time stepping so a bit-exact restart reproduces the
  original trajectory and a *lossy* restart measurably diverges from it
  (the paper's Fig. 10 experiment);
* sensitive dependence on initial conditions, so restart perturbations
  neither vanish instantly (pure diffusion) nor explode -- the paper
  observes slow, random-walk-like error growth after a lossy restart.

At the resolution of a proxy, plain advection-diffusion is too dissipative
to show sensitive dependence, so the model carries a Lorenz-63 *modulator*
that is two-way coupled to the fields: a scalar functional of the
temperature field forces the Lorenz system, and the Lorenz state modulates
the diurnal heating.  Identical states evolve identically; a lossy-restart
perturbation of the temperature field nudges the modulator onto a slowly
diverging trajectory, and the resulting forcing difference drives a
damped random walk in the field error -- the Fig. 10 phenomenology.

Axes: 0 = horizontal cell ring (periodic), 1 = vertical level (rigid lid),
2 = slab pair (weakly coupled), matching the NICAM array layout the paper
describes.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..exceptions import ConfigurationError, RestoreError
from .fields import NICAM_SHAPE, nicam_like_variables

__all__ = ["ClimateProxy"]

_FIELDS = ("pressure", "temperature", "wind_u", "wind_v", "wind_w")


def _ddx(f: np.ndarray) -> np.ndarray:
    """Central horizontal derivative (axis 0, periodic, dx = 1)."""
    return 0.5 * (np.roll(f, -1, axis=0) - np.roll(f, 1, axis=0))


def _upwind_ddx(f: np.ndarray, u: np.ndarray) -> np.ndarray:
    """First-order upwind horizontal derivative -- dissipative, hence stable
    for the advection terms even as gradients steepen."""
    fwd = np.roll(f, -1, axis=0) - f
    bwd = f - np.roll(f, 1, axis=0)
    return np.where(u >= 0.0, bwd, fwd)


def _laplacian(f: np.ndarray) -> np.ndarray:
    """Horizontal (periodic) + vertical (Neumann walls) Laplacian."""
    out = np.roll(f, 1, axis=0) + np.roll(f, -1, axis=0) - 2.0 * f
    vert = np.empty_like(f)
    vert[:, 1:-1, :] = f[:, 2:, :] + f[:, :-2, :] - 2.0 * f[:, 1:-1, :]
    vert[:, 0, :] = f[:, 1, :] - f[:, 0, :]
    vert[:, -1, :] = f[:, -2, :] - f[:, -1, :]
    return out + vert


class ClimateProxy:
    """Advection-diffusion climate proxy with diurnal forcing.

    Parameters
    ----------
    shape:
        (horizontal, vertical, slab) grid; defaults to the paper's NICAM
        array shape.
    seed:
        Master seed.  Initial conditions and the per-step stochastic
        forcing both derive from it, so two instances holding identical
        state arrays and step counters evolve identically -- the property
        restart experiments rely on.
    """

    #: Nondimensional step size; keeps the CFL number of the strongest
    #: winds comfortably below 1/2, and ``DIFFUSION * DT`` below the
    #: explicit stability bound of 1/4.
    DT = 0.02
    #: Horizontal/vertical diffusivity of temperature and winds.
    DIFFUSION = 0.08
    #: Scales the self-advection of the horizontal wind (the term that
    #: makes lossy-restart perturbations grow instead of decay).
    NONLINEARITY = 1.0
    #: Amplitude (kelvin per unit time) of the diurnal heating wave.
    FORCING_AMPLITUDE = 1.5
    #: Amplitude of the per-step stochastic forcing (identical for a given
    #: (seed, step), hence replayed exactly after restart).
    NOISE_AMPLITUDE = 0.02
    #: Steps per forcing cycle; the paper's NICAM steps 1200 s, so 72
    #: steps make one simulated day.
    DIURNAL_PERIOD = 72
    #: Strength of the Lorenz-63 modulation of the heating.
    CHAOS = 1.0

    def __init__(self, shape: tuple[int, int, int] = NICAM_SHAPE, seed: int = 0) -> None:
        shape = tuple(int(s) for s in shape)
        if len(shape) != 3:
            raise ConfigurationError(f"ClimateProxy needs a 3D shape, got {shape}")
        if shape[0] < 4 or shape[1] < 2 or shape[2] < 1:
            raise ConfigurationError(
                f"grid too small for the stencils: {shape} (need >= (4, 2, 1))"
            )
        self.shape = shape
        self.seed = int(seed)
        self.step_index = 0
        # Lorenz-63 modulator, started on the attractor.
        self.modulator = np.array([1.0, 1.0, 25.0], dtype=np.float64)

        init = nicam_like_variables(shape, np.random.default_rng(self.seed))
        self.pressure = init["pressure"]
        self.temperature = init["temperature"]
        self.wind_u = init["wind_u"] * 0.2  # start from gentle winds
        self.wind_v = init["wind_v"] * 0.2
        self.wind_w = init["wind_w"] * 0.2

        # Relaxation targets: the initial stratified columns.
        self._p_base = self.pressure.mean(axis=0, keepdims=True).copy()
        self._t_base = self.temperature.mean(axis=0, keepdims=True).copy()
        # Latitudinal heating pattern: one smooth wave around the ring,
        # strongest at the surface.
        x = np.linspace(0.0, 2.0 * np.pi, shape[0], endpoint=False)
        z = np.linspace(1.0, 0.2, shape[1])
        self._heating_pattern = np.cos(x)[:, None, None] * z[None, :, None]
        self._heating_pattern = np.broadcast_to(
            self._heating_pattern, shape
        ).copy()

    # -- dynamics ------------------------------------------------------------

    def _step_noise(self) -> np.ndarray:
        """Smooth stochastic forcing, reproducible per (seed, step).

        A short-wavelength white field would contaminate the smoothness the
        compressor relies on, so the noise is a random low-mode wave.
        """
        gen = np.random.default_rng((self.seed, self.step_index))
        k = int(gen.integers(1, 5))
        phase = float(gen.uniform(0.0, 2.0 * np.pi))
        vert_phase = float(gen.uniform(0.0, 2.0 * np.pi))
        x = np.linspace(0.0, 2.0 * np.pi, self.shape[0], endpoint=False)
        z = np.linspace(0.0, np.pi, self.shape[1])
        pattern = np.cos(k * x + phase)[:, None, None] * np.cos(z + vert_phase)[None, :, None]
        return self.NOISE_AMPLITUDE * pattern

    #: Lorenz time advanced per application step; sets the divergence rate
    #: of lossy-restart trajectories (e-folding ~ 1 / (0.9 * dt) steps).
    _LORENZ_DT = 0.008
    #: Euler sub-steps per application step (explicit Euler needs a small
    #: step or large attractor excursions overflow).
    _LORENZ_SUBSTEPS = 4
    #: Safety clamp keeping a forced excursion on a bounded neighbourhood
    #: of the attractor (the attractor itself lives within ~|x|,|y| < 25,
    #: 0 < z < 50).
    _LORENZ_BOUND = 80.0

    def _advance_modulator(self, field_signal: float) -> None:
        """Advance the Lorenz-63 modulator by one application step, forced
        by a scalar functional of the temperature field (the two-way
        coupling).  Sub-stepped explicit Euler with a safety clamp."""
        state = self.modulator.astype(np.float64, copy=True)
        sigma, rho, beta = 10.0, 28.0, 8.0 / 3.0
        h = self._LORENZ_DT / self._LORENZ_SUBSTEPS
        for _ in range(self._LORENZ_SUBSTEPS):
            x, y, z = state
            state = state + h * np.array(
                [
                    sigma * (y - x) + 20.0 * field_signal,
                    x * (rho - z) - y,
                    x * y - beta * z,
                ]
            )
        np.clip(state, -self._LORENZ_BOUND, self._LORENZ_BOUND, out=state)
        self.modulator = state

    def step(self) -> None:
        """Advance one time step (upwind advection, explicit diffusion)."""
        dt = self.DT
        u, v, w = self.wind_u, self.wind_v, self.wind_w
        T, p = self.temperature, self.pressure

        # Scalar functional of the field that forces the modulator: the
        # projection of the temperature anomaly onto the heating pattern.
        anomaly = T - self._t_base
        signal = float(np.mean(anomaly * self._heating_pattern))
        self._advance_modulator(signal)

        phase = 2.0 * np.pi * self.step_index / self.DIURNAL_PERIOD
        modulation = 1.0 + self.CHAOS * (self.modulator[0] / 10.0)
        heating = (
            self.FORCING_AMPLITUDE * np.sin(phase) * modulation
            * self._heating_pattern
        )
        noise = self._step_noise()

        dT = (
            -u * _ddx(T)
            + self.DIFFUSION * _laplacian(T)
            + heating
            + noise
            - 0.005 * (T - self._t_base)
        )
        # Linear plus cubic (Rayleigh) drag: the cubic term is negligible
        # for typical winds but caps strongly forced gusts below the
        # central-difference stability limit u < sqrt(2 kappa / dt).
        du = (
            -self.NONLINEARITY * u * _upwind_ddx(u, u)
            - 0.02 * _ddx(p)
            + 0.05 * _ddx(T)
            + self.DIFFUSION * _laplacian(u)
            - 0.01 * u
            - 0.02 * u * u * u
        )
        dv = (
            -self.NONLINEARITY * u * _ddx(v)
            + self.DIFFUSION * _laplacian(v)
            - 0.01 * v
        )
        dw = (
            -self.NONLINEARITY * u * _ddx(w)
            + 0.01 * (T - self._t_base)
            + self.DIFFUSION * _laplacian(w)
            - 0.02 * w
        )
        dp = (
            -10.0 * _ddx(u)
            - u * _ddx(p)
            + self.DIFFUSION * _laplacian(p)
            - 0.02 * (p - self._p_base)
        )

        # Weak coupling between the two slabs (axis 2): relax toward the
        # slab mean, mimicking halo exchange between NICAM's paired layers.
        if self.shape[2] > 1:
            for f, df in ((T, dT), (u, du), (v, dv), (w, dw), (p, dp)):
                df += 0.05 * (f.mean(axis=2, keepdims=True) - f)

        self.temperature = T + dt * dT
        self.wind_u = u + dt * du
        self.wind_v = v + dt * dv
        self.wind_w = w + dt * dw
        self.pressure = p + dt * dp
        self.step_index += 1

    # -- checkpoint protocol ---------------------------------------------------

    def state_arrays(self) -> dict[str, np.ndarray]:
        """The five physical quantities plus the step counter.

        The counter rides along as an int64 array so the checkpoint
        manager stores it losslessly and a restart resumes the forcing
        sequence at the right phase.
        """
        return {
            "pressure": self.pressure,
            "temperature": self.temperature,
            "wind_u": self.wind_u,
            "wind_v": self.wind_v,
            "wind_w": self.wind_w,
            "modulator": self.modulator,
            "step": np.array([self.step_index], dtype=np.int64),
        }

    def load_state_arrays(self, arrays: Mapping[str, np.ndarray]) -> None:
        missing = [n for n in (*_FIELDS, "modulator", "step") if n not in arrays]
        if missing:
            raise RestoreError(f"climate snapshot is missing arrays: {missing}")
        for name in _FIELDS:
            value = np.asarray(arrays[name], dtype=np.float64)
            if value.shape != self.shape:
                raise RestoreError(
                    f"array {name!r}: snapshot shape {value.shape} does not "
                    f"match grid {self.shape}"
                )
            setattr(self, name, value.copy())
        modulator = np.asarray(arrays["modulator"], dtype=np.float64).ravel()
        if modulator.size != 3:
            raise RestoreError(
                f"modulator must hold three values, got {modulator.size}"
            )
        self.modulator = modulator.copy()
        step = np.asarray(arrays["step"]).ravel()
        if step.size != 1:
            raise RestoreError(f"step array must hold one value, got {step.size}")
        self.step_index = int(step[0])

    # -- diagnostics -------------------------------------------------------------

    def energy_proxy(self) -> float:
        """Mean kinetic energy of the winds (bounded when stable)."""
        return float(
            np.mean(self.wind_u**2 + self.wind_v**2 + self.wind_w**2) / 2.0
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ClimateProxy(shape={self.shape}, seed={self.seed}, "
            f"step={self.step_index})"
        )
