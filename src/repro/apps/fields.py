"""Synthetic smooth-field generators.

The compressor's effectiveness rests on one statistical property of
scientific mesh data (paper Section II-C): neighbouring values differ
little, so Haar high-frequency coefficients concentrate in a narrow spike
around zero.  These generators produce fields with a controllable degree of
that smoothness -- superpositions of low-wavenumber cosine modes, optional
linear trends, layered vertical profiles and white-noise contamination --
used by the test suite, the benchmarks and the proxy applications.

Every generator takes an explicit ``numpy.random.Generator`` (or seed) so
results are reproducible.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ConfigurationError

__all__ = [
    "as_rng",
    "smooth_field",
    "layered_field",
    "trend_field",
    "rough_field",
    "nicam_like_variables",
    "NICAM_SHAPE",
]

#: The paper's NICAM array shape: 1156 horizontal cells x 82 vertical
#: levels x 2 (inner/outer halo slabs), ~1.5 MB per double array.
NICAM_SHAPE = (1156, 82, 2)

#: Cosine modes :func:`smooth_field` sums.
SMOOTH_MODES = 6
#: Largest per-axis wavenumber :func:`smooth_field` draws; small values
#: mean smoother fields.
MAX_WAVENUMBER = 4


def as_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Coerce a seed or Generator into a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _check_shape(shape: tuple[int, ...]) -> tuple[int, ...]:
    shape = tuple(int(s) for s in shape)
    if not shape or any(s < 1 for s in shape):
        raise ConfigurationError(f"field shape must be non-empty positive, got {shape}")
    return shape


def smooth_field(
    shape: tuple[int, ...],
    rng: int | np.random.Generator | None = None,
    *,
    amplitude: float = 1.0,
    offset: float = 0.0,
    noise: float = 0.0,
) -> np.ndarray:
    """Superposition of :data:`SMOOTH_MODES` random cosine modes, per-axis
    wavenumbers drawn from ``[0, MAX_WAVENUMBER]``.

    Parameters
    ----------
    amplitude, offset:
        The field is scaled to roughly ``offset +- amplitude``.
    noise:
        Standard deviation of additive white noise *relative to amplitude*
        (0 = perfectly smooth); lets tests dial smoothness continuously.
    """
    shape = _check_shape(shape)
    gen = as_rng(rng)
    coords = [np.linspace(0.0, 1.0, s, endpoint=False) for s in shape]
    out = np.zeros(shape, dtype=np.float64)
    for _ in range(SMOOTH_MODES):
        k = gen.integers(0, MAX_WAVENUMBER + 1, size=len(shape))
        phase = gen.uniform(0.0, 2.0 * np.pi)
        weight = gen.uniform(0.3, 1.0)
        arg = np.zeros(shape, dtype=np.float64)
        for ax, (kk, c) in enumerate(zip(k, coords)):
            sl = [None] * len(shape)
            sl[ax] = slice(None)
            arg = arg + 2.0 * np.pi * kk * c[tuple(sl)]
        out += weight * np.cos(arg + phase)
    peak = np.abs(out).max()
    if peak > 0:
        out *= amplitude / peak
    if noise > 0:
        out += gen.standard_normal(shape) * (noise * amplitude)
    return out + offset


def layered_field(
    shape: tuple[int, ...],
    rng: int | np.random.Generator | None = None,
    *,
    axis: int = 1,
    top: float = 1.0,
    bottom: float = 0.0,
    perturbation: float = 0.05,
) -> np.ndarray:
    """A vertically stratified field (atmosphere-like profile along ``axis``).

    Linear profile from ``bottom`` to ``top`` along the chosen axis plus a
    small smooth perturbation -- the typical structure of pressure and
    temperature columns.
    """
    shape = _check_shape(shape)
    if not -len(shape) <= axis < len(shape):
        raise ConfigurationError(f"axis {axis} out of range for shape {shape}")
    axis %= len(shape)
    gen = as_rng(rng)
    profile = np.linspace(bottom, top, shape[axis])
    sl = [None] * len(shape)
    sl[axis] = slice(None)
    base = np.broadcast_to(profile[tuple(sl)], shape).copy()
    span = abs(top - bottom) or 1.0
    base += smooth_field(shape, gen, amplitude=perturbation * span)
    return base


def trend_field(
    shape: tuple[int, ...],
    gradients: tuple[float, ...],
    *,
    offset: float = 0.0,
) -> np.ndarray:
    """Deterministic multi-linear ramp: ``offset + sum_ax g_ax * x_ax``.

    Useful for exactness tests: a Haar transform of a linear ramp has
    piecewise-constant high bands, so quantization errors are analytically
    predictable.
    """
    shape = _check_shape(shape)
    if len(gradients) != len(shape):
        raise ConfigurationError(
            f"need one gradient per axis ({len(shape)}), got {len(gradients)}"
        )
    out = np.full(shape, float(offset), dtype=np.float64)
    for ax, g in enumerate(gradients):
        coord = np.linspace(0.0, 1.0, shape[ax])
        sl = [None] * len(shape)
        sl[ax] = slice(None)
        out = out + float(g) * coord[tuple(sl)]
    return out


def rough_field(
    shape: tuple[int, ...],
    rng: int | np.random.Generator | None = None,
    *,
    amplitude: float = 1.0,
) -> np.ndarray:
    """Pure white noise -- the adversarial case where lossy compression of
    high bands buys little and gzip of doubles buys nothing."""
    shape = _check_shape(shape)
    return as_rng(rng).standard_normal(shape) * amplitude


def nicam_like_variables(
    shape: tuple[int, ...] = NICAM_SHAPE,
    rng: int | np.random.Generator | None = 0,
) -> dict[str, np.ndarray]:
    """The paper's five checkpointed physical quantities, synthesized.

    Pressure, temperature and the three wind components with realistic
    magnitudes and smooth spatial structure (pressure/temperature
    stratified in the vertical, winds zero-mean).  Used wherever the paper
    says "the other arrays".
    """
    gen = as_rng(rng)
    return {
        "pressure": layered_field(
            shape, gen, axis=1, top=250.0, bottom=1000.0, perturbation=0.02
        ),
        "temperature": layered_field(
            shape, gen, axis=1, top=220.0, bottom=295.0, perturbation=0.03
        ),
        "wind_u": smooth_field(shape, gen, amplitude=25.0, noise=0.002),
        "wind_v": smooth_field(shape, gen, amplitude=20.0, noise=0.002),
        "wind_w": smooth_field(shape, gen, amplitude=2.0, noise=0.002),
    }
