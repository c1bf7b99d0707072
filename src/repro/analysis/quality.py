"""Z-checker-style compression quality assessment (PAPERS.md).

Lossy checkpoint compression is only usable if the science survives it.
Following the Z-checker methodology, this module scores a decompressed
field against its original on four axes:

* **PSNR** -- peak signal-to-noise ratio in dB over the field's value
  range (the standard rate-distortion y-axis);
* **max pointwise error** -- the absolute worst-case deviation, the
  quantity an error *bound* promises to cap;
* **spectral distortion** -- relative L2 distance between the FFT
  amplitude spectra, catching compressors that preserve pointwise values
  while smearing frequency content;
* **autocorrelation distortion** -- largest deviation between the
  autocorrelation functions over small lags, catching artificial
  smoothing or ringing that pointwise metrics miss.

:func:`rate_distortion_sweep` drives the five proxy apps through both
compression arms -- independent bounded-quantizer blobs per generation
vs. temporal delta chains (:mod:`repro.ckpt.temporal`) -- at a ladder of
error bounds, producing the ``BENCH_quality.json`` document CI
regression-gates (see ``benchmarks/check_quality_floor.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from ..config import TemporalConfig
from ..core.errors import rmse, value_range
from ..core.pipeline import WaveletCompressor
from ..ckpt.temporal import TemporalEngine
from ..exceptions import ConfigurationError

__all__ = [
    "QualityReport",
    "psnr",
    "max_pointwise_error",
    "spectral_distortion",
    "autocorrelation_distortion",
    "assess",
    "ArmResult",
    "AppSweepResult",
    "rate_distortion_sweep",
    "default_quality_apps",
]

#: The autocorrelation axis compares lags ``1..MAX_LAG``.
MAX_LAG = 8


def _as_pair(
    original: np.ndarray, decompressed: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(original, dtype=np.float64)
    b = np.asarray(decompressed, dtype=np.float64)
    if a.shape != b.shape:
        raise ConfigurationError(
            f"original and decompressed shapes differ: {a.shape} vs {b.shape}"
        )
    if a.size == 0:
        raise ConfigurationError("cannot assess quality of an empty array")
    return a, b


def psnr(original: np.ndarray, decompressed: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB: ``20 log10(range / rmse)``.

    Identical reconstruction gives ``inf``; a constant original field
    (zero range) gives ``inf`` when exact and ``-inf`` otherwise, so a
    larger number is always better.
    """
    a, b = _as_pair(original, decompressed)
    err = rmse(a, b)
    if err == 0.0:
        return float("inf")
    rng = value_range(a)
    if rng == 0.0:
        return float("-inf")
    return float(20.0 * np.log10(rng / err))


def max_pointwise_error(original: np.ndarray, decompressed: np.ndarray) -> float:
    """Worst-case absolute deviation -- what an error bound promises to cap."""
    a, b = _as_pair(original, decompressed)
    return float(np.abs(a - b).max())


def spectral_distortion(original: np.ndarray, decompressed: np.ndarray) -> float:
    """Relative L2 distance between FFT amplitude spectra.

    ``||A - B|| / ||A||`` over the (real-input) N-dimensional amplitude
    spectra; 0 means the frequency content is untouched.  A constant-zero
    original degenerates to the absolute spectrum norm of the error.
    """
    a, b = _as_pair(original, decompressed)
    spec_a = np.abs(np.fft.rfftn(a))
    spec_b = np.abs(np.fft.rfftn(b))
    ref = float(np.linalg.norm(spec_a.ravel()))
    diff = float(np.linalg.norm((spec_a - spec_b).ravel()))
    if ref == 0.0:
        return diff
    return diff / ref


def _autocorr(x: np.ndarray, max_lag: int) -> np.ndarray:
    """Normalized autocorrelation of the flattened signal at lags 1..max_lag."""
    v = x.ravel() - x.mean()
    denom = float(np.dot(v, v))
    if denom == 0.0:
        return np.zeros(max_lag)
    out = np.empty(max_lag)
    for lag in range(1, max_lag + 1):
        out[lag - 1] = float(np.dot(v[:-lag], v[lag:])) / denom
    return out


def autocorrelation_distortion(original: np.ndarray, decompressed: np.ndarray) -> float:
    """Largest absolute deviation between autocorrelation functions.

    Compares normalized autocorrelations of the flattened fields at lags
    ``1..MAX_LAG`` -- a compressor that smooths (inflates short-lag
    correlation) or rings (deflates it) shows up here even when PSNR
    looks fine.
    """
    a, b = _as_pair(original, decompressed)
    lags = min(MAX_LAG, a.size - 1)
    if lags < 1:
        return 0.0
    return float(np.abs(_autocorr(a, lags) - _autocorr(b, lags)).max())


@dataclass(frozen=True)
class QualityReport:
    """The four Z-checker axes for one original/decompressed pair."""

    psnr_db: float
    max_abs_error: float
    spectral_distortion: float
    autocorrelation_distortion: float

    def to_dict(self) -> dict[str, float]:
        return {
            "psnr_db": self.psnr_db,
            "max_abs_error": self.max_abs_error,
            "spectral_distortion": self.spectral_distortion,
            "autocorrelation_distortion": self.autocorrelation_distortion,
        }


def assess(original: np.ndarray, decompressed: np.ndarray) -> QualityReport:
    """Score ``decompressed`` against ``original`` on all four axes."""
    return QualityReport(
        psnr_db=psnr(original, decompressed),
        max_abs_error=max_pointwise_error(original, decompressed),
        spectral_distortion=spectral_distortion(original, decompressed),
        autocorrelation_distortion=autocorrelation_distortion(original, decompressed),
    )


# -- rate-distortion sweep ------------------------------------------------------


def default_quality_apps(
    scale: int = 1,
) -> dict[str, Callable[[], Any]]:
    """Factories for the five proxy apps at sweep-friendly sizes.

    ``scale`` multiplies the leading dimension (CI runs scale 1; local
    studies can grow it).
    """
    from ..apps.advection import AdvectionProxy
    from ..apps.climate import ClimateProxy
    from ..apps.heat import HeatDiffusionProxy
    from ..apps.nbody import NBodyProxy
    from ..apps.shallow_water import ShallowWaterProxy

    return {
        "heat": lambda: HeatDiffusionProxy(shape=(16 * scale, 12, 4), seed=7),
        "advection": lambda: AdvectionProxy(shape=(16 * scale, 12, 4), seed=7),
        "nbody": lambda: NBodyProxy(n_particles=256 * scale, seed=7),
        "shallow_water": lambda: ShallowWaterProxy(shape=(24 * scale, 16), seed=7),
        "climate": lambda: ClimateProxy(shape=(24 * scale, 12, 4), seed=7),
    }


def _float_fields(state: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {
        name: np.ascontiguousarray(arr)
        for name, arr in state.items()
        if TemporalEngine.eligible(arr)
    }


@dataclass(frozen=True)
class ArmResult:
    """One compression arm (independent or temporal) of one app+bound cell."""

    arm: str
    raw_bytes: int
    stored_bytes: int
    worst: QualityReport  # worst value of each metric over all generations
    keyframes: int
    deltas: int

    @property
    def compression_rate_percent(self) -> float:
        if self.raw_bytes <= 0:
            return 0.0
        return 100.0 * self.stored_bytes / self.raw_bytes

    def to_dict(self) -> dict[str, Any]:
        return {
            "arm": self.arm,
            "raw_bytes": self.raw_bytes,
            "stored_bytes": self.stored_bytes,
            "compression_rate_percent": self.compression_rate_percent,
            "keyframes": self.keyframes,
            "deltas": self.deltas,
            "worst": self.worst.to_dict(),
        }


@dataclass(frozen=True)
class AppSweepResult:
    """Both arms of one app at one error bound."""

    app: str
    error_bound: float
    independent: ArmResult
    temporal: ArmResult
    psnr_floor_db: float  # what the bound itself guarantees for this app

    @property
    def temporal_wins(self) -> bool:
        return self.temporal.stored_bytes < self.independent.stored_bytes

    def to_dict(self) -> dict[str, Any]:
        return {
            "app": self.app,
            "error_bound": self.error_bound,
            "psnr_floor_db": self.psnr_floor_db,
            "temporal_wins": self.temporal_wins,
            "independent": self.independent.to_dict(),
            "temporal": self.temporal.to_dict(),
        }


def _worst(reports: Sequence[QualityReport]) -> QualityReport:
    return QualityReport(
        psnr_db=min(r.psnr_db for r in reports),
        max_abs_error=max(r.max_abs_error for r in reports),
        spectral_distortion=max(r.spectral_distortion for r in reports),
        autocorrelation_distortion=max(
            r.autocorrelation_distortion for r in reports
        ),
    )


def _psnr_floor(fields: Sequence[np.ndarray], error_bound: float) -> float:
    """The PSNR any bound-respecting reconstruction must beat.

    RMSE can never exceed the max error, so ``20 log10(range / eb)`` is a
    hard floor (taken over the worst field of the final generation).
    """
    floors = []
    for arr in fields:
        rng = value_range(np.asarray(arr, dtype=np.float64))
        if rng > 0:
            floors.append(20.0 * np.log10(rng / error_bound))
    return float(min(floors)) if floors else float("inf")


def rate_distortion_sweep(
    apps: Mapping[str, Callable[[], Any]] | None = None,
    error_bounds: Sequence[float] = (1e-2, 1e-3, 1e-4),
    *,
    generations: int = 8,
    steps_per_generation: int = 2,
    temporal: TemporalConfig | None = None,
) -> list[AppSweepResult]:
    """Sweep every app x bound cell through both compression arms.

    Each app advances ``steps_per_generation`` simulation steps between
    checkpoints for ``generations`` generations.  The *independent* arm
    compresses every float field of every generation with the
    bounded-quantizer pipeline; the *temporal* arm runs the same fields
    through a :class:`~repro.ckpt.temporal.TemporalEngine` chain at the
    same bound.  Decompression follows the arm's real decode path, so
    the reported quality is exactly what a restart would see.
    """
    if apps is None:
        apps = default_quality_apps()
    if generations < 1 or steps_per_generation < 1:
        raise ConfigurationError(
            "generations and steps_per_generation must be >= 1"
        )
    results: list[AppSweepResult] = []
    for app_name, factory in apps.items():
        for eb in error_bounds:
            base_temporal = temporal or TemporalConfig()
            tconf = base_temporal.replace(error_bound=float(eb))
            independent_cfg = tconf.keyframe_config()
            compressor = WaveletCompressor(independent_cfg)
            engine = TemporalEngine(tconf)

            app = factory()
            ind_stored = t_stored = raw = 0
            ind_reports: list[QualityReport] = []
            t_reports: list[QualityReport] = []
            ind_key = ind_delta = t_key = t_delta = 0
            floors: list[float] = []
            for gen in range(generations):
                for _ in range(steps_per_generation):
                    app.step()
                fields = _float_fields(app.state_arrays())
                for name, arr in fields.items():
                    raw += arr.nbytes
                    blob = compressor.compress(arr)
                    ind_stored += len(blob)
                    ind_key += 1
                    ind_reports.append(assess(arr, WaveletCompressor.decompress(blob)))
                    encoded = engine.encode(name, arr, gen)
                    t_stored += len(encoded.blob)
                    if encoded.is_keyframe:
                        t_key += 1
                    else:
                        t_delta += 1
                engine.commit(gen)
                # Score the temporal arm against its committed recons --
                # bit-identical to what a chained restore reproduces.
                for name, arr in fields.items():
                    recon = engine.committed_recon(name)
                    assert recon is not None
                    t_reports.append(assess(arr, recon))
                floors.append(_psnr_floor(list(fields.values()), eb))
            results.append(
                AppSweepResult(
                    app=app_name,
                    error_bound=float(eb),
                    psnr_floor_db=float(min(floors)) if floors else float("inf"),
                    independent=ArmResult(
                        arm="independent",
                        raw_bytes=raw,
                        stored_bytes=ind_stored,
                        worst=_worst(ind_reports),
                        keyframes=ind_key,
                        deltas=ind_delta,
                    ),
                    temporal=ArmResult(
                        arm="temporal",
                        raw_bytes=raw,
                        stored_bytes=t_stored,
                        worst=_worst(t_reports),
                        keyframes=t_key,
                        deltas=t_delta,
                    ),
                )
            )
    return results
