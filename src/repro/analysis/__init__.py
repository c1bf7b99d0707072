"""Experiment drivers and reporting helpers."""

from .distribution import (
    BandDistribution,
    high_band_distribution,
    render_histogram,
)
from .drift import DriftResult, error_drift_experiment, lossy_roundtrip_state
from .quality import (
    AppSweepResult,
    ArmResult,
    QualityReport,
    assess,
    autocorrelation_distortion,
    default_quality_apps,
    max_pointwise_error,
    psnr,
    rate_distortion_sweep,
    spectral_distortion,
)
from .random_walk import SqrtFit, expected_random_walk_error, fit_sqrt_growth
from .tables import render_bars, render_series, render_table

__all__ = [
    "BandDistribution",
    "high_band_distribution",
    "render_histogram",
    "DriftResult",
    "error_drift_experiment",
    "lossy_roundtrip_state",
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
    "SqrtFit",
    "fit_sqrt_growth",
    "expected_random_walk_error",
    "render_table",
    "render_series",
    "render_bars",
]
