"""Z-checker quality metrics and the rate-distortion sweep harness."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.quality import (
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
from repro.config import TemporalConfig
from repro.exceptions import ConfigurationError


class TestPsnr:
    def test_identical_is_infinite(self):
        a = np.linspace(0, 1, 32)
        assert psnr(a, a.copy()) == float("inf")

    def test_known_value(self):
        a = np.array([0.0, 1.0, 0.0, 1.0])  # range 1
        b = a + 0.1  # rmse 0.1
        assert psnr(a, b) == pytest.approx(20.0, abs=1e-9)

    def test_constant_field_with_error_is_minus_infinity(self):
        a = np.full(16, 3.0)
        assert psnr(a, a + 1e-3) == float("-inf")

    def test_smaller_error_scores_higher(self):
        a = np.linspace(0, 1, 64)
        assert psnr(a, a + 1e-4) > psnr(a, a + 1e-2)


class TestPointwiseAndSpectral:
    def test_max_pointwise_error(self):
        a = np.zeros(8)
        b = np.zeros(8)
        b[3] = -0.25
        assert max_pointwise_error(a, b) == 0.25

    def test_spectral_identical_is_zero(self):
        a = np.sin(np.linspace(0, 7, 128))
        assert spectral_distortion(a, a.copy()) == 0.0

    def test_spectral_catches_injected_frequency_content(self):
        x = np.linspace(0, 8 * np.pi, 256)
        clean = np.sin(x)
        # a small high-frequency ripple: tiny pointwise, clear spectrally
        ringing = clean + 0.05 * np.sin(16 * x)
        assert spectral_distortion(clean, ringing) > 0.03
        assert max_pointwise_error(clean, ringing) <= 0.05 + 1e-12

    def test_spectral_zero_reference_uses_absolute_norm(self):
        a = np.zeros(16)
        b = np.zeros(16)
        b[0] = 1.0
        assert spectral_distortion(a, b) > 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError, match="shapes differ"):
            max_pointwise_error(np.zeros(4), np.zeros(5))

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError, match="empty"):
            psnr(np.zeros(0), np.zeros(0))


class TestAutocorrelation:
    def test_identical_is_zero(self):
        a = np.cumsum(np.random.default_rng(0).standard_normal(128))
        assert autocorrelation_distortion(a, a.copy()) == 0.0

    def test_smoothing_is_detected(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal(512)  # white noise: autocorr ~ 0
        smoothed = np.convolve(a, np.ones(5) / 5, mode="same")
        assert autocorrelation_distortion(a, smoothed) > 0.3

    def test_single_element_degenerates_to_zero(self):
        assert autocorrelation_distortion(np.ones(1), np.ones(1)) == 0.0


class TestAssess:
    def test_report_fields_and_dict(self):
        a = np.linspace(0, 1, 64)
        rep = assess(a, a + 1e-3)
        assert isinstance(rep, QualityReport)
        assert rep.max_abs_error == pytest.approx(1e-3)
        d = rep.to_dict()
        assert set(d) == {
            "psnr_db",
            "max_abs_error",
            "spectral_distortion",
            "autocorrelation_distortion",
        }


class _WalkApp:
    """Minimal proxy app: one smoothly drifting field plus an int field."""

    def __init__(self, seed: int = 0):
        self._rng = np.random.default_rng(seed)
        self._field = np.cumsum(
            self._rng.standard_normal((12, 6)), axis=0
        )
        self._ticks = np.zeros(3, dtype=np.int64)

    def step(self) -> None:
        self._field = self._field + 0.01 * self._rng.standard_normal(
            self._field.shape
        )
        self._ticks += 1

    def state_arrays(self):
        return {"field": self._field, "ticks": self._ticks}


class TestSweep:
    def test_structure_bound_and_accounting(self):
        apps = {"walk": lambda: _WalkApp(3), "walk2": lambda: _WalkApp(7)}
        bounds = (1e-2, 1e-3)
        results = rate_distortion_sweep(
            apps,
            bounds,
            generations=3,
            steps_per_generation=1,
            temporal=TemporalConfig(keyframe_every=8),
        )
        assert len(results) == len(apps) * len(bounds)
        for r in results:
            assert r.app in apps
            assert r.independent.arm == "independent"
            assert r.temporal.arm == "temporal"
            # one float field, three generations, int field excluded
            assert r.independent.keyframes == 3
            assert r.temporal.keyframes + r.temporal.deltas == 3
            assert r.temporal.raw_bytes == r.independent.raw_bytes > 0
            # the contract the whole subsystem sells: bound respected,
            # PSNR above the analytic floor
            assert r.independent.worst.max_abs_error <= r.error_bound * (
                1 + 1e-6
            )
            assert r.temporal.worst.max_abs_error <= r.error_bound * (1 + 1e-6)
            assert r.temporal.worst.psnr_db >= r.psnr_floor_db
            d = r.to_dict()
            assert d["app"] == r.app
            assert d["temporal"]["stored_bytes"] == r.temporal.stored_bytes
            assert d["temporal_wins"] == r.temporal_wins

    def test_temporal_wins_on_a_drifting_field(self):
        results = rate_distortion_sweep(
            {"walk": lambda: _WalkApp(11)},
            (1e-3,),
            generations=4,
            steps_per_generation=1,
        )
        (r,) = results
        assert r.temporal.stored_bytes < r.independent.stored_bytes
        assert r.temporal_wins

    def test_invalid_generations_rejected(self):
        with pytest.raises(ConfigurationError):
            rate_distortion_sweep(
                {"walk": lambda: _WalkApp()}, (1e-3,), generations=0
            )

    def test_default_apps_scale(self):
        apps = default_quality_apps()
        assert set(apps) == {
            "heat",
            "advection",
            "nbody",
            "shallow_water",
            "climate",
        }
        small = default_quality_apps(1)["heat"]()
        big = default_quality_apps(2)["heat"]()
        small_n = sum(a.size for a in small.state_arrays().values())
        big_n = sum(a.size for a in big.state_arrays().values())
        assert big_n > small_n

    def test_arm_result_empty_rate_is_zero(self):
        arm = ArmResult(
            arm="independent",
            raw_bytes=0,
            stored_bytes=0,
            worst=QualityReport(float("inf"), 0.0, 0.0, 0.0),
            keyframes=0,
            deltas=0,
        )
        assert arm.compression_rate_percent == 0.0
