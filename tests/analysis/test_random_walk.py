"""Unit tests for the sqrt-growth (random walk) error model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.random_walk import (
    expected_random_walk_error,
    fit_sqrt_growth,
)
from repro.exceptions import ReproError


class TestFit:
    def test_recovers_synthetic_coefficients(self):
        steps = np.arange(721, 2221)
        truth = 0.05 + 0.02 * np.sqrt(steps - 720)
        fit = fit_sqrt_growth(steps, truth)
        assert fit.intercept == pytest.approx(0.05, abs=1e-9)
        assert fit.coeff == pytest.approx(0.02, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0)

    def test_noisy_fit_good_r2(self):
        rng = np.random.default_rng(0)
        steps = np.arange(1, 1001)
        data = 0.01 * np.sqrt(steps) + rng.normal(0, 0.005, steps.size)
        fit = fit_sqrt_growth(steps, data)
        assert fit.coeff == pytest.approx(0.01, rel=0.15)
        assert fit.r_squared > 0.7

    def test_flat_series_zero_coeff(self):
        steps = np.arange(5, 50)
        fit = fit_sqrt_growth(steps, np.full(steps.size, 3.0))
        assert fit.coeff == pytest.approx(0.0, abs=1e-9)

    def test_validation(self):
        with pytest.raises(ReproError):
            fit_sqrt_growth(np.array([1, 2]), np.array([1.0, 2.0]))
        with pytest.raises(ReproError):
            fit_sqrt_growth(np.array([1, 2, 2]), np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ReproError):
            fit_sqrt_growth(np.array([1, 2, 3]), np.array([1.0, 2.0]))


class TestExpectedError:
    def test_formula(self):
        # E|W_n| = sigma * sqrt(2n/pi)
        assert expected_random_walk_error(1.0, 100) == pytest.approx(
            np.sqrt(200 / np.pi)
        )

    def test_sqrt_scaling(self):
        e1 = expected_random_walk_error(0.5, 100)
        e4 = expected_random_walk_error(0.5, 400)
        assert e4 == pytest.approx(2 * e1)

    def test_matches_simulation(self):
        rng = np.random.default_rng(1)
        walks = rng.choice([-1.0, 1.0], size=(20000, 400)).cumsum(axis=1)
        measured = np.abs(walks[:, -1]).mean()
        assert expected_random_walk_error(1.0, 400) == pytest.approx(
            measured, rel=0.05
        )

    def test_validation(self):
        with pytest.raises(ReproError):
            expected_random_walk_error(-1.0, 10)
        with pytest.raises(ReproError):
            expected_random_walk_error(1.0, -1)
