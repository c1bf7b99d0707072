"""Unit tests for failure-time distributions."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.failure.distributions import ExponentialFailures


class TestExponential:
    def test_mean_property(self):
        assert ExponentialFailures(3600.0).mean == 3600.0

    def test_sample_mean_converges(self):
        dist = ExponentialFailures(100.0)
        rng = np.random.default_rng(0)
        samples = [dist.sample(rng) for _ in range(5000)]
        assert np.mean(samples) == pytest.approx(100.0, rel=0.1)

    def test_samples_positive(self):
        dist = ExponentialFailures(10.0)
        rng = np.random.default_rng(1)
        assert all(dist.sample(rng) > 0 for _ in range(100))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ExponentialFailures(0.0)
        with pytest.raises(ConfigurationError):
            ExponentialFailures(-5.0)


class TestFailureTimes:
    def test_within_horizon_sorted(self):
        dist = ExponentialFailures(10.0)
        times = dist.failure_times(100.0, rng=0)
        assert all(0 <= t < 100.0 for t in times)
        assert times == sorted(times)

    def test_zero_horizon(self):
        assert ExponentialFailures(1.0).failure_times(0.0, rng=0) == []

    def test_negative_horizon(self):
        with pytest.raises(ConfigurationError):
            ExponentialFailures(1.0).failure_times(-1.0)

    def test_deterministic_by_seed(self):
        dist = ExponentialFailures(5.0)
        assert dist.failure_times(50.0, rng=7) == dist.failure_times(50.0, rng=7)
