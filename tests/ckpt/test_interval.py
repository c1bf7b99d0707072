"""Unit tests for Young/Daly checkpoint interval models."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.ckpt.interval import (
    compare_compression_intervals,
    daly_interval,
    expected_runtime,
    optimal_interval_with_compression,
)
from repro.exceptions import ConfigurationError


def young(c: float, m: float) -> float:
    """Young's first-order optimum ``sqrt(2CM)``, the limit Daly refines."""
    return math.sqrt(2.0 * c * m)


class TestDaly:
    def test_close_to_young_for_small_cost(self):
        c, m = 1.0, 1e6
        assert daly_interval(c, m) == pytest.approx(young(c, m), rel=1e-2)

    def test_below_young_for_big_cost(self):
        # the -C correction bites when C is non-negligible
        assert daly_interval(500.0, 3600.0) < young(500.0, 3600.0)

    def test_degenerate_regime(self):
        assert daly_interval(250.0, 100.0) == 100.0  # C >= 2M

    def test_minimizes_expected_runtime(self):
        """Daly's tau should (approximately) minimize the full model."""
        c, r, m, work = 30.0, 15.0, 1800.0, 100000.0
        tau_opt = daly_interval(c, m)
        best = expected_runtime(work, tau_opt, c, r, m)
        for tau in np.linspace(tau_opt * 0.3, tau_opt * 3.0, 25):
            assert best <= expected_runtime(work, tau, c, r, m) * 1.01


class TestExpectedRuntime:
    def test_reduces_to_overhead_only_without_failures(self):
        # As MTBF -> infinity, wall -> work * (1 + C/tau)
        work, tau, c = 1000.0, 100.0, 10.0
        wall = expected_runtime(work, tau, c, 5.0, 1e9)
        assert wall == pytest.approx(work * (1 + c / tau), rel=1e-4)

    def test_grows_when_mtbf_shrinks(self):
        args = (1000.0, 100.0, 10.0, 5.0)
        assert expected_runtime(*args, 500.0) > expected_runtime(*args, 5000.0)

    def test_restart_cost_multiplies(self):
        base = expected_runtime(1000, 100, 10, 0.0, 500)
        with_restart = expected_runtime(1000, 100, 10, 50.0, 500)
        assert with_restart == pytest.approx(base * math.exp(50 / 500))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            expected_runtime(-1, 10, 1, 1, 100)
        with pytest.raises(ConfigurationError):
            expected_runtime(10, 10, -1, 1, 100)


def sampled_runtime(work, tau, c, r, mtbf, *, trials, seed):
    """Mean wall clock of ``trials`` sampled runs under exponential
    failures: each segment of ``tau`` work plus a checkpoint ``c`` is
    retried whenever a failure strikes it, after a restart ``r`` that a
    failure during it starts over.  Memorylessness lets every attempt draw
    a fresh time to failure."""
    rng = np.random.default_rng(seed)
    total = 0.0
    for _ in range(trials):
        wall, done = 0.0, 0.0
        while done < work:
            segment = min(tau, work - done)
            while (failure := rng.exponential(mtbf)) < segment + c:
                wall += failure
                while (failure := rng.exponential(mtbf)) < r:
                    wall += failure
                wall += r
            wall += segment + c
            done += segment
        total += wall
    return total / trials


class TestMonteCarloAgreement:
    def test_matches_daly_model(self):
        """Sampled failures and the analytic expectation agree (an
        independent check of Daly's model as implemented)."""
        work, tau, c, r, m = 2000.0, 120.0, 10.0, 20.0, 600.0
        analytic = expected_runtime(work, tau, c, r, m)
        mc = sampled_runtime(work, tau, c, r, m, trials=150, seed=42)
        assert mc == pytest.approx(analytic, rel=0.15)


class TestCompressionCoupling:
    def test_cheaper_checkpoints_mean_shorter_intervals(self):
        tau_without, tau_with = optimal_interval_with_compression(
            io_seconds=100.0,
            compression_seconds=2.0,
            compression_rate_fraction=0.19,
            mtbf=3600.0,
        )
        assert tau_with < tau_without

    def test_rate_validation(self):
        with pytest.raises(ConfigurationError):
            optimal_interval_with_compression(100, 1, 0.0, 3600)
        with pytest.raises(ConfigurationError):
            optimal_interval_with_compression(100, 1, 1.5, 3600)

    def test_comparison_saving_positive_when_compression_cheap(self):
        cmp_result = compare_compression_intervals(
            work=1_000_000.0,
            io_seconds=120.0,
            compression_seconds=3.0,
            compression_rate_fraction=0.19,
            restart_cost=60.0,
            mtbf=3600.0,
        )
        assert cmp_result.checkpoint_cost_with < cmp_result.checkpoint_cost_without
        assert cmp_result.runtime_with < cmp_result.runtime_without
        assert 0 < cmp_result.runtime_saving_fraction < 1

    def test_comparison_harmful_when_compression_expensive(self):
        cmp_result = compare_compression_intervals(
            work=1_000_000.0,
            io_seconds=1.0,
            compression_seconds=50.0,
            compression_rate_fraction=0.9,
            restart_cost=10.0,
            mtbf=3600.0,
        )
        assert cmp_result.runtime_saving_fraction < 0
