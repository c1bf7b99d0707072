"""Unit tests for the SLO tracker: classification, burn windows, export."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.obs import MetricsRegistry, SLOTracker
from repro.obs.slo import DEFAULT_BURN_WINDOWS


class FakeClock:
    def __init__(self, start: float = 1000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _tracker(**kwargs) -> tuple[SLOTracker, FakeClock]:
    clock = FakeClock()
    kwargs.setdefault("latency_threshold_seconds", 0.1)
    kwargs.setdefault("objective", 0.995)
    return SLOTracker(clock=clock, **kwargs), clock


class TestClassification:
    def test_fast_success_is_good(self):
        slo, _ = _tracker()
        assert slo.record(0.05) is True
        assert (slo.good, slo.bad) == (1, 0)

    def test_slow_success_is_bad(self):
        slo, _ = _tracker()
        assert slo.record(0.5) is False
        assert (slo.good, slo.bad) == (0, 1)

    def test_fast_error_is_bad(self):
        slo, _ = _tracker()
        assert slo.record(0.01, error=True) is False
        assert slo.bad == 1

    def test_threshold_is_inclusive(self):
        slo, _ = _tracker()
        assert slo.record(0.1) is True


class TestValidation:
    def test_bad_threshold(self):
        with pytest.raises(ConfigurationError):
            SLOTracker(latency_threshold_seconds=0.0)

    def test_bad_objective(self):
        with pytest.raises(ConfigurationError):
            SLOTracker(objective=1.0)
        with pytest.raises(ConfigurationError):
            SLOTracker(objective=0.0)


class TestBurnRates:
    def test_no_traffic_burns_nothing(self):
        slo, _ = _tracker()
        assert slo.burn_rate(60.0) == 0.0
        status = slo.status()
        assert status["state"] == "ok"
        assert status["healthy"] is True

    def test_all_bad_burns_at_inverse_budget(self):
        slo, _ = _tracker(objective=0.99)  # budget 0.01
        for _ in range(10):
            slo.record(9.0)
        assert slo.burn_rate(60.0) == pytest.approx(100.0)

    def test_burn_flips_health_only_when_every_window_burns(self):
        slo, clock = _tracker(objective=0.99)  # windows: 60 s and 600 s
        # Old bad traffic outside the short window: only the long window
        # burns -> warn, still healthy.
        for _ in range(20):
            slo.record(9.0)
        clock.advance(100.0)
        for _ in range(20):
            slo.record(0.01)
        status = slo.status()
        short, long_ = status["windows"]
        assert not short["burning"] and long_["burning"]
        assert status["state"] == "warn"
        assert status["healthy"] is True
        # Fresh bad traffic ignites the short window too -> burning.
        for _ in range(20):
            slo.record(9.0)
        status = slo.status()
        assert all(w["burning"] for w in status["windows"])
        assert status["state"] == "burning"
        assert status["healthy"] is False

    def test_window_expiry_recovers(self):
        slo, clock = _tracker(objective=0.99)
        for _ in range(5):
            slo.record(9.0)
        assert slo.status()["state"] == "burning"
        clock.advance(700.0)
        slo.record(0.01)  # fresh good traffic; the bad aged out
        assert slo.window_counts(600.0) == (1, 0)
        assert slo.status()["state"] == "ok"

    def test_window_counts_scoped_to_window(self):
        slo, clock = _tracker()
        slo.record(0.01)
        clock.advance(120.0)
        slo.record(0.01)
        assert slo.window_counts(60.0) == (1, 0)
        assert slo.window_counts(600.0) == (2, 0)


class TestStatusAndExport:
    def test_status_shape(self):
        slo, _ = _tracker()
        slo.record(0.01)
        slo.record(9.0)
        status = slo.status()
        assert status["objective"] == 0.995
        assert status["good"] == 1 and status["bad"] == 1
        assert status["error_rate"] == pytest.approx(0.5)
        assert len(status["windows"]) == len(DEFAULT_BURN_WINDOWS)
        for window, (seconds, max_burn) in zip(
            status["windows"], DEFAULT_BURN_WINDOWS
        ):
            assert window["seconds"] == seconds
            assert window["max_burn_rate"] == max_burn

    def test_status_includes_histogram_tails(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat")
        slo, _ = _tracker(histogram=hist)
        hist.observe(0.02)
        latency = slo.status()["latency"]
        assert latency["p50"] == pytest.approx(0.02)
        assert set(latency) == {"p50", "p95", "p99"}

    def test_export_mirrors_verdict_into_gauges(self):
        registry = MetricsRegistry()
        slo, _ = _tracker(objective=0.99)
        for _ in range(4):
            slo.record(9.0)
        slo.export(registry)
        snap = registry.snapshot()
        assert snap["service.slo.healthy"] == 0.0
        assert snap["service.slo.error_rate"] == 1.0
        assert snap["service.slo.burn_rate{window=60s}"] == pytest.approx(100.0)
        assert snap["service.slo.burn_rate{window=600s}"] == pytest.approx(100.0)
