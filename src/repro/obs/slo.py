"""SLO tracking: latency/error objectives and multi-window burn rates.

The live ingest service needs an answer to "are we meeting our
objectives *right now*?" that is cheaper and steadier than eyeballing a
latency histogram.  This module implements the standard error-budget
formulation:

* every request is classified **good** or **bad** against the objective
  (an error, or a latency above the configured threshold, is bad);
* the **error budget** is ``1 - objective`` (an objective of 0.995
  tolerates 5 bad requests per 1000);
* the **burn rate** over a trailing window is the window's bad fraction
  divided by the budget -- burn 1.0 spends the budget exactly at the
  sustainable pace, burn 10 spends it 10x too fast.

Health is judged over *multiple* windows (the multiwindow burn-rate
alert from the SRE workbook): a short window with a high threshold
catches fast burns without paging on ancient history, a long window with
a lower threshold catches slow leaks without paging on blips.  The
tracker only reports **burning** (unhealthy) when every window of
:data:`DEFAULT_BURN_WINDOWS` exceeds its threshold; a subset burning
reports **warn**.

Counting is bucketed by wall-clock second in a small dict, so
:meth:`SLOTracker.record` is O(1) and the memory bound is the longest
window in seconds.  Time is injected (``clock=``) so tests are
deterministic.  The tracker is thread-safe and deliberately knows
nothing about asyncio or the service -- it is fed latencies and error
flags, and optionally reads quantiles back out of a
:class:`~repro.obs.metrics.Histogram` for its status report.
"""

from __future__ import annotations

import threading
import time
from typing import Any

from ..exceptions import ConfigurationError

__all__ = ["SLOTracker", "DEFAULT_BURN_WINDOWS"]

#: ``(window_seconds, max_burn_rate)`` pairs: a fast 60 s window that
#: must burn >= 14.4x budget and a slow 600 s window that must burn
#: >= 6x, both simultaneously, before the tracker reports unhealthy.
#: (The classic SRE thresholds, scaled to service-test time horizons.)
DEFAULT_BURN_WINDOWS: tuple[tuple[float, float], ...] = (
    (60.0, 14.4),
    (600.0, 6.0),
)


class SLOTracker:
    """Good/bad classification, windowed burn rates, a health verdict.

    Parameters
    ----------
    latency_threshold_seconds:
        Requests slower than this are *bad* even when they succeed (the
        latency objective).
    objective:
        Target good fraction in ``(0, 1)``; ``1 - objective`` is the
        error budget.
    histogram:
        Optional latency :class:`~repro.obs.metrics.Histogram` whose
        p50/p95/p99 are included in :meth:`status` (the "evaluated from
        the histograms" half of the objective report).
    clock:
        Monotonic-seconds source, injectable for deterministic tests.
    """

    def __init__(
        self,
        *,
        latency_threshold_seconds: float = 1.0,
        objective: float = 0.995,
        histogram: Any = None,
        clock=time.monotonic,
    ) -> None:
        if not latency_threshold_seconds > 0:
            raise ConfigurationError(
                f"latency_threshold_seconds must be > 0, "
                f"got {latency_threshold_seconds!r}"
            )
        if not 0.0 < objective < 1.0:
            raise ConfigurationError(
                f"objective must be in (0, 1), got {objective!r}"
            )
        self.latency_threshold_seconds = float(latency_threshold_seconds)
        self.objective = float(objective)
        self.histogram = histogram
        self._clock = clock
        self._horizon = max(s for s, _ in DEFAULT_BURN_WINDOWS)
        self._lock = threading.Lock()
        self._buckets: dict[int, list[int]] = {}  # second -> [good, bad]
        self.good = 0
        self.bad = 0

    # -- recording -----------------------------------------------------------

    def record(self, latency_seconds: float, *, error: bool = False) -> bool:
        """Classify one request; returns ``True`` when it counted good."""
        is_good = (not error) and (
            float(latency_seconds) <= self.latency_threshold_seconds
        )
        with self._lock:
            now = self._clock()
            bucket = self._buckets.setdefault(int(now), [0, 0])
            bucket[0 if is_good else 1] += 1
            if is_good:
                self.good += 1
            else:
                self.bad += 1
            self._prune(now)
        return is_good

    def _prune(self, now: float) -> None:
        floor = int(now - self._horizon) - 1
        if len(self._buckets) > self._horizon + 2:
            for second in [s for s in self._buckets if s < floor]:
                del self._buckets[second]

    # -- evaluation ----------------------------------------------------------

    def window_counts(self, seconds: float) -> tuple[int, int]:
        """``(good, bad)`` over the trailing ``seconds``."""
        with self._lock:
            now = self._clock()
            floor = now - float(seconds)
            good = bad = 0
            for second, (g, b) in self._buckets.items():
                if second >= floor:
                    good += g
                    bad += b
            return good, bad

    def burn_rate(self, seconds: float) -> float:
        """Bad fraction over the window, in units of the error budget."""
        good, bad = self.window_counts(seconds)
        total = good + bad
        if total == 0:
            return 0.0
        return (bad / total) / (1.0 - self.objective)

    def status(self) -> dict[str, Any]:
        """The health snapshot ``svc-stats`` serves.

        ``state`` is ``"ok"`` (no window burning), ``"warn"`` (some but
        not all windows burning) or ``"burning"`` (every window past its
        threshold); ``healthy`` is ``False`` only when burning.
        """
        windows = []
        burning = 0
        for seconds, max_burn in DEFAULT_BURN_WINDOWS:
            rate = self.burn_rate(seconds)
            hot = rate >= max_burn
            burning += hot
            windows.append(
                {
                    "seconds": seconds,
                    "burn_rate": rate,
                    "max_burn_rate": max_burn,
                    "burning": hot,
                }
            )
        if burning == len(windows):
            state = "burning"
        elif burning:
            state = "warn"
        else:
            state = "ok"
        total = self.good + self.bad
        out: dict[str, Any] = {
            "objective": self.objective,
            "latency_threshold_seconds": self.latency_threshold_seconds,
            "good": self.good,
            "bad": self.bad,
            "error_rate": (self.bad / total) if total else 0.0,
            "windows": windows,
            "state": state,
            "healthy": state != "burning",
        }
        if self.histogram is not None:
            out["latency"] = {
                "p50": self.histogram.quantile(0.50),
                "p95": self.histogram.quantile(0.95),
                "p99": self.histogram.quantile(0.99),
            }
        return out

    def export(self, registry: Any) -> None:
        """Mirror the verdict into gauges so scrapes see it.

        ``service.slo.healthy`` is 1/0, ``service.slo.burn_rate{window=...}``
        one gauge per window -- the Prometheus face of :meth:`status`.
        """
        status = self.status()
        registry.gauge("service.slo.healthy").set(1.0 if status["healthy"] else 0.0)
        registry.gauge("service.slo.error_rate").set(status["error_rate"])
        for window in status["windows"]:
            registry.gauge(
                "service.slo.burn_rate", window=f"{window['seconds']:g}s"
            ).set(window["burn_rate"])
