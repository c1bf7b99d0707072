"""Metrics registry: counters, gauges and histograms for the pipeline.

Where :mod:`repro.obs.trace` answers "what happened, when, inside what?",
this module answers "how much, in total?": bytes in/out per stage,
quantized fraction, backend throughput, worker utilization -- the
aggregates every BENCH_*.json and CI comparison reads.  One process-global
:class:`MetricsRegistry` is always on; recording a metric is a dict lookup
plus a lock-guarded float update, invisible next to a wavelet transform.

Metrics may carry **labels** (``registry.counter("service.submits",
tenant="alice")``): each base name owns one *family* of children, one per
distinct label set, all sharing the family's kind.  A labeled child's
full name is ``base{k=v,...}`` with keys sorted, which keeps
:meth:`MetricsRegistry.snapshot` flat and JSONL-friendly;
:meth:`MetricsRegistry.to_prometheus` renders the same families in the
Prometheus text exposition format for scrape-style consumers.

:class:`Histogram` is a streaming summary: alongside count/total/min/max
it maintains log-scaled buckets (about 7 % relative width) so p50/p95/p99
are answerable at any time without storing observations.

The module also owns the **stage taxonomy**: the paper's Fig. 9 stage
names and the parent/child relation between a stage and its sub-stages
(``temp_write``/``gzip`` split the ``backend`` bar on the temp-file path).
:func:`top_level_seconds` derives "which timings sum to the total" from
that relation instead of a hardcoded exclusion list, so new sub-stages can
never be double-counted into
:attr:`~repro.core.pipeline.CompressionStats.total_compression_seconds`.
"""

from __future__ import annotations

import math
import re
import threading
from typing import Any, Mapping

__all__ = [
    "STAGES",
    "STAGE_PARENT",
    "stage_parent",
    "top_level_seconds",
    "labels_suffix",
    "Counter",
    "Gauge",
    "Histogram",
    "NullMetric",
    "MetricsRegistry",
    "get_registry",
]

#: The paper's Fig. 9 stage legend, in pipeline order.
STAGES = ("wavelet", "quantization", "encoding", "formatting", "backend")

#: Sub-stage -> enclosing stage.  A timing key whose parent is also
#: present in a timings dict is a *refinement* of that parent, not an
#: additional cost.
STAGE_PARENT: dict[str, str] = {
    "temp_write": "backend",
    "gzip": "backend",
    "backend.block": "backend",
}


def stage_parent(name: str) -> str | None:
    """The enclosing stage of a (sub-)stage name, or ``None`` for a
    top-level stage.  Dotted names default to their prefix."""
    parent = STAGE_PARENT.get(name)
    if parent is not None:
        return parent
    if "." in name:
        return name.rsplit(".", 1)[0]
    return None


def top_level_seconds(timings: Mapping[str, float]) -> float:
    """Sum the timings that are not refinements of another present key.

    ``{"backend": 2.0, "temp_write": 0.5, "gzip": 1.5}`` sums to 2.0 (the
    sub-stages split the backend bar); a lone ``{"temp_write": 0.5}``
    sums to 0.5 (nothing encloses it, so dropping it would lose cost).
    """
    return float(
        sum(v for k, v in timings.items() if stage_parent(k) not in timings)
    )


# -- labels -----------------------------------------------------------------

#: Label keys are identifier-like; values share the conservative alphabet
#: tenant/shard names already use, so the ``base{k=v,...}`` encoding needs
#: no escaping and stays grep-able in flat snapshots.
_LABEL_KEY_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_LABEL_VALUE_RE = re.compile(r"^[A-Za-z0-9._/ -]*$")


def labels_suffix(labels: Mapping[str, Any]) -> str:
    """Canonical ``{k=v,...}`` suffix (keys sorted), ``""`` when empty."""
    if not labels:
        return ""
    items = []
    for key in sorted(labels):
        value = str(labels[key])
        if not _LABEL_KEY_RE.match(key):
            raise ValueError(
                f"label key must match {_LABEL_KEY_RE.pattern}, got {key!r}"
            )
        if not _LABEL_VALUE_RE.match(value):
            raise ValueError(
                f"label value must match {_LABEL_VALUE_RE.pattern}, got {value!r}"
            )
        items.append(f"{key}={value}")
    return "{" + ",".join(items) + "}"


class Counter:
    """Monotonically increasing value (bytes processed, calls made)."""

    __slots__ = ("name", "family", "labels", "_value", "_lock")

    kind = "counter"

    def __init__(
        self,
        name: str,
        family: str | None = None,
        labels: tuple[tuple[str, str], ...] = (),
    ) -> None:
        self.name = name
        self.family = family if family is not None else name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease ({amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> float:
        return self._value


class Gauge:
    """Last-write-wins value (worker count, utilization, residual)."""

    __slots__ = ("name", "family", "labels", "_value", "_lock")

    kind = "gauge"

    def __init__(
        self,
        name: str,
        family: str | None = None,
        labels: tuple[tuple[str, str], ...] = (),
    ) -> None:
        self.name = name
        self.family = family if family is not None else name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> float:
        return self._value


#: Bucket-boundary growth factor of the streaming histogram.  Buckets at
#: ``GROWTH**i`` give every quantile estimate a relative error bounded by
#: ``sqrt(GROWTH) - 1`` (~7 %) before clamping to the observed min/max.
_GROWTH = 1.15
_LOG_GROWTH = math.log(_GROWTH)

#: Quantiles every snapshot reports (p50/p95/p99).
QUANTILES = (0.5, 0.95, 0.99)


class Histogram:
    """Streaming summary plus log-bucket quantiles of observations.

    Stores no individual observations: values land in log-scaled buckets
    (``_GROWTH``-spaced boundaries; values <= 0 share one underflow
    bucket), so :meth:`quantile` answers p50/p95/p99 at any time from a
    few dozen integers.  Estimates are clamped to the observed
    ``[min, max]``, which makes the edge cases exact by construction: an
    empty histogram reports ``0.0`` for every quantile (never a raise or
    a NaN), and a single-observation histogram reports exactly that
    observation.
    """

    __slots__ = (
        "name",
        "family",
        "labels",
        "count",
        "total",
        "min",
        "max",
        "_underflow",
        "_buckets",
        "_lock",
    )

    kind = "histogram"

    def __init__(
        self,
        name: str,
        family: str | None = None,
        labels: tuple[tuple[str, str], ...] = (),
    ) -> None:
        self.name = name
        self.family = family if family is not None else name
        self.labels = labels
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self._underflow = 0  # observations <= 0 (or non-finite lows)
        self._buckets: dict[int, int] = {}
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self.total += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value
            if value > 0.0 and value == value and value != float("inf"):
                idx = int(math.floor(math.log(value) / _LOG_GROWTH))
                self._buckets[idx] = self._buckets.get(idx, 0) + 1
            else:
                self._underflow += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile of everything observed so far.

        Always well defined: ``0.0`` on an empty histogram, the exact
        value on a single-observation histogram, and otherwise a bucket
        estimate within ~7 % relative error, clamped to ``[min, max]``.
        """
        with self._lock:
            return self._quantile_locked(q)

    def _quantile_locked(self, q: float) -> float:
        if self.count == 0:
            return 0.0
        q = min(1.0, max(0.0, float(q)))
        rank = max(1, math.ceil(q * self.count))
        cumulative = self._underflow
        if cumulative >= rank:
            estimate = 0.0
        else:
            estimate = self.max if self.max is not None else 0.0
            for idx in sorted(self._buckets):
                cumulative += self._buckets[idx]
                if cumulative >= rank:
                    # geometric midpoint of the bucket [G**i, G**(i+1))
                    estimate = _GROWTH ** (idx + 0.5)
                    break
        lo = self.min if self.min is not None else estimate
        hi = self.max if self.max is not None else estimate
        return min(max(estimate, lo), hi)

    def snapshot(self) -> dict[str, float | int | None]:
        with self._lock:
            return {
                "count": self.count,
                "total": self.total,
                "min": self.min,
                "max": self.max,
                "mean": self.mean,
                "p50": self._quantile_locked(0.50),
                "p95": self._quantile_locked(0.95),
                "p99": self._quantile_locked(0.99),
            }


class NullMetric:
    """Inert stand-in for every metric kind while a registry is disabled.

    Accepts the whole Counter/Gauge/Histogram surface and drops it, so
    instrumented code runs unchanged at (near) zero cost -- the
    telemetry-off baseline the service benchmark compares against.
    """

    __slots__ = ()

    kind = "null"
    name = ""
    family = ""
    labels: tuple[tuple[str, str], ...] = ()
    count = 0
    total = 0.0
    min: float | None = None
    max: float | None = None
    mean = 0.0
    value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def quantile(self, q: float) -> float:
        return 0.0

    def snapshot(self) -> float:
        return 0.0


_NULL_METRIC = NullMetric()

_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Named metric families, get-or-create, thread-safe.

    Metric names are dotted paths (``pipeline.stage.backend.seconds``);
    :meth:`nested` folds them into nested dicts for JSON artifacts.
    Keyword labels select a child of the name's family
    (``counter("service.submits", tenant="alice")``); every child of one
    family shares its kind, and the unlabeled child (no keywords) is just
    the family's own series, so pre-label call sites are unchanged.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, Any] = {}
        self._kinds: dict[str, str] = {}  # family base name -> kind
        self._enabled = True

    @property
    def enabled(self) -> bool:
        return self._enabled

    def disable(self) -> None:
        """Drop every subsequent update: lookups return a shared
        :class:`NullMetric`, skipping name/label validation entirely.
        This is the telemetry-off baseline the overhead gate measures
        instrumented code against; existing metrics stay readable."""
        self._enabled = False

    def enable(self) -> None:
        """Resume recording after :meth:`disable`."""
        self._enabled = True

    def _get(self, name: str, kind: str, labels: Mapping[str, Any]) -> Any:
        if not self._enabled:
            return _NULL_METRIC
        if not isinstance(name, str) or not name:
            raise ValueError(f"metric name must be a non-empty str, got {name!r}")
        if "{" in name or "}" in name:
            raise ValueError(
                f"metric name must not contain braces (labels are keyword "
                f"arguments), got {name!r}"
            )
        suffix = labels_suffix(labels)
        full = name + suffix
        with self._lock:
            known = self._kinds.get(name)
            if known is None:
                self._kinds[name] = kind
            elif known != kind:
                raise ValueError(
                    f"metric {name!r} is a {known}, requested as {kind}"
                )
            metric = self._metrics.get(full)
            if metric is None:
                label_items = tuple(
                    (k, str(labels[k])) for k in sorted(labels)
                )
                metric = self._metrics[full] = _KINDS[kind](
                    full, name, label_items
                )
            return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(name, "counter", labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(name, "gauge", labels)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        return self._get(name, "histogram", labels)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    def reset(self) -> None:
        with self._lock:
            self._metrics = {}
            self._kinds = {}
            self._enabled = True

    # -- export ------------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Flat ``{dotted-name: value-or-summary}`` of every metric."""
        with self._lock:
            metrics = list(self._metrics.values())
        return {m.name: m.snapshot() for m in sorted(metrics, key=lambda m: m.name)}

    def nested(self) -> dict[str, Any]:
        """Dotted names folded into nested dicts (BENCH json shape).

        A name that is both a leaf and a prefix of deeper names keeps the
        leaf value under the ``"value"`` key of the shared node.  A label
        suffix stays attached to the leaf key (label values may contain
        dots, so only the base name is folded).
        """
        root: dict[str, Any] = {}
        for name, value in self.snapshot().items():
            base, brace, labels = name.partition("{")
            node = root
            parts = base.split(".")
            if brace:
                parts[-1] = parts[-1] + brace + labels
            for part in parts[:-1]:
                child = node.get(part)
                if not isinstance(child, dict):
                    child = {} if child is None else {"value": child}
                    node[part] = child
                node = child
            leaf = parts[-1]
            if isinstance(node.get(leaf), dict):
                node[leaf]["value"] = value
            else:
                node[leaf] = value
        return root

    def to_prometheus(self) -> str:
        """The registry in the Prometheus text exposition format.

        Dots and dashes in names become underscores; histograms render as
        ``summary`` families (``{quantile="0.99"}`` samples plus ``_sum``
        and ``_count``), which is how streaming quantiles are spelled in
        that format.  This is the payload of the ``metrics`` wire op and
        ``repro-ckpt svc-metrics``.
        """
        with self._lock:
            metrics = list(self._metrics.values())
            kinds = dict(self._kinds)
        by_family: dict[str, list[Any]] = {}
        for metric in metrics:
            by_family.setdefault(metric.family, []).append(metric)
        lines: list[str] = []
        for family in sorted(by_family):
            kind = kinds.get(family, by_family[family][0].kind)
            pname = _prom_name(family)
            ptype = "summary" if kind == "histogram" else kind
            lines.append(f"# TYPE {pname} {ptype}")
            for metric in sorted(by_family[family], key=lambda m: m.name):
                if kind == "histogram":
                    snap = metric.snapshot()
                    for q in QUANTILES:
                        labels = _prom_labels(
                            metric.labels + (("quantile", f"{q:g}"),)
                        )
                        value = snap[f"p{int(q * 100)}"]
                        lines.append(f"{pname}{labels} {_prom_value(value)}")
                    suffix = _prom_labels(metric.labels)
                    lines.append(
                        f"{pname}_sum{suffix} {_prom_value(snap['total'])}"
                    )
                    lines.append(f"{pname}_count{suffix} {snap['count']}")
                else:
                    labels = _prom_labels(metric.labels)
                    lines.append(f"{pname}{labels} {_prom_value(metric.value)}")
        return "\n".join(lines) + ("\n" if lines else "")

    # -- pipeline integration ----------------------------------------------

    def observe_stats(self, stats: Any) -> None:
        """Fold one :class:`~repro.core.pipeline.CompressionStats` into the
        registry's ``pipeline.*`` series (the typed-stats <-> registry
        bridge).
        """
        self.counter("pipeline.calls").inc()
        self.counter("pipeline.bytes_in").inc(stats.original_bytes)
        self.counter("pipeline.bytes_out").inc(stats.compressed_bytes)
        self.counter("pipeline.formatted_bytes").inc(stats.formatted_bytes)
        self.counter("pipeline.coefficients").inc(stats.n_coefficients)
        self.counter("pipeline.quantized").inc(stats.n_quantized)
        for key, seconds in stats.timings.items():
            self.counter(f"pipeline.stage.{key}.seconds").inc(max(0.0, seconds))
        self.histogram("pipeline.seconds").observe(stats.total_compression_seconds)
        if stats.n_coefficients:
            self.histogram("pipeline.quantized_fraction").observe(
                stats.quantized_fraction
            )
        mb_s = stats.backend_mb_s
        if mb_s == mb_s and mb_s not in (float("inf"), float("-inf")):  # finite
            self.histogram("pipeline.backend_mb_s").observe(mb_s)


_PROM_BAD = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    return _PROM_BAD.sub("_", name)


def _prom_labels(items: tuple[tuple[str, str], ...]) -> str:
    if not items:
        return ""
    body = ",".join(f'{k}="{v}"' for k, v in items)
    return "{" + body + "}"


def _prom_value(value: Any) -> str:
    return format(float(value), ".10g")


_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global always-on registry."""
    return _REGISTRY
