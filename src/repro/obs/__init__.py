"""Observability layer: tracing, metrics and profiling reports.

The standing assessment framework the Z-checker line of work argues lossy
compressors need: every compress/decompress/checkpoint run feeds one
structured telemetry stream instead of ad-hoc per-script timing dicts.

* :mod:`repro.obs.trace` -- nested, thread- and process-aware spans with
  a context-manager/decorator API and near-zero disabled overhead.
* :mod:`repro.obs.metrics` -- the always-on counters/gauges/histograms
  registry plus the Fig. 9 stage taxonomy (stage parent/child relation).
* :mod:`repro.obs.sink` -- JSONL event log, in-memory sink, trace lint.
* :mod:`repro.obs.report` -- stage breakdowns and span trees
  (``repro report``).

Quickstart::

    from repro.obs import get_tracer, JsonlSink, TraceReport

    tracer = get_tracer()
    sink = JsonlSink("run.jsonl")
    tracer.enable(sink)
    ...  # any compress / chunked / checkpoint work
    tracer.disable(); sink.close()
    print(TraceReport.from_jsonl("run.jsonl").render())
"""

from __future__ import annotations

from .flush import MetricsFlusher
from .metrics import (
    STAGE_PARENT,
    STAGES,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    labels_suffix,
    stage_parent,
    top_level_seconds,
)
from .report import TraceReport, render_tree
from .sink import JsonlSink, MemorySink, Sink, read_events
from .slo import DEFAULT_BURN_WINDOWS, SLOTracker
from .trace import Span, Tracer, get_tracer, swap_tracer, traced

__all__ = [
    # trace
    "Span",
    "Tracer",
    "get_tracer",
    "swap_tracer",
    "traced",
    # metrics
    "STAGES",
    "STAGE_PARENT",
    "stage_parent",
    "top_level_seconds",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "labels_suffix",
    # slo / flushing
    "SLOTracker",
    "DEFAULT_BURN_WINDOWS",
    "MetricsFlusher",
    # sinks
    "Sink",
    "JsonlSink",
    "MemorySink",
    "read_events",
    # report
    "TraceReport",
    "render_tree",
]
