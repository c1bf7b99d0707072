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
from .metrics import MetricsRegistry, get_registry
from .report import TraceReport
from .sink import JsonlSink
from .slo import SLOTracker
from .trace import get_tracer

__all__ = [
    "get_tracer",
    "MetricsRegistry",
    "get_registry",
    "SLOTracker",
    "MetricsFlusher",
    "JsonlSink",
    "TraceReport",
]
