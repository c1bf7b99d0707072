"""Per-stage profiling reports built from trace streams.

Turns a span stream (a JSONL trace file, or live spans from the tracer)
into the paper's Fig. 9 shape: how much of the compression cost each
stage -- wavelet, quantization, encoding, formatting, backend -- is
responsible for, with sub-stages (``temp_write``/``gzip`` on the
temp-file path, ``backend.block`` fan-out) folded under their parent
stage.  The same schema covers a serial run, a ``workers=N`` chunked run
(worker-process spans were adopted into the parent trace) and a
``gzip-mt`` run (per-block thread spans), so one renderer serves them
all; ``repro report <trace.jsonl>`` is the CLI entry point.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from ..exceptions import FormatError
from .metrics import STAGES, stage_parent
from .sink import read_events
from .trace import Span

__all__ = ["TraceReport", "render_tree"]

_BAR_WIDTH = 40
#: Children of one span :func:`render_tree` shows before eliding the rest.
MAX_CHILDREN = 12


def _as_span_dict(span: Any) -> dict[str, Any]:
    if isinstance(span, Span):
        return span.to_dict()
    return dict(span)


class TraceReport:
    """Aggregated view over one trace: spans + optional metrics snapshots."""

    def __init__(
        self,
        spans: Iterable[Any],
        metrics: Mapping[str, Any] | None = None,
        meta: Mapping[str, Any] | None = None,
    ) -> None:
        self.spans = sorted(
            (_as_span_dict(s) for s in spans), key=lambda s: float(s.get("start") or 0.0)
        )
        self.metrics = dict(metrics or {})
        self.meta = dict(meta or {})

    # -- construction ------------------------------------------------------

    @classmethod
    def from_jsonl(cls, path: str, *more: str) -> "TraceReport":
        """Load and validate JSONL traces written by
        :class:`~repro.obs.sink.JsonlSink` (the ``repro report`` input).

        Several paths merge into one report: spans share a timeline (the
        tracer clock is process-wide monotonic), so a client-side trace
        and a server-side trace stitch into a single tree as long as the
        wire protocol propagated the trace context.
        """
        spans: list[dict[str, Any]] = []
        meta: Mapping[str, Any] | None = None
        metrics: dict[str, Any] = {}
        for one in (path, *more):
            events = read_events(one)
            if meta is None:
                meta = next((e for e in events if e.get("type") == "meta"), None)
            for event in events:
                if event.get("type") == "metrics":
                    values = event.get("values")
                    if not isinstance(values, Mapping):
                        raise FormatError(
                            f"{one}: metrics event without a 'values' object"
                        )
                    metrics.update(values)
                elif event.get("type") == "span":
                    for field in ("name", "span_id", "start"):
                        if field not in event:
                            raise FormatError(
                                f"{one}: span event is missing the "
                                f"{field!r} field"
                            )
                    spans.append(event)
        return cls(spans, metrics, meta)

    # -- aggregation -------------------------------------------------------

    def stage_breakdown(self) -> dict[str, float]:
        """Summed seconds per Fig. 9 stage, sub-stages listed separately.

        Keys are the five canonical stages (present stages only) followed
        by any sub-stage names seen (``temp_write``, ``gzip``,
        ``backend.block``); sub-stage seconds are *refinements* of their
        parent stage, not additions -- exactly the relation
        :func:`repro.obs.metrics.top_level_seconds` encodes.
        """
        totals: dict[str, float] = {}
        for span in self.spans:
            name = span.get("name")
            if name in STAGES or stage_parent(str(name)) is not None:
                totals[name] = totals.get(name, 0.0) + float(
                    span.get("duration") or 0.0
                )
        ordered: dict[str, float] = {}
        for stage in STAGES:
            if stage in totals:
                ordered[stage] = totals.pop(stage)
        for name in sorted(totals):
            ordered[name] = totals[name]
        return ordered

    def processes(self) -> list[int]:
        """Distinct PIDs that produced spans, ascending."""
        return sorted({int(s.get("pid") or 0) for s in self.spans})

    def span_count(self) -> int:
        return len(self.spans)

    def orphans(self) -> list[dict[str, Any]]:
        """Spans that *claim* a parent the trace does not contain.

        A root (``parent_id`` unset) is fine; a span pointing at a
        missing parent means a trace file is incomplete or cross-process
        propagation broke -- ``repro report --check-parentage`` fails on
        these.
        """
        ids = {s.get("span_id") for s in self.spans}
        return [
            s
            for s in self.spans
            if s.get("parent_id") is not None and s.get("parent_id") not in ids
        ]

    def cross_process_links(self) -> int:
        """Parent/child span pairs that straddle a process boundary."""
        by_id = {s.get("span_id"): s for s in self.spans if s.get("span_id")}
        count = 0
        for span in self.spans:
            parent = by_id.get(span.get("parent_id"))
            if parent is not None and parent.get("pid") != span.get("pid"):
                count += 1
        return count

    # -- rendering ---------------------------------------------------------

    def render_breakdown(self) -> str:
        """Fig. 9-style text table: seconds, share and a bar per stage."""
        breakdown = self.stage_breakdown()
        top = {k: v for k, v in breakdown.items() if stage_parent(k) not in breakdown}
        total = sum(top.values())
        lines = ["stage breakdown (paper Fig. 9)", "-" * 68]
        if not breakdown:
            lines.append("(no stage spans in this trace)")
            return "\n".join(lines)
        for name, seconds in breakdown.items():
            is_sub = stage_parent(name) in breakdown
            share = seconds / total if total > 0 else 0.0
            # Sub-stage seconds sum wall-time across concurrent threads /
            # processes, so their share can exceed 100 %; cap the bar.
            width = min(_BAR_WIDTH, max(1, int(round(share * _BAR_WIDTH))))
            bar = "#" * width if seconds else ""
            label = ("  - " + name) if is_sub else name
            lines.append(
                f"{label:<18} {seconds * 1e3:10.2f} ms  {share * 100:6.1f} %  {bar}"
            )
        lines.append("-" * 68)
        lines.append(f"{'total':<18} {total * 1e3:10.2f} ms")
        return "\n".join(lines)

    def render_summary(self) -> str:
        """One-paragraph header: span counts, processes, roots."""
        roots = [s for s in self.spans if not self._has_parent(s)]
        pids = self.processes()
        lines = [
            f"spans      : {self.span_count()} "
            f"({len(roots)} root{'s' if len(roots) != 1 else ''})",
            f"processes  : {len(pids)} ({', '.join(str(p) for p in pids)})"
            if pids else "processes  : 0",
        ]
        links = self.cross_process_links()
        if links:
            lines.append(f"stitching  : {links} cross-process parent link"
                         f"{'s' if links != 1 else ''}")
        orphans = self.orphans()
        if orphans:
            names = ", ".join(sorted({str(s.get("name")) for s in orphans})[:6])
            lines.append(
                f"orphans    : {len(orphans)} span"
                f"{'s' if len(orphans) != 1 else ''} with missing parents "
                f"({names})"
            )
        for root in roots[:8]:
            attrs = root.get("attrs") or {}
            extra = "".join(f" {k}={attrs[k]}" for k in sorted(attrs)[:4])
            lines.append(
                f"  root {root.get('name')}: "
                f"{float(root.get('duration') or 0.0) * 1e3:.2f} ms{extra}"
            )
        if len(roots) > 8:
            lines.append(f"  ... and {len(roots) - 8} more roots")
        return "\n".join(lines)

    def _has_parent(self, span: Mapping[str, Any]) -> bool:
        parent = span.get("parent_id")
        if parent is None:
            return False
        return any(s.get("span_id") == parent for s in self.spans)

    def render_tree(self) -> str:
        """Indented span tree (see :func:`render_tree`)."""
        return render_tree(self.spans)

    def render_metrics(self) -> str:
        """Flat metric lines from the trace's metrics snapshots."""
        if not self.metrics:
            return "(no metrics snapshot in this trace)"
        lines = []
        for name in sorted(self.metrics):
            value = self.metrics[name]
            if isinstance(value, Mapping):
                mean = value.get("mean")
                detail = (
                    f"count={value.get('count')} mean={mean:.6g} "
                    f"min={value.get('min'):.6g} max={value.get('max'):.6g}"
                    if value.get("count") else "count=0"
                )
                lines.append(f"{name:<40} {detail}")
            else:
                lines.append(f"{name:<40} {value:.6g}")
        return "\n".join(lines)

    def render(self, *, tree: bool = False) -> str:
        """The full human-readable report ``repro report`` prints."""
        parts = [self.render_summary(), "", self.render_breakdown()]
        if self.metrics:
            parts += ["", "metrics", "-" * 68, self.render_metrics()]
        if tree:
            parts += ["", "span tree", "-" * 68, self.render_tree()]
        return "\n".join(parts)

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible report (``repro report --json``)."""
        return {
            "span_count": self.span_count(),
            "processes": self.processes(),
            "stage_breakdown": self.stage_breakdown(),
            "metrics": self.metrics,
            "orphans": len(self.orphans()),
            "cross_process_links": self.cross_process_links(),
        }


def render_tree(spans: Iterable[Any]) -> str:
    """Render spans as an indented forest, children sorted by start time.

    Spans whose parent is absent from the set (or ``None``) are roots.
    Sibling lists longer than :data:`MAX_CHILDREN` are elided with a count
    so a 1000-chunk stream stays readable.
    """
    span_dicts = [_as_span_dict(s) for s in spans]
    by_id = {s["span_id"]: s for s in span_dicts if s.get("span_id")}
    children: dict[Any, list[dict[str, Any]]] = {}
    roots: list[dict[str, Any]] = []
    for span in span_dicts:
        parent = span.get("parent_id")
        if parent is not None and parent in by_id:
            children.setdefault(parent, []).append(span)
        else:
            roots.append(span)
    for bucket in children.values():
        bucket.sort(key=lambda s: float(s.get("start") or 0.0))
    roots.sort(key=lambda s: float(s.get("start") or 0.0))

    lines: list[str] = []

    def _walk(span: Mapping[str, Any], depth: int) -> None:
        attrs = span.get("attrs") or {}
        extra = "".join(f" {k}={attrs[k]}" for k in sorted(attrs)[:4])
        pid = span.get("pid")
        lines.append(
            f"{'  ' * depth}{span.get('name')}  "
            f"{float(span.get('duration') or 0.0) * 1e3:.3f} ms"
            f"{extra}  [pid {pid}]"
        )
        kids = children.get(span.get("span_id"), [])
        shown = kids[:MAX_CHILDREN]
        for kid in shown:
            _walk(kid, depth + 1)
        if len(kids) > len(shown):
            lines.append(f"{'  ' * (depth + 1)}... {len(kids) - len(shown)} more")

    for root in roots:
        _walk(root, 0)
    return "\n".join(lines) if lines else "(no spans)"
