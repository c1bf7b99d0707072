"""Span-based tracing for the compression pipeline.

The paper's evaluation is built on *per-stage* measurements (Fig. 9's
wavelet/quantization/encoding/formatting/backend breakdown), and every
layer of this codebase -- chunked streams, process-pool slab workers,
thread-parallel deflate backends, the checkpoint manager -- adds a level
of nesting that a flat timings dict cannot express.  This module provides
the structured alternative: nested **spans** with monotonic start/end
clocks, parent/child links, and process/thread identity, captured by one
process-global :class:`Tracer`.

Design constraints, in order:

* **Near-zero overhead when disabled.**  ``tracer.span(...)`` on a
  disabled tracer allocates one tiny timing object and calls
  :func:`time.perf_counter` twice -- the same cost class as the
  hand-rolled ``t0 = time.perf_counter()`` blocks it replaces.  The
  returned object still reports ``duration``, so callers can feed
  :class:`~repro.core.pipeline.CompressionStats` unconditionally.
* **Thread-aware.**  The current-span stack is thread-local, so spans
  opened on different threads never interleave; work fanned out to a
  thread pool passes an explicit ``parent`` (see
  :meth:`Tracer.context`).
* **Process-aware.**  Span ids embed the producing PID, so spans
  serialized back from :class:`~concurrent.futures.ProcessPoolExecutor`
  workers (they pickle cleanly) can be :meth:`adopted <Tracer.adopt>`
  into the parent's buffer without id collisions.

Spans are plain data (``__slots__``, picklable); the tracer owns the
lifecycle: a context-manager/decorator API opens and closes them, and
finished spans go to an in-memory buffer plus any attached
:class:`~repro.obs.sink.Sink`.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Iterable, Mapping

__all__ = [
    "Span",
    "Tracer",
    "get_tracer",
    "swap_tracer",
]

#: Process-wide id sequence.  Shared by every Tracer instance so a fresh
#: tracer in a reused pool worker (one per traced slab call) can never
#: re-issue an id an earlier tracer in the same process already used;
#: the PID prefix keeps ids unique *across* processes.
_ID_SEQ = itertools.count(1)


class Span:
    """One finished-or-open unit of timed work.

    ``start``/``end`` are :func:`time.perf_counter` readings -- on Linux a
    system-wide monotonic clock, so spans from different processes on the
    same machine share a timeline.  Ids are ``"<pid-hex>-<seq>"`` strings,
    unique across the processes of one run.
    """

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "trace_id",
        "start",
        "end",
        "pid",
        "tid",
        "attrs",
    )

    def __init__(
        self,
        name: str,
        span_id: str,
        parent_id: str | None,
        trace_id: str | None,
        start: float,
        *,
        attrs: dict[str, Any] | None = None,
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.trace_id = trace_id
        self.start = start
        self.end: float | None = None
        self.pid = os.getpid()
        self.tid = threading.get_ident()
        self.attrs: dict[str, Any] = attrs or {}

    @property
    def duration(self) -> float:
        """Wall-clock seconds (0.0 while the span is still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def set(self, **attrs: Any) -> None:
        """Attach attributes to the span (sizes, names, indices, ...)."""
        self.attrs.update(attrs)

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible event (the JSONL sink's span schema)."""
        return {
            "type": "span",
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "trace_id": self.trace_id,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "pid": self.pid,
            "tid": self.tid,
            "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Span":
        span = cls(
            str(data["name"]),
            str(data["span_id"]),
            data.get("parent_id"),
            data.get("trace_id"),
            float(data["start"]),
            attrs=dict(data.get("attrs") or {}),
        )
        span.end = None if data.get("end") is None else float(data["end"])
        span.pid = int(data.get("pid", 0))
        span.tid = int(data.get("tid", 0))
        return span

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, id={self.span_id}, parent={self.parent_id}, "
            f"{self.duration * 1e3:.3f} ms)"
        )


class _NullSpan:
    """Timing-only stand-in used while tracing is disabled.

    Measures ``duration`` (the pipeline's stats need it either way) but
    has no identity and is never recorded anywhere.
    """

    __slots__ = ("start", "end")

    name = None
    span_id = None
    parent_id = None
    trace_id = None
    attrs: dict[str, Any] = {}

    def __init__(self) -> None:
        self.start = time.perf_counter()
        self.end: float | None = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.end = time.perf_counter()

    def set(self, **attrs: Any) -> None:
        """No-op (attributes are only kept on recorded spans)."""

    @property
    def duration(self) -> float:
        if self.end is None:
            return 0.0
        return self.end - self.start


class _SpanContext:
    """Context manager pairing an open :class:`Span` with its tracer."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, *exc_info: object) -> None:
        self._tracer.finish(self.span)


class Tracer:
    """Process-global span collector with a thread-local span stack."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        self._sinks: list[Any] = []
        self._local = threading.local()
        self.enabled = False

    # -- lifecycle ---------------------------------------------------------

    def enable(self, *sinks: Any) -> None:
        """Turn span recording on, optionally attaching sinks.

        Sinks receive every finished span as a dict event (see
        :meth:`Span.to_dict`) via their ``emit`` method.
        """
        with self._lock:
            self._sinks.extend(sinks)
            self.enabled = True

    def disable(self) -> None:
        """Stop recording and detach all sinks (they are not closed)."""
        with self._lock:
            self.enabled = False
            self._sinks = []

    def reset(self) -> None:
        """Drop buffered spans, sinks and the current-thread stack."""
        with self._lock:
            self.enabled = False
            self._spans = []
            self._sinks = []
        self._local.stack = []

    # -- span creation -----------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _next_id(self) -> str:
        return f"{os.getpid():x}-{next(_ID_SEQ)}"

    @staticmethod
    def _parent_ids(parent: Any) -> tuple[str | None, str | None]:
        """Normalize a parent reference to ``(parent_id, trace_id)``."""
        if parent is None or isinstance(parent, _NullSpan):
            return None, None
        if isinstance(parent, Span):
            return parent.span_id, parent.trace_id
        if isinstance(parent, Mapping):
            return parent.get("span_id"), parent.get("trace_id")
        return str(parent), None

    def start(self, name: str, *, parent: Any = None, **attrs: Any):
        """Open a span without making it the thread's current one -- for
        work that outlives the block that opens it (a checkpoint array whose
        deflate ends on another thread).  :meth:`attached` nests a block
        under it, :meth:`finish` closes it.  ``parent`` is a :class:`Span`,
        a :meth:`context` dict (cross-thread / cross-process propagation)
        or a span-id string; without it the span nests under the thread's
        current span, or becomes a trace root.
        """
        if not self.enabled:
            return _NullSpan()
        parent_id, trace_id = self._parent_ids(parent)
        stack = self._stack()
        if parent_id is None and stack:
            current = stack[-1]
            parent_id = current.span_id
            trace_id = current.trace_id
        span_id = self._next_id()
        if trace_id is None:
            trace_id = span_id if parent_id is None else None
        return Span(name, span_id, parent_id, trace_id, time.perf_counter(),
                    attrs=attrs or None)

    def span(self, name: str, *, parent: Any = None, **attrs: Any):
        """Open a span as a context manager: :meth:`start` it, make it
        current for the block, :meth:`finish` it on exit."""
        span = self.start(name, parent=parent, **attrs)
        if isinstance(span, _NullSpan):
            return span
        self._stack().append(span)
        return _SpanContext(self, span)

    @contextmanager
    def attached(self, span: Any):
        """Make an open span current on this thread for the block (a
        timing-only span from a disabled tracer is passed through)."""
        recorded = isinstance(span, Span)
        if recorded:
            self._stack().append(span)
        try:
            yield span
        finally:
            if recorded and span in self._stack():
                self._stack().remove(span)

    def finish(self, span: Any) -> None:
        """Close a span opened by :meth:`start` or :meth:`span`."""
        span.end = time.perf_counter()
        if not isinstance(span, Span):
            return
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # unbalanced exit (generator abandoned, ...)
            stack.remove(span)
        self._record(span)

    def record(
        self,
        name: str,
        start: float,
        end: float,
        *,
        parent: Any = None,
        **attrs: Any,
    ) -> Span | None:
        """Synthesize an already-finished span (e.g. from codec-internal
        timings measured without tracer involvement)."""
        if not self.enabled:
            return None
        parent_id, trace_id = self._parent_ids(parent)
        span = Span(name, self._next_id(), parent_id, trace_id, start,
                    attrs=attrs or None)
        span.end = end
        self._record(span)
        return span

    def _record(self, span: Span) -> None:
        with self._lock:
            if not self.enabled:
                return
            self._spans.append(span)
            sinks = list(self._sinks)
        for sink in sinks:
            sink.emit(span.to_dict())

    # -- propagation -------------------------------------------------------

    def context(self) -> dict[str, Any] | None:
        """Propagation handle for the current span, or ``None`` when
        tracing is disabled.  Pickles cleanly to worker processes."""
        if not self.enabled:
            return None
        stack = self._stack()
        if not stack:
            return {"trace_id": None, "span_id": None}
        current = stack[-1]
        return {"trace_id": current.trace_id, "span_id": current.span_id}

    def adopt(self, spans: Iterable[Span]) -> None:
        """Merge finished spans produced elsewhere (worker processes) into
        this tracer's buffer and sinks, preserving their order."""
        for span in spans:
            self._record(span)

    # -- inspection --------------------------------------------------------

    @property
    def spans(self) -> list[Span]:
        """A snapshot of the buffered finished spans."""
        with self._lock:
            return list(self._spans)

    def drain(self) -> list[Span]:
        """Return the buffered spans and clear the buffer."""
        with self._lock:
            spans, self._spans = self._spans, []
        return spans


_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-global tracer every instrumented module shares."""
    return _TRACER


def swap_tracer(tracer: Tracer) -> Tracer:
    """Replace the global tracer, returning the previous one.

    Worker processes use this to isolate their capture from any tracer
    state inherited across ``fork`` (an enabled parent tracer would
    otherwise share its sink file descriptors with every worker).
    """
    global _TRACER
    previous = _TRACER
    _TRACER = tracer
    return previous


