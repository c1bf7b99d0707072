"""Unit tests for the span tracer."""

from __future__ import annotations

import pickle
import threading

from repro.obs import get_tracer
from repro.obs.sink import MemorySink
from repro.obs.trace import Span, Tracer, _NullSpan, swap_tracer


class TestDisabled:
    def test_disabled_span_still_times(self):
        tracer = Tracer()
        with tracer.span("work") as sp:
            assert isinstance(sp, _NullSpan)
        assert sp.duration > 0.0

    def test_disabled_records_nothing(self):
        tracer = Tracer()
        with tracer.span("work"):
            pass
        assert tracer.spans == []

    def test_disabled_context_is_none(self):
        assert Tracer().context() is None

    def test_disabled_record_returns_none(self):
        assert Tracer().record("x", 0.0, 1.0) is None

    def test_null_span_set_is_noop(self):
        tracer = Tracer()
        with tracer.span("work") as sp:
            sp.set(key="value")
        assert sp.attrs == {}


class TestNesting:
    def test_child_parented_on_current_span(self):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert inner.trace_id == outer.trace_id == outer.span_id

    def test_siblings_share_parent(self):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("outer") as outer:
            with tracer.span("a") as a:
                pass
            with tracer.span("b") as b:
                pass
        assert a.parent_id == b.parent_id == outer.span_id
        assert a.span_id != b.span_id

    def test_root_without_parent(self):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("root") as root:
            pass
        assert root.parent_id is None
        assert root.trace_id == root.span_id

    def test_finish_order_innermost_first(self):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        assert [s.name for s in tracer.spans] == ["inner", "outer"]

    def test_explicit_parent_context_dict(self):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("root") as root:
            ctx = tracer.context()
        with tracer.span("adopted", parent=ctx) as sp:
            pass
        assert sp.parent_id == root.span_id
        assert sp.trace_id == root.trace_id

    def test_attrs_via_kwargs_and_set(self):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("work", nbytes=10) as sp:
            sp.set(out=3)
        assert sp.attrs == {"nbytes": 10, "out": 3}


class TestThreads:
    def test_threads_do_not_nest_into_each_other(self):
        tracer = Tracer()
        tracer.enable()
        seen = {}

        def worker(name):
            with tracer.span(name) as sp:
                seen[name] = sp

        threads = [threading.Thread(target=worker, args=(f"t{i}",)) for i in range(4)]
        with tracer.span("main"):
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        # Pool threads have their own (empty) stacks: they become roots,
        # not children of "main" on the spawning thread.
        assert all(sp.parent_id is None for sp in seen.values())

    def test_record_is_thread_safe_and_ids_unique(self):
        tracer = Tracer()
        tracer.enable()

        def worker():
            for _ in range(50):
                tracer.record("block", 0.0, 1.0)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        ids = [s.span_id for s in tracer.spans]
        assert len(ids) == 200
        assert len(set(ids)) == 200


class TestSpanData:
    def test_span_pickles(self):
        span = Span("work", "1-1", None, "1-1", 0.0, attrs={"k": 1})
        span.end = 2.0
        clone = pickle.loads(pickle.dumps(span))
        assert clone.name == "work"
        assert clone.duration == 2.0
        assert clone.attrs == {"k": 1}

    def test_dict_round_trip(self):
        span = Span("w", "a-1", "a-0", "a-0", 1.5, attrs={"n": 2})
        span.end = 2.5
        clone = Span.from_dict(span.to_dict())
        assert clone.to_dict() == span.to_dict()

    def test_open_span_duration_is_zero(self):
        assert Span("w", "1-1", None, None, 5.0).duration == 0.0


class TestAdoptAndDrain:
    def test_adopt_preserves_order_and_identity(self):
        worker = Tracer()
        worker.enable()
        with worker.span("slab", index=0):
            pass
        with worker.span("slab", index=1):
            pass
        shipped = worker.drain()
        assert worker.spans == []

        parent = Tracer()
        parent.enable()
        parent.adopt(shipped)
        assert [s.attrs["index"] for s in parent.spans] == [0, 1]

    def test_adopt_feeds_sinks(self):
        sink = MemorySink()
        tracer = Tracer()
        tracer.enable(sink)
        other = Tracer()
        other.enable()
        with other.span("remote"):
            pass
        tracer.adopt(other.drain())
        assert [e["name"] for e in sink.spans()] == ["remote"]


class TestGlobals:
    def test_swap_tracer_round_trip(self):
        original = get_tracer()
        fresh = Tracer()
        previous = swap_tracer(fresh)
        try:
            assert previous is original
            assert get_tracer() is fresh
        finally:
            swap_tracer(previous)
        assert get_tracer() is original


class TestSinks:
    def test_enable_attaches_sink(self):
        sink = MemorySink()
        tracer = Tracer()
        tracer.enable(sink)
        with tracer.span("a", size=1):
            pass
        (event,) = sink.spans()
        assert event["name"] == "a"
        assert event["attrs"] == {"size": 1}
        assert event["duration"] > 0

    def test_disable_detaches_sinks(self):
        sink = MemorySink()
        tracer = Tracer()
        tracer.enable(sink)
        tracer.disable()
        tracer.enable()
        with tracer.span("a"):
            pass
        assert sink.events == []
