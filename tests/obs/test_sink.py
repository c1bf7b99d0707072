"""Unit tests for the JSONL / memory sinks and the trace lint."""

from __future__ import annotations

import io
import json

import pytest

from repro.exceptions import FormatError
from repro.obs import JsonlSink
from repro.obs.sink import TRACE_FORMAT_VERSION, MemorySink, read_events
from repro.obs.trace import Tracer


class TestJsonlSink:
    def test_meta_line_written_on_open(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        JsonlSink(path).close()
        events = read_events(path)
        assert events == [
            {"type": "meta", "format": "repro-trace", "version": TRACE_FORMAT_VERSION}
        ]

    def test_spans_stream_to_file(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        sink = JsonlSink(path)
        tracer = Tracer()
        tracer.enable(sink)
        with tracer.span("work", nbytes=8):
            pass
        sink.close()
        events = read_events(path)
        spans = [e for e in events if e["type"] == "span"]
        assert [s["name"] for s in spans] == ["work"]
        assert spans[0]["attrs"] == {"nbytes": 8}

    def test_metrics_event(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        sink = JsonlSink(path)
        sink.emit_metrics({"pipeline.calls": 3})
        sink.close()
        events = read_events(path)
        assert events[-1] == {"type": "metrics", "values": {"pipeline.calls": 3}}

    def test_accepts_open_file_object(self):
        buf = io.StringIO()
        sink = JsonlSink(buf)
        sink.emit({"type": "span", "name": "x"})
        sink.close()
        lines = [json.loads(l) for l in buf.getvalue().splitlines()]
        assert [e["type"] for e in lines] == ["meta", "span"]

    def test_close_is_idempotent_and_emit_after_close_is_noop(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        sink = JsonlSink(path)
        sink.close()
        sink.close()
        sink.emit({"type": "span", "name": "late"})
        assert len(read_events(path)) == 1  # just the meta line


class TestMemorySink:
    def test_buffers_and_filters(self):
        sink = MemorySink()
        sink.emit({"type": "span", "name": "a", "duration": 0.5})
        sink.emit({"type": "metrics", "values": {}})
        sink.emit({"type": "span", "name": "a", "duration": 0.25})
        assert len(sink.events) == 3
        assert len(sink.spans()) == 2
        assert sink.total_seconds("a") == pytest.approx(0.75)
        assert sink.total_seconds("b") == 0.0


class TestReadEventsLint:
    def test_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "meta"}\nnot json\n')
        with pytest.raises(FormatError, match=":2"):
            read_events(str(path))

    def test_rejects_missing_type(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"name": "x"}\n')
        with pytest.raises(FormatError, match="'type'"):
            read_events(str(path))

    def test_rejects_non_object_lines(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("[1, 2]\n")
        with pytest.raises(FormatError):
            read_events(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(FormatError, match="cannot read"):
            read_events(str(tmp_path / "nope.jsonl"))

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"type": "meta"}\n\n{"type": "span", "name": "a"}\n')
        assert len(read_events(str(path))) == 2
