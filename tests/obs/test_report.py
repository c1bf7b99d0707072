"""Unit tests for TraceReport and the tree renderer."""

from __future__ import annotations

import pytest

from repro.core.pipeline import WaveletCompressor
from repro.exceptions import FormatError
from repro.obs import JsonlSink, TraceReport, get_tracer
from repro.obs.metrics import STAGES
from repro.obs.report import MAX_CHILDREN, render_tree


def _compress_trace(tmp_path, arr, config=None):
    path = str(tmp_path / "trace.jsonl")
    tracer = get_tracer()
    sink = JsonlSink(path)
    tracer.enable(sink)
    try:
        WaveletCompressor(config).compress_with_stats(arr)
    finally:
        tracer.disable()
        sink.close()
    return path


class TestFromJsonl:
    def test_pipeline_trace_has_all_stages(self, tmp_path, smooth2d):
        report = TraceReport.from_jsonl(_compress_trace(tmp_path, smooth2d))
        breakdown = report.stage_breakdown()
        assert list(breakdown)[: len(STAGES)] == list(STAGES)
        assert all(v >= 0 for v in breakdown.values())

    def test_rejects_span_without_name(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"type": "span", "name": "a", "span_id": "1-1", "start": 0.0}\n'
            '{"type": "span", "name": "b", "span_id": "1-2"}\n'
        )
        with pytest.raises(FormatError, match="'start'"):
            TraceReport.from_jsonl(str(path))

    def test_rejects_metrics_without_values(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "metrics"}\n')
        with pytest.raises(FormatError, match="values"):
            TraceReport.from_jsonl(str(path))

    def test_unknown_event_types_ignored(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"type": "meta", "format": "repro-trace", "version": 1}\n'
                        '{"type": "future-thing", "x": 1}\n')
        assert TraceReport.from_jsonl(str(path)).span_count() == 0


class TestAggregation:
    def _span(self, name, span_id, parent_id=None, start=0.0, duration=1.0, pid=1):
        return {
            "type": "span", "name": name, "span_id": span_id,
            "parent_id": parent_id, "trace_id": "1-1", "start": start,
            "end": start + duration, "duration": duration, "pid": pid,
            "tid": 1, "attrs": {},
        }

    def test_substage_listed_after_stages(self):
        report = TraceReport([
            self._span("backend", "1-1", duration=2.0),
            self._span("backend.block", "1-2", "1-1", duration=0.5),
            self._span("wavelet", "1-3", duration=1.0),
        ])
        assert list(report.stage_breakdown()) == [
            "wavelet", "backend", "backend.block",
        ]

    def test_substage_refines_not_adds(self):
        report = TraceReport([
            self._span("backend", "1-1", duration=2.0),
            self._span("temp_write", "1-2", "1-1", duration=0.5),
            self._span("gzip", "1-3", "1-1", duration=1.5),
        ])
        text = report.render_breakdown()
        # total counts the backend bar once, not backend + its refinements
        assert "total" in text
        assert "2000.00 ms" in text

    def test_processes_sorted_unique(self):
        report = TraceReport([
            self._span("a", "1-1", pid=30),
            self._span("b", "1-2", pid=10),
            self._span("c", "1-3", pid=30),
        ])
        assert report.processes() == [10, 30]

    def test_non_stage_spans_not_in_breakdown(self):
        report = TraceReport([self._span("compress", "1-1")])
        assert report.stage_breakdown() == {}

    def test_to_dict_shape(self):
        report = TraceReport(
            [self._span("wavelet", "1-1")], metrics={"pipeline.calls": 1}
        )
        data = report.to_dict()
        assert data["span_count"] == 1
        assert data["stage_breakdown"] == {"wavelet": 1.0}
        assert data["metrics"] == {"pipeline.calls": 1}


class TestStitching:
    def _span(self, name, span_id, parent_id=None, start=0.0, pid=1):
        return {
            "type": "span", "name": name, "span_id": span_id,
            "parent_id": parent_id, "trace_id": "t-1", "start": start,
            "end": start + 1.0, "duration": 1.0, "pid": pid, "tid": 1,
            "attrs": {},
        }

    def _write(self, path, events):
        import json

        path.write_text(
            "".join(json.dumps(e, sort_keys=True) + "\n" for e in events)
        )
        return str(path)

    def test_multi_file_load_merges_spans_and_metrics(self, tmp_path):
        meta = {"type": "meta", "format": "repro-trace", "version": 1}
        client = self._write(
            tmp_path / "client.jsonl",
            [
                meta,
                self._span("svc-put", "c-1", pid=100),
                {"type": "metrics", "values": {"client.calls": 1}},
            ],
        )
        server = self._write(
            tmp_path / "server.jsonl",
            [
                meta,
                self._span("service.request", "s-1", "c-1", pid=200),
                {"type": "metrics", "values": {"service.submits": 1}},
            ],
        )
        report = TraceReport.from_jsonl(client, server)
        assert report.span_count() == 2
        assert report.processes() == [100, 200]
        assert report.metrics == {"client.calls": 1, "service.submits": 1}
        assert report.meta["format"] == "repro-trace"

    def test_cross_process_links_counted(self, tmp_path):
        report = TraceReport([
            self._span("client", "c-1", pid=100),
            self._span("server", "s-1", "c-1", pid=200),
            self._span("inner", "s-2", "s-1", pid=200),  # same-pid link
        ])
        assert report.cross_process_links() == 1
        assert report.to_dict()["cross_process_links"] == 1
        assert "stitching  : 1 cross-process parent link" in report.render_summary()

    def test_orphans_flag_missing_parents_only(self, tmp_path):
        report = TraceReport([
            self._span("root", "r-1"),
            self._span("ok-child", "r-2", "r-1"),
            self._span("lost", "r-3", "vanished"),
        ])
        orphans = report.orphans()
        assert [s["name"] for s in orphans] == ["lost"]
        assert report.to_dict()["orphans"] == 1
        assert "orphans    : 1 span with missing parents (lost)" in (
            report.render_summary()
        )

    def test_clean_stitched_trace_has_no_orphans(self, tmp_path):
        report = TraceReport([
            self._span("client", "c-1", pid=100),
            self._span("server", "s-1", "c-1", pid=200),
        ])
        assert report.orphans() == []

    def test_check_parentage_cli_gate(self, tmp_path, capsys):
        from repro.cli import main

        bad = self._write(
            tmp_path / "bad.jsonl",
            [
                {"type": "meta", "format": "repro-trace", "version": 1},
                self._span("floating", "x-1", "gone"),
            ],
        )
        assert main(["report", bad, "--check-parentage"]) == 1
        assert "floating" in capsys.readouterr().err
        good = self._write(
            tmp_path / "good.jsonl",
            [
                {"type": "meta", "format": "repro-trace", "version": 1},
                self._span("root", "x-1"),
            ],
        )
        assert main(["report", good, "--check-parentage"]) == 0


class TestRendering:
    def test_render_contains_sections(self, tmp_path, smooth2d):
        report = TraceReport.from_jsonl(_compress_trace(tmp_path, smooth2d))
        text = report.render(tree=True)
        assert "stage breakdown (paper Fig. 9)" in text
        assert "span tree" in text
        assert "compress" in text

    def test_empty_trace_renders(self):
        report = TraceReport([])
        assert "(no stage spans in this trace)" in report.render_breakdown()
        assert "(no spans)" in report.render_tree()
        assert "(no metrics snapshot in this trace)" in report.render_metrics()

    def test_tree_nests_children(self):
        spans = [
            {"type": "span", "name": "root", "span_id": "1-1", "parent_id": None,
             "start": 0.0, "duration": 3.0, "pid": 1, "attrs": {}},
            {"type": "span", "name": "kid", "span_id": "1-2", "parent_id": "1-1",
             "start": 1.0, "duration": 1.0, "pid": 1, "attrs": {}},
        ]
        text = render_tree(spans)
        lines = text.splitlines()
        assert lines[0].startswith("root")
        assert lines[1].startswith("  kid")

    def test_tree_elides_long_sibling_lists(self):
        spans = [{"type": "span", "name": "root", "span_id": "r", "parent_id": None,
                  "start": 0.0, "duration": 1.0, "pid": 1, "attrs": {}}]
        spans += [
            {"type": "span", "name": f"c{i}", "span_id": f"c-{i}", "parent_id": "r",
             "start": float(i), "duration": 0.1, "pid": 1, "attrs": {}}
            for i in range(20)
        ]
        text = render_tree(spans)
        assert f"... {20 - MAX_CHILDREN} more" in text

    def test_orphan_parent_becomes_root(self):
        spans = [{"type": "span", "name": "lost", "span_id": "1-2",
                  "parent_id": "gone", "start": 0.0, "duration": 1.0,
                  "pid": 1, "attrs": {}}]
        assert render_tree(spans).startswith("lost")
