"""Unit tests for the metrics registry and the stage taxonomy."""

from __future__ import annotations

import threading

import pytest

from repro.core.pipeline import CompressionStats, WaveletCompressor
from repro.obs import MetricsRegistry, get_registry
from repro.obs.metrics import STAGES, NullMetric, labels_suffix, stage_parent, top_level_seconds


class TestStageTaxonomy:
    def test_canonical_stages_are_top_level(self):
        for stage in STAGES:
            assert stage_parent(stage) is None

    def test_substages_map_to_backend(self):
        assert stage_parent("temp_write") == "backend"
        assert stage_parent("gzip") == "backend"
        assert stage_parent("backend.block") == "backend"

    def test_dotted_names_default_to_prefix(self):
        assert stage_parent("chunked.framing") == "chunked"

    def test_substage_excluded_when_parent_present(self):
        timings = {"backend": 2.0, "temp_write": 0.5, "gzip": 1.5}
        assert top_level_seconds(timings) == pytest.approx(2.0)

    def test_orphan_substage_still_counts(self):
        # The old hardcoded exclusion list would silently drop this cost.
        assert top_level_seconds({"temp_write": 0.5}) == pytest.approx(0.5)
        assert top_level_seconds({"gzip": 1.5, "wavelet": 1.0}) == pytest.approx(2.5)

    def test_full_pipeline_timings(self):
        timings = {s: 1.0 for s in STAGES}
        timings.update(temp_write=0.25, gzip=0.75)
        assert top_level_seconds(timings) == pytest.approx(5.0)


class TestMetricTypes:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.counter("c").inc(2.5)
        assert registry.counter("c").value == pytest.approx(3.5)

    def test_counter_rejects_decrease(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1)

    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(1.0)
        registry.gauge("g").set(7.0)
        assert registry.gauge("g").value == 7.0

    def test_histogram_summary(self):
        h = MetricsRegistry().histogram("h")
        for v in (1.0, 2.0, 3.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 3
        assert snap["min"] == 1.0
        assert snap["max"] == 3.0
        assert snap["mean"] == pytest.approx(2.0)

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="is a counter"):
            registry.gauge("x")

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("")

    def test_counter_thread_safety(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")

        def worker():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 4000


class TestLabels:
    def test_labeled_children_are_independent_series(self):
        registry = MetricsRegistry()
        registry.counter("service.submits", tenant="alice").inc()
        registry.counter("service.submits", tenant="bob").inc(2)
        registry.counter("service.submits").inc(5)
        assert registry.counter("service.submits", tenant="alice").value == 1
        assert registry.counter("service.submits", tenant="bob").value == 2
        assert registry.counter("service.submits").value == 5

    def test_full_name_is_base_plus_sorted_labels(self):
        registry = MetricsRegistry()
        metric = registry.counter("m", b="2", a="1")
        assert metric.name == "m{a=1,b=2}"
        assert metric.family == "m"
        assert metric.labels == (("a", "1"), ("b", "2"))

    def test_labels_suffix_round_trip(self):
        suffix = labels_suffix({"tenant": "alice", "op": "submit"})
        assert suffix == "{op=submit,tenant=alice}"
        metric = MetricsRegistry().counter("x.y", tenant="alice", op="submit")
        assert metric.name == "x.y" + suffix
        assert labels_suffix({}) == ""

    def test_bad_label_value_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="label value"):
            registry.counter("m", tenant="a{b}")
        with pytest.raises(ValueError, match="label key"):
            registry.counter("m", **{"bad-key": "v"})

    def test_kind_is_enforced_across_the_family(self):
        registry = MetricsRegistry()
        registry.counter("f", tenant="a")
        with pytest.raises(ValueError, match="is a counter"):
            registry.gauge("f", tenant="b")
        with pytest.raises(ValueError, match="is a counter"):
            registry.histogram("f")

    def test_snapshot_and_nested_keep_label_suffix(self):
        registry = MetricsRegistry()
        registry.counter("a.b", tenant="x").inc(3)
        assert registry.snapshot() == {"a.b{tenant=x}": 3}
        assert registry.nested() == {"a": {"b{tenant=x}": 3}}

    def test_brace_in_metric_name_rejected(self):
        with pytest.raises(ValueError, match="braces"):
            MetricsRegistry().counter("a{b}")


class TestHistogramQuantiles:
    def test_empty_histogram_quantiles_are_zero(self):
        h = MetricsRegistry().histogram("h")
        assert h.quantile(0.5) == 0.0
        assert h.quantile(0.99) == 0.0
        snap = h.snapshot()
        assert snap["p50"] == 0.0 and snap["p99"] == 0.0

    def test_single_observation_is_exact(self):
        h = MetricsRegistry().histogram("h")
        h.observe(0.037)
        for q in (0.0, 0.5, 0.95, 0.99, 1.0):
            assert h.quantile(q) == pytest.approx(0.037)

    def test_quantile_accuracy_on_uniform_data(self):
        h = MetricsRegistry().histogram("h")
        n = 1000
        for i in range(1, n + 1):
            h.observe(i / n)  # uniform on (0, 1]
        assert h.quantile(0.5) == pytest.approx(0.5, rel=0.10)
        assert h.quantile(0.95) == pytest.approx(0.95, rel=0.10)
        assert h.quantile(0.99) == pytest.approx(0.99, rel=0.10)

    def test_quantiles_clamped_to_observed_range(self):
        h = MetricsRegistry().histogram("h")
        for v in (2.0, 2.0, 2.0):
            h.observe(v)
        assert h.quantile(0.01) >= 2.0
        assert h.quantile(0.99) <= 2.0

    def test_nonpositive_observations_underflow(self):
        h = MetricsRegistry().histogram("h")
        h.observe(0.0)
        h.observe(-1.0)
        h.observe(4.0)
        assert h.count == 3
        assert h.min == -1.0
        # the underflow bucket reports 0.0 for ranks it covers
        assert h.quantile(0.1) == 0.0
        assert h.quantile(1.0) == pytest.approx(4.0, rel=0.08)


class TestPrometheus:
    def test_counter_and_gauge_families(self):
        registry = MetricsRegistry()
        registry.counter("service.submits", tenant="alice").inc(3)
        registry.counter("service.submits").inc(5)
        registry.gauge("service.shard-imbalance").set(1.25)
        text = registry.to_prometheus()
        assert "# TYPE service_submits counter" in text
        assert 'service_submits{tenant="alice"} 3' in text
        assert "\nservice_submits 5" in text
        assert "# TYPE service_shard_imbalance gauge" in text
        assert "service_shard_imbalance 1.25" in text
        assert text.endswith("\n")

    def test_histogram_renders_as_summary(self):
        registry = MetricsRegistry()
        h = registry.histogram("svc.latency", tenant="a")
        for v in (0.01, 0.02, 0.03):
            h.observe(v)
        text = registry.to_prometheus()
        assert "# TYPE svc_latency summary" in text
        assert 'svc_latency{tenant="a",quantile="0.5"}' in text
        assert 'svc_latency{tenant="a",quantile="0.99"}' in text
        assert 'svc_latency_sum{tenant="a"} 0.06' in text
        assert 'svc_latency_count{tenant="a"} 3' in text

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().to_prometheus() == ""


class TestDisable:
    def test_disabled_registry_drops_updates(self):
        registry = MetricsRegistry()
        registry.counter("kept").inc(2)
        registry.disable()
        assert not registry.enabled
        metric = registry.counter("dropped", tenant="x")
        assert isinstance(metric, NullMetric)
        metric.inc(100)
        registry.gauge("dropped.g").set(9)
        registry.histogram("dropped.h").observe(1.0)
        # existing series stay readable; nothing new was created
        assert registry.snapshot() == {"kept": 2}
        registry.enable()
        registry.counter("kept").inc()
        assert registry.counter("kept").value == 3

    def test_null_metric_absorbs_the_whole_surface(self):
        null = NullMetric()
        null.inc()
        null.set(5)
        null.observe(1.0)
        assert null.quantile(0.99) == 0.0
        assert null.snapshot() == 0.0
        assert null.value == 0.0

    def test_reset_reenables(self):
        registry = MetricsRegistry()
        registry.disable()
        registry.reset()
        assert registry.enabled
        registry.counter("a").inc()
        assert registry.snapshot() == {"a": 1}


class TestExport:
    def test_snapshot_flat(self):
        registry = MetricsRegistry()
        registry.counter("a.b").inc(2)
        registry.gauge("a.c").set(1.5)
        snap = registry.snapshot()
        assert snap == {"a.b": 2, "a.c": 1.5}

    def test_nested_folds_dotted_names(self):
        registry = MetricsRegistry()
        registry.gauge("gzip.seconds").set(1.0)
        registry.gauge("gzip_mt.4.seconds").set(0.25)
        nested = registry.nested()
        assert nested["gzip"]["seconds"] == 1.0
        assert nested["gzip_mt"]["4"]["seconds"] == 0.25

    def test_nested_leaf_and_prefix_collision(self):
        registry = MetricsRegistry()
        registry.counter("a").inc(1)
        registry.counter("a.b").inc(2)
        nested = registry.nested()
        assert nested["a"]["value"] == 1
        assert nested["a"]["b"] == 2

    def test_reset(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.reset()
        assert registry.snapshot() == {}
        assert "a" not in registry


class TestStatsBridge:
    def _stats(self, smooth2d) -> CompressionStats:
        _blob, stats = WaveletCompressor().compress_with_stats(smooth2d)
        return stats

    def test_observe_stats_writes_expected_names(self, smooth2d):
        registry = MetricsRegistry()
        stats = self._stats(smooth2d)
        registry.observe_stats(stats)
        snap = registry.snapshot()
        assert snap["pipeline.calls"] == 1
        assert snap["pipeline.bytes_in"] == stats.original_bytes
        assert snap["pipeline.bytes_out"] == stats.compressed_bytes
        assert snap["pipeline.seconds"]["count"] == 1
        for key in stats.timings:
            assert f"pipeline.stage.{key}.seconds" in snap

    def test_pipeline_records_to_global_registry(self, smooth2d):
        registry = get_registry()
        WaveletCompressor().compress_with_stats(smooth2d)
        assert registry.counter("pipeline.calls").value == 1
        WaveletCompressor().compress_with_stats(smooth2d)
        assert registry.counter("pipeline.calls").value == 2

    def test_stats_total_excludes_substage_refinements(self):
        stats = CompressionStats()
        stats.timings = {"backend": 2.0, "temp_write": 0.5, "gzip": 1.5}
        assert stats.total_compression_seconds == pytest.approx(2.0)
