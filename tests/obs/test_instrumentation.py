"""Integration tests: the instrumented library produces coherent traces.

The headline case is cross-process propagation (the ISSUE's satellite):
spans recorded inside ProcessPoolExecutor slab workers must come home,
nest under the parent's compress span, keep slab order and never collide
with parent span ids.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import CompressionConfig
from repro.core.chunked import chunked_compress_with_stats, chunked_decompress
from repro.core.pipeline import WaveletCompressor
from repro.obs import get_registry, get_tracer
from repro.obs.metrics import STAGES
from repro.parallel.executor import MultiprocessExecutor


def _by_name(spans, name):
    return [s for s in spans if s.name == name]


class TestPipelineSpans:
    def test_compress_emits_stage_spans_under_root(self, smooth2d):
        tracer = get_tracer()
        tracer.enable()
        WaveletCompressor().compress_with_stats(smooth2d)
        spans = tracer.spans
        (root,) = _by_name(spans, "compress")
        assert root.parent_id is None
        for stage in STAGES:
            (sp,) = _by_name(spans, stage)
            assert sp.parent_id == root.span_id
            assert sp.trace_id == root.span_id

    def test_span_durations_match_stats_timings(self, smooth2d):
        tracer = get_tracer()
        tracer.enable()
        _blob, stats = WaveletCompressor().compress_with_stats(smooth2d)
        spans = {s.name: s for s in tracer.spans}
        for stage in STAGES:
            assert stats.timings[stage] == pytest.approx(spans[stage].duration)

    def test_decompress_spans(self, smooth2d):
        blob = WaveletCompressor().compress(smooth2d)
        tracer = get_tracer()
        tracer.enable()
        WaveletCompressor.decompress(blob)
        names = {s.name for s in tracer.spans}
        assert {"decompress", "backend_inverse", "decoding", "wavelet_inverse"} <= names

    def test_tempfile_gzip_substages(self, smooth2d):
        tracer = get_tracer()
        tracer.enable()
        config = CompressionConfig(backend="tempfile-gzip")
        WaveletCompressor(config).compress_with_stats(smooth2d)
        spans = tracer.spans
        (backend,) = _by_name(spans, "backend")
        (temp_write,) = _by_name(spans, "temp_write")
        (gz,) = _by_name(spans, "gzip")
        assert temp_write.parent_id == backend.span_id
        assert gz.parent_id == backend.span_id

    def test_mt_backend_block_spans(self, smooth2d):
        tracer = get_tracer()
        tracer.enable()
        config = CompressionConfig(
            backend="gzip-mt", backend_threads=2, backend_block_bytes=4096
        )
        WaveletCompressor(config).compress_with_stats(smooth2d)
        spans = tracer.spans
        (backend,) = _by_name(spans, "backend")
        blocks = _by_name(spans, "backend.block")
        assert blocks, "no per-block spans recorded"
        assert all(b.parent_id == backend.span_id for b in blocks)
        assert all(b.attrs["codec"] == "gzip-mt" for b in blocks)

    @pytest.mark.parametrize("backend", ["gzip", "zlib", "gzip-mt", "zlib-mt"])
    def test_backend_span_says_which_strategy_coded_what(self, smooth2d, backend):
        """What codec and why: the deflate family's stored / Huffman-only /
        LZ77 split of the body is on the pipeline's ``backend`` span."""
        tracer = get_tracer()
        tracer.enable()
        config = CompressionConfig(backend=backend, backend_threads=2)
        _blob, stats = WaveletCompressor(config).compress_with_stats(smooth2d)
        (span,) = _by_name(tracer.spans, "backend")
        attrs = span.attrs
        strategies = ("stored", "huffman", "rle", "lz77")
        assert sum(attrs[f"{s}_segments"] for s in strategies) >= 1
        assert sum(attrs[f"{s}_in_bytes"] for s in strategies) == stats.formatted_bytes
        assert 0 < sum(attrs[f"{s}_out_bytes"] for s in strategies) < stats.compressed_bytes

    def test_other_backends_report_no_strategy_split(self, smooth2d):
        tracer = get_tracer()
        tracer.enable()
        WaveletCompressor(CompressionConfig(backend="rle")).compress(smooth2d)
        (span,) = _by_name(tracer.spans, "backend")
        assert "lz77_segments" not in span.attrs

    def test_disabled_tracer_records_nothing_but_stats_still_timed(self, smooth2d):
        tracer = get_tracer()
        assert not tracer.enabled
        _blob, stats = WaveletCompressor().compress_with_stats(smooth2d)
        assert tracer.spans == []
        assert stats.total_compression_seconds > 0
        assert set(STAGES) <= stats.timings.keys()

    def test_bounded_quantizer_residual_attr(self, smooth2d):
        tracer = get_tracer()
        tracer.enable()
        config = CompressionConfig(quantizer="bounded", error_bound=0.5)
        WaveletCompressor(config).compress_with_stats(smooth2d)
        (quant,) = _by_name(tracer.spans, "quantization")
        if "max_residual" in quant.attrs:  # only when something quantized
            assert quant.attrs["max_residual"] <= 0.5


class TestChunkedSpans:
    def test_serial_chunked_tree(self, smooth2d):
        tracer = get_tracer()
        tracer.enable()
        chunked_compress_with_stats(smooth2d, chunk_rows=16)
        spans = tracer.spans
        (root,) = _by_name(spans, "chunked_compress")
        slabs = _by_name(spans, "slab")
        assert len(slabs) == 3  # 48 rows / 16
        assert all(s.parent_id == root.span_id for s in slabs)
        (framing,) = _by_name(spans, "framing")
        assert framing.parent_id == root.span_id
        compresses = _by_name(spans, "compress")
        assert {c.parent_id for c in compresses} == {s.span_id for s in slabs}

    def test_chunked_decompress_span(self, smooth2d):
        blob, _ = chunked_compress_with_stats(smooth2d, chunk_rows=16)
        tracer = get_tracer()
        tracer.enable()
        chunked_decompress(blob)
        (root,) = _by_name(tracer.spans, "chunked_decompress")
        inner = _by_name(tracer.spans, "decompress")
        assert len(inner) == 3
        assert all(s.trace_id == root.span_id for s in inner)


class TestProcessPoolPropagation:
    """The satellite: worker spans come home across the process boundary."""

    def _traced_run(self, arr, workers=2, chunk_rows=16):
        tracer = get_tracer()
        tracer.enable()
        with MultiprocessExecutor(workers) as executor:
            blob, stats = chunked_compress_with_stats(
                arr, chunk_rows=chunk_rows, executor=executor
            )
        if executor.fallback_reason is not None:  # pool-less sandboxes
            pytest.skip(f"process pool unavailable: {executor.fallback_reason}")
        return blob, stats, tracer.spans

    def test_worker_spans_nest_under_parent_root(self, smooth2d):
        _blob, _stats, spans = self._traced_run(smooth2d)
        (root,) = _by_name(spans, "chunked_compress")
        slabs = _by_name(spans, "slab")
        assert len(slabs) == 3
        # Every slab span was produced in a worker process, parented on
        # the root span captured in the parent process.
        assert all(s.parent_id == root.span_id for s in slabs)
        assert all(s.trace_id == root.span_id for s in slabs)
        assert any(s.pid != root.pid for s in slabs), (
            "expected at least one slab span from a worker process"
        )
        # The full pipeline ran inside each slab span.
        compresses = _by_name(spans, "compress")
        assert {c.parent_id for c in compresses} == {s.span_id for s in slabs}
        for stage in STAGES:
            assert len(_by_name(spans, stage)) == 3

    def test_adopted_spans_keep_slab_order(self, smooth2d):
        _blob, _stats, spans = self._traced_run(smooth2d)
        indices = [s.attrs["index"] for s in _by_name(spans, "slab")]
        assert indices == sorted(indices) == [0, 1, 2]

    def test_no_duplicate_span_ids_across_processes(self, smooth2d):
        _blob, _stats, spans = self._traced_run(smooth2d)
        ids = [s.span_id for s in spans]
        assert len(ids) == len(set(ids))

    def test_traced_pool_bytes_match_untraced(self, smooth2d):
        baseline, _ = chunked_compress_with_stats(smooth2d, chunk_rows=16)
        blob, _stats, _spans = self._traced_run(smooth2d)
        assert blob == baseline

    def test_pool_records_executor_metrics(self, smooth2d):
        registry = get_registry()
        self._traced_run(smooth2d)
        snap = registry.snapshot()
        assert snap["executor.slabs"] == 3
        assert snap["executor.pool_runs"] == 1
        assert snap["executor.workers"] == 2
        assert 0 < snap["executor.utilization"] <= 1.0 + 1e-9
        # Worker stats were folded in parent-side exactly once per slab.
        assert snap["pipeline.calls"] == 3
        assert snap["pipeline.bytes_in"] == smooth2d.nbytes

    def test_untraced_pool_still_records_metrics(self, smooth2d):
        registry = get_registry()
        with MultiprocessExecutor(2) as executor:
            chunked_compress_with_stats(smooth2d, chunk_rows=16, executor=executor)
        if executor.fallback_reason is not None:
            pytest.skip(f"process pool unavailable: {executor.fallback_reason}")
        assert registry.snapshot()["executor.slabs"] == 3
        assert get_tracer().spans == []

    def test_pool_failure_discards_partial_trace(self, smooth2d):
        class BrokenPool:
            def __init__(self, max_workers):
                pass

            def submit(self, fn, *args):
                raise RuntimeError("boom")

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        tracer = get_tracer()
        tracer.enable()
        executor = MultiprocessExecutor(2, _pool_factory=BrokenPool)
        blob, _stats = chunked_compress_with_stats(
            smooth2d, chunk_rows=16, executor=executor
        )
        assert executor.fallback_reason is not None
        # The serial fallback re-ran everything: exactly one coherent set
        # of slab spans, no leftovers from the failed pool attempt.
        slabs = _by_name(tracer.spans, "slab")
        assert [s.attrs["index"] for s in slabs] == [0, 1, 2]
        baseline, _ = chunked_compress_with_stats(smooth2d, chunk_rows=16)
        assert blob == baseline


class TestCheckpointSpans:
    def test_checkpoint_and_restore_trees(self, tmp_path, smooth2d):
        from repro.ckpt.manager import CheckpointManager
        from repro.ckpt.protocol import ArrayRegistry
        from repro.ckpt.store import DirectoryStore

        registry = ArrayRegistry()
        registry.register("field", smooth2d)
        registry.register("counts", np.arange(10, dtype=np.int64))
        manager = CheckpointManager(registry, DirectoryStore(str(tmp_path / "s")))

        tracer = get_tracer()
        tracer.enable()
        manager.checkpoint(0)
        spans = tracer.spans
        (root,) = _by_name(spans, "checkpoint")
        arrays = _by_name(spans, "ckpt.array")
        assert {a.attrs["array"] for a in arrays} == {"field", "counts"}
        assert {a.attrs["mode"] for a in arrays} == {"lossy", "lossless"}
        assert all(a.parent_id == root.span_id for a in arrays)
        # the manifest write now sits inside the two-phase commit span
        (commit,) = _by_name(spans, "ckpt.commit")
        assert commit.parent_id == root.span_id
        (manifest,) = _by_name(spans, "ckpt.manifest_write")
        assert manifest.parent_id == commit.span_id
        assert root.attrs["n_arrays"] == 2

        tracer.reset()
        tracer.enable()
        manager.restore(0)
        spans = tracer.spans
        (root,) = _by_name(spans, "restore")
        loads = _by_name(spans, "ckpt.array_load")
        assert {a.attrs["array"] for a in loads} == {"field", "counts"}
        assert all(a.trace_id == root.span_id for a in loads)

    def test_checkpoint_metrics(self, tmp_path, smooth2d):
        from repro.ckpt.manager import CheckpointManager
        from repro.ckpt.protocol import ArrayRegistry
        from repro.ckpt.store import DirectoryStore

        arrays = ArrayRegistry()
        arrays.register("field", smooth2d)
        manager = CheckpointManager(arrays, DirectoryStore(str(tmp_path / "s")))
        manifest = manager.checkpoint(3)
        manager.restore(3)
        snap = get_registry().snapshot()
        assert snap["ckpt.checkpoints"] == 1
        assert snap["ckpt.arrays"] == 1
        assert snap["ckpt.raw_bytes"] == smooth2d.nbytes
        assert snap["ckpt.stored_bytes"] == manifest.total_stored_bytes
        assert snap["ckpt.restores"] == 1

    def test_temporal_generation_says_which_filter_and_counts_it(self):
        """What codec and why: a delta's ``ckpt.array`` span names the
        residual filter next to ``temporal_reason``, and the
        ``ckpt.temporal.filter{kind}`` family counts every delta written
        (keyframes hold no residual and count nowhere)."""
        from repro.ckpt.manager import CheckpointManager
        from repro.ckpt.protocol import ArrayRegistry
        from repro.ckpt.store import MemoryStore
        from repro.config import TemporalConfig

        rng = np.random.default_rng(3)
        # smooth down the rows, a jump from every column to the next
        smooth = np.rint(
            np.sin(np.arange(60.0) / 7.0)[:, None] * 20 + rng.uniform(-40, 40, 30)
        )
        noise = rng.integers(-9, 10, size=(60, 30)).astype(float)
        arrays = ArrayRegistry()
        arrays.register("smooth", np.zeros((60, 30)))
        arrays.register("noisy", np.zeros((60, 30)))
        manager = CheckpointManager(
            arrays, MemoryStore(), temporal=TemporalConfig(error_bound=0.5)
        )
        tracer = get_tracer()
        tracer.enable()
        manager.checkpoint(0)
        for step in (1, 2):
            np.copyto(arrays.get("smooth"), smooth * step)
            np.copyto(arrays.get("noisy"), noise * step)
            manager.checkpoint(step)
        by_step: dict[str, list] = {"smooth": [], "noisy": []}
        for span in _by_name(tracer.spans, "ckpt.array"):
            by_step[span.attrs["array"]].append(span.attrs)
        assert [a["temporal_reason"] for a in by_step["smooth"]] == [
            "initial", "delta", "delta",
        ]
        assert "filter" not in by_step["smooth"][0]
        assert [a["filter"] for a in by_step["smooth"][1:]] == ["delta:0"] * 2
        assert [a["filter"] for a in by_step["noisy"][1:]] == ["none"] * 2
        registry = get_registry()
        assert registry.counter("ckpt.temporal.filter", kind="delta").value == 2
        assert registry.counter("ckpt.temporal.filter", kind="none").value == 2
        manifest = manager.read_manifest(2)
        assert manifest.entry("smooth").codec_params["filter"] == {
            "kind": "delta", "axis": 0,
        }
        assert manifest.entry("noisy").codec_params["filter"] == {"kind": "none"}
