"""Unit tests for the command-line interface."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import build_parser, main


@pytest.fixture
def npy(tmp_path, smooth2d):
    path = tmp_path / "field.npy"
    np.save(path, smooth2d)
    return str(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0

    def test_defaults_match_paper(self):
        args = build_parser().parse_args(["evaluate", "x.npy"])
        assert args.n_bins == 128
        assert args.quantizer == "proposed"
        assert args.spike_partitions == 64

    def test_backend_thread_args(self):
        from repro.cli import _config_from_args

        args = build_parser().parse_args([
            "evaluate", "x.npy", "--backend", "gzip-mt",
            "--backend-threads", "4", "--backend-block-bytes", "65536",
        ])
        config = _config_from_args(args)
        assert config.backend == "gzip-mt"
        assert config.backend_threads == 4
        assert config.backend_block_bytes == 65536

    def test_backend_threads_default_is_auto(self):
        from repro.cli import _config_from_args
        from repro.config import DEFAULT_BACKEND_BLOCK_BYTES

        config = _config_from_args(build_parser().parse_args(["evaluate", "x.npy"]))
        assert config.backend_threads is None
        assert config.backend_block_bytes == DEFAULT_BACKEND_BLOCK_BYTES


class TestCompressDecompress:
    def test_roundtrip_via_files(self, tmp_path, npy, smooth2d, capsys):
        rpz = str(tmp_path / "field.rpz")
        out_npy = str(tmp_path / "restored.npy")
        assert main(["compress", npy, rpz]) == 0
        assert "rate" in capsys.readouterr().out
        assert main(["decompress", rpz, out_npy]) == 0
        restored = np.load(out_npy)
        assert restored.shape == smooth2d.shape

    def test_decompress_blobs_of_a_checkpoint(self, tmp_path, smooth2d):
        """``decompress`` reads each single-blob kind the manager writes: a
        lossless int64 array bit for bit, a lossy field as a restore does."""
        from repro.ckpt import CheckpointManager, DirectoryStore
        from repro.ckpt.protocol import ArrayRegistry

        counts = np.arange(60, dtype=np.int64).reshape(6, 10)
        registry = ArrayRegistry()
        registry.register("counts", counts)
        registry.register("field", smooth2d)
        with CheckpointManager(registry, DirectoryStore(str(tmp_path / "ck"))) as mgr:
            mgr.checkpoint(0)
            restored = mgr.load_arrays(0)
        for name, original in (("counts", counts), ("field", smooth2d)):
            blob = tmp_path / "ck" / "ckpt" / "0000000000" / f"{name}.bin"
            out = str(tmp_path / f"{name}.npy")
            assert main(["decompress", str(blob), out]) == 0
            decoded = np.load(out)
            assert decoded.dtype == original.dtype
            np.testing.assert_array_equal(decoded, restored[name])
            np.testing.assert_allclose(decoded, original, rtol=1e-2)
        np.testing.assert_array_equal(np.load(str(tmp_path / "counts.npy")), counts)

    def test_mt_backend_roundtrip_via_files(self, tmp_path, npy, smooth2d):
        rpz = str(tmp_path / "field.rpz")
        out_npy = str(tmp_path / "restored.npy")
        assert main([
            "compress", npy, rpz, "--backend", "gzip-mt",
            "--backend-threads", "2", "--backend-block-bytes", "4096",
        ]) == 0
        assert main(["decompress", rpz, out_npy]) == 0
        out = np.load(out_npy)
        assert out.shape == smooth2d.shape

    def test_compress_options_forwarded(self, tmp_path, npy):
        rpz = str(tmp_path / "f.rpz")
        main([
            "compress", npy, rpz,
            "--n-bins", "4", "--quantizer", "simple", "--levels", "max",
        ])
        assert main(["inspect", rpz]) == 0

    def test_inspect_prints_json(self, tmp_path, npy, smooth2d, capsys):
        rpz = str(tmp_path / "f.rpz")
        main(["compress", npy, rpz])
        capsys.readouterr()
        main(["inspect", rpz])
        header = json.loads(capsys.readouterr().out)
        assert tuple(header["shape"]) == smooth2d.shape

    def test_inspect_names_the_residual_filter_of_a_delta(self, tmp_path, capsys):
        from repro.ckpt.temporal import TemporalEngine
        from repro.config import TemporalConfig

        engine = TemporalEngine(TemporalConfig(error_bound=0.5))
        engine.encode("f", np.zeros((40, 30)), 0)
        engine.commit(0)
        base = engine.committed_recon("f")
        rng = np.random.default_rng(0)
        ramp = np.add.outer(np.arange(40.0) * 2, rng.integers(-40, 41, size=30))
        noise = rng.integers(-9, 10, size=(40, 30))
        for change, expected in (
            (ramp, {"kind": "delta", "axis": 0}),
            (noise, {"kind": "none"}),
        ):
            path = tmp_path / "delta.bin"
            path.write_bytes(engine.encode("f", base + change, 1).blob)
            capsys.readouterr()
            assert main(["inspect", str(path)]) == 0
            shown = json.loads(capsys.readouterr().out)
            assert shown["kind"] == "temporal-delta"
            assert shown["filter"] == expected


class TestWorkers:
    def test_workers_roundtrip(self, tmp_path, npy, smooth2d, capsys):
        rpz = str(tmp_path / "f.rpz")
        out_npy = str(tmp_path / "restored.npy")
        assert main(["compress", npy, rpz, "--workers", "2", "--chunk-rows", "16"]) == 0
        assert "rate" in capsys.readouterr().out
        assert main(["decompress", rpz, out_npy]) == 0
        assert np.load(out_npy).shape == smooth2d.shape

    def test_workers_write_chunked_stream(self, tmp_path, npy):
        from repro.core.container import CHUNK_MAGIC

        rpz = tmp_path / "f.rpz"
        main(["compress", npy, str(rpz), "--workers", "2", "--chunk-rows", "16"])
        assert rpz.read_bytes()[:4] == CHUNK_MAGIC

    def test_inspect_chunked_stream(self, tmp_path, npy, smooth2d, capsys):
        rpz = str(tmp_path / "f.rpz")
        main(["compress", npy, rpz, "--workers", "2", "--chunk-rows", "16"])
        capsys.readouterr()
        assert main(["inspect", rpz]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["container"] == "chunked"
        assert info["rows"] == smooth2d.shape[0]
        assert tuple(info["chunk_header"]["shape"])[1:] == smooth2d.shape[1:]

    def test_inspect_chunked_reports_size_stats(self, tmp_path, npy, capsys):
        rpz = str(tmp_path / "f.rpz")
        main(["compress", npy, rpz, "--workers", "2", "--chunk-rows", "16"])
        capsys.readouterr()
        assert main(["inspect", rpz]) == 0
        info = json.loads(capsys.readouterr().out)
        stats = info["chunk_bytes_stats"]
        sizes = info["chunk_bytes"]
        assert stats["min"] == min(sizes)
        assert stats["max"] == max(sizes)
        assert stats["total"] == sum(sizes)
        assert stats["min"] <= stats["mean"] <= stats["max"]

    def test_bad_worker_count(self, tmp_path, npy, capsys):
        assert main(["compress", npy, str(tmp_path / "f.rpz"), "--workers", "0"]) == 1
        assert "error:" in capsys.readouterr().err


class TestEvaluate:
    def test_reports_metrics(self, npy, capsys):
        assert main(["evaluate", npy]) == 0
        out = capsys.readouterr().out
        assert "compression rate" in out
        assert "mean rel. error" in out
        assert "max rel. error" in out

    def test_lossless_quantizer(self, npy, capsys):
        assert main(["evaluate", npy, "--quantizer", "none"]) == 0
        out = capsys.readouterr().out
        assert "0/" in out  # zero quantized coefficients


class TestTune:
    def test_finds_config(self, npy, capsys):
        assert main(["tune", npy, "--tolerance", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "achieved" in out

    def test_unreachable_is_an_error(self, npy, capsys):
        assert main(["tune", npy, "--tolerance", "1e-18"]) == 1
        assert "error:" in capsys.readouterr().err


class TestCheckpointCommand:
    def test_checkpoint_writes_complete_checkpoint(self, tmp_path, npy, capsys):
        ckdir = str(tmp_path / "ck")
        assert main(["checkpoint", npy, ckdir, "--step", "5"]) == 0
        assert "step 5" in capsys.readouterr().out
        assert main(["verify", ckdir]) == 0
        assert "ok" in capsys.readouterr().out

    def test_checkpoint_with_workers(self, tmp_path, npy, capsys):
        ckdir = str(tmp_path / "ck")
        assert main([
            "checkpoint", npy, ckdir, "--step", "0",
            "--workers", "2", "--chunk-rows", "16",
        ]) == 0
        assert main(["verify", ckdir]) == 0

    def test_duplicate_step_is_an_error(self, tmp_path, npy, capsys):
        ckdir = str(tmp_path / "ck")
        assert main(["checkpoint", npy, ckdir, "--step", "1"]) == 0
        assert main(["checkpoint", npy, ckdir, "--step", "1"]) == 1
        assert "error:" in capsys.readouterr().err


class TestTraceAndReport:
    def test_compress_trace_then_report(self, tmp_path, npy, capsys):
        rpz = str(tmp_path / "f.rpz")
        trace = str(tmp_path / "t.jsonl")
        assert main(["compress", npy, rpz, "--trace", trace]) == 0
        err = capsys.readouterr().err
        assert "trace written" in err
        assert main(["report", trace]) == 0
        out = capsys.readouterr().out
        assert "stage breakdown (paper Fig. 9)" in out
        for stage in ("wavelet", "quantization", "encoding", "formatting", "backend"):
            assert stage in out
        assert "pipeline.bytes_in" in out  # metrics snapshot made it in

    def test_workers_trace_includes_worker_spans(self, tmp_path, npy, capsys):
        from repro.obs import TraceReport

        rpz = str(tmp_path / "f.rpz")
        trace = str(tmp_path / "t.jsonl")
        assert main([
            "compress", npy, rpz, "--workers", "2", "--chunk-rows", "16",
            "--trace", trace,
        ]) == 0
        capsys.readouterr()
        report = TraceReport.from_jsonl(trace)
        names = {s["name"] for s in report.spans}
        assert {"chunked_compress", "slab", "compress"} <= names
        breakdown = report.stage_breakdown()
        assert set(breakdown) >= {"wavelet", "quantization", "encoding",
                                  "formatting", "backend"}

    def test_decompress_trace(self, tmp_path, npy, capsys):
        rpz = str(tmp_path / "f.rpz")
        out_npy = str(tmp_path / "o.npy")
        trace = str(tmp_path / "t.jsonl")
        main(["compress", npy, rpz])
        capsys.readouterr()
        assert main(["decompress", rpz, out_npy, "--trace", trace]) == 0
        assert main(["report", trace]) == 0
        assert "decompress" in capsys.readouterr().out

    def test_checkpoint_trace(self, tmp_path, npy, capsys):
        ckdir = str(tmp_path / "ck")
        trace = str(tmp_path / "t.jsonl")
        assert main([
            "checkpoint", npy, ckdir, "--step", "0", "--trace", trace,
        ]) == 0
        assert main(["report", trace]) == 0
        out = capsys.readouterr().out
        assert "checkpoint" in out

    def test_report_tree_and_json(self, tmp_path, npy, capsys):
        rpz = str(tmp_path / "f.rpz")
        trace = str(tmp_path / "t.jsonl")
        main(["compress", npy, rpz, "--trace", trace])
        capsys.readouterr()
        assert main(["report", trace, "--tree"]) == 0
        assert "span tree" in capsys.readouterr().out
        assert main(["report", trace, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["span_count"] > 0
        assert "stage_breakdown" in data

    def test_report_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert main(["report", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_trace_disabled_leaves_no_file(self, tmp_path, npy):
        rpz = str(tmp_path / "f.rpz")
        assert main(["compress", npy, rpz]) == 0
        assert not list(tmp_path.glob("*.jsonl"))


class TestErrorHandling:
    def test_missing_input_file(self, tmp_path, capsys):
        assert main(["evaluate", str(tmp_path / "nope.npy")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_garbage_blob(self, tmp_path, capsys):
        bad = tmp_path / "bad.rpz"
        bad.write_bytes(b"garbage")
        assert main(["decompress", str(bad), str(tmp_path / "o.npy")]) == 1
