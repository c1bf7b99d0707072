"""Unit tests for chunked (streaming) compression."""

from __future__ import annotations

import numpy as np
import pytest

import struct

import repro
from repro import CompressionConfig
from repro.core.chunked import (
    chunked_compress,
    chunked_compress_with_stats,
    chunked_decompress,
    inspect_chunked,
    iter_chunks,
)
from repro.core.container import CHUNK_MAGIC
from repro.core.pipeline import inspect
from repro.exceptions import CompressionError, FormatError


class TestRoundtrip:
    @pytest.mark.parametrize("chunk_rows", [1, 7, 64, 1000])
    def test_shapes(self, smooth3d, chunk_rows):
        blob = chunked_compress(smooth3d, chunk_rows=chunk_rows)
        back = chunked_decompress(blob)
        assert back.shape == smooth3d.shape
        assert repro.mean_relative_error(smooth3d, back) < 1e-2

    def test_lossless_config_tight(self, smooth3d):
        blob = chunked_compress(
            smooth3d, CompressionConfig(quantizer="none"), chunk_rows=16
        )
        np.testing.assert_allclose(
            chunked_decompress(blob), smooth3d, rtol=1e-12, atol=1e-9
        )

    def test_bounded_guarantee_survives_chunking(self, smooth3d):
        bound = 0.05
        blob = chunked_compress(
            smooth3d,
            CompressionConfig(quantizer="bounded", error_bound=bound),
            chunk_rows=10,
        )
        back = chunked_decompress(blob)
        assert float(np.abs(smooth3d - back).max()) <= bound

    def test_1d(self, rng):
        a = rng.standard_normal(500)
        back = chunked_decompress(chunked_compress(a, chunk_rows=100))
        assert back.shape == a.shape

    def test_chunk_count(self, smooth3d):
        blob = chunked_compress(smooth3d, chunk_rows=16)
        chunks = list(iter_chunks(blob))
        assert len(chunks) == (smooth3d.shape[0] + 15) // 16

    def test_single_chunk_matches_pipeline_rate_regime(self, smooth3d):
        whole = chunked_compress(smooth3d, chunk_rows=10**9)
        small = chunked_compress(smooth3d, chunk_rows=8)
        # chunking costs some rate (per-chunk headers, shallower stats)
        # but stays in the same regime
        assert len(whole) < len(small) < 3 * len(whole)

    def test_chunk_rows_larger_than_array_is_one_chunk(self, smooth2d):
        blob = chunked_compress(smooth2d, chunk_rows=smooth2d.shape[0] + 1000)
        assert len(list(iter_chunks(blob))) == 1
        back = chunked_decompress(blob)
        assert back.shape == smooth2d.shape

    def test_single_row_slabs(self, smooth2d):
        blob = chunked_compress(smooth2d, chunk_rows=1)
        assert len(list(iter_chunks(blob))) == smooth2d.shape[0]
        back = chunked_decompress(blob)
        assert back.shape == smooth2d.shape
        assert repro.mean_relative_error(smooth2d, back) < 1e-2


class TestEmptyLeadingAxis:
    """Regression: zero-row arrays must round-trip (previously raised
    ``FormatError("chunked stream holds no chunks")``)."""

    @pytest.mark.parametrize("shape", [(0, 8), (0,), (0, 3, 2)])
    def test_roundtrip_preserves_shape(self, shape):
        blob = chunked_compress(np.zeros(shape))
        back = chunked_decompress(blob)
        assert back.shape == shape
        assert back.dtype == np.float64

    def test_roundtrip_preserves_dtype(self):
        blob = chunked_compress(np.zeros((0, 4), dtype=np.float32))
        back = chunked_decompress(blob)
        assert back.shape == (0, 4)
        assert back.dtype == np.float32

    def test_header_records_zero_rows(self):
        blob = chunked_compress(np.zeros((0, 8)))
        info = inspect_chunked(blob)
        assert info["rows"] == 0
        assert info["n_chunks"] == 1  # one empty slab carries shape/dtype

    def test_legacy_zero_chunk_stream_accepted(self):
        # pre-1.1 writers emitted no chunk at all for a zero-row array
        legacy = CHUNK_MAGIC + struct.pack("<HQQ", 1, 0, 0)
        out = chunked_decompress(legacy)
        assert out.shape == (0,)

    def test_zero_chunk_stream_claiming_rows_rejected(self):
        bad = CHUNK_MAGIC + struct.pack("<HQQ", 1, 0, 17)
        with pytest.raises(FormatError, match="claims 17 rows"):
            chunked_decompress(bad)

    def test_zero_chunk_stream_with_trailing_bytes_rejected(self):
        bad = CHUNK_MAGIC + struct.pack("<HQQ", 1, 0, 0) + b"\x00"
        with pytest.raises(FormatError, match="trailing"):
            chunked_decompress(bad)


class TestWorkers:
    @pytest.mark.parametrize("workers", [2, 3])
    def test_byte_identical_to_serial(self, smooth3d, workers):
        serial = chunked_compress(smooth3d, chunk_rows=8)
        parallel = chunked_compress(smooth3d, chunk_rows=8, workers=workers)
        assert parallel == serial

    def test_byte_identical_on_empty_array(self):
        a = np.zeros((0, 6))
        assert chunked_compress(a, workers=2) == chunked_compress(a)

    def test_explicit_executor_is_borrowed_not_closed(self, smooth2d):
        from repro.parallel.executor import MultiprocessExecutor

        class Recording(MultiprocessExecutor):
            closed = False

            def close(self):
                self.closed = True

        ex = Recording(1)
        blob = chunked_compress(smooth2d, chunk_rows=16, executor=ex)
        assert not ex.closed
        assert blob == chunked_compress(smooth2d, chunk_rows=16)

    def test_bad_worker_count(self, smooth2d):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            chunked_compress(smooth2d, workers=0)


class TestStats:
    def test_aggregate_matches_stream(self, smooth3d):
        blob, stats = chunked_compress_with_stats(smooth3d, chunk_rows=8)
        assert stats.compressed_bytes == len(blob)
        assert stats.original_bytes == smooth3d.nbytes
        assert stats.n_coefficients == smooth3d.size
        # the Fig. 9 stage breakdown survives aggregation across slabs
        assert set(stats.timings) >= {
            "wavelet", "quantization", "encoding", "formatting", "backend"
        }
        assert stats.total_compression_seconds > 0

    def test_workers_report_same_sizes(self, smooth3d):
        _, serial = chunked_compress_with_stats(smooth3d, chunk_rows=8)
        _, parallel = chunked_compress_with_stats(smooth3d, chunk_rows=8, workers=2)
        assert parallel.compressed_bytes == serial.compressed_bytes
        assert parallel.n_quantized == serial.n_quantized


class TestInspect:
    def test_chunk_level_metadata(self, smooth3d):
        blob = chunked_compress(smooth3d, chunk_rows=16)
        info = inspect_chunked(blob)
        assert info["container"] == "chunked"
        assert info["n_chunks"] == (smooth3d.shape[0] + 15) // 16
        assert info["rows"] == smooth3d.shape[0]
        assert len(info["chunk_bytes"]) == info["n_chunks"]
        assert sum(info["chunk_bytes"]) < info["stream_bytes"]
        assert tuple(info["chunk_header"]["shape"])[1:] == smooth3d.shape[1:]

    def test_pipeline_inspect_dispatches(self, smooth3d):
        blob = chunked_compress(smooth3d, chunk_rows=16)
        info = inspect(blob)
        assert info["container"] == "chunked"

    def test_envelope_error_is_pointed(self, smooth2d):
        from repro.core.container import peek_header

        blob = chunked_compress(smooth2d, chunk_rows=16)
        with pytest.raises(FormatError, match="chunked stream"):
            peek_header(blob)


class TestValidation:
    def test_0d_rejected(self):
        with pytest.raises(CompressionError):
            chunked_compress(np.float64(1.0))

    def test_bad_chunk_rows(self, smooth2d):
        with pytest.raises(CompressionError):
            chunked_compress(smooth2d, chunk_rows=0)

    @pytest.mark.parametrize("chunk_rows", [2.5, True, 0])
    def test_chunk_rows_must_be_an_int(self, smooth2d, chunk_rows):
        with pytest.raises(CompressionError, match="chunk_rows must be an int >= 1"):
            chunked_compress(smooth2d, chunk_rows=chunk_rows)

    def test_bad_magic(self):
        with pytest.raises(FormatError):
            chunked_decompress(b"XXXX" + bytes(20))

    def test_truncations(self, smooth2d):
        blob = chunked_compress(smooth2d, chunk_rows=16)
        for cut in (len(blob) - 3, 10, 5):
            with pytest.raises(FormatError):
                chunked_decompress(blob[:cut])

    def test_trailing_bytes(self, smooth2d):
        blob = chunked_compress(smooth2d, chunk_rows=16)
        with pytest.raises(FormatError):
            list(iter_chunks(blob + b"\x00"))

    def test_row_count_mismatch(self, smooth2d):
        import struct

        blob = bytearray(chunked_compress(smooth2d, chunk_rows=16))
        # corrupt the recorded leading-axis length
        struct.pack_into("<Q", blob, 4 + 2 + 8, 999)
        with pytest.raises(FormatError, match="rows"):
            chunked_decompress(bytes(blob))
