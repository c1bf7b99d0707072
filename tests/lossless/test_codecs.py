"""Unit tests for the lossless codec layer."""

from __future__ import annotations

import tempfile

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, DecompressionError, StorageError
from repro.lossless import get_codec
from repro.lossless.base import Codec, NullCodec, register_codec
from repro.lossless.deflate import DeflateCodec
from repro.lossless.fpc import XorDeltaCodec
from repro.lossless.rle import RleCodec
from repro.lossless.tempfile_gzip import TempfileGzipCodec

from .test_modern_codecs import MAGIC as RETIRED, retired_frame

ALL_NAMES = [
    "none",
    "zlib",
    "gzip",
    "gzip-mt",
    "zlib-mt",
    "tempfile-gzip",
    "rle",
    "xor-delta",
    "zstd",
    "lz4",
]

SAMPLES = [
    b"",
    b"a",
    b"hello world" * 100,
    bytes(range(256)) * 10,
    bytes(1000),
    np.random.default_rng(3).bytes(4096),
]


def encode(codec: Codec, data: bytes) -> bytes:
    """``codec``'s stream for ``data``; a retired name only reads, so
    its stream is what its encoder wrote."""
    if codec.name in RETIRED:
        return retired_frame(codec.name, data)
    return codec.compress(data)


class TestRegistry:
    def test_builtins_registered(self):
        assert [get_codec(name).name for name in ALL_NAMES] == ALL_NAMES

    def test_get_codec(self):
        assert isinstance(get_codec("zlib"), DeflateCodec)
        assert get_codec("zlib").name == "zlib"
        assert isinstance(get_codec("none"), NullCodec)

    def test_get_codec_forwards_level(self):
        assert get_codec("zlib", level=9).level == 9

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_get_codec_drops_unsupported_kwargs(self, name):
        # The pipeline passes the full kwarg set to every backend; codecs
        # that do not take threads/block_bytes must not blow up on them.
        codec = get_codec(name, level=6, threads=2, block_bytes=1 << 16)
        assert codec.decompress(encode(codec, b"kwargs" * 64)) == b"kwargs" * 64

    def test_get_codec_forwards_threads_to_mt(self):
        codec = get_codec("gzip-mt", level=4, threads=3, block_bytes=512)
        assert (codec.level, codec.threads, codec.block_bytes) == (4, 3, 512)
        codec = get_codec("zlib-mt", threads=2)
        assert codec.threads == 2

    @pytest.mark.parametrize("knob", [{"thread": 2}, {"blok_bytes": 256}])
    def test_misspelled_knob_raises(self, knob):
        with pytest.raises(TypeError):
            get_codec("gzip-mt", **knob)

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError, match="unknown codec"):
            get_codec("lz77-imaginary")

    def test_register_requires_name(self):
        class Anon(Codec):
            def compress(self, data):  # pragma: no cover
                return data

            def decompress(self, data):  # pragma: no cover
                return data

        with pytest.raises(ConfigurationError):
            register_codec(Anon.name, lambda level, threads, block_bytes: Anon())

    def test_register_custom(self):
        class Upper(Codec):
            name = "test-upper"

            def compress(self, data):
                return data.upper()

            def decompress(self, data):
                return data.lower()

        register_codec(Upper.name, lambda level, threads, block_bytes: Upper())
        assert get_codec("test-upper").compress(b"ab") == b"AB"


@pytest.mark.parametrize("name", ALL_NAMES)
@pytest.mark.parametrize("sample", SAMPLES, ids=[f"s{i}" for i in range(len(SAMPLES))])
def test_roundtrip_every_codec(name, sample):
    codec = get_codec(name)
    assert codec.decompress(encode(codec, sample)) == sample


class TestZlibFamily:
    def test_deterministic(self):
        data = b"payload" * 50
        for name in ("zlib", "gzip"):
            assert get_codec(name).compress(data) == get_codec(name).compress(data)

    def test_compresses_redundant_data(self):
        data = bytes(10_000)
        assert len(get_codec("zlib", level=6).compress(data)) < 100

    def test_level_validation(self):
        with pytest.raises(ValueError):
            get_codec("zlib", level=10)
        with pytest.raises(ValueError):
            get_codec("gzip", level=-1)

    @pytest.mark.parametrize("name", ["zlib", "gzip", "zlib-mt", "gzip-mt"])
    def test_corrupt_stream_is_typed(self, name):
        """All four names share one decoder and one error: the serial pair
        used to leak raw ``zlib.error`` / ``OSError``."""
        blob = bytearray(get_codec(name).compress(np.random.default_rng(2).bytes(4096)))
        blob[len(blob) // 2] ^= 0xFF
        with pytest.raises(DecompressionError, match=f"corrupt {name} stream"):
            get_codec(name).decompress(bytes(blob))
        with pytest.raises(DecompressionError, match=f"corrupt {name} stream"):
            get_codec(name).decompress(b"plainly not deflate")

    def test_level_zero_stores(self):
        data = np.random.default_rng(1).bytes(1000)
        assert len(get_codec("zlib", level=0).compress(data)) >= len(data)


class TestRle:
    def test_long_run_chunked(self):
        data = b"\xaa" * 1000  # forces multiple 255-byte chunks
        codec = RleCodec()
        out = codec.compress(data)
        assert codec.decompress(out) == data
        assert len(out) < 30

    def test_alternating_worst_case(self):
        data = b"ab" * 100
        codec = RleCodec()
        out = codec.compress(data)
        assert codec.decompress(out) == data
        assert len(out) > len(data)  # RLE expands non-runs; that's the point

    def test_truncated_header(self):
        with pytest.raises(DecompressionError):
            RleCodec().decompress(b"\x01")

    def test_dangling_half_pair(self):
        good = RleCodec().compress(b"xx")
        with pytest.raises(DecompressionError):
            RleCodec().decompress(good + b"\x05")

    def test_length_mismatch(self):
        blob = bytearray(RleCodec().compress(b"abc"))
        blob[0] ^= 0xFF  # corrupt the total-length header
        with pytest.raises(DecompressionError):
            RleCodec().decompress(bytes(blob))


class TestXorDelta:
    def test_smooth_doubles_compress(self):
        data = np.linspace(0.0, 1.0, 2048).tobytes()
        codec = XorDeltaCodec()
        out = codec.compress(data)
        assert codec.decompress(out) == data
        assert len(out) < len(data)

    def test_non_multiple_of_8_tail(self):
        data = np.linspace(0, 1, 16).tobytes() + b"xyz"
        codec = XorDeltaCodec()
        assert codec.decompress(codec.compress(data)) == data

    def test_tiny_inputs(self):
        codec = XorDeltaCodec()
        for data in (b"", b"1", b"1234567", b"12345678"):
            assert codec.decompress(codec.compress(data)) == data

    def test_truncated_header(self):
        with pytest.raises(DecompressionError):
            XorDeltaCodec().decompress(b"\x00\x01")

    def test_payload_size_mismatch(self):
        good = XorDeltaCodec().compress(np.arange(4.0).tobytes())
        with pytest.raises(DecompressionError):
            XorDeltaCodec().decompress(good[:-1])

    def test_random_doubles_roundtrip(self):
        data = np.random.default_rng(9).standard_normal(333).tobytes()
        codec = XorDeltaCodec()
        assert codec.decompress(codec.compress(data)) == data


class TestTempfileGzip:
    @pytest.fixture
    def scratch(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        return tmp_path

    def test_roundtrip_and_timings(self, scratch):
        codec = TempfileGzipCodec()
        data = b"checkpoint" * 1000
        out = codec.compress(data)
        assert codec.decompress(out) == data
        assert codec.last_timings["temp_write"] > 0
        assert codec.last_timings["gzip"] > 0

    def test_scratch_cleaned_up(self, scratch):
        codec = TempfileGzipCodec()
        codec.decompress(codec.compress(b"data" * 100))
        assert list(scratch.iterdir()) == []

    def test_missing_scratch_dir(self, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", "/nonexistent/place")
        with pytest.raises(StorageError):
            TempfileGzipCodec()

    def test_matches_in_memory_gzip(self, scratch):
        data = b"same bytes" * 200
        via_files = TempfileGzipCodec().compress(data)
        assert get_codec("gzip").decompress(via_files) == data

    def test_level_validation(self, scratch):
        with pytest.raises(ValueError):
            TempfileGzipCodec(level=11)
