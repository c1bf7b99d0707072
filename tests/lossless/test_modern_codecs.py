"""The retired ``zstd`` / ``lz4`` backends: decode-only readers of their frames.

Neither native wheel was ever installed where these backends ran, so every
``RPZS`` / ``RPL4`` stream they wrote holds zlib blocks (inner coder 2) in a
private frame.  The names stay registered to read those streams -- through
the one block-frame reader that also reads the legacy ``zlib-mt`` frame --
and refuse to write.  :func:`retired_frame` rebuilds what the retired
encoder wrote; ``RETIRED_BACKEND_BLOBS_B64`` holds blobs it really wrote.
"""

from __future__ import annotations

import base64
import struct
import zlib
from functools import partial

import numpy as np
import pytest

from repro.config import CompressionConfig
from repro.core import container
from repro.core.pipeline import WaveletCompressor
from repro.exceptions import ConfigurationError, DecompressionError, FormatError
from repro.lossless import base, get_codec
from repro.config import DEFAULT_BACKEND_BLOCK_BYTES
from repro.lossless.deflate import DeflateCodec

from ..core.test_format_stability import RETIRED_BACKEND_BLOBS_B64

BODY = np.random.default_rng(21).bytes(50_000) + bytes(20_000) + b"tail" * 700
IDS = ["zstd", "lz4"]
MAGIC = {"zstd": b"RPZS", "lz4": b"RPL4"}


def retired_frame(
    name: str,
    body: bytes,
    *,
    level: int = 6,
    block_bytes: int = DEFAULT_BACKEND_BLOCK_BYTES,
    inner: int = 2,
) -> bytes:
    """What the retired ``name`` encoder wrote for ``body``: magic | u8
    version | u8 inner coder | u32 n_blocks, then a u64 length and a zlib
    stream per block, blocks auto-tuned as the ``-mt`` codecs still do."""
    step = get_codec("zlib-mt", block_bytes=block_bytes).effective_block_bytes(len(body))
    blocks = [zlib.compress(body[i : i + step], level) for i in range(0, len(body), step)]
    head = MAGIC[name] + struct.pack("<BBI", 1, inner, len(blocks))
    return head + b"".join(struct.pack("<Q", len(b)) + b for b in blocks)


class RetiredEncoder(DeflateCodec):
    """The retired encoder, to write the stores a test then restores."""

    def compress(self, data, cuts=None):
        return retired_frame(
            self.name, bytes(data), level=self.level, block_bytes=self.block_bytes
        )


def install_retired_encoder(monkeypatch, name: str) -> None:
    monkeypatch.setitem(base._REGISTRY, name, partial(RetiredEncoder, name))


def golden_payload(name: str) -> bytes:
    """The frame inside the golden blob the retired ``name`` encoder wrote."""
    blob = base64.b64decode(RETIRED_BACKEND_BLOBS_B64[name])
    prefix = container.ENVELOPE_MAGIC + bytes([len(name)]) + name.encode()
    assert blob.startswith(prefix)
    return blob[len(prefix) :]


def test_helper_rebuilds_what_the_retired_encoder_wrote():
    """Pins :func:`retired_frame` to the real encoder's bytes."""
    payload = golden_payload("lz4")
    body = get_codec("lz4").decompress(payload)
    assert retired_frame("lz4", body, block_bytes=1024) == payload
    payload = golden_payload("zstd")
    assert retired_frame("zstd", get_codec("zstd").decompress(payload)) == payload


class TestRegistration:
    def test_always_registered(self):
        """The names stay registered: blobs in stores name them."""
        assert get_codec("zstd").name == "zstd"
        assert get_codec("lz4").name == "lz4"

    @pytest.mark.parametrize("name", IDS)
    def test_get_codec_with_backend_knobs(self, name):
        codec = get_codec(name, level=3, threads=2, block_bytes=4_096)
        assert isinstance(codec, DeflateCodec) and codec.name == name
        assert codec.level == 3
        assert codec.threads == 2

    @pytest.mark.parametrize("name", IDS)
    def test_inner_codec_reported(self, name):
        """The real encoder recorded zlib blocks (inner coder 2) -- the
        premise of a zlib-only reader."""
        payload = golden_payload(name)
        assert payload[:4] == MAGIC[name]
        assert payload[4:6] == bytes([1, 2])


@pytest.mark.parametrize("name", IDS)
@pytest.mark.parametrize("level", [1, 6])
@pytest.mark.parametrize(
    "block_bytes",
    [1_500, len(BODY), 1 << 22],
    ids=["smaller-than-body", "equal-to-body", "larger-than-body"],
)
def test_roundtrip(name, level, block_bytes):
    blob = retired_frame(name, BODY, level=level, block_bytes=block_bytes)
    assert get_codec(name, threads=2).decompress(blob) == BODY


@pytest.mark.parametrize("name", IDS)
def test_empty_input(name):
    blob = retired_frame(name, b"")
    assert get_codec(name, threads=4).decompress(blob) == b""


@pytest.mark.parametrize("name", IDS)
def test_deterministic_across_thread_counts(name):
    """Blocks inflate on the pool; the bytes never depend on how many
    threads did it."""
    blob = retired_frame(name, BODY, block_bytes=2_048)
    for threads in (1, 2, 3, 4, 8):
        assert get_codec(name, threads=threads).decompress(blob) == BODY


@pytest.mark.parametrize("name", IDS)
def test_iter_compress_matches_compress(name):
    """The one way to write refuses, naming what to use instead."""
    codec = get_codec(name, threads=3, block_bytes=2_048)
    with pytest.raises(ConfigurationError, match="retired.*'zlib'"):
        codec.compress(BODY)


class TestCorruptStreams:
    @pytest.mark.parametrize("name", IDS)
    def test_bad_magic(self, name):
        with pytest.raises(DecompressionError, match="magic"):
            get_codec(name).decompress(b"XXXX" + bytes(8))

    @pytest.mark.parametrize("name", IDS)
    def test_wrong_backend_stream_rejected(self, name):
        other = "lz4" if name == "zstd" else "zstd"
        for blob in (retired_frame(other, BODY), zlib.compress(BODY)):
            with pytest.raises(DecompressionError, match="magic"):
                get_codec(name).decompress(blob)

    @pytest.mark.parametrize("name", IDS)
    def test_truncated_header(self, name):
        with pytest.raises(DecompressionError, match="truncated"):
            get_codec(name).decompress(retired_frame(name, BODY)[:5])

    @pytest.mark.parametrize("name", IDS)
    def test_truncated_block(self, name):
        blob = retired_frame(name, BODY, block_bytes=2_000)
        with pytest.raises(DecompressionError, match="truncated"):
            get_codec(name).decompress(blob[:-1])

    @pytest.mark.parametrize("name", IDS)
    def test_trailing_garbage(self, name):
        with pytest.raises(DecompressionError, match="trailing"):
            get_codec(name).decompress(retired_frame(name, BODY) + b"junk")

    @pytest.mark.parametrize("name", IDS)
    def test_unsupported_version(self, name):
        blob = bytearray(retired_frame(name, BODY))
        blob[4] = 99
        with pytest.raises(DecompressionError, match="version 99"):
            get_codec(name).decompress(bytes(blob))

    @pytest.mark.parametrize("name", IDS)
    def test_unknown_inner_coder(self, name):
        blob = retired_frame(name, BODY, inner=77)
        with pytest.raises(DecompressionError, match="inner coder id 77"):
            get_codec(name).decompress(blob)

    @pytest.mark.parametrize("name", IDS)
    def test_corrupt_block_payload(self, name):
        blob = bytearray(retired_frame(name, BODY, block_bytes=2_000))
        blob[-3] ^= 0xFF
        with pytest.raises(DecompressionError, match=name):
            get_codec(name).decompress(bytes(blob))


class TestMissingLibraryBehaviour:
    """Only the zlib blocks the wheel-less encoder wrote are readable."""

    @pytest.mark.parametrize("name", IDS)
    def test_fallback_roundtrip_and_flag(self, name):
        blob = retired_frame(name, BODY, block_bytes=2_000)
        assert blob[5] == 2  # zlib blocks recorded in the header
        assert get_codec(name, threads=2).decompress(blob) == BODY

    @pytest.mark.parametrize("name", IDS)
    def test_native_stream_without_library_fails_loudly(self, name):
        blob = retired_frame(name, BODY, block_bytes=2_000, inner=1)
        with pytest.raises(DecompressionError, match=f"native {name} blocks"):
            get_codec(name).decompress(blob)

    @pytest.mark.parametrize("name", IDS)
    def test_fallback_stream_decodes_anywhere(self, name):
        """Every block is a stock zlib stream: any zlib reads the frame."""
        payload = golden_payload(name)
        (n_blocks,) = struct.unpack_from("<I", payload, 6)
        offset, parts = 10, []
        for _ in range(n_blocks):
            (length,) = struct.unpack_from("<Q", payload, offset)
            parts.append(zlib.decompress(payload[offset + 8 : offset + 8 + length]))
            offset += 8 + length
        assert offset == len(payload)
        assert b"".join(parts) == get_codec(name).decompress(payload)


class TestFraming:
    @pytest.mark.parametrize("name,magic", list(MAGIC.items()), ids=IDS)
    def test_magic(self, name, magic):
        assert golden_payload(name)[:4] == magic
        assert get_codec(name).decompress(retired_frame(name, BODY)) == BODY

    def test_block_count_matches_split(self):
        """The golden lz4 frame was written at 1024-byte blocks."""
        payload = golden_payload("lz4")
        (n_blocks,) = struct.unpack_from("<I", payload, 6)
        body = get_codec("lz4").decompress(payload)
        assert n_blocks == -(-len(body) // 1_024) == 2

    def test_empty_input_zero_blocks(self):
        blob = retired_frame("lz4", b"")
        (n_blocks,) = struct.unpack_from("<I", blob, 6)
        assert n_blocks == 0
        assert get_codec("lz4").decompress(blob) == b""


class TestPipelineIntegration:
    """Stores written by the retired encoder restore through the reader;
    nothing writes them any more."""

    @pytest.mark.parametrize("backend", IDS)
    def test_roundtrip_through_pipeline(self, backend, monkeypatch):
        arr = np.linspace(0.0, 4.0, 32 * 33).reshape(32, 33)
        config = CompressionConfig(
            backend=backend, backend_threads=2, backend_block_bytes=4_096
        )
        with pytest.raises(ConfigurationError, match="retired"):
            WaveletCompressor(config).compress(arr)
        install_retired_encoder(monkeypatch, backend)
        blob = WaveletCompressor(config).compress(arr)
        monkeypatch.undo()
        assert MAGIC[backend] in blob
        out = WaveletCompressor.decompress(blob)
        expected = WaveletCompressor.decompress(
            WaveletCompressor(config.replace(backend="zlib")).compress(arr)
        )
        assert out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("backend", IDS)
    def test_chunked_stream(self, backend, monkeypatch):
        from repro.core.chunked import chunked_compress, chunked_decompress

        arr = np.linspace(0.0, 1.0, 64 * 20).reshape(64, 20)
        cfg = CompressionConfig(backend=backend, backend_threads=2)
        install_retired_encoder(monkeypatch, backend)
        blob = chunked_compress(arr, cfg, chunk_rows=16)
        monkeypatch.undo()
        np.testing.assert_allclose(chunked_decompress(blob), arr, atol=0.5)

    @pytest.mark.parametrize("backend", IDS)
    def test_checkpoint_manager_lossless_policy(self, backend, tmp_path, monkeypatch):
        """A lossless array a retired backend wrote still restores: the
        reader takes the backend from the blob."""
        import repro.ckpt.manager as manager_module
        from repro.ckpt import CheckpointManager
        from repro.ckpt.protocol import ArrayRegistry
        from repro.ckpt.store import DirectoryStore

        arr = np.arange(512, dtype=np.float64).reshape(32, 16)
        registry = ArrayRegistry()
        registry.register("field", arr)

        def manager():
            return CheckpointManager(
                registry,
                DirectoryStore(str(tmp_path)),
                policy={"field": "lossless"},
            )

        monkeypatch.setattr(manager_module, "_LOSSLESS_BACKEND", backend)
        with pytest.raises(ConfigurationError, match="retired"):
            manager().checkpoint(1)
        install_retired_encoder(monkeypatch, backend)
        manager().checkpoint(1)
        monkeypatch.undo()
        arr[...] = 0.0
        manager().restore(1)
        np.testing.assert_array_equal(
            registry.get("field"), np.arange(512, dtype=np.float64).reshape(32, 16)
        )


@pytest.mark.parametrize("name", IDS)
def test_damaged_golden_is_refused_typed(name):
    """Every truncation and bit flip of a golden blob decodes to the same
    array or raises a typed error -- never a foreign exception."""
    from repro.ckpt.manager import deserialize_array

    golden = base64.b64decode(RETIRED_BACKEND_BLOBS_B64[name])
    expected = deserialize_array(golden)
    rng = np.random.default_rng(20261016)
    for _ in range(300):
        if rng.integers(0, 2):
            damaged = golden[: int(rng.integers(0, len(golden)))]
        else:
            damaged = bytearray(golden)
            damaged[int(rng.integers(0, len(golden)))] ^= 1 << int(rng.integers(0, 8))
        try:
            out = deserialize_array(bytes(damaged))
        except DecompressionError:
            continue
        assert out.tobytes() == expected.tobytes()
    native = golden.replace(MAGIC[name] + b"\x01\x02", MAGIC[name] + b"\x01\x01", 1)
    with pytest.raises(FormatError, match="inner coder id 1"):
        deserialize_array(native)
