"""Tests for the block-parallel deflate names (gzip-mt / zlib-mt)."""

from __future__ import annotations

import gzip
import struct
import threading
import time
import zlib
from functools import partial

import numpy as np
import pytest

from repro.config import CompressionConfig
from repro.core.pipeline import WaveletCompressor
from repro.exceptions import DecompressionError
from repro.lossless import get_codec
from repro.config import DEFAULT_BACKEND_BLOCK_BYTES
from repro.lossless import segments
from repro.lossless.deflate import DeflateCodec
from repro.lossless.pool import effective_cores

BODY = np.random.default_rng(7).bytes(10_000) + bytes(5_000) + b"tail" * 500
gzip_mt = partial(get_codec, "gzip-mt")
zlib_mt = partial(get_codec, "zlib-mt")
MT_CLASSES = [gzip_mt, zlib_mt]
MT_IDS = ["gzip-mt", "zlib-mt"]


class TestConstruction:
    @pytest.mark.parametrize("cls", MT_CLASSES, ids=MT_IDS)
    def test_defaults(self, cls):
        codec = cls()
        assert codec.level == 6
        assert codec.threads == effective_cores()
        assert codec.block_bytes == DEFAULT_BACKEND_BLOCK_BYTES
        assert codec.fallback_reason is None

    @pytest.mark.parametrize("cls", MT_CLASSES, ids=MT_IDS)
    def test_level_validation(self, cls):
        with pytest.raises(ValueError, match="level"):
            cls(level=10)
        with pytest.raises(ValueError, match="level"):
            cls(level=-1)
        with pytest.raises(ValueError, match="level"):
            cls(level=True)

    @pytest.mark.parametrize("cls", MT_CLASSES, ids=MT_IDS)
    def test_threads_validation(self, cls):
        with pytest.raises(ValueError, match="threads"):
            cls(threads=0)
        with pytest.raises(ValueError, match="threads"):
            cls(threads="4")
        with pytest.raises(ValueError, match="threads"):
            cls(threads=True)

    def test_name_validation(self):
        with pytest.raises(ValueError, match="no deflate codec"):
            DeflateCodec("brotli", 6, None, DEFAULT_BACKEND_BLOCK_BYTES)

    @pytest.mark.parametrize("cls", MT_CLASSES, ids=MT_IDS)
    def test_block_bytes_validation(self, cls):
        with pytest.raises(ValueError, match="block_bytes"):
            cls(block_bytes=0)
        with pytest.raises(ValueError, match="block_bytes"):
            cls(block_bytes=2.5)


@pytest.mark.parametrize("cls", MT_CLASSES, ids=MT_IDS)
@pytest.mark.parametrize("level", [1, 6, 9])
@pytest.mark.parametrize(
    "block_bytes",
    [1_000, len(BODY), 1 << 22],
    ids=["smaller-than-body", "equal-to-body", "larger-than-body"],
)
def test_roundtrip(cls, level, block_bytes):
    codec = cls(level=level, threads=2, block_bytes=block_bytes)
    blob = codec.compress(BODY)
    assert codec.decompress(blob) == BODY


@pytest.mark.parametrize("cls", MT_CLASSES, ids=MT_IDS)
def test_empty_input(cls):
    codec = cls(threads=4)
    blob = codec.compress(b"")
    assert blob  # framing / one empty member, never zero bytes
    assert codec.decompress(blob) == b""


@pytest.mark.parametrize("cls", MT_CLASSES, ids=MT_IDS)
def test_deterministic_across_thread_counts(cls):
    """The hard guarantee: bytes depend on (level, block_bytes) only."""
    reference = cls(threads=1, block_bytes=2_048).compress(BODY)
    for threads in (2, 3, 8):
        blob = cls(threads=threads, block_bytes=2_048).compress(BODY)
        assert blob == reference


@pytest.mark.parametrize("cls", MT_CLASSES, ids=MT_IDS)
def test_repeated_calls_deterministic(cls):
    codec = cls(threads=4, block_bytes=4_096)
    assert codec.compress(BODY) == codec.compress(BODY)


class TestGzipMTCompatibility:
    """gzip-mt output must stay decodable by everything that reads gzip."""

    def test_stock_gzip_decompress(self):
        blob = gzip_mt(threads=4, block_bytes=3_000).compress(BODY)
        assert gzip.decompress(blob) == BODY

    def test_plain_gzip_codec_decodes(self):
        blob = gzip_mt(threads=4, block_bytes=3_000).compress(BODY)
        assert get_codec("gzip").decompress(blob) == BODY

    def test_one_member_however_many_blocks(self):
        """Blocks are stitched into a single gzip member: the first
        member's trailer (CRC32 + length of the *whole* body) ends the
        stream."""
        blob = gzip_mt(threads=4, block_bytes=1_000).compress(BODY)
        inflater = zlib.decompressobj(wbits=31)
        assert inflater.decompress(blob) == BODY
        assert inflater.eof and inflater.unused_data == b""
        assert blob[-8:] == struct.pack("<II", zlib.crc32(BODY), len(BODY))

    def test_decodes_legacy_multi_member_stream(self):
        """Before format 2 every block was its own member; those blobs
        are still in stores."""
        legacy = b"".join(
            gzip.compress(BODY[i : i + 3_000], mtime=0)
            for i in range(0, len(BODY), 3_000)
        )
        assert gzip_mt().decompress(legacy) == BODY

    def test_empty_input_is_valid_gzip(self):
        blob = gzip_mt().compress(b"")
        assert gzip.decompress(blob) == b""

    def test_decodes_stock_gzip_output(self):
        # Symmetric compatibility: the mt reader accepts plain gzip blobs.
        blob = gzip.compress(BODY, compresslevel=6)
        assert gzip_mt().decompress(blob) == BODY

    def test_corrupt_stream(self):
        blob = bytearray(gzip_mt(block_bytes=2_000).compress(BODY))
        blob[len(blob) // 2] ^= 0xFF
        with pytest.raises(DecompressionError, match="gzip-mt"):
            gzip_mt().decompress(bytes(blob))

    def test_not_gzip_at_all(self):
        with pytest.raises(DecompressionError):
            gzip_mt().decompress(b"plainly not gzip")


def legacy_zlib_mt_frames(body: bytes, block_bytes: int) -> bytes:
    """What ``zlib-mt`` wrote before format 2: b"RPZM" | u8 version |
    u32 n_blocks, then u64 length + zlib stream per block."""
    blocks = [body[i : i + block_bytes] for i in range(0, len(body), block_bytes)]
    out = [b"RPZM", struct.pack("<BI", 1, len(blocks))]
    for block in blocks:
        payload = zlib.compress(block, 6)
        out.append(struct.pack("<Q", len(payload)) + payload)
    return b"".join(out)


class TestZlibMTCompatibility:
    def test_stock_zlib_decompress(self):
        blob = zlib_mt(threads=4, block_bytes=3_000).compress(BODY)
        assert zlib.decompress(blob) == BODY
        assert blob[-4:] == struct.pack(">I", zlib.adler32(BODY))

    def test_plain_zlib_codec_decodes(self):
        blob = zlib_mt(threads=4, block_bytes=3_000).compress(BODY)
        assert get_codec("zlib").decompress(blob) == BODY

    def test_decodes_stock_zlib_output(self):
        assert zlib_mt().decompress(zlib.compress(BODY)) == BODY

    def test_empty_input_is_valid_zlib(self):
        assert zlib.decompress(zlib_mt().compress(b"")) == b""

    def test_corrupt_stream(self):
        blob = bytearray(zlib_mt(block_bytes=2_000).compress(BODY))
        blob[len(blob) // 2] ^= 0xFF
        with pytest.raises(DecompressionError, match="zlib-mt"):
            zlib_mt().decompress(bytes(blob))

    def test_not_zlib_at_all(self):
        with pytest.raises(DecompressionError, match="zlib-mt"):
            zlib_mt().decompress(b"plainly not zlib")


class TestLegacyZlibMTFrames:
    """The RPZM frame is decode-only now; every way it can be damaged
    still has to surface as a DecompressionError."""

    def test_roundtrip(self):
        assert zlib_mt().decompress(legacy_zlib_mt_frames(BODY, 2_000)) == BODY
        assert zlib_mt().decompress(legacy_zlib_mt_frames(b"", 2_000)) == b""

    def test_frames_still_inflate_on_the_pool(self, monkeypatch):
        """The frame records block boundaries, so blobs already in stores
        keep their block-parallel restore."""
        fanned_out = []
        inner = DeflateCodec._map_blocks

        def spy(self, fn, blocks):
            fanned_out.append(len(blocks))
            return inner(self, fn, blocks)

        monkeypatch.setattr(DeflateCodec, "_map_blocks", spy)
        blob = legacy_zlib_mt_frames(BODY, 2_000)
        assert zlib_mt(threads=4).decompress(blob) == BODY
        assert fanned_out == [-(-len(BODY) // 2_000)]

    def test_truncated_header(self):
        with pytest.raises(DecompressionError, match="truncated"):
            zlib_mt().decompress(legacy_zlib_mt_frames(BODY, 2_000)[:6])

    def test_unsupported_version(self):
        blob = bytearray(legacy_zlib_mt_frames(BODY, 2_000))
        blob[4] = 99
        with pytest.raises(DecompressionError, match="version 99"):
            zlib_mt().decompress(bytes(blob))

    def test_truncated_before_block(self):
        with pytest.raises(DecompressionError, match="truncated"):
            zlib_mt().decompress(legacy_zlib_mt_frames(BODY, 2_000)[:-1])

    def test_trailing_garbage(self):
        with pytest.raises(DecompressionError, match="trailing"):
            zlib_mt().decompress(legacy_zlib_mt_frames(BODY, 2_000) + b"junk")

    def test_corrupt_block_payload(self):
        blob = bytearray(legacy_zlib_mt_frames(BODY, 2_000))
        blob[-3] ^= 0xFF  # inside the last zlib stream
        with pytest.raises(DecompressionError, match="zlib-mt"):
            zlib_mt().decompress(bytes(blob))


class TestBufferProtocolInputs:
    @pytest.mark.parametrize("cls", MT_CLASSES, ids=MT_IDS)
    def test_memoryview_and_ndarray(self, cls):
        arr = np.arange(4_096, dtype=np.float64)
        codec = cls(threads=2, block_bytes=4_096)
        expected = codec.compress(arr.tobytes())
        assert codec.compress(memoryview(arr.tobytes())) == expected
        assert codec.compress(memoryview(arr).cast("B")) == expected
        assert codec.decompress(expected) == arr.tobytes()

    @pytest.mark.parametrize("cls", MT_CLASSES, ids=MT_IDS)
    def test_bytearray_input(self, cls):
        codec = cls(block_bytes=1_024)
        assert codec.decompress(codec.compress(bytearray(BODY))) == BODY


class TestPipelineIntegration:
    @pytest.mark.parametrize("backend", ["gzip-mt", "zlib-mt"])
    def test_roundtrip_through_pipeline(self, backend):
        arr = np.linspace(0.0, 4.0, 32 * 33).reshape(32, 33)
        config = CompressionConfig(
            backend=backend, backend_threads=2, backend_block_bytes=4_096
        )
        blob = WaveletCompressor(config).compress(arr)
        out = WaveletCompressor.decompress(blob)
        assert out.shape == arr.shape
        assert np.allclose(out, arr, atol=0.5)

    def test_gzip_mt_blob_matches_plain_gzip_blob(self):
        """Large-block gzip-mt, plain gzip: byte-identical envelopes apart
        from the recorded backend name, and cross-decodable bodies."""
        arr = np.linspace(0.0, 1.0, 2_048)
        mt = WaveletCompressor(
            CompressionConfig(backend="gzip-mt", backend_threads=2)
        ).compress(arr)
        plain = WaveletCompressor(CompressionConfig(backend="gzip")).compress(arr)
        assert np.array_equal(
            WaveletCompressor.decompress(mt), WaveletCompressor.decompress(plain)
        )

    def test_get_codec_integration(self):
        codec = get_codec("gzip-mt", level=1, threads=2, block_bytes=2_048)
        assert isinstance(codec, DeflateCodec) and codec.name == "gzip-mt"
        assert codec.decompress(codec.compress(BODY)) == BODY


class TestSerialFallback:
    def test_forced_pool_failure_falls_back(self, monkeypatch):
        from repro.lossless import pool as pool_mod

        def exploding_pool():
            raise RuntimeError("can't start new thread")

        monkeypatch.setattr(
            "repro.lossless.deflate.get_shared_pool", exploding_pool
        )
        codec = gzip_mt(threads=4, block_bytes=1_000)
        blob = codec.compress(BODY)
        assert codec.fallback_reason is not None
        assert "thread pool unavailable" in codec.fallback_reason
        assert gzip.decompress(blob) == BODY
        # Fallback bytes == threaded bytes (determinism survives fallback).
        monkeypatch.undo()
        fresh = gzip_mt(threads=4, block_bytes=1_000)
        assert fresh.compress(BODY) == blob
        assert fresh.fallback_reason is None
        assert pool_mod.shared_pool_size() is not None  # pool really ran

    def test_fallback_is_counted(self, monkeypatch):
        """A serial degradation is never silent: it counts under the
        same ``fallbacks{kind=serial}`` as the checkpoint lane's."""
        from repro.obs.metrics import get_registry

        def exploding_pool():
            raise RuntimeError("can't start new thread")

        counter = get_registry().counter("fallbacks", kind="serial")
        before = counter.value
        zlib_mt(threads=4, block_bytes=1_000).compress(BODY)
        assert counter.value == before
        monkeypatch.setattr("repro.lossless.deflate.get_shared_pool", exploding_pool)
        for name in ("zlib-mt", "gzip-mt"):
            get_codec(name, threads=4, block_bytes=1_000).compress(BODY)
        get_codec("zlib-mt", threads=4).decompress(legacy_zlib_mt_frames(BODY, 2_000))
        assert counter.value == before + 3

    def test_mid_stream_pool_rejection_finishes_serially(self):
        """A pool that dies mid-call (shutdown race) must not lose blocks."""

        class DyingPool:
            def __init__(self, limit):
                self.limit = limit
                self.calls = 0

            def submit(self, fn, *args):
                self.calls += 1
                if self.calls > self.limit:
                    raise RuntimeError("cannot schedule new futures after shutdown")
                from concurrent.futures import Future

                f = Future()
                f.set_result(fn(*args))
                return f

        import repro.lossless.deflate as pd

        codec = gzip_mt(threads=4, block_bytes=1_000)
        reference = codec.compress(BODY)
        original = pd.get_shared_pool
        pd.get_shared_pool = lambda: DyingPool(limit=3)
        try:
            blob = codec.compress(BODY)
        finally:
            pd.get_shared_pool = original
        assert blob == reference
        assert codec.fallback_reason is not None
        assert "rejected work" in codec.fallback_reason

    def test_fallback_reason_is_thread_local(self):
        """Regression for the shared-instance data race: one caller's
        serial fallback must never leak into a concurrent caller's view
        of ``fallback_reason`` on the same codec object."""
        import threading

        import repro.lossless.deflate as pd

        codec = gzip_mt(threads=4, block_bytes=1_000)
        started = threading.Event()
        release = threading.Event()
        seen = {}

        def failing_caller():
            original = pd.get_shared_pool

            def exploding():
                raise RuntimeError("no threads for you")

            pd.get_shared_pool = exploding
            try:
                codec.compress(BODY)
                seen["failing"] = codec.fallback_reason
            finally:
                pd.get_shared_pool = original
            started.set()
            release.wait(timeout=10)

        t = threading.Thread(target=failing_caller)
        t.start()
        try:
            assert started.wait(timeout=10)
            # The worker thread observed its own fallback...
            assert seen["failing"] is not None
            # ...while this thread, which never fell back, sees None even
            # though it shares the codec instance.
            codec.compress(BODY)
            assert codec.fallback_reason is None
        finally:
            release.set()
            t.join(timeout=10)


class TestSharedPool:
    def test_pool_reused_across_calls(self):
        from repro.lossless import pool as pool_mod

        pool_mod.shutdown_shared_pool()
        first = pool_mod.get_shared_pool()
        codec = gzip_mt(threads=2, block_bytes=1_000)
        codec.compress(BODY)
        codec.compress(BODY)
        assert pool_mod.get_shared_pool() is first

    def test_shutdown_then_reuse(self):
        from repro.lossless import pool as pool_mod

        pool_mod.shutdown_shared_pool()
        codec = gzip_mt(threads=2, block_bytes=1_000)
        blob = codec.compress(BODY)
        assert codec.fallback_reason is None
        pool_mod.shutdown_shared_pool()
        assert codec.compress(BODY) == blob  # fresh pool, same bytes

    def test_pool_sized_for_machine(self):
        from repro.lossless import pool as pool_mod

        pool_mod.get_shared_pool()
        assert pool_mod.shared_pool_size() >= max(4, effective_cores())


class TestThreadsMeansThreads:
    def test_never_more_blocks_deflating_than_threads(self, monkeypatch):
        """A ``threads=2`` call keeps at most two of its blocks inside the
        block coder, however many workers the shared pool holds."""
        inside = [0]
        peak = [0]
        lock = threading.Lock()
        inner = segments._deflate_block

        def counting(*args, **kwargs):
            with lock:
                inside[0] += 1
                peak[0] = max(peak[0], inside[0])
            try:
                time.sleep(0.005)  # long enough for the pool to overlap blocks
                return inner(*args, **kwargs)
            finally:
                with lock:
                    inside[0] -= 1

        monkeypatch.setattr(segments, "_deflate_block", counting)
        body = bytes(8 << 20)
        blob = get_codec("gzip-mt", level=1, threads=2).compress(body)
        assert gzip.decompress(blob) == body
        assert peak[0] <= 2


class TestAutoBlockTuning:
    def test_cap_never_exceeded(self):
        codec = gzip_mt(block_bytes=1_000)
        assert codec.effective_block_bytes(50_000_000) == 1_000

    def test_small_bodies_keep_requested_block(self):
        codec = gzip_mt()  # default 1 MiB cap
        assert codec.effective_block_bytes(1 << 20) == 1 << 20

    def test_large_bodies_split_finer(self):
        from repro.lossless.deflate import (
            AUTO_TARGET_BLOCKS,
            MIN_AUTO_BLOCK_BYTES,
        )

        codec = gzip_mt()
        eff = codec.effective_block_bytes(8 << 20)
        assert MIN_AUTO_BLOCK_BYTES <= eff < codec.block_bytes
        n_blocks = -(-(8 << 20) // eff)
        assert n_blocks >= AUTO_TARGET_BLOCKS  # enough work for every core

    def test_tuning_independent_of_threads(self):
        """The invariant that keeps streams byte-identical across T."""
        for nbytes in (1_000, 1 << 20, 8 << 20, 1 << 28):
            sizes = {
                gzip_mt(threads=t).effective_block_bytes(nbytes)
                for t in (1, 2, 4, 16)
            }
            assert len(sizes) == 1

    @pytest.mark.parametrize("cls", MT_CLASSES, ids=MT_IDS)
    def test_auto_block_roundtrip_multiblock(self, cls):
        body = np.random.default_rng(11).bytes(3 << 20)
        codec = cls(threads=4)
        assert codec.decompress(codec.compress(body)) == body
