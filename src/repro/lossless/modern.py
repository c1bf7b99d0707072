"""Modern lossless backends: zstd and lz4, block-parallel and fallback-safe.

WaveRange and the temporal-compression paper (PAPERS.md) both pair their
transform stages with modern entropy coders that run at hundreds of MB/s
per core -- an order of magnitude over deflate at comparable ratios.  These
codecs bring that tail to the checkpoint pipeline behind the same
:class:`~repro.lossless.base.Codec` interface and the same pooled
block-pipeline as ``gzip-mt``/``zlib-mt`` (shared long-lived pool,
streaming submit/collect window, auto-tuned block size), so
``backend="zstd"`` is a drop-in config/CLI choice everywhere a backend
name is accepted.

Optional-dependency policy
--------------------------
The ``zstandard`` and ``lz4`` wheels are *optional*.  Both codecs always
register; when the native library is missing, **compression** transparently
falls back to raw-deflate blocks (:func:`zlib.compress`, stdlib) and the
stream records which inner coder produced each body, so:

* a fallback stream decodes on *every* machine (zlib is stdlib), and
* a native stream decodes wherever the library exists; decoding it
  without the library raises a :class:`DecompressionError` naming the
  missing module instead of failing obscurely.

Like every backend, the output is deterministic for a fixed (level,
block split, inner coder) and byte-identical across thread counts.

Stream layout
-------------
::

    magic (b"RPZS" zstd / b"RPL4" lz4) | u8 version (=1) | u8 inner
    | u32 n_blocks
    then per block: u64 compressed length | inner-coder stream

``inner`` is 1 for the native library, 2 for the zlib fallback.  An empty
input is written as zero blocks.
"""

from __future__ import annotations

import struct
import zlib
from typing import Iterator

from ..exceptions import DecompressionError
from .base import register_codec
from .parallel_deflate import BlockParallelCodec
from .segments import byte_view

try:  # pragma: no cover - exercised only where the wheel is installed
    import zstandard as _zstandard
except ImportError:  # pragma: no cover
    _zstandard = None

try:  # pragma: no cover - exercised only where the wheel is installed
    import lz4.frame as _lz4frame
except ImportError:  # pragma: no cover
    _lz4frame = None

__all__ = ["ZstdCodec", "Lz4Codec", "zstd_available", "lz4_available"]

_MODERN_VERSION = 1
_HEAD = struct.Struct("<BB")  # version, inner coder id
_COUNT = struct.Struct("<I")
_LEN = struct.Struct("<Q")

_INNER_NATIVE = 1
_INNER_ZLIB = 2


def zstd_available() -> bool:
    """True when the ``zstandard`` module is importable."""
    return _zstandard is not None


def lz4_available() -> bool:
    """True when the ``lz4.frame`` module is importable."""
    return _lz4frame is not None


class _ModernBlockCodec(BlockParallelCodec):
    """Framing + fallback machinery shared by the zstd and lz4 codecs.

    Subclasses set :attr:`magic`, :attr:`module_name` and the native
    per-block coders; the (released-GIL) native calls ride the same
    streaming pool pipeline as the deflate codecs.
    """

    magic: bytes = b""
    module_name: str = ""

    # -- native hooks ------------------------------------------------------

    def _native_available(self) -> bool:
        raise NotImplementedError

    def _native_compress_block(self, block: memoryview) -> bytes:
        raise NotImplementedError

    def _native_decompress_block(self, block: memoryview) -> bytes:
        raise NotImplementedError

    # -- inner-coder dispatch ----------------------------------------------

    @property
    def inner_codec(self) -> str:
        """Name of the per-block coder ``compress`` will use."""
        return self.module_name if self._native_available() else "zlib-fallback"

    def _compress_block(self, block: memoryview) -> bytes:
        if self._native_available():
            return self._native_compress_block(block)
        return zlib.compress(block, self.level)

    def _decoder_for(self, inner: int):
        if inner == _INNER_ZLIB:
            return lambda block: zlib.decompress(block)
        if inner == _INNER_NATIVE:
            if not self._native_available():
                raise DecompressionError(
                    f"this {self.name} stream was written with the native "
                    f"{self.module_name!r} library, which is not installed "
                    f"here; install it (or re-compress on a machine without "
                    f"it, which falls back to stdlib zlib blocks) to decode"
                )
            return self._native_decompress_block
        raise DecompressionError(
            f"unknown {self.name} inner coder id {inner}; stream written by "
            f"a newer version?"
        )

    # -- codec interface ---------------------------------------------------

    def iter_compress(self, data, cuts=None) -> Iterator[bytes]:
        """Stream the frame header then length-prefixed blocks in order."""
        self._reset_fallback()
        blocks = self._split(data)
        inner = _INNER_NATIVE if self._native_available() else _INNER_ZLIB
        yield self.magic + _HEAD.pack(_MODERN_VERSION, inner) + _COUNT.pack(
            len(blocks)
        )
        for payload in self._iter_map_blocks(self._compress_block, blocks):
            yield _LEN.pack(len(payload)) + payload

    def compress(self, data: bytes, cuts=None) -> bytes:
        buf = bytearray()
        for part in self.iter_compress(data):
            buf += part
        return bytes(buf)

    def decompress(self, data: bytes) -> bytes:
        blob = byte_view(data)
        if blob.nbytes < 4 or bytes(blob[:4]) != self.magic:
            raise DecompressionError(
                f"not a {self.name} stream (bad magic); was this compressed "
                f"with a different backend?"
            )
        offset = 4
        if blob.nbytes < offset + _HEAD.size + _COUNT.size:
            raise DecompressionError(f"{self.name} stream truncated in its header")
        version, inner = _HEAD.unpack_from(blob, offset)
        offset += _HEAD.size
        if version != _MODERN_VERSION:
            raise DecompressionError(
                f"unsupported {self.name} stream version {version}"
            )
        decode = self._decoder_for(inner)
        (n_blocks,) = _COUNT.unpack_from(blob, offset)
        offset += _COUNT.size
        frames: list[memoryview] = []
        for i in range(n_blocks):
            if blob.nbytes < offset + _LEN.size:
                raise DecompressionError(
                    f"{self.name} stream truncated before block {i}"
                )
            (length,) = _LEN.unpack_from(blob, offset)
            offset += _LEN.size
            if blob.nbytes < offset + length:
                raise DecompressionError(
                    f"{self.name} stream truncated inside block {i}"
                )
            frames.append(blob[offset : offset + length])
            offset += length
        if offset != blob.nbytes:
            raise DecompressionError(
                f"{blob.nbytes - offset} trailing bytes after the last "
                f"{self.name} block"
            )
        self._reset_fallback()
        buf = bytearray()
        try:
            for part in self._iter_map_blocks(decode, frames):
                buf += part
        except zlib.error as exc:
            raise DecompressionError(f"corrupt {self.name} block: {exc}") from exc
        except Exception as exc:
            if type(exc).__module__.split(".")[0] in ("zstandard", "zstd", "lz4"):
                raise DecompressionError(
                    f"corrupt {self.name} block: {exc}"
                ) from exc
            raise
        return bytes(buf)


class ZstdCodec(_ModernBlockCodec):
    """Zstandard blocks on the shared pool (zlib fallback when absent).

    ``level`` keeps the backend-uniform 0-9 scale; 0 selects zstd's own
    default (3).  Checksums and the content-size header are disabled so
    the frame bytes are a pure function of (level, block bytes).
    """

    name = "zstd"
    magic = b"RPZS"
    module_name = "zstandard"

    def _native_available(self) -> bool:
        return _zstandard is not None

    def _zstd_level(self) -> int:
        return self.level if self.level > 0 else 3

    def _native_compress_block(self, block: memoryview) -> bytes:
        # One compressor per block: ZstdCompressor instances are not
        # documented thread-safe, and construction is cheap next to a
        # >= 64 KiB compress call.
        compressor = _zstandard.ZstdCompressor(
            level=self._zstd_level(), write_checksum=False, write_content_size=True
        )
        return compressor.compress(block)

    def _native_decompress_block(self, block: memoryview) -> bytes:
        return _zstandard.ZstdDecompressor().decompress(block)


class Lz4Codec(_ModernBlockCodec):
    """LZ4-frame blocks on the shared pool (zlib fallback when absent).

    The speed-first backend: at ``level`` <= 2 lz4 trades ratio for
    GB/s-class throughput, which suits checkpoint streams bound for fast
    burst buffers where the store drain, not the CPU, is the budget.
    """

    name = "lz4"
    magic = b"RPL4"
    module_name = "lz4.frame"

    def _native_available(self) -> bool:
        return _lz4frame is not None

    def _native_compress_block(self, block: memoryview) -> bytes:
        return _lz4frame.compress(
            bytes(block),
            compression_level=self.level,
            store_size=True,
        )

    def _native_decompress_block(self, block: memoryview) -> bytes:
        return _lz4frame.decompress(bytes(block))


register_codec(ZstdCodec)
register_codec(Lz4Codec)
