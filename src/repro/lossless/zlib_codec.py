"""In-memory zlib / gzip codecs.

``zlib`` is the backend the paper recommends as future work ("compressing
the temporary checkpoint data with zlib in memory" eliminates the dominant
temp-file cost, Section IV-D); ``gzip`` produces the same deflate stream
with the gzip framing the paper's measured implementation used.

Both write one standard stream assembled from independently coded segments
(:mod:`repro.lossless.segments`): stock :func:`zlib.decompress` /
:func:`gzip.decompress` read it, and these codecs read any stock stream.
"""

from __future__ import annotations

import gzip
import zlib
from typing import Iterator, Sequence

from .base import Codec, register_codec
from .segments import (
    GZIP_FRAMING,
    ZLIB_FRAMING,
    Framing,
    SegmentTally,
    byte_view,
    iter_stream,
)

__all__ = ["ZlibCodec", "GzipCodec"]


class _SegmentedDeflateCodec(Codec):
    """Serial segment coder; subclasses pick the framing."""

    framing: Framing
    #: Strategy split of this instance's last :meth:`compress` call.
    last_segments: SegmentTally | None = None

    def __init__(self, level: int = 6):
        if not 0 <= level <= 9:
            raise ValueError(f"{self.name} level must be in [0, 9], got {level}")
        self.level = level

    def iter_compress(self, data, cuts: Sequence[int] | None = None) -> Iterator[bytes]:
        tally = SegmentTally()
        yield from iter_stream(byte_view(data), cuts, self.level, self.framing, tally)
        self.last_segments = tally

    def compress(self, data: bytes, cuts: Sequence[int] | None = None) -> bytes:
        return b"".join(self.iter_compress(data, cuts))


class ZlibCodec(_SegmentedDeflateCodec):
    """zlib-framed deflate, entirely in memory."""

    name = "zlib"
    framing = ZLIB_FRAMING

    def decompress(self, data: bytes) -> bytes:
        return zlib.decompress(data)


class GzipCodec(_SegmentedDeflateCodec):
    """Gzip-framed deflate, in memory (``mtime`` pinned for determinism)."""

    name = "gzip"
    framing = GZIP_FRAMING

    def decompress(self, data: bytes) -> bytes:
        return gzip.decompress(data)


register_codec(ZlibCodec)
register_codec(GzipCodec)
