"""Byte-level run-length codec.

A deliberately simple lossless baseline for the backend ablation: the
encoded quantization indices are long runs of identical bytes on smooth
data, which RLE captures, while the raw double stream defeats it.  Included
to show *why* a deflate-family backend is the right final stage.
"""

from __future__ import annotations

import struct

import numpy as np

from ..exceptions import DecompressionError
from .base import Codec, register_codec

__all__ = ["RleCodec"]

_HEADER = struct.Struct("<Q")
_MAX_RUN = 255


class RleCodec(Codec):
    """(length, value) byte pairs; runs longer than 255 are chunked."""

    name = "rle"

    def __init__(self, level: int = 0):
        self.level = level  # accepted for interface uniformity, unused

    def compress(self, data: bytes, cuts=None) -> bytes:
        buf = np.frombuffer(data, dtype=np.uint8)
        if buf.size == 0:
            return _HEADER.pack(0)
        boundaries = np.concatenate(([True], buf[1:] != buf[:-1]))
        starts = np.flatnonzero(boundaries)
        run_vals = buf[starts]
        run_lens = np.diff(np.append(starts, buf.size))
        n_chunks = (run_lens + _MAX_RUN - 1) // _MAX_RUN
        vals = np.repeat(run_vals, n_chunks)
        lens = np.full(vals.size, _MAX_RUN, dtype=np.uint8)
        last_chunk_pos = np.cumsum(n_chunks) - 1
        remainder = run_lens - (n_chunks - 1) * _MAX_RUN
        lens[last_chunk_pos] = remainder.astype(np.uint8)
        pairs = np.empty((vals.size, 2), dtype=np.uint8)
        pairs[:, 0] = lens
        pairs[:, 1] = vals
        return _HEADER.pack(buf.size) + pairs.tobytes()

    def decompress(self, data: bytes) -> bytes:
        if len(data) < _HEADER.size:
            raise DecompressionError("RLE stream shorter than its header")
        (total,) = _HEADER.unpack_from(data)
        body = np.frombuffer(data, dtype=np.uint8, offset=_HEADER.size)
        if body.size % 2:
            raise DecompressionError("RLE stream holds a dangling half-pair")
        pairs = body.reshape(-1, 2)
        out = np.repeat(pairs[:, 1], pairs[:, 0])
        if out.size != total:
            raise DecompressionError(
                f"RLE stream expands to {out.size} bytes, header says {total}"
            )
        return out.tobytes()


register_codec(RleCodec.name, lambda level, threads, block_bytes: RleCodec(level))
