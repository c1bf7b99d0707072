"""XOR-delta predictive float codec (FPC-family lossless baseline).

Burtscher & Ratanaworabhan's FPC (paper ref. [17]) predicts each double
from recent history and stores the XOR residual with its leading zero
bytes suppressed.  This codec implements the same residual encoding with
the simplest predictor of that family -- "previous value" -- which is fully
vectorizable in NumPy (the hash-table FCM/DFCM predictors are inherently
sequential and would be three orders of magnitude slower in pure Python
without changing the qualitative result: lossless float compression of
smooth data lands far above what the lossy pipeline achieves).

Stream layout::

    u64 n_values | u8 tail_len | tail bytes |
    nibble-packed significant-byte counts (ceil(n/2) bytes) |
    significant bytes of each XOR residual

Input lengths that are not a multiple of 8 carry their remainder verbatim
in the tail.
"""

from __future__ import annotations

import struct

import numpy as np

from ..exceptions import DecompressionError
from .base import Codec, register_codec

__all__ = ["XorDeltaCodec"]

_HEADER = struct.Struct("<QB")


def _significant_byte_counts(byte_view: np.ndarray) -> np.ndarray:
    """Per-row count of bytes up to and including the last nonzero one.

    ``byte_view`` is (n, 8) uint8 in little-endian order, so trailing zero
    bytes are the high-order zeros that XOR-ing similar doubles produces.
    """
    nonzero = byte_view != 0
    reversed_rows = nonzero[:, ::-1]
    first_nz = reversed_rows.argmax(axis=1)
    any_nz = reversed_rows.any(axis=1)
    return np.where(any_nz, 8 - first_nz, 0).astype(np.uint8)


def _pack_nibbles(values: np.ndarray) -> np.ndarray:
    padded = values
    if padded.size % 2:
        padded = np.append(padded, np.uint8(0))
    pairs = padded.reshape(-1, 2)
    return (pairs[:, 0] | (pairs[:, 1] << 4)).astype(np.uint8)


def _unpack_nibbles(packed: np.ndarray, count: int) -> np.ndarray:
    low = packed & 0x0F
    high = packed >> 4
    out = np.empty(packed.size * 2, dtype=np.uint8)
    out[0::2] = low
    out[1::2] = high
    return out[:count]


class XorDeltaCodec(Codec):
    """Previous-value XOR prediction with leading-zero-byte suppression."""

    name = "xor-delta"

    def __init__(self, level: int = 0):
        self.level = level  # accepted for interface uniformity, unused

    def compress(self, data: bytes, cuts=None) -> bytes:
        n_doubles = len(data) // 8
        tail = data[n_doubles * 8 :]
        words = np.frombuffer(data, dtype="<u8", count=n_doubles).copy()
        if n_doubles:
            residual = words.copy()
            residual[1:] ^= words[:-1]
        else:
            residual = words
        byte_view = residual.view(np.uint8).reshape(-1, 8)
        counts = _significant_byte_counts(byte_view)
        keep = np.arange(8, dtype=np.uint8)[None, :] < counts[:, None]
        payload = byte_view[keep]
        return (
            _HEADER.pack(n_doubles, len(tail))
            + tail
            + _pack_nibbles(counts).tobytes()
            + payload.tobytes()
        )

    def decompress(self, data: bytes) -> bytes:
        if len(data) < _HEADER.size:
            raise DecompressionError("xor-delta stream shorter than its header")
        n_doubles, tail_len = _HEADER.unpack_from(data)
        offset = _HEADER.size
        tail = data[offset : offset + tail_len]
        if len(tail) != tail_len:
            raise DecompressionError("xor-delta stream truncated in its tail")
        offset += tail_len
        n_nibble_bytes = (n_doubles + 1) // 2
        packed = np.frombuffer(data, dtype=np.uint8, offset=offset, count=n_nibble_bytes)
        offset += n_nibble_bytes
        counts = _unpack_nibbles(packed, n_doubles)
        if counts.size and counts.max() > 8:
            raise DecompressionError("xor-delta length nibble exceeds 8")
        payload = np.frombuffer(data, dtype=np.uint8, offset=offset)
        expected = int(counts.sum())
        if payload.size != expected:
            raise DecompressionError(
                f"xor-delta payload holds {payload.size} bytes, expected {expected}"
            )
        byte_view = np.zeros((n_doubles, 8), dtype=np.uint8)
        keep = np.arange(8, dtype=np.uint8)[None, :] < counts[:, None]
        byte_view[keep] = payload
        residual = byte_view.reshape(-1).view("<u8")
        words = np.bitwise_xor.accumulate(residual)
        return words.tobytes() + tail


register_codec(
    XorDeltaCodec.name, lambda level, threads, block_bytes: XorDeltaCodec(level)
)
