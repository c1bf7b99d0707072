"""Byte encoding of quantized coefficients (paper Sections III-C and III-D).

After quantization the coefficient array holds a mixture of

* exact float64 values -- the final low-frequency block plus every
  high-frequency value the quantizer left alone, and
* quantized values -- each one of at most 256 partition averages.

Encoding (SIII-C) replaces every quantized value by the 1-byte index of its
partition average, and the output format (SIII-D, Fig. 5) records a bitmap
of which positions were encoded so the decoder can interleave the two
streams back into the original order.  Both operations are lossless.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import DecompressionError

__all__ = ["EncodedPayload", "encode_coefficients", "decode_coefficients"]


@dataclass
class EncodedPayload:
    """The four streams of the paper's output format (Fig. 5).

    Attributes
    ----------
    bitmap:
        ``np.packbits`` of the flattened quantized-position mask.
    averages:
        float64 partition-average table (the ``average[]`` array).
    indices:
        uint8 (or uint16 for the error-bounded quantizer) index per
        quantized position, in flattened array order.
    raw_values:
        float64 values of every unquantized position, in flattened order
        (low-frequency block first by construction of the packed layout).
    size:
        Total number of coefficients (needed to unpack the bitmap).
    """

    bitmap: np.ndarray
    averages: np.ndarray
    indices: np.ndarray
    raw_values: np.ndarray
    size: int


def encode_coefficients(
    coeffs: np.ndarray,
    quantized_mask_flat: np.ndarray,
    indices: np.ndarray,
    averages: np.ndarray,
) -> EncodedPayload:
    """Split a coefficient array into the bitmap/index/raw streams.

    Parameters
    ----------
    coeffs:
        The (full) wavelet coefficient array, any shape.
    quantized_mask_flat:
        Boolean mask over ``coeffs.ravel()``; True positions are replaced
        by their byte index, False positions are stored verbatim.
    indices, averages:
        Output of the quantizer, with ``len(indices) == mask.sum()``.
    """
    flat = np.ascontiguousarray(coeffs, dtype=np.float64).ravel()
    mask = np.asarray(quantized_mask_flat, dtype=bool).ravel()
    if mask.size != flat.size:
        raise ValueError(
            f"mask length {mask.size} does not match coefficient count {flat.size}"
        )
    n_q = int(mask.sum())
    idx = np.asarray(indices).ravel()
    if idx.dtype not in (np.dtype(np.uint8), np.dtype(np.uint16)):
        idx = idx.astype(np.uint8)
    if idx.size != n_q:
        raise ValueError(
            f"indices length {idx.size} does not match quantized count {n_q}"
        )
    avg = np.asarray(averages, dtype=np.float64).ravel()
    if idx.size and avg.size and int(idx.max()) >= avg.size:
        raise ValueError("index references a partition beyond the average table")
    return EncodedPayload(
        bitmap=np.packbits(mask),
        averages=avg,
        indices=idx,
        raw_values=flat[~mask],
        size=flat.size,
    )


def decode_coefficients(payload: EncodedPayload) -> np.ndarray:
    """Invert :func:`encode_coefficients`; returns the flat float64 array."""
    size = int(payload.size)
    if size < 0:
        raise DecompressionError(f"negative coefficient count: {size}")
    expected_bitmap = (size + 7) // 8
    if payload.bitmap.size != expected_bitmap:
        raise DecompressionError(
            f"bitmap holds {payload.bitmap.size} bytes, expected {expected_bitmap} "
            f"for {size} coefficients"
        )
    mask = np.unpackbits(payload.bitmap, count=size).astype(bool)
    n_q = int(mask.sum())
    if payload.indices.size != n_q:
        raise DecompressionError(
            f"index stream holds {payload.indices.size} entries, bitmap marks {n_q}"
        )
    if size - n_q != payload.raw_values.size:
        raise DecompressionError(
            f"raw stream holds {payload.raw_values.size} values, "
            f"bitmap leaves {size - n_q} unquantized"
        )
    if n_q and (payload.averages.size == 0 or int(payload.indices.max()) >= payload.averages.size):
        raise DecompressionError("index stream references beyond the average table")
    flat = np.empty(size, dtype=np.float64)
    flat[mask] = payload.averages.take(payload.indices)
    flat[np.logical_not(mask, out=mask)] = payload.raw_values  # mask is ours
    return flat
