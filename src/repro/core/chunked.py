"""Chunked (streaming) compression for arrays larger than memory allows.

The paper's Section IV-D extrapolates to larger checkpoints on the strength
of the pipeline's O(n) complexity.  For genuinely huge arrays a single
in-memory transform is the practical obstacle, so this module slices the
leading axis into slabs, compresses each slab independently through the
ordinary pipeline, and frames the per-slab blobs in a simple multi-chunk
envelope.  Peak additional memory is one slab.

Because the slabs are independent they can also be compressed in
*parallel*: pass ``workers=N`` (or an explicit
:class:`~repro.parallel.executor.MultiprocessExecutor`) and the per-slab
pipeline runs fan out to worker processes.  The pipeline is deterministic,
so the emitted stream is byte-identical regardless of the worker count.

Process-level slab parallelism composes with the thread-parallel block
backends (``backend="gzip-mt"``/``"zlib-mt"`` with ``backend_threads``):
each worker process compresses its own slab body block-parallel on a
shared thread pool, so an N-process x T-thread run
exercises up to ``N * T`` cores while still emitting exactly the serial
bytes.

Chunking is *semantically visible* to the wavelet transform -- slabs are
transformed independently, so coefficients never mix across the slab
boundary.  For smooth data the effect on rate/error is marginal and is
quantified in the tests; the guarantee of the ``bounded`` quantizer is
unaffected (it holds per slab, hence globally).

Stream layout
-------------
::

    b"RPCK" | u16 version | u64 n_chunks | u64 rows
    then per chunk: u64 blob length | pipeline blob

``rows`` records the length of the leading axis.  An array with a
zero-length leading axis is written as **one** chunk holding the empty
slab, so shape and dtype survive the round trip.  Zero-chunk streams whose
header records 0 rows (written by pre-1.1 versions) are still accepted and
decode to an empty 1-D array; zero-chunk streams claiming ``rows > 0`` are
rejected as corrupt.
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING, Iterator

import numpy as np

from ..config import CompressionConfig
from ..exceptions import CompressionError, FormatError
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from .container import CHUNK_MAGIC
from .pipeline import CompressionStats, WaveletCompressor

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (parallel -> core)
    from ..parallel.executor import MultiprocessExecutor

__all__ = [
    "chunked_compress",
    "chunked_compress_with_stats",
    "chunked_decompress",
    "inspect_chunked",
    "iter_chunks",
]

_HEAD = struct.Struct("<HQQ")  # version, n_chunks, leading-axis length
_LEN = struct.Struct("<Q")
_VERSION = 1


def _slice_slabs(a: np.ndarray, chunk_rows: int) -> list[np.ndarray]:
    """Contiguous leading-axis slabs; a zero-row array yields one empty
    slab so its shape and dtype are preserved in the stream."""
    n = a.shape[0]
    if n == 0:
        return [np.ascontiguousarray(a[0:0])]
    return [
        np.ascontiguousarray(a[start : start + chunk_rows])
        for start in range(0, n, chunk_rows)
    ]


def chunked_compress(
    arr: np.ndarray,
    config: CompressionConfig | None = None,
    *,
    chunk_rows: int = 256,
    workers: int | None = None,
    executor: "MultiprocessExecutor | None" = None,
) -> bytes:
    """Compress ``arr`` slab-by-slab along axis 0.

    ``workers > 1`` compresses the slabs in parallel worker processes
    (falling back to serial when a pool cannot start); the output is
    byte-identical to the serial stream either way.  An explicit
    ``executor`` overrides ``workers`` and is *not* closed by this call.
    """
    blob, _ = chunked_compress_with_stats(
        arr, config, chunk_rows=chunk_rows, workers=workers, executor=executor
    )
    return blob


def chunked_compress_with_stats(
    arr: np.ndarray,
    config: CompressionConfig | None = None,
    *,
    chunk_rows: int = 256,
    workers: int | None = None,
    executor: "MultiprocessExecutor | None" = None,
) -> tuple[bytes, CompressionStats]:
    """Like :func:`chunked_compress`, also returning aggregated stats.

    The stats sum the per-slab sizes, counts and per-stage timings, so
    Fig. 9-style cost breakdowns work for chunked streams exactly as they
    do for single-shot pipeline blobs.  ``compressed_bytes`` is the full
    stream length including chunk framing.
    """
    a = np.asarray(arr)
    if a.ndim == 0:
        raise CompressionError("cannot chunk a 0-dimensional array")
    if not isinstance(chunk_rows, int) or isinstance(chunk_rows, bool) or chunk_rows < 1:
        raise CompressionError(f"chunk_rows must be an int >= 1, got {chunk_rows!r}")
    from ..parallel.executor import MultiprocessExecutor, aggregate_stats

    cfg = config if config is not None else CompressionConfig()
    tracer = get_tracer()
    with tracer.span(
        "chunked_compress", rows=int(a.shape[0]), chunk_rows=chunk_rows
    ) as root:
        slabs = _slice_slabs(a, chunk_rows)
        exec_ = executor or MultiprocessExecutor(1 if workers is None else workers)
        try:
            results = exec_.compress_slabs(slabs, cfg)
        finally:
            if exec_ is not executor:
                exec_.close()
        with tracer.span("framing"):
            parts = [CHUNK_MAGIC, _HEAD.pack(_VERSION, len(results), a.shape[0])]
            for blob, _stats in results:
                parts.append(_LEN.pack(len(blob)))
                parts.append(blob)
            stream = b"".join(parts)
        stats = aggregate_stats(
            [s for _, s in results], stream_bytes=len(stream)
        )
        root.set(n_chunks=len(results), stream_bytes=len(stream))
    registry = get_registry()
    registry.counter("chunked.streams").inc()
    registry.counter("chunked.chunks").inc(len(results))
    registry.counter("chunked.stream_bytes").inc(len(stream))
    return stream, stats


def _read_head(blob: bytes) -> tuple[int, int, int]:
    """Validate magic + fixed header; returns (version, n_chunks, rows)."""
    if len(blob) < 4 or blob[:4] != CHUNK_MAGIC:
        raise FormatError("not a chunked repro stream (bad magic)")
    if len(blob) < 4 + _HEAD.size:
        raise FormatError("chunked stream truncated in its header")
    version, n_chunks, rows = _HEAD.unpack_from(blob, 4)
    if version != _VERSION:
        raise FormatError(f"unsupported chunked-stream version {version}")
    return version, n_chunks, rows


def iter_chunks(blob: bytes) -> Iterator[bytes]:
    """Yield the per-slab pipeline blobs of a chunked stream."""
    _version, n_chunks, _rows = _read_head(blob)
    offset = 4 + _HEAD.size
    for i in range(n_chunks):
        if len(blob) < offset + _LEN.size:
            raise FormatError(f"chunked stream truncated before chunk {i}")
        (length,) = _LEN.unpack_from(blob, offset)
        offset += _LEN.size
        if len(blob) < offset + length:
            raise FormatError(f"chunked stream truncated inside chunk {i}")
        yield blob[offset : offset + length]
        offset += length
    if offset != len(blob):
        raise FormatError(
            f"{len(blob) - offset} trailing bytes after the last chunk"
        )


def chunked_decompress(blob: bytes) -> np.ndarray:
    """Invert :func:`chunked_compress` (one slab in memory at a time plus
    the output array)."""
    with get_tracer().span("chunked_decompress", nbytes=len(blob)):
        return _chunked_decompress(blob)


def _chunked_decompress(blob: bytes) -> np.ndarray:
    _version, n_chunks, rows = _read_head(blob)
    if n_chunks == 0:
        # Legacy writers emitted no chunk for a zero-row array, losing the
        # trailing shape and dtype; all we can reconstruct is emptiness.
        if rows != 0:
            raise FormatError(
                f"chunked stream holds no chunks but claims {rows} rows"
            )
        if len(blob) != 4 + _HEAD.size:
            raise FormatError(
                f"{len(blob) - 4 - _HEAD.size} trailing bytes after the "
                "header of a zero-chunk stream"
            )
        return np.empty((0,), dtype=np.float64)
    slabs = []
    total_rows = 0
    for i, chunk in enumerate(iter_chunks(blob)):
        slab = WaveletCompressor.decompress(chunk)
        if slab.ndim == 0:
            raise FormatError(
                f"chunk {i} decoded to a 0-dimensional array; slabs must "
                f"carry a leading row axis"
            )
        if slabs and (
            slab.shape[1:] != slabs[0].shape[1:] or slab.dtype != slabs[0].dtype
        ):
            raise FormatError(
                f"chunk {i} decoded to shape {slab.shape} dtype {slab.dtype}, "
                f"incompatible with the stream's slab shape "
                f"{slabs[0].shape} dtype {slabs[0].dtype}"
            )
        slabs.append(slab)
        total_rows += slab.shape[0]
    if total_rows != rows:
        raise FormatError(
            f"chunks reassemble to {total_rows} rows, header records {rows}"
        )
    if len(slabs) == 1:
        return slabs[0]
    return np.concatenate(slabs, axis=0)


def inspect_chunked(blob: bytes) -> dict:
    """Chunk-level metadata of a chunked stream (no coefficient decoding).

    Returns the stream header fields plus per-chunk compressed sizes --
    with min/mean/max aggregates, so skew across slabs is visible without
    eyeballing the raw list -- and, when at least one chunk exists, the
    self-describing container header of the first chunk (shape, dtype,
    configuration of the slabs).
    """
    from .container import peek_header

    version, n_chunks, rows = _read_head(blob)
    chunk_blobs = list(iter_chunks(blob))  # validates framing end to end
    sizes = [len(c) for c in chunk_blobs]
    info: dict = {
        "container": "chunked",
        "magic": CHUNK_MAGIC.decode("ascii"),
        "version": version,
        "n_chunks": n_chunks,
        "rows": rows,
        "stream_bytes": len(blob),
        "chunk_bytes": sizes,
    }
    if sizes:
        info["chunk_bytes_stats"] = {
            "min": min(sizes),
            "mean": sum(sizes) / len(sizes),
            "max": max(sizes),
            "total": sum(sizes),
        }
    if chunk_blobs:
        info["chunk_header"] = peek_header(chunk_blobs[0])
    return info
