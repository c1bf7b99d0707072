"""Block-parallel deflate codecs (pigz-style thread fan-out).

The paper's Fig. 9 breakdown shows the final gzip pass dominating the whole
compressor, and Section IV-D proposes in-memory zlib as the fix.  One step
further: CPython's :mod:`zlib` releases the GIL while deflating, so the
lossless tail parallelizes across *threads* -- no pickling, no worker
processes, shared memory.  ``gzip-mt`` and ``zlib-mt`` code the segments of
a body (:mod:`repro.lossless.segments`: the container's section and
byte-plane cuts, further split at the block size) concurrently on the
process-wide shared pool (:mod:`repro.lossless.pool`) and stitch the
raw-deflate pieces, in order, behind one gzip / zlib header and one
CRC32 / Adler-32 trailer.  The output is a **single standard stream** --
exactly how ``pigz`` stays ``gunzip``-compatible -- so stock
:func:`gzip.decompress` / :func:`zlib.decompress` and the plain ``gzip`` /
``zlib`` codecs decode it unchanged.

Execution model (the fix for the flat scaling curve)
----------------------------------------------------
Earlier versions built a fresh ``ThreadPoolExecutor`` per ``compress()``
call and ran ``pool.map`` eagerly: thread startup/join was paid on every
call, all compressed blocks were materialized before the join began, and
the default 1 MiB block left bodies under a few MiB with almost no
concurrent work.  Three changes undo that:

* **Shared long-lived pool** -- all calls (and all concurrent callers)
  submit to one process-wide executor that stays warm across the
  checkpoint loop.
* **Streaming submit/collect pipeline** -- blocks are submitted ahead
  through a bounded in-flight window (2x the call's thread budget) and
  collected in block order as they finish, so splitting, compressing and
  joining overlap instead of running as serial phases and at most a
  window's worth of compressed blocks is ever held alongside the growing
  output (see :meth:`BlockParallelCodec.iter_compress` for the fully
  streaming form).
* **Auto-tuned block size** -- the effective block size shrinks for small
  bodies so every core gets work (see
  :meth:`BlockParallelCodec.effective_block_bytes`).  The tuning is a
  pure function of the body length -- *never* of the thread count -- so
  the emitted stream stays byte-identical for every ``threads`` value.

A *block* is the unit of pool work: a run of consecutive segments adding
up to at least the effective block size, so a body cut into many small
byte planes does not pay one pool hand-off per plane (and a body below the
block size stays on the calling thread, as it always did).  How segments
are grouped into blocks never shows in the output -- every segment is
coded on its own.

Both codecs are **deterministic**: segment boundaries depend only on
(``cuts``, ``block_bytes``, body length), each segment's
strategy only on its own bytes and the level, and results are emitted in
order.  When the shared pool cannot start (exotic sandboxes with thread
limits) compression degrades to a serial loop over the same blocks -- same
bytes, just slower -- recording why in
:attr:`~BlockParallelCodec.fallback_reason` (a *thread-local* per-call
value, so concurrent callers never observe each other's reason).

Legacy streams (decode-only)
----------------------------
Before container format 2, ``gzip-mt`` wrote one gzip *member* per block
(RFC 1952 multi-member, which :func:`gzip.decompress` still concatenates)
and ``zlib-mt`` wrote its own frame::

    b"RPZM" | u8 version (=1) | u32 n_blocks
    then per block: u64 compressed length | zlib stream

Both readers keep decoding those forever -- the ``RPZM`` blocks on the
pool, as they always were -- and nothing writes them any more.  The single
streams written now inflate serially: a deflate stream records no entry
points (DESIGN.md section 7 has what that costs ``zlib-mt``).
"""

from __future__ import annotations

import gzip
import os
import struct
import threading
import time
import zlib
from collections import deque
from typing import Callable, Iterator, Sequence

from ..exceptions import DecompressionError
from ..obs.trace import get_tracer
from .base import Codec, register_codec
from .pool import get_shared_pool
from .segments import (
    GZIP_FRAMING,
    ZLIB_FRAMING,
    Framing,
    SegmentTally,
    byte_view,
    iter_stream,
)

__all__ = [
    "BlockParallelCodec",
    "GzipMTCodec",
    "ZlibMTCodec",
    "DEFAULT_BLOCK_BYTES",
    "MIN_AUTO_BLOCK_BYTES",
    "AUTO_TARGET_BLOCKS",
]

#: Upper bound on the auto-tuned block size: large enough to amortize
#: per-block deflate reset cost (< 1 % rate loss), small enough that a
#: checkpoint-sized body yields work for every core.
DEFAULT_BLOCK_BYTES = 1 << 20

#: Auto-tuning never splits below this (64 KiB): smaller blocks spend more
#: time in per-call Python/framing overhead than in released-GIL deflate.
MIN_AUTO_BLOCK_BYTES = 64 * 1024

#: Auto-tuning aims for this many blocks per stream.  A *fixed* target --
#: deliberately not the live thread count -- so the split (and therefore
#: the emitted bytes) is identical for every ``threads`` value while still
#: giving up to 32 workers concurrent work with good load balance.
AUTO_TARGET_BLOCKS = 32

_MT_MAGIC = b"RPZM"
_MT_VERSION = 1
_MT_HEAD = struct.Struct("<B")  # version (after the 4-byte magic)
_MT_COUNT = struct.Struct("<I")
_MT_LEN = struct.Struct("<Q")


def default_thread_count() -> int:
    """Thread count used when ``threads`` is not given: one per *effective*
    core (container CPU affinity respected when the platform exposes it)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # non-Linux / restricted platforms
        return max(1, os.cpu_count() or 1)


class BlockParallelCodec(Codec):
    """Shared machinery: split into blocks, pipeline a worker over them.

    Subclasses provide :meth:`_compress_block` /
    :meth:`_decompress_block` and the framing.
    """

    def __init__(
        self,
        level: int = 6,
        threads: int | None = None,
        block_bytes: int = DEFAULT_BLOCK_BYTES,
    ):
        if not isinstance(level, int) or isinstance(level, bool) or not 0 <= level <= 9:
            raise ValueError(f"{self.name} level must be an int in [0, 9], got {level!r}")
        if threads is None:
            threads = default_thread_count()
        if not isinstance(threads, int) or isinstance(threads, bool) or threads < 1:
            raise ValueError(f"{self.name} threads must be an int >= 1, got {threads!r}")
        if (
            not isinstance(block_bytes, int)
            or isinstance(block_bytes, bool)
            or block_bytes < 1
        ):
            raise ValueError(
                f"{self.name} block_bytes must be an int >= 1, got {block_bytes!r}"
            )
        self.level = level
        self.threads = threads
        self.block_bytes = block_bytes
        self._local = threading.local()

    # -- per-call fallback bookkeeping ------------------------------------

    @property
    def fallback_reason(self) -> str | None:
        """Why the *calling thread's* last call ran serially despite
        ``threads > 1`` (None when the pool ran, or was not needed).

        Thread-local: codec instances are shared across chunked slab
        workers and checkpoint writers, so a plain attribute would leak
        one call's reason into a concurrent caller's view.
        """
        return getattr(self._local, "fallback_reason", None)

    def _reset_fallback(self) -> None:
        self._local.fallback_reason = None

    def _record_fallback(self, reason: str) -> None:
        self._local.fallback_reason = reason

    # -- block fan-out -----------------------------------------------------

    def effective_block_bytes(self, nbytes: int) -> int:
        """The block size actually used for a body of ``nbytes``.

        ``block_bytes`` is the *cap*; bodies smaller than
        ``AUTO_TARGET_BLOCKS x block_bytes`` are split finer
        (down to :data:`MIN_AUTO_BLOCK_BYTES`, rounded up to a 64 KiB
        quantum) so the pool has enough blocks to saturate every core.
        Depends only on the body length -- not on ``threads`` -- keeping
        the stream byte-identical across thread counts.
        """
        step = self.block_bytes
        if nbytes <= step:
            return step
        quantum = MIN_AUTO_BLOCK_BYTES
        target = -(-nbytes // AUTO_TARGET_BLOCKS)  # ceil
        tuned = -(-target // quantum) * quantum  # round up to the quantum
        return min(step, max(quantum, tuned))

    def _split(self, data) -> list[memoryview]:
        mv = byte_view(data)
        step = self.effective_block_bytes(mv.nbytes)
        return [mv[start : start + step] for start in range(0, mv.nbytes, step)]

    def _traced(self, fn: Callable[[memoryview], bytes]):
        """Wrap ``fn`` with a per-block span when tracing is enabled."""
        tracer = get_tracer()
        if not tracer.enabled:
            return fn
        # Pool threads have empty span stacks, so parent the per-block
        # spans on the caller's current span, captured here.  Recording
        # happens inside the worker (Tracer.record is thread-safe).
        ctx = tracer.context()

        def traced(block, _inner=fn, _ctx=ctx):
            start = time.perf_counter()
            out = _inner(block)
            tracer.record(
                "backend.block",
                start,
                time.perf_counter(),
                parent=_ctx,
                codec=self.name,
                in_bytes=block.nbytes,
                out_bytes=len(out),
            )
            return out

        return traced

    def _iter_map_blocks(
        self, fn: Callable[[memoryview], bytes], blocks: Sequence
    ) -> Iterator[bytes]:
        """Yield ``fn(block)`` for every block, in block order.

        The pipelined core: up to ``2 x threads`` blocks are in flight on
        the shared pool while earlier results are yielded, so compression
        overlaps with whatever the consumer does (framing, joining,
        writing to storage) and at most a window's worth of compressed
        blocks exists at once.  Results are collected strictly in submit
        order, so the emitted stream does not depend on scheduling; a
        pool that cannot start (or dies mid-call) degrades to the serial
        loop over the remaining blocks -- same bytes.
        """
        fn = self._traced(fn)
        n_workers = min(self.threads, len(blocks))
        if n_workers <= 1:
            for block in blocks:
                yield fn(block)
            return
        try:
            pool = get_shared_pool()
        except (RuntimeError, OSError) as exc:  # thread-limited sandboxes
            self._record_fallback(f"thread pool unavailable: {exc}")
            for block in blocks:
                yield fn(block)
            return
        window = 2 * n_workers
        pending: deque = deque()
        iterator = iter(blocks)
        serial_rest = False
        for block in iterator:
            if not serial_rest:
                try:
                    pending.append(pool.submit(fn, block))
                except RuntimeError as exc:  # pool shut down concurrently
                    self._record_fallback(f"thread pool rejected work: {exc}")
                    serial_rest = True
            if serial_rest:
                while pending:  # preserve block order before going serial
                    yield pending.popleft().result()
                yield fn(block)
                continue
            if len(pending) >= window:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()

    def _map_blocks(
        self, fn: Callable[[memoryview], bytes], blocks: Sequence
    ) -> list[bytes]:
        """``[fn(b) for b in blocks]`` through the streaming pipeline."""
        return list(self._iter_map_blocks(fn, blocks))


class _SegmentedMTCodec(BlockParallelCodec):
    """Segment coder on the shared pool; subclasses pick the framing and
    keep reading their legacy streams."""

    framing: Framing
    #: Strategy split of this instance's last compress call.
    last_segments: SegmentTally | None = None

    def iter_compress(self, data, cuts: Sequence[int] | None = None) -> Iterator[bytes]:
        """Stream header, pieces in order, then the trailer (bounded
        memory).

        Consumers that write straight to storage never hold more than the
        in-flight window of compressed blocks; :meth:`compress` is the
        materialized join of exactly these fragments.
        """
        self._reset_fallback()
        view = byte_view(data)
        tally = SegmentTally()
        yield from iter_stream(
            view,
            cuts,
            self.level,
            self.framing,
            tally,
            block_bytes=self.effective_block_bytes(view.nbytes),
            map_blocks=self._iter_map_blocks,
        )
        self.last_segments = tally

    def compress(self, data: bytes, cuts: Sequence[int] | None = None) -> bytes:
        return b"".join(self.iter_compress(data, cuts))


class GzipMTCodec(_SegmentedMTCodec):
    """Gzip stream written block-parallel, readable by stock gzip.

    Also reads the multi-member streams earlier versions wrote (one member
    per block): :func:`gzip.decompress` concatenates members per RFC 1952.
    """

    name = "gzip-mt"
    framing = GZIP_FRAMING

    def decompress(self, data: bytes) -> bytes:
        try:
            return gzip.decompress(data)
        except (OSError, EOFError, zlib.error) as exc:
            raise DecompressionError(f"corrupt gzip-mt stream: {exc}") from exc


class ZlibMTCodec(_SegmentedMTCodec):
    """zlib stream written block-parallel, readable by stock zlib.

    Also reads the ``RPZM`` frames earlier versions wrote.
    """

    name = "zlib-mt"
    framing = ZLIB_FRAMING

    def decompress(self, data: bytes) -> bytes:
        blob = byte_view(data)
        if blob[:4] == _MT_MAGIC:
            return self._decompress_legacy_frames(blob)
        try:
            return zlib.decompress(blob)
        except zlib.error as exc:
            raise DecompressionError(f"corrupt zlib-mt stream: {exc}") from exc

    def _decompress_legacy_frames(self, blob: memoryview) -> bytes:
        offset = 4
        if blob.nbytes < offset + _MT_HEAD.size + _MT_COUNT.size:
            raise DecompressionError("zlib-mt stream truncated in its header")
        (version,) = _MT_HEAD.unpack_from(blob, offset)
        offset += _MT_HEAD.size
        if version != _MT_VERSION:
            raise DecompressionError(f"unsupported zlib-mt stream version {version}")
        (n_blocks,) = _MT_COUNT.unpack_from(blob, offset)
        offset += _MT_COUNT.size
        frames: list[memoryview] = []
        for i in range(n_blocks):
            if blob.nbytes < offset + _MT_LEN.size:
                raise DecompressionError(f"zlib-mt stream truncated before block {i}")
            (length,) = _MT_LEN.unpack_from(blob, offset)
            offset += _MT_LEN.size
            if blob.nbytes < offset + length:
                raise DecompressionError(f"zlib-mt stream truncated inside block {i}")
            frames.append(blob[offset : offset + length])
            offset += length
        if offset != blob.nbytes:
            raise DecompressionError(
                f"{blob.nbytes - offset} trailing bytes after the last zlib-mt block"
            )
        self._reset_fallback()
        try:
            return b"".join(self._iter_map_blocks(zlib.decompress, frames))
        except zlib.error as exc:
            raise DecompressionError(f"corrupt zlib-mt block: {exc}") from exc


register_codec(GzipMTCodec)
register_codec(ZlibMTCodec)
