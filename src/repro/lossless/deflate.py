"""The deflate family: ``zlib``, ``gzip``, ``zlib-mt``, ``gzip-mt`` -- one codec.

``zlib`` is the backend the paper recommends as future work ("compressing
the temporary checkpoint data with zlib in memory" eliminates the dominant
temp-file cost, Section IV-D); ``gzip`` produces the same deflate stream
with the gzip framing the paper's measured implementation used.  Every
name writes one standard stream assembled from independently coded
segments (:mod:`repro.lossless.segments`), each stored, Huffman-only, RLE
or LZ77 -- whichever its probe measures smallest: stock
:func:`zlib.decompress` / :func:`gzip.decompress` read it, and every name
reads any stock stream of its framing.

The ``-mt`` names go one step further: CPython's :mod:`zlib` releases the
GIL while deflating, so they code the segments of a body (split further
at the block size) concurrently on the process-wide shared pool
(:mod:`repro.lossless.pool`) and stitch the raw-deflate pieces, in order,
behind the same header and trailer -- exactly how ``pigz`` stays
``gunzip``-compatible.  What differs between the four names is only the
framing (gzip or zlib) and whether segments are split into pool blocks.

Execution model of the ``-mt`` names
------------------------------------
* **Shared long-lived pool** -- all calls (and all concurrent callers)
  submit to one process-wide executor that stays warm across the
  checkpoint loop.
* **At most ``threads`` blocks deflating, results in block order** -- a
  call never has more of its blocks on the pool than its thread budget,
  and it returns the whole stream once the last block is in: there is no
  partial stream to consume.
* **Auto-tuned block size** -- the effective block size shrinks for small
  bodies so every core gets work (:meth:`DeflateCodec.effective_block_bytes`).
  The tuning is a pure function of the body length -- *never* of the
  thread count -- so the emitted stream stays byte-identical for every
  ``threads`` value.

A *block* is the unit of pool work: a run of consecutive segments adding
up to at least the effective block size, so a body cut into many small
byte planes does not pay one pool hand-off per plane.  How segments are
grouped into blocks never shows in the output -- every segment is coded on
its own.  When the shared pool cannot start (exotic sandboxes with thread
limits) compression degrades to a serial loop over the same blocks --
same bytes, just slower -- recording why in
:attr:`~DeflateCodec.fallback_reason` (a *thread-local* per-call value)
and counting it under ``fallbacks{kind=serial}``.

Block frames (decode-only)
--------------------------
Earlier versions wrote three private frames of length-prefixed zlib
streams, and one reader decodes all of them, inflating the blocks on the
pool::

    magic | u8 version (=1) | [u8 inner coder] | u32 n_blocks
    then per block: u64 compressed length | zlib stream

* ``RPZM`` -- ``zlib-mt`` before container format 2 (no inner-coder byte);
* ``RPZS`` / ``RPL4`` -- the retired ``zstd`` / ``lz4`` backends.  Without
  their optional native wheels (never installed here) they wrote zlib
  blocks, inner coder 2; a frame of native blocks (inner coder 1) or of
  any other coder raises :class:`DecompressionError`.  The two names stay
  registered to read those blobs and refuse to write.
"""

from __future__ import annotations

import gzip
import importlib.util
import struct
import threading
import time
import zlib
from functools import partial
from typing import Callable, Sequence

from ..exceptions import ConfigurationError, DecompressionError
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from .base import Codec, register_codec
from .pool import effective_cores, get_shared_pool
from .segments import GZIP_FRAMING, ZLIB_FRAMING, SegmentTally, byte_view, deflate_stream

__all__ = [
    "DeflateCodec",
    "MIN_AUTO_BLOCK_BYTES",
    "AUTO_TARGET_BLOCKS",
    "zstd_available",
    "lz4_available",
]

#: Auto-tuning never splits below this (64 KiB): smaller blocks spend more
#: time in per-call Python/framing overhead than in released-GIL deflate.
MIN_AUTO_BLOCK_BYTES = 64 * 1024

#: Auto-tuning aims for this many blocks per stream.  A *fixed* target --
#: deliberately not the live thread count -- so the split (and therefore
#: the emitted bytes) is identical for every ``threads`` value while still
#: giving up to 32 workers concurrent work with good load balance.
AUTO_TARGET_BLOCKS = 32

#: The framing each name writes; the retired names write nothing.
_FRAMINGS = {
    "zlib": ZLIB_FRAMING,
    "gzip": GZIP_FRAMING,
    "zlib-mt": ZLIB_FRAMING,
    "gzip-mt": GZIP_FRAMING,
}

#: The magic of the block frame each name reads besides the stock streams
#: of its framing; the retired names' frames record their inner coder.
_FRAME_MAGIC = {"zlib-mt": b"RPZM", "zstd": b"RPZS", "lz4": b"RPL4"}
_FRAME_VERSION = 1
_INNER_ZLIB = 2
_COUNT = struct.Struct("<I")
_LEN = struct.Struct("<Q")


def zstd_available() -> bool:
    """True when the ``zstandard`` wheel is importable (an environment
    fact; nothing here uses it)."""
    return importlib.util.find_spec("zstandard") is not None


def lz4_available() -> bool:
    """True when the ``lz4`` wheel is importable (an environment fact;
    nothing here uses it)."""
    return importlib.util.find_spec("lz4") is not None


class DeflateCodec(Codec):
    """Segmented deflate under one of the registered names (see the module
    docstring); ``threads`` (None: one per effective core) and
    ``block_bytes`` (the cap of :meth:`effective_block_bytes`) matter to
    the ``-mt`` names only.  Built by :func:`~repro.lossless.base.get_codec`,
    which holds the defaults."""

    #: Strategy split of this instance's last compress call.
    last_segments: SegmentTally | None = None

    def __init__(self, name: str, level: int, threads: int | None, block_bytes: int):
        if name not in _FRAMINGS and name not in _FRAME_MAGIC:
            raise ValueError(f"no deflate codec is named {name!r}")
        self.name = name
        if not isinstance(level, int) or isinstance(level, bool) or not 0 <= level <= 9:
            raise ValueError(f"{name} level must be an int in [0, 9], got {level!r}")
        if threads is None:
            threads = effective_cores()
        if not isinstance(threads, int) or isinstance(threads, bool) or threads < 1:
            raise ValueError(f"{name} threads must be an int >= 1, got {threads!r}")
        if (
            not isinstance(block_bytes, int)
            or isinstance(block_bytes, bool)
            or block_bytes < 1
        ):
            raise ValueError(
                f"{name} block_bytes must be an int >= 1, got {block_bytes!r}"
            )
        self.level = level
        self.threads = threads
        self.block_bytes = block_bytes
        self.framing = _FRAMINGS.get(name)
        self.frame_magic = _FRAME_MAGIC.get(name)
        self.blocked = name.endswith("-mt")
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
        get_registry().counter("fallbacks", kind="serial").inc()

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

    def _map_blocks(self, fn: Callable, blocks: Sequence) -> list:
        """``[fn(block) for block in blocks]``, with at most ``threads``
        blocks inside ``fn`` at once on the shared pool.

        Each block takes a slot before it is submitted and frees it when
        ``fn`` returns, so a free slot goes to the next block whichever
        block finished.  A pool that cannot start (or rejects work
        mid-call) degrades to a serial loop over the blocks not yet
        submitted -- same results, in the same order.
        """
        fn = self._traced(fn)
        n_workers = min(self.threads, len(blocks))
        if n_workers <= 1:
            return [fn(block) for block in blocks]
        try:
            pool = get_shared_pool()
        except (RuntimeError, OSError) as exc:  # thread-limited sandboxes
            self._record_fallback(f"thread pool unavailable: {exc}")
            return [fn(block) for block in blocks]
        slots = threading.Semaphore(n_workers)

        def run(block):
            try:
                return fn(block)
            finally:
                slots.release()

        futures = []
        for i, block in enumerate(blocks):
            slots.acquire()
            try:
                futures.append(pool.submit(run, block))
            except RuntimeError as exc:  # pool shut down concurrently
                slots.release()
                self._record_fallback(f"thread pool rejected work: {exc}")
                return [f.result() for f in futures] + [fn(b) for b in blocks[i:]]
        return [f.result() for f in futures]

    # -- codec interface ---------------------------------------------------

    def check_writable(self) -> None:
        if self.framing is None:
            raise ConfigurationError(
                f"the {self.name!r} backend is retired: it only ever wrote "
                f"zlib blocks in a private frame, which it still reads; "
                f"write with 'zlib' or 'zlib-mt' instead"
            )

    def compress(self, data, cuts: Sequence[int] | None = None) -> bytes:
        self.check_writable()
        self._reset_fallback()
        view = byte_view(data)
        tally = SegmentTally()
        stream = deflate_stream(
            view,
            cuts,
            self.level,
            self.framing,
            tally,
            self.effective_block_bytes(view.nbytes) if self.blocked else None,
            self._map_blocks if self.blocked else map,
        )
        self.last_segments = tally
        return stream

    def decompress(self, data: bytes) -> bytes:
        blob = byte_view(data)
        if self.frame_magic is not None and blob[:4] == self.frame_magic:
            return self._inflate_frame(blob)
        if self.framing is None:
            raise DecompressionError(
                f"not a {self.name} stream (bad magic); was this compressed "
                f"with a different backend?"
            )
        inflate = gzip.decompress if self.framing is GZIP_FRAMING else zlib.decompress
        try:
            return inflate(data)
        except (OSError, EOFError, zlib.error) as exc:
            raise DecompressionError(f"corrupt {self.name} stream: {exc}") from exc

    def _inflate_frame(self, blob: memoryview) -> bytes:
        """The one block-frame reader (see the module docstring)."""
        name = self.name
        has_inner = self.framing is None
        head = 2 if has_inner else 1
        offset = 4 + head + _COUNT.size
        if blob.nbytes < offset:
            raise DecompressionError(f"{name} stream truncated in its header")
        if blob[4] != _FRAME_VERSION:
            raise DecompressionError(f"unsupported {name} stream version {blob[4]}")
        if has_inner and blob[5] != _INNER_ZLIB:
            raise DecompressionError(
                f"{name} frame holds blocks of inner coder id {blob[5]}; only "
                f"zlib blocks (id {_INNER_ZLIB}) are readable -- id 1 marks "
                f"native {name} blocks, which nothing here decodes"
            )
        (n_blocks,) = _COUNT.unpack_from(blob, 4 + head)
        blocks: list[memoryview] = []
        for i in range(n_blocks):
            if blob.nbytes < offset + _LEN.size:
                raise DecompressionError(f"{name} stream truncated before block {i}")
            (length,) = _LEN.unpack_from(blob, offset)
            offset += _LEN.size
            if blob.nbytes < offset + length:
                raise DecompressionError(f"{name} stream truncated inside block {i}")
            blocks.append(blob[offset : offset + length])
            offset += length
        if offset != blob.nbytes:
            raise DecompressionError(
                f"{blob.nbytes - offset} trailing bytes after the last {name} block"
            )
        self._reset_fallback()
        try:
            return b"".join(self._map_blocks(zlib.decompress, blocks))
        except zlib.error as exc:
            raise DecompressionError(f"corrupt {name} block: {exc}") from exc


for _name in (*_FRAMINGS, "zstd", "lz4"):
    register_codec(_name, partial(DeflateCodec, _name))
