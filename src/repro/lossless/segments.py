"""Content-adaptive deflate: independently coded segments, one standard stream.

The paper's Fig. 9 shows the gzip pass dominating compression cost, and the
end-to-end ledger (``benchmarks/e2e``) shows where a plain level-6 pass
burns that time for nothing: on byte planes and index streams that LZ77
cannot shrink, because they hold no repeats -- only a skewed byte
histogram, which Huffman coding alone captures several times faster and
often a few percent *smaller* (short, far matches cost more bits than the
literals they replace).  WaveRange (PAPERS.md) draws the same conclusion
and entropy-codes quantized wavelet coefficients with no LZ stage at all.

So the deflate family (``gzip``, ``zlib``, ``gzip-mt``, ``zlib-mt``) codes a
body as a sequence of *segments* -- the stretches between the ``cuts`` the
container passes down (section and byte-plane boundaries) -- and picks, per
segment, between LZ77 at the configured level and ``Z_HUFFMAN_ONLY``:

* **Probe.**  Both strategies code the same :data:`PROBE_BYTES` slices, one
  from the middle of every :data:`PROBE_STRIDE_BYTES` of the segment; the
  smaller total wins, ties go to Huffman (the cheaper of two equals).
  LZ77 codes each slice with the bytes that precede it in the segment, up
  to deflate's :data:`WINDOW_BYTES`, as its history -- exactly what it
  would have in the full pass, so a row that repeats 6 or 30 KB back is a
  match in the probe too, however short the slice.  A segment no longer
  than one slice is simply coded both ways and the smaller piece kept.
  The decision is a pure function of (segment bytes, level): no clock, no
  thread count, no state -- the emitted stream is reproducible across
  runs and processes.
* **Stitching.**  Every segment is a raw-deflate piece from its own
  ``compressobj``, ended with ``Z_FULL_FLUSH`` (byte-aligned, no history
  across the seam) or, for the last one, ``Z_FINISH``; the pieces sit
  behind one gzip/zlib header and one CRC32/Adler-32 trailer over the
  whole body.  The result is a **single standard stream**: stock
  ``gzip.decompress``/``zlib.decompress`` -- every existing reader --
  inflates it unchanged, and it does not record (or need) the cuts.

:func:`deflate_stream` is the one assembler of such a stream; the serial and
the block-parallel codecs differ only in the ``map`` they hand it.
DESIGN.md section 15 has the measurements behind the constants.
"""

from __future__ import annotations

import struct
import threading
import zlib
from functools import partial
from typing import Callable, Iterable, NamedTuple, Sequence

from ..obs.metrics import get_registry

__all__ = [
    "PROBE_BYTES",
    "PROBE_STRIDE_BYTES",
    "WINDOW_BYTES",
    "MIN_SEGMENT_BYTES",
    "LZ77",
    "HUFFMAN",
    "Framing",
    "GZIP_FRAMING",
    "ZLIB_FRAMING",
    "SegmentTally",
    "Block",
    "byte_view",
    "plan_segments",
    "deflate_segment",
    "deflate_stream",
]

#: Bytes of one probe slice, coded both ways.  With its history primed a
#: 2 KiB slice decides exactly like a 4 KiB one on the benchmark bodies and
#: a 992-segment corpus (0.05-0.1 % above the per-segment oracle) at the
#: price of an unprimed 4 KiB slice; 1 KiB lands two to three times as far.
PROBE_BYTES = 2048

#: One probe slice per this many segment bytes (at least one): a long
#: segment that changes character along the way -- noise, then rows that
#: repeat -- is judged on all of it, at under 1 % of its bytes probed.
PROBE_STRIDE_BYTES = 256 * 1024

#: Deflate's match window: the most history LZ77 gets for a probe slice.
WINDOW_BYTES = 1 << zlib.MAX_WBITS

#: Cuts closer together than this are dropped: a seam costs a flush marker
#: and a fresh Huffman table (~10-40 bytes) and a probe, which a 128-byte
#: plane of an ``averages`` table can never earn back.
MIN_SEGMENT_BYTES = 1024

LZ77 = "lz77"
HUFFMAN = "huffman"


def byte_view(data) -> memoryview:
    """A flat uint8 memoryview over any buffer-protocol object (no copy
    for contiguous buffers)."""
    mv = memoryview(data)
    if mv.format != "B" or mv.ndim != 1:
        try:
            mv = mv.cast("B")
        except TypeError:  # non-contiguous exotic buffer: copy once
            mv = memoryview(bytes(mv))
    return mv


# -- framing -------------------------------------------------------------------


def _gzip_header(level: int) -> bytes:
    # mtime pinned to 0 and OS "unknown" so the bytes depend on nothing
    # but the input; XFL as RFC 1952 asks (2 = densest, 4 = fastest)
    xfl = 2 if level == 9 else 4 if level <= 1 else 0
    return b"\x1f\x8b\x08\x00\x00\x00\x00\x00" + bytes((xfl, 0xFF))


def _gzip_trailer(view: memoryview) -> bytes:
    return struct.pack("<II", zlib.crc32(view), view.nbytes & 0xFFFFFFFF)


def _zlib_header(level: int) -> bytes:
    flevel = 0 if level < 2 else 1 if level < 6 else 2 if level == 6 else 3
    flg = flevel << 6
    flg += 31 - ((0x78 << 8) + flg) % 31  # RFC 1950 FCHECK
    return bytes((0x78, flg))


def _zlib_trailer(view: memoryview) -> bytes:
    return struct.pack(">I", zlib.adler32(view))


class Framing(NamedTuple):
    """What wraps the raw-deflate pieces: header bytes for a level, trailer
    bytes (checksum of the *uncompressed* body) for a body view."""

    header: Callable[[int], bytes]
    trailer: Callable[[memoryview], bytes]


GZIP_FRAMING = Framing(_gzip_header, _gzip_trailer)
ZLIB_FRAMING = Framing(_zlib_header, _zlib_trailer)


# -- what one call did -----------------------------------------------------------


class SegmentTally:
    """Segments coded, bytes in and bytes out per strategy, for one call.

    Filled from pool threads by the block-parallel codecs, hence the lock.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._rows = {LZ77: [0, 0, 0], HUFFMAN: [0, 0, 0]}

    def add(self, strategy: str, in_bytes: int, out_bytes: int) -> None:
        with self._lock:
            row = self._rows[strategy]
            row[0] += 1
            row[1] += in_bytes
            row[2] += out_bytes

    def attrs(self) -> dict[str, int]:
        """Flat ``<strategy>_{segments,in_bytes,out_bytes}`` mapping (span
        attributes, test assertions)."""
        out: dict[str, int] = {}
        for strategy, (count, in_bytes, out_bytes) in self._rows.items():
            out[f"{strategy}_segments"] = count
            out[f"{strategy}_in_bytes"] = in_bytes
            out[f"{strategy}_out_bytes"] = out_bytes
        return out

    def publish(self) -> None:
        """Fold this call into the ``lossless.segments`` /
        ``lossless.segment_{in,out}_bytes`` counter families."""
        registry = get_registry()
        for strategy, (count, in_bytes, out_bytes) in self._rows.items():
            if count:
                registry.counter("lossless.segments", strategy=strategy).inc(count)
                registry.counter(
                    "lossless.segment_in_bytes", strategy=strategy
                ).inc(in_bytes)
                registry.counter(
                    "lossless.segment_out_bytes", strategy=strategy
                ).inc(out_bytes)


# -- segmentation and the per-segment coder ---------------------------------------


def plan_segments(
    nbytes: int, cuts: Sequence[int] | None = None, max_bytes: int | None = None
) -> list[tuple[int, int]]:
    """``(start, end)`` of every segment of an ``nbytes`` body, in order.

    A cut is kept when it leaves at least :data:`MIN_SEGMENT_BYTES` on both
    sides (so offsets outside the body drop out by themselves); segments
    longer than ``max_bytes`` are then split into ``max_bytes`` steps (the
    block-parallel codecs' work units).  There is always a last segment,
    the one ending at ``nbytes`` -- for an empty body it is ``(0, 0)`` --
    so there is always a piece to end the stream.  Depends on nothing but
    its arguments.
    """
    if nbytes == 0:
        return [(0, 0)]
    bounds = [0]
    for cut in sorted(cuts or ()):
        if cut - bounds[-1] >= MIN_SEGMENT_BYTES and nbytes - cut >= MIN_SEGMENT_BYTES:
            bounds.append(cut)
    bounds.append(nbytes)
    step = max_bytes or nbytes
    return [
        (start, min(start + step, end))
        for seg_start, end in zip(bounds, bounds[1:])
        for start in range(seg_start, end, step)
    ]


_ZLIB_STRATEGY = {LZ77: zlib.Z_DEFAULT_STRATEGY, HUFFMAN: zlib.Z_HUFFMAN_ONLY}


def _raw_deflate(
    data: memoryview,
    level: int,
    strategy: str,
    flush: int,
    history: memoryview | None = None,
) -> bytes:
    """``data`` as one raw-deflate piece; ``history`` (probes only) is what
    LZ77 may match into without coding it."""
    args = (level, zlib.DEFLATED, -zlib.MAX_WBITS, 8, _ZLIB_STRATEGY[strategy])
    coder = zlib.compressobj(*args, history) if history else zlib.compressobj(*args)
    return coder.compress(data) + coder.flush(flush)


def _probe(segment: memoryview, level: int) -> str:
    """The strategy that codes the probe slices of a segment longer than
    one slice smaller (see the module docstring).

    The slice in the middle of a segment shorter than two windows has half
    the segment behind it, not a whole window: it sees any repeat that can
    cover more than half of the segment, and what it misses (a repeat from
    further back than that) costs less than that half.
    """
    nbytes = segment.nbytes
    count = max(1, nbytes // PROBE_STRIDE_BYTES)
    sizes = {HUFFMAN: 0, LZ77: 0}
    for i in range(count):
        # the middle of the i-th of ``count`` equal parts
        at = (2 * i + 1) * nbytes // (2 * count) - PROBE_BYTES // 2
        sample = segment[at : at + PROBE_BYTES]
        history = segment[max(0, at - WINDOW_BYTES) : at]
        sizes[HUFFMAN] += len(_raw_deflate(sample, level, HUFFMAN, zlib.Z_FULL_FLUSH))
        sizes[LZ77] += len(
            _raw_deflate(sample, level, LZ77, zlib.Z_FULL_FLUSH, history)
        )
    return HUFFMAN if sizes[HUFFMAN] <= sizes[LZ77] else LZ77


def deflate_segment(
    segment: memoryview, level: int, tally: SegmentTally, final: bool = False
) -> bytes:
    """One raw-deflate piece for ``segment``, in the strategy the probe
    measures as smaller (see the module docstring).  The piece ends
    byte-aligned with ``Z_FULL_FLUSH``; the ``final`` one ends the stream
    (``Z_FINISH``) instead, so a body that is one LZ77 segment costs
    exactly what plain ``zlib.compress`` would."""
    flush = zlib.Z_FINISH if final else zlib.Z_FULL_FLUSH
    if segment.nbytes <= PROBE_BYTES:
        pieces = {s: _raw_deflate(segment, level, s, flush) for s in (HUFFMAN, LZ77)}
        strategy = HUFFMAN if len(pieces[HUFFMAN]) <= len(pieces[LZ77]) else LZ77
        piece = pieces[strategy]
    else:
        strategy = _probe(segment, level)
        piece = _raw_deflate(segment, level, strategy, flush)
    tally.add(strategy, segment.nbytes, len(piece))
    return piece


# -- the stream ---------------------------------------------------------------------


class Block(NamedTuple):
    """A run of consecutive segments coded by one worker call: the unit the
    block-parallel codecs hand to their pool."""

    segments: list[tuple[memoryview, bool]]  # (segment, ends the stream)
    nbytes: int


def _blocks(
    view: memoryview, cuts: Sequence[int] | None, block_bytes: int | None
) -> list[Block]:
    """The body's segments (none longer than ``block_bytes``), grouped into
    blocks of at least ``block_bytes``; one block when that is None."""
    step = block_bytes or max(view.nbytes, 1)
    blocks: list[Block] = []
    run: list[tuple[memoryview, bool]] = []
    size = 0
    for start, end in plan_segments(view.nbytes, cuts, max_bytes=block_bytes):
        run.append((view[start:end], end == view.nbytes))
        size += end - start
        if size >= step:
            blocks.append(Block(run, size))
            run, size = [], 0
    if run:
        blocks.append(Block(run, size))
    return blocks


def _deflate_block(block: Block, level: int, tally: SegmentTally) -> bytes:
    return b"".join(
        deflate_segment(segment, level, tally, final)
        for segment, final in block.segments
    )


def deflate_stream(
    view: memoryview,
    cuts: Sequence[int] | None,
    level: int,
    framing: Framing,
    tally: SegmentTally,
    block_bytes: int | None,
    map_blocks: Callable[[Callable[[Block], bytes], list[Block]], Iterable[bytes]],
) -> bytes:
    """The stream for ``view``: header, raw-deflate pieces in order,
    trailer; ``tally`` is filled and published on the way.

    ``map_blocks(fn, blocks)`` applies the block coder and returns the
    results in order -- the builtin ``map`` over one block for the serial
    codecs, the shared pool over ``block_bytes``-sized blocks for the
    parallel ones.  How segments are grouped into blocks never shows in
    the output: every segment is coded on its own.
    """
    pieces = map_blocks(
        partial(_deflate_block, level=level, tally=tally),
        _blocks(view, cuts, block_bytes),
    )
    stream = b"".join((framing.header(level), *pieces, framing.trailer(view)))
    tally.publish()
    return stream
