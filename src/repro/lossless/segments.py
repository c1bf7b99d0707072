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
segment, one of four strategies, cheapest first: *stored* (raw bytes in
deflate's stored blocks, which cost nothing to code), ``Z_HUFFMAN_ONLY``,
``Z_RLE`` (matches at distance 1 only: runs of one byte value, coded at
close to Huffman-only's speed, and the one way below Huffman's 1 bit per
byte short of LZ77) and LZ77 at the configured level:

* **Probe.**  Huffman-only, RLE and LZ77 code the same :data:`PROBE_BYTES`
  slices, one from the middle of every :data:`PROBE_STRIDE_BYTES` of the
  segment; a stored slice's size is known without coding it.  The smallest
  total wins, ties go to the cheaper strategy.  LZ77 codes each slice with
  the bytes that precede it in the segment, up to deflate's
  :data:`WINDOW_BYTES`, as its history -- exactly what it would have in the
  full pass, so a row that repeats 6 or 30 KB back is a match in the probe
  too, however short the slice; RLE needs no history.  A segment no longer
  than one slice is simply coded stored, Huffman-only and LZ77 and the
  smallest of the three pieces kept.
* **Confirmation.**  LZ77 costs five to ten times Huffman-only, so a
  segment longer than two windows that the first slices give to LZ77 is
  probed again, one slice per :data:`CONFIRM_STRIDE_BYTES`, each with its
  full window of history, and the new totals decide: one repetitive
  stretch under the middle slice no longer buys the whole segment LZ77.
  An RLE verdict on a segment longer than one window is confirmed the
  same way, with at least two slices: a slice of zero runs in the middle
  of a segment whose rest repeats a few KiB back would otherwise trade
  LZ77's matches for RLE's runs (a 36 573-byte plane: 77 against 79 bytes
  on the slice, 12 022 against 5 864 in full).
* **Stored.**  A 2 KiB slice pays a whole Huffman table where the full
  pass pays one per :data:`HUFFMAN_BLOCK_BYTES`, so a slice that comes out
  no smaller than stored does not prove the segment would.  Stored is
  chosen only where the segment's byte entropy plus :data:`TABLE_BYTES`
  per block -- what Huffman-only could at best get -- does not beat it
  either; otherwise the better of the other two is coded.

* **Stitching.**  Every segment is a raw-deflate piece -- stored blocks, or
  the output of its own ``compressobj`` ended with ``Z_FULL_FLUSH``
  (byte-aligned, no history across the seam) or, for the last one,
  ``Z_FINISH``; the pieces sit behind one gzip/zlib header and one
  CRC32/Adler-32 trailer over the whole body.  The result is a **single
  standard stream**: stock ``gzip.decompress``/``zlib.decompress`` -- every
  existing reader -- inflates it unchanged, and it does not record (or
  need) the cuts.

The choice is a pure function of (segment bytes, level): no clock, no
thread count, no state -- the emitted stream is reproducible across runs
and processes.  :func:`deflate_stream` is the one assembler of such a
stream; the serial and the block-parallel codecs differ only in the
``map`` they hand it.  DESIGN.md section 15 has the measurements behind
the constants.
"""

from __future__ import annotations

import struct
import threading
import zlib
from functools import partial
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from ..obs.metrics import get_registry

__all__ = [
    "PROBE_BYTES",
    "PROBE_STRIDE_BYTES",
    "CONFIRM_STRIDE_BYTES",
    "WINDOW_BYTES",
    "HUFFMAN_BLOCK_BYTES",
    "TABLE_BYTES",
    "MIN_SEGMENT_BYTES",
    "STORED",
    "LZ77",
    "HUFFMAN",
    "RLE",
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

#: One confirming slice per this many bytes (at least two) of a segment
#: longer than two windows that the first slices give to LZ77, or longer
#: than one that they give to RLE: one per window, so every stretch the
#: real pass codes with its own history gets a say.
CONFIRM_STRIDE_BYTES = WINDOW_BYTES

#: Literals per Huffman-only block at zlib's default memory level: each
#: block carries its own Huffman table.
HUFFMAN_BLOCK_BYTES = 16 * 1024

#: The table allowance per block when the byte histogram bounds what
#: Huffman-only could get: below what a table for ~256 literals costs, so
#: stored is never chosen where Huffman-only would code smaller.
TABLE_BYTES = 32

#: Payload bytes of one stored block (its LEN field is 16 bits).
_STORED_BLOCK_BYTES = 0xFFFF

#: Cuts closer together than this are dropped: a seam costs a flush marker
#: and a fresh Huffman table (~10-40 bytes) and a probe, which a 128-byte
#: plane of an ``averages`` table can never earn back.
MIN_SEGMENT_BYTES = 1024

STORED = "stored"
HUFFMAN = "huffman"
RLE = "rle"
LZ77 = "lz77"

#: Every strategy, cheapest first: the order ties are broken in.
_STRATEGIES = (STORED, HUFFMAN, RLE, LZ77)


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
        self._rows = {strategy: [0, 0, 0] for strategy in _STRATEGIES}

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


_ZLIB_STRATEGY = {
    LZ77: zlib.Z_DEFAULT_STRATEGY,
    RLE: zlib.Z_RLE,
    HUFFMAN: zlib.Z_HUFFMAN_ONLY,
}


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


def _stored_size(nbytes: int) -> int:
    """Bytes of :func:`_stored` for ``nbytes``: 5 per block, at least one."""
    return nbytes + 5 * max(1, -(-nbytes // _STORED_BLOCK_BYTES))


def _stored(data: memoryview, final: bool) -> bytes:
    """``data`` as stored blocks: a header byte (``BFINAL`` on the last
    block of the stream, type 00, padded to the byte), ``LEN`` and its
    complement, the bytes.  Starts and ends byte-aligned like every piece."""
    nbytes = data.nbytes
    parts: list = []
    for start in range(0, max(nbytes, 1), _STORED_BLOCK_BYTES):
        chunk = data[start : start + _STORED_BLOCK_BYTES]
        last = final and start + _STORED_BLOCK_BYTES >= nbytes
        parts.append(struct.pack("<BHH", last, len(chunk), len(chunk) ^ 0xFFFF))
        parts.append(chunk)
    return b"".join(parts)


def _probe_sizes(segment: memoryview, level: int, count: int) -> dict[str, int]:
    """What each strategy makes of ``count`` slices, one from the middle of
    each of ``count`` equal parts of the segment; LZ77 gets the bytes before
    a slice, up to a window, as its history."""
    nbytes = segment.nbytes
    sizes = {STORED: count * _stored_size(PROBE_BYTES), HUFFMAN: 0, RLE: 0, LZ77: 0}
    for i in range(count):
        at = (2 * i + 1) * nbytes // (2 * count) - PROBE_BYTES // 2
        sample = segment[at : at + PROBE_BYTES]
        history = segment[max(0, at - WINDOW_BYTES) : at]
        sizes[HUFFMAN] += len(_raw_deflate(sample, level, HUFFMAN, zlib.Z_FULL_FLUSH))
        sizes[RLE] += len(_raw_deflate(sample, level, RLE, zlib.Z_FULL_FLUSH))
        sizes[LZ77] += len(
            _raw_deflate(sample, level, LZ77, zlib.Z_FULL_FLUSH, history)
        )
    return sizes


def _smallest(sizes: dict[str, int]) -> str:
    """The strategy with the fewest bytes; ties go to the cheaper one."""
    return min((s for s in _STRATEGIES if s in sizes), key=sizes.__getitem__)


def _huffman_floor(segment: memoryview) -> float:
    """Roughly the fewest bytes Huffman-only can code ``segment`` in: its
    byte entropy, plus :data:`TABLE_BYTES` per block."""
    counts = np.bincount(np.frombuffer(segment, np.uint8), minlength=256)
    counts = counts[counts > 0]
    nbytes = segment.nbytes
    bits = nbytes * np.log2(nbytes) - float(counts @ np.log2(counts))
    return bits / 8 + TABLE_BYTES * -(-nbytes // HUFFMAN_BLOCK_BYTES)


def _probe(segment: memoryview, level: int) -> str:
    """The strategy for a segment longer than one slice (see the module
    docstring).

    The slice in the middle of a segment shorter than two windows has half
    the segment behind it, not a whole window: it sees any repeat that can
    cover more than half of the segment, and what it misses (a repeat from
    further back than that) costs less than that half.
    """
    nbytes = segment.nbytes
    sizes = _probe_sizes(segment, level, max(1, nbytes // PROBE_STRIDE_BYTES))
    strategy = _smallest(sizes)
    if (strategy == RLE and nbytes > WINDOW_BYTES) or (
        strategy == LZ77 and nbytes > 2 * WINDOW_BYTES
    ):
        sizes = _probe_sizes(segment, level, max(2, nbytes // CONFIRM_STRIDE_BYTES))
        strategy = _smallest(sizes)
    if strategy == STORED and _huffman_floor(segment) < _stored_size(nbytes):
        del sizes[STORED]
        strategy = _smallest(sizes)
    return strategy


def deflate_segment(
    segment: memoryview, level: int, tally: SegmentTally, final: bool = False
) -> bytes:
    """One raw-deflate piece for ``segment``, in the strategy the probe
    measures as smallest (see the module docstring).  The piece ends
    byte-aligned; the ``final`` one ends the stream instead (``BFINAL``),
    so a body that is one LZ77 segment costs exactly what plain
    ``zlib.compress`` would."""
    flush = zlib.Z_FINISH if final else zlib.Z_FULL_FLUSH
    if segment.nbytes <= PROBE_BYTES:
        pieces = {s: _raw_deflate(segment, level, s, flush) for s in (HUFFMAN, LZ77)}
        pieces[STORED] = _stored(segment, final)
        strategy = _smallest({s: len(piece) for s, piece in pieces.items()})
        piece = pieces[strategy]
    elif (strategy := _probe(segment, level)) == STORED:
        piece = _stored(segment, final)
    else:
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
