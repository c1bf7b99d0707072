"""Tests for the segmented, content-adaptive deflate behind gzip/zlib(-mt)."""

from __future__ import annotations

import gzip
import hashlib
import os
import subprocess
import sys
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
import repro.ckpt.temporal as temporal
from repro.apps.climate import ClimateProxy
from repro.config import TemporalConfig
from repro.exceptions import DecompressionError
from repro.lossless import get_codec, segments
from repro.lossless.segments import (
    HUFFMAN,
    LZ77,
    MIN_SEGMENT_BYTES,
    PROBE_BYTES,
    PROBE_STRIDE_BYTES,
    RLE,
    STORED,
    WINDOW_BYTES,
    SegmentTally,
    deflate_segment,
    plan_segments,
)
from repro.obs.metrics import get_registry

DEFLATE_FAMILY = ["gzip", "zlib", "gzip-mt", "zlib-mt"]
STOCK_INFLATE = {
    "gzip": gzip.decompress,
    "gzip-mt": gzip.decompress,
    "zlib": zlib.decompress,
    "zlib-mt": zlib.decompress,
}

RNG = np.random.default_rng(20260926)
#: skewed histogram, no repeats: Huffman beats LZ77 (a quantized index stream)
HUFFMAN_FRIENDLY = RNG.normal(0.0, 9.0, 60_000).astype(np.int8).tobytes()
#: long repeats: LZ77 wins by a mile
LZ77_FRIENDLY = (b"checkpoint generation " * 4_000)[:60_000]
INCOMPRESSIBLE = RNG.bytes(30_000)


def runs_plane(nbytes: int, seed: int) -> bytes:
    """Zero runs broken by one small value in 40 bytes (a delta plane that
    barely moved): far below Huffman's 1 bit per byte."""
    rng = np.random.default_rng(seed)
    plane = np.zeros(nbytes, np.uint8)
    hits = rng.choice(nbytes, nbytes // 40, replace=False)
    plane[hits] = rng.integers(1, 8, hits.size)
    return plane.tobytes()


#: zero runs: RLE beats Huffman-only and LZ77
RLE_FRIENDLY = runs_plane(60_000, 41)
STRATEGIES = (STORED, HUFFMAN, RLE, LZ77)


def raw_size(data: bytes, strategy: int) -> int:
    """Bytes of ``data`` as one flushed raw-deflate piece, level 6."""
    coder = zlib.compressobj(6, zlib.DEFLATED, -15, 8, strategy)
    return len(coder.compress(data) + coder.flush(zlib.Z_FULL_FLUSH))


def inflate_raw(pieces: bytes) -> bytes:
    """Inflate flushed (not finished) raw-deflate pieces: append the final
    empty block that would end their stream."""
    return zlib.decompress(pieces + b"\x03\x00", wbits=-zlib.MAX_WBITS)


class TestPlanSegments:
    def test_no_cuts_is_one_segment(self):
        assert plan_segments(10_000) == [(0, 10_000)]
        assert plan_segments(10_000, []) == [(0, 10_000)]

    def test_empty_body_is_one_empty_segment(self):
        """There is always a last segment to end the stream."""
        assert plan_segments(0) == [(0, 0)]
        assert plan_segments(0, [0, 5], max_bytes=64) == [(0, 0)]

    def test_cuts_become_boundaries(self):
        assert plan_segments(10_000, [2_000, 6_000]) == [
            (0, 2_000), (2_000, 6_000), (6_000, 10_000),
        ]

    def test_order_and_duplicates_do_not_matter(self):
        assert plan_segments(10_000, [6_000, 2_000, 6_000]) == plan_segments(
            10_000, [2_000, 6_000]
        )

    def test_short_segments_are_merged_forward(self):
        """Eight 128-byte planes of an averages table become one segment;
        the seam before the next big section survives."""
        cuts = [4_000 + 128 * k for k in range(8)] + [4_000 + 1_024]
        assert plan_segments(20_000, cuts) == [
            (0, 4_000), (4_000, 5_024), (5_024, 20_000),
        ]

    def test_short_head_and_tail_are_absorbed(self):
        n = 10_000
        assert plan_segments(n, [10, n - 10]) == [(0, n)]
        assert plan_segments(n, [MIN_SEGMENT_BYTES, n - MIN_SEGMENT_BYTES]) == [
            (0, MIN_SEGMENT_BYTES),
            (MIN_SEGMENT_BYTES, n - MIN_SEGMENT_BYTES),
            (n - MIN_SEGMENT_BYTES, n),
        ]

    def test_offsets_outside_the_body_are_ignored(self):
        assert plan_segments(5_000, [-3, 0, 5_000, 9_999]) == [(0, 5_000)]

    def test_max_bytes_splits_long_segments_only(self):
        assert plan_segments(10_000, [3_000], max_bytes=4_000) == [
            (0, 3_000), (3_000, 7_000), (7_000, 10_000),
        ]

    @settings(max_examples=80, deadline=None)
    @given(
        nbytes=st.integers(0, 50_000),
        cuts=st.lists(st.integers(-10, 60_000), max_size=30),
        max_bytes=st.one_of(st.none(), st.integers(1, 20_000)),
    )
    def test_segments_tile_the_body(self, nbytes, cuts, max_bytes):
        spans = plan_segments(nbytes, cuts, max_bytes)
        edges = [0] + [end for _, end in spans]
        assert [start for start, _ in spans] == edges[:-1] and edges[-1] == nbytes
        assert all(end > start for start, end in spans) or spans == [(0, 0)]
        if max_bytes:
            assert all(e - s <= max_bytes for s, e in spans)


class TestStrategyChoice:
    def _code(self, data: bytes, level: int = 6):
        tally = SegmentTally()
        piece = deflate_segment(memoryview(data), level, tally)
        assert inflate_raw(piece) == data
        return piece, tally.attrs()

    def test_index_stream_goes_huffman_only(self):
        piece, split = self._code(HUFFMAN_FRIENDLY)
        assert split["huffman_segments"] == 1 and split["lz77_segments"] == 0
        assert split["huffman_in_bytes"] == len(HUFFMAN_FRIENDLY)
        assert split["huffman_out_bytes"] == len(piece)
        # and it really is the smaller coding of this segment
        assert len(piece) < len(zlib.compress(HUFFMAN_FRIENDLY, 6))

    def test_repetitive_stream_keeps_lz77(self):
        piece, split = self._code(LZ77_FRIENDLY)
        assert split["lz77_segments"] == 1 and split["huffman_segments"] == 0
        assert len(piece) < len(LZ77_FRIENDLY) // 50

    def test_run_dominated_plane_goes_rle(self):
        piece, split = self._code(RLE_FRIENDLY)
        assert split["rle_segments"] == 1
        assert split["rle_out_bytes"] == len(piece)
        assert len(piece) <= raw_size(RLE_FRIENDLY, zlib.Z_DEFAULT_STRATEGY)
        assert len(piece) < raw_size(RLE_FRIENDLY, zlib.Z_HUFFMAN_ONLY) // 2

    def test_incompressible_tie_goes_to_the_cheaper_strategy(self):
        piece, split = self._code(INCOMPRESSIBLE)
        assert split["stored_segments"] == 1
        assert len(piece) == len(INCOMPRESSIBLE) + 5  # one stored block

    def test_nearly_incompressible_plane_that_huffman_shrinks_is_not_stored(self):
        """Every 2 KiB slice comes out stored -- its Huffman table is too
        dear for 2 KiB -- but over the whole segment Huffman-only saves 2 %:
        the byte histogram keeps it from being stored."""
        rng = np.random.default_rng(11)
        weights = np.ones(256)
        weights[:64] = 3.0  # a quarter of the byte values, three times as often
        plane = rng.choice(256, 40_000, p=weights / weights.sum()).astype(np.uint8)
        data = plane.tobytes()
        slice_huffman = zlib.compressobj(6, zlib.DEFLATED, -15, 8, zlib.Z_HUFFMAN_ONLY)
        middle = data[20_000 - PROBE_BYTES // 2 :][:PROBE_BYTES]
        sliced = slice_huffman.compress(middle) + slice_huffman.flush(zlib.Z_FULL_FLUSH)
        assert len(sliced) > PROBE_BYTES + 5  # the slice alone says "stored"
        piece, split = self._code(data)
        assert split["huffman_segments"] == 1
        assert len(piece) < 0.99 * len(data)

    @pytest.mark.parametrize("nbytes", [0, 1, 7, 100, PROBE_BYTES - 1, PROBE_BYTES])
    @pytest.mark.parametrize("source", [HUFFMAN_FRIENDLY, LZ77_FRIENDLY, RLE_FRIENDLY])
    def test_segment_shorter_than_the_probe_ships_the_smaller_coding(
        self, nbytes, source
    ):
        """No estimate involved: the whole segment was coded both ways, and
        a stored block's size is known."""
        data = source[:nbytes]
        piece, _ = self._code(data)
        both = [
            raw_size(data, strategy)
            for strategy in (zlib.Z_DEFAULT_STRATEGY, zlib.Z_HUFFMAN_ONLY)
        ]
        assert len(piece) == min(*both, nbytes + 5)

    @pytest.mark.parametrize("level", [0, 1, 9])
    def test_every_level_roundtrips(self, level):
        for data in (HUFFMAN_FRIENDLY, LZ77_FRIENDLY, RLE_FRIENDLY, INCOMPRESSIBLE, b""):
            self._code(data, level)

    def test_final_segment_ends_the_stream(self):
        piece = deflate_segment(memoryview(LZ77_FRIENDLY), 6, SegmentTally(), final=True)
        assert zlib.decompress(piece, wbits=-zlib.MAX_WBITS) == LZ77_FRIENDLY

    def test_one_lz77_segment_costs_what_plain_zlib_costs(self):
        """Temporal deltas and other uncut bodies pay nothing for the
        machinery: same bytes as ``zlib.compress``."""
        for backend in ("zlib", "zlib-mt"):
            assert get_codec(backend).compress(LZ77_FRIENDLY) == zlib.compress(
                LZ77_FRIENDLY, 6
            )

    def test_choice_is_a_pure_function_of_bytes_and_level(self):
        first = self._code(HUFFMAN_FRIENDLY + LZ77_FRIENDLY)
        assert self._code(bytearray(HUFFMAN_FRIENDLY + LZ77_FRIENDLY)) == first


class TestProbeSeesWhatTheRealPassSees:
    """The probe slice is a few KiB, deflate's window is 32 KiB: LZ77 must
    be judged with that window behind the slice, or every array whose rows
    repeat further apart than the slice ships Huffman-only at 10-80x the
    size.  Bound: within 5 % of stock ``zlib.compress`` (one LZ77 pass)."""

    @staticmethod
    def _rows(period: int, repeats: int) -> bytes:
        return np.random.default_rng(period).bytes(period) * repeats

    @pytest.mark.parametrize(
        "period", [PROBE_BYTES + 1, 4_097, 6_000, 8_192, 20_000, WINDOW_BYTES - 300]
    )
    @pytest.mark.parametrize("backend", DEFLATE_FAMILY)
    def test_flat_body_with_far_repeats(self, backend, period):
        body = self._rows(period, 2_000_000 // period)
        codec = get_codec(backend, threads=2)
        blob = codec.compress(body)
        assert STOCK_INFLATE[backend](blob) == body
        # the threaded codecs start every block without history, as they
        # always did: their yardstick is stock zlib over the same blocks
        step = codec.effective_block_bytes(len(body)) if "-mt" in backend else len(body)
        stock = sum(
            len(zlib.compress(body[i : i + step], 6)) for i in range(0, len(body), step)
        )
        assert len(blob) <= 1.05 * stock

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int32, np.float64])
    @pytest.mark.parametrize("backend", ["gzip", "zlib"])
    def test_byte_plane_body_with_far_repeats(self, backend, dtype):
        """Rows of 6000 items repeat 6000 bytes apart in every plane."""
        from repro.ckpt.manager import deserialize_array, serialize_array_lossless

        row = np.frombuffer(
            np.random.default_rng(5).bytes(6_000 * np.dtype(dtype).itemsize), dtype
        )
        arr = np.tile(row, (200, 1))
        blob = serialize_array_lossless(arr, backend)
        assert np.array_equal(
            deserialize_array(blob).view(np.uint8), arr.view(np.uint8)
        )
        assert len(blob) <= 1.05 * len(zlib.compress(arr.tobytes(), 6))
        assert len(blob) < arr.nbytes // 10

    def test_segment_that_changes_character_is_probed_all_along(self):
        """Noise, then repeating rows, in one uncut segment: a single
        mid-segment slice would see only one of the two."""
        noise = np.random.default_rng(8).bytes(3 * PROBE_STRIDE_BYTES)
        for body in (
            noise + self._rows(8_192, 64),
            self._rows(8_192, 64) + noise,
            noise + self._rows(8_192, 64) + noise,
        ):
            blob = get_codec("zlib").compress(body)
            assert zlib.decompress(blob) == body
            assert len(blob) <= 1.05 * len(zlib.compress(body, 6))

    def test_far_repeats_beyond_the_window_are_nobodys_to_find(self):
        """Stock deflate cannot reach them either: still Huffman-only, and
        no larger than the stock stream."""
        body = self._rows(WINDOW_BYTES + 5_000, 30)
        codec = get_codec("zlib")
        blob = codec.compress(body)
        assert codec.last_segments.attrs()["lz77_segments"] == 0
        assert len(blob) <= len(zlib.compress(body, 6))


class TestProbeJudgesTheWholeSegment:
    """A segment longer than two windows that the middle slice gives to
    LZ77 is probed again along all of it before LZ77 is paid for; so is
    one longer than a window that the middle slice gives to RLE."""

    @pytest.mark.parametrize("period", [4_096, 6_000, 10_000, 16_000])
    def test_runs_under_the_middle_slice_do_not_buy_rle(self, period):
        """Rows that repeat ``period`` bytes back, and a stretch of zero
        runs right under the middle slice: that slice alone says RLE, the
        segment is LZ77's."""
        body = bytearray((np.random.default_rng(period).bytes(period) * 12)[:40_000])
        body[18_500:21_500] = RLE_FRIENDLY[:3_000]
        body = bytes(body)
        middle = body[20_000 - PROBE_BYTES // 2 :][:PROBE_BYTES]
        coder = zlib.compressobj(6, zlib.DEFLATED, -15, 8, zlib.Z_DEFAULT_STRATEGY,
                                 body[: 20_000 - PROBE_BYTES // 2])
        with_history = len(coder.compress(middle) + coder.flush(zlib.Z_FULL_FLUSH))
        assert raw_size(middle, zlib.Z_RLE) < with_history  # the slice says RLE
        assert len(body) > WINDOW_BYTES  # long enough to be confirmed
        tally = SegmentTally()
        piece = deflate_segment(memoryview(body), 6, tally)
        assert inflate_raw(piece) == body
        split = tally.attrs()
        assert split["lz77_segments"] == 1 and split["rle_segments"] == 0
        assert 2 * len(piece) < raw_size(body, zlib.Z_RLE)

    def test_no_temporal_delta_ships_lz77_where_huffman_is_smaller(self, monkeypatch):
        """One keyframe interval of the climate proxy through the temporal
        path: the filtered ``temperature`` delta is one ~190 KB segment
        whose middle holds its one repetitive stretch; Huffman-only codes
        the whole of it 2-9 % smaller from chain position 4 on."""
        coded: list[tuple[str, bytes]] = []
        code_segment = segments.deflate_segment

        def recording_segment(segment, level, tally, final=False):
            own = SegmentTally()
            piece = code_segment(segment, level, own, final)
            (strategy,) = [
                key.removesuffix("_segments")
                for key, count in own.attrs().items()
                if key.endswith("_segments") and count
            ]
            tally.add(strategy, segment.nbytes, len(piece))
            coded.append((strategy, bytes(segment)))
            return piece

        monkeypatch.setattr(segments, "deflate_segment", recording_segment)
        app = ClimateProxy(seed=2015)
        for _ in range(8):
            app.step()
        config = TemporalConfig(error_bound=1e-3, keyframe_every=8)
        engine = temporal.TemporalEngine(config)
        shipped: list[tuple[str, str, bytes]] = []
        for step in range(1, config.keyframe_every + 1):
            app.step()
            for name, arr in app.state_arrays().items():
                if name not in ("modulator", "step"):
                    coded.clear()
                    if not engine.encode(name, arr, step).is_keyframe:
                        shipped += [(name, strategy, data) for strategy, data in coded]
            engine.commit(step)
        assert len({name for name, _, _ in shipped}) == 5

        def size(data: bytes, strategy: int) -> int:
            coder = zlib.compressobj(6, zlib.DEFLATED, -15, 8, strategy)
            return len(coder.compress(data) + coder.flush(zlib.Z_FULL_FLUSH))

        mispicked = [
            (name, len(data))
            for name, strategy, data in shipped
            if strategy == LZ77
            and size(data, zlib.Z_HUFFMAN_ONLY) <= 0.98 * size(data, zlib.Z_DEFAULT_STRATEGY)
        ]
        assert mispicked == []


BODIES = {
    "all-huffman": (HUFFMAN_FRIENDLY, [20_000, 40_000]),
    "all-lz77": (LZ77_FRIENDLY, [20_000, 40_000]),
    "single-segment": (HUFFMAN_FRIENDLY + LZ77_FRIENDLY, None),
    "mixed": (
        LZ77_FRIENDLY + HUFFMAN_FRIENDLY + INCOMPRESSIBLE + LZ77_FRIENDLY[:5_000],
        [60_000, 120_000, 150_000],
    ),
    "segments-shorter-than-the-probe": (
        HUFFMAN_FRIENDLY[:1_800] + LZ77_FRIENDLY[:2_000] + INCOMPRESSIBLE[:1_500],
        [1_800, 3_800],
    ),
    "empty": (b"", [0]),
    "one-byte": (b"x", None),
    #: over one stored block's 65535 bytes, cut once
    "incompressible": (RNG.bytes(150_000), [70_000]),
    "runs": (RLE_FRIENDLY + runs_plane(50_000, 43), [60_000]),
}


@pytest.mark.parametrize("backend", DEFLATE_FAMILY)
@pytest.mark.parametrize("body_id", sorted(BODIES))
class TestOneStandardStream:
    def test_stock_library_inflates_it(self, backend, body_id):
        body, cuts = BODIES[body_id]
        codec = get_codec(backend, threads=2, block_bytes=16_384)
        blob = codec.compress(body, cuts)
        assert STOCK_INFLATE[backend](blob) == body
        assert codec.decompress(blob) == body

    def test_strategy_split_matches_the_body(self, backend, body_id):
        body, cuts = BODIES[body_id]
        codec = get_codec(backend, threads=2, block_bytes=1 << 20)
        codec.compress(body, cuts)
        split = codec.last_segments.attrs()
        assert sum(split[f"{s}_in_bytes"] for s in STRATEGIES) == len(body)
        if body_id == "all-huffman":
            assert split["lz77_segments"] == 0 and split["huffman_segments"] == 3
        if body_id == "all-lz77":
            assert split["huffman_segments"] == 0 and split["lz77_segments"] == 3
        if body_id == "single-segment":
            assert sum(split[f"{s}_segments"] for s in STRATEGIES) == 1
        if body_id == "mixed":
            assert split["lz77_segments"] == 2 and split["huffman_segments"] == 1
            assert split["stored_segments"] == 1
        if body_id == "incompressible":
            assert split["stored_segments"] == 2
            assert split["stored_out_bytes"] == len(body) + 5 * 4  # 2 + 2 blocks
        if body_id == "runs":
            assert split["rle_segments"] == 2
            assert split["rle_in_bytes"] == len(body)


class TestCutsAreOnlyAHint:
    def test_mixed_body_is_smaller_and_decodes_the_same(self):
        body, cuts = BODIES["mixed"]
        codec = get_codec("zlib")
        with_cuts, without = codec.compress(body, cuts), codec.compress(body)
        assert zlib.decompress(with_cuts) == zlib.decompress(without) == body
        assert len(with_cuts) < len(without)

    @pytest.mark.parametrize("backend", ["none", "rle", "xor-delta"])
    def test_other_codecs_ignore_them(self, backend):
        body, cuts = BODIES["mixed"]
        codec = get_codec(backend)
        assert codec.compress(body, cuts) == codec.compress(body)

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.binary(max_size=20_000),
        cuts=st.lists(st.integers(0, 21_000), max_size=12),
        backend=st.sampled_from(DEFLATE_FAMILY),
        level=st.sampled_from([0, 1, 6, 9]),
    )
    def test_any_cuts_any_data_roundtrip(self, data, cuts, backend, level):
        codec = get_codec(backend, level=level, threads=2, block_bytes=4_096)
        blob = codec.compress(data, cuts)
        assert STOCK_INFLATE[backend](blob) == data
        assert codec.compress(data, cuts) == blob


def blobs_across_thread_counts(backend: str, block_bytes: int, body_id: str) -> set:
    body, cuts = BODIES[body_id]
    return {
        get_codec(backend, threads=t, block_bytes=block_bytes).compress(body, cuts)
        for t in (1, 2, 4)
    }


class TestDeterminism:
    @pytest.mark.parametrize("backend", ["gzip-mt", "zlib-mt"])
    @pytest.mark.parametrize("block_bytes", [4_096, 1 << 20])
    def test_bytes_identical_across_thread_counts(self, backend, block_bytes):
        assert len(blobs_across_thread_counts(backend, block_bytes, "mixed")) == 1

    @pytest.mark.parametrize("backend", ["gzip-mt", "zlib-mt"])
    @pytest.mark.parametrize("block_bytes", [4_096, 1 << 20])
    def test_rle_bytes_identical_across_thread_counts(self, backend, block_bytes):
        assert len(blobs_across_thread_counts(backend, block_bytes, "runs")) == 1

    @pytest.mark.parametrize("backend", ["gzip-mt", "zlib-mt"])
    @pytest.mark.parametrize("block_bytes", [4_096, 1 << 20])
    def test_stored_bytes_identical_across_thread_counts(self, backend, block_bytes):
        body, cuts = BODIES["incompressible"]
        blobs = set()
        for threads in (1, 2, 4):
            codec = get_codec(backend, threads=threads, block_bytes=block_bytes)
            blobs.add(codec.compress(body, cuts))
            assert codec.last_segments.attrs()["stored_segments"] >= 1
        assert len(blobs) == 1

    def test_mt_and_serial_agree_when_nothing_is_split(self):
        """Same segments, same per-segment coder: with the block size above
        every segment the threaded codecs emit the serial codecs' bytes."""
        body, cuts = BODIES["mixed"]
        for serial, threaded in (("gzip", "gzip-mt"), ("zlib", "zlib-mt")):
            assert get_codec(threaded, threads=4).compress(body, cuts) == get_codec(
                serial
            ).compress(body, cuts)

    def test_bytes_identical_across_interpreter_processes(self):
        """The probe reads no clock, no hash seed, no thread count: a
        second interpreter (different PYTHONHASHSEED) emits the same
        checkpoint bytes."""
        script = (
            "import hashlib, numpy as np\n"
            "from repro import CompressionConfig, WaveletCompressor\n"
            "x = np.arange(96 * 64, dtype=np.float64).reshape(96, 64)\n"
            "arr = np.sin(x * 0.013) * 50 + np.cos(x * x * 1e-5) * 7\n"
            "h = hashlib.sha256()\n"
            "for backend in ('gzip', 'zlib', 'gzip-mt', 'zlib-mt'):\n"
            "    cfg = CompressionConfig(backend=backend, backend_threads=2, n_bins=64)\n"
            "    h.update(WaveletCompressor(cfg).compress(arr))\n"
            "print(h.hexdigest())\n"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        digests = set()
        for hash_seed in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed}
            out = subprocess.run(
                [sys.executable, "-c", script],
                env=env, capture_output=True, text=True, timeout=120, check=True,
            )
            digests.add(out.stdout.strip())
        assert len(digests) == 1
        assert len(next(iter(digests))) == hashlib.sha256().digest_size * 2


class TestObservability:
    def test_counter_families_split_by_strategy(self):
        registry = get_registry()

        def snapshot():
            return {
                (name, strategy): registry.counter(name, strategy=strategy).value
                for name in (
                    "lossless.segments",
                    "lossless.segment_in_bytes",
                    "lossless.segment_out_bytes",
                )
                for strategy in STRATEGIES
            }

        before = snapshot()
        mixed, cuts = BODIES["mixed"]
        body = mixed + RLE_FRIENDLY
        codec = get_codec("gzip")
        blob = codec.compress(body, [*cuts, len(mixed)])
        delta = {k: v - before[k] for k, v in snapshot().items()}
        split = codec.last_segments.attrs()
        for strategy in STRATEGIES:
            assert delta[("lossless.segments", strategy)] == split[f"{strategy}_segments"]
            assert delta[("lossless.segment_in_bytes", strategy)] == split[f"{strategy}_in_bytes"]
            assert delta[("lossless.segment_out_bytes", strategy)] == split[f"{strategy}_out_bytes"]
        assert split["stored_segments"] >= 1 and split["rle_segments"] == 1
        pieces = sum(split[f"{s}_out_bytes"] for s in STRATEGIES)
        assert pieces == len(blob) - 10 - 8  # gzip header, trailer


class TestDamagedStoredStreams:
    """Stored blocks carry no code to trip over: a damaged stream must
    still fail loudly, on the length complement or the trailer."""

    @staticmethod
    def _stored_blob(backend: str) -> tuple[bytes, bytes]:
        body, cuts = BODIES["incompressible"]
        codec = get_codec(backend)
        blob = codec.compress(body, cuts)
        assert codec.last_segments.attrs()["stored_segments"] == 2
        return body, blob

    @pytest.mark.parametrize("backend", DEFLATE_FAMILY)
    @pytest.mark.parametrize("damage", ["truncated", "flipped-data", "flipped-length"])
    def test_codec_raises(self, backend, damage):
        _body, blob = self._stored_blob(backend)
        header = 10 if backend.startswith("gzip") else 2
        bad = bytearray(blob)
        if damage == "truncated":
            bad = bad[: len(bad) // 2]
        elif damage == "flipped-data":
            bad[header + 5 + 1_000] ^= 0x10  # a payload byte: the trailer catches it
        else:
            bad[header + 1] ^= 0x01  # LEN no longer matches NLEN
        with pytest.raises(DecompressionError):
            get_codec(backend).decompress(bytes(bad))

    @pytest.mark.parametrize("damage", ["truncated", "flipped"])
    def test_container_raises(self, damage):
        from repro.ckpt.manager import deserialize_array, serialize_array_lossless

        arr = np.frombuffer(BODIES["incompressible"][0], np.uint8)
        blob = serialize_array_lossless(arr, "zlib")
        assert np.array_equal(deserialize_array(blob), arr)
        bad = bytearray(blob)
        if damage == "truncated":
            bad = bad[:-40_000]
        else:
            bad[len(bad) // 2] ^= 0x04
        with pytest.raises(DecompressionError):
            deserialize_array(bytes(bad))


class TestDamagedRleStreams:
    """A damaged RLE stream fails as loudly as any other: on the code it
    breaks or on the trailer."""

    @pytest.mark.parametrize("backend", DEFLATE_FAMILY)
    @pytest.mark.parametrize("damage", ["truncated", "flipped"])
    def test_codec_raises(self, backend, damage):
        body, cuts = BODIES["runs"]
        codec = get_codec(backend)
        blob = codec.compress(body, cuts)
        assert codec.last_segments.attrs()["rle_segments"] == 2
        bad = bytearray(blob)
        if damage == "truncated":
            bad = bad[: len(bad) // 2]
        else:
            bad[len(bad) // 3] ^= 0x10
        with pytest.raises(DecompressionError):
            get_codec(backend).decompress(bytes(bad))
