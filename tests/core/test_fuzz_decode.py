"""Seeded fuzz corpus for the decode path: strict failure taxonomy.

Stricter than the corruption fuzzing in ``test_corruption_fuzz``: every
mutated blob must either decode bit-identically or raise an exception from
the :class:`~repro.exceptions.DecompressionError` family (``FormatError``
or ``IntegrityError``).  Foreign exceptions -- ``IndexError``,
``struct.error``, raw ``ValueError``, ``TypeError``, ``KeyError`` -- mean
a parser trusted attacker-controlled lengths, and a silently-wrong array
means a checksum hole.  The corpus is seeded, so a failure reproduces.
"""

from __future__ import annotations

import json
import struct
import zlib

import numpy as np
import pytest

from repro import CompressionConfig, WaveletCompressor
from repro.ckpt.manager import deserialize_array, serialize_array_lossless
from repro.core.chunked import chunked_compress, chunked_decompress, inspect_chunked
from repro.core.container import (
    BODY_MAGIC,
    peek_header,
    read_body,
    unwrap_envelope,
    wrap_envelope,
    write_body,
)
from repro.exceptions import DecompressionError, FormatError, IntegrityError

from .test_format_stability import GOLDEN_BLOB_B64, golden_v1_blob

SEED = 20260806


@pytest.fixture(scope="module")
def pipeline_blob():
    rng = np.random.default_rng(SEED)
    arr = np.cumsum(rng.standard_normal((24, 12)), axis=0)
    return arr, WaveletCompressor(CompressionConfig(n_bins=32)).compress(arr)


@pytest.fixture(scope="module")
def chunked_blob():
    rng = np.random.default_rng(SEED + 1)
    arr = np.cumsum(rng.standard_normal((48, 6)), axis=0)
    return arr, chunked_compress(arr, chunk_rows=16)


def _assert_taxonomy(decode, blob, expected, label):
    """Decode must be bit-identical or raise DecompressionError -- nothing
    else."""
    try:
        out = decode(blob)
    except DecompressionError:
        return "rejected"
    except BaseException as exc:  # noqa: BLE001 - the point of the test
        raise AssertionError(
            f"{label}: decode leaked {type(exc).__name__}: {exc}"
        ) from exc
    if out.shape == expected.shape and np.array_equal(out, expected):
        return "ok"
    raise AssertionError(f"{label}: silently wrong array")


def _mutations(blob: bytes, rng: np.random.Generator, n: int):
    """A seeded stream of (label, mutated-bytes) pairs."""
    for i in range(n):
        kind = int(rng.integers(0, 4))
        if kind == 0:  # truncation
            cut = int(rng.integers(0, len(blob)))
            yield f"mut{i}:truncate@{cut}", blob[:cut]
        elif kind == 1:  # single bit flip
            pos = int(rng.integers(0, len(blob)))
            bit = int(rng.integers(0, 8))
            m = bytearray(blob)
            m[pos] ^= 1 << bit
            yield f"mut{i}:bitflip@{pos}.{bit}", bytes(m)
        elif kind == 2:  # byte-range scramble
            lo = int(rng.integers(0, len(blob)))
            hi = min(len(blob), lo + int(rng.integers(1, 64)))
            m = bytearray(blob)
            m[lo:hi] = rng.integers(0, 256, size=hi - lo, dtype=np.uint8).tobytes()
            yield f"mut{i}:scramble@{lo}:{hi}", bytes(m)
        else:  # splice: duplicate a slice elsewhere (lies about structure)
            lo = int(rng.integers(0, len(blob)))
            hi = min(len(blob), lo + int(rng.integers(1, 48)))
            at = int(rng.integers(0, len(blob)))
            yield f"mut{i}:splice@{lo}:{hi}->{at}", blob[:at] + blob[lo:hi] + blob[at:]


class TestPipelineCorpus:
    def test_seeded_corpus(self, pipeline_blob):
        arr, blob = pipeline_blob
        expected = WaveletCompressor.decompress(blob)
        rng = np.random.default_rng(SEED + 2)
        outcomes = {"ok": 0, "rejected": 0}
        for label, mutated in _mutations(blob, rng, 400):
            outcomes[
                _assert_taxonomy(WaveletCompressor.decompress, mutated, expected, label)
            ] += 1
        assert outcomes["rejected"] > 0  # the corpus actually bites

    def test_empty_and_tiny_inputs(self, pipeline_blob):
        arr, blob = pipeline_blob
        expected = WaveletCompressor.decompress(blob)
        for n in range(0, 12):
            _assert_taxonomy(
                WaveletCompressor.decompress, blob[:n], expected, f"tiny{n}"
            )
            _assert_taxonomy(
                WaveletCompressor.decompress, b"\x00" * n, expected, f"zeros{n}"
            )


class TestPlaneSectionCorpora:
    """The same matrices over blobs whose sections are stored as byte
    planes of every width (8: rawvals/averages, 2: uint16 indices, 4:
    lossless float32 data), and over a version-1 blob, which must keep
    failing just as cleanly as it keeps decoding."""

    def _corpus(self, decode, blob, seed, n=300):
        expected = decode(blob)
        rng = np.random.default_rng(seed)
        outcomes = {"ok": 0, "rejected": 0}
        for label, mutated in _mutations(blob, rng, n):
            outcomes[_assert_taxonomy(decode, mutated, expected, label)] += 1
        assert outcomes["rejected"] > 0

    def test_uint16_index_planes(self):
        rng = np.random.default_rng(SEED + 10)
        arr = np.cumsum(rng.standard_normal((32, 24)), axis=0) * 30.0
        config = CompressionConfig(quantizer="bounded", error_bound=0.05, levels=1)
        blob = WaveletCompressor(config).compress(arr)
        assert peek_header(blob)["index_dtype"] == "uint16"
        self._corpus(WaveletCompressor.decompress, blob, SEED + 11)

    def test_lossless_float32_planes(self):
        rng = np.random.default_rng(SEED + 12)
        arr = np.cumsum(rng.standard_normal((40, 9)), axis=0).astype(np.float32)
        blob = serialize_array_lossless(arr, "gzip")
        self._corpus(deserialize_array, blob, SEED + 13)

    def test_version_1_blob(self):
        self._corpus(WaveletCompressor.decompress, golden_v1_blob(GOLDEN_BLOB_B64), SEED + 14)


class TestChunkedCorpus:
    def test_seeded_corpus(self, chunked_blob):
        arr, blob = chunked_blob
        expected = chunked_decompress(blob)
        rng = np.random.default_rng(SEED + 3)
        for label, mutated in _mutations(blob, rng, 300):
            _assert_taxonomy(chunked_decompress, mutated, expected, label)

    def test_length_lying_chunk_count(self, chunked_blob):
        """Header claims more/fewer chunks than the stream holds."""
        arr, blob = chunked_blob
        expected = chunked_decompress(blob)
        head = struct.Struct("<HQQ")
        version, n_chunks, rows = head.unpack_from(blob, 4)
        for lie in (0, 1, n_chunks - 1, n_chunks + 1, n_chunks + 1000, 2**40):
            if lie == n_chunks:
                continue
            m = bytearray(blob)
            head.pack_into(m, 4, version, lie, rows)
            _assert_taxonomy(
                chunked_decompress, bytes(m), expected, f"n_chunks={lie}"
            )

    def test_length_lying_row_count(self, chunked_blob):
        arr, blob = chunked_blob
        expected = chunked_decompress(blob)
        head = struct.Struct("<HQQ")
        version, n_chunks, rows = head.unpack_from(blob, 4)
        for lie in (0, rows - 1, rows + 1, 2**50):
            m = bytearray(blob)
            head.pack_into(m, 4, version, n_chunks, lie)
            _assert_taxonomy(chunked_decompress, bytes(m), expected, f"rows={lie}")

    def test_length_lying_chunk_length(self, chunked_blob):
        """A chunk length field pointing past the end of the stream."""
        arr, blob = chunked_blob
        expected = chunked_decompress(blob)
        offset = 4 + struct.calcsize("<HQQ")
        for lie in (2**30, 2**62, len(blob) * 2):
            m = bytearray(blob)
            struct.pack_into("<Q", m, offset, lie)
            _assert_taxonomy(
                chunked_decompress, bytes(m), expected, f"chunk_len={lie}"
            )

    def test_inspect_follows_the_same_taxonomy(self, chunked_blob):
        arr, blob = chunked_blob
        rng = np.random.default_rng(SEED + 4)
        for label, mutated in _mutations(blob, rng, 150):
            try:
                inspect_chunked(mutated)
            except DecompressionError:
                pass
            except BaseException as exc:  # noqa: BLE001
                raise AssertionError(
                    f"{label}: inspect leaked {type(exc).__name__}: {exc}"
                ) from exc


class TestCraftedContainers:
    """Hand-built containers that lie about their own structure."""

    def _enveloped(self, header, sections) -> bytes:
        return wrap_envelope(bytes(write_body(header, sections)), "zlib")

    def test_non_dict_json_header(self):
        # splice a JSON array in place of the header object
        raw = bytes(write_body({"x": 1}, {}))
        (hdr_len,) = struct.unpack_from("<I", raw, 6)
        lie = json.dumps([1, 2, 3]).encode().ljust(hdr_len, b" ")
        forged = raw[:10] + lie + raw[10 + hdr_len :]
        with pytest.raises(DecompressionError, match="JSON object"):
            read_body(forged)

    def test_header_length_lies(self):
        raw = bytes(write_body({"k": "v"}, {"s": b"abcd"}))
        for lie in (0, 1, len(raw) * 2, 2**31 - 1):
            m = bytearray(raw)
            struct.pack_into("<I", m, 6, lie)
            with pytest.raises(DecompressionError):
                read_body(bytes(m))

    def test_section_count_lies(self):
        raw = bytes(write_body({}, {"s": b"abcd"}))
        hdr_len = struct.unpack_from("<I", raw, 6)[0]
        count_at = 4 + 2 + 4 + hdr_len
        for lie in (2, 255, 2**31 - 1):
            m = bytearray(raw)
            struct.pack_into("<I", m, count_at, lie)
            with pytest.raises(DecompressionError):
                read_body(bytes(m))

    def test_section_payload_length_lies(self):
        raw = bytes(write_body({}, {"s": b"abcdefgh"}))
        hdr_len = struct.unpack_from("<I", raw, 6)[0]
        len_at = 4 + 2 + 4 + hdr_len + 4 + 1 + 1  # count, name len, name "s"
        for lie in (2**40, len(raw) * 3):
            m = bytearray(raw)
            struct.pack_into("<Q", m, len_at, lie)
            with pytest.raises(DecompressionError):
                read_body(bytes(m))

    def test_envelope_backend_name_length_lies(self):
        blob = self._enveloped({"a": 1}, {"s": b"xy"})
        for lie in (0, 200, 255):
            m = bytearray(blob)
            m[4] = lie
            with pytest.raises(DecompressionError):
                unwrap_envelope(bytes(m))

    def test_unknown_backend_name(self):
        blob = self._enveloped({"a": 1}, {"s": b"xy"})
        name_len = blob[4]
        m = bytearray(blob)
        m[5 : 5 + name_len] = b"?" * name_len
        with pytest.raises(DecompressionError):
            unwrap_envelope(bytes(m))

    def test_peek_header_taxonomy(self):
        blob = self._enveloped({"shape": [4, 4]}, {"s": b"1234"})
        assert peek_header(blob)["shape"] == [4, 4]
        rng = np.random.default_rng(SEED + 5)
        for label, mutated in _mutations(blob, rng, 150):
            try:
                peek_header(mutated)
            except DecompressionError:
                pass
            except BaseException as exc:  # noqa: BLE001
                raise AssertionError(
                    f"{label}: peek_header leaked {type(exc).__name__}: {exc}"
                ) from exc

    # -- the version-2 plane table ---------------------------------------------

    @staticmethod
    def _forge(version, header, sections) -> bytes:
        """A body with exactly these header fields and stored payloads
        (correct CRCs), whatever the writer would have made of them."""
        hdr = json.dumps(header, sort_keys=True).encode()
        out = [BODY_MAGIC, struct.pack("<HI", version, len(hdr)), hdr]
        out.append(struct.pack("<I", len(sections)))
        for name, stored in sections.items():
            out.append(struct.pack("<B", len(name)) + name.encode("ascii"))
            out.append(struct.pack("<QI", len(stored), zlib.crc32(stored)))
            out.append(stored)
        return b"".join(out)

    def test_forged_body_matches_the_writer(self):
        values = np.arange(6, dtype=np.float64)
        written = bytes(write_body({"k": 1}, {"v": values, "b": b"xyz"}))
        stored = values.view(np.uint8).reshape(6, 8).T.tobytes()
        forged = self._forge(2, {"k": 1, "planes": {"v": 8}}, {"v": stored, "b": b"xyz"})
        assert forged == written
        header, sections = read_body(forged)
        assert header == {"k": 1}  # the table never reaches the caller
        assert sections == {"v": values.tobytes(), "b": b"xyz"}

    @pytest.mark.parametrize(
        "width", [0, 1, 3, 16, -8, "8", 8.0, True, None, [8]],
        ids=lambda w: f"width={w!r}",
    )
    def test_plane_width_outside_2_4_8(self, width):
        forged = self._forge(2, {"planes": {"v": width}}, {"v": bytes(16)})
        with pytest.raises(FormatError, match="plane width"):
            read_body(forged)

    @pytest.mark.parametrize("width,nbytes", [(2, 7), (4, 10), (8, 12), (8, 1)])
    def test_section_not_a_whole_number_of_items(self, width, nbytes):
        forged = self._forge(2, {"planes": {"v": width}}, {"v": bytes(nbytes)})
        with pytest.raises(FormatError, match="whole number"):
            read_body(forged)

    def test_plane_table_names_unknown_section(self):
        forged = self._forge(2, {"planes": {"ghost": 8}}, {"v": bytes(16)})
        with pytest.raises(FormatError, match="ghost"):
            read_body(forged)

    @pytest.mark.parametrize("table", [None, [], "rawvals", 8], ids=repr)
    def test_version_2_without_a_table(self, table):
        header = {} if table is None else {"planes": table}
        with pytest.raises(FormatError, match="plane table"):
            read_body(self._forge(2, header, {"v": bytes(16)}))

    def test_plane_table_in_a_version_1_body(self):
        # decoding a v1 writer's doubles as planes would be silent garbage
        forged = self._forge(1, {"planes": {"v": 8}}, {"v": bytes(16)})
        with pytest.raises(FormatError, match="version-1"):
            read_body(forged)
        assert read_body(self._forge(1, {}, {"v": bytes(16)}))[1] == {"v": bytes(16)}

    def test_unknown_version_is_loud(self):
        """What a pre-plane reader does with today's bodies, and what this
        reader does with tomorrow's: refuse by version, never reinterpret."""
        with pytest.raises(FormatError, match="unsupported container version 3"):
            read_body(self._forge(3, {"planes": {}}, {}))

    def test_crc_covers_the_stored_planes(self):
        values = np.linspace(0.0, 1.0, 64)
        raw = bytearray(write_body({}, {"v": values}))
        raw[-5] ^= 0x10
        with pytest.raises(IntegrityError, match="CRC mismatch"):
            read_body(bytes(raw))

    def test_writer_refuses_the_reserved_header_key(self):
        with pytest.raises(FormatError, match="reserved"):
            write_body({"planes": {}}, {})

    def test_misaligned_typed_section_rejected_end_to_end(self):
        """The pipeline-level twin of the table checks: a v2 blob whose
        float64 section lost a byte dies as FormatError at read_body,
        before any reshape could raise a raw ValueError."""
        arr = np.cumsum(np.random.default_rng(SEED + 7).standard_normal((16, 8)), axis=0)
        body, backend = unwrap_envelope(WaveletCompressor().compress(arr))
        version, hdr_len = struct.unpack_from("<HI", body, 4)
        assert version == 2
        header = json.loads(body[10 : 10 + hdr_len])
        _, sections = read_body(body)
        stored = {
            name: np.frombuffer(data, np.uint8)
            .reshape(-1, header["planes"].get(name, 1)).T.tobytes()
            for name, data in sections.items()
        }
        assert self._forge(2, header, stored) == bytes(body)
        stored["rawvals"] = stored["rawvals"][:-1]
        forged = wrap_envelope(self._forge(2, header, stored), backend)
        with pytest.raises(FormatError, match="whole number"):
            WaveletCompressor.decompress(forged)

    def test_frombuffer_misaligned_section_rejected(self):
        """A body whose section byte-length is not a whole number of items
        must be a FormatError, not a raw numpy ValueError."""
        arr = np.cumsum(np.random.default_rng(SEED + 6).standard_normal((16, 8)), axis=0)
        blob = WaveletCompressor().compress(arr)
        body, backend = unwrap_envelope(blob)
        header, sections = read_body(body)
        # chop one byte off the averages table -> 8-byte float64 misalign
        sections = dict(sections)
        sections["averages"] = sections["averages"][:-1]
        forged = wrap_envelope(bytes(write_body(header, sections)), backend)
        with pytest.raises(FormatError, match="whole number"):
            WaveletCompressor.decompress(forged)


class TestCraftedTemporalDeltas:
    """Delta blobs whose header and section disagree about the residual
    filter: every combination the encoder never writes is a FormatError,
    never a reconstruction from the wrong numbers."""

    SHAPE = (6, 4)

    def _delta(self, *, section: str, **header_extra) -> bytes:
        header = {
            "kind": "temporal-delta",
            "shape": list(self.SHAPE),
            "dtype": "<f8",
            "base_step": 0,
            "chain_index": 1,
            "predictor": "previous",
            "lowband_levels": 2,
            "error_bound": 0.5,
            "index_dtype": "<i2",
            **header_extra,
        }
        indices = np.arange(24, dtype=np.int16).reshape(self.SHAPE)
        return wrap_envelope(write_body(header, {section: indices}), "zlib")

    def _decode(self, blob: bytes) -> np.ndarray:
        from repro.ckpt.temporal import decode_delta

        return decode_delta(blob, np.zeros(self.SHAPE))

    def test_the_two_well_formed_blobs_decode(self):
        plain = self._decode(self._delta(section="indices"))
        np.testing.assert_array_equal(plain, np.arange(24.0).reshape(self.SHAPE))
        summed = self._decode(
            self._delta(section="filtered", filter={"kind": "delta", "axis": 1})
        )
        np.testing.assert_array_equal(summed, np.cumsum(plain, axis=1))

    @pytest.mark.parametrize(
        "spec",
        [
            {"kind": "lorenzo", "axis": 0},
            {"kind": "none"},
            {"axis": 0},
            "delta",
            ["delta", 0],
            0,
        ],
        ids=repr,
    )
    def test_unknown_filter_kind(self, spec):
        with pytest.raises(FormatError, match="unknown filter"):
            self._decode(self._delta(section="filtered", filter=spec))

    @pytest.mark.parametrize(
        "axis", [2, -1, 17, 1.0, "0", True, None, [0]], ids=repr
    )
    def test_axis_out_of_range_or_not_an_int(self, axis):
        with pytest.raises(FormatError, match="filter axis"):
            self._decode(
                self._delta(section="filtered", filter={"kind": "delta", "axis": axis})
            )

    def test_filter_on_a_blob_whose_section_is_indices(self):
        with pytest.raises(FormatError, match="missing its filtered section"):
            self._decode(
                self._delta(section="indices", filter={"kind": "delta", "axis": 0})
            )

    def test_filtered_section_without_a_filter_key(self):
        with pytest.raises(FormatError, match="missing its indices section"):
            self._decode(self._delta(section="filtered"))

    @pytest.mark.parametrize(
        "header",
        [{"lowband_levels": 0}, {"lowband_levels": "x"}, {"predictor": "oracle"},
         {"error_bound": -1.0}],
        ids=repr,
    )
    def test_prediction_fields_the_encoder_never_writes(self, header):
        with pytest.raises(FormatError, match="header is malformed"):
            self._decode(self._delta(section="indices", **header))

    @pytest.mark.parametrize("index_dtype", ["<u2", "<f2", "<i8", "|b1", "<U1"])
    def test_index_dtype_the_encoder_never_writes(self, index_dtype):
        """``<u2`` has the item size of the ``<i2`` written: without the
        check it decodes, silently, to numbers far over the bound."""
        with pytest.raises(FormatError, match="index dtype"):
            self._decode(self._delta(section="indices", index_dtype=index_dtype))

    def test_previous_generation_of_another_dtype(self):
        from repro.ckpt.temporal import decode_delta

        blob = self._delta(section="indices")
        with pytest.raises(FormatError, match="dtype float64.*decoded to float32"):
            decode_delta(blob, np.zeros(self.SHAPE, dtype=np.float32))

    def test_seeded_corpus_over_a_filtered_blob(self):
        """The generic taxonomy holds for filtered blobs too: a mutated
        blob decodes bit-identically or raises from the typed family."""
        blob = self._delta(section="filtered", filter={"kind": "delta", "axis": 0})
        expected = self._decode(blob)
        rng = np.random.default_rng(SEED + 13)
        for label, mutated in _mutations(blob, rng, 300):
            _assert_taxonomy(self._decode, mutated, expected, label)


class TestCraftedLosslessArrays:
    """Lossless-array containers that lie about their ``data`` section:
    each is a FormatError from ``deserialize_array``, never a raw NumPy
    error or an array of the wrong size."""

    def _blob(self, sections, **header) -> bytes:
        header = {"kind": "lossless-array", "shape": [3, 4], "dtype": "<f8", **header}
        return wrap_envelope(write_body(header, sections), "zlib")

    def test_the_well_formed_blob_decodes(self):
        arr = np.arange(12, dtype=np.int64).reshape(3, 4)
        out = deserialize_array(self._blob({"data": arr}, dtype="<i8"))
        np.testing.assert_array_equal(out, arr)
        assert out.dtype == arr.dtype

    def test_missing_data_section(self):
        with pytest.raises(FormatError, match="missing its data section"):
            deserialize_array(self._blob({"other": np.zeros(12)}))

    @pytest.mark.parametrize("nbytes", [1, 7, 95, 97])
    def test_data_not_a_whole_number_of_items(self, nbytes):
        with pytest.raises(FormatError, match="whole number"):
            deserialize_array(self._blob({"data": bytes(nbytes)}))

    @pytest.mark.parametrize("items", [0, 11, 13, 24])
    def test_item_count_the_shape_does_not_need(self, items):
        with pytest.raises(FormatError, match="needs 12"):
            deserialize_array(self._blob({"data": np.zeros(items)}))

    @pytest.mark.parametrize(
        "header",
        [
            {"shape": None},
            {"shape": ["a", 4]},
            {"shape": [[3], 4]},
            {"dtype": "not-a-dtype"},
            {"dtype": {"f8": 1}},
            {"dtype": 8},
        ],
        ids=repr,
    )
    def test_malformed_shape_or_dtype(self, header):
        with pytest.raises(FormatError, match="header is malformed"):
            deserialize_array(self._blob({"data": np.zeros(12)}, **header))

    def test_missing_shape_or_dtype(self):
        for absent in ("shape", "dtype"):
            header = {"kind": "lossless-array", "shape": [3, 4], "dtype": "<f8"}
            del header[absent]
            blob = wrap_envelope(write_body(header, {"data": np.zeros(12)}), "zlib")
            with pytest.raises(FormatError, match="header is malformed"):
                deserialize_array(blob)

    def test_object_dtype_is_a_format_error(self):
        with pytest.raises(FormatError):
            deserialize_array(self._blob({"data": bytes(96)}, dtype="|O"))


def test_lossless_shape_with_two_negative_dimensions():
    """(-2, -6) needs as many items as (2, 6), so only the header check
    stands between it and NumPy's own reshape error."""
    header = {"kind": "lossless-array", "shape": [-2, -6], "dtype": "<f8"}
    blob = wrap_envelope(write_body(header, {"data": np.zeros(12)}), "zlib")
    with pytest.raises(FormatError, match="negative dimension"):
        deserialize_array(blob)


def test_pipeline_shape_with_two_negative_dimensions():
    """A pipeline header whose shape [3, 4] is rewritten to [-3, -4] still
    matches its 12 coefficients: the decoder must refuse the shape itself
    rather than leak NumPy's reshape error."""
    arr = np.arange(12, dtype=np.float64).reshape(3, 4)
    blob = WaveletCompressor(CompressionConfig(n_bins=32)).compress(arr)
    header, sections = read_body(unwrap_envelope(blob)[0])
    assert header["shape"] == [3, 4] and header["n_coefficients"] == 12
    header["shape"] = [-3, -4]
    forged = wrap_envelope(bytes(write_body(header, sections)), "zlib")
    with pytest.raises(FormatError, match="negative dimension"):
        WaveletCompressor.decompress(forged)
