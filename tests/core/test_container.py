"""Unit tests for the binary container format (paper Fig. 5)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import container
from repro.exceptions import FormatError, IntegrityError
from repro.lossless.base import NullCodec, get_codec


HEADER = {"shape": [4, 2], "dtype": "float64", "n": 7}
SECTIONS = {"bitmap": b"\x01\x02", "averages": b"", "rawvals": bytes(range(64))}


class TestBody:
    def test_roundtrip(self):
        body = container.write_body(HEADER, SECTIONS)
        header, sections = container.read_body(body)
        assert header == HEADER
        assert sections == SECTIONS

    def test_empty_sections(self):
        body = container.write_body({}, {})
        header, sections = container.read_body(body)
        assert header == {} and sections == {}

    def test_bad_magic(self):
        body = container.write_body(HEADER, SECTIONS)
        with pytest.raises(FormatError, match="magic"):
            container.read_body(b"XXXX" + body[4:])

    def test_unsupported_version(self):
        body = bytearray(container.write_body(HEADER, SECTIONS))
        body[4] = 99
        with pytest.raises(FormatError, match="version"):
            container.read_body(bytes(body))

    @pytest.mark.parametrize("cut", [2, 5, 8, 20])
    def test_truncation_detected(self, cut):
        body = container.write_body(HEADER, SECTIONS)
        with pytest.raises(FormatError):
            container.read_body(body[: len(body) - cut])

    def test_trailing_bytes_detected(self):
        body = container.write_body(HEADER, SECTIONS)
        with pytest.raises(FormatError, match="trailing"):
            container.read_body(body + b"\x00")

    def test_crc_corruption_detected(self):
        body = bytearray(container.write_body(HEADER, SECTIONS))
        # flip a bit in the last payload byte
        body[-1] ^= 0xFF
        with pytest.raises(IntegrityError, match="CRC"):
            container.read_body(bytes(body))

    def test_header_not_json(self):
        # build a body manually with garbage header bytes
        import struct

        raw = (
            container.BODY_MAGIC
            + struct.pack("<H", container.FORMAT_VERSION)
            + struct.pack("<I", 3)
            + b"\xff\xfe\x00"
            + struct.pack("<I", 0)
        )
        with pytest.raises(FormatError, match="JSON"):
            container.read_body(raw)

    def test_section_name_too_long(self):
        with pytest.raises(FormatError):
            container.write_body({}, {"x" * 300: b""})

    def test_large_payload(self):
        payload = bytes(1_000_000)
        body = container.write_body({}, {"big": payload})
        _, sections = container.read_body(body)
        assert sections["big"] == payload

    def test_buffer_protocol_sections(self):
        """Sections may be any buffer-protocol object, not just bytes --
        the zero-copy path hands in memoryviews over ndarray data."""
        np = pytest.importorskip("numpy")
        arr = np.arange(32, dtype=np.float64)
        sections = {
            "bytes": b"\x01\x02",
            "view": memoryview(arr).cast("B"),
            "array": bytearray(b"mutable"),
        }
        body = container.write_body(HEADER, sections)
        _, out = container.read_body(body)
        assert out["bytes"] == b"\x01\x02"
        assert out["view"] == arr.tobytes()
        assert out["array"] == b"mutable"

    def test_memoryview_sections_match_bytes_sections(self):
        as_bytes = container.write_body(HEADER, SECTIONS)
        as_views = container.write_body(
            HEADER, {k: memoryview(v) for k, v in SECTIONS.items()}
        )
        assert bytes(as_bytes) == bytes(as_views)

    @pytest.mark.parametrize("n_bytes", [0, 3])
    def test_blob_shorter_than_magic(self, n_bytes):
        with pytest.raises(FormatError, match="too short"):
            container.read_body(b"\x52" * n_bytes)


class TestBytePlanes:
    """Sections handed in as 2/4/8-byte items are stored plane by plane;
    nothing outside the container can tell."""

    @pytest.mark.parametrize(
        "dtype,width",
        [("u1", 1), ("i2", 2), ("<u2", 2), ("f4", 4), ("i4", 4), ("f8", 8), ("u8", 8), ("c16", 1)],
    )
    @pytest.mark.parametrize("n_items", [0, 1, 5, 257])
    def test_typed_sections_roundtrip(self, dtype, width, n_items):
        arr = (np.arange(n_items) * 37 % 251).astype(dtype)
        body = container.write_body(HEADER, {"typed": arr, "raw": b"tail"})
        header, sections = container.read_body(body)
        assert header == HEADER
        assert sections == {"typed": arr.tobytes(), "raw": b"tail"}
        stored = bytes(body)
        if width > 1 and n_items > 1:
            planes = arr.view(np.uint8).reshape(n_items, width).T.tobytes()
            assert planes in stored and arr.tobytes() not in stored
        else:
            assert arr.tobytes() in stored

    def test_multidimensional_and_strided_arrays(self):
        arr = np.arange(60, dtype=np.float64).reshape(5, 12)
        for payload in (arr, arr[:, ::2], np.asfortranarray(arr)):
            _, sections = container.read_body(container.write_body({}, {"a": payload}))
            assert sections["a"] == payload.tobytes()

    def test_cuts_mark_every_section_and_plane_start(self):
        values = np.linspace(0.0, 1.0, 10)  # 8 planes of 10 bytes
        indices = np.arange(6, dtype=np.uint16)  # 2 planes of 6 bytes
        body = container.write_body(
            {}, {"bitmap": b"\x0f" * 3, "empty": b"", "values": values, "indices": indices}
        )
        raw = bytes(body)
        bitmap_at = raw.index(b"\x0f\x0f\x0f")
        values_at = raw.index(values.view(np.uint8).reshape(10, 8).T.tobytes())
        indices_at = raw.index(indices.view(np.uint8).reshape(6, 2).T.tobytes())
        assert body.cuts == (
            bitmap_at,
            *range(values_at, values_at + 80, 10),
            indices_at, indices_at + 6,
        )
        assert isinstance(body, bytearray) and body.cuts[-1] < len(body)

    def test_wrap_envelope_passes_the_cuts_down(self, monkeypatch):
        seen = []

        class Spy(NullCodec):
            def compress(self, data, cuts=None):
                seen.append(cuts)
                return super().compress(data)

        monkeypatch.setattr(container, "get_codec", lambda *a, **k: Spy())
        body = container.write_body({}, {"v": np.arange(4, dtype=np.float32)})
        container.wrap_envelope(body, "none")
        container.wrap_envelope(bytes(body), "none")  # plain bytes carry no hint
        assert seen == [body.cuts, None] and len(body.cuts) == 4

    def test_layout_of_an_enveloped_blob(self):
        body = container.write_body(
            HEADER, {"values": np.zeros(3), "idx": np.zeros(3, np.uint16), "b": b"x"}
        )
        blob = container.wrap_envelope(body, "gzip")
        assert container.peek_header(blob) == HEADER
        inflated, backend = container.unwrap_envelope(blob)
        assert backend == "gzip" and inflated == body
        assert container.body_layout(inflated) == {
            "container_version": 2,
            "plane_widths": {"values": 8, "idx": 2},
        }


class TestEnvelope:
    @pytest.mark.parametrize("backend", ["zlib", "gzip", "none", "rle", "xor-delta"])
    def test_roundtrip_all_backends(self, backend):
        body = container.write_body(HEADER, SECTIONS)
        blob = container.wrap_envelope(body, backend)
        out, name = container.unwrap_envelope(blob)
        assert out == body
        assert name == backend

    def test_bad_envelope_magic(self):
        blob = container.wrap_envelope(b"data", "zlib")
        with pytest.raises(FormatError, match="magic"):
            container.unwrap_envelope(b"ZZZZ" + blob[4:])

    def test_unknown_backend_on_unwrap(self):
        # an unknown name inside a blob is corruption, not a config mistake
        blob = bytearray(container.wrap_envelope(b"data", "zlib"))
        blob[5:9] = b"zzzz"  # overwrite codec name
        with pytest.raises(FormatError, match="unknown backend 'zzzz'"):
            container.unwrap_envelope(bytes(blob))

    def test_corrupt_deflate_stream(self):
        blob = container.wrap_envelope(b"data" * 100, "zlib")
        with pytest.raises(FormatError, match="inflate"):
            container.unwrap_envelope(blob[:-5])

    def test_truncated_envelope(self):
        with pytest.raises(FormatError):
            container.unwrap_envelope(b"RP")

    @pytest.mark.parametrize("n_bytes", [0, 3, 5])
    def test_truncated_blob_pointed_message(self, n_bytes):
        """Empty and sub-header blobs fail with a message that names what
        is missing, not with an IndexError or a bare magic check."""
        blob = b"\x52\x50\x5a\x31\x04"[:n_bytes]
        with pytest.raises(FormatError, match="too short|truncated"):
            container.unwrap_envelope(blob)

    @pytest.mark.parametrize("n_bytes", [0, 3, 5])
    def test_peek_header_truncated_blob(self, n_bytes):
        with pytest.raises(FormatError, match="too short|truncated"):
            container.peek_header(b"\x52\x50\x5a\x31\x04"[:n_bytes])

    def test_envelope_cut_inside_backend_name(self):
        blob = container.wrap_envelope(b"data", "zlib")
        with pytest.raises(FormatError):
            container.unwrap_envelope(blob[:7])  # magic + len + "zl"

    @pytest.mark.parametrize("backend", ["gzip-mt", "zlib-mt"])
    def test_roundtrip_mt_backends(self, backend):
        body = container.write_body(HEADER, SECTIONS)
        codec = get_codec(backend, threads=2, block_bytes=1_024)
        blob = container.wrap_envelope(body, backend, codec=codec)
        out, name = container.unwrap_envelope(blob)
        assert out == body
        assert name == backend

    def test_peek_header(self):
        body = container.write_body(HEADER, SECTIONS)
        blob = container.wrap_envelope(body, "zlib")
        assert container.peek_header(blob) == HEADER

    def test_compression_actually_shrinks(self):
        body = container.write_body({}, {"zeros": bytes(10_000)})
        blob = container.wrap_envelope(body, "zlib")
        assert len(blob) < len(body) / 10
