"""Binary container for compressed checkpoints (paper Section III-D, Fig. 5).

The formatted output of the pipeline holds the bitmap, the ``average[]``
table, the byte-index stream and the raw double stream, preceded by a JSON
header carrying everything the self-describing decoder needs (shape, dtype,
wavelet depth, configuration).  Each section is CRC32-protected so silent
corruption in a checkpoint store is detected at restore time instead of
being reinterpreted as bad physics.

The serialized body is then wrapped in an outer envelope naming the
lossless backend that deflated it (gzip in the paper), so a blob can be
decompressed without out-of-band knowledge.

Layout
------
Envelope::

    b"RPZ1" | u8 backend-name length | backend name (ascii) | deflated body

Body::

    b"RPWC" | u16 version | u32 header length | header JSON | u32 n sections
    then per section: u8 name length | name | u64 payload length | u32 CRC32
    | payload

Byte planes (format version 2)
------------------------------
A section whose payload arrives as 2-, 4- or 8-byte items (float64
``rawvals``/``averages``, uint16 ``indices``, temporal int16/int32
residuals, lossless float ``data``) is stored *byte-plane-transposed*: all
first bytes of every item, then all second bytes, ...  The slowly varying
sign/exponent bytes then form their own compressible runs instead of being
buried between incompressible mantissa bytes, and the lossless stage can
treat each plane on its merits (:mod:`repro.lossless.segments`).  The
header JSON records ``"planes": {section name: item width}`` -- a key this
module owns, adds on write and removes on read -- and the CRC32 covers the
payload as stored.  :func:`read_body` hands back the original item order,
so no caller ever sees a plane.  Version 1 bodies (no planes) decode
forever; only version 2 is written.
"""

from __future__ import annotations

import json
import operator
import struct
import zlib
from typing import Any, Mapping

import numpy as np

from ..exceptions import ConfigurationError, FormatError, IntegrityError
from ..lossless import Codec, get_codec
from ..lossless.segments import byte_view

__all__ = [
    "BODY_MAGIC",
    "CHUNK_MAGIC",
    "ENVELOPE_MAGIC",
    "FORMAT_VERSION",
    "Body",
    "write_body",
    "read_body",
    "section_array",
    "header_shape",
    "wrap_envelope",
    "unwrap_envelope",
    "peek_header",
    "body_layout",
]

BODY_MAGIC = b"RPWC"
ENVELOPE_MAGIC = b"RPZ1"
# Multi-chunk streams (repro.core.chunked) carry their own magic; defined
# here so the envelope parser can tell "chunked stream" apart from garbage.
CHUNK_MAGIC = b"RPCK"
FORMAT_VERSION = 2
_READABLE_VERSIONS = (1, 2)
#: Header key holding the plane table; reserved by this module.
_PLANES_KEY = "planes"
_PLANE_WIDTHS = (2, 4, 8)

_U8 = struct.Struct("<B")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")


class Body(bytearray):
    """What :func:`write_body` returns: the serialized body plus ``cuts``,
    the offsets where its content changes character (every section payload
    and every byte plane starts at one).  The lossless stage takes them as
    a hint (``Codec.compress(body, body.cuts)``); the bytes alone are the
    complete body, so a plain copy of them is just as valid."""

    cuts: tuple[int, ...] = ()


def _item_view(payload: Any, name: str) -> tuple[memoryview, int]:
    """A flat uint8 view over any buffer-protocol payload (no copy for
    contiguous buffers -- bytes, bytearray, memoryview, NumPy arrays) and
    the plane width its item size calls for (1 = stored as is)."""
    try:
        mv = memoryview(payload)
    except TypeError:
        raise FormatError(
            f"section {name!r} payload must support the buffer protocol, "
            f"got {type(payload).__name__}"
        ) from None
    width = mv.itemsize if mv.itemsize in _PLANE_WIDTHS else 1
    return byte_view(mv), width


def write_body(header: Mapping[str, Any], sections: Mapping[str, Any]) -> Body:
    """Serialize a header dict + named binary sections into a body blob.

    Section payloads may be any buffer-protocol object (``bytes``,
    ``memoryview``, a NumPy array) and are copied exactly once, into the
    single preallocated output buffer -- no per-section ``tobytes()``
    materialization.  Pass arrays as arrays: a payload of 2-, 4- or 8-byte
    items is laid down plane by plane by that one (strided) copy, a
    byte-typed payload by a flat one.  The returned :class:`Body` is
    bytes-like everywhere downstream (codecs, :func:`read_body`, file
    writes) without a further copy.
    """
    if _PLANES_KEY in header:
        raise FormatError(
            f"header key {_PLANES_KEY!r} is reserved for the container's plane table"
        )
    views: list[tuple[bytes, memoryview, int]] = []
    planes: dict[str, int] = {}
    for name, payload in sections.items():
        name_bytes = name.encode("ascii")
        if not 0 < len(name_bytes) < 256:
            raise FormatError(f"section name must be 1..255 ascii bytes: {name!r}")
        mv, width = _item_view(payload, name)
        if width > 1:
            planes[name] = width
        views.append((name_bytes, mv, width))
    header_bytes = json.dumps(
        {**header, _PLANES_KEY: planes}, sort_keys=True
    ).encode("utf-8")
    total = 4 + _U16.size + _U32.size + len(header_bytes) + _U32.size
    for name_bytes, mv, _width in views:
        total += _U8.size + len(name_bytes) + _U64.size + _U32.size + mv.nbytes
    buf = Body(total)
    flat = np.frombuffer(buf, dtype=np.uint8)
    cuts: list[int] = []
    buf[0:4] = BODY_MAGIC
    offset = 4
    _U16.pack_into(buf, offset, FORMAT_VERSION)
    offset += _U16.size
    _U32.pack_into(buf, offset, len(header_bytes))
    offset += _U32.size
    buf[offset : offset + len(header_bytes)] = header_bytes
    offset += len(header_bytes)
    _U32.pack_into(buf, offset, len(views))
    offset += _U32.size
    for name_bytes, mv, width in views:
        _U8.pack_into(buf, offset, len(name_bytes))
        offset += _U8.size
        buf[offset : offset + len(name_bytes)] = name_bytes
        offset += len(name_bytes)
        _U64.pack_into(buf, offset, mv.nbytes)
        offset += _U64.size
        crc_at = offset
        offset += _U32.size
        end = offset + mv.nbytes
        if mv.nbytes:
            items = mv.nbytes // width
            flat[offset:end].reshape(width, items)[...] = np.frombuffer(
                mv, dtype=np.uint8
            ).reshape(items, width).T
            cuts += range(offset, end, items)
        _U32.pack_into(buf, crc_at, zlib.crc32(flat[offset:end]))
        offset = end
    buf.cuts = tuple(cuts)
    return buf


def _need(blob: bytes, offset: int, count: int, what: str) -> int:
    end = offset + count
    if end > len(blob):
        raise FormatError(f"container truncated while reading {what}")
    return end


def _read_prefix(blob: bytes) -> tuple[int, dict[str, Any], dict[str, int], int]:
    """Parse magic, version and header JSON; returns ``(version, header
    without the plane table, plane table, offset of the section count)``."""
    if len(blob) < 4:
        raise FormatError(
            f"body blob is only {len(blob)} bytes -- too short to hold the "
            f"{BODY_MAGIC!r} magic; empty, truncated, or not a repro container"
        )
    offset = 4
    if blob[:4] != BODY_MAGIC:
        raise FormatError(
            f"bad body magic {blob[:4]!r}; not a repro compressed container"
        )
    end = _need(blob, offset, _U16.size, "version")
    (version,) = _U16.unpack_from(blob, offset)
    offset = end
    if version not in _READABLE_VERSIONS:
        raise FormatError(f"unsupported container version {version}")
    end = _need(blob, offset, _U32.size, "header length")
    (header_len,) = _U32.unpack_from(blob, offset)
    offset = end
    end = _need(blob, offset, header_len, "header")
    try:
        header = json.loads(blob[offset:end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"container header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise FormatError(
            f"container header must be a JSON object, got "
            f"{type(header).__name__}"
        )
    return version, header, _pop_planes(header, version), end


def _pop_planes(header: dict[str, Any], version: int) -> dict[str, int]:
    """Remove and validate the plane table of a parsed header."""
    if version == 1:
        # a v1 writer never emitted the key; decoding its sections as
        # planes would turn good doubles into noise
        if _PLANES_KEY in header:
            raise FormatError("plane table in a version-1 container")
        return {}
    planes = header.pop(_PLANES_KEY, None)
    if not isinstance(planes, dict):
        raise FormatError(
            f"version-{version} container header lacks its plane table"
        )
    for name, width in planes.items():
        if type(width) is not int or width not in _PLANE_WIDTHS:
            raise FormatError(
                f"plane width of section {name!r} must be one of "
                f"{_PLANE_WIDTHS}, got {width!r}"
            )
    return planes


def _from_planes(stored: memoryview, width: int) -> bytearray:
    """Undo the writer's transposition: plane-major -> item-major bytes
    (one new buffer, filled in place)."""
    items = len(stored) // width
    planes = np.frombuffer(stored, dtype=np.uint8).reshape(width, items)
    out = bytearray(len(stored))
    columns = np.frombuffer(out, dtype=np.uint8).reshape(items, width)
    # plane by plane (contiguous reads) beats one transposed assignment
    for k in range(width):
        columns[:, k] = planes[k]
    return out


def read_body(blob: bytes) -> tuple[dict[str, Any], dict[str, bytes]]:
    """Parse :func:`write_body` output, verifying magic and every CRC.

    Sections come back in their original item order whichever format
    version stored them, each in a buffer of its own (``bytes``, or a
    ``bytearray`` where planes had to be undone): one copy per section
    either way.
    """
    _version, header, planes, offset = _read_prefix(blob)
    view = memoryview(blob)
    end = _need(blob, offset, _U32.size, "section count")
    (n_sections,) = _U32.unpack_from(blob, offset)
    offset = end
    sections: dict[str, bytes] = {}
    for i in range(n_sections):
        end = _need(blob, offset, _U8.size, f"section {i} name length")
        (name_len,) = _U8.unpack_from(blob, offset)
        offset = end
        end = _need(blob, offset, name_len, f"section {i} name")
        try:
            name = blob[offset:end].decode("ascii")
        except UnicodeDecodeError as exc:
            raise FormatError(f"section {i} name is not ascii: {exc}") from exc
        offset = end
        end = _need(blob, offset, _U64.size, f"section {name} length")
        (payload_len,) = _U64.unpack_from(blob, offset)
        offset = end
        end = _need(blob, offset, _U32.size, f"section {name} crc")
        (crc,) = _U32.unpack_from(blob, offset)
        offset = end
        end = _need(blob, offset, payload_len, f"section {name} payload")
        stored = view[offset:end]
        if (zlib.crc32(stored) & 0xFFFFFFFF) != crc:
            raise IntegrityError(
                f"CRC mismatch in section {name!r}: the stored checkpoint is corrupt"
            )
        width = planes.get(name, 1)
        if width == 1:
            sections[name] = blob[offset:end]
        elif payload_len % width:
            raise FormatError(
                f"section {name!r} of {payload_len} bytes is not a whole "
                f"number of {width}-byte items"
            )
        else:
            sections[name] = _from_planes(stored, width)
        offset = end
    if offset != len(blob):
        raise FormatError(
            f"{len(blob) - offset} trailing bytes after the last section"
        )
    unknown = planes.keys() - sections.keys()
    if unknown:
        raise FormatError(
            f"plane table names sections the container does not hold: "
            f"{sorted(unknown)}"
        )
    return header, sections


def section_array(
    sections: Mapping[str, Any],
    name: str,
    dtype: Any,
    *,
    what: str,
    count: int | None = None,
) -> np.ndarray:
    """Section ``name`` of a :func:`read_body` result as a flat ``dtype``
    view (no copy).

    The one reader of typed sections, so a section that is missing, is not
    a whole number of items, or -- given ``count`` -- holds another number
    of items than the header's shape needs is a :class:`FormatError`
    naming ``what`` was being decoded, never a raw NumPy error.
    """
    try:
        payload = sections[name]
    except KeyError:
        raise FormatError(
            f"{what} is missing its {name} section (holds {sorted(sections)})"
        ) from None
    dtype = np.dtype(dtype)
    try:
        items = np.frombuffer(payload, dtype=dtype)
    except ValueError as exc:
        raise FormatError(
            f"{what} section {name!r} of {len(payload)} bytes is not a whole "
            f"number of {dtype} items: {exc}"
        ) from exc
    if count is not None and items.size != count:
        raise FormatError(
            f"{what} section {name!r} holds {items.size} items, its shape "
            f"needs {count}"
        )
    return items


def header_shape(header: Mapping[str, Any], *, what: str) -> tuple[int, ...]:
    """The ``shape`` of a :func:`read_body` header as a tuple of ints.

    The one parser of stored shapes, so a shape that is missing or has a
    dimension that is not a non-negative integer is a :class:`FormatError`
    naming ``what`` was being decoded.  NumPy would read one negative
    dimension as "infer this one" and raise its own error on two.
    """
    try:
        shape = tuple(operator.index(dim) for dim in header["shape"])
    except (KeyError, TypeError) as exc:
        raise FormatError(f"{what} header is malformed: no integer shape ({exc!r})") from exc
    if min(shape, default=0) < 0:
        raise FormatError(f"{what} header is malformed: negative dimension in shape {shape}")
    return shape


def wrap_envelope(
    body: bytes,
    backend: str,
    level: int = 6,
    *,
    codec: Codec | None = None,
) -> bytes:
    """Deflate ``body`` with the named backend and prepend the envelope.

    ``body`` may be any bytes-like object; a :class:`Body` straight from
    :func:`write_body` also hands the codec its ``cuts``.  A caller that
    sets the block-parallel backends' threads, or reads the codec's
    per-call reports afterwards, passes the ``codec`` it built for
    ``backend`` instead of the ``level``.
    """
    if codec is None:
        codec = get_codec(backend, level=level)
    name_bytes = backend.encode("ascii")
    if not 0 < len(name_bytes) < 256:
        raise FormatError(f"backend name must be 1..255 ascii bytes: {backend!r}")
    payload = codec.compress(body, getattr(body, "cuts", None))
    return b"".join((ENVELOPE_MAGIC, _U8.pack(len(name_bytes)), name_bytes, payload))


def unwrap_envelope(blob: bytes) -> tuple[bytes, str]:
    """Strip the envelope and inflate; returns ``(body, backend_name)``."""
    if len(blob) < 4 + _U8.size:
        raise FormatError(
            f"blob is only {len(blob)} bytes -- too short to hold the "
            f"{ENVELOPE_MAGIC!r} envelope magic and backend-name length; "
            "empty, truncated, or not a repro compressed blob"
        )
    offset = 4
    if blob[:4] != ENVELOPE_MAGIC:
        if blob[:4] == CHUNK_MAGIC:
            raise FormatError(
                "this is a chunked stream (magic b'RPCK'), not a single "
                "pipeline blob; use repro.core.chunked.chunked_decompress "
                "or inspect_chunked"
            )
        raise FormatError(
            f"bad envelope magic {blob[:4]!r}; not a repro compressed blob"
        )
    end = _need(blob, offset, _U8.size, "backend name length")
    (name_len,) = _U8.unpack_from(blob, offset)
    offset = end
    end = _need(blob, offset, name_len, "backend name")
    try:
        backend = blob[offset:end].decode("ascii")
    except UnicodeDecodeError as exc:
        raise FormatError(f"backend name is not ascii: {exc}") from exc
    offset = end
    try:
        codec = get_codec(backend)
    except ConfigurationError as exc:
        # a flipped bit in the name field turns "zlib" into garbage; that
        # is blob corruption, not a caller configuration mistake
        raise FormatError(
            f"envelope names unknown backend {backend!r}: {exc}"
        ) from exc
    try:
        body = codec.decompress(blob[offset:])
    except Exception as exc:
        if isinstance(exc, (FormatError, IntegrityError)):
            raise
        raise FormatError(f"backend {backend!r} failed to inflate body: {exc}") from exc
    return body, backend


def peek_header(blob: bytes) -> dict[str, Any]:
    """Return the container header of an enveloped blob without decoding data.

    Truncated or empty blobs raise :class:`FormatError` with a message
    naming what was missing, never a raw ``IndexError``/``struct.error``.
    """
    body, _ = unwrap_envelope(blob)
    header, _ = read_body(body)
    return header


def body_layout(body: bytes) -> dict[str, Any]:
    """How an inflated body is laid out, without touching its sections:
    the container format version and the plane width of every
    byte-plane-transposed section."""
    version, _header, planes, _offset = _read_prefix(body)
    return {"container_version": version, "plane_widths": planes}
