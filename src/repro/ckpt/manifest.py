"""Checkpoint manifests: the metadata record of one checkpoint.

A manifest lists every stored array with its shape, dtype, codec, sizes and
payload CRC32 so a restore can (a) locate the blobs, (b) verify integrity
before handing data back to the application and (c) report the achieved
compression rate per array -- the quantity paper Eq. 5 evaluates.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import asdict, dataclass, field
from typing import Any, Mapping

from ..exceptions import FormatError

__all__ = [
    "ArrayEntry",
    "ParityEntry",
    "CheckpointManifest",
    "generation_prefix",
    "manifest_key",
    "commit_key",
    "array_key",
    "parity_key",
    "MANIFEST_FILENAME",
    "COMMIT_FILENAME",
]

MANIFEST_FILENAME = "manifest.json"
COMMIT_FILENAME = "COMMIT"
_STEP_WIDTH = 10  # zero-padded so lexicographic key order == numeric order


def generation_prefix(step: int) -> str:
    """Store-key prefix owning every object of generation ``step``."""
    return f"ckpt/{int(step):0{_STEP_WIDTH}d}/"


def manifest_key(step: int) -> str:
    """Store key of the manifest for ``step``."""
    return generation_prefix(step) + MANIFEST_FILENAME


def commit_key(step: int) -> str:
    """Store key of the commit marker for ``step``."""
    return generation_prefix(step) + COMMIT_FILENAME


def array_key(step: int, name: str) -> str:
    """Store key of one array blob inside checkpoint ``step``."""
    return f"{generation_prefix(step)}{name}.bin"


def parity_key(step: int, group: int) -> str:
    """Store key of one parity blob inside checkpoint ``step``."""
    return f"{generation_prefix(step)}parity-{int(group):04d}.bin"


@dataclass(frozen=True)
class ArrayEntry:
    """Metadata of one stored array."""

    name: str
    shape: tuple[int, ...]
    dtype: str
    codec: str
    codec_params: dict[str, Any] = field(default_factory=dict)
    raw_bytes: int = 0
    stored_bytes: int = 0
    crc32: int = 0

    @property
    def compression_rate_percent(self) -> float:
        """Paper Eq. 5 for this array."""
        if self.raw_bytes <= 0:
            return float("nan")
        return 100.0 * self.stored_bytes / self.raw_bytes

    def verify(self, payload: bytes) -> None:
        """Raise :class:`FormatError` unless ``payload`` matches the record."""
        if len(payload) != self.stored_bytes:
            raise FormatError(
                f"array {self.name!r}: stored blob is {len(payload)} bytes, "
                f"manifest records {self.stored_bytes}"
            )
        crc = zlib.crc32(payload) & 0xFFFFFFFF
        if crc != self.crc32:
            raise FormatError(
                f"array {self.name!r}: blob CRC {crc:#010x} does not match "
                f"manifest {self.crc32:#010x}; checkpoint is corrupt"
            )

    @staticmethod
    def checksum(payload: bytes) -> int:
        return zlib.crc32(payload) & 0xFFFFFFFF


@dataclass(frozen=True)
class ParityEntry:
    """Metadata of one XOR-parity blob covering a group of array blobs.

    ``members`` are array names in manifest order; any single
    corrupt-or-missing member blob is reconstructible from the parity blob
    plus the surviving members (see :mod:`repro.ckpt.redundancy`).  The
    parity blob carries its own CRC so a damaged parity block is detected
    rather than trusted during repair.
    """

    key: str
    members: tuple[str, ...]
    block_len: int
    stored_bytes: int = 0
    crc32: int = 0

    def verify(self, payload: bytes) -> None:
        """Raise :class:`FormatError` unless ``payload`` is the recorded
        parity blob."""
        if len(payload) != self.stored_bytes:
            raise FormatError(
                f"parity blob {self.key!r} is {len(payload)} bytes, "
                f"manifest records {self.stored_bytes}"
            )
        crc = zlib.crc32(payload) & 0xFFFFFFFF
        if crc != self.crc32:
            raise FormatError(
                f"parity blob {self.key!r}: CRC {crc:#010x} does not match "
                f"manifest {self.crc32:#010x}; parity block is corrupt"
            )


@dataclass(frozen=True)
class CheckpointManifest:
    """The metadata record of one complete checkpoint."""

    step: int
    entries: tuple[ArrayEntry, ...]
    app_meta: dict[str, Any] = field(default_factory=dict)
    format_version: int = 1
    parity: tuple[ParityEntry, ...] = ()

    @property
    def total_raw_bytes(self) -> int:
        return sum(e.raw_bytes for e in self.entries)

    @property
    def total_stored_bytes(self) -> int:
        return sum(e.stored_bytes for e in self.entries)

    @property
    def compression_rate_percent(self) -> float:
        """Paper Eq. 5 over the whole checkpoint."""
        raw = self.total_raw_bytes
        if raw <= 0:
            return float("nan")
        return 100.0 * self.total_stored_bytes / raw

    def entry(self, name: str) -> ArrayEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(f"manifest for step {self.step} has no array {name!r}")

    def names(self) -> list[str]:
        return [e.name for e in self.entries]

    # -- (de)serialization ---------------------------------------------------

    def to_json(self) -> bytes:
        doc = {
            "format_version": self.format_version,
            "step": self.step,
            "app_meta": self.app_meta,
            "entries": [
                {**asdict(e), "shape": list(e.shape)} for e in self.entries
            ],
        }
        # Emitted only when parity groups exist, so parity-free manifests
        # stay byte-identical to format_version 1 output.
        if self.parity:
            doc["parity"] = [
                {**asdict(p), "members": list(p.members)} for p in self.parity
            ]
        return json.dumps(doc, sort_keys=True, indent=1).encode("utf-8")

    @classmethod
    def from_json(cls, data: bytes) -> "CheckpointManifest":
        try:
            doc = json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FormatError(f"manifest is not valid JSON: {exc}") from exc
        try:
            entries = tuple(
                ArrayEntry(
                    name=e["name"],
                    shape=tuple(int(s) for s in e["shape"]),
                    dtype=e["dtype"],
                    codec=e["codec"],
                    codec_params=dict(e.get("codec_params", {})),
                    raw_bytes=int(e["raw_bytes"]),
                    stored_bytes=int(e["stored_bytes"]),
                    crc32=int(e["crc32"]),
                )
                for e in doc["entries"]
            )
            parity = tuple(
                ParityEntry(
                    key=p["key"],
                    members=tuple(str(m) for m in p["members"]),
                    block_len=int(p["block_len"]),
                    stored_bytes=int(p["stored_bytes"]),
                    crc32=int(p["crc32"]),
                )
                for p in doc.get("parity", [])
            )
            return cls(
                step=int(doc["step"]),
                entries=entries,
                app_meta=dict(doc.get("app_meta", {})),
                format_version=int(doc.get("format_version", 1)),
                parity=parity,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"manifest is missing fields: {exc}") from exc


def validate_app_meta(app_meta: Mapping[str, Any] | None) -> dict[str, Any]:
    """Ensure user metadata is JSON-serializable before it hits the store."""
    meta = dict(app_meta or {})
    try:
        json.dumps(meta)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"app_meta must be JSON-serializable: {exc}") from exc
    return meta
