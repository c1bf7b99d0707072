"""Codec abstraction and registry for lossless backends.

The paper's pipeline finishes by running the formatted output through gzip
(Section III-D) and observes that most of the compression time is the
temp-file gzip pass, suggesting in-memory zlib instead (Section IV-D).  To
make that comparison (and the RLE / predictive-float ablations) first-class,
every backend implements the tiny :class:`Codec` interface and registers
itself by name; :class:`~repro.config.CompressionConfig` then selects one
with a string.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Sequence

from ..config import DEFAULT_BACKEND_BLOCK_BYTES
from ..exceptions import ConfigurationError

__all__ = ["Codec", "register_codec", "get_codec", "NullCodec"]

#: What :func:`get_codec` calls: ``factory(level, threads, block_bytes)``.
Factory = Callable[[int, "int | None", int], "Codec"]

_REGISTRY: dict[str, Factory] = {}


class Codec(ABC):
    """A reversible bytes-to-bytes transform."""

    #: Registry name; subclasses must override.
    name: str = ""

    @abstractmethod
    def compress(self, data: bytes, cuts: Sequence[int] | None = None) -> bytes:
        """Compress ``data``; must be invertible by :meth:`decompress`.

        ``cuts`` are byte offsets into ``data`` where its content changes
        character (the container's section and byte-plane boundaries).
        They are a hint: the deflate family codes the stretches between
        them independently (:mod:`repro.lossless.segments`), every other
        codec ignores them, and the decoded bytes never depend on them.
        """

    @abstractmethod
    def decompress(self, data: bytes) -> bytes:
        """Invert :meth:`compress`."""

    def check_writable(self) -> None:
        """Raise :class:`~repro.exceptions.ConfigurationError` -- the one
        :meth:`compress` would -- where this codec only decodes."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


def register_codec(name: str, factory: Factory) -> None:
    """Register ``factory`` under ``name``; a codec without the threaded
    knobs registers a factory that drops them."""
    if not name:
        raise ConfigurationError("codec factory must define a non-empty name")
    _REGISTRY[name] = factory


def get_codec(
    name: str,
    level: int = 6,
    threads: int | None = None,
    block_bytes: int = DEFAULT_BACKEND_BLOCK_BYTES,
) -> Codec:
    """Instantiate the codec registered under ``name`` with the backend
    knob set; ``threads`` and ``block_bytes`` matter to the ``-mt`` names
    only, and ``threads=None`` means one per effective core."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown codec {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
    return factory(level, threads, block_bytes)


class NullCodec(Codec):
    """Identity codec -- useful for measuring formatting overhead alone."""

    name = "none"

    def __init__(self, level: int = 0):
        self.level = level  # accepted for interface uniformity, unused

    def compress(self, data: bytes, cuts=None) -> bytes:
        return bytes(data)

    def decompress(self, data: bytes) -> bytes:
        return bytes(data)


register_codec(NullCodec.name, lambda level, threads, block_bytes: NullCodec(level))
