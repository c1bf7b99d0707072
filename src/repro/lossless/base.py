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

import inspect
from abc import ABC, abstractmethod
from typing import Callable, Iterator, Sequence

from ..exceptions import ConfigurationError

__all__ = ["Codec", "register_codec", "get_codec", "NullCodec"]

_REGISTRY: dict[str, Callable[..., "Codec"]] = {}


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

    def iter_compress(self, data, cuts: Sequence[int] | None = None) -> Iterator[bytes]:
        """Yield the compressed stream as in-order fragments.

        ``b"".join(iter_compress(data, cuts))`` equals
        ``compress(data, cuts)`` for every codec.  The base implementation
        yields the whole stream in one piece; the block-parallel codecs
        override it to stream length-bounded fragments as their pool
        finishes each block, so consumers that write straight to storage
        never materialize the full compressed body.
        """
        yield self.compress(data, cuts)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


def register_codec(factory: Callable[..., Codec], *, name: str | None = None) -> None:
    """Register ``factory`` (usually the class itself) under its name."""
    codec_name = name or getattr(factory, "name", "")
    if not codec_name:
        raise ConfigurationError("codec factory must define a non-empty name")
    _REGISTRY[codec_name] = factory


def get_codec(name: str, **kwargs) -> Codec:
    """Instantiate the codec registered under ``name``.

    Extra keyword arguments are forwarded to the factory *filtered by its
    signature*: kwargs the factory does not accept (e.g. ``threads`` for
    the single-threaded codecs) are dropped, so callers can pass the whole
    backend knob set (``level``, ``threads``, ``block_bytes``) uniformly
    and every codec picks up what it understands.
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown codec {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
    if kwargs:
        try:
            params = inspect.signature(factory).parameters.values()
        except (TypeError, ValueError):  # C callables without a signature
            return factory(**kwargs)
        if not any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params):
            accepted = {
                p.name
                for p in params
                if p.kind
                in (inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.KEYWORD_ONLY)
            }
            kwargs = {k: v for k, v in kwargs.items() if k in accepted}
    return factory(**kwargs)


class NullCodec(Codec):
    """Identity codec -- useful for measuring formatting overhead alone."""

    name = "none"

    def __init__(self, level: int = 0):
        self.level = level  # accepted for interface uniformity, unused

    def compress(self, data: bytes, cuts=None) -> bytes:
        return bytes(data)

    def decompress(self, data: bytes) -> bytes:
        return bytes(data)


register_codec(NullCodec)
