"""Lossless codecs used as the final pipeline stage and as baselines.

Importing this package registers every built-in codec; use
:func:`get_codec` to instantiate one by name.
"""

from . import deflate, fpc, rle, tempfile_gzip  # imported to register their codecs
from .base import Codec, get_codec
from .deflate import lz4_available, zstd_available

__all__ = ["Codec", "get_codec", "zstd_available", "lz4_available"]
