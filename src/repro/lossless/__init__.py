"""Lossless codecs used as the final pipeline stage and as baselines.

Importing this package registers every built-in codec; use
:func:`get_codec` to instantiate one by name.
"""

from .base import Codec, NullCodec, get_codec, register_codec
from .deflate import DeflateCodec, lz4_available, zstd_available
from .fpc import XorDeltaCodec
from .pool import get_shared_pool, shutdown_shared_pool
from .rle import RleCodec
from .tempfile_gzip import TempfileGzipCodec

__all__ = [
    "Codec",
    "NullCodec",
    "DeflateCodec",
    "TempfileGzipCodec",
    "RleCodec",
    "XorDeltaCodec",
    "get_codec",
    "register_codec",
    "get_shared_pool",
    "shutdown_shared_pool",
    "zstd_available",
    "lz4_available",
]
