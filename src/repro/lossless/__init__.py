"""Lossless codecs used as the final pipeline stage and as baselines.

Importing this package registers every built-in codec; use
:func:`get_codec` to instantiate one by name.
"""

from .base import Codec, NullCodec, available_codecs, get_codec, register_codec
from .fpc import XorDeltaCodec
from .modern import Lz4Codec, ZstdCodec, lz4_available, zstd_available
from .parallel_deflate import GzipMTCodec, ZlibMTCodec
from .pool import get_shared_pool, shutdown_shared_pool
from .rle import RleCodec
from .tempfile_gzip import TempfileGzipCodec
from .zlib_codec import GzipCodec, ZlibCodec

__all__ = [
    "Codec",
    "NullCodec",
    "ZlibCodec",
    "GzipCodec",
    "GzipMTCodec",
    "ZlibMTCodec",
    "ZstdCodec",
    "Lz4Codec",
    "TempfileGzipCodec",
    "RleCodec",
    "XorDeltaCodec",
    "available_codecs",
    "get_codec",
    "register_codec",
    "get_shared_pool",
    "shutdown_shared_pool",
    "zstd_available",
    "lz4_available",
]
