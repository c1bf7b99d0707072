"""Temp-file gzip codec reproducing the paper's measured implementation.

Section IV-D: "The current implementation writes temporary checkpoint data
as files, and apply gzip to these files via the file system.  This cost
will be mostly eliminated by compressing the temporary checkpoint data with
zlib in memory."  Figure 9's cost breakdown therefore has *two* bars for
the backend: the temporary file write and the gzip pass itself.

This codec routes every (de)compression through real files in the system
temp directory and records the wall-clock split between the temp write and the
gzip pass in :attr:`last_timings`, which the Fig. 9 breakdown harness reads.
"""

from __future__ import annotations

import gzip
import os
import tempfile
import time
import uuid

from ..exceptions import StorageError
from .base import Codec, register_codec

__all__ = ["TempfileGzipCodec"]


class TempfileGzipCodec(Codec):
    """Gzip at ``level`` via temporary files in the system temp directory
    (``tempfile.gettempdir()``, which ``TMPDIR`` sets); it must exist and
    be writable."""

    name = "tempfile-gzip"

    def __init__(self, level: int = 6):
        if not 0 <= level <= 9:
            raise ValueError(f"gzip level must be in [0, 9], got {level}")
        self.level = level
        self.scratch_dir = tempfile.gettempdir()
        if not os.path.isdir(self.scratch_dir):
            raise StorageError(f"scratch directory does not exist: {self.scratch_dir}")
        #: Wall-clock seconds of the last compress() call, split by phase.
        self.last_timings: dict[str, float] = {"temp_write": 0.0, "gzip": 0.0}

    def _scratch_path(self, suffix: str) -> str:
        return os.path.join(self.scratch_dir, f"repro-{uuid.uuid4().hex}{suffix}")

    def compress(self, data: bytes, cuts=None) -> bytes:
        raw_path = self._scratch_path(".ckpt")
        gz_path = raw_path + ".gz"
        try:
            t0 = time.perf_counter()
            with open(raw_path, "wb") as fh:
                fh.write(data)
                fh.flush()
                os.fsync(fh.fileno())
            t1 = time.perf_counter()
            with open(raw_path, "rb") as src, gzip.open(
                gz_path, "wb", compresslevel=self.level
            ) as dst:
                dst.write(src.read())
            with open(gz_path, "rb") as fh:
                out = fh.read()
            t2 = time.perf_counter()
            self.last_timings = {"temp_write": t1 - t0, "gzip": t2 - t1}
            return out
        except OSError as exc:
            raise StorageError(f"tempfile-gzip compression failed: {exc}") from exc
        finally:
            for path in (raw_path, gz_path):
                try:
                    os.unlink(path)
                except OSError:
                    pass

    def decompress(self, data: bytes) -> bytes:
        gz_path = self._scratch_path(".gz")
        try:
            with open(gz_path, "wb") as fh:
                fh.write(data)
            with gzip.open(gz_path, "rb") as fh:
                return fh.read()
        except OSError as exc:
            raise StorageError(f"tempfile-gzip decompression failed: {exc}") from exc
        finally:
            try:
                os.unlink(gz_path)
            except OSError:
                pass


register_codec(
    TempfileGzipCodec.name,
    lambda level, threads, block_bytes: TempfileGzipCodec(level),
)
