"""Checkpoint manager with process-parallel (chunked) compression."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ckpt.manager import CheckpointManager, deserialize_array
from repro.ckpt.manifest import array_key
from repro.ckpt.protocol import ArrayRegistry
from repro.ckpt.store import MemoryStore
from repro.core.container import CHUNK_MAGIC
from repro.exceptions import CheckpointError


@pytest.fixture
def arrays(smooth3d, rng):
    return {
        "field": smooth3d,
        "counter": np.arange(10, dtype=np.int64),
        "scalarish": np.ones((1, 4)),  # single row: stays single-blob
    }


@pytest.fixture
def registry(arrays):
    reg = ArrayRegistry()
    for name, arr in arrays.items():
        reg.register(name, arr)
    return reg


class TestWorkersPath:
    def test_roundtrip(self, registry, arrays):
        with CheckpointManager(
            registry, MemoryStore(), workers=2, chunk_rows=16
        ) as mgr:
            mgr.checkpoint(0)
            restored = mgr.load_arrays(0)
        np.testing.assert_array_equal(restored["counter"], arrays["counter"])
        assert restored["field"].shape == arrays["field"].shape
        err = np.abs(restored["field"] - arrays["field"]).mean()
        assert err < np.abs(arrays["field"]).mean() * 1e-2

    def test_chunked_codec_recorded(self, registry):
        store = MemoryStore()
        with CheckpointManager(registry, store, workers=2, chunk_rows=16) as mgr:
            manifest = mgr.checkpoint(0)
        codecs = {e.name: e.codec for e in manifest.entries}
        assert codecs["field"] == "wavelet-lossy-chunked"
        assert codecs["counter"] == "lossless:zlib"
        # single-row arrays have nothing to slab-split
        assert codecs["scalarish"] == "wavelet-lossy"
        params = {e.name: e.codec_params for e in manifest.entries}
        assert params["field"]["chunk_rows"] == 16
        blob = store.get(array_key(0, "field"))
        assert blob[:4] == CHUNK_MAGIC

    def test_blobs_byte_identical_to_serial_chunked(self, registry, arrays):
        from repro.core.chunked import chunked_compress

        store = MemoryStore()
        with CheckpointManager(registry, store, workers=2, chunk_rows=16) as mgr:
            cfg = mgr.config
            mgr.checkpoint(0)
        blob = store.get(array_key(0, "field"))
        assert blob == chunked_compress(arrays["field"], cfg, chunk_rows=16)

    def test_verify_passes(self, registry):
        with CheckpointManager(
            registry, MemoryStore(), workers=2, chunk_rows=16
        ) as mgr:
            mgr.checkpoint(3)
            mgr.verify(3)

    def test_deserialize_dispatches_on_chunk_magic(self, smooth3d):
        from repro.core.chunked import chunked_compress

        blob = chunked_compress(smooth3d, chunk_rows=16)
        back = deserialize_array(blob)
        assert back.shape == smooth3d.shape

    def test_serial_manager_format_unchanged(self, registry):
        manifest = CheckpointManager(registry, MemoryStore()).checkpoint(0)
        codecs = {e.codec for e in manifest.entries}
        assert "wavelet-lossy-chunked" not in codecs

    def test_close_idempotent(self, registry):
        mgr = CheckpointManager(registry, MemoryStore(), workers=2)
        mgr.checkpoint(0)
        mgr.close()
        mgr.close()
        # a closed manager can start a fresh pool on the next write
        mgr.checkpoint(1)
        mgr.close()

    @pytest.mark.parametrize("kwargs", [
        {"workers": 0},
        {"workers": -2},
        {"workers": 1.5},
        {"chunk_rows": 0},
    ])
    def test_validation(self, registry, kwargs):
        with pytest.raises(CheckpointError):
            CheckpointManager(registry, MemoryStore(), **kwargs)
