"""Unit tests for the checkpoint manager."""

from __future__ import annotations

import numpy as np
import pytest

from repro import CompressionConfig
from repro.ckpt.manager import (
    CheckpointManager,
    _lossless_body,
    deserialize_array,
    serialize_array_lossless,
)
from repro.ckpt.manifest import array_key, commit_key
from repro.ckpt.protocol import ArrayRegistry
from repro.ckpt.store import CountingStore, MemoryStore
from repro.core import container
from repro.exceptions import (
    CheckpointError,
    CheckpointNotFoundError,
    ConfigurationError,
    FormatError,
)
from repro.lossless import get_codec


def _serialize_threaded(arr, backend, threads):
    """A lossless array blob through a block-parallel codec of *threads*."""
    codec = get_codec(backend, threads=threads, block_bytes=4_096)
    return container.wrap_envelope(_lossless_body(arr), backend, codec=codec)


@pytest.fixture
def registry(smooth3d):
    reg = ArrayRegistry()
    reg.register("temperature", smooth3d.copy())
    reg.register("counter", np.array([7, 8, 9], dtype=np.int64))
    return reg


@pytest.fixture
def manager(registry):
    return CheckpointManager(registry, MemoryStore())


class TestLosslessSerialization:
    @pytest.mark.parametrize(
        "dtype", [np.float64, np.float32, np.int64, np.int8, np.uint32, np.bool_]
    )
    def test_bit_exact_roundtrip(self, dtype):
        rng = np.random.default_rng(1)
        arr = (rng.standard_normal((5, 3)) * 10).astype(dtype)
        blob = serialize_array_lossless(arr, "zlib")
        out = deserialize_array(blob)
        assert out.dtype == arr.dtype
        np.testing.assert_array_equal(out, arr)

    def test_fortran_order_input(self):
        arr = np.asfortranarray(np.arange(12.0).reshape(3, 4))
        out = deserialize_array(serialize_array_lossless(arr, "zlib"))
        np.testing.assert_array_equal(out, arr)

    def test_dispatch_to_lossy_decoder(self, smooth2d):
        from repro.core.pipeline import WaveletCompressor

        blob = WaveletCompressor().compress(smooth2d)
        out = deserialize_array(blob)
        assert out.shape == smooth2d.shape

    @pytest.mark.parametrize("codec", ["gzip-mt", "zlib-mt"])
    def test_threaded_codec_roundtrip(self, codec):
        arr = np.arange(20_000, dtype=np.float64).reshape(100, 200)
        blob = _serialize_threaded(arr, codec, threads=2)
        np.testing.assert_array_equal(deserialize_array(blob), arr)

    def test_threads_do_not_change_bytes(self):
        arr = np.arange(20_000, dtype=np.float64)
        blobs = [
            _serialize_threaded(arr, "gzip-mt", threads=t)
            for t in (1, 2, 8)
        ]
        assert blobs[0] == blobs[1] == blobs[2]


class TestCheckpointWrite:
    def test_manifest_contents(self, manager, smooth3d):
        manifest = manager.checkpoint(5, {"note": "hi"})
        assert manifest.step == 5
        assert manifest.names() == ["counter", "temperature"]
        assert manifest.app_meta == {"note": "hi"}
        temp = manifest.entry("temperature")
        assert temp.codec == "wavelet-lossy"
        assert temp.raw_bytes == smooth3d.nbytes
        assert manifest.entry("counter").codec == "lossless:zlib"

    def test_duplicate_step_rejected(self, manager):
        manager.checkpoint(1)
        with pytest.raises(CheckpointError, match="already exists"):
            manager.checkpoint(1)

    @pytest.mark.parametrize("step", [-1, 1.5, "3", True])
    def test_bad_step(self, manager, step):
        with pytest.raises(CheckpointError):
            manager.checkpoint(step)

    def test_steps_listing(self, manager):
        for step in (3, 1, 7):
            manager.checkpoint(step)
        assert manager.steps() == [1, 3, 7]

    def test_empty_store(self, manager):
        assert manager.steps() == []

    def test_retention_prunes_oldest(self, registry):
        manager = CheckpointManager(registry, MemoryStore(), retention=2)
        for step in (1, 2, 3, 4):
            manager.checkpoint(step)
        assert manager.steps() == [3, 4]

    def test_retention_validation(self, registry):
        with pytest.raises(CheckpointError):
            CheckpointManager(registry, MemoryStore(), retention=0)

    @pytest.mark.parametrize("value", [2.5, True, 0, -1])
    @pytest.mark.parametrize("knob", ["retention", "workers", "chunk_rows"])
    def test_counts_must_be_ints_at_construction(self, registry, knob, value):
        """``retention=2.5`` used to commit a generation and then raise a
        TypeError from the prune; ``True`` kept one, or cut 1-row slabs."""
        with pytest.raises(CheckpointError, match=f"{knob} must be an int >= 1"):
            CheckpointManager(registry, MemoryStore(), **{knob: value})

    def test_unknown_codec_fails_fast(self, registry):
        with pytest.raises(ConfigurationError, match="bogus"):
            CheckpointManager(
                registry, MemoryStore(), config=CompressionConfig(backend="bogus")
            )

    def test_bad_policy_value(self, registry):
        with pytest.raises(CheckpointError, match="policy"):
            CheckpointManager(registry, MemoryStore(), policy={"temperature": 42})

    @pytest.mark.parametrize(
        "kwargs, backend",
        [
            ({"config": CompressionConfig(backend="lz4")}, "lz4"),
            ({"policy": {"temperature": CompressionConfig(backend="lz4")}}, "lz4"),
            ({"config": CompressionConfig(backend="no-such-codec")}, "no-such-codec"),
        ],
        ids=["config", "policy", "unknown"],
    )
    def test_backend_that_cannot_write_is_refused_at_construction(
        self, registry, kwargs, backend
    ):
        """Refused with the error a write through that backend raises."""
        with pytest.raises(ConfigurationError) as written:
            get_codec(backend).compress(b"x")
        with pytest.raises(ConfigurationError) as built:
            CheckpointManager(registry, MemoryStore(), **kwargs)
        assert str(built.value) == str(written.value)


class TestBackendLane:
    """The write pipeline's thread, seen from the manager's public face
    (its behaviour under load is in ``test_manager_pipeline.py``)."""

    @staticmethod
    def _lanes():
        import threading

        return [t for t in threading.enumerate() if t.name.startswith("repro-backend")]

    @pytest.fixture
    def big_registry(self, rng):
        reg = ArrayRegistry()
        reg.register("noise", rng.standard_normal((256, 64)))  # body > 64 KiB
        reg.register("words", rng.integers(0, 2**62, size=16384))
        return reg

    def test_context_manager_stops_the_lane(self, big_registry):
        with CheckpointManager(big_registry, MemoryStore()) as manager:
            manager.checkpoint(0)
            assert len(self._lanes()) == 1
        assert self._lanes() == []
        manager.close()  # idempotent
        manager.checkpoint(1)  # and the next write starts it again
        assert len(self._lanes()) == 1
        manager.close()
        assert self._lanes() == []

    def test_small_arrays_never_start_it(self, manager):
        manager.checkpoint(0)
        assert self._lanes() == []

    def test_deferred_lossless_blob_is_serialize_array_lossless(self, big_registry):
        store = MemoryStore()
        with CheckpointManager(big_registry, store) as manager:
            manager.checkpoint(0)
        assert store.get(array_key(0, "words")) == serialize_array_lossless(
            big_registry.get("words"), "zlib", manager.config.backend_level
        )


class TestRestore:
    def test_roundtrip_lossy_within_bound(self, manager, registry, smooth3d):
        manager.checkpoint(1)
        live = registry.get("temperature")
        live[:] = 0.0
        manager.restore(1)
        from repro.core.errors import mean_relative_error

        assert mean_relative_error(smooth3d, registry.get("temperature")) < 1e-2

    def test_int_arrays_bit_exact(self, manager, registry):
        manager.checkpoint(1)
        registry.get("counter")[:] = 0
        manager.restore()
        np.testing.assert_array_equal(registry.get("counter"), [7, 8, 9])

    def test_lossless_policy_bit_exact(self, registry, smooth3d):
        manager = CheckpointManager(
            registry, MemoryStore(), policy={"temperature": "lossless"}
        )
        manager.checkpoint(1)
        registry.get("temperature")[:] = 0.0
        manager.restore()
        np.testing.assert_array_equal(registry.get("temperature"), smooth3d)

    def test_per_array_config_policy(self, registry):
        manager = CheckpointManager(
            registry,
            MemoryStore(),
            policy={"temperature": CompressionConfig(n_bins=2, quantizer="simple")},
        )
        manifest = manager.checkpoint(1)
        assert manifest.entry("temperature").codec_params["n_bins"] == 2

    def test_restore_latest_by_default(self, manager, registry):
        manager.checkpoint(1)
        registry.get("counter")[:] = 100
        manager.checkpoint(2)
        registry.get("counter")[:] = 0
        manifest = manager.restore()
        assert manifest.step == 2
        assert registry.get("counter")[0] == 100

    def test_restore_empty_store(self, manager):
        with pytest.raises(CheckpointNotFoundError):
            manager.restore()

    def test_restore_unknown_step(self, manager):
        manager.checkpoint(1)
        with pytest.raises(CheckpointNotFoundError):
            manager.restore(99)

    def test_explicit_step_restore_never_lists_the_store(self, registry):
        """restore(step) must cost the same with 3 generations as with
        3000: it checks the step's own marker and manifest, it does not
        walk every generation directory."""
        store = CountingStore(MemoryStore())
        manager = CheckpointManager(registry, store)
        for step in (1, 2, 3):
            manager.checkpoint(step)
        store.lists = 0
        manifest = manager.restore(2)
        assert manifest.step == 2
        assert store.lists == 0

    @pytest.mark.parametrize("damage", ["absent", "no-marker", "torn-marker"])
    def test_torn_or_absent_step_is_not_found(self, registry, damage):
        store = MemoryStore()
        manager = CheckpointManager(registry, store)
        manager.checkpoint(1)
        step = 1
        if damage == "absent":
            step = 7
        elif damage == "no-marker":
            store.delete(commit_key(1))
        else:
            store.put(commit_key(1), store.get(commit_key(1))[:-5])
        with pytest.raises(
            CheckpointNotFoundError,
            match=rf"no committed checkpoint for step {step} \(torn or absent\)",
        ):
            manager.restore(step)

    def test_corruption_detected(self, manager):
        manager.checkpoint(1)
        key = array_key(1, "temperature")
        blob = bytearray(manager.store.get(key))
        blob[-1] ^= 0xFF
        manager.store.put(key, bytes(blob))
        with pytest.raises(FormatError, match="CRC"):
            manager.restore(1)

    def test_verify(self, manager):
        manager.checkpoint(1)
        manifest = manager.verify(1)
        assert manifest.step == 1

    def test_verify_missing_blob(self, manager):
        manager.checkpoint(1)
        manager.store.delete(array_key(1, "counter"))
        with pytest.raises(FormatError, match="missing"):
            manager.verify(1)

    def test_delete(self, manager):
        manager.checkpoint(1)
        manager.delete(1)
        assert manager.steps() == []
        assert manager.store.list_keys("ckpt/0000000001/") == []

    def test_load_arrays_without_registry_touch(self, manager, registry):
        manager.checkpoint(1)
        before = registry.snapshot()
        arrays = manager.load_arrays(1)
        assert set(arrays) == {"temperature", "counter"}
        np.testing.assert_array_equal(registry.get("counter"), before["counter"])


def _count_calls(monkeypatch, owner, name: str) -> list[tuple]:
    """Wrap ``owner.name`` so every call is appended to the returned list."""
    calls: list[tuple] = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    wrapped = staticmethod(counting) if isinstance(
        vars(owner).get(name), staticmethod
    ) else counting
    monkeypatch.setattr(owner, name, wrapped)
    return calls


class TestRestoreDecodesEveryBlobOnce:
    """A restore knows every blob's codec from the manifest, so nothing is
    inflated to find out what it is: one inflate, one parse per blob."""

    LOSSY = ("pressure", "temperature", "wind_u", "wind_v", "wind_w")
    LOSSLESS = ("modulator", "step")

    @pytest.fixture
    def climate_like(self, smooth3d):
        """The benchmark's ``lib_independent`` layout: five lossy float
        arrays, two lossless ones."""
        reg = ArrayRegistry()
        for i, name in enumerate(self.LOSSY):
            reg.register(name, smooth3d + i)
        reg.register("modulator", np.arange(3.0))
        reg.register("step", np.array([41], dtype=np.int64))
        manager = CheckpointManager(
            reg, MemoryStore(), policy={n: "lossless" for n in self.LOSSLESS}
        )
        manager.checkpoint(1)
        return manager

    def test_one_inflate_and_one_parse_per_blob(self, climate_like, monkeypatch):
        from repro.core import container
        from repro.core.pipeline import WaveletCompressor
        from repro.lossless.deflate import DeflateCodec

        inflates = _count_calls(monkeypatch, DeflateCodec, "decompress")
        unwraps = _count_calls(monkeypatch, container, "unwrap_envelope")
        parses = _count_calls(monkeypatch, container, "read_body")
        pipeline = _count_calls(monkeypatch, WaveletCompressor, "decompress")
        climate_like.restore(1)
        n_blobs = len(self.LOSSY) + len(self.LOSSLESS)
        assert len(inflates) == n_blobs  # was 12
        assert len(unwraps) + len(parses) == 2 * n_blobs  # was 24
        # lossy blobs still go through the pipeline's own entry point
        assert len(pipeline) == len(self.LOSSY)

    def test_external_callers_keep_the_header_peek(self, climate_like):
        """``codec=None``: the kind comes from the blob itself."""
        store = climate_like.store
        manifest = climate_like.read_manifest(1)
        for entry in manifest.entries:
            blob = store.get(array_key(1, entry.name))
            np.testing.assert_array_equal(
                deserialize_array(blob), deserialize_array(blob, entry.codec)
            )

    def test_codec_that_contradicts_the_blob_is_a_typed_error(self, climate_like):
        blob = climate_like.store.get(array_key(1, "step"))
        with pytest.raises(FormatError):
            deserialize_array(blob, "wavelet-lossy")


class TestBackendThreadPlumbing:
    def test_constructor_overrides_config(self, registry):
        mgr = CheckpointManager(
            registry,
            MemoryStore(),
            config=CompressionConfig(backend="gzip-mt", backend_block_bytes=4_096),
            backend_threads=2,
        )
        assert mgr.config.backend_threads == 2
        assert mgr.config.backend_block_bytes == 4_096

    def test_constructor_validates(self, registry):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            CheckpointManager(registry, MemoryStore(), backend_threads=0)

    def test_checkpoint_restore_with_threaded_backend(self, registry):
        mgr = CheckpointManager(
            registry,
            MemoryStore(),
            config=CompressionConfig(
                quantizer="none", backend="gzip-mt", backend_block_bytes=8_192
            ),
            backend_threads=2,
        )
        before = registry.snapshot()
        mgr.checkpoint(1)
        registry.get("temperature")[:] = 0.0
        mgr.restore(1)
        np.testing.assert_allclose(
            registry.get("temperature"), before["temperature"], atol=1e-9
        )
        np.testing.assert_array_equal(registry.get("counter"), before["counter"])
