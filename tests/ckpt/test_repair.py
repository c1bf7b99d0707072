"""Parity write + parity repair through the checkpoint manager."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ckpt.manager import CheckpointManager
from repro.ckpt.manifest import array_key, parity_key
from repro.ckpt.protocol import ArrayRegistry
from repro.ckpt.recovery import restore_with_fallback
from repro.ckpt.store import MemoryStore, StoreWrapper
from repro.ckpt.temporal import CODEC_DELTA, CODEC_KEYFRAME
from repro.config import ResilienceConfig, TemporalConfig
from repro.exceptions import CommitError, CorruptionError, FormatError


@pytest.fixture
def registry(smooth2d, rng):
    reg = ArrayRegistry()
    reg.register("temperature", smooth2d.copy())
    reg.register("counter", np.arange(64, dtype=np.int64))
    reg.register("velocity", rng.normal(0.0, 1.0, (16, 8)))
    return reg


def make_manager(registry, store=None, **res_kwargs):
    res_kwargs.setdefault("parity", True)
    return CheckpointManager(
        registry,
        store if store is not None else MemoryStore(),
        resilience=ResilienceConfig(**res_kwargs),
    )


def corrupt(store, key, offset=7):
    blob = bytearray(store.get(key))
    blob[offset % len(blob)] ^= 0xFF
    store.put(key, bytes(blob))


class KeyRecordingStore(StoreWrapper):
    """Remembers the key of every read, in order."""

    def __init__(self, inner) -> None:
        super().__init__(inner)
        self.keys_read: list[str] = []

    def _before(self, op: str, key: str) -> None:
        if op == "get":
            self.keys_read.append(key)


class TestParityWrite:
    def test_manifest_records_parity_group(self, registry):
        manager = make_manager(registry)
        manifest = manager.checkpoint(1)
        (pe,) = manifest.parity
        assert pe.members == ("counter", "temperature", "velocity")
        assert pe.key == parity_key(1, 0)
        assert manager.store.exists(pe.key)
        assert len(manager.store.get(pe.key)) == pe.stored_bytes

    def test_group_size_splits_groups(self, registry):
        manager = make_manager(registry, parity_group_size=2)
        manifest = manager.checkpoint(1)
        assert [pe.members for pe in manifest.parity] == [
            ("counter", "temperature"), ("velocity",),
        ]

    def test_array_named_like_a_parity_blob_is_refused(self, registry):
        """``array_key(step, "parity-0000")`` *is* ``parity_key(step, 0)``:
        the parity put used to overwrite the array blob, committing a
        generation its own ``verify`` called corrupt."""
        registry.register("parity-0000", np.arange(32, dtype=np.float64))
        assert array_key(1, "parity-0000") == parity_key(1, 0)
        with pytest.raises(CommitError, match="already written"):
            make_manager(registry).checkpoint(1)
        # without parity the name is an array name like any other
        plain = make_manager(registry, parity=False)
        plain.checkpoint(1)
        plain.verify(1)

    def test_refused_generation_is_reaped(self, registry):
        registry.register("parity-0000", np.arange(32, dtype=np.float64))
        manager = make_manager(registry)
        with pytest.raises(CommitError):
            manager.checkpoint(1)
        assert manager.steps() == []
        assert manager.store.list_keys("ckpt/") == []

    def test_parity_off_writes_nothing_extra(self, registry):
        manager = make_manager(registry, parity=False)
        manifest = manager.checkpoint(1)
        assert manifest.parity == ()
        assert not any(
            "parity" in k for k in manager.store.list_keys("ckpt/")
        )

    def test_parity_blob_size_tracks_largest_member(self, registry):
        manager = make_manager(registry)
        manifest = manager.checkpoint(1)
        largest = max(e.stored_bytes for e in manifest.entries)
        (pe,) = manifest.parity
        assert pe.stored_bytes == largest + 8  # the length prefix

    def test_array_blobs_identical_with_and_without_parity(self, registry):
        parity_store = MemoryStore()
        make_manager(registry, store=parity_store).checkpoint(1)
        plain_store = MemoryStore()
        make_manager(registry, store=plain_store, parity=False).checkpoint(1)
        for key in plain_store.list_keys("ckpt/0000000001/"):
            if key.rsplit("/", 1)[-1] in ("manifest.json", "COMMIT"):
                continue  # metadata differs: one records parity entries
            assert parity_store.get(key) == plain_store.get(key)


class TestRepairOnRestore:
    @pytest.mark.parametrize("victim", ["temperature", "counter", "velocity"])
    def test_single_corruption_heals_byte_identical(self, registry, victim):
        manager = make_manager(registry)
        manager.checkpoint(1)
        reference = manager.load_arrays(1)
        corrupt(manager.store, array_key(1, victim))
        healed = manager.load_arrays(1)
        for name in reference:
            np.testing.assert_array_equal(healed[name], reference[name])

    @pytest.mark.parametrize("victim", ["temperature", "counter", "velocity"])
    def test_single_deletion_heals(self, registry, victim):
        manager = make_manager(registry)
        manager.checkpoint(1)
        reference = manager.load_arrays(1)
        manager.store.delete(array_key(1, victim))
        healed = manager.load_arrays(1)
        for name in reference:
            np.testing.assert_array_equal(healed[name], reference[name])

    def test_healed_blob_is_rewritten_to_the_store(self, registry):
        manager = make_manager(registry)
        manifest = manager.checkpoint(1)
        key = array_key(1, "temperature")
        manager.store.delete(key)
        manager.load_arrays(1)
        manifest.entry("temperature").verify(manager.store.get(key))
        (event,) = manager.repair_log
        assert event.name == "temperature" and event.rewritten

    def test_one_loss_per_group_is_repairable(self, registry):
        manager = make_manager(registry, parity_group_size=1)
        manager.checkpoint(1)
        reference = manager.load_arrays(1)
        # one loss in *every* group simultaneously
        for name in ("temperature", "counter", "velocity"):
            manager.store.delete(array_key(1, name))
        healed = manager.load_arrays(1)
        for name in reference:
            np.testing.assert_array_equal(healed[name], reference[name])
        assert len(manager.repair_log) == 3

    def test_two_losses_in_one_group_raise(self, registry):
        manager = make_manager(registry)
        manager.checkpoint(1)
        manager.store.delete(array_key(1, "temperature"))
        manager.store.delete(array_key(1, "counter"))
        with pytest.raises(CorruptionError, match="one member"):
            manager.load_arrays(1)

    def test_lost_member_and_lost_parity_raise(self, registry):
        manager = make_manager(registry)
        manager.checkpoint(1)
        manager.store.delete(array_key(1, "temperature"))
        manager.store.delete(parity_key(1, 0))
        with pytest.raises(CorruptionError, match="parity blob"):
            manager.load_arrays(1)

    def test_repair_false_forces_fail_fast(self, registry):
        manager = make_manager(registry)
        manager.checkpoint(1)
        corrupt(manager.store, array_key(1, "temperature"))
        with pytest.raises(CorruptionError):
            manager.restore(1, repair=False)

    def test_restore_heals_transparently(self, registry, smooth2d):
        manager = make_manager(registry)
        manager.checkpoint(1)
        corrupt(manager.store, array_key(1, "temperature"))
        registry.get("temperature")[:] = 0.0
        manager.restore(1)
        reference = CheckpointManager(
            registry, manager.store
        ).load_arrays(1)
        np.testing.assert_array_equal(
            registry.get("temperature"), reference["temperature"]
        )

    def test_corrupt_parity_is_ignored_when_members_are_clean(self, registry):
        manager = make_manager(registry)
        manager.checkpoint(1)
        reference = manager.load_arrays(1)
        corrupt(manager.store, parity_key(1, 0))
        healed = manager.load_arrays(1)
        for name in reference:
            np.testing.assert_array_equal(healed[name], reference[name])


def temporal_chain(smooth2d, **res_kwargs) -> CheckpointManager:
    """Steps 1-4 of two drifting fields: keyframe 1, deltas 2-4 chained
    back to it, each generation with its own parity group."""
    reg = ArrayRegistry()
    reg.register("u", smooth2d.copy())
    reg.register("v", smooth2d[::-1].copy())
    res_kwargs.setdefault("parity", True)
    manager = CheckpointManager(
        reg,
        MemoryStore(),
        temporal=TemporalConfig(error_bound=1e-3, keyframe_every=8),
        resilience=ResilienceConfig(**res_kwargs),
    )
    for step in range(1, 5):
        for name in reg.names():
            reg.get(name)[...] += 0.01 * np.sin(np.arange(32) / 5.0 + step)
        manager.checkpoint(step)
    return manager


class TestRepairAlongTemporalChains:
    """An ancestor blob goes through the same ladder as the generation
    restored: retry, CRC re-read, then parity repair."""

    def test_damaged_ancestor_is_healed_and_the_newest_step_restored(self, smooth2d):
        manager = temporal_chain(smooth2d)
        assert [manager.read_manifest(s).entry("u").codec for s in (1, 2, 3, 4)] == [
            CODEC_KEYFRAME, CODEC_DELTA, CODEC_DELTA, CODEC_DELTA,
        ]
        reference = manager.load_arrays(4)
        key = array_key(2, "u")
        corrupt(manager.store, key)
        result = restore_with_fallback(manager)
        assert (result.step, result.skipped, result.repairs) == (4, (), 1)
        (event,) = manager.repair_log
        assert (event.step, event.kind, event.name, event.rewritten) == (2, "member", "u", True)
        manager.read_manifest(2).entry("u").verify(manager.store.get(key))  # healed at rest
        for name, arr in reference.items():
            np.testing.assert_array_equal(manager.registry.get(name), arr)

    def test_repair_false_reaches_the_ancestors(self, smooth2d):
        manager = temporal_chain(smooth2d)
        corrupt(manager.store, array_key(2, "u"))
        with pytest.raises(CorruptionError, match="checkpoint 2 .*not attempted"):
            manager.restore(4, repair=False)
        assert manager.repair_log == []

    def test_survivors_are_read_only_for_a_repair(self, smooth2d):
        """Healthy chains read each ancestor blob once and no parity blob;
        a damaged ancestor adds exactly its group's parity blob and the
        survivor nothing else had asked for yet."""
        manager = temporal_chain(smooth2d)
        manager.store = recording = KeyRecordingStore(manager.store)
        manager.load_arrays(4)
        healthy = list(recording.keys_read)
        assert len(healthy) == len(set(healthy))
        assert not any("parity" in key for key in healthy)
        corrupt(recording.inner, array_key(2, "u"))
        recording.keys_read.clear()
        manager.load_arrays(4)
        extra = list(recording.keys_read)
        for key in healthy:
            extra.remove(key)
        assert sorted(extra) == sorted([array_key(2, "v"), parity_key(2, 0)])


class TestRepairCounters:
    def test_metrics_and_log(self, registry):
        from repro.obs.metrics import get_registry

        reg = get_registry()
        before = (
            reg.counter("ckpt.repair.healed").value
            if "ckpt.repair.healed" in reg
            else 0.0
        )
        manager = make_manager(registry)
        manager.checkpoint(1)
        corrupt(manager.store, array_key(1, "velocity"))
        manager.load_arrays(1)
        assert reg.counter("ckpt.repair.healed").value == before + 1
        (event,) = manager.repair_log
        assert event.kind == "member" and event.step == 1
        assert "CRC" in event.reason

    def test_repair_span_emitted(self, registry):
        from repro.obs.trace import get_tracer

        tracer = get_tracer()
        manager = make_manager(registry)
        manager.checkpoint(1)
        manager.store.delete(array_key(1, "counter"))
        tracer.reset()
        tracer.enable()
        try:
            manager.load_arrays(1)
            spans = tracer.spans
        finally:
            tracer.disable()
        (repair,) = [s for s in spans if s.name == "ckpt.repair"]
        assert repair.attrs["array"] == "counter"
        assert repair.attrs["rewritten"] is True


class TestVerifyRepair:
    def test_verify_detects_parity_damage(self, registry):
        manager = make_manager(registry)
        manager.checkpoint(1)
        corrupt(manager.store, parity_key(1, 0))
        with pytest.raises(CorruptionError, match="parity blob"):
            manager.verify(1)

    def test_verify_repair_rebuilds_parity(self, registry):
        manager = make_manager(registry)
        manifest = manager.checkpoint(1)
        manager.store.delete(parity_key(1, 0))
        manager.verify(1, repair=True)
        manifest.parity[0].verify(manager.store.get(parity_key(1, 0)))
        (event,) = manager.repair_log
        assert event.kind == "parity"

    def test_verify_repair_heals_member_and_store_is_clean_after(
        self, registry
    ):
        manager = make_manager(registry)
        manager.checkpoint(1)
        corrupt(manager.store, array_key(1, "temperature"))
        manager.verify(1, repair=True)
        manager.verify(1)  # clean second pass, no exception

    def test_verify_without_repair_still_fails(self, registry):
        manager = make_manager(registry)
        manager.checkpoint(1)
        corrupt(manager.store, array_key(1, "temperature"))
        with pytest.raises(FormatError):
            manager.verify(1)


class TestSingleArrayReplicaParity:
    def test_single_array_group_degenerates_to_replica(self, smooth2d):
        reg = ArrayRegistry()
        reg.register("only", smooth2d.copy())
        manager = make_manager(reg)
        manager.checkpoint(1)
        reference = manager.load_arrays(1)
        manager.store.delete(array_key(1, "only"))
        healed = manager.load_arrays(1)
        np.testing.assert_array_equal(healed["only"], reference["only"])


class TestNoParityPointedErrors:
    def test_corruption_without_parity_is_pointed(self, registry):
        manager = make_manager(registry, parity=False)
        manager.checkpoint(1)
        corrupt(manager.store, array_key(1, "temperature"))
        with pytest.raises(CorruptionError, match="no parity repair"):
            manager.load_arrays(1)

    def test_missing_without_parity_is_pointed(self, registry):
        manager = make_manager(registry, parity=False)
        manager.checkpoint(1)
        manager.store.delete(array_key(1, "counter"))
        with pytest.raises(CorruptionError, match="missing blob"):
            manager.load_arrays(1)

    def test_delete_removes_parity_blobs_too(self, registry):
        manager = make_manager(registry)
        manager.checkpoint(1)
        manager.delete(1)
        assert manager.store.list_keys("ckpt/") == []
