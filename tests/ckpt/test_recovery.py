"""Unit tests for startup recovery and the fallback restore ladder."""

from __future__ import annotations

import dataclasses
from unittest import mock

import numpy as np
import pytest

from repro.ckpt.journal import (
    GEN_COMMITTED,
    GEN_ORPHANED,
    GEN_TORN,
    CommitMarker,
    is_committed,
    scan_generations,
)
from repro.ckpt.manager import CheckpointManager
from repro.ckpt.manifest import array_key, commit_key, generation_prefix, manifest_key
from repro.ckpt.protocol import ArrayRegistry
from repro.ckpt.recovery import recover, restore_with_fallback
from repro.ckpt.store import MemoryStore
from repro.exceptions import (
    CheckpointError,
    CheckpointNotFoundError,
    RestoreError,
    SimulatedCrash,
    StorageError,
)
from repro.obs.metrics import get_registry


def _value(tag: int) -> np.ndarray:
    return np.full((4, 3), float(tag))


def _registry(tag: int) -> ArrayRegistry:
    reg = ArrayRegistry()
    reg.register("field", _value(tag).copy())
    return reg


def _manager(store, tag: int = 0) -> CheckpointManager:
    return CheckpointManager(_registry(tag), store, policy={"field": "lossless"})


def _commit(store, step: int) -> None:
    _manager(store, tag=step).checkpoint(step)


def _state_of(store, step: int) -> str:
    for gen in scan_generations(store):
        if gen.step == step:
            return gen.state
    raise AssertionError(f"no generation {step} on store")


# -- damage to a generation *after* its seal ------------------------------------
# (also driven through the CLI by tests/test_cli_restore_restart.py)


def _flip_manifest_byte(store, step: int) -> None:
    payload = bytearray(store.get(manifest_key(step)))
    payload[len(payload) // 2] ^= 0x01
    store.put(manifest_key(step), bytes(payload))


def _truncate_marker(store, step: int) -> None:
    store.put(commit_key(step), store.get(commit_key(step))[:7])


def _misname_marker(store, step: int) -> None:
    marker = CommitMarker.from_json(store.get(commit_key(step)))
    store.put(
        commit_key(step), dataclasses.replace(marker, step=step + 1).to_json()
    )


#: damage kind -> (how to inflict it, what the classification reason says)
DAMAGE_AFTER_SEAL = {
    "manifest-byte-flipped": (_flip_manifest_byte, "does not match"),
    "marker-truncated": (_truncate_marker, "unreadable"),
    "marker-names-another-step": (_misname_marker, "names step"),
}
#: ... plus a marker never published: every reader refuses that generation
#: the same way (the fallback ladder does not even try it)
TORN = {
    **DAMAGE_AFTER_SEAL,
    "marker-missing": (lambda store, step: store.delete(commit_key(step)), "no commit marker"),
}


class TestClassification:
    def test_clean_commit_is_committed(self):
        store = MemoryStore()
        _commit(store, 1)
        assert _state_of(store, 1) == GEN_COMMITTED

    def test_blobs_only_is_orphaned(self):
        store = MemoryStore()
        store.put(array_key(1, "field"), b"blob")
        assert _state_of(store, 1) == GEN_ORPHANED

    def test_manifest_without_marker_is_torn(self):
        store = MemoryStore()
        _commit(store, 1)
        store.delete(commit_key(1))
        gen = scan_generations(store)[0]
        assert gen.state == GEN_TORN
        assert "no commit marker" in gen.reason

    def test_marker_without_manifest_is_torn(self):
        store = MemoryStore()
        _commit(store, 1)
        store.delete(manifest_key(1))
        gen = scan_generations(store)[0]
        assert gen.state == GEN_TORN
        assert "manifest is missing" in gen.reason

    def test_torn_marker_bytes(self):
        store = MemoryStore()
        _commit(store, 1)
        _truncate_marker(store, 1)
        gen = scan_generations(store)[0]
        assert gen.state == GEN_TORN
        assert "unreadable" in gen.reason

    @pytest.mark.parametrize("damage", TORN)
    def test_every_reader_agrees_on_a_generation_damaged_after_its_seal(self, damage):
        """One definition of committed: the listing, the point check, the
        scan, both restores and every reader of one generation name the
        same generations."""
        inflict, reason = TORN[damage]
        store = MemoryStore()
        _commit(store, 1)
        _commit(store, 2)
        inflict(store, 2)
        reg = _registry(0)
        mgr = CheckpointManager(reg, store, policy={"field": "lossless"})
        gens = {g.step: g for g in scan_generations(store)}
        assert (gens[1].state, gens[2].state) == (GEN_COMMITTED, GEN_TORN)
        assert reason in gens[2].reason
        assert mgr.steps() == [1]
        assert is_committed(store, 1) and not is_committed(store, 2)
        for read in (mgr.restore, mgr.load_arrays, mgr.verify, mgr.read_manifest):
            with pytest.raises(CheckpointNotFoundError, match=reason):
                read(2)
        assert mgr.restore().step == 1
        np.testing.assert_array_equal(reg.get("field"), _value(1))
        assert recover(store).reaped == [2]

    def test_marker_naming_wrong_step(self):
        store = MemoryStore()
        _commit(store, 1)
        store.put(commit_key(2), store.get(commit_key(1)))
        store.put(manifest_key(2), store.get(manifest_key(1)))
        assert _state_of(store, 2) == GEN_TORN

    def test_manifest_crc_mismatch(self):
        store = MemoryStore()
        _commit(store, 1)
        store.put(manifest_key(1), store.get(manifest_key(1)) + b" ")
        gen = scan_generations(store)[0]
        assert gen.state == GEN_TORN
        assert "does not match" in gen.reason

    def test_marker_sealing_garbage_manifest(self):
        """A marker whose CRC pins bytes that are not a manifest at all."""
        import zlib

        store = MemoryStore()
        garbage = b"this is not a manifest"
        store.put(manifest_key(1), garbage)
        marker = CommitMarker(
            step=1,
            manifest_crc32=zlib.crc32(garbage) & 0xFFFFFFFF,
            manifest_bytes=len(garbage),
            n_entries=0,
        )
        store.put(commit_key(1), marker.to_json())
        gen = scan_generations(store)[0]
        assert gen.state == GEN_TORN
        assert "does not parse" in gen.reason

    def test_scan_ignores_foreign_prefixes(self):
        store = MemoryStore()
        _commit(store, 1)
        store.put("ckpt/not-a-step/x.bin", b"foreign")
        store.put("other/thing.bin", b"foreign")
        gens = scan_generations(store)
        assert [g.step for g in gens] == [1]
        # and recovery must not delete what it did not classify
        recover(store)
        assert store.exists("ckpt/not-a-step/x.bin")
        assert store.exists("other/thing.bin")

    def test_scan_orders_by_step(self):
        store = MemoryStore()
        for step in (5, 1, 3):
            _commit(store, step)
        assert [g.step for g in scan_generations(store)] == [1, 3, 5]


class TestRecover:
    def test_reaps_torn_and_orphaned_only(self):
        store = MemoryStore()
        _commit(store, 1)
        _commit(store, 2)
        store.delete(commit_key(2))  # tear generation 2
        store.put(array_key(3, "field"), b"blob")  # orphan generation 3
        report = recover(store)
        assert report.committed == [1]
        assert report.reaped == [2, 3]
        assert report.keys_removed > 0
        assert store.list_keys(generation_prefix(2)) == []
        assert store.list_keys(generation_prefix(3)) == []

    def test_idempotent(self):
        store = MemoryStore()
        _commit(store, 1)
        store.put(array_key(2, "field"), b"blob")
        recover(store)
        second = recover(store)
        assert second.reaped == []
        assert second.keys_removed == 0
        assert second.committed == [1]

    def test_reap_false_only_reports(self):
        store = MemoryStore()
        _commit(store, 1)
        store.delete(commit_key(1))
        report = recover(store, reap=False)
        assert report.torn == [1]
        assert report.reaped == []
        assert store.exists(manifest_key(1))

    def test_report_to_dict(self):
        store = MemoryStore()
        _commit(store, 1)
        doc = recover(store).to_dict()
        assert doc["committed"] == [1]
        assert doc["reaped"] == []
        assert doc["generations"][0]["state"] == GEN_COMMITTED


class TestCommitBoundary:
    """The seal commits a generation; what runs after it -- the retention
    prune -- can fail without taking the commit back."""

    def _manager(self, store) -> CheckpointManager:
        return CheckpointManager(
            _registry(0), store, policy={"field": "lossless"}, retention=2
        )

    def test_failed_prune_is_counted_and_retried_by_the_next_write(self, monkeypatch):
        store = MemoryStore()
        mgr = self._manager(store)
        mgr.checkpoint(1)
        mgr.checkpoint(2)
        failures = get_registry().counter("ckpt.prune.failures")
        before = failures.value
        with monkeypatch.context() as patch:
            patch.setattr(store, "delete", mock.Mock(side_effect=StorageError("read-only")))
            assert mgr.checkpoint(3).step == 3
        assert mgr.steps() == [1, 2, 3]
        assert failures.value == before + 1
        mgr.checkpoint(4)
        assert mgr.steps() == [3, 4]
        assert failures.value == before + 1

    def test_a_crash_mid_prune_still_propagates(self, monkeypatch):
        store = MemoryStore()
        mgr = self._manager(store)
        mgr.checkpoint(1)
        mgr.checkpoint(2)
        monkeypatch.setattr(store, "delete", mock.Mock(side_effect=SimulatedCrash("killed")))
        with pytest.raises(SimulatedCrash):
            mgr.checkpoint(3)
        assert is_committed(store, 3)


class TestFallbackLadder:
    def _store_with_generations(self, steps=(1, 2, 3)) -> MemoryStore:
        store = MemoryStore()
        for step in steps:
            _commit(store, step)
        return store

    def _corrupt_blob(self, store, step: int) -> None:
        key = array_key(step, "field")
        blob = bytearray(store.get(key))
        blob[len(blob) // 2] ^= 0xFF
        store.put(key, bytes(blob))

    def test_restores_newest_when_healthy(self):
        store = self._store_with_generations()
        reg = _registry(0)
        mgr = CheckpointManager(reg, store, policy={"field": "lossless"})
        result = restore_with_fallback(mgr)
        assert result.step == 3
        assert result.skipped == ()
        assert result.rolled_back == 0
        np.testing.assert_array_equal(reg.get("field"), _value(3))
        assert result.describe() == "restored generation 3"

    def test_falls_back_past_corrupt_newest(self):
        store = self._store_with_generations()
        self._corrupt_blob(store, 3)
        reg = _registry(0)
        mgr = CheckpointManager(reg, store, policy={"field": "lossless"})
        result = restore_with_fallback(mgr)
        assert result.step == 2
        assert result.rolled_back == 1
        assert result.skipped[0][0] == 3
        assert "CRC" in result.skipped[0][1]
        np.testing.assert_array_equal(reg.get("field"), _value(2))
        assert "skipped 1 newer generation(s): 3" in result.describe()

    def test_max_fallback_bounds_the_ladder(self):
        store = self._store_with_generations()
        self._corrupt_blob(store, 3)
        mgr = _manager(store)
        with pytest.raises(RestoreError, match="step 3"):
            restore_with_fallback(mgr, max_fallback=0)

    def test_max_fallback_negative_rejected(self):
        store = self._store_with_generations()
        with pytest.raises(CheckpointError, match="max_fallback"):
            restore_with_fallback(_manager(store), max_fallback=-1)

    def test_explicit_step_starts_ladder_there(self):
        store = self._store_with_generations()
        reg = _registry(0)
        mgr = CheckpointManager(reg, store, policy={"field": "lossless"})
        result = restore_with_fallback(mgr, step=2)
        assert result.step == 2
        np.testing.assert_array_equal(reg.get("field"), _value(2))

    def test_explicit_step_not_committed(self):
        store = self._store_with_generations((1, 3))
        with pytest.raises(CheckpointNotFoundError, match="step 2"):
            restore_with_fallback(_manager(store), step=2)

    def test_empty_store(self):
        with pytest.raises(CheckpointNotFoundError, match="no committed"):
            restore_with_fallback(_manager(MemoryStore()))

    def test_total_failure_carries_per_step_diagnosis(self):
        store = self._store_with_generations((1, 2))
        self._corrupt_blob(store, 1)
        self._corrupt_blob(store, 2)
        with pytest.raises(RestoreError) as excinfo:
            restore_with_fallback(_manager(store))
        msg = str(excinfo.value)
        assert "2 committed generation(s)" in msg
        assert "step 2:" in msg and "step 1:" in msg

    @pytest.mark.parametrize("damage", DAMAGE_AFTER_SEAL)
    def test_falls_back_past_a_generation_damaged_after_its_seal(self, damage):
        """No recovery pass ran: the ladder itself must diagnose the
        published-then-damaged generation, record the skip and go on."""
        inflict, reason = DAMAGE_AFTER_SEAL[damage]
        store = self._store_with_generations((1, 2))
        inflict(store, 2)
        reg = _registry(0)
        mgr = CheckpointManager(reg, store, policy={"field": "lossless"})
        result = restore_with_fallback(mgr)
        assert result.step == 1
        assert [s for s, _ in result.skipped] == [2]
        assert reason in result.skipped[0][1]
        np.testing.assert_array_equal(reg.get("field"), _value(1))
        # naming the damaged step starts the same ladder there
        assert restore_with_fallback(mgr, step=2).step == 1
        with pytest.raises(RestoreError, match="step 2"):
            restore_with_fallback(mgr, max_fallback=0)

    def test_torn_generations_are_invisible_to_the_ladder(self):
        store = self._store_with_generations((1, 2))
        store.delete(commit_key(2))  # newest is torn, not corrupt
        reg = _registry(0)
        mgr = CheckpointManager(reg, store, policy={"field": "lossless"})
        result = restore_with_fallback(mgr)
        assert result.step == 1
        assert result.skipped == ()  # torn != skipped: it was never a candidate
