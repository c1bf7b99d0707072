"""Batched group commit: two barriers per batch, atomicity preserved."""

from __future__ import annotations

import pytest

from repro.ckpt.journal import (
    COMMIT_FORMAT_VERSION,
    CommitMarker,
    GroupSealItem,
    group_seal,
    is_committed,
)
from repro.ckpt.manifest import ArrayEntry, CheckpointManifest, array_key, commit_key
from repro.ckpt.store import MemoryStore, Store, StoreWrapper
from repro.exceptions import CommitError


class SyncCountingStore(StoreWrapper):
    """Counts sync() barriers; everything else delegates."""

    def __init__(self, inner: Store) -> None:
        super().__init__(inner)
        self.syncs = 0

    def _before(self, op, key):
        if op == "sync":
            self.syncs += 1


def _write_generation(store: Store, step: int, payload: bytes) -> GroupSealItem:
    """Put the blobs and build the manifest, as the ingest drain does."""
    store.put(array_key(step, "u"), payload)
    manifest = CheckpointManifest(
        step=step,
        entries=(
            ArrayEntry(
                name="u",
                shape=(len(payload),),
                dtype="|u1",
                codec="raw",
                raw_bytes=len(payload),
                stored_bytes=len(payload),
                crc32=ArrayEntry.checksum(payload),
            ),
        ),
        format_version=COMMIT_FORMAT_VERSION,
    )
    return GroupSealItem(store, manifest)


def test_group_seal_commits_every_generation():
    store = MemoryStore()
    items = [_write_generation(store, s, bytes([s]) * 64) for s in range(5)]
    markers = group_seal(items, barrier=store)
    assert len(markers) == 5
    for step in range(5):
        assert is_committed(store, step)
        # the stored marker matches the one returned
        stored = CommitMarker.from_json(store.get(commit_key(step)))
        assert stored.manifest_crc32 == markers[step].manifest_crc32


def test_exactly_two_barriers_per_batch():
    counting = SyncCountingStore(MemoryStore())
    items = [_write_generation(counting, s, b"x" * 32) for s in range(8)]
    group_seal(items, barrier=counting)
    # the whole point: 2 barriers for 8 generations, not 16
    assert counting.syncs == 2


def test_batches_across_namespaced_views():
    """Generations of different tenants (namespaced views over one physical
    store) seal in one batch with the physical store as the barrier."""
    from repro.service.sharded import NamespacedStore

    counting = SyncCountingStore(MemoryStore())
    views = [NamespacedStore(counting, f"tenants/t{i}") for i in range(3)]
    items = [_write_generation(v, 7, b"data" * 16) for v in views]
    group_seal(items, barrier=counting)
    assert counting.syncs == 2
    for view in views:
        assert is_committed(view, 7)


def test_same_store_same_step_twice_refused():
    store = MemoryStore()
    items = [
        _write_generation(store, 3, b"a" * 16),
        _write_generation(store, 3, b"b" * 16),
    ]
    with pytest.raises(CommitError, match="twice"):
        group_seal(items, barrier=store)
    assert not store.exists(commit_key(3))


def test_empty_batch_is_a_no_op():
    counting = SyncCountingStore(MemoryStore())
    assert group_seal([], barrier=counting) == []
    assert counting.syncs == 0


def test_old_format_version_refused():
    store = MemoryStore()
    manifest = CheckpointManifest(step=0, entries=(), format_version=1)
    with pytest.raises(CommitError, match="format_version"):
        GroupSealItem(store, manifest)


def test_marker_pins_manifest_bytes():
    store = MemoryStore()
    item = _write_generation(store, 1, b"z" * 128)
    (marker,) = group_seal([item], barrier=store)
    assert marker.manifest_bytes == len(item.manifest.to_json())
    assert item.marker is marker
