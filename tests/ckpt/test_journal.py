"""Unit tests for the two-phase commit journal."""

from __future__ import annotations

import zlib

import numpy as np
import pytest

from repro.ckpt.journal import (
    COMMIT_FORMAT_VERSION,
    CommitJournal,
    CommitMarker,
    GEN_COMMITTED,
    classify,
    is_committed,
    reap_generation,
)
from repro.ckpt.manifest import (
    ArrayEntry,
    CheckpointManifest,
    commit_key,
    generation_prefix,
    manifest_key,
)
from repro.ckpt.store import CountingStore, DirectoryStore, MemoryStore, StoreWrapper
from repro.exceptions import CommitError, FormatError


def _manifest(step: int, payload: bytes = b"x" * 16) -> CheckpointManifest:
    entry = ArrayEntry(
        name="a",
        shape=(4,),
        dtype="float64",
        codec="lossless:zlib",
        raw_bytes=32,
        stored_bytes=len(payload),
        crc32=ArrayEntry.checksum(payload),
    )
    return CheckpointManifest(
        step=step, entries=(entry,), format_version=COMMIT_FORMAT_VERSION
    )


class TestCommitMarker:
    def test_roundtrip(self):
        m = CommitMarker(
            step=3, manifest_crc32=123, manifest_bytes=45, n_entries=2, n_parity=1
        )
        assert CommitMarker.from_json(m.to_json()) == m

    @pytest.mark.parametrize(
        "blob", [b"", b"not json", b"[1,2]", b'{"step": 1}', b"\xff\xfe"]
    )
    def test_bad_bytes_raise_format_error(self, blob):
        with pytest.raises(FormatError):
            CommitMarker.from_json(blob)

    def test_matches_pins_crc_and_length(self):
        store = MemoryStore()
        CommitJournal(store).begin(1).seal(_manifest(1))
        sealed = store.get(manifest_key(1))
        assert classify(store, 1).state == GEN_COMMITTED
        flipped = sealed[:-1] + bytes([sealed[-1] ^ 1])
        for damaged in (sealed + b"!", flipped):
            store.put(manifest_key(1), damaged)
            assert "does not match" in classify(store, 1).reason


class TestCommitProtocol:
    def test_commit_publishes_marker_last(self):
        store = CountingStore(MemoryStore())
        txn = CommitJournal(store).begin(7)
        blob = b"x" * 16
        txn.put_blob("ckpt/0000000007/a.bin", blob)
        assert not is_committed(store, 7)  # pending until the marker lands
        marker = txn.seal(_manifest(7, blob))
        assert is_committed(store, 7)
        assert CommitMarker.from_json(store.get(commit_key(7))) == marker
        # two sync barriers: post-manifest (blobs and manifest durable) and
        # post-marker (the commit durable before seal returns)
        assert store.syncs == 2
        # blob + manifest + marker
        assert store.puts == 3

    def test_seal_publishes_marker_then_syncs(self):
        """The library seal runs the group seal's order for one generation:
        the marker is durable before the caller hears "committed"."""

        class Recording(StoreWrapper):
            def __init__(self, inner):
                super().__init__(inner)
                self.ops = []

            def _before(self, op, key):
                self.ops.append((op, key))

        store = Recording(MemoryStore())
        txn = CommitJournal(store).begin(3)
        txn.put_blob("ckpt/0000000003/a.bin", b"x" * 16)
        store.ops.clear()
        txn.seal(_manifest(3))
        assert store.ops == [
            ("put", manifest_key(3)),
            ("sync", ""),
            ("put", commit_key(3)),
            ("sync", ""),
        ]

    def test_batch_durability_checkpoint_leaves_nothing_dirty(self, tmp_path):
        """A batch-durability store defers every flush to ``sync()``; when
        ``checkpoint()`` returns, the marker and its directory are flushed."""
        from repro.ckpt import CheckpointManager
        from repro.ckpt.protocol import ArrayRegistry

        registry = ArrayRegistry()
        registry.register("field", np.linspace(0.0, 1.0, 64).reshape(8, 8))
        registry.register("counts", np.arange(10, dtype=np.int64))
        store = DirectoryStore(str(tmp_path), durability="batch")
        with CheckpointManager(registry, store) as manager:
            manager.checkpoint(0)
            assert store._dirty_files == set()
            assert store._dirty_dirs == set()
        assert is_committed(store, 0)

    def test_marker_records_manifest_identity(self):
        store = MemoryStore()
        txn = CommitJournal(store).begin(1)
        manifest = _manifest(1)
        txn.put_blob("ckpt/0000000001/a.bin", b"x" * 16)
        marker = txn.seal(manifest)
        assert classify(store, 1).state == GEN_COMMITTED
        sealed = store.get(manifest_key(1))
        assert marker.manifest_crc32 == zlib.crc32(sealed)
        assert marker.manifest_bytes == len(sealed)
        assert marker.n_entries == 1
        assert marker.step == 1

    def test_seal_twice_rejected(self):
        store = MemoryStore()
        txn = CommitJournal(store).begin(1)
        txn.seal(_manifest(1))
        with pytest.raises(CommitError, match="sealed"):
            txn.seal(_manifest(1))

    def test_put_blob_after_seal_rejected(self):
        store = MemoryStore()
        txn = CommitJournal(store).begin(1)
        txn.seal(_manifest(1))
        with pytest.raises(CommitError):
            txn.put_blob("ckpt/0000000001/late.bin", b"z")

    def test_second_put_of_one_key_rejected(self):
        store = MemoryStore()
        txn = CommitJournal(store).begin(1)
        txn.put_blob("ckpt/0000000001/a.bin", b"first")
        with pytest.raises(CommitError, match="already written"):
            txn.put_blob("ckpt/0000000001/a.bin", b"second")
        assert store.get("ckpt/0000000001/a.bin") == b"first"
        assert txn.blob_keys == ["ckpt/0000000001/a.bin"]

    def test_blob_outside_generation_rejected(self):
        txn = CommitJournal(MemoryStore()).begin(1)
        with pytest.raises(CommitError, match="outside"):
            txn.put_blob("ckpt/0000000002/a.bin", b"z")

    def test_blob_may_not_impersonate_protocol_keys(self):
        txn = CommitJournal(MemoryStore()).begin(1)
        with pytest.raises(CommitError, match="reserved"):
            txn.put_blob(manifest_key(1), b"z")
        with pytest.raises(CommitError, match="reserved"):
            txn.put_blob(commit_key(1), b"z")

    def test_wrong_step_manifest_rejected(self):
        txn = CommitJournal(MemoryStore()).begin(1)
        with pytest.raises(CommitError, match="step"):
            txn.seal(_manifest(2))

    def test_v1_manifest_rejected(self):
        txn = CommitJournal(MemoryStore()).begin(1)
        manifest = CheckpointManifest(step=1, entries=(), format_version=1)
        with pytest.raises(CommitError, match="format_version"):
            txn.seal(manifest)

    def test_begin_refuses_committed_step(self):
        store = MemoryStore()
        journal = CommitJournal(store)
        journal.begin(1).seal(_manifest(1))
        with pytest.raises(CommitError):
            journal.begin(1)

    def test_begin_reaps_stale_pending_generation(self):
        store = MemoryStore()
        journal = CommitJournal(store)
        txn = journal.begin(1)
        txn.put_blob("ckpt/0000000001/a.bin", b"stale")
        # the writer "dies" here; a successor retries the same step
        txn2 = journal.begin(1)
        assert store.list_keys(generation_prefix(1)) == []
        blob = b"x" * 16
        txn2.put_blob("ckpt/0000000001/a.bin", blob)
        txn2.seal(_manifest(1, blob))
        assert is_committed(store, 1)

    def test_begin_negative_step(self):
        with pytest.raises(CommitError):
            CommitJournal(MemoryStore()).begin(-1)

    def test_abort_reaps_pending(self):
        store = MemoryStore()
        txn = CommitJournal(store).begin(1)
        txn.put_blob("ckpt/0000000001/a.bin", b"x")
        txn.abort()
        assert store.list_keys("ckpt/") == []

    def test_abort_after_seal_rejected(self):
        txn = CommitJournal(MemoryStore()).begin(1)
        txn.seal(_manifest(1))
        with pytest.raises(CommitError):
            txn.abort()


class TestCommittedPredicate:
    def test_absent_marker(self):
        store = MemoryStore()
        store.put(manifest_key(1), _manifest(1).to_json())
        assert not is_committed(store, 1)
        assert classify(store, 1).reason == "no commit marker was published"

    def test_torn_marker_bytes(self):
        store = MemoryStore()
        CommitJournal(store).begin(1).seal(_manifest(1))
        full = store.get(commit_key(1))
        store.put(commit_key(1), full[: len(full) // 2])
        assert not is_committed(store, 1)

    def test_marker_without_manifest(self):
        store = MemoryStore()
        CommitJournal(store).begin(1).seal(_manifest(1))
        store.delete(manifest_key(1))
        assert not is_committed(store, 1)

    def test_swapped_manifest_detected(self):
        store = MemoryStore()
        CommitJournal(store).begin(1).seal(_manifest(1))
        other = CheckpointManifest(
            step=1,
            entries=(),
            app_meta={"forged": True},
            format_version=COMMIT_FORMAT_VERSION,
        )
        store.put(manifest_key(1), other.to_json())
        assert not is_committed(store, 1)

    def test_marker_for_wrong_step(self):
        store = MemoryStore()
        CommitJournal(store).begin(1).seal(_manifest(1))
        store.put(commit_key(2), store.get(commit_key(1)))
        store.put(manifest_key(2), store.get(manifest_key(1)))
        assert not is_committed(store, 2)


class TestReap:
    def test_reap_removes_everything(self):
        store = MemoryStore()
        txn = CommitJournal(store).begin(1)
        blob = b"x" * 16
        txn.put_blob("ckpt/0000000001/a.bin", blob)
        txn.seal(_manifest(1, blob))
        removed = reap_generation(store, 1)
        assert removed == 3
        assert store.list_keys("ckpt/") == []

    def test_reap_is_idempotent(self):
        store = MemoryStore()
        txn = CommitJournal(store).begin(1)
        txn.put_blob("ckpt/0000000001/a.bin", b"x")
        reap_generation(store, 1)
        assert reap_generation(store, 1) == 0

    def test_reap_order_marker_first(self):
        """A reap interrupted after one delete must leave a non-committed
        generation."""
        store = MemoryStore()
        txn = CommitJournal(store).begin(1)
        blob = b"x" * 16
        txn.put_blob("ckpt/0000000001/a.bin", blob)
        txn.seal(_manifest(1, blob))

        class OneShotStore(MemoryStore):
            def __init__(self, inner):
                super().__init__()
                self._blobs = inner._blobs
                self.deletes = 0

            def delete(self, key):
                if self.deletes >= 1:
                    raise RuntimeError("interrupted")
                self.deletes += 1
                super().delete(key)

        interrupted = OneShotStore(store)
        with pytest.raises(RuntimeError):
            reap_generation(interrupted, 1)
        assert not is_committed(store, 1)
