"""Store changes riding with the service layer: thread safety, pruned
directory listing, batch durability, and the latency-modelling wrapper."""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.ckpt.store import DirectoryStore, LatencyStore, MemoryStore
from repro.exceptions import StorageError


class TestMemoryStoreThreadSafety:
    def test_concurrent_put_get_delete_hammer(self):
        store = MemoryStore()
        errors: list[BaseException] = []
        n_workers, n_ops = 8, 300

        def worker(wid: int) -> None:
            try:
                for i in range(n_ops):
                    key = f"w{wid}/k{i % 20}"
                    store.put(key, bytes([wid]) * 64)
                    if store.exists(key):
                        data = store.get(key)
                        # no torn reads: a value is always one writer's
                        assert len(set(data)) == 1 and len(data) == 64
                    store.list_keys(f"w{wid}/")
                    if i % 3 == 0:
                        store.delete(key)
            except BaseException as exc:  # noqa: BLE001 - collected for report
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(w,)) for w in range(n_workers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors


class TestDirectoryStorePrunedListing:
    def test_prefix_scopes_to_subtree(self, tmp_path):
        store = DirectoryStore(str(tmp_path))
        for tenant in ("alice", "bob"):
            for step in range(3):
                store.put(f"tenants/{tenant}/ckpt/{step:010d}/u.bin", b"x")
        keys = store.list_keys("tenants/alice/")
        assert len(keys) == 3
        assert all(k.startswith("tenants/alice/") for k in keys)

    def test_missing_subtree_is_empty_not_error(self, tmp_path):
        store = DirectoryStore(str(tmp_path))
        store.put("tenants/alice/u.bin", b"x")
        assert store.list_keys("tenants/carol/") == []
        assert store.list_keys("no/such/deep/path/") == []

    def test_partial_last_segment_still_matches(self, tmp_path):
        """The final prefix segment may be a partial filename: pruning must
        descend only complete segments."""
        store = DirectoryStore(str(tmp_path))
        store.put("ckpt/0000000012/u.bin", b"x")
        store.put("ckpt/0000000015/u.bin", b"y")
        store.put("ckpt/0000000103/u.bin", b"z")
        keys = store.list_keys("ckpt/000000001")
        assert keys == ["ckpt/0000000012/u.bin", "ckpt/0000000015/u.bin"]

    def test_pruned_walk_skips_sibling_trees(self, tmp_path, monkeypatch):
        """os.walk must start at the prefix subtree, not the root."""
        store = DirectoryStore(str(tmp_path))
        for tenant in ("alice", "bob", "carol"):
            store.put(f"tenants/{tenant}/u.bin", b"x")
        walked: list[str] = []
        real_walk = os.walk

        def spy(base, *a, **kw):
            walked.append(os.path.relpath(base, str(tmp_path)))
            return real_walk(base, *a, **kw)

        monkeypatch.setattr(os, "walk", spy)
        store.list_keys("tenants/bob/")
        assert walked == [os.path.join("tenants", "bob")]


class TestDirectoryStoreBatchDurability:
    def test_bad_durability_refused(self, tmp_path):
        with pytest.raises(StorageError, match="durability"):
            DirectoryStore(str(tmp_path), durability="sometimes")

    def test_batch_mode_round_trips(self, tmp_path):
        store = DirectoryStore(str(tmp_path), durability="batch")
        for i in range(5):
            store.put(f"k{i}", bytes([i]) * 32)
        store.sync()
        reopened = DirectoryStore(str(tmp_path), durability="batch")
        assert reopened.list_keys("") == [f"k{i}" for i in range(5)]
        assert reopened.get("k3") == bytes([3]) * 32

    def test_sync_tolerates_deleted_dirty_file(self, tmp_path):
        store = DirectoryStore(str(tmp_path), durability="batch")
        store.put("gone", b"x")
        store.delete("gone")
        store.sync()  # must not raise on the vanished dirty entry
        assert not store.exists("gone")


    def test_failed_sync_keeps_the_unflushed_files_dirty(self, tmp_path, monkeypatch):
        # a retried group commit must not publish a COMMIT marker over
        # blobs the failed barrier never flushed
        store = DirectoryStore(str(tmp_path), durability="batch")
        for name in ("a", "b", "c"):
            store.put(f"gen/{name}", name.encode())
        inode = {os.stat(p).st_ino: p for p in (
            *(os.path.join(store.root, "gen", n) for n in "abc"),
            os.path.join(store.root, "gen"),
        )}
        real_fsync = os.fsync
        failures = [OSError(5, "Input/output error")]
        flushed: list[str] = []

        def flaky_fsync(fd):
            if failures:
                raise failures.pop()
            flushed.append(inode.get(os.fstat(fd).st_ino))
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", flaky_fsync)
        with pytest.raises(StorageError, match="sync of"):
            store.sync()
        flushed.clear()
        store.sync()
        assert set(inode.values()) <= set(flushed)
        flushed.clear()
        store.sync()  # everything landed: only the root is left to flush
        assert flushed == [None]


class TestLatencyStore:
    def test_validation(self):
        with pytest.raises(StorageError, match="sync latency"):
            LatencyStore(MemoryStore(), sync_latency_sec=-1.0)
        with pytest.raises(StorageError, match="bandwidth"):
            LatencyStore(MemoryStore(), bandwidth_bytes_per_sec=0)

    def test_sleeps_are_accounted_and_real(self):
        store = LatencyStore(
            MemoryStore(),
            sync_latency_sec=0.005,
            bandwidth_bytes_per_sec=1e6,
        )
        t0 = time.monotonic()
        store.put("k", b"x" * 1000)  # 1 ms transfer
        store.sync()  # 5 ms barrier
        elapsed = time.monotonic() - t0
        assert store.get("k") == b"x" * 1000
        assert store.slept_seconds == pytest.approx(0.007, rel=0.01)
        assert elapsed >= 0.006

    def test_zero_latency_is_free(self):
        store = LatencyStore(MemoryStore())
        store.put("k", b"data")
        store.sync()
        assert store.slept_seconds == 0.0
