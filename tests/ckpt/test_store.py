"""Unit tests for storage backends."""

from __future__ import annotations

import os
import time
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckpt.faults import (
    FAULT_BITFLIP,
    FaultInjectingStore,
    FaultPlan,
)
from repro.ckpt.resilience import ResilientStore, RetryPolicy
from repro.ckpt.store import (
    CountingStore,
    DirectoryStore,
    LatencyStore,
    MemoryStore,
)
from repro.exceptions import IntegrityError, StorageError
from repro.service.sharded import NamespacedStore, ShardedStore


@pytest.fixture(params=["memory", "directory"])
def store(request, tmp_path):
    if request.param == "memory":
        return MemoryStore()
    return DirectoryStore(str(tmp_path / "store"))


class TestStoreContract:
    def test_put_get(self, store):
        store.put("a/b", b"payload")
        assert store.get("a/b") == b"payload"

    def test_overwrite(self, store):
        store.put("k", b"one")
        store.put("k", b"two")
        assert store.get("k") == b"two"

    def test_exists(self, store):
        assert not store.exists("k")
        store.put("k", b"")
        assert store.exists("k")

    def test_get_missing_raises(self, store):
        with pytest.raises(StorageError, match="no object"):
            store.get("missing")

    def test_delete(self, store):
        store.put("k", b"x")
        store.delete("k")
        assert not store.exists("k")
        store.delete("k")  # idempotent

    def test_list_keys_sorted_prefix(self, store):
        for key in ("b/2", "a/1", "a/2", "c"):
            store.put(key, b"")
        assert store.list_keys() == ["a/1", "a/2", "b/2", "c"]
        assert store.list_keys("a/") == ["a/1", "a/2"]

    @pytest.mark.parametrize("key", ["", "/abs", "a//b", "a/../b", ".", 42])
    def test_bad_keys(self, store, key):
        with pytest.raises(StorageError):
            store.put(key, b"")

    def test_empty_payload(self, store):
        store.put("empty", b"")
        assert store.get("empty") == b""

    def test_binary_payload(self, store):
        data = bytes(range(256))
        store.put("bin", data)
        assert store.get("bin") == data


class TestMemoryStore:
    def test_put_copies(self):
        store = MemoryStore()
        data = bytearray(b"abc")
        store.put("k", bytes(data))
        data[0] = 0
        assert store.get("k") == b"abc"


class TestDirectoryStore:
    def test_creates_root(self, tmp_path):
        root = tmp_path / "deep" / "nested"
        DirectoryStore(str(root))
        assert root.is_dir()

    def test_no_temp_files_left(self, tmp_path):
        store = DirectoryStore(str(tmp_path))
        store.put("a/b/c", b"x" * 100)
        leftovers = [
            f for _, _, files in os.walk(tmp_path) for f in files
            if f.startswith(".tmp-")
        ]
        assert leftovers == []

    def test_keys_map_to_nested_paths(self, tmp_path):
        store = DirectoryStore(str(tmp_path))
        store.put("ckpt/0000000001/x.bin", b"d")
        assert (tmp_path / "ckpt" / "0000000001" / "x.bin").is_file()

    def test_two_stores_share_root(self, tmp_path):
        a = DirectoryStore(str(tmp_path))
        b = DirectoryStore(str(tmp_path))
        a.put("k", b"shared")
        assert b.get("k") == b"shared"


class TestCountingStore:
    def test_counters(self):
        store = CountingStore(MemoryStore())
        store.put("a", b"1234")
        store.put("b", b"56")
        store.get("a")
        store.delete("b")
        store.exists("a")
        store.list_keys()
        assert store.puts == 2
        assert store.gets == 1
        assert store.deletes == 1
        assert store.lists == 1
        assert store.bytes_written == 6
        assert store.bytes_read == 4


class TestDirectoryStoreCollisions:
    def test_key_under_existing_file_key_is_pointed(self, tmp_path):
        store = DirectoryStore(str(tmp_path))
        store.put("a", b"1")
        with pytest.raises(StorageError, match=r"'a/b' collides .* 'a'"):
            store.put("a/b", b"2")

    def test_key_over_existing_deeper_keys_is_pointed(self, tmp_path):
        store = DirectoryStore(str(tmp_path))
        store.put("a/b", b"1")
        with pytest.raises(StorageError, match=r"'a' collides .* 'a/b'"):
            store.put("a", b"2")

    def test_deep_ancestor_collision_names_the_blocking_key(self, tmp_path):
        store = DirectoryStore(str(tmp_path))
        store.put("x/y", b"1")
        with pytest.raises(StorageError, match=r"'x/y/z/w' collides .* 'x/y'"):
            store.put("x/y/z/w", b"2")

    def test_original_keys_survive_a_rejected_write(self, tmp_path):
        store = DirectoryStore(str(tmp_path))
        store.put("a/b", b"payload")
        with pytest.raises(StorageError):
            store.put("a", b"2")
        assert store.get("a/b") == b"payload"
        assert store.list_keys() == ["a/b"]


class TestDirectoryStoreDurability:
    def test_put_fsyncs_the_parent_directory(self, tmp_path, monkeypatch):
        synced: list[str] = []
        from repro.ckpt import store as store_mod

        monkeypatch.setattr(
            store_mod, "_fsync_dir", lambda path: synced.append(path)
        )
        store = DirectoryStore(str(tmp_path))
        store.put("deep/key", b"x")
        # ``deep`` is new: its own entry lives in the root, flushed as well
        assert synced == [os.path.join(store.root, "deep"), store.root]

    @pytest.mark.parametrize("durability", ["always", "batch"])
    def test_a_new_generation_directory_gets_its_entry_flushed(
        self, tmp_path, monkeypatch, durability
    ):
        """The directory that receives a new generation directory's entry
        is ``ckpt/``, not the root: the put that creates the generation
        flushes it (at the barrier in batch mode), a second put into the
        same generation flushes nothing extra."""
        from repro.ckpt import store as store_mod

        synced: list[str] = []
        monkeypatch.setattr(store_mod, "_fsync_dir", synced.append)
        store = DirectoryStore(str(tmp_path / "s"), durability=durability)
        root = store.root
        ckpt = os.path.join(root, "ckpt")
        gen1, gen2 = os.path.join(ckpt, "1"), os.path.join(ckpt, "2")

        def flushed_by_put(key: str) -> list[str]:
            synced.clear()
            store.put(key, b"x")
            if durability == "batch":
                assert synced == []  # nothing before the barrier
                store.sync()
                assert synced.pop() == root  # the barrier's own root flush
            return sorted(synced)

        assert flushed_by_put("ckpt/1/a.bin") == [root, ckpt, gen1]
        assert flushed_by_put("ckpt/1/b.bin") == [gen1]
        assert flushed_by_put("ckpt/2/a.bin") == [ckpt, gen2]

    def test_delete_fsyncs_the_parent_directory(self, tmp_path, monkeypatch):
        """A reap deletes the marker first; that order only protects a
        power loss if each unlink is durable before the next one starts."""
        from repro.ckpt import store as store_mod

        store = DirectoryStore(str(tmp_path))
        store.put("ckpt/1/COMMIT", b"x")
        synced: list[str] = []
        monkeypatch.setattr(store_mod, "_fsync_dir", synced.append)
        store.delete("ckpt/1/COMMIT")
        assert synced == [os.path.join(store.root, "ckpt", "1")]
        synced.clear()
        store.delete("ckpt/1/COMMIT")  # nothing removed, nothing to flush
        assert synced == []

    def test_fsync_dir_is_best_effort(self, tmp_path):
        from repro.ckpt.store import _fsync_dir

        _fsync_dir(str(tmp_path / "does-not-exist"))  # no exception
        _fsync_dir(str(tmp_path))


#: every wrapper in the configuration where it should change nothing
NEUTRAL_WRAPPERS = {
    "counting": CountingStore,
    "latency": LatencyStore,
    "resilient": lambda inner: ResilientStore(
        inner, RetryPolicy(max_attempts=2, base_delay=0.0), sleep=lambda _s: None
    ),
    "namespaced": lambda inner: NamespacedStore(inner, "tenants/a"),
    "fault-injecting": lambda inner: FaultInjectingStore(inner, FaultPlan()),
    "storm-injecting": lambda inner: FaultInjectingStore(inner, FaultPlan(), "s0"),
}

_KEYS = st.sampled_from(["a", "b/x", "b/y", "c/d/e", ""])  # "" is rejected
_OPS = st.one_of(
    st.tuples(st.just("put"), _KEYS, st.binary(max_size=16)),
    st.tuples(
        st.sampled_from(["get", "get_verified", "exists", "delete"]), _KEYS
    ),
    st.tuples(st.just("list_keys"), st.sampled_from(["", "b/", "c", "zz"])),
    st.tuples(st.just("sync")),
)


def _apply(store, op, stored):
    """Run one scripted op; the outcome is its result or exception type."""
    name, *args = op
    if name == "get_verified":
        # the caller of a verified read knows the CRC of what it wrote
        data = stored.get(args[0], b"")
        args = [args[0], zlib.crc32(data) & 0xFFFFFFFF, len(data)]
    try:
        return getattr(store, name)(*args)
    except Exception as exc:
        return type(exc)


class TestWrapperTransparency:
    @pytest.mark.parametrize("wrapper", sorted(NEUTRAL_WRAPPERS))
    @settings(max_examples=60, deadline=None)
    @given(script=st.lists(_OPS, max_size=25))
    def test_neutral_wrapper_behaves_like_the_bare_store(self, wrapper, script):
        bare = MemoryStore()
        wrapped = NEUTRAL_WRAPPERS[wrapper](MemoryStore())
        stored: dict[str, bytes] = {}
        for op in script:
            assert _apply(wrapped, op, stored) == _apply(bare, op, stored), op
            if op[0] == "put" and op[1]:
                stored[op[1]] = op[2]
        assert {k: wrapped.get(k) for k in wrapped.list_keys()} == {
            k: bare.get(k) for k in bare.list_keys()
        }


#: every store the suite builds, bare and wrapped, by how it is built
VERIFYING_STORES = {
    "memory": lambda tmp: MemoryStore(),
    "directory": lambda tmp: DirectoryStore(str(tmp / "store")),
    **{
        f"{name}-wrapper": lambda tmp, wrap=wrap: wrap(MemoryStore())
        for name, wrap in NEUTRAL_WRAPPERS.items()
    },
    "namespaced-sharded": lambda tmp: NamespacedStore(
        ShardedStore(
            {"s0": MemoryStore(), "s1": MemoryStore()},
            placement=MemoryStore(),
            replication=2,
        ),
        "tenants/a",
    ),
}


class TestVerifiedReadContract:
    @pytest.mark.parametrize("kind", sorted(VERIFYING_STORES))
    def test_only_matching_bytes_come_back(self, kind, tmp_path):
        """What a verified read returns matches the CRC and length it was
        given, so no caller checks again."""
        store = VERIFYING_STORES[kind](tmp_path)
        key, payload = "ckpt/0000000001/u.bin", b"verified payload"
        store.put(key, payload)
        crc = zlib.crc32(payload)
        assert store.get_verified(key, crc, len(payload)) == payload
        assert store.get_verified(key, crc) == payload
        with pytest.raises(IntegrityError):
            store.get_verified(key, crc ^ 1, len(payload))
        with pytest.raises(IntegrityError):
            store.get_verified(key, crc, len(payload) + 1)
        with pytest.raises(StorageError):
            store.get_verified("ckpt/0000000001/missing.bin", crc, len(payload))
        assert store.get(key) == payload  # a failed check changes nothing

    def test_a_flipped_read_under_a_resilient_store_is_right_or_raises(self):
        inner = MemoryStore()
        inner.put("k", b"payload" * 10)
        flipping = FaultInjectingStore(inner, FaultPlan(seed=5, rates={FAULT_BITFLIP: 0.5}))
        store = ResilientStore(
            flipping, RetryPolicy(max_attempts=2, base_delay=0.0), sleep=lambda _s: None
        )
        crc = zlib.crc32(b"payload" * 10)
        outcomes = set()
        raised = 0
        for _ in range(40):
            try:
                assert store.get_verified("k", crc, 70) == b"payload" * 10
                outcomes.add("right")
            except IntegrityError:
                outcomes.add("raised")
                raised += 1
        assert outcomes == {"right", "raised"}
        # every flip was one read that was retried or raised: none came back
        assert len(flipping.events) == store.retries + raised


def _accounting_script(store):
    store.put("a/x", b"12345")
    store.put("a/y", b"0" * 1000)
    store.put("b", b"")
    store.get("a/x")
    store.get("a/y")
    store.exists("a/x")
    store.exists("nope")
    store.list_keys("a/")
    store.list_keys()
    store.sync()
    store.delete("a/x")
    store.delete("nope")
    store.sync()
    store.get("b")


class TestWrapperAccounting:
    """Values recorded on this script before the wrappers shared a base."""

    def test_counting_store(self):
        store = CountingStore(MemoryStore())
        _accounting_script(store)
        assert (store.puts, store.gets, store.deletes, store.lists, store.syncs) == (
            3, 3, 2, 2, 2,
        )
        assert (store.bytes_written, store.bytes_read) == (1005, 1005)

    def test_latency_store(self, monkeypatch):
        sleeps: list[float] = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        store = LatencyStore(
            MemoryStore(),
            sync_latency_sec=0.01,
            bandwidth_bytes_per_sec=1e6,
        )
        _accounting_script(store)
        # the four reads and writes that move bytes, and the two syncs
        assert store.slept_seconds == sum(sleeps) == pytest.approx(0.02201)
        assert len(sleeps) == 6

    def test_a_verified_read_is_accounted_as_a_get(self, monkeypatch):
        monkeypatch.setattr(time, "sleep", lambda _s: None)
        counting = CountingStore(MemoryStore())
        latency = LatencyStore(MemoryStore(), bandwidth_bytes_per_sec=400.0)
        for store in (counting, latency):
            store.inner.put("k", b"x" * 200)
            assert store.get_verified("k", zlib.crc32(b"x" * 200), 200) == b"x" * 200
        assert (counting.gets, counting.bytes_read) == (1, 200)
        assert latency.slept_seconds == 0.5
