"""Namespaced views and sharded placement over backend stores."""

from __future__ import annotations

import pytest

from repro.ckpt.store import DirectoryStore, MemoryStore
from repro.exceptions import ConfigurationError, StorageError
from repro.service import ShardedStore
from repro.service.sharded import NamespacedStore, placement_unit


class TestPlacementUnit:
    def test_generation_keys_share_a_unit(self):
        unit = "tenants/alice/ckpt/0000000007"
        assert placement_unit(f"{unit}/u.bin") == unit
        assert placement_unit(f"{unit}/manifest.json") == unit
        assert placement_unit(f"{unit}/COMMIT") == unit

    def test_bare_ckpt_prefix(self):
        assert placement_unit("ckpt/0000000003/x.bin") == "ckpt/0000000003"

    def test_non_generation_key_routes_alone(self):
        assert placement_unit("misc/settings.json") == "misc/settings.json"

    def test_different_generations_differ(self):
        a = placement_unit("tenants/a/ckpt/0000000001/u.bin")
        b = placement_unit("tenants/a/ckpt/0000000002/u.bin")
        assert a != b


class TestNamespacedStore:
    def test_round_trip_and_prefixing(self):
        inner = MemoryStore()
        view = NamespacedStore(inner, "tenants/alice")
        view.put("ckpt/0000000001/u.bin", b"data")
        assert inner.get("tenants/alice/ckpt/0000000001/u.bin") == b"data"
        assert view.get("ckpt/0000000001/u.bin") == b"data"
        assert view.list_keys("ckpt/") == ["ckpt/0000000001/u.bin"]
        view.delete("ckpt/0000000001/u.bin")
        assert not view.exists("ckpt/0000000001/u.bin")

    def test_tenants_cannot_see_each_other(self):
        inner = MemoryStore()
        alice = NamespacedStore(inner, "tenants/alice")
        bob = NamespacedStore(inner, "tenants/bob")
        alice.put("ckpt/0000000001/u.bin", b"alice-data")
        assert bob.list_keys("") == []
        assert not bob.exists("ckpt/0000000001/u.bin")

    def test_bad_namespace_refused(self):
        for bad in ("", "x/", "a//b"):
            with pytest.raises(ConfigurationError):
                NamespacedStore(MemoryStore(), bad)


def _gen_keys(tenant: str, step: int) -> list[str]:
    prefix = f"tenants/{tenant}/ckpt/{step:010d}"
    return [f"{prefix}/u.bin", f"{prefix}/v.bin", f"{prefix}/manifest.json",
            f"{prefix}/COMMIT"]


class TestShardedStore:
    def _fresh(self, n=4):
        shards = {f"s{i}": MemoryStore() for i in range(n)}
        return ShardedStore(shards, placement=MemoryStore()), shards

    def test_round_trip(self):
        store, _ = self._fresh()
        store.put("tenants/a/ckpt/0000000001/u.bin", b"payload")
        assert store.get("tenants/a/ckpt/0000000001/u.bin") == b"payload"
        assert store.exists("tenants/a/ckpt/0000000001/u.bin")
        store.delete("tenants/a/ckpt/0000000001/u.bin")
        assert not store.exists("tenants/a/ckpt/0000000001/u.bin")

    def test_missing_key_raises(self):
        store, _ = self._fresh()
        with pytest.raises(StorageError, match="no object stored"):
            store.get("tenants/a/ckpt/0000000001/u.bin")

    def test_generation_colocates_on_one_shard(self):
        store, shards = self._fresh()
        for step in range(20):
            for key in _gen_keys("alice", step):
                store.put(key, b"x")
        for step in range(20):
            owners = {
                sid
                for sid, s in shards.items()
                if any(s.exists(k) for k in _gen_keys("alice", step))
            }
            assert len(owners) == 1, f"generation {step} straddles {owners}"

    def test_list_keys_merges_sorted(self):
        store, _ = self._fresh()
        keys = [k for step in range(5) for k in _gen_keys("bob", step)]
        for key in keys:
            store.put(key, b"x")
        assert store.list_keys("tenants/bob/") == sorted(keys)

    def test_spread_uses_multiple_shards(self):
        store, shards = self._fresh()
        for step in range(40):
            store.put(f"tenants/a/ckpt/{step:010d}/u.bin", b"x")
        used = [sid for sid, s in shards.items() if s.list_keys("")]
        assert len(used) >= 2

    def test_placement_survives_shard_add(self, tmp_path):
        roots = {f"s{i}": str(tmp_path / f"s{i}") for i in range(3)}
        placement_root = str(tmp_path / "placement")

        store = ShardedStore(
            {sid: DirectoryStore(r) for sid, r in roots.items()},
            placement=DirectoryStore(placement_root),
        )
        keys = {}
        for step in range(30):
            key = f"tenants/a/ckpt/{step:010d}/u.bin"
            store.put(key, step.to_bytes(4, "big"))
            keys[key] = step.to_bytes(4, "big")

        # Reopen with an EXTRA shard: recorded placement must keep every
        # old generation readable even though the ring now differs.
        roots["s3"] = str(tmp_path / "s3")
        grown = ShardedStore(
            {sid: DirectoryStore(r) for sid, r in roots.items()},
            placement=DirectoryStore(placement_root),
        )
        for key, payload in keys.items():
            assert grown.get(key) == payload

    def test_probe_fallback_without_placement_map(self, tmp_path):
        roots = {f"s{i}": str(tmp_path / f"s{i}") for i in range(3)}
        store = ShardedStore(
            {sid: DirectoryStore(r) for sid, r in roots.items()},
            placement=MemoryStore(),
        )
        store.put("tenants/a/ckpt/0000000001/u.bin", b"payload")

        # A different shard-id set changes every ring lookup; with the
        # placement map lost the probe fallback must still find the data.
        renamed = dict(zip(["x", "y", "z"], roots.values()))
        reopened = ShardedStore(
            {sid: DirectoryStore(r) for sid, r in renamed.items()},
            placement=MemoryStore(),
        )
        assert reopened.get("tenants/a/ckpt/0000000001/u.bin") == b"payload"

    def test_remove_shard_refuses_nonempty(self):
        store, shards = self._fresh()
        for step in range(20):
            store.put(f"tenants/a/ckpt/{step:010d}/u.bin", b"x")
        victim = next(sid for sid, s in shards.items() if s.list_keys(""))
        with pytest.raises(StorageError, match="migrate them before removal"):
            store.remove_shard(victim)

    def test_remove_empty_shard_ok(self):
        store, shards = self._fresh()
        store.put("tenants/a/ckpt/0000000001/u.bin", b"x")
        empty = next(sid for sid, s in shards.items() if not s.list_keys(""))
        store.remove_shard(empty)
        assert empty not in store.shards
        assert store.get("tenants/a/ckpt/0000000001/u.bin") == b"x"

    def test_delete_retires_placement_record(self):
        # Deleting the last key of a generation must drop its placement
        # record inline -- no leak, no prune pass needed.
        store, _ = self._fresh()
        key = "tenants/a/ckpt/0000000001/u.bin"
        store.put(key, b"x")
        assert store.placement_map()
        store.delete(key)
        assert store.placement_map() == {}
        assert store.prune_placement() == 0

    def test_prune_placement_drops_out_of_band_reaps(self):
        # Keys removed directly on a backend (crash debris, external
        # reaping) bypass ShardedStore.delete; prune_placement is the
        # sweeper that retires those orphaned records.
        store, shards = self._fresh()
        key = "tenants/a/ckpt/0000000001/u.bin"
        store.put(key, b"x")
        for backend in shards.values():
            if backend.exists(key):
                backend.delete(key)
        assert store.placement_map()
        assert store.prune_placement() == 1
        assert store.placement_map() == {}

    def test_placement_map_scoped_per_tenant(self):
        store, _ = self._fresh()
        store.put("tenants/a/ckpt/0000000001/u.bin", b"x")
        store.put("tenants/b/ckpt/0000000001/u.bin", b"x")
        assert set(store.placement_map()) == {
            "tenants/a/ckpt/0000000001",
            "tenants/b/ckpt/0000000001",
        }

    def test_needs_a_shard(self):
        with pytest.raises(ConfigurationError, match="at least one shard"):
            ShardedStore({}, placement=MemoryStore())
