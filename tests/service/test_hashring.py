"""Consistent-hash placement: stability, bounded remap, even spread."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.service.hashring import HashRing, stable_hash

SHARDS = ["shard-00", "shard-01", "shard-02", "shard-03"]


def _owner(ring: HashRing, unit: str) -> str:
    """The shard owning ``unit``: its first replica."""
    return ring.successors(unit, 1)[0]


def _units(n: int) -> list[str]:
    """A realistic key population: tenants x generations."""
    tenants = ["alice", "bob", "carol", "dave", "erin"]
    return [
        f"tenants/{t}/ckpt/{s:010d}"
        for t in tenants
        for s in range(n // len(tenants))
    ]


class TestStableHash:
    def test_deterministic_and_64bit(self):
        h = stable_hash("tenants/alice/ckpt/0000000007")
        assert h == stable_hash("tenants/alice/ckpt/0000000007")
        assert 0 <= h < 2**64

    def test_not_python_hash(self):
        # Python's hash() is salted per process; stable_hash must be a
        # fixed function of the text so placement survives restarts.
        assert stable_hash("a") != hash("a")
        assert stable_hash("x") == 5395104992458594383


class TestPlacementStability:
    def test_same_lookup_across_instances(self):
        a = HashRing(SHARDS)
        b = HashRing(list(reversed(SHARDS)))  # order-insensitive
        for unit in _units(500):
            assert _owner(a, unit) == _owner(b, unit)

    def test_lookup_stable_under_repeated_queries(self):
        ring = HashRing(SHARDS)
        units = _units(200)
        first = [_owner(ring, u) for u in units]
        assert [_owner(ring, u) for u in units] == first


class TestBoundedRemap:
    def test_add_shard_remaps_bounded_fraction(self):
        units = _units(2000)
        before = {u: _owner(HashRing(SHARDS), u) for u in units}
        grown = HashRing(SHARDS + ["shard-04"])
        moved = [u for u in units if _owner(grown, u) != before[u]]
        # Ideal consistent hashing moves 1/(N+1) = 20%; allow slack for
        # vnode granularity but stay far from modulo hashing's ~80%.
        assert len(moved) / len(units) < 0.35
        # ... and every moved unit moved TO the new shard, not between
        # old shards.
        assert all(_owner(grown, u) == "shard-04" for u in moved)

    def test_remove_shard_only_remaps_its_units(self):
        units = _units(2000)
        ring = HashRing(SHARDS)
        before = {u: _owner(ring, u) for u in units}
        ring.remove("shard-02")
        for u in units:
            if before[u] == "shard-02":
                assert _owner(ring, u) != "shard-02"
            else:
                assert _owner(ring, u) == before[u]


class TestSpread:
    def test_even_spread(self):
        ring = HashRing(SHARDS)
        counts = dict.fromkeys(SHARDS, 0)
        for unit in _units(4000):
            counts[_owner(ring, unit)] += 1
        assert sum(counts.values()) == 4000
        mean = 4000 / len(SHARDS)
        for shard, n in counts.items():
            assert n > 0, f"{shard} got nothing"
            assert abs(n - mean) / mean < 0.5, counts


class TestSuccessors:
    def test_first_successor_is_lookup(self):
        """The owner does not depend on how many replicas are asked for."""
        ring = HashRing(SHARDS)
        for unit in _units(300):
            assert ring.successors(unit, 2)[0] == _owner(ring, unit)
            assert ring.successors(unit, 3)[0] == _owner(ring, unit)

    def test_distinct_and_bounded_by_ring_size(self):
        ring = HashRing(SHARDS)
        for unit in _units(100):
            reps = ring.successors(unit, len(SHARDS) + 3)
            assert len(reps) == len(SHARDS)  # never more than exist
            assert len(set(reps)) == len(reps)  # never a duplicate

    def test_exclude_skips_shards(self):
        ring = HashRing(SHARDS)
        for unit in _units(100):
            primary = _owner(ring, unit)
            reps = ring.successors(unit, 2, exclude={primary})
            assert primary not in reps
            assert len(reps) == 2

    def test_shard_departure_changes_replica_sets_minimally(self):
        # The replica-placement rule: when a shard leaves, each unit's
        # replica set changes by exactly the departed member.
        units = _units(500)
        ring = HashRing(SHARDS)
        before = {u: ring.successors(u, 2) for u in units}
        ring.remove("shard-01")
        for u in units:
            after = ring.successors(u, 2)
            if "shard-01" not in before[u]:
                assert after == before[u]
            else:
                survivors = [s for s in before[u] if s != "shard-01"]
                assert set(survivors) <= set(after)

    def test_single_shard_ring(self):
        ring = HashRing(["only"])
        assert ring.successors("tenants/a/ckpt/0000000001", 3) == ["only"]

    def test_bad_count_refused(self):
        with pytest.raises(ConfigurationError, match="replica count"):
            HashRing(SHARDS).successors("u", 0)


class TestPlacementEdgeCases:
    """Satellite: ring/placement interplay the service relies on."""

    def test_remove_shard_with_recorded_placements_pointing_at_it(self):
        from repro.ckpt.store import MemoryStore
        from repro.service import ShardedStore

        shards = {s: MemoryStore() for s in SHARDS}
        store = ShardedStore(shards, placement=MemoryStore(), replication=2)
        key = "tenants/a/ckpt/0000000001/u.bin"
        store.put(key, b"payload")
        replicas = store.replicas_for(key)
        victim = replicas[0]
        # empty the shard out-of-band (as a crashed drain would leave it)
        for k in shards[victim].list_keys(""):
            shards[victim].delete(k)
        store.remove_shard(victim)
        # the record was scrubbed down to its surviving members and the
        # data is still readable through them
        assert victim not in store.placement_map()[
            "tenants/a/ckpt/0000000001"
        ]
        assert store.get(key) == b"payload"

    def test_single_shard_sharded_store(self):
        from repro.ckpt.store import MemoryStore
        from repro.service import ShardedStore

        store = ShardedStore(
            {"solo": MemoryStore()}, placement=MemoryStore(), replication=2
        )
        key = "tenants/a/ckpt/0000000001/u.bin"
        store.put(key, b"payload")
        assert store.get(key) == b"payload"
        assert store.replicas_for(key) == ["solo"]

    def test_placement_unit_stable_across_process_restarts(self, tmp_path):
        # placement_unit and stable_hash are pure functions of the key:
        # a subprocess (fresh hash seed) must compute identical values.
        import os
        import subprocess
        import sys

        import repro

        keys = [
            "tenants/alice/ckpt/0000000007/u.bin",
            "tenants/bob/ckpt/0000000001/manifest.json",
            "loose/key.bin",
        ]
        code = (
            "from repro.service.sharded import placement_unit\n"
            "from repro.service.hashring import stable_hash\n"
            f"for k in {keys!r}:\n"
            "    u = placement_unit(k)\n"
            "    print(u, stable_hash(u))\n"
        )
        src_dir = os.path.dirname(os.path.dirname(repro.__file__))
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": src_dir, "PYTHONHASHSEED": "random"},
        ).stdout
        from repro.service.hashring import stable_hash as local_hash
        from repro.service.sharded import placement_unit as local_unit

        expected = "".join(
            f"{local_unit(k)} {local_hash(local_unit(k))}\n" for k in keys
        )
        assert out == expected


class TestMembershipErrors:
    def test_duplicate_add_refused(self):
        ring = HashRing(SHARDS)
        with pytest.raises(ConfigurationError, match="already on the ring"):
            ring.add("shard-00")

    def test_remove_unknown_refused(self):
        with pytest.raises(ConfigurationError, match="not on the ring"):
            HashRing(SHARDS).remove("nope")

    def test_remove_last_refused(self):
        ring = HashRing(["only"])
        with pytest.raises(ConfigurationError, match="last shard"):
            ring.remove("only")

    def test_empty_ring_refused(self):
        with pytest.raises(ConfigurationError, match="at least one shard"):
            HashRing([])

    def test_shards_property_sorted(self):
        assert HashRing(list(reversed(SHARDS))).shards == sorted(SHARDS)
