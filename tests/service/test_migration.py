"""MigrationWorker: drain/rebalance semantics and the crash matrix.

The crash matrix is the PR's atomicity proof, the same shape as the
commit-journal matrix: wrap every backend (shards *and* the placement
store) in FaultInjectingStores sharing one FaultPlan, kill the worker at
every global store-operation index in every crash mode, and after each
death assert that **every generation is readable with identical bytes
from either its old or new location** -- then re-run the worker and
assert it converges (source empty, placements ring-clean, data intact).
"""

import pytest

from repro.ckpt.faults import (
    CRASH_AFTER,
    CRASH_BEFORE,
    CRASH_TORN,
    FaultInjectingStore,
    FaultPlan,
)
from repro.ckpt.store import MemoryStore
from repro.exceptions import ConfigurationError, SimulatedCrash, StorageError
from repro.service.migration import MigrationWorker
from repro.service.sharded import ShardedStore


def _payload(unit_idx: int, name: str) -> bytes:
    return (f"unit{unit_idx}:{name}:" .encode() + bytes(range(64)) * 4)


def _populate(store: ShardedStore, units: int = 3) -> dict[str, bytes]:
    data = {}
    for u in range(units):
        for name in ("a.bin", "manifest.json", "COMMIT"):
            key = f"tenants/t/ckpt/{u:010d}/{name}"
            data[key] = _payload(u, name)
            store.put(key, data[key])
    return data


def _fresh(n=3, replication=2):
    shards = {f"s{i}": MemoryStore() for i in range(n)}
    placement = MemoryStore()
    store = ShardedStore(shards, placement=placement, replication=replication)
    return store, shards, placement


class TestDrain:
    def test_drain_empties_the_shard_and_keeps_data_readable(self):
        store, shards, _ = _fresh()
        data = _populate(store)
        victim = "s1"
        summary = MigrationWorker(store).drain(victim)
        assert summary["remaining"] == 0
        assert shards[victim].list_keys("") == []
        for key, payload in data.items():
            assert store.get(key) == payload
            assert victim not in store.replicas_for(key)

    def test_drained_shard_can_be_removed(self):
        store, shards, _ = _fresh()
        data = _populate(store)
        MigrationWorker(store).drain("s2")
        store.remove_shard("s2")
        assert "s2" not in store.shards
        for key, payload in data.items():
            assert store.get(key) == payload

    def test_drain_preserves_replication_factor(self):
        store, shards, _ = _fresh(n=4, replication=2)
        _populate(store)
        MigrationWorker(store).drain("s0")
        for unit, replicas in store.placement_map().items():
            assert len(replicas) == 2
            assert "s0" not in replicas
            for key in store.unit_keys(unit):
                holders = [
                    sid for sid, s in store.shards.items() if s.exists(key)
                ]
                assert sorted(holders) == sorted(replicas)

    def test_drain_marks_shard_down_when_health_present(self):
        from repro.service.health import ShardHealth

        health = ShardHealth(failure_threshold=1, clock=lambda: 0.0)
        shards = {f"s{i}": MemoryStore() for i in range(3)}
        store = ShardedStore(
            shards, placement=MemoryStore(), replication=2, health=health
        )
        _populate(store)
        MigrationWorker(store).drain("s1")
        assert not health.available("s1")

    def test_drain_refuses_unknown_and_only_shard(self):
        store, _, _ = _fresh(n=1, replication=1)
        with pytest.raises(ConfigurationError, match="does not exist"):
            MigrationWorker(store).drain("nope")
        with pytest.raises(ConfigurationError, match="only shard"):
            MigrationWorker(store).drain("s0")


class TestRebalance:
    def test_rebalance_moves_units_onto_a_new_shard(self):
        store, shards, _ = _fresh(n=2, replication=1)
        data = _populate(store, units=12)
        store.add_shard("s9", MemoryStore())
        summary = MigrationWorker(store).rebalance()
        # the consistent-hash guarantee: some units move to the new
        # shard, but most stay put
        assert summary["units_moved"] >= 1
        assert summary["units_in_place"] >= 1
        assert store.shards["s9"].list_keys("") != []
        for key, payload in data.items():
            assert store.get(key) == payload

    def test_rebalance_is_idempotent(self):
        store, _, _ = _fresh(n=2, replication=1)
        _populate(store, units=8)
        store.add_shard("s9", MemoryStore())
        worker = MigrationWorker(store)
        worker.rebalance()
        again = worker.rebalance()
        assert again["units_moved"] == 0

    def test_rebalance_with_replication(self):
        store, _, _ = _fresh(n=3, replication=2)
        data = _populate(store, units=10)
        store.add_shard("s9", MemoryStore())
        MigrationWorker(store).rebalance()
        for unit, replicas in store.placement_map().items():
            assert replicas == store.ring.successors(unit, 2)
        for key, payload in data.items():
            assert store.get(key) == payload


def _wrap_all(shards, placement, plan):
    """Crash-wrapped views over the same underlying stores."""
    wrapped_shards = {
        sid: FaultInjectingStore(s, plan) for sid, s in shards.items()
    }
    return wrapped_shards, FaultInjectingStore(placement, plan)


def _count_ops(action, n=3, replication=2, add_shard=False, units=3):
    """Ops the migration performs with no crash scheduled."""
    shards = {f"s{i}": MemoryStore() for i in range(n)}
    placement = MemoryStore()
    setup = ShardedStore(shards, placement=placement, replication=replication)
    _populate(setup, units=units)
    if add_shard:
        shards["s9"] = MemoryStore()
    plan = FaultPlan()
    wrapped, wplacement = _wrap_all(shards, placement, plan)
    store = ShardedStore(wrapped, placement=wplacement, replication=replication)
    action(MigrationWorker(store))
    return plan.op_index + 1


def _check_all_readable(shards, placement, data, replication=2):
    """Every generation must be bit-identical from old or new location."""
    store = ShardedStore(
        dict(shards), placement=placement, replication=replication
    )
    for key, payload in data.items():
        assert store.get(key) == payload, f"lost {key} mid-migration"


class TestDrainCrashMatrix:
    def test_kill_at_every_op(self):
        total = _count_ops(lambda w: w.drain("s1"))
        assert total > 10  # the matrix is actually exercising something
        for mode in (CRASH_BEFORE, CRASH_TORN, CRASH_AFTER):
            for k in range(total):
                shards = {f"s{i}": MemoryStore() for i in range(3)}
                placement = MemoryStore()
                setup = ShardedStore(
                    shards, placement=placement, replication=2
                )
                data = _populate(setup)

                plan = FaultPlan(schedule=[(k, mode)])
                wrapped, wplacement = _wrap_all(shards, placement, plan)
                crashing = ShardedStore(
                    wrapped, placement=wplacement, replication=2
                )
                with pytest.raises(SimulatedCrash):
                    MigrationWorker(crashing).drain("s1")

                # Invariant 1: nothing lost at the crash point.
                _check_all_readable(shards, placement, data)

                # Invariant 2: a re-run converges and empties the source.
                recovered = ShardedStore(
                    dict(shards), placement=placement, replication=2
                )
                summary = MigrationWorker(recovered).drain("s1")
                assert summary["remaining"] == 0
                recovered.remove_shard("s1")
                for key, payload in data.items():
                    assert recovered.get(key) == payload


class TestRebalanceCrashMatrix:
    def test_kill_at_every_op(self):
        total = _count_ops(
            lambda w: w.rebalance(), n=2, replication=1, add_shard=True,
            units=12,
        )
        assert total > 5
        # the rebalance matrix only needs one representative mode per
        # index; drain above covers the full mode product
        for k in range(total):
            shards = {f"s{i}": MemoryStore() for i in range(2)}
            placement = MemoryStore()
            setup = ShardedStore(shards, placement=placement, replication=1)
            data = _populate(setup, units=12)
            shards["s9"] = MemoryStore()

            plan = FaultPlan(schedule=[(k, CRASH_TORN)])
            wrapped, wplacement = _wrap_all(shards, placement, plan)
            crashing = ShardedStore(
                wrapped, placement=wplacement, replication=1
            )
            with pytest.raises(SimulatedCrash):
                MigrationWorker(crashing).rebalance()

            _check_all_readable(shards, placement, data, replication=1)

            recovered = ShardedStore(
                dict(shards), placement=placement, replication=1
            )
            MigrationWorker(recovered).rebalance()
            again = MigrationWorker(recovered).rebalance()
            assert again["units_moved"] == 0
            for key, payload in data.items():
                assert recovered.get(key) == payload


class TestVerifyBeforeRecord:
    def test_unverifiable_copy_aborts_before_the_record_switch(self):
        class LyingStore(MemoryStore):
            """Acks puts but corrupts what it stores."""

            def put(self, key, data):
                super().put(key, data[:-1] + b"\x00" if data else data)

        shards = {"s0": MemoryStore(), "s1": MemoryStore(), "bad": LyingStore()}
        placement = MemoryStore()
        store = ShardedStore(shards, placement=placement, replication=1)
        key = "tenants/t/ckpt/0000000000/a.bin"
        store.put(key, b"good-bytes")
        unit = "tenants/t/ckpt/0000000000"
        old = store.placement_map()[unit]
        with pytest.raises(StorageError, match="read back differently"):
            MigrationWorker(store)._migrate_unit(unit, ["bad"])
        # record untouched: readers keep the verified old location
        assert store.placement_map()[unit] == old
        assert store.get(key) == b"good-bytes"
