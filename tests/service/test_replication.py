"""Replicated placement: successor-walk writes, failover reads,
read-repair, degraded writes and the replication-debt ledger."""

import asyncio
import os
import zlib

import numpy as np
import pytest

from repro.ckpt.faults import FaultInjectingStore, FaultPlan
from repro.ckpt.journal import CommitMarker, commit_key
from repro.ckpt.manager import CheckpointManager
from repro.ckpt.manifest import MANIFEST_FILENAME, array_key, manifest_key
from repro.ckpt.protocol import ArrayRegistry
from repro.ckpt.store import CountingStore, MemoryStore, StoreWrapper
from repro.config import ResilienceConfig
from repro.exceptions import CheckpointNotFoundError, IntegrityError, StorageError
from repro.obs.metrics import get_registry
from repro.service import CheckpointIngestService, TenantRegistry, TenantSpec
from repro.service.health import STATE_CLOSED, ShardHealth
from repro.service.replication import (
    ReplicationDebt,
    decode_replicas,
    encode_replicas,
    repair_debt,
    repair_unit,
)
from repro.service.sharded import NamespacedStore, ShardedStore

KEY = "tenants/a/ckpt/0000000001/u.bin"
UNIT = "tenants/a/ckpt/0000000001"


class BreakableStore(StoreWrapper):
    """MemoryStore that can be switched to fail every data operation."""

    def __init__(self) -> None:
        super().__init__(MemoryStore())
        self.down = False

    def _before(self, op, key):
        if self.down and op != "sync":
            raise StorageError("shard is down (test)")


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def _fresh(n=4, replication=2, health=None):
    shards = {f"s{i}": BreakableStore() for i in range(n)}
    store = ShardedStore(
        shards,
        placement=MemoryStore(),
        replication=replication,
        health=health,
    )
    return store, shards


def _holders(shards, key):
    return sorted(sid for sid, s in shards.items() if s.inner.exists(key))


def _flip(shard, key):
    """Corrupt ``key`` at rest on one shard, behind the sharded store's back."""
    data = bytearray(shard.inner.get(key))
    data[len(data) // 2] ^= 0x01
    shard.inner.put(key, bytes(data))


class TestReplicaCodec:
    def test_round_trip(self):
        assert decode_replicas(encode_replicas(["s1", "s0"])) == ["s1", "s0"]

    def test_legacy_single_id_record(self):
        # Placement maps written before replication existed hold a bare
        # shard id; they must decode as a one-element replica list.
        assert decode_replicas(b"shard-03") == ["shard-03"]

    def test_rejects_comma_in_shard_id(self):
        with pytest.raises(StorageError, match="','"):
            encode_replicas(["a,b"])

    def test_rejects_empty(self):
        with pytest.raises(StorageError, match="at least one replica"):
            encode_replicas([])


class TestReplicatedPlacement:
    def test_put_lands_on_n_distinct_shards(self):
        store, shards = _fresh(replication=2)
        store.put(KEY, b"payload")
        assert len(_holders(shards, KEY)) == 2
        assert store.placement_map(UNIT)[UNIT] == store.replicas_for(KEY)

    def test_replication_clamped_by_shard_count(self):
        store, shards = _fresh(n=2, replication=3)
        store.put(KEY, b"payload")
        assert len(_holders(shards, KEY)) == 2

    def test_whole_generation_shares_a_replica_set(self):
        store, _ = _fresh(replication=2)
        keys = [f"{UNIT}/{name}" for name in ("a.bin", "b.bin", "COMMIT")]
        for k in keys:
            store.put(k, b"x")
        sets = {tuple(store.replicas_for(k)) for k in keys}
        assert len(sets) == 1

    def test_failover_read_when_primary_is_down(self):
        store, shards = _fresh(replication=2)
        store.put(KEY, b"payload")
        primary = store.replicas_for(KEY)[0]
        shards[primary].down = True
        assert store.get(KEY) == b"payload"

    def test_read_repair_restores_missing_replica(self):
        store, shards = _fresh(replication=2)
        store.put(KEY, b"payload")
        holders = _holders(shards, KEY)
        shards[holders[0]].inner.delete(KEY)  # lose one copy out-of-band
        assert store.get(KEY) == b"payload"
        assert _holders(shards, KEY) == holders  # repaired in place

    def test_a_read_ends_the_half_open_probe_it_grants(self):
        # The read asks every replica's breaker up front, which grants the
        # recovered second replica its one half-open probe; the first
        # replica serves, so the second is only audited -- and that audit
        # must end the probe, or the breaker stays half-open for good and
        # every later write to the unit turns into replication debt.
        clock = FakeClock()
        health = ShardHealth(failure_threshold=1, open_seconds=1.0, clock=clock)
        store = ShardedStore(
            {"s0": MemoryStore(), "s1": MemoryStore()},
            replication=2,
            health=health,
        )
        store.put(KEY, b"payload")
        second = store.replicas_for(KEY)[1]
        health.record_failure(second, "blip")
        clock.t = 5.0
        assert store.get(KEY) == b"payload"
        assert health.state(second) == STATE_CLOSED
        clock.t = 100.0
        assert health.available(second)

    def test_single_replica_keeps_old_semantics(self):
        store, shards = _fresh(replication=1)
        store.put(KEY, b"payload")
        assert len(_holders(shards, KEY)) == 1
        assert store.get(KEY) == b"payload"

    def test_delete_clears_every_replica_and_the_record(self):
        store, shards = _fresh(replication=2)
        store.put(KEY, b"payload")
        store.delete(KEY)
        assert _holders(shards, KEY) == []
        assert store.placement_map(UNIT) == {}

    def test_missing_key_message_unchanged(self):
        store, _ = _fresh()
        with pytest.raises(StorageError, match="no object stored under key"):
            store.get("tenants/a/ckpt/0000000009/nope.bin")


class TestVerifiedReads:
    def test_crc_failover_serves_good_replica_and_repairs(self):
        store, shards = _fresh(replication=2)
        payload = b"payload-bytes"
        crc = zlib.crc32(payload) & 0xFFFFFFFF
        store.put(KEY, payload)
        victim = _holders(shards, KEY)[0]
        shards[victim].inner.put(KEY, b"corrupted-at-rest")
        assert store.get_verified(KEY, crc, len(payload)) == payload
        # the corrupt replica was overwritten with the good bytes
        assert shards[victim].inner.get(KEY) == payload

    def test_all_replicas_corrupt_raises_integrity_error(self):
        store, shards = _fresh(replication=2)
        payload = b"payload-bytes"
        crc = zlib.crc32(payload) & 0xFFFFFFFF
        store.put(KEY, payload)
        for sid in _holders(shards, KEY):
            shards[sid].inner.put(KEY, b"corrupted-at-rest")
        with pytest.raises(IntegrityError, match="every replica"):
            store.get_verified(KEY, crc, len(payload))

    def test_corruption_does_not_trip_the_breaker(self):
        # CRC mismatch is data corruption on one replica, not shard
        # unavailability; the breaker must stay closed.
        health = ShardHealth(failure_threshold=1, clock=FakeClock())
        store, shards = _fresh(replication=2, health=health)
        payload = b"payload-bytes"
        crc = zlib.crc32(payload) & 0xFFFFFFFF
        store.put(KEY, payload)
        victim = _holders(shards, KEY)[0]
        shards[victim].inner.put(KEY, b"corrupted-at-rest")
        assert store.get_verified(KEY, crc, len(payload)) == payload
        assert health.available(victim)


    def test_failover_and_repair_survive_wrappers_above_the_sharded_store(self):
        # a tenant view over an injector over the shards: the verified
        # read must still reach ShardedStore.get_verified
        store, shards = _fresh(replication=2)
        payload = b"payload-bytes"
        crc = zlib.crc32(payload) & 0xFFFFFFFF
        view = NamespacedStore(FaultInjectingStore(store, FaultPlan()), "tenants/a")
        key = KEY.removeprefix("tenants/a/")
        view.put(key, payload)
        victim = _holders(shards, KEY)[0]
        shards[victim].inner.put(KEY, b"corrupted-at-rest")
        assert view.get_verified(key, crc, len(payload)) == payload
        assert shards[victim].inner.get(KEY) == payload


class TestManifestFailsOverLikeABlob:
    """The manifest is read by the CRC its marker seals, so one bad replica
    of it is a read-repair, not a lost generation."""

    BLOBS = {"u": b"u-payload" * 50, "v": bytes(range(256))}

    def _acked(self):
        store, shards = _fresh(replication=2)
        service = CheckpointIngestService(store, TenantRegistry([TenantSpec("a")]))

        async def submit():
            async with service:
                await service.submit("a", 1, self.BLOBS)

        asyncio.run(submit())
        return service, store, shards

    def test_manifest_corrupt_on_the_first_replica_only(self):
        service, store, shards = self._acked()
        mkey = "tenants/a/" + manifest_key(1)
        first = store.replicas_for(mkey)[0]
        _flip(shards[first], mkey)
        repairs = get_registry().counter(
            "service.read_repairs", shard=first, reason="crc"
        )
        before = repairs.value
        assert service.committed_steps("a") == [1]
        assert service.restore_blobs("a", 1) == self.BLOBS
        assert service.restore_blobs("a") == self.BLOBS
        assert repairs.value == before + 1
        # a fresh incarnation's recovery reaps nothing ...
        fresh = CheckpointIngestService(store, TenantRegistry([TenantSpec("a")]))
        assert fresh.recover_tenants()["a"].reaped == []
        # ... and both replicas hold the manifest the marker seals again
        marker = CommitMarker.from_json(store.get("tenants/a/" + commit_key(1)))
        for sid in store.replicas_for(mkey):
            assert marker.matches(shards[sid].inner.get(mkey))

    def test_manifest_corrupt_on_every_replica_is_still_torn_and_reaped(self):
        service, store, shards = self._acked()
        mkey = "tenants/a/" + manifest_key(1)
        for sid in store.replicas_for(mkey):
            _flip(shards[sid], mkey)
        assert service.committed_steps("a") == []
        with pytest.raises(CheckpointNotFoundError, match="corrupt on every replica"):
            service.restore_blobs("a", 1)
        fresh = CheckpointIngestService(store, TenantRegistry([TenantSpec("a")]))
        report = fresh.recover_tenants()["a"]
        assert report.torn == [1] and report.reaped == [1]
        assert store.list_keys("tenants/a/") == []


class TestStoreStackHealsBeforeParity:
    """Two repair ladders, one order (ROADMAP collapse item 4): the store
    stack heals what it can -- CRC re-read, replica failover -- and XOR
    parity sees only what no store layer could heal."""

    def _checkpointed(self):
        store, shards = _fresh(replication=2)
        registry = ArrayRegistry()
        for name in ("a", "b", "c"):
            registry.register(name, np.arange(64, dtype=np.int64) * (ord(name) - 90))
        manager = CheckpointManager(
            registry, store, resilience=ResilienceConfig(parity=True)
        )
        manager.checkpoint(1)
        want = {n: registry.get(n).copy() for n in registry.names()}
        for name in want:
            registry.get(name)[:] = -1
        return manager, store, shards, want

    def _assert_restored(self, manager, want):
        manager.restore(1)
        for name, arr in want.items():
            np.testing.assert_array_equal(manager.registry.get(name), arr)

    def test_one_corrupt_replica_is_healed_by_failover_not_parity(self):
        manager, store, shards, want = self._checkpointed()
        key = array_key(1, "b")
        first, second = store.replicas_for(key)
        _flip(shards[first], key)
        self._assert_restored(manager, want)
        assert manager.repair_log == []
        assert shards[first].inner.get(key) == shards[second].inner.get(key)

    def test_both_replicas_corrupt_is_healed_by_parity(self):
        manager, store, shards, want = self._checkpointed()
        key = array_key(1, "b")
        for sid in store.replicas_for(key):
            _flip(shards[sid], key)
        self._assert_restored(manager, want)
        assert [(e.kind, e.name) for e in manager.repair_log] == [("member", "b")]
        # the rewrite went through the sharded put: both replicas hold it again
        manager.repair_log.clear()
        self._assert_restored(manager, want)
        assert manager.repair_log == []


class _RestoreOps(CountingStore):
    """Counts what ``CountingStore`` does not: ``exists`` probes, and
    which of the ``gets`` were manifest reads."""

    def __init__(self) -> None:
        super().__init__(MemoryStore())
        self.exists_calls = 0
        self.manifest_reads = 0

    def _before(self, op, key):
        if op == "exists":
            self.exists_calls += 1
        elif op == "get" and key.endswith(MANIFEST_FILENAME):
            self.manifest_reads += 1


class TestRestorePathCost:
    # (gets, exists, manifest reads) reaching the backends for
    # ``restore(2)`` of three 3-array generations, measured at the parent
    # commit (8b3402a), which read the manifest twice.
    PARENT = {"plain": (6, 3, 2), "sharded": (6, 9, 2), "replicated": (9, 15, 2)}

    @pytest.mark.parametrize("stack", PARENT)
    def test_explicit_step_restore_reads_the_manifest_once(self, stack):
        if stack == "plain":
            backends = [_RestoreOps()]
            store = backends[0]
        else:
            shards = {f"s{i}": _RestoreOps() for i in range(4)}
            backends = list(shards.values())
            store = NamespacedStore(
                ShardedStore(
                    shards,
                    placement=MemoryStore(),
                    replication=2 if stack == "replicated" else 1,
                ),
                "tenants/a",
            )
        registry = ArrayRegistry()
        for name in ("a", "b", "c"):
            registry.register(name, np.arange(32, dtype=np.int64))
        manager = CheckpointManager(registry, store)
        for step in (1, 2, 3):
            manager.checkpoint(step)
        for ops in backends:
            ops.gets = ops.exists_calls = ops.manifest_reads = 0
        assert manager.restore(2).step == 2
        gets, exists, manifest_reads = (
            sum(getattr(ops, field) for ops in backends)
            for field in ("gets", "exists_calls", "manifest_reads")
        )
        parent_gets, parent_exists, _ = self.PARENT[stack]
        assert gets <= parent_gets and exists <= parent_exists
        # one read serves it; a second replica costs that copy's audit read
        assert manifest_reads == (2 if stack == "replicated" else 1)

    def test_a_service_restore_hashes_each_byte_once(self, crc_bytes):
        """The replica read's CRC test is the only hash a restored blob
        gets; the audit of the second copy compares bytes."""
        store = ShardedStore(
            {f"s{i}": MemoryStore() for i in range(4)},
            placement=MemoryStore(),
            replication=2,
        )
        svc = CheckpointIngestService(store, TenantRegistry([TenantSpec("alice")]))
        blobs = {"a": os.urandom(4096), "b": os.urandom(1000), "c": b"x", "d": b""}

        async def submit():
            async with svc:
                await svc.submit("alice", 1, blobs)

        asyncio.run(submit())
        manifest = store.get(f"tenants/alice/{manifest_key(1)}")
        crc_bytes.clear()
        assert svc.restore_blobs("alice", 1) == blobs
        assert sum(crc_bytes.values()) == sum(map(len, blobs.values())) + len(manifest)


class TestDegradedWrites:
    def test_put_succeeds_short_and_records_debt(self):
        health = ShardHealth(failure_threshold=1, clock=FakeClock())
        store, shards = _fresh(replication=2, health=health)
        intended = store.replicas_for(KEY)
        health.mark_down(intended[1], "test outage")
        store.put(KEY, b"payload")
        assert _holders(shards, KEY) == [intended[0]]
        assert store.debt.owed() == {UNIT: [intended[1]]}
        assert store.degraded
        assert store.get(KEY) == b"payload"

    def test_put_fails_only_when_every_replica_fails(self):
        store, shards = _fresh(n=2, replication=2)
        for s in shards.values():
            s.down = True
        with pytest.raises(StorageError, match="every replica"):
            store.put(KEY, b"payload")

    def test_repair_debt_restores_full_replication(self):
        health = ShardHealth(failure_threshold=1, clock=FakeClock())
        store, shards = _fresh(replication=2, health=health)
        intended = store.replicas_for(KEY)
        shards[intended[1]].down = True
        store.put(KEY, b"payload")  # degrades: replica write fails
        assert len(store.debt) == 1
        shards[intended[1]].down = False
        health.record_success(intended[1])
        summary = repair_debt(store)
        assert summary["repaired_units"] == 1
        assert summary["remaining_debt"]["units"] == 0
        assert sorted(_holders(shards, KEY)) == sorted(intended)
        assert not store.degraded

    def test_repair_skips_unavailable_target(self):
        clock = FakeClock()
        health = ShardHealth(failure_threshold=1, clock=clock)
        store, shards = _fresh(replication=2, health=health)
        intended = store.replicas_for(KEY)
        health.mark_down(intended[1], "still down")
        store.put(KEY, b"payload")
        summary = repair_unit(store, UNIT, [intended[1]])
        assert summary["repaired"] == []
        assert summary["failed"] == [intended[1]]
        assert len(store.debt) == 1  # still owed


class TestDebtLedger:
    def test_record_merge_resolve(self):
        debt = ReplicationDebt()
        debt.record("u1", ["s0"])
        debt.record("u1", ["s1"])
        assert debt.owed() == {"u1": ["s0", "s1"]}
        debt.resolve("u1", ["s0"])
        assert debt.owed() == {"u1": ["s1"]}
        debt.resolve("u1")
        assert len(debt) == 0

    def test_forget(self):
        debt = ReplicationDebt()
        debt.record("u1", ["s0"])
        debt.forget("u1")
        assert debt.stats() == {"units": 0, "missing_copies": 0}

    def test_empty_missing_is_a_noop(self):
        debt = ReplicationDebt()
        debt.record("u1", [])
        assert len(debt) == 0


class TestLegacyPlacementUpgrade:
    def test_single_id_record_reads_fine_under_replication(self):
        # A store written with replication=1 is reopened with
        # replication=2: old records (one id) keep the data readable.
        shards = {f"s{i}": BreakableStore() for i in range(4)}
        placement = MemoryStore()
        old = ShardedStore(shards, placement=placement, replication=1)
        old.put(KEY, b"payload")
        reopened = ShardedStore(shards, placement=placement, replication=2)
        assert reopened.get(KEY) == b"payload"
        # a new write to the same unit tops the replica set up to 2
        reopened.put(f"{UNIT}/v.bin", b"more")
        assert len(reopened.replicas_for(KEY)) == 2
