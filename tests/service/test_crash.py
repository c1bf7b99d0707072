"""Crash injection through the service: only committed-or-reaped survives.

The acceptance property of the whole service layer: kill the process at
arbitrary store operations mid-ingest (including mid-batch, between the
group commit's two barriers) and afterwards

* every ACKED submit restores bit-identically on a fresh incarnation,
* every generation on disk is either committed or reaped by recovery,
* no tenant ever observes another tenant's keys.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.ckpt.faults import CRASH_AFTER, CRASH_BEFORE, FaultInjectingStore, FaultPlan
from repro.ckpt.journal import GEN_COMMITTED, is_committed, scan_generations
from repro.ckpt.store import DirectoryStore
from repro.config import ServiceConfig
from repro.exceptions import ServiceUnavailableError
from repro.service import CheckpointIngestService, ShardedStore, TenantRegistry, TenantSpec
from repro.service.sharded import NamespacedStore

TENANTS = ("alice", "bob")


def _payload(tenant: str, step: int) -> dict[str, bytes]:
    seed = f"{tenant}:{step}".encode()
    return {
        "u": (seed * 40)[:997],
        "v": bytes((step * 7 + i) % 251 for i in range(313)),
    }


def _registry() -> TenantRegistry:
    return TenantRegistry([TenantSpec(t) for t in TENANTS])


def _sharded(tmp_path, n=3, plan: FaultPlan | None = None) -> ShardedStore:
    """Three batch-durability shards; with ``plan``, every shard acts it
    out (one shared operation counter across them)."""
    shards = {
        f"s{i}": DirectoryStore(str(tmp_path / f"s{i}"), durability="batch")
        for i in range(n)
    }
    if plan is not None:
        shards = {sid: FaultInjectingStore(s, plan) for sid, s in shards.items()}
    return ShardedStore(shards, placement=DirectoryStore(str(tmp_path / "placement")))


async def _ingest_until_crash(service, n_steps=8):
    """Submit generations round-robin; return the acked (tenant, step) set."""
    acked = set()
    crashed = False
    for step in range(n_steps):
        for tenant in TENANTS:
            try:
                await service.submit(tenant, step, _payload(tenant, step))
                acked.add((tenant, step))
            except ServiceUnavailableError:
                crashed = True
                return acked, crashed
    return acked, crashed


def _check_invariants(tmp_path, acked):
    """Fresh incarnation: recover, then verify the acceptance properties."""
    store = _sharded(tmp_path)
    service = CheckpointIngestService(store, _registry())
    reports = service.recover_tenants()

    for tenant in TENANTS:
        view = service.view(tenant)
        # after recovery every surviving generation is committed
        for gen in scan_generations(view):
            assert gen.state == GEN_COMMITTED, (tenant, gen)
        committed = set(service.committed_steps(tenant))
        acked_steps = {s for t, s in acked if t == tenant}
        # an acknowledged commit can never be lost
        assert acked_steps <= committed, (
            f"{tenant}: acked {sorted(acked_steps)} but only "
            f"{sorted(committed)} committed"
        )
        # ... and restores bit-identically
        for step in committed:
            assert service.restore_blobs(tenant, step) == _payload(tenant, step)
        # tenant isolation: nothing of the other tenants under this view
        other = set(TENANTS) - {tenant}
        for key in view.list_keys(""):
            assert not any(f"tenants/{o}/" in key for o in other)
    return reports


@pytest.mark.parametrize("crash_op", [5, 12, 25, 45, 70, 110])
@pytest.mark.parametrize("mode", [CRASH_BEFORE, CRASH_AFTER])
def test_crash_sweep_sequential(tmp_path, crash_op, mode):
    async def run():
        plan = FaultPlan(schedule=[(crash_op, mode)])
        service = CheckpointIngestService(
            _sharded(tmp_path, plan=plan),
            _registry(),
            ServiceConfig(drain_workers=1, max_batch=4),
        )
        async with service:
            acked, crashed = await _ingest_until_crash(service, n_steps=4)
        if crashed:
            assert service.crashed is not None
        return acked

    acked = asyncio.run(run())
    _check_invariants(tmp_path, acked)


def test_crash_mid_concurrent_batch(tmp_path):
    """Kill the store while many submits share one group-commit batch.

    One generation is acked on its own first and the crash is scheduled
    from there: however the rest batch up, an acked generation must
    survive it (the sweep covers a crash before any ack)."""

    async def run():
        service = CheckpointIngestService(
            _sharded(tmp_path, plan=FaultPlan()), _registry(), ServiceConfig(max_batch=32)
        )
        acked = set()

        async def one(tenant, step):
            try:
                await service.submit(tenant, step, _payload(tenant, step))
                acked.add((tenant, step))
            except ServiceUnavailableError:
                pass

        async with service:
            await one(TENANTS[0], 0)
            assert acked == {(TENANTS[0], 0)}
            # 60 store operations after that ack, inside the concurrent batch
            crash = FaultPlan(schedule=[(60, CRASH_BEFORE)])
            for shard in service.store.shards.values():
                shard.plan = crash
            await asyncio.gather(
                *[one(t, s) for s in range(8) for t in TENANTS if (t, s) != (TENANTS[0], 0)]
            )
            # the service is poisoned: new submits are refused outright
            with pytest.raises(ServiceUnavailableError):
                await service.submit("alice", 99, {"u": b"x"})
        return acked

    acked = asyncio.run(run())
    _check_invariants(tmp_path, acked)


def test_crash_between_commit_barriers_keeps_marked_generations(tmp_path):
    """A generation whose marker landed before the crash stays committed
    even though its batch-mates were torn (group-commit safety case 4)."""

    async def run():
        # many puts happen per generation (2 blobs + manifest + marker +
        # placement records); crash deep enough that some markers landed
        plan = FaultPlan(schedule=[(38, CRASH_BEFORE)])
        service = CheckpointIngestService(
            _sharded(tmp_path, plan=plan), _registry(), ServiceConfig(drain_workers=1)
        )
        async with service:
            acked, _ = await _ingest_until_crash(service, n_steps=6)
        return acked

    acked = asyncio.run(run())
    reports = _check_invariants(tmp_path, acked)

    # the fresh incarnation accepts new work where the old one died
    async def resume():
        store = _sharded(tmp_path)
        service = CheckpointIngestService(store, _registry())
        async with service:
            await service.submit("alice", 50, _payload("alice", 50))
        assert service.restore_blobs("alice", 50) == _payload("alice", 50)

    asyncio.run(resume())


def test_unacked_but_committed_is_tolerated(tmp_path):
    """Crash after barrier 2 but before the ack reaches the client: the
    generation is durably committed; the client sees an unavailable
    service.  Committed-but-unacked is the one asymmetry the protocol
    allows (same as any at-least-once commit)."""

    async def run():
        sharded = _sharded(tmp_path)
        service = CheckpointIngestService(sharded, _registry())
        async with service:
            await service.submit("alice", 0, _payload("alice", 0))
        # simulate the lost ack: nothing to do -- just assert a fresh
        # incarnation sees the commit regardless of what the client saw
        return None

    asyncio.run(run())
    store = _sharded(tmp_path)
    view = NamespacedStore(store, "tenants/alice")
    assert is_committed(view, 0)
