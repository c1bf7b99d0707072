"""Chaos harness: shard fault storms through the asyncio service.

The acceptance property of the replication PR: with ``replication=2``,
killing any single shard mid-load loses **zero acked generations**,
every restore stays **bit-identical**, and the health surface flips to
degraded while the shard is down and recovers after repair.  Storms are
time-windowed on an injected clock shared by the storm plan, the shard
breakers and the SLO tracker, so every state transition in these tests
is stepped explicitly, never raced.
"""

from __future__ import annotations

import asyncio
import os

import pytest

from repro.ckpt.faults import (
    STORM_DOWN,
    ShardStormPlan,
    StormInjectingStore,
    StormWindow,
)
from repro.ckpt.store import MemoryStore
from repro.config import ServiceConfig
from repro.exceptions import ReproError
from repro.obs.slo import SLOTracker
from repro.service import (
    CheckpointIngestService,
    ShardedStore,
    ShardHealth,
    TenantRegistry,
    TenantSpec,
)
from repro.service.replication import repair_debt


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def _registry():
    return TenantRegistry([TenantSpec("alice"), TenantSpec("bob")])


def _chaos_service(
    windows,
    *,
    clock,
    n_shards=4,
    replication=2,
    failure_threshold=1,
    open_seconds=0.25,
    slo=None,
):
    backends = {f"s{i}": MemoryStore() for i in range(n_shards)}
    plan = ShardStormPlan(windows, clock=clock)
    wrapped = {
        sid: StormInjectingStore(b, sid, plan) for sid, b in backends.items()
    }
    health = ShardHealth(
        failure_threshold=failure_threshold,
        open_seconds=open_seconds,
        clock=clock,
    )
    store = ShardedStore(
        wrapped,
        placement=MemoryStore(),
        replication=replication,
        health=health,
    )
    svc = CheckpointIngestService(store, _registry(), slo=slo)
    return svc, store, health, backends


def _blobs(tenant, step):
    return {
        "u.bin": f"{tenant}:{step}:".encode() + bytes(range(256)) * 8,
        "v.bin": os.urandom(0) + f"{tenant}:{step}:v".encode() * 31,
    }


class TestSingleShardDown:
    def test_no_acked_generation_lost_and_degradation_recovers(self):
        async def run():
            clock = FakeClock()
            svc, store, health, _ = _chaos_service(
                [StormWindow(shard="s1", kind=STORM_DOWN, start=1.0, end=2.0)],
                clock=clock,
            )
            acked: dict[tuple[str, int], dict[str, bytes]] = {}
            async with svc:
                # Phase A -- healthy cluster, steps 0..4 per tenant.
                for step in range(5):
                    for tenant in ("alice", "bob"):
                        blobs = _blobs(tenant, step)
                        await svc.submit(tenant, step, blobs)
                        acked[(tenant, step)] = blobs
                assert not svc.stats()["degraded"]

                # Phase B -- s1 is down; every submit must still ack
                # (writes degrade to the live replica, never error).
                clock.t = 1.5
                for step in range(5, 10):
                    for tenant in ("alice", "bob"):
                        blobs = _blobs(tenant, step)
                        await svc.submit(tenant, step, blobs)
                        acked[(tenant, step)] = blobs

                stats = svc.stats()
                assert stats["degraded"]
                assert health.state("s1") == "open"
                # reads fail over MID-STORM: every acked generation,
                # including ones whose replica set contains s1, restores
                # bit-identically while the shard is dark
                for (tenant, step), blobs in acked.items():
                    assert svc.restore_blobs(tenant, step) == blobs

                # Phase C -- storm passed: probe, repair, recover.
                clock.t = 2.5
                summary = repair_debt(store)
                assert summary["remaining_debt"]["units"] == 0
                assert not svc.stats()["degraded"]
                assert health.state("s1") == "closed"
                for (tenant, step), blobs in acked.items():
                    assert svc.restore_blobs(tenant, step) == blobs
                # the repaired shard holds real copies again: killing the
                # OTHER replica of any unit must still leave data readable
                for unit, replicas in store.placement_map().items():
                    assert len(replicas) == 2

        asyncio.run(run())

    def test_any_single_shard_can_die(self):
        # The acceptance matrix: one run per shard, each losing nothing.
        async def run(victim):
            clock = FakeClock()
            svc, store, _, _ = _chaos_service(
                [StormWindow(shard=victim, kind=STORM_DOWN, start=1.0,
                             end=2.0)],
                clock=clock,
            )
            acked = {}
            async with svc:
                for step in range(4):
                    blobs = _blobs("alice", step)
                    await svc.submit("alice", step, blobs)
                    acked[step] = blobs
                clock.t = 1.5
                for step in range(4, 8):
                    blobs = _blobs("alice", step)
                    await svc.submit("alice", step, blobs)
                    acked[step] = blobs
                for step, blobs in acked.items():
                    assert svc.restore_blobs("alice", step) == blobs
                clock.t = 2.5
                repair_debt(store)
                for step, blobs in acked.items():
                    assert svc.restore_blobs("alice", step) == blobs

        for victim in ("s0", "s1", "s2", "s3"):
            asyncio.run(run(victim))


class TestTotalOutageBurnsSLO:
    def test_slo_flips_burning_and_recovers_after_repair(self):
        async def run():
            clock = FakeClock()
            slo = SLOTracker(
                latency_threshold_seconds=30.0,
                objective=0.99,
                clock=clock,
            )
            windows = [
                StormWindow(shard=f"s{i}", kind=STORM_DOWN, start=1.0, end=2.0)
                for i in range(4)
            ]
            svc, store, health, _ = _chaos_service(
                windows, clock=clock, failure_threshold=2, slo=slo
            )
            async with svc:
                for step in range(3):
                    await svc.submit("alice", step, _blobs("alice", step))
                assert slo.status()["healthy"]

                # every shard dark: submits fail (typed, not hung) and
                # the error budget burns
                clock.t = 1.5
                for step in range(3, 6):
                    with pytest.raises(ReproError):
                        await svc.submit("alice", step, _blobs("alice", step))
                assert not slo.status()["healthy"]
                assert svc.stats()["degraded"]

                # storm over, windows aged out, good traffic resumes:
                # the surface must recover, not latch
                clock.t = 700.0
                repair_debt(store)
                for step in range(6, 12):
                    await svc.submit("alice", step, _blobs("alice", step))
                assert slo.status()["healthy"]
                assert not svc.stats()["degraded"]
                # nothing acked was lost across the outage
                for step in (0, 1, 2):
                    assert svc.restore_blobs("alice", step) == _blobs(
                        "alice", step
                    )

        asyncio.run(run())


class TestSeededStormMatrix:
    def test_mixed_storms_under_concurrent_load(self):
        async def run(seed):
            clock = FakeClock()
            backends = {f"s{i}": MemoryStore() for i in range(4)}
            plan = ShardStormPlan.from_seed(
                backends,
                seed=seed,
                duration=3.0,
                storms=6,
                rate=0.3,
                delay=0.0,
                clock=clock,
            )
            wrapped = {
                sid: StormInjectingStore(b, sid, plan)
                for sid, b in backends.items()
            }
            health = ShardHealth(
                failure_threshold=2, open_seconds=0.2, clock=clock
            )
            store = ShardedStore(
                wrapped,
                placement=MemoryStore(),
                replication=2,
                health=health,
            )
            svc = CheckpointIngestService(
                store, _registry(), ServiceConfig(max_batch=8)
            )
            acked = {}
            async with svc:
                for wave in range(6):
                    clock.t = wave * 0.6
                    submits = {
                        (tenant, wave): _blobs(tenant, wave)
                        for tenant in ("alice", "bob")
                    }

                    async def _try(tenant, step, blobs):
                        try:
                            await svc.submit(tenant, step, blobs)
                            return True
                        except ReproError:
                            return False  # refused, not acked: no promise

                    results = await asyncio.gather(
                        *[
                            _try(t, s, b)
                            for (t, s), b in submits.items()
                        ]
                    )
                    for ok, ((tenant, step), blobs) in zip(
                        results, submits.items()
                    ):
                        if ok:
                            acked[(tenant, step)] = blobs

                # past the horizon: all storms over, repair, verify
                clock.t = plan.horizon + 1.0
                repair_debt(store)
                assert acked, "the storm matrix refused every submit"
                for (tenant, step), blobs in acked.items():
                    assert svc.restore_blobs(tenant, step) == blobs
            return sorted(acked)

        # fixed seeds; each must lose nothing, and recovery must be
        # deterministic (same seed -> same acked set)
        for seed in (7, 2024):
            first = asyncio.run(run(seed))
            assert asyncio.run(run(seed)) == first

        asyncio.run(run(7))
