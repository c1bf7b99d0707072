"""Chaos benchmark: seeded shard-fault storms under concurrent load.

The replication layer's acceptance campaign, run as a benchmark so CI
replays the *same* storm matrix on every commit:

* **Kill matrix** -- with ``replication=2``, a down-storm on *each* shard
  in turn while clients are submitting.  Every acked generation must
  restore bit-identically both mid-storm (reads fail over) and after
  ``repair_debt`` repays the degraded writes; the ``degraded`` surface
  must flip while the shard is dark and recover afterwards.
* **Seeded storm matrix** -- ``FaultPlan.from_seed`` mixes down,
  slow, flaky and bitflip windows across all shards under concurrent
  wave load.  Refused submits are allowed (nothing was promised); acked
  ones are not -- zero acked-generation loss, bit-identical restores.
  Each seed is replayed twice and must ack the identical set: recovery
  is deterministic, not merely lucky.

Storm windows live on an injected clock the driver steps explicitly, so
the campaign is runner-independent: no wall-clock races, identical
schedules everywhere.

Artifacts: ``bench_results/BENCH_chaos.json`` (gated by
``benchmarks/check_chaos_floor.py`` in CI) and
``bench_results/TRACE_chaos.jsonl`` (span trace of one stormy session,
linted here and re-linted by ``repro report --check-parentage`` in CI).
"""

from __future__ import annotations

import asyncio
import os

from repro.ckpt.faults import FAULT_DOWN, FaultInjectingStore, FaultPlan, FaultWindow
from repro.ckpt.store import MemoryStore
from repro.config import ServiceConfig
from repro.exceptions import ReproError
from repro.obs import JsonlSink, TraceReport, get_tracer
from repro.obs.metrics import get_registry
from repro.service import (
    CheckpointIngestService,
    ShardedStore,
    ShardHealth,
    TenantRegistry,
    TenantSpec,
)
from repro.service.replication import repair_debt

from _util import FAST, RESULTS_DIR, save_and_print, write_bench_json

TRACE_PATH = os.path.join(RESULTS_DIR, "TRACE_chaos.jsonl")

N_SHARDS = 4
REPLICATION = 2
TENANTS = ["alice", "bob", "carol"]
SEEDS = [7, 23] if FAST else [7, 23, 1337]
WAVES = 4 if FAST else 8
STORMS_PER_SEED = 4 if FAST else 8
BLOB_BYTES = 1024 if FAST else 4096


class _Clock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def _payload(tenant: str, step: int) -> dict[str, bytes]:
    seed = f"{tenant}/{step}/".encode()
    blob = (seed * (BLOB_BYTES // len(seed) + 1))[:BLOB_BYTES]
    return {"u": blob, "v": blob[::-1]}


def _build(windows=None, *, plan=None, clock, failure_threshold=2):
    backends = {f"s{i}": MemoryStore() for i in range(N_SHARDS)}
    if plan is None:
        plan = FaultPlan(windows=windows or [], clock=clock)
    wrapped = {
        sid: FaultInjectingStore(b, plan, sid) for sid, b in backends.items()
    }
    health = ShardHealth(
        failure_threshold=failure_threshold, open_seconds=0.25, clock=clock
    )
    store = ShardedStore(
        wrapped,
        placement=MemoryStore(),
        replication=REPLICATION,
        health=health,
    )
    registry = TenantRegistry([TenantSpec(t) for t in TENANTS])
    svc = CheckpointIngestService(store, registry, ServiceConfig(max_batch=8))
    return svc, store, plan


async def _drive_waves(svc, clock, *, horizon, start_step=0):
    """Concurrent wave load with the clock stepped across the storm
    schedule; returns (acked payloads, refused count)."""
    acked: dict[tuple[str, int], dict[str, bytes]] = {}
    refused = 0
    for wave in range(WAVES):
        clock.t = (wave / max(1, WAVES - 1)) * horizon

        async def _try(tenant, step):
            try:
                await svc.submit(tenant, step, _payload(tenant, step))
                return (tenant, step)
            except ReproError:
                return None

        results = await asyncio.gather(
            *[_try(t, start_step + wave) for t in TENANTS]
        )
        for hit in results:
            if hit is None:
                refused += 1
            else:
                acked[hit] = _payload(*hit)
    return acked, refused


def _verify(svc, acked) -> int:
    for (tenant, step), blobs in acked.items():
        got = svc.restore_blobs(tenant, step)
        assert got == blobs, f"{tenant}/{step}: restored bytes differ"
    return len(acked)


def _kill_one_shard(victim: str) -> dict[str, object]:
    """Down-storm one shard mid-load; nothing acked may be lost."""

    async def run():
        clock = _Clock()
        svc, store, _ = _build(
            [FaultWindow(FAULT_DOWN, 1.0, shard=victim, start=1.0, end=2.0)],
            clock=clock,
            failure_threshold=1,
        )
        async with svc:
            acked: dict[tuple[str, int], dict[str, bytes]] = {}
            for step in range(3):  # healthy warm-up
                for t in TENANTS:
                    await svc.submit(t, step, _payload(t, step))
                    acked[(t, step)] = _payload(t, step)
            clock.t = 1.5  # the shard goes dark mid-load
            for step in range(3, 6):
                for t in TENANTS:
                    await svc.submit(t, step, _payload(t, step))
                    acked[(t, step)] = _payload(t, step)
            degraded_flipped = bool(svc.stats()["degraded"])
            mid_storm_verified = _verify(svc, acked)
            clock.t = 2.5  # storm over: probe, repay debt, re-verify
            summary = repair_debt(store)
            recovered = not svc.stats()["degraded"]
            verified = _verify(svc, acked)
            replicas_full = all(
                len(r) == REPLICATION for r in store.placement_map().values()
            )
            return {
                "shard": victim,
                "acked": len(acked),
                "mid_storm_verified": mid_storm_verified,
                "verified": verified,
                "degraded_flipped": degraded_flipped,
                "recovered": recovered,
                "replicas_full": replicas_full,
                "debt_after_repair": summary["remaining_debt"]["units"],
            }

    return asyncio.run(run())


def _storm_campaign(seed: int) -> dict[str, object]:
    """One seeded mixed-storm run; returns the acked set + stats."""

    async def run():
        clock = _Clock()
        plan = FaultPlan.from_seed(
            [f"s{i}" for i in range(N_SHARDS)],
            seed=seed,
            duration=3.0,
            storms=STORMS_PER_SEED,
            rate=0.3,
            delay=0.0,
            clock=clock,
        )
        svc, store, _ = _build(plan=plan, clock=clock)
        async with svc:
            acked, refused = await _drive_waves(
                svc, clock, horizon=plan.horizon
            )
            clock.t = plan.horizon + 1.0  # every window behind us
            repair = repair_debt(store)
            verified = _verify(svc, acked)
            return {
                "seed": seed,
                "windows": len(plan.windows),
                "acked": sorted(f"{t}/{s}" for t, s in acked),
                "verified": verified,
                "refused": refused,
                "debt_after_repair": repair["remaining_debt"]["units"],
                "degraded_after_repair": bool(svc.stats()["degraded"]),
            }

    return asyncio.run(run())


def _write_trace() -> None:
    """Trace one stormy session; the artifact must lint orphan-free."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    tracer = get_tracer()
    sink = JsonlSink(TRACE_PATH)
    tracer.enable(sink)
    try:
        with tracer.span("chaos_session", shards=N_SHARDS, replication=REPLICATION):

            async def run():
                clock = _Clock()
                svc, store, _ = _build(
                    [FaultWindow(FAULT_DOWN, 1.0, shard="s0", start=1.0,
                                 end=2.0)],
                    clock=clock,
                    failure_threshold=1,
                )
                async with svc:
                    await svc.submit("alice", 0, _payload("alice", 0))
                    clock.t = 1.5
                    await svc.submit("alice", 1, _payload("alice", 1))
                    clock.t = 2.5
                    repair_debt(store)

            asyncio.run(run())
        sink.emit_metrics(get_registry().snapshot())
    finally:
        tracer.disable()
        sink.close()
    report = TraceReport.from_jsonl(TRACE_PATH)
    names = {s.get("name") for s in report.spans}
    assert "chaos_session" in names, names
    assert "service.submit" in names, names
    assert report.orphans() == [], report.orphans()
    assert report.render(), "repro report must render the artifact"


def test_chaos_campaign():
    get_registry().reset()

    # Arm 1: the kill matrix -- any single shard may die.
    kills = [_kill_one_shard(f"s{i}") for i in range(N_SHARDS)]
    for row in kills:
        assert row["verified"] == row["acked"], row
        assert row["mid_storm_verified"] == row["acked"], row
        assert row["degraded_flipped"], row
        assert row["recovered"], row
        assert row["replicas_full"], row
        assert row["debt_after_repair"] == 0, row

    # Arm 2: the seeded storm matrix, each seed replayed for determinism.
    campaigns = []
    deterministic = True
    divergent = {}  # seed -> generations only one replay acked
    for seed in SEEDS:
        first = _storm_campaign(seed)
        second = _storm_campaign(seed)
        assert first["verified"] == len(first["acked"]), first
        assert first["acked"], f"seed {seed}: the storm refused every submit"
        if first["acked"] != second["acked"]:
            deterministic = False
            divergent[seed] = sorted(set(first["acked"]) ^ set(second["acked"]))
        assert first["debt_after_repair"] == 0, first
        assert not first["degraded_after_repair"], first
        campaigns.append(first)
    assert deterministic, (
        f"same seed acked different sets across replays: {divergent}"
    )

    _write_trace()

    bench = {
        "shards": N_SHARDS,
        "replication": REPLICATION,
        "tenants": len(TENANTS),
        "waves": WAVES,
        "seeds": SEEDS,
        "kill_matrix": kills,
        "storm_campaigns": campaigns,
        "deterministic_recovery": deterministic,
        "zero_acked_loss": True,
    }
    write_bench_json("chaos", bench, registry=get_registry())

    lines = [
        f"shards={N_SHARDS} replication={REPLICATION} "
        f"({'FAST' if FAST else 'full'} mode)",
        "",
        f"{'kill matrix':>12} {'acked':>6} {'verified':>9} "
        f"{'degraded':>9} {'recovered':>10}",
    ]
    for row in kills:
        lines.append(
            f"{row['shard']:>12} {row['acked']:>6} {row['verified']:>9} "
            f"{str(row['degraded_flipped']):>9} {str(row['recovered']):>10}"
        )
    lines.append("")
    lines.append(
        f"{'storm seed':>12} {'windows':>8} {'acked':>6} "
        f"{'refused':>8} {'verified':>9}"
    )
    for c in campaigns:
        lines.append(
            f"{c['seed']:>12} {c['windows']:>8} {len(c['acked']):>6} "
            f"{c['refused']:>8} {c['verified']:>9}"
        )
    lines.append("")
    lines.append(
        "every acked generation restored bit-identically; "
        "recovery deterministic across replays"
    )
    save_and_print("chaos", "\n".join(lines))
