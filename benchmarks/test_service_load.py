"""Service load benchmark: hundreds of clients through the ingest service.

Two arms over *identical* latency-modelled slow tiers (a
:class:`~repro.ckpt.store.LatencyStore` that really sleeps the device
write-barrier cost, so the ratios are honest even on tmpfs runners):

* ``per_generation`` -- ``max_batch=1``: every commit pays its own two
  sync barriers, the classic single-writer protocol.
* ``group_commit`` -- ``max_batch=32``: concurrent commits coalesce and
  a whole batch shares two barriers.

The headline claim is the fsync amortization: group commit must clear
``floor_speedup`` x the per-generation arm's ingest throughput.  Both
arms verify zero lost/torn generations -- every acked commit restores
bit-identically -- and the burst-buffer drain stage's measured
absorb/drain split is checked against the analytic
:class:`~repro.iomodel.burst_buffer.BurstBufferModel` of the same tiers.

Three telemetry gates ride along: the group-commit arm runs with the
full metric/SLO surface on and a third arm repeats it with the registry
disabled, so the *cost of telemetry itself* is measured (throughput
ratio gated at ``TELEMETRY_FLOOR_RATIO``); the group-commit arm's
:class:`~repro.obs.slo.SLOTracker` must judge the run healthy while a
replay against a microsecond latency objective must flip the verdict;
and a client/server pair in *separate processes* must stitch into one
span tree through wire-level trace propagation.

Artifacts: ``bench_results/BENCH_service.json`` (machine-readable, gated
by ``benchmarks/check_service_floor.py`` in CI),
``bench_results/TRACE_service.jsonl`` (span trace of one small traced
session, linted here and rendered by ``repro report`` in CI) and
``bench_results/TRACE_service_stitched.jsonl`` (merged client+server
trace, linted by ``repro report --check-parentage`` in CI).
"""

from __future__ import annotations

import asyncio
import os
import subprocess
import sys
import time

from repro.ckpt.store import DirectoryStore, LatencyStore
from repro.config import ServiceConfig
from repro.iomodel.burst_buffer import BurstBufferModel
from repro.iomodel.storage import StorageModel
from repro.obs import JsonlSink, SLOTracker, TraceReport, get_tracer
from repro.obs.metrics import get_registry
from repro.service import (
    CheckpointIngestService,
    ShardedStore,
    TenantRegistry,
    TenantSpec,
)

from _util import FAST, RESULTS_DIR, save_and_print, write_bench_json

TRACE_PATH = os.path.join(RESULTS_DIR, "TRACE_service.jsonl")
STITCHED_TRACE_PATH = os.path.join(RESULTS_DIR, "TRACE_service_stitched.jsonl")

TENANTS = ["t%02d" % i for i in range(4)]
CLIENTS_PER_TENANT = 4 if FAST else 30  # 16 / 120 concurrent clients
STEPS_PER_CLIENT = 2
BLOB_BYTES = 2048 if FAST else 4096  # two blobs per generation
N_SHARDS = 4
SYNC_LATENCY_SEC = 0.001 if FAST else 0.002  # modelled fsync barrier
DRAIN_BW = 200e6  # modelled slow-tier bandwidth (bytes/s)
FAST_BW = 2e9  # nominal burst-buffer tier bandwidth for the model
BUFFER_CAPACITY = 8 << 20
FLOOR_SPEEDUP = 2.0
P99_CEILING_SEC = 2.0
DRAIN_LAG_CEILING_SEC = 2.0
#: Telemetry may cost at most 5 % of ingest throughput (on/off ratio).
TELEMETRY_FLOOR_RATIO = 0.95
SLO_LATENCY_P99 = 1.0  # seconds; the healthy arm's latency objective
SLO_OBJECTIVE = 0.995


def _payload(tenant: str, client: int, step: int) -> dict[str, bytes]:
    seed = f"{tenant}/{client}/{step}".encode()
    blob = (seed * (BLOB_BYTES // len(seed) + 1))[:BLOB_BYTES]
    return {"u": blob, "v": blob[::-1]}


def _build_service(
    root: str, *, max_batch: int, slo: SLOTracker | None = None
) -> CheckpointIngestService:
    shards = {
        f"shard-{i:02d}": LatencyStore(
            DirectoryStore(os.path.join(root, f"shard-{i:02d}"), durability="batch"),
            sync_latency_sec=SYNC_LATENCY_SEC,
            bandwidth_bytes_per_sec=DRAIN_BW,
        )
        for i in range(N_SHARDS)
    }
    store = ShardedStore(
        shards, placement=DirectoryStore(os.path.join(root, "_placement"))
    )
    registry = TenantRegistry([TenantSpec(t) for t in TENANTS])
    return CheckpointIngestService(
        store,
        registry,
        ServiceConfig(buffer_capacity_bytes=BUFFER_CAPACITY, max_batch=max_batch),
        slo=slo,
    )


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    idx = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[idx]


async def _drive(service: CheckpointIngestService) -> dict[str, object]:
    """Every client submits its steps; returns latencies + elapsed."""
    latencies: list[float] = []

    async def client(tenant: str, cid: int) -> None:
        base = cid * STEPS_PER_CLIENT
        for step in range(base, base + STEPS_PER_CLIENT):
            ack = await service.submit(
                tenant, step, _payload(tenant, cid, step)
            )
            latencies.append(ack.latency_seconds)

    t0 = time.monotonic()
    async with service:
        await asyncio.gather(
            *[
                client(t, c)
                for t in TENANTS
                for c in range(CLIENTS_PER_TENANT)
            ]
        )
    elapsed = time.monotonic() - t0
    return {"latencies": latencies, "elapsed": elapsed}


def _verify_no_loss(service: CheckpointIngestService) -> int:
    """Every acked generation restores bit-identically; returns the count."""
    verified = 0
    for tenant in TENANTS:
        steps = service.committed_steps(tenant)
        expected = {
            c * STEPS_PER_CLIENT + s
            for c in range(CLIENTS_PER_TENANT)
            for s in range(STEPS_PER_CLIENT)
        }
        assert set(steps) == expected, (
            f"{tenant}: lost generations -- {sorted(expected - set(steps))}"
        )
        for step in steps:
            cid = step // STEPS_PER_CLIENT
            assert service.restore_blobs(tenant, step) == _payload(
                tenant, cid, step
            ), f"{tenant}/{step}: restored bytes differ"
            verified += 1
    return verified


def _run_arm(
    root: str, *, max_batch: int, telemetry: bool = True, with_slo: bool = False
) -> dict[str, object]:
    """One full drive of the service; each arm starts from a clean
    registry so per-tenant series and the overhead comparison are
    attributable to that arm alone."""
    registry = get_registry()
    registry.reset()
    if not telemetry:
        registry.disable()
    slo = None
    if with_slo:
        slo = SLOTracker(
            latency_threshold_seconds=SLO_LATENCY_P99,
            objective=SLO_OBJECTIVE,
            histogram=registry.histogram("service.ingest_seconds"),
        )
    try:
        service = _build_service(root, max_batch=max_batch, slo=slo)
        driven = asyncio.run(_drive(service))
    finally:
        registry.enable()
    verified = _verify_no_loss(service)
    latencies = driven["latencies"]
    gens = len(latencies)
    stats = service.stats()
    buffer_stats = stats["buffer"]
    arm: dict[str, object] = {
        "max_batch": max_batch,
        "telemetry": telemetry,
        "clients": len(TENANTS) * CLIENTS_PER_TENANT,
        "tenants": len(TENANTS),
        "generations": gens,
        "verified_restores": verified,
        "elapsed_sec": driven["elapsed"],
        "throughput_gens_per_sec": gens / driven["elapsed"],
        "ingest_p50_sec": _percentile(latencies, 0.50),
        "ingest_p99_sec": _percentile(latencies, 0.99),
        "group_commits": stats["group_commits"],
        "mean_batch": gens / max(1, stats["group_commits"]),
        "drain_lag_max_sec": buffer_stats["drain_lag_seconds_max"],
        "backpressure_waits": buffer_stats["backpressure_waits"],
        "absorb_seconds": buffer_stats["absorb_seconds"],
        "drain_seconds": buffer_stats["drain_seconds"],
        "drained_bytes": buffer_stats["drained_bytes"],
        "through_bytes": buffer_stats["through_bytes"],
        "_latencies": latencies,
    }
    if telemetry:
        # Per-tenant tails from the labeled streaming histograms -- the
        # series svc-metrics exposes, recorded here so CI can diff them.
        per_tenant: dict[str, dict[str, float]] = {}
        for tenant in TENANTS:
            hist = registry.histogram("service.ingest_seconds", tenant=tenant)
            per_tenant[tenant] = {
                "count": hist.count,
                "p50_sec": hist.quantile(0.50),
                "p95_sec": hist.quantile(0.95),
                "p99_sec": hist.quantile(0.99),
            }
        arm["per_tenant"] = per_tenant
    if slo is not None:
        arm["slo"] = slo.status()
    return arm


def _model_check(arm: dict[str, object]) -> dict[str, object]:
    """Compare the measured absorb/drain split with the analytic model."""
    model = BurstBufferModel(
        buffer_tier=StorageModel("burst-buffer", FAST_BW),
        drain_tier=StorageModel("pfs", DRAIN_BW),
        capacity_bytes=BUFFER_CAPACITY,
    )
    gen_bytes = 2 * BLOB_BYTES
    timing = model.checkpoint_timing(gen_bytes)
    gens = arm["generations"]
    predicted_drain = timing.drain_seconds * gens
    measured_drain = arm["drain_seconds"]
    measured_absorb = arm["absorb_seconds"]
    # the drain tier really sleeps nbytes/bandwidth per put, so the
    # measured busy time must be at least the model's floor; scheduling
    # and per-op overheads only add to it
    assert measured_drain >= 0.9 * predicted_drain, (
        f"measured drain {measured_drain:.3f}s undercuts the model floor "
        f"{predicted_drain:.3f}s -- the slow tier is not being modelled"
    )
    # the absorb (blocking) side must be a small fraction of the drain:
    # that gap is exactly what the burst buffer hides from clients
    assert measured_absorb < 0.5 * measured_drain, (
        f"absorb {measured_absorb:.3f}s does not hide the drain "
        f"{measured_drain:.3f}s"
    )
    return {
        "gen_bytes": gen_bytes,
        "predicted_absorb_sec_per_gen": timing.absorb_seconds,
        "predicted_drain_sec_per_gen": timing.drain_seconds,
        "predicted_drain_sec_total": predicted_drain,
        "measured_absorb_sec_total": measured_absorb,
        "measured_drain_sec_total": measured_drain,
        "measured_hidden_fraction": 1.0 - measured_absorb / measured_drain,
    }


def _write_trace(root: str) -> None:
    """Trace one small session and lint the artifact with TraceReport."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    tracer = get_tracer()
    sink = JsonlSink(TRACE_PATH)
    tracer.enable(sink)
    try:
        with tracer.span("service_session", clients=8):
            service = _build_service(root, max_batch=8)

            async def run() -> None:
                async with service:
                    await asyncio.gather(
                        *[
                            service.submit(t, s, _payload(t, 0, s))
                            for t in TENANTS
                            for s in range(2)
                        ]
                    )

            asyncio.run(run())
        sink.emit_metrics(get_registry().snapshot())
    finally:
        tracer.disable()
        sink.close()
    report = TraceReport.from_jsonl(TRACE_PATH)
    names = {s.get("name") for s in report.spans}
    assert "service_session" in names, names
    assert "service.submit" in names, names
    assert "ckpt.group_commit" in names, names
    assert report.metrics, "metrics snapshot missing from the trace"
    assert report.render(), "repro report must render the artifact"


def _write_stitched_trace(root: str) -> dict[str, object]:
    """Client and server in *separate processes*; their merged traces
    must stitch into one tree through the wire-level trace context.

    Runs ``repro serve --once`` and ``repro svc-put --trace`` as real
    subprocesses, concatenates both JSONL traces into
    ``TRACE_service_stitched.jsonl`` and asserts the result has no
    orphaned server roots -- the artifact CI re-lints with
    ``repro report --check-parentage``.
    """
    os.makedirs(RESULTS_DIR, exist_ok=True)
    os.makedirs(root, exist_ok=True)
    sock = os.path.join(root, "svc.sock")
    server_trace = os.path.join(root, "server.jsonl")
    client_trace = os.path.join(root, "client.jsonl")
    blob = os.path.join(root, "u.bin")
    with open(blob, "wb") as fh:
        fh.write(b"stitched-trace-payload" * 256)
    env = dict(os.environ)
    src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    )
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    server = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", os.path.join(root, "store"),
            "--tenant", "alice:10m:100", "--socket", sock,
            "--trace", server_trace, "--once",
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 60.0
        while not os.path.exists(sock):
            assert server.poll() is None, "server exited before listening"
            assert time.monotonic() < deadline, "service socket never appeared"
            time.sleep(0.05)
        subprocess.run(
            [
                sys.executable, "-m", "repro", "svc-put", sock, "alice",
                "--step", "1", "u=" + blob, "--trace", client_trace,
            ],
            env=env,
            check=True,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        assert server.wait(timeout=60.0) == 0, "serve --once exited nonzero"
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
    with open(STITCHED_TRACE_PATH, "w") as out:
        for path in (client_trace, server_trace):
            with open(path) as fh:
                out.write(fh.read())
    report = TraceReport.from_jsonl(STITCHED_TRACE_PATH)
    orphans = report.orphans()
    assert not orphans, f"orphaned spans in stitched trace: {orphans}"
    links = report.cross_process_links()
    assert links > 0, "no cross-process parent links -- propagation broke"
    roots = [s for s in report.spans if s.get("parent_id") is None]
    root_names = sorted({str(s.get("name")) for s in roots})
    # the client's svc-put span is THE root; the server may only add its
    # startup recovery span (which precedes any client connection)
    assert "svc-put" in root_names, root_names
    assert set(root_names) <= {"svc-put", "ckpt.recover"}, (
        f"server spans escaped the client tree: {root_names}"
    )
    return {
        "path": STITCHED_TRACE_PATH,
        "spans": report.span_count(),
        "processes": len(report.processes()),
        "cross_process_links": links,
        "orphans": len(orphans),
        "roots": root_names,
    }


def test_service_load(tmp_path):
    per_gen = _run_arm(str(tmp_path / "per_gen"), max_batch=1)
    grouped = _run_arm(str(tmp_path / "grouped"), max_batch=32, with_slo=True)
    bare = _run_arm(str(tmp_path / "bare"), max_batch=32, telemetry=False)
    grouped_latencies = grouped.pop("_latencies")
    per_gen.pop("_latencies")
    bare.pop("_latencies")
    speedup = (
        grouped["throughput_gens_per_sec"] / per_gen["throughput_gens_per_sec"]
    )
    telemetry_ratio = (
        grouped["throughput_gens_per_sec"] / bare["throughput_gens_per_sec"]
    )
    model = _model_check(grouped)
    _write_trace(str(tmp_path / "traced"))
    stitched = _write_stitched_trace(str(tmp_path / "stitched"))

    # Replay the measured latencies against a microsecond objective: the
    # injected fault must flip the SLO verdict, or the health surface is
    # decorative.
    fault = SLOTracker(latency_threshold_seconds=1e-6, objective=SLO_OBJECTIVE)
    for latency in grouped_latencies:
        fault.record(latency)
    fault_status = fault.status()

    # --- the acceptance floors, asserted here and gated again in CI ---
    assert speedup >= FLOOR_SPEEDUP, (
        f"group commit is only {speedup:.2f}x per-generation sync "
        f"(floor {FLOOR_SPEEDUP}x)"
    )
    assert grouped["ingest_p99_sec"] <= P99_CEILING_SEC
    assert grouped["drain_lag_max_sec"] <= DRAIN_LAG_CEILING_SEC
    assert grouped["mean_batch"] > 1.0, "no batching happened under load"
    assert telemetry_ratio >= TELEMETRY_FLOOR_RATIO, (
        f"telemetry costs {(1 - telemetry_ratio) * 100:.1f}% of throughput "
        f"(floor: <= {(1 - TELEMETRY_FLOOR_RATIO) * 100:.0f}%)"
    )
    assert grouped["slo"]["healthy"], grouped["slo"]
    assert not fault_status["healthy"], (
        "SLO verdict did not flip under an injected latency fault"
    )
    per_tenant = grouped["per_tenant"]
    expected_per_tenant = CLIENTS_PER_TENANT * STEPS_PER_CLIENT
    for tenant, tails in per_tenant.items():
        assert tails["count"] == expected_per_tenant, (tenant, tails)
        assert tails["p50_sec"] <= tails["p99_sec"]

    bench = {
        "floor_speedup": FLOOR_SPEEDUP,
        "p99_ceiling_sec": P99_CEILING_SEC,
        "drain_lag_ceiling_sec": DRAIN_LAG_CEILING_SEC,
        "telemetry_floor_ratio": TELEMETRY_FLOOR_RATIO,
        "sync_latency_sec": SYNC_LATENCY_SEC,
        "drain_bandwidth_bytes_per_sec": DRAIN_BW,
        "shards": N_SHARDS,
        "speedup": speedup,
        "per_generation": per_gen,
        "group_commit": grouped,
        "telemetry_off": bare,
        "telemetry_ratio": telemetry_ratio,
        "slo_fault": fault_status,
        "stitched_trace": stitched,
        "burst_buffer_model": model,
    }
    write_bench_json("service", bench)

    lines = [
        f"clients: {grouped['clients']} across {grouped['tenants']} tenants, "
        f"{grouped['generations']} generations per arm "
        f"({'FAST' if FAST else 'full'} mode)",
        f"slow tier: {N_SHARDS} shards, {SYNC_LATENCY_SEC * 1e3:.0f} ms sync "
        f"barrier, {DRAIN_BW / 1e6:.0f} MB/s",
        "",
        f"{'arm':>16} {'gens/s':>8} {'p50 ms':>8} {'p99 ms':>8} "
        f"{'batches':>8} {'mean':>6}",
    ]
    for arm in (per_gen, grouped):
        label = "per-generation" if arm["max_batch"] == 1 else "group-commit"
        lines.append(
            f"{label:>16} {arm['throughput_gens_per_sec']:>8.1f} "
            f"{arm['ingest_p50_sec'] * 1e3:>8.1f} "
            f"{arm['ingest_p99_sec'] * 1e3:>8.1f} "
            f"{arm['group_commits']:>8d} {arm['mean_batch']:>6.1f}"
        )
    lines += [
        "",
        f"group-commit speedup: {speedup:.2f}x (floor {FLOOR_SPEEDUP}x)",
        f"verified restores: {per_gen['verified_restores']} + "
        f"{grouped['verified_restores']} bit-identical, zero lost/torn",
        f"drain hidden fraction: {model['measured_hidden_fraction']:.1%} "
        f"(absorb {model['measured_absorb_sec_total']:.3f}s vs drain "
        f"{model['measured_drain_sec_total']:.3f}s)",
        f"max drain lag: {grouped['drain_lag_max_sec'] * 1e3:.1f} ms",
        "",
        f"telemetry cost: {(1 - telemetry_ratio) * 100:+.1f}% throughput "
        f"(on/off ratio {telemetry_ratio:.3f}, floor {TELEMETRY_FLOOR_RATIO})",
        f"SLO verdict: {grouped['slo']['state']} "
        f"(objective {SLO_OBJECTIVE}, p99 threshold {SLO_LATENCY_P99}s); "
        f"injected 1us fault -> {fault_status['state']}",
        "per-tenant ingest p99 (ms): "
        + ", ".join(
            f"{t}={per_tenant[t]['p99_sec'] * 1e3:.1f}" for t in sorted(per_tenant)
        ),
        f"stitched trace: {stitched['spans']} spans across "
        f"{stitched['processes']} processes, "
        f"{stitched['cross_process_links']} cross-process link(s), "
        f"{stitched['orphans']} orphans",
    ]
    save_and_print("service_load", "\n".join(lines))
