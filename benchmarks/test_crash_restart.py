"""Crash/restart campaign: commit-protocol crash matrix + MTBF coordinator.

The commit journal's claim is binary: no matter where in the commit
protocol the process dies, the next incarnation restores a committed,
CRC-verified generation -- the newest available -- and never a torn one.
This harness proves it two ways and fails CI on any non-determinism:

* **Crash matrix** -- one full checkpoint is profiled to learn its store
  operation count, then a fresh store is killed at *every* operation index
  x crash mode.  Each recovery must leave only committed generations, and
  the whole matrix must classify identically when replayed.
* **MTBF campaigns** -- a :class:`~repro.ckpt.recovery.RestartCoordinator`
  drives a heat proxy through exponential-MTBF process deaths (the
  paper's failure model) to completion; the final state must be
  bit-identical to an uncrashed run of the same seed, twice in a row.

Artifacts: ``bench_results/BENCH_crash.json`` (machine-readable summary)
and ``bench_results/TRACE_crash.jsonl`` (span trace of one traced
campaign, linted via :class:`~repro.obs.report.TraceReport` and rendered
by ``repro report`` in CI).
"""

from __future__ import annotations

import os

import numpy as np

from repro.apps.base import run_steps
from repro.apps.heat import HeatDiffusionProxy
from repro.ckpt.faults import (
    CRASH_AFTER,
    CRASH_KINDS,
    FaultInjectingStore,
    FaultPlan,
)
from repro.ckpt.manager import CheckpointManager
from repro.ckpt.protocol import ArrayRegistry, registry_from_checkpointable
from repro.ckpt.recovery import (
    GEN_COMMITTED,
    RestartCoordinator,
    recover,
    restore_with_fallback,
    scan_generations,
)
from repro.ckpt.store import CountingStore, MemoryStore
from repro.exceptions import SimulatedCrash
from repro.failure.distributions import ExponentialFailures
from repro.obs import JsonlSink, TraceReport, get_tracer
from repro.obs.metrics import get_registry

from _util import FAST, RESULTS_DIR, save_and_print, write_bench_json

TRACE_PATH = os.path.join(RESULTS_DIR, "TRACE_crash.jsonl")

SHAPE = (8, 8, 4) if FAST else (16, 16, 8)
APP_SEED = 2015
TOTAL_STEPS = 12 if FAST else 30
INTERVAL = 3 if FAST else 5
MTBF_SEEDS = (7, 19) if FAST else (7, 19, 43, 97)
MTBF_OPS = 12.0 if FAST else 25.0


# --------------------------------------------------------------------------
# crash matrix over the commit protocol
# --------------------------------------------------------------------------

def _matrix_registry(tag: int) -> ArrayRegistry:
    rng = np.random.default_rng(500 + tag)
    reg = ArrayRegistry()
    reg.register("field", rng.standard_normal((12, 10)))
    reg.register("counter", np.array([tag], dtype=np.int64))
    return reg


def _matrix_manager(store, tag: int) -> CheckpointManager:
    return CheckpointManager(
        _matrix_registry(tag), store, policy={"field": "lossless"}
    )


def _protocol_ops() -> int:
    store = CountingStore(MemoryStore())
    _matrix_manager(store, 1).checkpoint(1)
    return store.puts + store.gets


def _crash_matrix() -> list[dict[str, object]]:
    """Kill one commit at every (op_index, mode); classify the aftermath."""
    n_ops = _protocol_ops()
    outcomes: list[dict[str, object]] = []
    for op_index in range(n_ops):
        for mode in CRASH_KINDS:
            inner = MemoryStore()
            _matrix_manager(inner, 1).checkpoint(1)
            crashing = FaultInjectingStore(
                inner, FaultPlan(schedule=[(op_index, mode)], seed=op_index)
            )
            crashed = False
            try:
                _matrix_manager(crashing, 2).checkpoint(2)
            except SimulatedCrash:
                crashed = True
            assert crashed, f"op {op_index} {mode}: the crash never fired"

            report = recover(inner)
            committed = report.committed
            assert 1 in committed, (
                f"op {op_index} {mode}: committed generation 1 was lost"
            )
            survivors = scan_generations(inner)
            assert all(g.state == GEN_COMMITTED for g in survivors), (
                f"op {op_index} {mode}: non-committed generation survived "
                f"recovery: {[g.to_dict() for g in survivors]}"
            )
            reader_reg = _matrix_registry(0)
            reader = CheckpointManager(
                reader_reg, inner, policy={"field": "lossless"}
            )
            result = restore_with_fallback(reader)
            newest = committed[-1]
            assert result.step == newest
            reader.verify(newest)  # CRC-verified end to end
            expected = _matrix_registry(newest)
            np.testing.assert_array_equal(
                reader_reg.get("field"), expected.get("field")
            )
            outcomes.append(
                {
                    "op_index": op_index,
                    "mode": mode,
                    "committed": committed,
                    "reaped": report.reaped,
                    "restored": result.step,
                }
            )
    return outcomes


# --------------------------------------------------------------------------
# MTBF-driven restart campaigns
# --------------------------------------------------------------------------

def _reference_final() -> np.ndarray:
    return run_steps(
        HeatDiffusionProxy(SHAPE, APP_SEED), TOTAL_STEPS
    ).temperature


def _mtbf_campaign(seed: int) -> dict[str, object]:
    inner = MemoryStore()
    plan = FaultPlan.from_distribution(
        ExponentialFailures(MTBF_OPS),
        horizon_ops=int(MTBF_OPS * 40),
        kinds=CRASH_KINDS,
        seed=seed,
    )
    crashing = FaultInjectingStore(inner, plan)

    def manager_factory(app):
        return CheckpointManager(
            registry_from_checkpointable(app),
            crashing,
            policy={"temperature": "lossless"},
        )

    coordinator = RestartCoordinator(
        lambda: HeatDiffusionProxy(SHAPE, APP_SEED),
        manager_factory,
        total_steps=TOTAL_STEPS,
        interval=INTERVAL,
        max_restarts=500,
    )
    report = coordinator.run()
    assert coordinator.app is not None
    return {
        "final": coordinator.app.temperature.tobytes(),
        "report": report.to_dict(),
        "restarts": report.restarts,
        "rework": report.rework_steps,
        "torn_reaped": sum(
            len(c.recovered_torn) for c in report.cycles
        ),
    }


def _write_trace(seed: int) -> None:
    """Trace one MTBF campaign and lint the artifact with TraceReport."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    tracer = get_tracer()
    sink = JsonlSink(TRACE_PATH)
    tracer.enable(sink)
    try:
        with tracer.span("crash_campaign", seed=seed):
            _mtbf_campaign(seed)
        sink.emit_metrics(get_registry().snapshot())
    finally:
        tracer.disable()
        sink.close()
    report = TraceReport.from_jsonl(TRACE_PATH)
    names = {s.get("name") for s in report.spans}
    assert "crash_campaign" in names, names
    assert "ckpt.recover" in names, (
        "the traced campaign never ran startup recovery"
    )
    assert "ckpt.commit" in names, names
    assert report.metrics, "metrics snapshot missing from the trace"
    assert report.render(), "repro report must render the artifact"


def test_crash_restart_campaign():
    n_ops = _protocol_ops()

    # --- crash matrix: correctness + determinism ---
    first = _crash_matrix()
    second = _crash_matrix()
    assert first == second, "crash-matrix recovery is not deterministic"
    marker_survivals = [
        o for o in first if o["mode"] == CRASH_AFTER and o["committed"] == [1, 2]
    ]
    # exactly one cell completes the marker put before dying
    assert len(marker_survivals) == 1, marker_survivals
    torn_reaped_matrix = sum(len(o["reaped"]) for o in first)

    # --- MTBF campaigns: completion + bit-identical final state ---
    reference = _reference_final().tobytes()
    campaign_rows = []
    total_restarts = total_rework = 0
    for seed in MTBF_SEEDS:
        a = _mtbf_campaign(seed)
        b = _mtbf_campaign(seed)
        assert a["report"] == b["report"], (
            f"seed {seed}: restart campaign did not replay deterministically"
        )
        assert a["final"] == reference, (
            f"seed {seed}: final state differs from the uncrashed run"
        )
        total_restarts += a["restarts"]
        total_rework += a["rework"]
        campaign_rows.append(
            f"{seed:>6} {a['restarts']:>9} {a['torn_reaped']:>12} "
            f"{a['rework']:>7} {'yes':>10} {'yes':>9}"
        )
    assert total_restarts > 0, (
        "no campaign crashed -- lower MTBF_OPS so the harness bites"
    )

    _write_trace(MTBF_SEEDS[0])

    lines = [
        f"commit protocol: {n_ops} store ops -> crash matrix of "
        f"{n_ops * len(CRASH_KINDS)} cells (x2 determinism replay)",
        f"matrix: every recovery left committed-only stores; "
        f"{torn_reaped_matrix} torn/orphaned generation(s) reaped; "
        f"1 cell committed by completing the marker put",
        "",
        f"MTBF campaigns: heat {SHAPE}, {TOTAL_STEPS} steps, "
        f"interval {INTERVAL}, exponential MTBF {MTBF_OPS} ops",
        f"{'seed':>6} {'restarts':>9} {'torn reaped':>12} {'rework':>7} "
        f"{'identical':>10} {'replayed':>9}",
        *campaign_rows,
        f"total: {total_restarts} restarts, {total_rework} rework steps, "
        f"0 wrong bytes",
        f"trace artifact: {os.path.basename(TRACE_PATH)}",
    ]
    save_and_print("crash_restart", "\n".join(lines))
    write_bench_json(
        "crash",
        {
            "protocol_ops": n_ops,
            "matrix_cells": n_ops * len(CRASH_KINDS),
            "matrix_torn_reaped": torn_reaped_matrix,
            "mtbf_seeds": list(MTBF_SEEDS),
            "mtbf_ops": MTBF_OPS,
            "total_steps": TOTAL_STEPS,
            "interval": INTERVAL,
            "total_restarts": total_restarts,
            "total_rework_steps": total_rework,
            "deterministic": True,
            "final_state_identical": True,
        },
    )
