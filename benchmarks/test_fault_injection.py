"""Self-healing checkpoint storage under a seeded fault campaign.

The paper's motivation for lossy checkpoint compression is shrinking the
failure-recovery bill (Section II); this harness exercises the repair
half of that story.  For every seed in a fixed matrix it runs a
checkpoint/restore cycle through the full resilience stack --
FaultInjectingStore (deterministic transient/torn/bitflip/missing
faults), ResilientStore (bounded retry + backoff), and parity repair in
the CheckpointManager -- and demands two things:

* every restore is byte-identical to a fault-free restore, and
* repeating a seed replays the exact same fault events and repair
  outcomes (CI fails the job on any non-determinism).

A span trace of one traced campaign plus one ``repair_event`` JSON line
per healed blob is written to ``bench_results/TRACE_faults.jsonl`` and
linted by round-tripping through :class:`~repro.obs.report.TraceReport`
(CI uploads the file and renders it with ``repro report``).
"""

from __future__ import annotations

import os

import numpy as np

from repro.ckpt.faults import (
    FAULT_BITFLIP,
    FAULT_MISSING,
    FAULT_TORN,
    FAULT_TRANSIENT,
    FaultInjectingStore,
    FaultPlan,
)
from repro.ckpt.manager import CheckpointManager
from repro.ckpt.protocol import ArrayRegistry
from repro.ckpt.store import MemoryStore
from repro.config import ResilienceConfig
from repro.obs import JsonlSink, TraceReport, get_tracer
from repro.obs.metrics import get_registry

from _util import FAST, RESULTS_DIR, save_and_print, write_bench_json

SEED_MATRIX = (11, 23, 47) if FAST else (11, 23, 47, 101, 211, 499)
ARRAY_CELLS = 4_096 if FAST else 65_536
TRANSIENT_RATE = 0.10
RETRIES = 6

TRACE_PATH = os.path.join(RESULTS_DIR, "TRACE_faults.jsonl")


def _registry_under_test(seed: int) -> ArrayRegistry:
    rng = np.random.default_rng(seed)
    reg = ArrayRegistry()
    reg.register("field", rng.normal(0.0, 1.0, ARRAY_CELLS))
    reg.register("tracer", rng.random(ARRAY_CELLS // 2, dtype=np.float32))
    reg.register("steps", rng.integers(0, 9, ARRAY_CELLS // 4, dtype=np.int64))
    return reg


def _reference_bytes(seed: int) -> dict[str, bytes]:
    manager = CheckpointManager(
        _registry_under_test(seed),
        MemoryStore(),
        resilience=ResilienceConfig(parity=True),
    )
    manager.checkpoint(1)
    return {k: v.tobytes() for k, v in manager.load_arrays(1).items()}


def _campaign(seed: int) -> dict[str, object]:
    """One full write+restore cycle under injected faults.

    Transient faults fire at a fixed rate (absorbed by retries); one
    deterministic at-rest fault -- torn, bitflip, or dropped write,
    rotating with the seed -- lands on an early put so the parity repair
    path always has work to do.
    """
    position = SEED_MATRIX.index(seed)
    at_rest = (FAULT_TORN, FAULT_BITFLIP, FAULT_MISSING)[position % 3]
    plan = FaultPlan(
        seed=seed,
        rates={FAULT_TRANSIENT: TRANSIENT_RATE},
        schedule=[(position % 3, at_rest)],
    )
    faulty = FaultInjectingStore(MemoryStore(), plan)
    manager = CheckpointManager(
        _registry_under_test(seed),
        faulty,
        resilience=ResilienceConfig(
            retries=RETRIES, retry_base_delay=0.0, parity=True
        ),
    )
    manager.checkpoint(1)
    restored = manager.load_arrays(1)
    return {
        "restored": {k: v.tobytes() for k, v in restored.items()},
        "fault_events": [e.to_dict() for e in faulty.events],
        "repair_events": [e.to_dict() for e in manager.repair_log],
        "at_rest_kind": at_rest,
    }


def _write_trace(seed: int) -> int:
    """Trace one campaign to TRACE_faults.jsonl and lint the artifact."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    tracer = get_tracer()
    sink = JsonlSink(TRACE_PATH)
    tracer.enable(sink)
    try:
        with tracer.span("fault_campaign", seed=seed):
            result = _campaign(seed)
        for event in result["repair_events"]:
            sink.emit({"type": "repair_event", "seed": seed, **event})
        sink.emit_metrics(get_registry().snapshot())
    finally:
        tracer.disable()
        sink.close()
    report = TraceReport.from_jsonl(TRACE_PATH)
    names = {s.get("name") for s in report.spans}
    assert "fault_campaign" in names, names
    assert "ckpt.repair" in names, (
        "the traced campaign healed nothing -- the at-rest fault vanished"
    )
    assert "store.retry" in names, names
    assert report.metrics, "metrics snapshot missing from the trace"
    assert report.render(), "repro report must render the artifact"
    return len(result["repair_events"])


def test_fault_injection_campaign():
    registry = get_registry()
    lines = [
        f"seed matrix: {SEED_MATRIX}  transient rate: {TRANSIENT_RATE}  "
        f"retries: {RETRIES}",
        f"{'seed':>6} {'at-rest':>8} {'faults':>7} {'repairs':>8} "
        f"{'identical':>10} {'replayed':>9}",
    ]
    total_faults = total_repairs = 0
    for seed in SEED_MATRIX:
        first = _campaign(seed)
        second = _campaign(seed)
        assert first["fault_events"] == second["fault_events"], (
            f"seed {seed}: fault schedule did not replay deterministically"
        )
        assert first["repair_events"] == second["repair_events"], (
            f"seed {seed}: repair outcomes did not replay deterministically"
        )
        reference = _reference_bytes(seed)
        assert first["restored"] == reference, (
            f"seed {seed}: restore is not byte-identical to fault-free"
        )
        n_faults = len(first["fault_events"])
        n_repairs = len(first["repair_events"])
        assert n_repairs >= 1, f"seed {seed}: at-rest fault healed nothing"
        total_faults += n_faults
        total_repairs += n_repairs
        lines.append(
            f"{seed:>6} {first['at_rest_kind']:>8} {n_faults:>7} "
            f"{n_repairs:>8} {'yes':>10} {'yes':>9}"
        )
    lines.append(
        f"total: {total_faults} injected faults, {total_repairs} parity "
        f"repairs, 0 wrong bytes"
    )
    traced_repairs = _write_trace(SEED_MATRIX[0])
    lines.append(
        f"trace artifact: {os.path.basename(TRACE_PATH)} "
        f"({traced_repairs} repair_event line(s))"
    )
    save_and_print("fault_injection", "\n".join(lines))
    write_bench_json(
        "faults",
        {
            "seeds": list(SEED_MATRIX),
            "transient_rate": TRANSIENT_RATE,
            "retries": RETRIES,
            "total_faults": total_faults,
            "total_repairs": total_repairs,
            "deterministic": True,
            "retry_attempts": registry.counter("store.retry.attempts").value
            if "store.retry.attempts" in registry
            else 0.0,
        },
    )
