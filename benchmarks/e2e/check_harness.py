"""Self-test of the benchmark harness: ``python benchmarks/e2e/check_harness.py``.

Not collected by the tier-1 tests.  Runs every workload at ``--smoke`` size
and checks what the numbers rest on: every metric BENCHMARK.json declares
is emitted, the span file is structurally sound, per-layer self seconds add
back to the top spans, layers that a workload bypasses record exactly zero
calls, and compare.py refuses the smoke ledger.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from layers import closure, generations  # noqa: E402
from run import ROOT, contract_line, load_contract  # noqa: E402
from spans import Span, lint  # noqa: E402

#: layers a workload never enters must report exactly zero there
BYPASSED = {
    "lib_independent": ("ckpt.temporal.encode_s", "ckpt.temporal.decode_s",
                        "parallel.executor.map_s", "service.ingest.submit_self_s"),
    "lib_temporal": ("parallel.executor.map_s", "core.chunked.enc_self_s",
                     "service.ingest.submit_self_s"),
    "lib_chunked_parallel": ("ckpt.temporal.encode_s", "ckpt.temporal.decode_s",
                             "service.ingest.submit_self_s"),
    "svc_replicated": ("lossless.compress_calls", "lossless.compress_s",
                       "ckpt.temporal.encode_s", "parallel.executor.map_s",
                       "core.wavelet.fwd_s", "ckpt.manager.checkpoint_self_s"),
}


def main() -> int:
    contract = load_contract()
    problems: list[str] = []
    workbase = os.path.join(ROOT, ".bench_work")
    os.makedirs(workbase, exist_ok=True)
    outdir = tempfile.mkdtemp(prefix="check-", dir=workbase)
    try:
        ledger_path = os.path.join(outdir, "BENCH_smoke.json")
        subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--smoke", "--out", ledger_path],
            check=True, stdout=subprocess.DEVNULL,
        )
        with open(ledger_path, encoding="utf-8") as fh:
            ledger = json.load(fh)
        if ledger.get("smoke") is not True:
            problems.append("the smoke ledger is not stamped smoke: true")
        refused = subprocess.run(
            [sys.executable, os.path.join(HERE, "compare.py"), ledger_path, ledger_path],
            capture_output=True,
        )
        if refused.returncode != 2:
            problems.append(f"compare.py accepted a smoke ledger (exit {refused.returncode})")

        spans_by_workload: dict[str, list[Span]] = {}
        with open(os.path.join(outdir, "TRACE_smoke.jsonl"), encoding="utf-8") as fh:
            for line in fh:
                doc = json.loads(line)
                spans_by_workload.setdefault(doc["workload"], []).append(Span.from_dict(doc))

        for workload in [w["name"] for w in contract["workloads"]]:
            runs = ledger["workloads"].get(workload)
            if runs is None:
                problems.append(f"{workload}: missing from the ledger")
                continue
            for result in (*runs["untraced"], runs["traced"]):
                mode = "traced" if result["trace"] else "untraced"
                if result["failed"]:
                    problems.append(f"{workload} {mode}: {result['failed']} failed: {result['errors']}")
                line = contract_line(contract, result)
                if set(line) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append(f"{workload} {mode}: result keys are {sorted(line)}")
                wanted = contract["per_layer" if result["trace"] else "end_to_end"]
                for spec in wanted:
                    got = line["metrics"].get(spec["name"])
                    if not re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]*", spec["name"]):
                        problems.append(f"metric name {spec['name']!r} is malformed")
                    if got is None or not got.get("unit") or not isinstance(
                        got.get("value"), (int, float)
                    ):
                        problems.append(f"{workload} {mode}: {spec['name']} emitted as {got}")
                    elif not result["trace"] and got["value"] <= 0:
                        problems.append(f"{workload}: end-to-end {spec['name']} is {got['value']}")
            traced = runs["traced"]
            for name in BYPASSED[workload]:
                if traced["metrics"].get(name) != 0:
                    problems.append(
                        f"{workload}: {name} should be exactly 0, is {traced['metrics'].get(name)}"
                    )
            if traced["detail"]["missing_shims"]:
                problems.append(f"{workload}: shim targets gone: {traced['detail']['missing_shims']}")

            spans = spans_by_workload.get(workload, [])
            if not spans:
                problems.append(f"{workload}: no spans in the trace file")
                continue
            problems += [f"{workload}: {p}" for p in lint(spans)]
            roots = [s.gen for s in spans if s.parent is None]
            if len(roots) != len(set(roots)):
                problems.append(f"{workload}: two requests share a generation id")
            gens = generations(spans)
            for phase in sorted({g.phase for g in gens}):
                ratio = closure([g for g in gens if g.phase == phase])
                if ratio is None or abs(ratio - 1.0) > 0.01:
                    problems.append(f"{workload}: closure[{phase}] = {ratio}, not within 1 %")
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    for problem in problems:
        print(f"PROBLEM: {problem}")
    print("check_harness: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
