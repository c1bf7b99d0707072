"""The repo's benchmark: every workload, end to end and layer by layer.

Two ways in, one measurement:

``run.py --workload W --seed N --seconds S --trace 0|1``
    One workload in one mode, as BENCHMARK.json's contract runs it.  The
    last line of stdout is one JSON object: ``correct``, ``attempted``,
    ``failed`` and the end-to-end (``--trace 0``) or per-layer
    (``--trace 1``) metrics.

``run.py [--workload W] [--seed N] [--out FILE]``
    The ledger: each workload untraced, then traced, a table on stdout,
    everything as JSON in ``--out`` and the spans in a JSONL next to it.

Either way each workload runs in a fresh child process (workload.py) in
its own session, under a hard timeout; the child, anything it started and
its work directory are gone when this returns, also on failure.  No
speed-up ratio is ever printed here: comparing two ledgers is compare.py's
job.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

#: Peak disk of one run at the shipped ``run_seconds``; grows with --seconds.
PEAK_DISK_GB = {
    "lib_independent": 0.2,
    "lib_temporal": 0.1,
    "lib_chunked_parallel": 0.3,
    "svc_replicated": 4.5,
}
SMOKE_SECONDS = 2.0
#: what a child may take beyond its measuring time: three set-ups, the
#: round in flight when the time is over, teardown
CHILD_GRACE_SECONDS = 90.0
#: glibc adapts its mmap threshold to the blocks a process happens to free
#: first, and a process that keeps megabyte buffers on mmap/munmap is much
#: slower: service restores took 3.3 ms, 4.5 ms or (threshold held at its
#: 128 KiB default) 8 ms depending on that draw alone.  Every process of the
#: benchmark runs with the thresholds a long-lived process converges to.
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": "33554432", "MALLOC_TRIM_THRESHOLD_": "67108864"}


def load_contract() -> dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


class WorkloadFailed(RuntimeError):
    pass


def run_child(
    workload: str, *, seed: int, seconds: float, trace: int, workbase: str,
    smoke: bool = False, keep_spans: str | None = None,
) -> dict[str, Any]:
    """Run one workload in one mode; returns the child's result document."""
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        raise WorkloadFailed(f"no src/repro under {ROOT}: nothing to measure")
    contract = load_contract()
    need = PEAK_DISK_GB[workload] * max(1.0, seconds / contract["run_seconds"]) * 1e9
    os.makedirs(workbase, exist_ok=True)
    free = shutil.disk_usage(workbase).free
    if free < need * 1.2:
        raise WorkloadFailed(
            f"{workload} needs ~{need / 1e9:.1f} GB under {workbase}, "
            f"{free / 1e9:.1f} GB are free"
        )
    workdir = tempfile.mkdtemp(prefix=f"e2e-{workload}-", dir=workbase)
    result_path = os.path.join(workdir, "result.json")
    spans_path = os.path.join(workdir, "spans.jsonl")
    cmd = [
        sys.executable, os.path.join(HERE, "workload.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--workdir", workdir,
        "--result", result_path, "--spans", spans_path,
    ]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(
        cmd, stdout=sys.stderr, start_new_session=True, env={**os.environ, **MALLOC_ENV}
    )
    try:
        try:
            code = proc.wait(timeout=seconds + CHILD_GRACE_SECONDS)
        except subprocess.TimeoutExpired:
            raise WorkloadFailed(
                f"{workload} did not finish within "
                f"{seconds + CHILD_GRACE_SECONDS:.0f} s; killed"
            ) from None
        if code != 0:
            raise WorkloadFailed(f"{workload} exited with code {code}")
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        if keep_spans is not None and os.path.exists(spans_path):
            with open(spans_path, encoding="utf-8") as src, open(
                keep_spans, "a", encoding="utf-8"
            ) as dst:
                shutil.copyfileobj(src, dst)
        return result
    finally:
        # the child's session holds the service process and pool workers
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)


def declared(contract: dict[str, Any], trace: int) -> list[dict[str, Any]]:
    return contract["per_layer" if trace else "end_to_end"]


def contract_line(contract: dict[str, Any], result: dict[str, Any]) -> dict[str, Any]:
    """The one JSON object the contract asks for.  A per-layer metric that
    cannot be measured (its shim target is gone, or too few samples for the
    percentile) is ``null`` in the ledger and 0 here, with a note on
    stderr: the line carries numbers only."""
    metrics = {}
    for spec in declared(contract, result["trace"]):
        value = result["metrics"].get(spec["name"])
        metrics[spec["name"]] = {"value": 0 if value is None else value, "unit": spec["unit"]}
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def print_table(contract: dict[str, Any], name: str, runs: dict[str, Any]) -> None:
    untraced, traced = runs["untraced"][-1], runs["traced"]
    flag = f"  [scaling: {untraced['scaling']}]" if "scaling" in untraced else ""
    print(f"\n== {name}{flag}")
    print(
        f"   failed {untraced['failed']}/{untraced['attempted']} untraced, "
        f"{traced['failed']}/{traced['attempted']} traced"
    )
    samples = untraced["samples"]
    count_of = {"setup_s": "setup", "write_s_p50": "write", "read_s_p50": "read",
                "write_mb_s": "write", "read_mb_s": "read"}
    for spec in contract["end_to_end"]:
        n = samples.get(count_of.get(spec["name"], ""))
        wall = untraced["wall_clock"].get(spec["name"])
        print(
            f"   {spec['name']:<42}{untraced['metrics'][spec['name']]:>14.6g} "
            f"{spec['unit']:<6}" + (f" n={n}" if n is not None else "")
            + (f"  (wall-clock {wall:.6g})" if wall is not None else "")
        )
    print(
        f"   rounds: {samples['rounds']}; reference kernel "
        f"{untraced['wall_clock']['reference_kernel_s']:.6g} s in this run"
    )
    generations = traced["detail"]["traced_generations"]
    print(f"   -- per layer ({traced['detail']['statistic']} per generation; "
          f"traced generations: {generations})")
    for spec in contract["per_layer"]:
        value = traced["metrics"].get(spec["name"])
        shown = "null" if value is None else f"{value:.6g}"
        print(f"   {spec['name']:<42}{shown:>14} {spec['unit']}")
    for phase, ratio in traced["detail"]["closure"].items():
        if ratio is not None:
            print(f"   closure[{phase}] = {ratio:.4f} (self seconds / top-span seconds)")
    for problem in traced["detail"]["lint"]:
        print(f"   LINT: {problem}")
    for result in (untraced, traced):
        for error in result["errors"]:
            print(f"   FAILED: {error}")


def main(argv: list[str] | None = None) -> int:
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, help="default: all of them")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"measuring time per run (default {contract['run_seconds']})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="contract mode: run one workload in this mode only")
    parser.add_argument("--out", default=None, help="ledger JSON (spans go next to it)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="untraced runs per workload (seeds seed, seed+1, ...)")
    parser.add_argument("--workdir", default=os.path.join(ROOT, ".bench_work"),
                        help="parent of the per-run temporary directories")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes for check_harness.py; not comparable")
    args = parser.parse_args(argv)
    seconds = args.seconds if args.seconds is not None else (
        SMOKE_SECONDS if args.smoke else float(contract["run_seconds"])
    )
    common = dict(seconds=seconds, workbase=args.workdir, smoke=args.smoke)

    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        result = run_child(args.workload, seed=args.seed, trace=args.trace, **common)
        for error in result["errors"]:
            print(f"FAILED: {error}", file=sys.stderr)
        for spec in declared(contract, args.trace):
            if result["metrics"].get(spec["name"]) is None:
                print(f"note: {spec['name']} is not measurable in this run", file=sys.stderr)
        print(json.dumps(contract_line(contract, result)))
        return 0

    selected = [args.workload] if args.workload else names
    print("peak disk per run: " + ", ".join(
        f"{w} ~{PEAK_DISK_GB[w] * max(1.0, seconds / contract['run_seconds']):.1f} GB"
        for w in selected
    ))
    spans_out = None
    if args.out:
        spans_out = os.path.join(
            os.path.dirname(os.path.abspath(args.out)),
            os.path.basename(args.out).replace("BENCH", "TRACE").rsplit(".", 1)[0] + ".jsonl",
        )
        open(spans_out, "w").close()
    ledger: dict[str, Any] = {
        "smoke": args.smoke, "seed": args.seed, "seconds": seconds, "workloads": {},
    }
    failed = 0
    for name in selected:
        runs = {
            "untraced": [
                run_child(name, seed=args.seed + k, trace=0, **common)
                for k in range(args.repeat)
            ],
            "traced": run_child(name, seed=args.seed, trace=1, keep_spans=spans_out, **common),
        }
        ledger["workloads"][name] = runs
        print_table(contract, name, runs)
        failed += sum(r["failed"] for r in (*runs["untraced"], runs["traced"]))
    if ledger["workloads"]:
        ledger["env"] = next(iter(ledger["workloads"].values()))["traced"]["env"]
        print("\nenvironment: " + json.dumps(ledger["env"], sort_keys=True))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(ledger, fh, indent=1, sort_keys=True)
        print(f"ledger: {args.out}\nspans:  {spans_out}")
    return 1 if failed else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except WorkloadFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
