"""Compare two ledgers written by run.py: ``compare.py A.json B.json``.

One row per (end-to-end metric, workload): both medians, the ratio B/A with
its base, the bound BENCHMARK.json fixes for the metric, and a verdict:

``ok``          B is no worse than A by more than the bound
``improved``    B is better than A by more than the bound
``regressed``   B is worse than A by more than the bound
``unresolved``  the run-to-run spread of either side (distance between the
                quartiles over the median, needs ``run.py --repeat`` >= 2)
                is wider than the bound: the runs cannot tell

Exits 1 on any ``regressed`` row or any rise in the share of failed
operations, 2 on ledgers that cannot be compared (smoke runs).
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Any

from run import load_contract


def spread(values: list[float]) -> float | None:
    if len(values) < 2:
        return None
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, float | None]:
    """The verdict on B against A, and the wider of the two spreads."""
    base, new = statistics.median(a), statistics.median(b)
    worse = (new - base) / base if better == "lower" else (base - new) / base
    widest = max((s for s in (spread(a), spread(b)) if s is not None), default=None)
    if widest is not None and widest > bound:
        return "unresolved", widest
    if worse > bound:
        return "regressed", widest
    if worse < -bound:
        return "improved", widest
    return "ok", widest


def failed_share(runs: dict[str, Any]) -> float:
    results = [*runs["untraced"], runs["traced"]]
    return sum(r["failed"] for r in results) / max(1, sum(r["attempted"] for r in results))


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    ledgers = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            ledgers.append(json.load(fh))
        if ledgers[-1].get("smoke"):
            print(f"refused: {path} is a smoke run, its numbers mean nothing", file=sys.stderr)
            return 2
    a_doc, b_doc = ledgers
    contract = load_contract()
    status = 0
    print(f"{'workload':<22}{'metric':<18}{'A':>12}{'B':>12}  B/A (base A)"
          f"{'bound':>14}{'spread':>9}  verdict")
    for name in [w["name"] for w in contract["workloads"]]:
        if name not in a_doc["workloads"] or name not in b_doc["workloads"]:
            continue
        a_runs, b_runs = a_doc["workloads"][name], b_doc["workloads"][name]
        for spec in contract["end_to_end"]:
            a = [r["metrics"][spec["name"]] for r in a_runs["untraced"]]
            b = [r["metrics"][spec["name"]] for r in b_runs["untraced"]]
            word, widest = verdict(a, b, spec["better"], spec["bound"])
            base, new = statistics.median(a), statistics.median(b)
            shown = "n/a" if widest is None else f"{100 * widest:.1f}%"
            print(
                f"{name:<22}{spec['name']:<18}{base:>12.5g}{new:>12.5g}  "
                f"{new / base:.3f} of {base:.5g} {spec['unit']:<5}"
                f"{100 * spec['bound']:>7.1f}%{shown:>9}  {word}"
            )
            if word == "regressed":
                status = 1
        fa, fb = failed_share(a_runs), failed_share(b_runs)
        if fb > fa:
            print(f"{name:<22}failed_share rose from {fa:.6f} to {fb:.6f}")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
