"""CI gate: enforce the service-layer floors from BENCH_service.json.

Reads the artifact written by ``benchmarks/test_service_load.py`` and
fails (exit 1) when any of the recorded acceptance floors regress:

* ``speedup`` -- group commit vs per-generation sync must clear
  ``floor_speedup`` (the fsync-amortization headline, default 2.0x).
  Like ``telemetry_ratio`` it is the median over ``pairs``, the
  alternating runs of the arms the benchmark records one by one; both
  medians are recomputed here from those records.
  The comparison is over a latency-modelled slow tier whose barrier
  cost is fixed by the benchmark itself, so unlike raw wall-clock
  floors it is meaningful on any runner.
* ``group_commit.ingest_p99_sec`` -- tail ingest latency ceiling.
* ``group_commit.drain_lag_max_sec`` -- the burst buffer must keep its
  drain lag bounded.
* ``group_commit.verified_restores`` -- every acked generation in the
  arm restored bit-identically (zero lost/torn is a hard gate).
* ``telemetry_ratio`` -- ingest throughput with the full metric/SLO
  surface on must stay within ``telemetry_floor_ratio`` (default 0.95)
  of the telemetry-off arm: observability may not tax the service more
  than 5 %.
* ``group_commit.slo`` / ``slo_fault`` -- the SLO tracker must judge
  the healthy arm healthy *and* flip its verdict under the injected
  latency fault (a health surface that cannot go red is decorative).
* ``group_commit.per_tenant`` -- every tenant must have populated
  p50/p95/p99 ingest tails from the labeled histograms.
* ``stitched_trace`` -- the cross-process client+server trace must have
  stitched (>= 1 cross-process link, zero orphaned spans).

Usage::

    python benchmarks/check_service_floor.py [path/to/BENCH_service.json]
"""

from __future__ import annotations

import json
import os
import statistics
import sys

DEFAULT_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "bench_results",
    "BENCH_service.json",
)


def check(path: str) -> int:
    try:
        with open(path) as fh:
            bench = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"service floor: cannot read {path}: {exc}", file=sys.stderr)
        return 1

    grouped = bench.get("group_commit")
    if not isinstance(grouped, dict):
        print(
            "service floor: BENCH_service.json has no group_commit arm -- "
            "regenerate it with benchmarks/test_service_load.py",
            file=sys.stderr,
        )
        return 1

    pairs = bench.get("pairs")
    if not isinstance(pairs, list) or not pairs:
        print(
            "service floor: BENCH_service.json records no arm pairs -- "
            "regenerate it with benchmarks/test_service_load.py",
            file=sys.stderr,
        )
        return 1

    failures: list[str] = []
    speedup = statistics.median(float(p.get("speedup", 0.0)) for p in pairs)
    floor = float(bench.get("floor_speedup", 2.0))
    if speedup < floor:
        failures.append(
            f"group-commit speedup {speedup:.2f}x is below the floor {floor}x"
        )

    p99 = float(grouped.get("ingest_p99_sec", float("inf")))
    p99_ceiling = float(bench.get("p99_ceiling_sec", 2.0))
    if p99 > p99_ceiling:
        failures.append(
            f"ingest p99 {p99:.3f}s exceeds the ceiling {p99_ceiling}s"
        )

    lag = float(grouped.get("drain_lag_max_sec", float("inf")))
    lag_ceiling = float(bench.get("drain_lag_ceiling_sec", 2.0))
    if lag > lag_ceiling:
        failures.append(
            f"drain lag {lag:.3f}s exceeds the ceiling {lag_ceiling}s"
        )

    restored = int(grouped.get("verified_restores", 0))
    gens = int(grouped.get("generations", -1))
    if restored != gens or gens <= 0:
        failures.append(
            f"only {restored}/{gens} generations restored bit-identically"
        )

    ratio = statistics.median(float(p.get("telemetry_ratio", 0.0)) for p in pairs)
    ratio_floor = float(bench.get("telemetry_floor_ratio", 0.95))
    if ratio < ratio_floor:
        failures.append(
            f"telemetry-on throughput is {ratio:.3f}x telemetry-off "
            f"(floor {ratio_floor}x -- observability overhead regressed)"
        )

    slo = grouped.get("slo")
    if not isinstance(slo, dict):
        failures.append("group_commit arm has no SLO verdict")
    elif not slo.get("healthy"):
        failures.append(
            f"healthy arm judged {slo.get('state')!r} by its SLO tracker"
        )
    fault = bench.get("slo_fault")
    if not isinstance(fault, dict):
        failures.append("no injected-fault SLO verdict recorded")
    elif fault.get("healthy"):
        failures.append(
            "SLO verdict stayed healthy under the injected latency fault"
        )

    per_tenant = grouped.get("per_tenant")
    if not isinstance(per_tenant, dict) or not per_tenant:
        failures.append("group_commit arm has no per-tenant ingest tails")
    else:
        for tenant, tails in sorted(per_tenant.items()):
            if not all(
                isinstance(tails.get(k), (int, float))
                for k in ("p50_sec", "p95_sec", "p99_sec")
            ) or int(tails.get("count", 0)) <= 0:
                failures.append(
                    f"tenant {tenant!r} has no populated ingest percentiles"
                )

    stitched = bench.get("stitched_trace")
    if not isinstance(stitched, dict):
        failures.append("no stitched cross-process trace recorded")
    else:
        if int(stitched.get("orphans", 1)) != 0:
            failures.append(
                f"stitched trace has {stitched.get('orphans')} orphaned span(s)"
            )
        if int(stitched.get("cross_process_links", 0)) < 1:
            failures.append(
                "stitched trace has no cross-process parent links"
            )

    mode = "FAST" if bench.get("fast_mode") else "full"
    if failures:
        for line in failures:
            print(f"service floor: FAIL -- {line}", file=sys.stderr)
        return 1
    print(
        f"service floor: OK ({mode} mode, medians of {len(pairs)} pairs) -- "
        f"speedup {speedup:.2f}x "
        f"(floor {floor}x), p99 {p99 * 1e3:.0f} ms, "
        f"drain lag {lag * 1e3:.0f} ms, {restored} restores verified, "
        f"telemetry ratio {ratio:.3f} (floor {ratio_floor}), "
        f"SLO {slo.get('state')}/fault {fault.get('state')}, "
        f"{len(per_tenant)} tenant tails, stitched trace "
        f"{stitched.get('cross_process_links')} link(s)/0 orphans"
    )
    return 0


if __name__ == "__main__":
    sys.exit(check(sys.argv[1] if len(sys.argv) > 1 else DEFAULT_PATH))
