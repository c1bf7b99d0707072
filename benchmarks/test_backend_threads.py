"""Serial vs thread-parallel compression backend throughput.

The paper's Fig. 9 stage breakdown shows the final gzip pass dominating
compression time, and its Section IV-D proposes in-memory zlib as the
remedy.  The ``gzip-mt`` backend goes one step further -- CPython's zlib
releases the GIL, so blocks deflate concurrently on a shared thread
pool.  This benchmark compresses the same formatted body with the plain
``gzip`` codec and with ``gzip-mt`` at several thread counts, reports MB/s
and the compressed-size overhead of the block split, and checks the
pigz-style compatibility
guarantees (stock ``gzip.decompress`` reads the output; bytes do not
depend on the thread count).

Scaling honesty
---------------
A historical defect of this harness was publishing a flat
speedup-vs-threads curve measured on a one-core runner as if it were a
scaling result.  The harness now records **both** ``os.cpu_count()`` and
the *effective* core count (``os.sched_getaffinity`` -- container CPU
limits make the two differ) plus the achieved parallelism of a pooled
pass, and it writes a ``scaling`` section into ``BENCH_backend.json``
whose status is ``"inconclusive"`` (with the machine-readable reason)
whenever fewer than 2 effective cores are available.  Speedup assertions
run only when the scaling status is conclusive and at least 4 effective
cores exist; ``benchmarks/check_backend_floor.py`` applies the same rule
to the published artifact in CI.

Measurements go through a :class:`~repro.obs.metrics.MetricsRegistry`
(the BENCH json is its nested snapshot), and a span trace of one traced
``gzip-mt`` pass -- taken *outside* the timed regions, so tracing cost
never touches the MB/s numbers -- is written to
``bench_results/TRACE_backend.jsonl`` and round-tripped through
:class:`~repro.obs.report.TraceReport` as a schema lint (CI uploads the
file and renders it with ``repro report``).
"""

from __future__ import annotations

import gzip
import os
import threading
import time

import numpy as np

from repro.lossless import get_codec
from repro.obs import JsonlSink, MetricsRegistry, TraceReport, get_tracer

from _util import FAST, RESULTS_DIR, save_and_print, write_bench_json

TARGET_MIB = 8 if FAST else 64
THREAD_COUNTS = (1, 2, 4)
LEVEL = 6
MT_THREADS = 4  # the headline configuration the assertions check
#: CI throughput floor: gzip-mt at MT_THREADS must beat serial gzip by
#: this factor on any machine with >= 4 effective cores (mirrored by
#: benchmarks/check_backend_floor.py, which gates on the JSON artifact).
FLOOR_SPEEDUP = 1.5
#: Timed passes per codec, best kept: the t=4 speedup the floor gates is
#: then not one sample on a shared runner.
REPEATS = 5

TRACE_PATH = os.path.join(RESULTS_DIR, "TRACE_backend.jsonl")


def effective_cpu_count() -> int:
    """Cores this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def _workload() -> bytes:
    """A body with checkpoint-like entropy: smooth doubles, not zeros."""
    n = TARGET_MIB * 1024 * 1024 // 8
    x = np.linspace(0.0, 64.0 * np.pi, n)
    return (np.sin(x) + 300.0 + 1e-4 * x).tobytes()


def _time_compress(codec, body: bytes) -> tuple[float, bytes]:
    """The best wall time of :data:`REPEATS` passes, and the stream (the
    same bytes every pass)."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        blob = codec.compress(body)
        best = min(best, time.perf_counter() - t0)
    return best, blob


def _achieved_parallelism(body: bytes, threads: int) -> float:
    """Measured overlap of a pooled gzip-mt pass: total per-block *CPU*
    time divided by the wall time of the whole pass.  ~1.0 means the
    blocks effectively ran serially (one-core runner or pool fallback);
    values approaching ``threads`` mean the pool saturated its workers.

    Per-block busy time is ``time.thread_time`` (CPU time of the worker
    thread), not wall time -- on an oversubscribed machine the wall time
    of interleaved blocks double-counts the same core and would report
    phantom parallelism.  Runs outside the timed regions -- the per-block
    instrumentation is a lock-guarded accumulator, cheap but not free.
    """
    codec = get_codec("gzip-mt", level=LEVEL, threads=threads)
    inner = codec._map_blocks
    busy = [0.0]
    lock = threading.Lock()

    def timed(fn):
        def timed_block(block):
            t0 = time.thread_time()
            out = fn(block)
            dt = time.thread_time() - t0
            with lock:
                busy[0] += dt
            return out

        return timed_block

    # instance-level override: time every block the pool runs
    codec._map_blocks = lambda fn, blocks: inner(timed(fn), blocks)
    wall0 = time.perf_counter()
    codec.compress(body)
    wall = time.perf_counter() - wall0
    return busy[0] / wall if wall > 0 else 1.0


def _write_trace(body: bytes, registry: MetricsRegistry) -> None:
    """Record a traced gzip-mt pass (per-block spans) plus the benchmark's
    metrics snapshot to TRACE_backend.jsonl, then lint it end to end."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    tracer = get_tracer()
    sink = JsonlSink(TRACE_PATH)
    tracer.enable(sink)
    try:
        with tracer.span("backend", codec="gzip-mt", threads=MT_THREADS):
            get_codec("gzip-mt", level=LEVEL, threads=MT_THREADS).compress(body)
        sink.emit_metrics(registry.snapshot())
    finally:
        tracer.disable()
        sink.close()
    # Round-trip lint: the artifact CI uploads must parse cleanly and
    # carry the per-block backend spans.
    report = TraceReport.from_jsonl(TRACE_PATH)
    breakdown = report.stage_breakdown()
    assert "backend" in breakdown, breakdown
    assert "backend.block" in breakdown, breakdown
    assert report.metrics, "metrics snapshot missing from the trace"


def test_backend_thread_speedup():
    body = _workload()
    mb = len(body) / 1e6
    cores = os.cpu_count() or 1
    eff_cores = effective_cpu_count()
    registry = MetricsRegistry()

    serial_codec = get_codec("gzip", level=LEVEL)
    serial_codec.compress(body[: 1 << 20])  # warm up outside the timed region
    serial_s, serial_blob = _time_compress(serial_codec, body)
    serial_mb_s = mb / serial_s
    registry.gauge("gzip.seconds").set(serial_s)
    registry.gauge("gzip.mb_s").set(serial_mb_s)
    registry.gauge("gzip.bytes").set(len(serial_blob))

    lines = [
        f"body: {mb:.0f} MB smooth float64 bytes, level={LEVEL}, "
        f"cores={cores}, effective_cores={eff_cores}, best of {REPEATS} passes",
        f"gzip           : {serial_s:8.2f} s   {serial_mb_s:8.1f} MB/s   "
        f"{len(serial_blob)} B",
    ]

    reference_blob = None
    mt_mb_s = {}
    for threads in THREAD_COUNTS:
        codec = get_codec("gzip-mt", level=LEVEL, threads=threads)
        codec.compress(body[: 1 << 20])
        mt_s, mt_blob = _time_compress(codec, body)
        mt_mb_s[threads] = mb / mt_s
        lines.append(
            f"gzip-mt t={threads:2d}   : {mt_s:8.2f} s   {mt_mb_s[threads]:8.1f} MB/s   "
            f"{len(mt_blob)} B"
        )
        registry.gauge(f"gzip_mt.{threads}.seconds").set(mt_s)
        registry.gauge(f"gzip_mt.{threads}.mb_s").set(mt_mb_s[threads])
        registry.gauge(f"gzip_mt.{threads}.bytes").set(len(mt_blob))
        registry.gauge(f"gzip_mt.{threads}.speedup_vs_serial").set(
            mt_mb_s[threads] / serial_mb_s
        )
        if reference_blob is None:
            reference_blob = mt_blob
        else:
            assert mt_blob == reference_blob, (
                f"gzip-mt bytes changed between thread counts 1 and {threads}"
            )

    # pigz-style compatibility: stock gzip reads the stitched stream
    assert gzip.decompress(reference_blob) == body
    overhead_pct = 100.0 * (len(reference_blob) - len(serial_blob)) / len(serial_blob)
    registry.gauge("block_split_overhead_pct").set(overhead_pct)
    lines += [
        f"block-split size overhead vs gzip: {overhead_pct:+.2f} %",
        "stock gzip.decompress reads gzip-mt output: yes",
        "bytes identical across thread counts: yes",
    ]

    # Achieved parallelism of the pooled pass, measured -- not inferred
    # from the thread knob.  On a one-core runner this lands near 1.0 no
    # matter what `threads` says, which is exactly the evidence the
    # scaling verdict below is built on.
    parallelism = _achieved_parallelism(body[: 8 << 20], MT_THREADS)
    registry.gauge("achieved_parallelism").set(parallelism)
    lines.append(
        f"achieved parallelism (t={MT_THREADS}, measured): {parallelism:.2f}"
    )

    best = mt_mb_s[MT_THREADS]
    speedup_curve = {
        str(t): round(mt_mb_s[t] / serial_mb_s, 3) for t in THREAD_COUNTS
    }
    if eff_cores < 2:
        scaling = {
            "status": "inconclusive",
            "reason": (
                f"only {eff_cores} effective core(s) available "
                f"(cpu_count={cores}); thread scaling cannot be observed"
            ),
            "speedup_vs_threads": speedup_curve,
        }
        lines.append(
            f"scaling verdict: INCONCLUSIVE -- {scaling['reason']}; the "
            "speedup curve below is recorded for completeness only"
        )
    else:
        scaling = {
            "status": "ok",
            "reason": f"{eff_cores} effective cores",
            "speedup_vs_threads": speedup_curve,
        }
        lines.append(
            f"speedup (t={MT_THREADS} vs gzip): {best / serial_mb_s:.2f} x"
        )
    save_and_print("backend_threads", "\n".join(lines))
    write_bench_json(
        "backend",
        {
            "body_mb": mb,
            "level": LEVEL,
            "cores": cores,
            "effective_cores": eff_cores,
            "floor_speedup": FLOOR_SPEEDUP,
            "scaling": scaling,
        },
        registry=registry,
    )
    # The traced pass runs after every timed region so span recording can
    # never pollute the throughput numbers above.
    _write_trace(body[: 8 << 20], registry)

    # Scaling claims only where scaling is observable: a one-core runner
    # must *never* fail (or pass) the throughput floor -- it publishes an
    # inconclusive verdict instead.
    if scaling["status"] == "ok" and eff_cores >= 4:
        assert best >= FLOOR_SPEEDUP * serial_mb_s, (
            f"gzip-mt with {MT_THREADS} threads reached {best:.1f} MB/s, less "
            f"than {FLOOR_SPEEDUP}x the serial {serial_mb_s:.1f} MB/s on a "
            f"{eff_cores}-effective-core machine"
        )
