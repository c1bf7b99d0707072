"""One workload in one mode, measured in this process (run.py starts it).

Closed loop: the application rank blocks on its checkpoint, a service
client blocks on its ack.  One caller for the library workloads, two
connections for the service.

A run is a sequence of *rounds* until ``--seconds`` are over: write one
block of generations, then restore that block in seeded-shuffled order.
Writes and reads therefore both sample the whole run, and every timing
metric is taken over the quietest quarter of the rounds (see ``quiet``): on
a shared host interference only ever slows a round down, and how much of a
run it covers changes from run to run, which a median over all operations
follows and the quiet quarter does not.  What is left is the host's speed
itself, which drifts by 10-15 % over minutes and takes every timing with
it; a fixed reference kernel timed between the rounds measures it, and the
end-to-end timings are scaled to the reference speed (see
``ReferenceKernel``).

The application's own seed is fixed: different ClimateProxy seeds differ by
13 % in compressed size and 10 % in compression time, and even a shifted
window of one trajectory moves the restored error by 2.5 %, which would
turn seed-to-seed spread into the noise floor of every metric.  ``--seed``
drives every shuffle and the payload salts; the bytes checkpointed are the
same for every seed.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import random
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")

APP_SEED = 2015
SPINUP_STEPS = 8
SETUP_REPEATS = 3
LOSSLESS_ARRAYS = ("modulator", "step")
TENANTS = ("tenant0", "tenant1")
SALT_BYTES = 16
#: request trees per phase that go into the span file
SPAN_TREES_KEPT = 4
#: ``stored_ratio`` and ``mean_rel_err_pct`` cover the warm-up and the first
#: EXACT_GENERATIONS timed generations (four keyframe cycles) and nothing
#: later: how many generations a time-box admits depends on the machine's
#: mood, and these two must be exact for a given tree, not nearly so.
EXACT_GENERATIONS = 32

WORKLOADS = ("lib_independent", "lib_temporal", "lib_chunked_parallel", "svc_replicated")


class ReferenceKernel:
    """A fixed piece of work -- deflate, two NumPy passes, one join -- timed
    about once a second between rounds: the speed of the host during this
    run.  It touches nothing of the repository, so it moves with the machine
    and never with a change under test."""

    #: quiet-quarter seconds of the kernel on the defining machine; timings
    #: are reported as they would read at this speed
    REFERENCE_S = 0.0203
    EVERY_S = 1.0

    def __init__(self) -> None:
        import zlib

        import numpy as np

        x = np.linspace(0.0, 60.0, 48_000)
        self._field = np.add.outer(np.sin(x[:240]), np.cos(x[:800] * 0.7))  # 1.5 MB
        noise = np.random.default_rng(0).integers(-40, 40, size=(240, 500))
        self._bytes = ((self._field[:, :500] * 1000) + noise).astype(np.int16).tobytes()
        self._deflate = zlib.compress
        self._last = float("-inf")
        self.samples: list[float] = []

    def tick(self) -> None:
        """Between two rounds: run the kernel if it is due."""
        t0 = time.perf_counter()
        if t0 - self._last < self.EVERY_S:
            return
        self._last = t0
        self._deflate(self._bytes, 6)
        y = (self._field * 1.0001 + 0.5).cumsum(axis=0)
        b"".join([y.tobytes(), self._bytes])
        self.samples.append(time.perf_counter() - t0)

    def seconds(self) -> float:
        return quiet(self.samples)


class Tally:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 8:
            self.errors.append(what)


def effective_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def filesystem_type(path: str) -> str:
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as fh:
            for line in fh:
                _dev, mount, kind = line.split()[:3]
                if os.path.abspath(path).startswith(mount) and len(mount) > len(best):
                    best, fstype = mount, kind
    except OSError:
        pass
    return fstype


def git_commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def environment(args: argparse.Namespace, flush_policy: str) -> dict[str, Any]:
    import numpy

    from repro.lossless import lz4_available, zstd_available

    return {
        "cpu_count": os.cpu_count(),
        "effective_cores": effective_cores(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "native_zstandard": bool(zstd_available()),
        "native_lz4": bool(lz4_available()),
        "workdir_filesystem": filesystem_type(args.workdir),
        "flush_policy": flush_policy,
        "malloc_env": {k: v for k, v in os.environ.items() if k.startswith("MALLOC_")},
        "seed": args.seed,
        "git_commit": git_commit(),
    }


def stored_bytes(root: str, last_step: int) -> int:
    """Bytes the stores under ``root`` hold for generations up to
    ``last_step``: every object's size on disk -- manifests, markers,
    replicas and placement records included, nothing taken from manifests."""
    total = 0
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            match = re.search(r"ckpt/(\d+)", path)
            if not name.startswith(".tmp-") and match and int(match.group(1)) <= last_step:
                total += os.path.getsize(path)
    return total


def quiet(per_round: list[float], *, high: bool = False) -> float:
    """Mean over the quietest quarter of the rounds: the lowest values, or
    the highest when ``high`` (throughput)."""
    ordered = sorted(per_round, reverse=high)
    return statistics.fmean(ordered[: -(-len(ordered) // 4)])


def end_to_end(
    *, setup_s, write_rounds, read_rounds, kernel_s, unit_bytes, stored, stored_units,
    rel_err_pct, rss_kb,
) -> tuple[dict[str, float], dict[str, float]]:
    """The end-to-end metrics of BENCHMARK.json (units are fixed there), and
    the wall-clock readings behind the four that are scaled to the reference
    speed.  A round is (seconds of each operation, wall-clock of the round's
    phase); ``kernel_s`` is what the reference kernel took in this run."""

    def p50(rounds):
        return quiet([statistics.median(ops) for ops, _wall in rounds])

    def mb_s(rounds):
        return quiet([unit_bytes * len(ops) / wall / 1e6 for ops, wall in rounds], high=True)

    wall_clock = {
        "write_s_p50": p50(write_rounds),
        "read_s_p50": p50(read_rounds),
        "write_mb_s": mb_s(write_rounds),
        "read_mb_s": mb_s(read_rounds),
        "reference_kernel_s": kernel_s,
    }
    slowdown = kernel_s / ReferenceKernel.REFERENCE_S
    return {
        "setup_s": statistics.median(setup_s),
        "write_s_p50": wall_clock["write_s_p50"] / slowdown,
        "read_s_p50": wall_clock["read_s_p50"] / slowdown,
        "write_mb_s": wall_clock["write_mb_s"] * slowdown,
        "read_mb_s": wall_clock["read_mb_s"] * slowdown,
        "stored_ratio": stored / (unit_bytes * stored_units),
        "mean_rel_err_pct": rel_err_pct,
        "peak_rss_mb": rss_kb / 1024.0,
    }, wall_clock


def sizes(args: argparse.Namespace) -> tuple[int, int]:
    """Trace block length and the last generation the exact metrics cover."""
    from layers import TRACE_BLOCK, WARMUP_GENERATIONS

    block = 2 if args.smoke else TRACE_BLOCK
    return block, WARMUP_GENERATIONS + (2 * block if args.smoke else EXACT_GENERATIONS)


# -- library workloads -----------------------------------------------------------


@dataclass(frozen=True)
class LibrarySpec:
    shape: tuple[int, int, int]
    config: Any
    temporal: Any = None
    manager_kwargs: tuple[tuple[str, Any], ...] = ()


def library_specs() -> dict[str, LibrarySpec]:
    from repro.config import CompressionConfig, TemporalConfig

    proposed = dict(quantizer="proposed", n_bins=128)
    return {
        "lib_independent": LibrarySpec(
            (1156, 82, 2), CompressionConfig(backend="gzip", **proposed)
        ),
        "lib_temporal": LibrarySpec(
            (1156, 82, 2),
            CompressionConfig(quantizer="bounded", error_bound=1e-3),
            TemporalConfig(error_bound=1e-3, keyframe_every=8),
        ),
        # Two pool workers and two deflate threads whatever the box has:
        # with one worker the manager would not take the chunked path at
        # all.  Below two effective cores the rows are marked inconclusive.
        "lib_chunked_parallel": LibrarySpec(
            (2312, 82, 2),
            CompressionConfig(backend="gzip-mt", **proposed),
            manager_kwargs=(("workers", 2), ("chunk_rows", 256), ("backend_threads", 2)),
        ),
    }


def run_library(args: argparse.Namespace) -> dict[str, Any]:
    from repro.apps.climate import ClimateProxy
    from repro.ckpt import CheckpointManager
    from repro.ckpt.protocol import registry_from_checkpointable
    from repro.ckpt.store import DirectoryStore

    from layers import (
        WARMUP_GENERATIONS, install_shims, per_layer_metrics, sample_trees, traced_generation,
    )
    from oracle import Oracle
    from spans import Recorder, write_jsonl

    spec = library_specs()[args.workload]
    block, exact_through = sizes(args)
    rec = Recorder() if args.trace else None
    if rec is not None:
        install_shims(rec)
    tally = Tally()
    kernel = ReferenceKernel()
    oracle = Oracle(SRC, LOSSLESS_ARRAYS)
    manager = None

    def setup(root: str):
        app = ClimateProxy(shape=spec.shape, seed=APP_SEED)
        for _ in range(SPINUP_STEPS):
            app.step()
        store = DirectoryStore(root, durability="always")
        mgr = CheckpointManager(
            registry_from_checkpointable(app),
            store,
            config=spec.config,
            policy={name: "lossless" for name in LOSSLESS_ARRAYS},
            temporal=spec.temporal,
            **dict(spec.manager_kwargs),
        )
        for step in range(1, WARMUP_GENERATIONS + 1):
            app.step()
            mgr.checkpoint(step)
        return app, mgr

    try:
        setup_s = []
        for _ in range(1 if args.smoke else SETUP_REPEATS):
            if manager is not None:
                manager.close()
                shutil.rmtree("store")
            t0 = time.perf_counter()
            app, manager = setup("store")
            setup_s.append(time.perf_counter() - t0)
        unit_bytes = sum(a.nbytes for a in app.state_arrays().values())

        # -- rounds: checkpoint a block of generations, then restore it ---------
        writes: list[float] = []
        reads: list[float] = []
        untraced_writes: list[float] = []
        write_rounds: list[tuple[list[float], float]] = []
        read_rounds: list[tuple[list[float], float]] = []
        written: list[int] = []
        rel_err_sum, lossy_arrays, max_err_over_bound = 0.0, 0, 0.0
        bound = spec.temporal.error_bound if spec.temporal is not None else None
        step = WARMUP_GENERATIONS
        deadline = time.perf_counter() + args.seconds
        while (time.perf_counter() < deadline or step < exact_through) and tally.failed < 16:
            fresh: list[int] = []
            took: list[float] = []
            for _ in range(block):
                step += 1
                app.step()
                oracle.put(step, app.state_arrays())
                traced = rec is not None and traced_generation(step, block)
                tally.attempted += 1
                top = (
                    rec.top("ckpt.manager.checkpoint", f"write/{step}", phase="write")
                    if traced else nullcontext()
                )
                t0 = time.perf_counter()
                try:
                    with top:
                        manager.checkpoint(step)
                except Exception as exc:  # noqa: BLE001 - a failed operation is a result
                    tally.fail(f"checkpoint {step}: {exc!r}")
                    continue
                took.append(time.perf_counter() - t0)
                fresh.append(step)
                if not traced:
                    untraced_writes.append(took[-1])
            if took:
                write_rounds.append((took, sum(took)))
            writes += took
            written += fresh

            # every generation written is restored, in seeded-shuffled order
            # with the newest one last.  A restore loads the application and
            # points the temporal predictor at what it restored; ending on the
            # newest generation and putting the exact state back makes the
            # next round go on as if nothing had been restored, so the bytes
            # checkpointed are the same for every seed.
            frontier = {name: a.copy() for name, a in app.state_arrays().items()}
            order = fresh[:-1]
            random.Random(args.seed * 1000 + len(write_rounds)).shuffle(order)
            took = []
            for restored in order + fresh[-1:]:
                tally.attempted += 1
                top = (
                    rec.top("ckpt.manager.restore", f"read/{restored}", phase="read")
                    if rec is not None else nullcontext()
                )
                t0 = time.perf_counter()
                try:
                    with top:
                        manager.restore(restored)
                except Exception as exc:  # noqa: BLE001
                    tally.fail(f"restore {restored}: {exc!r}")
                    continue
                took.append(time.perf_counter() - t0)
                verdict = oracle.check(restored, app.state_arrays())
                if restored <= exact_through:
                    rel_err_sum += verdict["rel_err_sum"]
                    lossy_arrays += verdict["lossy_arrays"]
                if not verdict["exact"]:
                    tally.fail(f"restore {restored}: a lossless array is not bit-identical")
                if bound is not None:
                    over = verdict["max_abs_err"] / bound
                    max_err_over_bound = max(max_err_over_bound, over)
                    # the engine itself admits drift_slack for float rounding
                    if over > 1.0 + spec.temporal.drift_slack:
                        tally.fail(f"restore {restored}: error {over:.6f} x the bound")
            if took:
                read_rounds.append((took, sum(took)))
            reads += took
            app.load_state_arrays(frontier)
            kernel.tick()

        stored = stored_bytes("store", exact_through)
        listed = set(manager.steps())
        for step in written:
            if step not in listed:
                tally.fail(f"committed step {step} is not listed by steps()")
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    finally:
        oracle.close()
        if manager is not None:
            manager.close()
        shutil.rmtree("store", ignore_errors=True)

    result: dict[str, Any] = {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors,
        "env": environment(args, "DirectoryStore(durability='always'): fsync per object"),
        "samples": {
            "setup": len(setup_s), "write": len(writes), "read": len(reads),
            "rounds": len(write_rounds),
        },
    }
    if args.workload == "lib_chunked_parallel" and effective_cores() < 2:
        result["scaling"] = "inconclusive"
    rel_err_pct = 100.0 * rel_err_sum / max(1, lossy_arrays)
    if rec is None:
        result["metrics"], result["wall_clock"] = end_to_end(
            setup_s=setup_s, write_rounds=write_rounds, read_rounds=read_rounds,
            kernel_s=kernel.seconds(), unit_bytes=unit_bytes, stored=stored,
            stored_units=exact_through, rel_err_pct=rel_err_pct, rss_kb=rss_kb,
        )
    else:
        values, detail = per_layer_metrics(
            rec.spans,
            service=False,
            lossy_arrays=len(app.state_arrays()) - len(LOSSLESS_ARRAYS),
            missing=rec.missing,
            top_durations={"ckpt.manager.checkpoint": writes, "ckpt.manager.restore": reads},
            untraced_write_durations=untraced_writes,
            extra={
                "service.wire.bytes_per_put": 0,
                "service.sharded.degraded_writes": 0,
                "ckpt.temporal.max_err_over_bound": max_err_over_bound,
                "obs.reference_kernel_s": kernel.seconds(),
                "failed_share": tally.failed / max(1, tally.attempted),
            },
        )
        result["metrics"] = values
        result["detail"] = detail
        write_jsonl(args.spans, sample_trees(rec.spans, SPAN_TREES_KEPT), workload=args.workload)
    return result


# -- service workload --------------------------------------------------------------


class Server:
    """The service in a child process: started, awaited, always reaped."""

    def __init__(self, trace: bool) -> None:
        self.proc = subprocess.Popen(
            [
                sys.executable, os.path.join(HERE, "server.py"),
                "--root", "svc", "--socket", "svc.sock", "--trace", str(int(trace)),
                "--stats", "server.json", "--spans", "server.jsonl",
            ],
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.proc.stdout.readline()  # run.py's hard timeout bounds this
        if line.strip() != "ready":
            self.stop()
            raise RuntimeError(f"service process did not come up (said {line!r})")

    def stop(self) -> dict[str, Any]:
        """Graceful stop; returns what the server wrote about itself."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        try:
            with open("server.json", encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, ValueError):
            return {}


def make_payload():
    """The five compressed blobs of one ``lib_independent`` generation, and
    the state they came from."""
    from repro.apps.climate import ClimateProxy
    from repro.core.pipeline import WaveletCompressor

    app = ClimateProxy(shape=(1156, 82, 2), seed=APP_SEED)
    for _ in range(SPINUP_STEPS):
        app.step()
    state = {n: a for n, a in app.state_arrays().items() if n not in LOSSLESS_ARRAYS}
    compressor = WaveletCompressor(library_specs()["lib_independent"].config)
    return {name: compressor.compress(arr) for name, arr in state.items()}, state


def salted(base: dict[str, bytes], seed: int, tenant: int, step: int) -> dict[str, bytes]:
    """Generation ``step`` of ``tenant``: the base blobs plus a salt, so no
    two generations are byte-identical."""
    salt = b"".join(
        n.to_bytes(size, "little") for n, size in ((seed % 2**32, 4), (tenant, 4), (step, 8))
    )
    return {name: blob + salt for name, blob in base.items()}


def run_service(args: argparse.Namespace) -> dict[str, Any]:
    from repro.core.errors import mean_relative_error
    from repro.core.pipeline import WaveletCompressor
    from repro.service import ServiceClient

    from layers import WARMUP_GENERATIONS, per_layer_metrics, sample_trees, traced_generation
    from spans import Recorder, read_jsonl, write_jsonl

    block, exact_through = sizes(args)
    rec = Recorder() if args.trace else None
    tally = Tally()
    kernel = ReferenceKernel()
    base, state = make_payload()
    unit_bytes = sum(len(b) + SALT_BYTES for b in base.values())
    durations: dict[str, list[float]] = {
        "service.client.submit": [], "service.client.restore": [],
        "mixed.submit": [], "mixed.restore": [],
    }
    untraced_writes: list[float] = []
    acked: list[list[int]] = [[] for _ in TENANTS]
    write_rounds: list[tuple[list[float], float]] = []
    read_rounds: list[tuple[list[float], float]] = []
    measured: dict[str, float] = {}  # stored bytes
    wire_bytes = [0]
    last_restored: dict[str, bytes] = {}
    clients: list[Any] = []

    async def connect() -> None:
        for _ in TENANTS:
            clients.append(await ServiceClient("svc.sock").connect())

    async def disconnect() -> None:
        while clients:
            await clients.pop().close()

    async def submit(i: int, step: int, phase: str, key: str) -> None:
        blobs = salted(base, args.seed, i, step)
        traced = rec is not None and traced_generation(step, block)
        tally.attempted += 1
        top = (
            rec.top("service.client.submit", f"{TENANTS[i]}/{step}", phase=phase)
            if traced else nullcontext()
        )
        t0 = time.perf_counter()
        try:
            with top:
                ack = await clients[i].submit(TENANTS[i], step, blobs)
        except Exception as exc:  # noqa: BLE001 - refused, timed out, raised
            tally.fail(f"submit {TENANTS[i]}/{step}: {exc!r}")
            return
        elapsed = time.perf_counter() - t0
        if int(ack.get("step", -1)) != step:
            tally.fail(f"submit {TENANTS[i]}/{step}: ack names step {ack.get('step')}")
            return
        acked[i].append(step)
        durations[key].append(elapsed)
        if phase == "write" and not traced:
            untraced_writes.append(elapsed)

    async def restore(i: int, step: int, phase: str, key: str, serial: int) -> None:
        tally.attempted += 1
        top = (
            rec.top("service.client.restore", f"{TENANTS[i]}/{step}/{phase}{serial}", phase=phase)
            if rec is not None else nullcontext()
        )
        t0 = time.perf_counter()
        try:
            with top:
                blobs = await clients[i].restore(TENANTS[i], step)
        except Exception as exc:  # noqa: BLE001
            tally.fail(f"restore {TENANTS[i]}/{step}: {exc!r}")
            return
        durations[key].append(time.perf_counter() - t0)
        if blobs != salted(base, args.seed, i, step):
            tally.fail(f"restore {TENANTS[i]}/{step}: payload is not bit-identical")
        last_restored.update(blobs)

    async def writer(i: int, deadline: float, phase: str, key: str) -> None:
        step = acked[i][-1]
        while time.perf_counter() < deadline:
            step += 1
            await submit(i, step, phase, key)

    async def reader(i: int, steps: list[int], deadline: float, phase: str, key: str) -> None:
        passes = serial = 0
        while time.perf_counter() < deadline:
            order = list(steps)
            random.Random(args.seed * 1000 + 10 * passes + i).shuffle(order)
            for step in order:
                if time.perf_counter() >= deadline:
                    break
                serial += 1
                await restore(i, step, phase, key, serial)
            passes += 1

    async def submit_block(i: int, steps: range) -> None:
        for step in steps:
            await submit(i, step, "write", "service.client.submit")

    async def restore_block(i: int, steps: list[int]) -> None:
        for step in steps:
            await restore(i, step, "read", "service.client.restore", 0)

    @contextmanager
    def counting_socket_writes():
        write_original = asyncio.StreamWriter.write

        def counting_write(self: Any, data: Any) -> None:
            wire_bytes[0] += len(data)
            write_original(self, data)

        asyncio.StreamWriter.write = counting_write
        try:
            yield
        finally:
            asyncio.StreamWriter.write = write_original

    async def measure() -> None:
        """Rounds until the time is over: both tenants submit a block of
        generations concurrently, then restore it, shuffled, one tenant at
        a time.  Two readers plus the server oversubscribe a 2-core box and
        the median turns into a scheduling lottery (6.0-7.2 ms from run to
        run, against 3.2-3.5 ms for one reader); reads beside other traffic
        are what the mixed phase shows."""
        submits, restores = durations["service.client.submit"], durations["service.client.restore"]
        deadline = time.perf_counter() + args.seconds * (0.75 if rec is not None else 1.0)
        step = WARMUP_GENERATIONS
        while time.perf_counter() < deadline or step < exact_through:
            steps = range(step + 1, step + block + 1)
            step += block
            submitted, restored = len(submits), len(restores)
            acked_before = [len(of_tenant) for of_tenant in acked]
            t0 = time.perf_counter()
            with counting_socket_writes():
                await asyncio.gather(*(submit_block(i, steps) for i in range(len(TENANTS))))
            wall = time.perf_counter() - t0
            if len(submits) > submitted:
                write_rounds.append((submits[submitted:], wall))
            t0 = time.perf_counter()
            for i in range(len(TENANTS)):
                fresh = acked[i][acked_before[i]:]
                random.Random(args.seed * 1000 + 10 * step + i).shuffle(fresh)
                await restore_block(i, fresh)
            wall = time.perf_counter() - t0
            if len(restores) > restored:
                read_rounds.append((restores[restored:], wall))
            kernel.tick()
        for i, tenant in enumerate(TENANTS):
            listed = set(await clients[i].steps(tenant))
            for step in acked[i]:
                if step not in listed:
                    tally.fail(f"acked step {tenant}/{step} is not listed by steps()")
        measured["stored"] = stored_bytes("svc", exact_through)
        if rec is not None:
            # the mixed phase (diagnostic): reads beside writes on the same shards
            deadline = time.perf_counter() + args.seconds / 4
            await asyncio.gather(
                writer(0, deadline, "mixed", "mixed.submit"),
                reader(1, list(acked[1]), deadline, "mixed", "mixed.restore"),
            )

    async def warm_up() -> None:
        await connect()
        for step in range(1, WARMUP_GENERATIONS + 1):
            await asyncio.gather(*(
                clients[i].submit(TENANTS[i], step, salted(base, args.seed, i, step))
                for i in range(len(TENANTS))
            ))

    server = None
    loop = asyncio.new_event_loop()
    try:
        setup_s = []
        for _ in range(1 if args.smoke else SETUP_REPEATS):
            if server is not None:
                loop.run_until_complete(disconnect())
                server.stop()
                shutil.rmtree("svc")
            t0 = time.perf_counter()
            server = Server(bool(args.trace))
            loop.run_until_complete(warm_up())
            setup_s.append(time.perf_counter() - t0)
        loop.run_until_complete(measure())
        loop.run_until_complete(disconnect())
        server_stats = server.stop()
        server = None
        # what a tenant gets back, decoded: the service is bit-exact, so
        # this is the lossy error of the payload it carried
        restored = {n: WaveletCompressor.decompress(b[:-SALT_BYTES]) for n, b in last_restored.items()}
        rel_err_pct = 100.0 * statistics.fmean(
            mean_relative_error(state[n], restored[n]) for n in state
        )
        server_spans = read_jsonl("server.jsonl") if rec is not None else []
    finally:
        if server is not None:
            server.stop()
        loop.run_until_complete(disconnect())
        loop.close()
        shutil.rmtree("svc", ignore_errors=True)

    writes, reads = durations["service.client.submit"], durations["service.client.restore"]
    result: dict[str, Any] = {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors,
        "env": environment(
            args, "DirectoryStore(durability='batch'): fsync at the two barriers of each group commit"
        ),
        "samples": {
            "setup": len(setup_s), "write": len(writes), "read": len(reads),
            "rounds": len(write_rounds), "clients": len(TENANTS),
        },
        "server": server_stats,
    }
    if rec is None:
        result["metrics"], result["wall_clock"] = end_to_end(
            setup_s=setup_s, write_rounds=write_rounds, read_rounds=read_rounds,
            kernel_s=kernel.seconds(), unit_bytes=unit_bytes, stored=measured["stored"],
            stored_units=exact_through * len(TENANTS),
            rel_err_pct=rel_err_pct, rss_kb=server_stats.get("ru_maxrss_kb", 0),
        )
    else:
        spans = stitch(rec.spans, server_spans)
        values, detail = per_layer_metrics(
            spans,
            service=True,
            lossy_arrays=len(base),
            missing=rec.missing + server_stats.get("missing_shims", []),
            top_durations=durations,
            untraced_write_durations=untraced_writes,
            extra={
                "service.wire.bytes_per_put": wire_bytes[0] / max(1, len(writes)),
                "service.sharded.degraded_writes": server_stats.get("degraded_writes"),
                "ckpt.temporal.max_err_over_bound": 0.0,
                "obs.reference_kernel_s": kernel.seconds(),
                "failed_share": tally.failed / max(1, tally.attempted),
            },
        )
        result["metrics"] = values
        result["detail"] = detail
        write_jsonl(args.spans, sample_trees(spans, SPAN_TREES_KEPT), workload=args.workload)
    return result


def stitch(client_spans: list, server_spans: list) -> list:
    """One tree per request: hang each server-side top span under the
    client span of the same tenant/step that contains it in time (both
    processes read the same monotonic clock), and give the server spans
    the client's generation id."""
    candidates: dict[tuple[str, str], list] = {}
    for s in client_spans:
        tenant, step = s.gen.split("/")[:2]
        candidates.setdefault((s.name.rsplit(".", 1)[-1], f"{tenant}/{step}"), []).append(s)
    by_parent: dict[int, list] = {}
    for s in server_spans:
        if s.parent is not None:
            by_parent.setdefault(s.parent, []).append(s)
    for top in [s for s in server_spans if s.parent is None]:
        tenant, step = top.gen.split("/")[:2]
        op = top.name.rsplit(".", 1)[-1]
        for cand in candidates.get((op, f"{tenant}/{step}"), []):
            if cand.start <= top.start and top.end <= cand.end:
                top.parent = cand.sid
                stack = [top]
                while stack:
                    span = stack.pop()
                    span.gen = cand.gen
                    stack.extend(by_parent.get(span.sid, []))
                break
    return client_spans + server_spans


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    args.workdir = os.path.abspath(args.workdir)
    args.result = os.path.abspath(args.result)
    args.spans = os.path.abspath(args.spans)
    sys.path.insert(0, SRC)
    # relative paths from here on: a unix socket path is limited to ~100
    # bytes, a checkout path is not
    os.chdir(args.workdir)
    run = run_service if args.workload == "svc_replicated" else run_library
    result = run(args)
    result.update(
        workload=args.workload, trace=args.trace, seed=args.seed,
        seconds=args.seconds, smoke=args.smoke,
    )
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
