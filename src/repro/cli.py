"""Command-line interface: ``python -m repro`` / ``repro-ckpt``.

Subcommands
-----------
compress
    Compress a ``.npy`` array into a ``.rpz`` blob.  ``--workers N``
    compresses leading-axis slabs in ``N`` worker processes (chunked
    stream format, byte-identical to the serial stream);
    ``--backend gzip-mt --backend-threads T`` (likewise ``zlib-mt``)
    additionally compresses each body block-parallel on ``T`` threads
    of a shared pool (composes with ``--workers``).
decompress
    Decode a ``.rpz`` blob back into a ``.npy`` array (single pipeline
    blobs and chunked streams are auto-detected).
inspect
    Print the self-describing header of a blob; chunked streams report
    chunk-level metadata.
evaluate
    Compress + decompress in memory and report rate and errors
    (paper Eqs. 5-6) without writing anything.
tune
    Find the smallest division number meeting an error tolerance.
checkpoint
    Write one array as a complete checkpoint into a directory store.
    ``--parity`` adds an XOR-parity blob per array group so any single
    corrupt-or-missing blob is reconstructible; ``--retries N`` rides
    over transient I/O errors with bounded exponential backoff;
    ``--temporal`` stores lossy generations as delta chains predicted
    from the previous generation (keyframes every ``K`` generations).
verify
    CRC-verify every checkpoint in a checkpoint directory.  With
    ``--repair``, reconstruct any single corrupt-or-missing blob per
    parity group, rewrite the healed bytes, and exit 0 once the store
    verifies clean (a blob healed but not written back still fails).
    Torn and orphaned generations (crash debris the commit journal never
    published) are reported but do not fail the run.
restore
    Restore the newest committed checkpoint (or ``--step``) from a
    directory store into a ``.npz`` file, walking the fallback ladder of
    older committed generations when the newest cannot be restored even
    after retry/parity repair.  Prints a one-line diagnosis: generation
    used, generations skipped, repairs applied.
restart
    Run a proxy application to completion with periodic checkpoint
    commits, restarting from the newest committed generation after every
    injected crash (``--crash-mtbf-ops`` schedules process deaths from an
    exponential MTBF over store operations).  Demonstrates the crash/
    restart loop end to end: torn generations are reaped at each startup,
    rework is bounded by the checkpoint interval.
quality
    Rate-distortion sweep of independent vs temporal compression over
    the proxy apps at a ladder of error bounds, scoring each arm on the
    Z-checker quality axes (PSNR, max pointwise error, spectral and
    autocorrelation distortion).  ``--out`` writes the JSON document
    that CI regression-gates.
report
    Render the profiling report of ``--trace`` JSONL file(s): the Fig. 9
    stage breakdown, recorded metrics and (optionally) the span tree.
    Several files merge -- pass a client-side and a server-side trace to
    see one stitched cross-process span tree (``--check-parentage``
    fails on orphaned spans).
serve
    Run the multi-tenant checkpoint ingest service on a unix socket:
    sharded stores, per-tenant namespaces and quotas, burst-buffer
    absorb/drain and batched group commits (see DESIGN.md section 11).
svc-put
    Submit files as one checkpoint generation to a running service.
svc-get
    Fetch a committed generation's blobs back from a running service.
svc-stats
    Print a JSON stats/health snapshot of a running service
    (``--health`` exits 2 while the SLO error budget is burning).
svc-metrics
    Print a running service's metric registry in Prometheus text format.
svc-drain
    Migrate every generation off one shard (crash-safe, unit by unit) so
    it can be removed; ``--remove`` retires the emptied shard from the
    ring in the same call.
svc-rebalance
    Converge recorded placements onto the current hash ring after a
    shard was added, moving only the units whose replica set changed.
svc-repair
    Re-replicate generations that accepted a degraded write while a
    replica shard was down (repays the replication-debt ledger).

``compress``, ``decompress`` and ``checkpoint`` accept ``--trace PATH``
to stream a span/metrics trace of the run to a JSONL file, readable with
``repro report`` (or any JSONL tool).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys
from typing import Any, Awaitable, Callable, Iterator, Sequence

import numpy as np

from . import __version__
from .config import (
    CompressionConfig,
    ResilienceConfig,
    ServiceConfig,
    TemporalConfig,
    parse_size,
)
from .core.chunked import chunked_compress_with_stats
from .core.errors import error_report
from .core.pipeline import WaveletCompressor, inspect as inspect_blob
from .core.tuning import tune_for_tolerance
from .exceptions import ReproError, ServiceUnavailableError

__all__ = ["main", "build_parser", "add_flags", "from_flags"]


def _add_trace_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="record a span/metrics trace of this run to a JSONL file "
             "(render it with 'repro report PATH')",
    )


@contextlib.contextmanager
def _tracing(args: argparse.Namespace) -> Iterator[Any]:
    """Enable tracing for the span of one command when ``--trace`` is set,
    yielding the trace sink (``None`` without ``--trace``).

    The global metrics registry is snapshotted into the trace file on the
    way out, so ``repro report`` sees both spans and counters.
    """
    trace_path = getattr(args, "trace", None)
    if not trace_path:
        yield None
        return
    from .obs import JsonlSink, get_registry, get_tracer

    tracer = get_tracer()
    sink = JsonlSink(trace_path)
    tracer.enable(sink)
    try:
        yield sink
    finally:
        tracer.disable()
        snapshot = get_registry().snapshot()
        if snapshot:
            sink.emit_metrics(snapshot)
        sink.close()
        print(f"trace written: {trace_path}", file=sys.stderr)


def _flags(config_cls: type, prefix: str) -> Iterator[tuple[dataclasses.Field, str]]:
    """Each field of ``config_cls`` that declares a CLI option, with its
    ``--flag`` (``prefix`` tells two configs on one subcommand apart)."""
    for f in dataclasses.fields(config_cls):
        if "help" in f.metadata:
            name = f.metadata.get("flag", f.name.replace("_", "-"))
            yield f, f"--{prefix}{name}"


def add_flags(
    parser: argparse.ArgumentParser,
    config_cls: type,
    names: Sequence[str] | None = None,
    *,
    prefix: str = "",
) -> None:
    """Add the options of ``config_cls``'s knobs (only the fields in
    ``names`` when given) to ``parser``.  Type, choices, default, metavar
    and help all come from the field declaration (:func:`repro.config.knob`);
    a bool knob becomes a ``store_true`` switch."""
    for f, flag in _flags(config_cls, prefix):
        if names is not None and f.name not in names:
            continue
        meta, kind = f.metadata, f.metadata.get("kind")
        if kind is bool:
            parser.add_argument(flag, action="store_true", help=meta["help"])
            continue
        default = meta.get("text", f.default)
        shown = "" if default is None else f" [default: {default}]"
        parser.add_argument(
            flag,
            # a knob whose parser reads strings takes the raw text
            type=kind if kind in (int, float) and "text" not in meta else None,
            choices=meta.get("choices"),
            default=None if meta["sparse"] else default,
            metavar=meta.get("metavar"),
            help=meta["help"] + shown,
        )


def from_flags(config_cls: type, args: argparse.Namespace, *, prefix: str = "") -> Any:
    """Build a ``config_cls`` from what :func:`add_flags` parsed.  A flag
    the subcommand does not have, or one left unset, leaves its field at
    the field's default; a field's ``parse`` maps the flag value first."""
    values = {}
    for f, flag in _flags(config_cls, prefix):
        value = getattr(args, flag[2:].replace("-", "_"), None)
        if value is not None:
            parse = f.metadata.get("parse")
            values[f.name] = parse(value) if parse else value
    return config_cls(**values)


def _config_from_args(args: argparse.Namespace) -> CompressionConfig:
    return from_flags(CompressionConfig, args)


def _add_temporal_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--temporal", action="store_true",
        help="encode lossy float arrays as temporal deltas against the "
             "previous committed generation (periodic keyframes bound the "
             "restore chain; restores replay the chain transparently)",
    )
    add_flags(parser, TemporalConfig, prefix="temporal-")


def _temporal_from_flags(args: argparse.Namespace) -> TemporalConfig | None:
    if not args.temporal:
        return None
    return from_flags(TemporalConfig, args, prefix="temporal-")


def _add_worker_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="compress leading-axis slabs in N worker processes (chunked "
             "stream format; 1 = single-blob pipeline) [default: %(default)s]",
    )
    parser.add_argument(
        "--chunk-rows", type=int, default=256, metavar="R",
        help="slab height for --workers > 1 [default: %(default)s]",
    )


def _add_restore_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--repair", action="store_true",
        help="force parity repair of corrupt-or-missing blobs during a "
             "restore (default: repair exactly when the manifest has parity)",
    )
    parser.add_argument(
        "--fallback", type=int, default=None, metavar="N",
        help="a restore tries at most N older committed generations when "
             "the newest fails [default: all older generations]",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-ckpt",
        description=(
            "Wavelet-based lossy compression for application-level "
            "checkpoint/restart (Sasaki et al., IPDPS 2015)."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compress", help="compress a .npy array into a .rpz blob")
    p.add_argument("input", help="input .npy file (float32/float64 array)")
    p.add_argument("output", help="output .rpz file")
    add_flags(p, CompressionConfig)
    _add_worker_flags(p)
    _add_trace_arg(p)

    p = sub.add_parser("decompress", help="decode a .rpz blob into a .npy array")
    p.add_argument("input", help="input .rpz file")
    p.add_argument("output", help="output .npy file")
    _add_trace_arg(p)

    p = sub.add_parser("inspect", help="print the header of a .rpz blob")
    p.add_argument("input", help="input .rpz file")

    p = sub.add_parser(
        "evaluate", help="report compression rate and errors for an array"
    )
    p.add_argument("input", help="input .npy file")
    add_flags(p, CompressionConfig)

    p = sub.add_parser(
        "tune", help="find the smallest n meeting an error tolerance"
    )
    p.add_argument("input", help="input .npy file")
    p.add_argument(
        "--tolerance", type=float, required=True,
        help="relative-error tolerance as a fraction (0.01 = 1%%)",
    )
    p.add_argument(
        "--metric", choices=("mean", "max"), default="mean",
        help="which relative error the tolerance bounds [default: mean]",
    )

    p = sub.add_parser(
        "checkpoint", help="write a .npy array as a checkpoint into a directory"
    )
    p.add_argument("input", help="input .npy file")
    p.add_argument("directory", help="checkpoint directory (DirectoryStore root)")
    p.add_argument(
        "--step", type=int, required=True, metavar="S",
        help="logical step number of the checkpoint",
    )
    p.add_argument(
        "--name", default="array", metavar="NAME",
        help="registry name the array is stored under [default: array]",
    )
    add_flags(p, CompressionConfig)
    _add_worker_flags(p)
    _add_temporal_flags(p)
    add_flags(p, ResilienceConfig)
    _add_trace_arg(p)

    p = sub.add_parser(
        "verify", help="CRC-verify every checkpoint in a directory store"
    )
    p.add_argument("directory", help="checkpoint directory (DirectoryStore root)")
    p.add_argument(
        "--repair", action="store_true",
        help="parity-reconstruct any single corrupt-or-missing blob per "
             "group, rewrite the healed bytes, and report the store clean",
    )
    add_flags(p, ResilienceConfig, ("retries", "retry_base_delay"))

    p = sub.add_parser(
        "restore",
        help="restore the newest committed checkpoint into a .npz file",
    )
    p.add_argument("directory", help="checkpoint directory (DirectoryStore root)")
    p.add_argument("output", help="output .npz file for the restored arrays")
    p.add_argument(
        "--step", type=int, default=None, metavar="S",
        help="restore this step instead of the newest committed generation",
    )
    _add_restore_flags(p)
    add_flags(p, ResilienceConfig, ("retries", "retry_base_delay"))
    _add_trace_arg(p)

    p = sub.add_parser(
        "restart",
        help="run a proxy app across injected crashes with checkpoint/restart",
    )
    p.add_argument("directory", help="checkpoint directory (DirectoryStore root)")
    p.add_argument(
        "--app", choices=("heat", "advection"), default="heat",
        help="proxy application to run [default: heat]",
    )
    p.add_argument(
        "--steps", type=int, required=True, metavar="N",
        help="total simulation steps to complete",
    )
    p.add_argument(
        "--interval", type=int, required=True, metavar="K",
        help="commit a checkpoint every K steps",
    )
    p.add_argument(
        "--seed", type=int, default=0, metavar="S",
        help="seed of the app's initial state [default: 0]",
    )
    p.add_argument(
        "--shape", default="16,16,8", metavar="X,Y,Z",
        help="3D grid shape of the proxy app [default: 16,16,8]",
    )
    p.add_argument(
        "--crash-mtbf-ops", type=float, default=None, metavar="M",
        help="mean store operations between injected process deaths "
             "(exponential MTBF); omit to run without crash injection",
    )
    p.add_argument(
        "--crash-horizon-ops", type=int, default=None, metavar="H",
        help="operation horizon the crash schedule is drawn over "
             "[default: 20 x MTBF]",
    )
    p.add_argument(
        "--crash-seed", type=int, default=0, metavar="S",
        help="seed of the crash schedule [default: 0]",
    )
    p.add_argument(
        "--max-restarts", type=int, default=100, metavar="R",
        help="give up after R crash/restart cycles [default: 100]",
    )
    _add_restore_flags(p)
    add_flags(p, CompressionConfig)
    _add_temporal_flags(p)
    add_flags(p, ResilienceConfig)
    _add_trace_arg(p)

    p = sub.add_parser(
        "quality",
        help="rate-distortion sweep: Z-checker quality metrics for "
             "independent vs temporal compression over the proxy apps",
    )
    p.add_argument(
        "--bounds", default="1e-2,1e-3,1e-4", metavar="E1,E2,...",
        help="comma-separated absolute error bounds to sweep "
             "[default: 1e-2,1e-3,1e-4]",
    )
    p.add_argument(
        "--apps", default=None, metavar="A,B,...",
        help="subset of apps to sweep (heat, advection, nbody, "
             "shallow_water, climate) [default: all five]",
    )
    p.add_argument(
        "--generations", type=int, default=8, metavar="G",
        help="checkpoint generations per app [default: 8]",
    )
    p.add_argument(
        "--steps-per-generation", type=int, default=2, metavar="S",
        help="simulation steps between checkpoints [default: 2]",
    )
    p.add_argument(
        "--scale", type=int, default=1, metavar="X",
        help="multiply the apps' leading dimension [default: 1]",
    )
    add_flags(p, TemporalConfig, ("predictor", "keyframe_every"))
    p.add_argument(
        "--out", default=None, metavar="PATH",
        help="also write the full sweep as JSON (BENCH_quality.json shape)",
    )

    p = sub.add_parser(
        "report", help="render the profiling report of --trace JSONL file(s)"
    )
    p.add_argument(
        "trace_file", nargs="+",
        help="JSONL trace(s) written by --trace; several files (e.g. a "
             "client-side and a server-side trace) merge into one report",
    )
    p.add_argument(
        "--tree", action="store_true",
        help="also print the indented span tree",
    )
    p.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the report as JSON instead of text",
    )
    p.add_argument(
        "--check-parentage", action="store_true",
        help="fail (exit 1) if any span references a parent the trace "
             "does not contain (broken cross-process stitching)",
    )

    p = sub.add_parser(
        "serve",
        help="run the multi-tenant checkpoint ingest service on a unix socket",
    )
    p.add_argument("directory", help="service root (shards live under it)")
    p.add_argument(
        "--socket", default=None, metavar="PATH",
        help="unix socket path [default: <directory>/service.sock]",
    )
    p.add_argument(
        "--tenant", action="append", required=True, metavar="NAME[:BYTES[:RATE]]",
        help="register a tenant, optionally with a byte quota (suffixes "
             "k/m/g) and a sustained submits-per-second rate quota; repeat "
             "per tenant (e.g. --tenant alice:512m:20 --tenant bob)",
    )
    p.add_argument(
        "--once", action="store_true",
        help="exit after the first client disconnects (tests/smoke runs)",
    )
    add_flags(p, ServiceConfig)
    _add_trace_arg(p)

    p = sub.add_parser(
        "svc-put", help="submit files as one checkpoint generation to a service"
    )
    p.add_argument("socket", help="unix socket of a running 'serve'")
    p.add_argument("tenant", help="tenant name the generation belongs to")
    p.add_argument(
        "--step", type=int, required=True, metavar="S",
        help="generation number to commit",
    )
    p.add_argument(
        "blobs", nargs="+", metavar="NAME=PATH",
        help="blobs of the generation, as name=file pairs",
    )
    _add_trace_arg(p)

    p = sub.add_parser(
        "svc-get", help="fetch a committed generation's blobs from a service"
    )
    p.add_argument("socket", help="unix socket of a running 'serve'")
    p.add_argument("tenant", help="tenant name to read from")
    p.add_argument("outdir", help="directory the blobs are written into")
    p.add_argument(
        "--step", type=int, default=None, metavar="S",
        help="generation to fetch [default: newest committed]",
    )
    _add_trace_arg(p)

    p = sub.add_parser(
        "svc-stats", help="print a JSON stats/health snapshot of a service"
    )
    p.add_argument("socket", help="unix socket of a running 'serve'")
    p.add_argument(
        "--health", action="store_true",
        help="exit 2 when the service's SLO error budget is burning",
    )

    p = sub.add_parser(
        "svc-metrics",
        help="print a service's metrics in Prometheus text format",
    )
    p.add_argument("socket", help="unix socket of a running 'serve'")

    p = sub.add_parser(
        "svc-drain",
        help="migrate every generation off one shard so it can be removed",
    )
    p.add_argument("socket", help="unix socket of a running 'serve'")
    p.add_argument("shard", help="shard id to drain (e.g. shard-02)")
    p.add_argument(
        "--remove", action="store_true",
        help="also remove the shard from the ring once it drains empty",
    )

    p = sub.add_parser(
        "svc-rebalance",
        help="converge placements onto the current hash ring (after a "
             "shard was added)",
    )
    p.add_argument("socket", help="unix socket of a running 'serve'")

    p = sub.add_parser(
        "svc-repair",
        help="re-replicate generations written degraded while a replica "
             "shard was down",
    )
    p.add_argument("socket", help="unix socket of a running 'serve'")
    return parser


def _load_array(path: str) -> np.ndarray:
    try:
        return np.load(path, allow_pickle=False)
    except (OSError, ValueError) as exc:
        raise ReproError(f"cannot load array from {path!r}: {exc}") from exc


def _cmd_compress(args: argparse.Namespace) -> int:
    arr = _load_array(args.input)
    config = _config_from_args(args)
    with _tracing(args):
        if args.workers != 1:  # the chunked path checks the count
            blob, stats = chunked_compress_with_stats(
                arr, config, chunk_rows=args.chunk_rows, workers=args.workers
            )
        else:
            blob, stats = WaveletCompressor(config).compress_with_stats(arr)
    with open(args.output, "wb") as fh:
        fh.write(blob)
    print(
        f"{args.input}: {stats.original_bytes} -> {stats.compressed_bytes} bytes "
        f"(rate {stats.compression_rate_percent:.2f}%, "
        f"{stats.total_compression_seconds * 1e3:.1f} ms)"
    )
    return 0


def _cmd_decompress(args: argparse.Namespace) -> int:
    from .ckpt.manager import deserialize_array

    with open(args.input, "rb") as fh:
        blob = fh.read()
    with _tracing(args):
        arr = deserialize_array(blob)
    np.save(args.output, arr)
    print(f"{args.output}: shape {arr.shape}, dtype {arr.dtype}")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    from .ckpt.temporal import DELTA_KIND, FILTER_NONE

    with open(args.input, "rb") as fh:
        blob = fh.read()
    info = inspect_blob(blob)
    if info.get("kind") == DELTA_KIND:
        # an unfiltered delta carries no "filter" key; say so in words
        info.setdefault("filter", FILTER_NONE)
    print(json.dumps(info, indent=2, sort_keys=True))
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    arr = _load_array(args.input)
    compressor = WaveletCompressor(_config_from_args(args))
    approx, stats = compressor.roundtrip(arr)
    report = error_report(arr, approx)
    print(f"compression rate : {stats.compression_rate_percent:.2f} %")
    print(f"mean rel. error  : {report.mean_relative_error_pct:.5f} %")
    print(f"max rel. error   : {report.max_relative_error_pct:.5f} %")
    print(f"rmse             : {report.rmse:.6g}")
    print(f"quantized        : {stats.n_quantized}/{stats.n_coefficients} coefficients")
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    arr = _load_array(args.input)
    result = tune_for_tolerance(arr, args.tolerance, metric=args.metric)
    print(f"config           : {result.config.to_dict()}")
    print(f"achieved {args.metric} err : {result.achieved_error * 100:.5f} % "
          f"(tolerance {result.tolerance * 100:.5f} %)")
    print(f"compression rate : {result.compression_rate_percent:.2f} %")
    print(f"evaluations      : {result.evaluations}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    import os

    from .ckpt.manager import CheckpointManager
    from .ckpt.protocol import ArrayRegistry
    from .ckpt.journal import GEN_COMMITTED, scan_generations
    from .ckpt.store import DirectoryStore

    if not os.path.isdir(args.directory):
        raise ReproError(f"not a directory: {args.directory!r}")
    store = DirectoryStore(args.directory)
    # verify never touches the registry, so an empty one suffices
    manager = CheckpointManager(
        ArrayRegistry(),
        store,
        resilience=from_flags(ResilienceConfig, args),
    )
    # one scan names the torn generations and reads each committed manifest
    generations = scan_generations(store)
    committed = [g for g in generations if g.state == GEN_COMMITTED]
    uncommitted = [g for g in generations if g.state != GEN_COMMITTED]
    for gen in uncommitted:
        print(f"step {gen.step:10d}: {gen.state.upper()} ({gen.reason})")
    if not committed:
        if uncommitted:
            print(
                f"no committed checkpoints; {len(uncommitted)} torn/orphaned "
                f"generation(s) await recovery"
            )
        else:
            print("no checkpoints found")
        return 0
    failures = 0
    for gen in committed:
        healed_before = len(manager.repair_log)
        try:
            manifest = manager.verify(gen.step, repair=args.repair, manifest=gen.manifest)
        except ReproError as exc:
            failures += 1
            print(f"step {gen.step:10d}: CORRUPT ({exc})")
            continue
        healed = manager.repair_log[healed_before:]
        status = "ok" if not healed else "healed " + ", ".join(
            e.name if e.rewritten else f"{e.name} (not written back)" for e in healed
        )
        if not all(e.rewritten for e in healed):
            failures += 1  # healed in memory only: still damaged at rest
        print(
            f"step {gen.step:10d}: {len(manifest.entries)} arrays, "
            f"{manifest.total_stored_bytes} bytes, "
            f"rate {manifest.compression_rate_percent:.1f} % ... {status}"
        )
    if failures:
        print(
            f"error: {failures} of {len(committed)} committed generation(s) "
            f"failed verification",
            file=sys.stderr,
        )
    return 1 if failures else 0


def _cmd_restore(args: argparse.Namespace) -> int:
    import os

    from .ckpt.manager import CheckpointManager
    from .ckpt.protocol import ArrayRegistry
    from .ckpt.recovery import restore_with_fallback
    from .ckpt.store import DirectoryStore

    if not os.path.isdir(args.directory):
        raise ReproError(f"not a directory: {args.directory!r}")

    class _CaptureRegistry(ArrayRegistry):
        """Registry that captures restored arrays instead of writing them
        into live application buffers (the CLI has none)."""

        def __init__(self) -> None:
            super().__init__()
            self.arrays: dict[str, np.ndarray] = {}

        def restore(self, arrays) -> None:  # type: ignore[override]
            self.arrays = {k: np.asarray(v) for k, v in arrays.items()}

    registry = _CaptureRegistry()
    manager = CheckpointManager(
        registry,
        DirectoryStore(args.directory),
        resilience=from_flags(ResilienceConfig, args),
    )
    with _tracing(args):
        result = restore_with_fallback(
            manager,
            step=args.step,
            repair=True if args.repair else None,
            max_fallback=args.fallback,
        )
    np.savez(args.output, **registry.arrays)
    print(
        f"{args.output}: {len(registry.arrays)} array(s); {result.describe()}"
    )
    return 0


def _cmd_restart(args: argparse.Namespace) -> int:
    from .apps.advection import AdvectionProxy
    from .apps.heat import HeatDiffusionProxy
    from .ckpt.manager import CheckpointManager
    from .ckpt.protocol import registry_from_checkpointable
    from .ckpt.recovery import RestartCoordinator
    from .ckpt.store import DirectoryStore

    try:
        shape = tuple(int(x) for x in args.shape.split(","))
    except ValueError as exc:
        raise ReproError(f"--shape must be X,Y,Z integers: {exc}") from exc
    config = _config_from_args(args)
    resilience = from_flags(ResilienceConfig, args)

    store = DirectoryStore(args.directory)
    if args.crash_mtbf_ops is not None:
        from .ckpt.faults import CRASH_KINDS, FaultInjectingStore, FaultPlan
        from .failure.distributions import ExponentialFailures

        if args.crash_mtbf_ops <= 0:
            raise ReproError(
                f"--crash-mtbf-ops must be positive, got {args.crash_mtbf_ops}"
            )
        horizon = args.crash_horizon_ops
        if horizon is None:
            horizon = int(args.crash_mtbf_ops * 20)
        plan = FaultPlan.from_distribution(
            ExponentialFailures(args.crash_mtbf_ops),
            horizon_ops=horizon,
            kinds=CRASH_KINDS,
            seed=args.crash_seed,
        )
        store = FaultInjectingStore(store, plan)

    app_cls = HeatDiffusionProxy if args.app == "heat" else AdvectionProxy

    def app_factory():
        return app_cls(shape, args.seed)

    temporal = _temporal_from_flags(args)

    def manager_factory(app):
        return CheckpointManager(
            registry_from_checkpointable(app),
            store,
            config=config,
            resilience=resilience,
            temporal=temporal,
        )

    coordinator = RestartCoordinator(
        app_factory,
        manager_factory,
        total_steps=args.steps,
        interval=args.interval,
        max_restarts=args.max_restarts,
        repair=True if args.repair else None,
        max_fallback=args.fallback,
    )
    with _tracing(args):
        report = coordinator.run()
    for c in report.cycles:
        if c.crashed:
            resumed = (
                f"resumed from {c.restored_step}" if c.restored_step is not None
                else "cold start"
            )
            print(
                f"cycle {c.attempt:3d}: {resumed}, crashed at step "
                f"{c.crash_step} ({len(c.recovered_torn)} torn reaped)"
            )
        else:
            print(
                f"cycle {c.attempt:3d}: completed at step "
                f"{report.final_step} ({len(c.recovered_torn)} torn reaped)"
            )
    print(
        f"completed {args.steps} steps after {report.restarts} restart(s); "
        f"{report.rework_steps} step(s) of rework"
    )
    return 0


def _cmd_checkpoint(args: argparse.Namespace) -> int:
    from .ckpt.manager import CheckpointManager
    from .ckpt.protocol import ArrayRegistry
    from .ckpt.store import DirectoryStore

    arr = _load_array(args.input)
    config = _config_from_args(args)
    registry = ArrayRegistry()
    registry.register(args.name, arr)
    with _tracing(args):
        with CheckpointManager(
            registry,
            DirectoryStore(args.directory),
            config=config,
            workers=args.workers,
            chunk_rows=args.chunk_rows,
            resilience=from_flags(ResilienceConfig, args),
            temporal=_temporal_from_flags(args),
        ) as manager:
            manifest = manager.checkpoint(args.step)
    parity_note = (
        f", {len(manifest.parity)} parity group(s)" if manifest.parity else ""
    )
    print(
        f"step {manifest.step}: {len(manifest.entries)} array(s), "
        f"{manifest.total_stored_bytes} bytes stored "
        f"(rate {manifest.compression_rate_percent:.2f}%){parity_note}"
    )
    return 0


def _cmd_quality(args: argparse.Namespace) -> int:
    from .analysis.quality import default_quality_apps, rate_distortion_sweep

    try:
        bounds = [float(tok) for tok in args.bounds.split(",") if tok.strip()]
    except ValueError as exc:
        raise ReproError(f"cannot parse --bounds {args.bounds!r}: {exc}") from exc
    if not bounds:
        raise ReproError("--bounds must name at least one error bound")
    apps = default_quality_apps(args.scale)
    if args.apps is not None:
        wanted = [tok.strip() for tok in args.apps.split(",") if tok.strip()]
        unknown = sorted(set(wanted) - set(apps))
        if unknown:
            raise ReproError(
                f"unknown app(s) {', '.join(unknown)}; "
                f"choose from {', '.join(sorted(apps))}"
            )
        apps = {name: apps[name] for name in wanted}
    results = rate_distortion_sweep(
        apps,
        bounds,
        generations=args.generations,
        steps_per_generation=args.steps_per_generation,
        temporal=from_flags(TemporalConfig, args),
    )

    header = (
        f"{'app':<14}{'bound':>8}  {'indep%':>8}{'temp%':>8}"
        f"  {'psnr(dB)':>9}{'floor':>8}  {'max err':>9}  win"
    )
    print(header)
    print("-" * len(header))
    for r in results:
        t = r.temporal
        print(
            f"{r.app:<14}{r.error_bound:>8.0e}"
            f"  {r.independent.compression_rate_percent:>8.1f}"
            f"{t.compression_rate_percent:>8.1f}"
            f"  {t.worst.psnr_db:>9.1f}{r.psnr_floor_db:>8.1f}"
            f"  {t.worst.max_abs_error:>9.2e}"
            f"  {'yes' if r.temporal_wins else 'no'}"
        )
    for eb in bounds:
        cell = [r for r in results if r.error_bound == eb]
        wins = sum(r.temporal_wins for r in cell)
        print(
            f"bound {eb:.0e}: temporal stores fewer bytes on "
            f"{wins}/{len(cell)} app(s)"
        )
    if args.out:
        doc = {
            "bounds": bounds,
            "generations": args.generations,
            "steps_per_generation": args.steps_per_generation,
            "predictor": args.predictor,
            "keyframe_every": args.keyframe_every,
            "results": [r.to_dict() for r in results],
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .obs.report import TraceReport

    report = TraceReport.from_jsonl(*args.trace_file)
    if args.as_json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render(tree=args.tree))
    if args.check_parentage:
        orphans = report.orphans()
        if orphans:
            names = ", ".join(sorted({str(s.get("name")) for s in orphans}))
            print(
                f"error: {len(orphans)} span(s) reference parents missing "
                f"from the trace ({names}); cross-process stitching is "
                f"broken or a trace file is missing",
                file=sys.stderr,
            )
            return 1
    return 0


def _parse_tenant_spec(spec: str):
    from .service import TenantSpec

    parts = spec.split(":")
    if len(parts) > 3:
        raise ReproError(
            f"tenant spec {spec!r} has too many fields; "
            f"expected NAME[:BYTES[:RATE]]"
        )
    byte_quota = parse_size(parts[1]) if len(parts) > 1 and parts[1] else None
    rate_quota = float(parts[2]) if len(parts) > 2 and parts[2] else None
    return TenantSpec(parts[0], byte_quota=byte_quota, rate_quota=rate_quota)


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import os

    from .service import ServiceServer, TenantRegistry
    from .service.ingest import build_service

    registry = TenantRegistry([_parse_tenant_spec(s) for s in args.tenant])
    config = from_flags(ServiceConfig, args)
    socket_path = args.socket or os.path.join(args.directory, "service.sock")
    if os.path.exists(socket_path):
        os.unlink(socket_path)

    async def _run(sink: Any) -> int:
        service = build_service(args.directory, registry, config, flush_sink=sink)
        reports = await asyncio.to_thread(service.recover_tenants)
        for name, rep in reports.items():
            if rep.reaped:
                print(
                    f"tenant {name}: reaped {len(rep.reaped)} torn/orphaned "
                    f"generation(s): {rep.reaped}",
                    file=sys.stderr,
                )
        stop = asyncio.Event()
        server = ServiceServer(
            service,
            socket_path,
            on_disconnect=stop.set if args.once else None,
        )
        async with service, server:
            print(
                f"serving {len(registry.names())} tenant(s) "
                f"[{', '.join(registry.names())}] on {socket_path} "
                f"({config.shards} shards, max batch {config.max_batch})",
                flush=True,
            )
            loop = asyncio.get_running_loop()
            import signal

            for sig in (signal.SIGINT, signal.SIGTERM):
                try:
                    loop.add_signal_handler(sig, stop.set)
                except (NotImplementedError, RuntimeError):
                    pass
            await stop.wait()
            stats = service.stats()
            print(
                f"shutting down: {stats['commits']} commit(s) in "
                f"{stats['group_commits']} group(s) "
                f"(mean batch {stats['mean_batch']:.1f})",
                file=sys.stderr,
            )
        return 0

    # the service's background flusher emits periodic metric snapshots
    # into the same sink the command's spans go to
    with _tracing(args) as sink:
        return asyncio.run(_run(sink))


def _svc_call(
    args: argparse.Namespace, request: Callable[[Any], Awaitable[Any]], migration: bool = False
) -> Any:
    """``await request(client)`` over one connection to the service at ``args.socket``."""
    import asyncio

    from .service import ServiceClient

    async def _run():
        # a migration copies every key of every unit it moves: give it a
        # generous per-request bound instead of the default
        if migration:
            client = ServiceClient(args.socket, op_timeout=600.0)
        else:
            client = ServiceClient(args.socket)
        async with client:
            return await request(client)

    return asyncio.run(_run())


def _cmd_svc_put(args: argparse.Namespace) -> int:
    blobs: dict[str, bytes] = {}
    for pair in args.blobs:
        name, sep, path = pair.partition("=")
        if not sep or not name or not path:
            raise ReproError(f"blob spec {pair!r} is not NAME=PATH")
        try:
            with open(path, "rb") as fh:
                blobs[name] = fh.read()
        except OSError as exc:
            raise ReproError(f"cannot read blob {path!r}: {exc}") from exc

    with _tracing(args):
        from .obs import get_tracer

        # one root span so the per-request client spans (and, via wire
        # propagation, every server-side span) hang off a single tree
        with get_tracer().span("svc-put", tenant=args.tenant, step=args.step):
            ack = _svc_call(args, lambda client: client.submit(args.tenant, args.step, blobs))
            print(
                f"committed {args.tenant}/{ack['step']}: {ack['n_blobs']} blob(s), "
                f"{ack['nbytes']} bytes in {ack['latency_seconds'] * 1e3:.1f} ms "
                f"(batch of {ack['batch_size']})"
            )
            return 0


def _cmd_svc_get(args: argparse.Namespace) -> int:
    import os

    async def fetch(client):
        return await client.steps(args.tenant), await client.restore(args.tenant, args.step)

    with _tracing(args):
        from .obs import get_tracer

        with get_tracer().span("svc-get", tenant=args.tenant):
            steps, blobs = _svc_call(args, fetch)
            os.makedirs(args.outdir, exist_ok=True)
            for name, data in sorted(blobs.items()):
                with open(os.path.join(args.outdir, name), "wb") as fh:
                    fh.write(data)
            step = args.step if args.step is not None else (steps[-1] if steps else "?")
            print(
                f"restored {args.tenant}/{step}: {len(blobs)} blob(s), "
                f"{sum(len(b) for b in blobs.values())} bytes -> {args.outdir}"
            )
            return 0


def _cmd_svc_stats(args: argparse.Namespace) -> int:
    stats = _svc_call(args, lambda client: client.stats())
    print(json.dumps(stats, indent=2, sort_keys=True))
    if args.health:
        if stats.get("crashed"):
            print("health: CRASHED", file=sys.stderr)
            return 2
        slo = stats.get("slo")
        if slo is None:
            print(
                "health: unknown (service runs without an SLO tracker)",
                file=sys.stderr,
            )
            return 0
        if not slo.get("healthy", True):
            print(
                f"health: BURNING (state={slo.get('state')}, "
                f"error_rate={slo.get('error_rate', 0.0):.4f})",
                file=sys.stderr,
            )
            return 2
        print(f"health: ok (state={slo.get('state')})", file=sys.stderr)
    return 0


def _cmd_svc_metrics(args: argparse.Namespace) -> int:
    text = _svc_call(args, lambda client: client.metrics())
    sys.stdout.write(text)
    if text and not text.endswith("\n"):
        sys.stdout.write("\n")
    return 0


def _cmd_svc_drain(args: argparse.Namespace) -> int:
    summary = _svc_call(
        args, lambda client: client.drain(args.shard, remove=args.remove), migration=True
    )
    tail = " and removed from the ring" if summary.get("removed") else ""
    print(
        f"drained {summary['shard']}: {summary['units_moved']} unit(s), "
        f"{summary['keys_copied']} key(s), {summary['bytes_copied']} bytes "
        f"moved; {summary['remaining']} key(s) remaining{tail}"
    )
    return 0 if summary["remaining"] == 0 else 1


def _cmd_svc_rebalance(args: argparse.Namespace) -> int:
    summary = _svc_call(args, lambda client: client.rebalance(), migration=True)
    print(
        f"rebalanced: {summary['units_moved']} unit(s) moved "
        f"({summary['keys_copied']} key(s), {summary['bytes_copied']} bytes), "
        f"{summary['units_in_place']} already placed"
    )
    return 0


def _cmd_svc_repair(args: argparse.Namespace) -> int:
    summary = _svc_call(args, lambda client: client.repair(), migration=True)
    remaining = summary.get("remaining_debt", {}) or {}
    print(
        f"repaired {summary.get('repaired_units', 0)}/"
        f"{summary.get('attempted_units', 0)} unit(s) "
        f"({summary.get('keys_copied', 0)} key(s), "
        f"{summary.get('bytes_copied', 0)} bytes); "
        f"{remaining.get('units', 0)} unit(s) still in debt"
    )
    return 0 if remaining.get("units", 0) == 0 else 1


_COMMANDS = {
    "compress": _cmd_compress,
    "decompress": _cmd_decompress,
    "inspect": _cmd_inspect,
    "evaluate": _cmd_evaluate,
    "tune": _cmd_tune,
    "checkpoint": _cmd_checkpoint,
    "verify": _cmd_verify,
    "restore": _cmd_restore,
    "restart": _cmd_restart,
    "quality": _cmd_quality,
    "report": _cmd_report,
    "serve": _cmd_serve,
    "svc-put": _cmd_svc_put,
    "svc-get": _cmd_svc_get,
    "svc-stats": _cmd_svc_stats,
    "svc-metrics": _cmd_svc_metrics,
    "svc-drain": _cmd_svc_drain,
    "svc-rebalance": _cmd_svc_rebalance,
    "svc-repair": _cmd_svc_repair,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ServiceUnavailableError as exc:
        # The one failure a human hits constantly: nothing is listening.
        # Say what was tried and the likeliest fix, in one line each.
        print(f"error: {exc}", file=sys.stderr)
        print(
            "hint: is 'repro-ckpt serve' running and the socket path "
            "correct? the client gave up after bounded retries instead "
            "of hanging",
            file=sys.stderr,
        )
        return 1
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # e.g. `repro report ... | head`
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
