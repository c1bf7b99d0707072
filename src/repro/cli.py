"""Command-line interface: ``python -m repro`` / ``repro-ckpt``.

Every subcommand is one row of :data:`COMMANDS`: its name, help, the
arguments it declares and the handler that runs it.  :func:`build_parser`
turns each row into a subparser; :func:`main` runs the row's handler
inside the ``--trace`` the row declares (if any).  A handler reports a
failure by raising :class:`~repro.exceptions.ReproError`, which ``main``
prints as one ``error:`` line with exit code 1; a file that cannot be
read or written is such a failure, never a traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import os
import pathlib
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

#: What a row declares: one call that adds arguments to a subparser.
Spec = Callable[[argparse.ArgumentParser], Any]


@dataclasses.dataclass(frozen=True)
class Command:
    """One subcommand: what :func:`build_parser` declares and :func:`main` runs."""

    name: str
    help: str
    run: Callable[[argparse.Namespace], int]
    arguments: tuple[Spec, ...]
    #: what ``<name> --help`` says beyond ``help``
    description: str | None = None
    #: a service request that moves units between shards
    migrates: bool = False


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
    sink = _write(trace_path, lambda path: JsonlSink(str(path)))
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


def _temporal_from_flags(args: argparse.Namespace) -> TemporalConfig | None:
    if not args.temporal:
        return None
    return from_flags(TemporalConfig, args, prefix="temporal-")


def _arg(*names: str, **kwargs: Any) -> Spec:
    """One ``add_argument`` call; a default shows in the help, as a knob's does."""
    if kwargs.get("default") is not None:
        kwargs["help"] += f" [default: {kwargs['default']}]"
    return lambda parser: parser.add_argument(*names, **kwargs)


def _config(config_cls: type, *names: str, prefix: str = "") -> Spec:
    """The flags of ``config_cls``'s knobs (only ``names`` when given)."""
    return lambda parser: add_flags(parser, config_cls, names or None, prefix=prefix)


_INPUT_NPY = _arg("input", help="input .npy file")
_INPUT_RPZ = _arg("input", help="input .rpz file")
_DIRECTORY = _arg("directory", help="checkpoint directory (DirectoryStore root)")
_SOCKET = _arg("socket", help="unix socket of a running 'serve'")
_RETRIES = _config(ResilienceConfig, "retries", "retry_base_delay")
_TRACE = _arg(
    "--trace", metavar="PATH",
    help="record a span/metrics trace of this run to a JSONL file "
         "(render it with 'repro report PATH')",
)
_WORKERS = (
    _arg("--workers", type=int, default=1, metavar="N",
         help="compress leading-axis slabs in N worker processes (chunked "
              "stream format; 1 = single-blob pipeline)"),
    _arg("--chunk-rows", type=int, default=256, metavar="R",
         help="slab height for --workers > 1"),
)
_TEMPORAL = (
    _arg("--temporal", action="store_true",
         help="encode lossy float arrays as temporal deltas against the "
              "previous committed generation (periodic keyframes bound the "
              "restore chain; restores replay the chain transparently)"),
    _config(TemporalConfig, prefix="temporal-"),
)
_RESTORE = (
    _arg("--repair", action="store_true",
         help="force parity repair of corrupt-or-missing blobs during a "
              "restore (default: repair exactly when the manifest has parity)"),
    _arg("--fallback", type=int, metavar="N",
         help="a restore tries at most N older committed generations when "
              "the newest fails [default: all older generations]"),
)


def _csv(text: str, flag: str, kind: Callable[[str], Any] = str) -> list:
    """The comma-separated items of a ``flag`` value, each parsed by ``kind``."""
    try:
        return [kind(tok.strip()) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ReproError(f"cannot parse {flag} {text!r}: {exc}") from exc


def _read(path: str, load: Callable[[pathlib.Path], Any]) -> Any:
    """``load(path)``, with a file it cannot read reported as a :class:`ReproError`."""
    try:
        return load(pathlib.Path(path))
    except (OSError, ValueError) as exc:
        raise ReproError(f"cannot read {path!r}: {exc}") from exc


def _write(path: str, save: Callable[[pathlib.Path], Any]) -> Any:
    """``save(path)``, with a file it cannot write reported as a :class:`ReproError`."""
    try:
        return save(pathlib.Path(path))
    except OSError as exc:
        raise ReproError(f"cannot write {path!r}: {exc}") from exc


def _load_array(path: str) -> np.ndarray:
    return _read(path, functools.partial(np.load, allow_pickle=False))


def _manager_factory(
    args: argparse.Namespace, *, read_only: bool = False, plan: Any = None
) -> Callable[..., Any]:
    """``make(registry, **options)``: a ``CheckpointManager`` over the one
    ``DirectoryStore`` at ``args.directory`` (so a crash ``FaultPlan`` counts
    operations across restarts), with the command's resilience flags.  A
    read-only command refuses a directory that is not there."""
    from .ckpt.manager import CheckpointManager
    from .ckpt.store import DirectoryStore

    if read_only and not os.path.isdir(args.directory):
        raise ReproError(f"not a directory: {args.directory!r}")
    store = DirectoryStore(args.directory)
    if plan is not None:
        from .ckpt.faults import FaultInjectingStore

        store = FaultInjectingStore(store, plan)
    return functools.partial(
        CheckpointManager, store=store, resilience=from_flags(ResilienceConfig, args)
    )


def _svc_call(args: argparse.Namespace, request: Callable[[Any], Awaitable[Any]]) -> Any:
    """``await request(client)`` over one connection to the service at ``args.socket``."""
    import asyncio

    from .service import ServiceClient

    async def _run():
        # a migration copies every key of every unit it moves: give it a
        # generous per-request bound instead of the client's default
        if COMMANDS[args.command].migrates:
            client = ServiceClient(args.socket, op_timeout=600.0)
        else:
            client = ServiceClient(args.socket)
        async with client:
            return await request(client)

    return asyncio.run(_run())


def _cmd_compress(args: argparse.Namespace) -> int:
    arr = _load_array(args.input)
    config = _config_from_args(args)
    if args.workers != 1:  # the chunked path checks the count
        blob, stats = chunked_compress_with_stats(
            arr, config, chunk_rows=args.chunk_rows, workers=args.workers
        )
    else:
        blob, stats = WaveletCompressor(config).compress_with_stats(arr)
    _write(args.output, lambda path: path.write_bytes(blob))
    print(
        f"{args.input}: {stats.original_bytes} -> {stats.compressed_bytes} bytes "
        f"(rate {stats.compression_rate_percent:.2f}%, "
        f"{stats.total_compression_seconds * 1e3:.1f} ms)"
    )
    return 0


def _cmd_decompress(args: argparse.Namespace) -> int:
    from .ckpt.manager import deserialize_array

    arr = deserialize_array(_read(args.input, pathlib.Path.read_bytes))
    _write(args.output, lambda path: np.save(path, arr))
    print(f"{args.output}: shape {arr.shape}, dtype {arr.dtype}")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    from .ckpt.temporal import DELTA_KIND, FILTER_NONE

    info = inspect_blob(_read(args.input, pathlib.Path.read_bytes))
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


def _cmd_checkpoint(args: argparse.Namespace) -> int:
    from .ckpt.protocol import ArrayRegistry

    registry = ArrayRegistry()
    registry.register(args.name, _load_array(args.input))
    with _manager_factory(args)(
        registry,
        config=_config_from_args(args),
        workers=args.workers,
        chunk_rows=args.chunk_rows,
        temporal=_temporal_from_flags(args),
    ) as manager:
        manifest = manager.checkpoint(args.step)
    parity_note = f", {len(manifest.parity)} parity group(s)" if manifest.parity else ""
    print(
        f"step {manifest.step}: {len(manifest.entries)} array(s), "
        f"{manifest.total_stored_bytes} bytes stored "
        f"(rate {manifest.compression_rate_percent:.2f}%){parity_note}"
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .ckpt.journal import GEN_COMMITTED, scan_generations
    from .ckpt.protocol import ArrayRegistry

    # verify never touches the registry, so an empty one suffices
    manager = _manager_factory(args, read_only=True)(ArrayRegistry())
    # one scan names the torn generations and reads each committed manifest
    generations = scan_generations(manager.store)
    committed = [g for g in generations if g.state == GEN_COMMITTED]
    uncommitted = [g for g in generations if g.state != GEN_COMMITTED]
    for gen in uncommitted:
        print(f"step {gen.step:10d}: {gen.state.upper()} ({gen.reason})")
    if not committed:
        print(
            f"no committed checkpoints; {len(uncommitted)} torn/orphaned "
            f"generation(s) await recovery" if uncommitted else "no checkpoints found"
        )
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
    from .ckpt.protocol import ArrayRegistry
    from .ckpt.recovery import restore_with_fallback

    class _CaptureRegistry(ArrayRegistry):
        """Keeps the restored arrays: the CLI has no live buffers to write into."""

        def restore(self, arrays) -> None:  # type: ignore[override]
            self.arrays = {k: np.asarray(v) for k, v in arrays.items()}

    registry = _CaptureRegistry()
    result = restore_with_fallback(
        _manager_factory(args, read_only=True)(registry),
        step=args.step,
        repair=True if args.repair else None,
        max_fallback=args.fallback,
    )
    _write(args.output, lambda path: np.savez(path, **registry.arrays))
    print(f"{args.output}: {len(registry.arrays)} array(s); {result.describe()}")
    return 0


def _cmd_restart(args: argparse.Namespace) -> int:
    from .apps.advection import AdvectionProxy
    from .apps.heat import HeatDiffusionProxy
    from .ckpt.protocol import registry_from_checkpointable
    from .ckpt.recovery import RestartCoordinator

    shape = tuple(_csv(args.shape, "--shape", int))
    config = _config_from_args(args)
    temporal = _temporal_from_flags(args)

    plan = None
    if args.crash_mtbf_ops is not None:
        from .ckpt.faults import CRASH_KINDS, FaultPlan
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
    make_manager = _manager_factory(args, plan=plan)
    app_cls = HeatDiffusionProxy if args.app == "heat" else AdvectionProxy
    coordinator = RestartCoordinator(
        functools.partial(app_cls, shape, args.seed),
        lambda app: make_manager(
            registry_from_checkpointable(app), config=config, temporal=temporal
        ),
        total_steps=args.steps,
        interval=args.interval,
        max_restarts=args.max_restarts,
        repair=True if args.repair else None,
        max_fallback=args.fallback,
    )
    report = coordinator.run()
    for c in report.cycles:
        if not c.crashed:
            outcome = f"completed at step {report.final_step}"
        elif c.restored_step is None:
            outcome = f"cold start, crashed at step {c.crash_step}"
        else:
            outcome = f"resumed from {c.restored_step}, crashed at step {c.crash_step}"
        print(f"cycle {c.attempt:3d}: {outcome} ({len(c.recovered_torn)} torn reaped)")
    print(
        f"completed {args.steps} steps after {report.restarts} restart(s); "
        f"{report.rework_steps} step(s) of rework"
    )
    return 0


def _cmd_quality(args: argparse.Namespace) -> int:
    from .analysis.quality import default_quality_apps, rate_distortion_sweep

    bounds = _csv(args.bounds, "--bounds", float)
    if not bounds:
        raise ReproError("--bounds must name at least one error bound")
    apps = default_quality_apps(args.scale)
    if args.apps is not None:
        wanted = _csv(args.apps, "--apps")
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
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        _write(args.out, lambda path: path.write_text(text, encoding="utf-8"))
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

    name, *quotas = spec.split(":")
    try:
        if len(quotas) > 2:
            raise ValueError("too many fields; expected NAME[:BYTES[:RATE]]")
        size, rate = quotas + [""] * (2 - len(quotas))
        return TenantSpec(
            name,
            byte_quota=parse_size(size) if size else None,
            rate_quota=float(rate) if rate else None,
        )
    except ValueError as exc:  # a ConfigurationError is one too
        raise ReproError(f"tenant spec {spec!r}: {exc}") from exc


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from .service import ServiceServer, TenantRegistry
    from .service.ingest import build_service

    registry = TenantRegistry([_parse_tenant_spec(s) for s in args.tenant])
    config = from_flags(ServiceConfig, args)
    socket_path = args.socket or os.path.join(args.directory, "service.sock")
    if os.path.exists(socket_path):
        os.unlink(socket_path)

    async def _run() -> int:
        # the service's background flusher emits periodic metric snapshots
        # into the same sink the command's spans go to
        service = build_service(
            args.directory, registry, config, flush_sink=args.trace_sink
        )
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

    return asyncio.run(_run())


def _cmd_svc_put(args: argparse.Namespace) -> int:
    from .obs import get_tracer

    blobs: dict[str, bytes] = {}
    for pair in args.blobs:
        name, sep, path = pair.partition("=")
        if not sep or not name or not path:
            raise ReproError(f"blob spec {pair!r} is not NAME=PATH")
        blobs[name] = _read(path, pathlib.Path.read_bytes)
    # one root span so the per-request client spans (and, via wire
    # propagation, every server-side span) hang off a single tree
    with get_tracer().span(args.command, tenant=args.tenant, step=args.step):
        ack = _svc_call(args, lambda client: client.submit(args.tenant, args.step, blobs))
        print(
            f"committed {args.tenant}/{ack['step']}: {ack['n_blobs']} blob(s), "
            f"{ack['nbytes']} bytes in {ack['latency_seconds'] * 1e3:.1f} ms "
            f"(batch of {ack['batch_size']})"
        )
    return 0


def _cmd_svc_get(args: argparse.Namespace) -> int:
    from .obs import get_tracer

    async def fetch(client):
        return await client.steps(args.tenant), await client.restore(args.tenant, args.step)

    def save(outdir: pathlib.Path) -> None:
        outdir.mkdir(parents=True, exist_ok=True)
        for name, data in sorted(blobs.items()):
            (outdir / name).write_bytes(data)

    with get_tracer().span(args.command, tenant=args.tenant):
        steps, blobs = _svc_call(args, fetch)
        _write(args.outdir, save)
        step = args.step if args.step is not None else (steps[-1] if steps else "?")
        print(
            f"restored {args.tenant}/{step}: {len(blobs)} blob(s), "
            f"{sum(len(b) for b in blobs.values())} bytes -> {args.outdir}"
        )
    return 0


def _cmd_svc_stats(args: argparse.Namespace) -> int:
    stats = _svc_call(args, lambda client: client.stats())
    print(json.dumps(stats, indent=2, sort_keys=True))
    if not args.health:
        return 0
    slo = stats.get("slo")
    if stats.get("crashed"):
        health, code = "CRASHED", 2
    elif slo is None:
        health, code = "unknown (service runs without an SLO tracker)", 0
    elif not slo.get("healthy", True):
        health, code = (
            f"BURNING (state={slo.get('state')}, "
            f"error_rate={slo.get('error_rate', 0.0):.4f})", 2
        )
    else:
        health, code = f"ok (state={slo.get('state')})", 0
    print(f"health: {health}", file=sys.stderr)
    return code


def _cmd_svc_metrics(args: argparse.Namespace) -> int:
    text = _svc_call(args, lambda client: client.metrics())
    sys.stdout.write(text)
    if text and not text.endswith("\n"):
        sys.stdout.write("\n")
    return 0


def _cmd_svc_drain(args: argparse.Namespace) -> int:
    summary = _svc_call(args, lambda client: client.drain(args.shard, remove=args.remove))
    tail = " and removed from the ring" if summary.get("removed") else ""
    print(
        f"drained {summary['shard']}: {summary['units_moved']} unit(s), "
        f"{summary['keys_copied']} key(s), {summary['bytes_copied']} bytes "
        f"moved; {summary['remaining']} key(s) remaining{tail}"
    )
    return 0 if summary["remaining"] == 0 else 1


def _cmd_svc_rebalance(args: argparse.Namespace) -> int:
    summary = _svc_call(args, lambda client: client.rebalance())
    print(
        f"rebalanced: {summary['units_moved']} unit(s) moved "
        f"({summary['keys_copied']} key(s), {summary['bytes_copied']} bytes), "
        f"{summary['units_in_place']} already placed"
    )
    return 0


def _cmd_svc_repair(args: argparse.Namespace) -> int:
    summary = _svc_call(args, lambda client: client.repair())
    remaining = summary.get("remaining_debt", {}) or {}
    print(
        f"repaired {summary.get('repaired_units', 0)}/"
        f"{summary.get('attempted_units', 0)} unit(s) "
        f"({summary.get('keys_copied', 0)} key(s), "
        f"{summary.get('bytes_copied', 0)} bytes); "
        f"{remaining.get('units', 0)} unit(s) still in debt"
    )
    return 0 if remaining.get("units", 0) == 0 else 1


COMMANDS: dict[str, Command] = {c.name: c for c in (
    Command("compress", "compress a .npy array into a .rpz blob", _cmd_compress, (
        _arg("input", help="input .npy file (float32/float64 array)"),
        _arg("output", help="output .rpz file"),
        _config(CompressionConfig), *_WORKERS, _TRACE,
    ), description="The chunked stream --workers writes is byte-identical for every "
        "N, and the -mt backends' threads compose with the worker processes."),
    Command("decompress", "decode a .rpz blob into a .npy array", _cmd_decompress, (
        _INPUT_RPZ, _arg("output", help="output .npy file"), _TRACE,
    ), description="Single pipeline blobs and chunked streams are told apart by their "
        "magic; the .bin blobs of a checkpoint directory decode too."),
    Command("inspect", "print the header of a .rpz blob", _cmd_inspect, (_INPUT_RPZ,),
            description="Print a blob's self-describing header as JSON; a chunked "
            "stream reports chunk-level metadata."),
    Command("evaluate", "report compression rate and errors for an array", _cmd_evaluate,
            (_INPUT_NPY, _config(CompressionConfig)),
            description="Compress and decompress in memory and report the rate and "
            "errors of paper Eqs. 5-6; nothing is written."),
    Command("tune", "find the smallest n meeting an error tolerance", _cmd_tune, (
        _INPUT_NPY,
        _arg("--tolerance", type=float, required=True,
             help="relative-error tolerance as a fraction (0.01 = 1%%)"),
        _arg("--metric", choices=("mean", "max"), default="mean",
             help="which relative error the tolerance bounds"),
    )),
    Command("checkpoint", "write a .npy array as a checkpoint into a directory",
            _cmd_checkpoint, (
        _INPUT_NPY, _DIRECTORY,
        _arg("--step", type=int, required=True, metavar="S",
             help="logical step number of the checkpoint"),
        _arg("--name", default="array", metavar="NAME",
             help="registry name the array is stored under"),
        _config(CompressionConfig), *_WORKERS, *_TEMPORAL, _config(ResilienceConfig), _TRACE,
    )),
    Command("verify", "CRC-verify every checkpoint in a directory store", _cmd_verify, (
        _DIRECTORY,
        _arg("--repair", action="store_true",
             help="parity-reconstruct any single corrupt-or-missing blob per group, "
                  "rewrite the healed bytes, and report the store clean"),
        _RETRIES,
    ), description="Exit 1 if a committed generation fails, including a blob --repair "
        "healed but could not write back. Torn and orphaned generations (crash debris "
        "the commit journal never published) are listed but do not fail the run."),
    Command("restore", "restore the newest committed checkpoint into a .npz file",
            _cmd_restore, (
        _DIRECTORY,
        _arg("output", help="output .npz file for the restored arrays"),
        _arg("--step", type=int, metavar="S",
             help="restore this step instead of the newest committed generation"),
        *_RESTORE, _RETRIES, _TRACE,
    ), description="A generation that fails even after retries and parity repair "
        "falls back to older committed ones; one line names the generation used, "
        "those skipped and the repairs applied."),
    Command("restart", "run a proxy app across injected crashes with checkpoint/restart",
            _cmd_restart, (
        _DIRECTORY,
        _arg("--app", choices=("heat", "advection"), default="heat",
             help="proxy application to run"),
        _arg("--steps", type=int, required=True, metavar="N",
             help="total simulation steps to complete"),
        _arg("--interval", type=int, required=True, metavar="K",
             help="commit a checkpoint every K steps"),
        _arg("--seed", type=int, default=0, metavar="S", help="seed of the app's initial state"),
        _arg("--shape", default="16,16,8", metavar="X,Y,Z", help="3D grid shape of the proxy app"),
        _arg("--crash-mtbf-ops", type=float, metavar="M",
             help="mean store operations between injected process deaths "
                  "(exponential MTBF); omit to run without crash injection"),
        _arg("--crash-horizon-ops", type=int, metavar="H",
             help="operation horizon the crash schedule is drawn over [default: 20 x MTBF]"),
        _arg("--crash-seed", type=int, default=0, metavar="S", help="seed of the crash schedule"),
        _arg("--max-restarts", type=int, default=100, metavar="R",
             help="give up after R crash/restart cycles"),
        *_RESTORE, _config(CompressionConfig), *_TEMPORAL, _config(ResilienceConfig), _TRACE,
    ), description="Each restart resumes from the newest committed generation and "
        "reaps the torn ones; rework is bounded by --interval."),
    Command("quality", "rate-distortion sweep: Z-checker quality metrics for independent "
            "vs temporal compression over the proxy apps", _cmd_quality, (
        _arg("--bounds", default="1e-2,1e-3,1e-4", metavar="E1,E2,...",
             help="comma-separated absolute error bounds to sweep"),
        _arg("--apps", metavar="A,B,...",
             help="subset of apps to sweep (heat, advection, nbody, shallow_water, "
                  "climate) [default: all five]"),
        _arg("--generations", type=int, default=8, metavar="G",
             help="checkpoint generations per app"),
        _arg("--steps-per-generation", type=int, default=2, metavar="S",
             help="simulation steps between checkpoints"),
        _arg("--scale", type=int, default=1, metavar="X",
             help="multiply the apps' leading dimension"),
        _config(TemporalConfig, "predictor", "keyframe_every"),
        _arg("--out", metavar="PATH",
             help="also write the full sweep as JSON (BENCH_quality.json shape)"),
    ), description="Each arm is scored on the Z-checker quality axes: PSNR, max "
        "pointwise error, spectral and autocorrelation distortion."),
    Command("report", "render the profiling report of --trace JSONL file(s)", _cmd_report, (
        _arg("trace_file", nargs="+",
             help="JSONL trace(s) written by --trace; several files (e.g. a client-side "
                  "and a server-side trace) merge into one report"),
        _arg("--tree", action="store_true", help="also print the indented span tree"),
        _arg("--json", action="store_true", dest="as_json",
             help="emit the report as JSON instead of text"),
        _arg("--check-parentage", action="store_true",
             help="fail (exit 1) if any span references a parent the trace does not "
                  "contain (broken cross-process stitching)"),
    ), description="The report holds the Fig. 9 stage breakdown and the recorded metrics."),
    Command("serve", "run the multi-tenant checkpoint ingest service on a unix socket",
            _cmd_serve, (
        _arg("directory", help="service root (shards live under it)"),
        _arg("--socket", metavar="PATH",
             help="unix socket path [default: <directory>/service.sock]"),
        _arg("--tenant", action="append", required=True, metavar="NAME[:BYTES[:RATE]]",
             help="register a tenant, optionally with a byte quota (suffixes k/m/g) and "
                  "a sustained submits-per-second rate quota; repeat per tenant (e.g. "
                  "--tenant alice:512m:20 --tenant bob)"),
        _arg("--once", action="store_true",
             help="exit after the first client disconnects (tests/smoke runs)"),
        _config(ServiceConfig), _TRACE,
    ), description="Sharded stores, per-tenant namespaces and quotas, burst-buffer "
        "absorb and drain, batched group commits (DESIGN.md section 11)."),
    Command("svc-put", "submit files as one checkpoint generation to a service",
            _cmd_svc_put, (
        _SOCKET,
        _arg("tenant", help="tenant name the generation belongs to"),
        _arg("--step", type=int, required=True, metavar="S", help="generation number to commit"),
        _arg("blobs", nargs="+", metavar="NAME=PATH",
             help="blobs of the generation, as name=file pairs"),
        _TRACE,
    )),
    Command("svc-get", "fetch a committed generation's blobs from a service",
            _cmd_svc_get, (
        _SOCKET,
        _arg("tenant", help="tenant name to read from"),
        _arg("outdir", help="directory the blobs are written into"),
        _arg("--step", type=int, metavar="S",
             help="generation to fetch [default: newest committed]"),
        _TRACE,
    )),
    Command("svc-stats", "print a JSON stats/health snapshot of a service", _cmd_svc_stats, (
        _SOCKET,
        _arg("--health", action="store_true",
             help="exit 2 when the service's SLO error budget is burning"),
    )),
    Command("svc-metrics", "print a service's metrics in Prometheus text format",
            _cmd_svc_metrics, (_SOCKET,)),
    Command("svc-drain", "migrate every generation off one shard so it can be removed",
            _cmd_svc_drain, (
        _SOCKET,
        _arg("shard", help="shard id to drain (e.g. shard-02)"),
        _arg("--remove", action="store_true",
             help="also remove the shard from the ring once it drains empty"),
    ), description="The shard is drained unit by unit, crash-safe.", migrates=True),
    Command("svc-rebalance",
            "converge placements onto the current hash ring (after a shard was added)",
            _cmd_svc_rebalance, (_SOCKET,),
            description="Only the units whose replica set changed move.", migrates=True),
    Command("svc-repair",
            "re-replicate generations written degraded while a replica shard was down",
            _cmd_svc_repair, (_SOCKET,),
            description="Repays the replication-debt ledger.", migrates=True),
)}


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
    for command in COMMANDS.values():
        p = sub.add_parser(command.name, help=command.help, description=command.description)
        for spec in command.arguments:
            spec(p)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # serve hands the sink to its metrics flusher
        with _tracing(args) as args.trace_sink:
            return COMMANDS[args.command].run(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, ServiceUnavailableError):
            # The one failure a human hits constantly: nothing is listening.
            # Say what was tried and the likeliest fix, in one line each.
            print(
                "hint: is 'repro-ckpt serve' running and the socket path "
                "correct? the client gave up after bounded retries instead "
                "of hanging",
                file=sys.stderr,
            )
        return 1
    except BrokenPipeError:  # e.g. `repro report ... | head`
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
