"""Where the shims go, and how spans become the per-layer metrics.

``install_shims`` puts a timing shim on every layer boundary the metrics
of BENCHMARK.json name.  Span names are ``<layer>.<operation>``; the layer
names are this repo's modules.  Targets are the names *callers* resolve:
``repro.core.pipeline`` imports ``wavelet_forward`` into its own namespace,
so that is where the shim must sit.
"""

from __future__ import annotations

import os
import re
import statistics
import time
from typing import Any, Callable, Iterable

from spans import Recorder, Span, current, exclusive_seconds, lint, trees, under

WARMUP_GENERATIONS = 3
#: Traced runs alternate blocks of this many generations with the shims
#: recording and not recording.  Eight is one keyframe cycle of
#: ``lib_temporal``, so both sides of the comparison hold one keyframe.
TRACE_BLOCK = 8


def traced_generation(step: int, block: int = TRACE_BLOCK) -> bool:
    """Whether generation ``step`` of a traced write phase records spans."""
    index = step - WARMUP_GENERATIONS - 1
    return index >= 0 and (index // block) % 2 == 1


def _nbytes(data: Any) -> int:
    try:
        return memoryview(data).nbytes
    except TypeError:
        return len(data)


# -- attribute extractors (run after the call, only while recording) ---------


def _codec_compress_attrs(args, kwargs, result):
    codec = args[0]
    fallback = bool(getattr(codec, "fallback_reason", None)) or (
        getattr(codec, "inner_codec", None) == "zlib-fallback"
    )
    return {"in": _nbytes(args[1]), "out": len(result), "fallback": fallback}


def _codec_decompress_attrs(args, kwargs, result):
    return {"in": _nbytes(args[1]), "out": len(result)}


def _pipeline_enc_attrs(args, kwargs, result):
    stats = result[1]
    return {
        "quantized": int(getattr(stats, "n_quantized", 0)),
        "coefficients": int(getattr(stats, "n_coefficients", 0)),
    }


#: CompressionStats.timings key -> the span name the same work has in-process
_WORKER_STAGES = {
    "wavelet": "core.wavelet.fwd",
    "quantization": "core.quantization",
    "encoding": "core.encoding.enc",
    "formatting": "core.container.write",
    "backend": "lossless.compress",
}


def _executor_map_attrs(args, kwargs, result):
    """What pool workers report back.  The harness cannot put a span inside
    another process from outside, so worker-side stage seconds are taken
    from the ``CompressionStats`` every slab returns."""
    worker = {name: 0.0 for name in _WORKER_STAGES.values()}
    quantized = coefficients = formatted = compressed = 0
    for _blob, stats in result:
        for key, seconds in getattr(stats, "timings", {}).items():
            if key in _WORKER_STAGES:
                worker[_WORKER_STAGES[key]] += float(seconds)
        quantized += int(getattr(stats, "n_quantized", 0))
        coefficients += int(getattr(stats, "n_coefficients", 0))
        formatted += int(getattr(stats, "formatted_bytes", 0))
        compressed += int(getattr(stats, "compressed_bytes", 0))
    return {
        "slabs": len(result),
        "fallback": getattr(args[0], "fallback_reason", None) is not None,
        "worker": worker,
        "quantized": quantized,
        "coefficients": coefficients,
        "in": formatted,
        "out": compressed,
    }


def _temporal_encode_attrs(args, kwargs, result):
    return {"keyframe": bool(result.is_keyframe), "bytes": len(result.blob)}


def _store_root(store: Any) -> str:
    return os.path.basename(getattr(store, "root", "") or "")


def _store_put_attrs(args, kwargs, result):
    return {"bytes": _nbytes(args[2]), "root": _store_root(args[0])}


def _store_get_attrs(args, kwargs, result):
    return {"bytes": len(result), "root": _store_root(args[0])}


def _store_attrs(args, kwargs, result):
    return {"root": _store_root(args[0])}


# -- adoption: find the request a context-less call belongs to ---------------

_TENANT_KEY = re.compile(r"^tenants/([^/]+)/ckpt/(\d+)/")


def _adopt_by_key(rec: Recorder, args: tuple, kwargs: dict) -> Span | None:
    """The burst-buffer drain loop runs in a long-lived task without request
    context; its store writes name the generation in their key."""
    if len(args) < 2 or not isinstance(args[1], str):
        return None
    match = _TENANT_KEY.match(args[1])
    if match is None:
        return None
    return rec.open_tops.get(f"{match.group(1)}/{int(match.group(2))}")


def _subclasses(cls: type) -> Iterable[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def install_shims(rec: Recorder, select: Callable[[int], bool] | None = None) -> None:
    """Install every shim.  ``select(step)`` decides, in the service
    process, whether a submit's generation is recorded (there the top
    span is opened by a shim; in library workloads the harness opens it)."""
    ins = rec.install
    pipeline = "repro.core.pipeline"
    ins(f"{pipeline}:wavelet_forward", "core.wavelet.fwd")
    ins(f"{pipeline}:wavelet_inverse", "core.wavelet.inv")
    for quantizer in ("simple_quantize", "proposed_quantize", "bounded_quantize"):
        ins(f"{pipeline}:{quantizer}", "core.quantization")
    ins(f"{pipeline}:encode_coefficients", "core.encoding.enc")
    ins(f"{pipeline}:decode_coefficients", "core.encoding.dec")
    ins("repro.core.container:write_body", "core.container.write")
    ins("repro.core.container:wrap_envelope", "core.container.write")
    ins("repro.core.container:read_body", "core.container.read")
    ins("repro.core.container:unwrap_envelope", "core.container.read")
    ins(
        f"{pipeline}:WaveletCompressor.compress_with_stats",
        "core.pipeline.enc",
        attrs=_pipeline_enc_attrs,
    )
    ins(f"{pipeline}:WaveletCompressor.decompress", "core.pipeline.dec")
    ins("repro.ckpt.manager:chunked_compress", "core.chunked.enc")
    ins("repro.ckpt.manager:chunked_decompress", "core.chunked.dec")
    ins(
        "repro.parallel.executor:MultiprocessExecutor.compress_slabs",
        "parallel.executor.map",
        attrs=_executor_map_attrs,
    )

    try:
        from repro.lossless import Codec
    except ImportError:
        rec.missing += ["lossless.compress", "lossless.decompress"]
    else:
        for cls in _subclasses(Codec):
            where = f"{cls.__module__}:{cls.__qualname__}"
            if "compress" in vars(cls):
                ins(f"{where}.compress", "lossless.compress", attrs=_codec_compress_attrs)
            if "decompress" in vars(cls):
                ins(
                    f"{where}.decompress",
                    "lossless.decompress",
                    attrs=_codec_decompress_attrs,
                )

    ins(
        "repro.ckpt.temporal:TemporalEngine.encode",
        "ckpt.temporal.encode",
        attrs=_temporal_encode_attrs,
    )
    ins("repro.ckpt.manager:decode_delta", "ckpt.temporal.decode")
    ins("repro.ckpt.journal:CommitTransaction.put_blob", "ckpt.journal.put_blob")
    ins("repro.ckpt.journal:CommitTransaction.seal", "ckpt.journal.seal")

    store = "repro.ckpt.store:DirectoryStore"
    ins(f"{store}.put", "ckpt.store.put", attrs=_store_put_attrs)
    ins(f"{store}.get", "ckpt.store.get", attrs=_store_get_attrs)
    for op in ("sync", "list_keys", "exists", "delete"):
        ins(f"{store}.{op}", f"ckpt.store.{op.removesuffix('_keys')}", attrs=_store_attrs)

    sharded = "repro.service.sharded:ShardedStore"
    for op in ("put", "get", "get_verified", "exists"):
        ins(f"{sharded}.{op}", f"service.sharded.{op}", adopt=_adopt_by_key)
    ins(f"{sharded}.sync", "service.sharded.sync")

    if select is not None:
        _install_service_tops(rec, select)


def _install_service_tops(rec: Recorder, select: Callable[[int], bool]) -> None:
    """Server-side top spans and the two hand-offs between tasks."""

    def make_submit(fn):
        async def submit(self, tenant, step, blobs, **kwargs):
            if not select(int(step)):
                return await fn(self, tenant, step, blobs, **kwargs)
            with rec.top("service.ingest.submit", f"{tenant}/{int(step)}") as span:
                try:
                    return await fn(self, tenant, step, blobs, **kwargs)
                except Exception:
                    span.attrs["refused"] = True
                    raise

        return submit

    def make_restore(fn):
        def restore_blobs(self, tenant, step=None):
            with rec.top("service.ingest.restore", f"{tenant}/{step}"):
                return fn(self, tenant, step)

        return restore_blobs

    def make_absorb(fn):
        async def absorb(self, key, data, **kwargs):
            parent = current()
            if parent is None:
                return await fn(self, key, data, **kwargs)
            span = rec.begin("service.buffer.absorb", parent)
            span.attrs["through"] = len(data) > self.capacity_bytes
            with under(span):
                try:
                    done = await fn(self, key, data, **kwargs)
                finally:
                    span.end = time.perf_counter()
            done.add_done_callback(
                lambda _f: span.attrs.__setitem__(
                    "drain_lag", time.perf_counter() - span.end
                )
            )
            return done

        return absorb

    def make_group_seal(fn):
        def group_seal(items, **kwargs):
            # One call seals a batch.  Its span (and the store work below
            # it) goes to the first recorded generation of the batch; the
            # others get a ``commit_wait`` leaf over the same interval, so
            # every request tree accounts for the seal it waited on.
            tops = [
                rec.open_tops.get(
                    f"{item.store.namespace.rsplit('/', 1)[-1]}/{item.step}"
                )
                for item in items
            ]
            tops = [t for t in tops if t is not None]
            if not tops:
                return fn(items, **kwargs)
            span = rec.begin("ckpt.journal.group_seal", tops[0])
            span.attrs["batch"] = len(items)
            with under(span):
                try:
                    return fn(items, **kwargs)
                finally:
                    span.end = time.perf_counter()
                    for top in tops[1:]:
                        wait = rec.begin("service.ingest.commit_wait", top)
                        wait.start, wait.end = span.start, span.end

        return group_seal

    ingest = "repro.service.ingest"
    rec.replace(f"{ingest}:CheckpointIngestService.submit", "service.ingest.submit", make_submit)
    rec.replace(
        f"{ingest}:CheckpointIngestService.restore_blobs",
        "service.ingest.restore",
        make_restore,
    )
    rec.replace("repro.service.buffer:BurstDrain.absorb", "service.buffer.absorb", make_absorb)
    rec.replace(f"{ingest}:group_seal", "ckpt.journal.group_seal", make_group_seal)


# -- from spans to metrics -----------------------------------------------------


class Generation:
    """One request tree, reduced to what the metrics need."""

    def __init__(self, tree: list[Span]) -> None:
        by_id = {s.sid: s for s in tree}
        self.root = next(s for s in tree if s.parent is None)
        self.phase = self.root.attrs.get("phase", "")
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.sums: dict[tuple[str, str], float] = {}
        #: seconds pool workers report for this generation, by span name;
        #: they overlap in wall-clock and are kept out of the closure
        self.worker_s: dict[str, float] = {}
        self.spans = tree
        has_children = {s.parent for s in tree if s.parent is not None}
        for sid, seconds in exclusive_seconds(tree).items():
            name = by_id[sid].name
            self.self_s[name] = self.self_s.get(name, 0.0) + seconds
        for s in tree:
            self.calls[s.name] = self.calls.get(s.name, 0) + 1
            for key, value in s.attrs.items():
                if isinstance(value, (bool, int, float)):
                    self.sums[(s.name, key)] = self.sums.get((s.name, key), 0) + value
            worker = s.attrs.get("worker")
            # a map span with children ran in-process (serial fallback):
            # the shims below it already recorded the work
            if worker and s.sid not in has_children:
                for name, seconds in worker.items():
                    self.worker_s[name] = self.worker_s.get(name, 0.0) + seconds
                self.calls["lossless.compress"] = (
                    self.calls.get("lossless.compress", 0) + s.attrs["slabs"]
                )
                for key in ("in", "out"):
                    k = ("lossless.compress", key)
                    self.sums[k] = self.sums.get(k, 0) + s.attrs[key]
                for key in ("quantized", "coefficients"):
                    k = ("core.pipeline.enc", key)
                    self.sums[k] = self.sums.get(k, 0) + s.attrs[key]

    def seconds(self, *names: str) -> float:
        return sum(self.self_s.get(n, 0.0) + self.worker_s.get(n, 0.0) for n in names)


def generations(spans: Iterable[Span]) -> list[Generation]:
    return [Generation(tree) for tree in trees(spans).values()]


def sample_trees(spans: Iterable[Span], per_phase: int) -> list[Span]:
    """The spans of the first ``per_phase`` request trees of every phase:
    what goes into the span file.  The metrics are computed from all spans;
    the file is for reading, and a full service run would be 45 MB."""
    roots = {s.sid: s for s in spans if s.parent is None}
    kept: list[Span] = []
    seen: dict[str, int] = {}
    for root_id, tree in sorted(trees(spans).items(), key=lambda kv: roots[kv[0]].start):
        phase = roots[root_id].attrs.get("phase", "")
        seen[phase] = seen.get(phase, 0) + 1
        if seen[phase] <= per_phase:
            kept += sorted(tree, key=lambda s: s.start)
    return kept


def percentile(values: list[float], q: float) -> float | None:
    """``q``-th percentile, or None unless ten samples lie beyond it."""
    if len(values) * (1.0 - q) < 10:
        return None
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def closure(gens: list[Generation]) -> float | None:
    """Sum of all self seconds over sum of top-span seconds (1.0 = closed)."""
    top = sum(g.root.duration for g in gens)
    if top <= 0:
        return None
    return sum(sum(g.self_s.values()) for g in gens) / top


def layer_table(gens: list[Generation], center: Callable) -> dict[str, dict[str, float]]:
    """Per span name: centre and mean of self seconds per generation, calls."""
    names = sorted({n for g in gens for n in (*g.self_s, *g.worker_s)})
    table = {}
    for name in names:
        per_gen = [g.seconds(name) for g in gens]
        table[name] = {
            "self_s": center(per_gen),
            "mean_self_s": statistics.fmean(per_gen),
            "calls_per_generation": statistics.fmean(g.calls.get(name, 0) for g in gens),
            "generations": len(gens),
        }
    return table


_SECONDS = {
    # metric: (phase, span names)
    "core.wavelet.fwd_s": ("write", ("core.wavelet.fwd",)),
    "core.quantization.s": ("write", ("core.quantization",)),
    "core.encoding.enc_s": ("write", ("core.encoding.enc",)),
    "core.container.write_s": ("write", ("core.container.write",)),
    "core.pipeline.enc_self_s": ("write", ("core.pipeline.enc",)),
    "core.wavelet.inv_s": ("read", ("core.wavelet.inv",)),
    "core.encoding.dec_s": ("read", ("core.encoding.dec",)),
    "core.container.read_s": ("read", ("core.container.read",)),
    "core.pipeline.dec_self_s": ("read", ("core.pipeline.dec",)),
    "core.chunked.enc_self_s": ("write", ("core.chunked.enc",)),
    "core.chunked.dec_self_s": ("read", ("core.chunked.dec",)),
    "parallel.executor.map_s": ("write", ("parallel.executor.map",)),
    "lossless.compress_s": ("write", ("lossless.compress",)),
    "lossless.decompress_s": ("read", ("lossless.decompress",)),
    "ckpt.temporal.encode_s": ("write", ("ckpt.temporal.encode",)),
    "ckpt.temporal.decode_s": ("read", ("ckpt.temporal.decode",)),
    "ckpt.manager.checkpoint_self_s": ("write", ("ckpt.manager.checkpoint",)),
    "ckpt.manager.restore_self_s": ("read", ("ckpt.manager.restore",)),
    "ckpt.journal.seal_self_s": ("write", ("ckpt.journal.seal", "ckpt.journal.group_seal")),
    "ckpt.journal.put_blob_self_s": ("write", ("ckpt.journal.put_blob",)),
    "ckpt.store.put_s": ("write", ("ckpt.store.put",)),
    "ckpt.store.sync_s": ("write", ("ckpt.store.sync",)),
    "ckpt.store.get_s": ("read", ("ckpt.store.get",)),
    "service.wire.rtt_overhead_s": ("write", ("service.client.submit",)),
    "service.ingest.submit_self_s": (
        "write",
        ("service.ingest.submit", "service.ingest.commit_wait"),
    ),
    "service.buffer.absorb_s": ("write", ("service.buffer.absorb",)),
    "service.sharded.put_s": ("write", ("service.sharded.put",)),
    "service.sharded.sync_s": ("write", ("service.sharded.sync",)),
    "service.sharded.get_verified_s": ("read", ("service.sharded.get_verified",)),
}

_COUNTS = {
    # metric: (phase, span name, summed attribute or None for calls)
    "lossless.compress_calls": ("write", "lossless.compress", None),
    "lossless.in_bytes": ("write", "lossless.compress", "in"),
    "lossless.out_bytes": ("write", "lossless.compress", "out"),
    "ckpt.store.put_calls": ("write", "ckpt.store.put", None),
    "ckpt.store.sync_calls": ("write", "ckpt.store.sync", None),
    "ckpt.store.put_bytes": ("write", "ckpt.store.put", "bytes"),
    "ckpt.store.list_calls": ("write", "ckpt.store.list", None),
    "ckpt.store.get_calls": ("read", "ckpt.store.get", None),
    "ckpt.store.get_bytes": ("read", "ckpt.store.get", "bytes"),
}

_DERIVED = {
    # metric: (phase, span names it is computed from); see per_layer_metrics
    "core.quantized_share": ("write", ("core.pipeline.enc",)),
    "parallel.executor.workers_effective": ("write", ("parallel.executor.map",)),
    "parallel.executor.serial_fallbacks": ("write", ("parallel.executor.map",)),
    "lossless.compress_mb_s": ("write", ("lossless.compress",)),
    "lossless.decompress_mb_s": ("read", ("lossless.decompress",)),
    "lossless.fallbacks": ("write", ("lossless.compress",)),
    "ckpt.temporal.keyframe_share": ("write", ("ckpt.temporal.encode",)),
    "ckpt.temporal.delta_bytes": ("write", ("ckpt.temporal.encode",)),
    "ckpt.temporal.chain_depth_mean": ("read", ("ckpt.temporal.decode",)),
    "service.ingest.batch_size_mean": ("write", ("ckpt.journal.group_seal",)),
    "service.ingest.group_commits": ("write", ("ckpt.journal.group_seal",)),
    "service.ingest.refused": ("write", ("service.ingest.submit",)),
    "service.buffer.drain_lag_s": ("write", ("service.buffer.absorb",)),
    "service.buffer.write_through": ("write", ("service.buffer.absorb",)),
    "service.sharded.replica_writes_per_put": (
        "write",
        ("service.sharded.put", "ckpt.store.put"),
    ),
    "service.sharded.read_repairs": ("read", ("service.sharded.get_verified",)),
}

#: the layer whose self time is "what no lower layer accounts for"
_TOP_LAYERS = ("ckpt.manager.", "service.client.", "service.ingest.")


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def _center(center: Callable, values: list[float]) -> float:
    return center(values) if values else 0.0


def per_layer_metrics(
    spans: list[Span],
    *,
    service: bool,
    lossy_arrays: int,
    missing: Iterable[str],
    top_durations: dict[str, list[float]],
    untraced_write_durations: list[float],
    extra: dict[str, float | None],
) -> tuple[dict[str, float | None], dict[str, Any]]:
    """Every per-layer metric of BENCHMARK.json (None = not measurable),
    plus the detail block of the ledger (layer tables, closure, lint).

    Library workloads report the *median* self seconds per generation.  The
    service reports the *mean*: one group commit seals a batch, its span
    sits in one generation of the batch, and only the mean amortises it.
    """
    center = statistics.fmean if service else statistics.median
    gone = set(missing)
    by_phase: dict[str, list[Generation]] = {}
    for g in generations(spans):
        by_phase.setdefault(g.phase, []).append(g)
    write, read = by_phase.get("write", []), by_phase.get("read", [])
    out: dict[str, float | None] = {}

    for metric, (phase, names) in _SECONDS.items():
        out[metric] = _center(center, [g.seconds(*names) for g in by_phase.get(phase, [])])
    for metric, (phase, name, attr) in _COUNTS.items():
        out[metric] = _center(center, [
            g.calls.get(name, 0) if attr is None else g.sums.get((name, attr), 0)
            for g in by_phase.get(phase, [])
        ])

    def total(phase_gens: list[Generation], name: str, attr: str) -> float:
        return sum(g.sums.get((name, attr), 0) for g in phase_gens)

    def named(phase_gens: list[Generation], name: str) -> list[Span]:
        return [s for g in phase_gens for s in g.spans if s.name == name]

    def shard_puts_under(phase_gens: list[Generation], parents: tuple[str, ...]) -> int:
        count = 0
        for g in phase_gens:
            names = {s.sid: s.name for s in g.spans}
            count += sum(
                1
                for s in g.spans
                if s.name == "ckpt.store.put"
                and names.get(s.parent) in parents
                and s.attrs.get("root") != "_placement"
            )
        return count

    out["core.quantized_share"] = _ratio(
        total(write, "core.pipeline.enc", "quantized"),
        total(write, "core.pipeline.enc", "coefficients"),
    )
    out["parallel.executor.workers_effective"] = _ratio(
        sum(sum(g.worker_s.values()) for g in write),
        sum(s.duration for s in named(write, "parallel.executor.map")),
    )
    out["parallel.executor.serial_fallbacks"] = total(write, "parallel.executor.map", "fallback")
    out["lossless.compress_mb_s"] = _ratio(
        total(write, "lossless.compress", "in") / 1e6,
        sum(g.seconds("lossless.compress") for g in write),
    )
    out["lossless.decompress_mb_s"] = _ratio(
        total(read, "lossless.decompress", "out") / 1e6,
        sum(g.seconds("lossless.decompress") for g in read),
    )
    out["lossless.fallbacks"] = total(write, "lossless.compress", "fallback")

    encodes = named(write, "ckpt.temporal.encode")
    out["ckpt.temporal.keyframe_share"] = _ratio(
        sum(1 for s in encodes if s.attrs.get("keyframe")), len(encodes)
    )
    delta_bytes = [
        sum(s.attrs["bytes"] for s in named([g], "ckpt.temporal.encode")
            if not s.attrs.get("keyframe", True))
        for g in write
    ]
    out["ckpt.temporal.delta_bytes"] = _center(statistics.median, [b for b in delta_bytes if b])
    out["ckpt.temporal.chain_depth_mean"] = _center(statistics.fmean, [
        g.calls.get("ckpt.temporal.decode", 0) / max(1, lossy_arrays) for g in read
    ])

    seals = named(write, "ckpt.journal.group_seal")
    out["service.ingest.batch_size_mean"] = _center(
        statistics.fmean, [s.attrs["batch"] for s in seals]
    )
    out["service.ingest.group_commits"] = _ratio(len(seals), len(write))
    out["service.ingest.refused"] = total(write, "service.ingest.submit", "refused")
    absorbs = named(write, "service.buffer.absorb")
    out["service.buffer.drain_lag_s"] = _center(
        statistics.median, [s.attrs["drain_lag"] for s in absorbs if "drain_lag" in s.attrs]
    )
    out["service.buffer.write_through"] = sum(1 for s in absorbs if s.attrs.get("through"))
    out["service.sharded.replica_writes_per_put"] = _ratio(
        shard_puts_under(write, ("service.sharded.put",)),
        sum(g.calls.get("service.sharded.put", 0) for g in write),
    )
    out["service.sharded.read_repairs"] = shard_puts_under(
        read, ("service.sharded.get", "service.sharded.get_verified")
    )

    # a metric is not measurable when its phase recorded no generation or
    # when a shim it is computed from found no target
    sources = {
        **_SECONDS,
        **{metric: (phase, (name,)) for metric, (phase, name, _attr) in _COUNTS.items()},
        **_DERIVED,
    }
    for metric, (phase, names) in sources.items():
        if not by_phase.get(phase) or gone.intersection(names):
            out[metric] = None

    for metric, key in (
        ("ckpt.manager.checkpoint_s_p90", "ckpt.manager.checkpoint"),
        ("ckpt.manager.restore_s_p90", "ckpt.manager.restore"),
        ("service.client.put_s_p90", "service.client.submit"),
        ("service.client.get_s_p90", "service.client.restore"),
    ):
        # no such operation in this workload: zero; too few samples: null
        out[metric] = percentile(top_durations[key], 0.90) if key in top_durations else 0.0
    for metric, key in (
        ("service.client.mixed_put_s_p50", "mixed.submit"),
        ("service.client.mixed_get_s_p50", "mixed.restore"),
    ):
        values = top_durations.get(key)
        out[metric] = 0.0 if values is None else (statistics.median(values) if values else None)

    traced_write = [g.root.duration for g in write]
    out["obs.trace_overhead_share"] = (
        statistics.median(traced_write) / statistics.median(untraced_write_durations) - 1.0
        if traced_write and untraced_write_durations
        else None
    )
    timed = write + read
    out["obs.unattributed_share"] = (
        _ratio(
            sum(
                seconds
                for g in timed
                for name, seconds in g.self_s.items()
                if name.startswith(_TOP_LAYERS)
            ),
            sum(g.root.duration for g in timed),
        )
        if timed
        else None
    )
    out.update(extra)

    detail = {
        "statistic": "mean" if service else "median",
        "layers": {phase: layer_table(pg, center) for phase, pg in sorted(by_phase.items())},
        "closure": {phase: closure(pg) for phase, pg in sorted(by_phase.items())},
        "traced_generations": {phase: len(pg) for phase, pg in sorted(by_phase.items())},
        "missing_shims": sorted(gone),
        "lint": lint(spans)[:20],
    }
    return out, detail
