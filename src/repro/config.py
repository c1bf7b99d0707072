"""Configuration objects for the lossy checkpoint compressor.

:class:`CompressionConfig` bundles every knob of the four-stage pipeline
described in the paper (wavelet transform -> quantization -> encoding ->
formatting + gzip).  The object is immutable, validates itself eagerly and
serializes to/from a plain dict so it can be embedded in container headers
and checkpoint manifests.

Every knob is declared once, by :func:`knob` on its dataclass field;
:func:`validate_knobs` and ``repro.cli.add_flags`` are driven by that
declaration, and only rules relating two fields are written by hand.
"""

from __future__ import annotations

import dataclasses
import math
import operator
from dataclasses import dataclass
from typing import Any, Callable, ClassVar, Mapping

from .exceptions import ConfigurationError

__all__ = [
    "CompressionConfig",
    "ResilienceConfig",
    "ServiceConfig",
    "TemporalConfig",
    "DEFAULT_BACKEND_BLOCK_BYTES",
    "QUANTIZER_SIMPLE",
    "QUANTIZER_PROPOSED",
    "QUANTIZER_BOUNDED",
    "QUANTIZER_NONE",
    "MAX_LEVELS",
    "knob",
    "validate_knobs",
    "parse_size",
]

#: Quantizer that bins *every* high-frequency coefficient (paper SIII-B1).
QUANTIZER_SIMPLE = "simple"
#: Spike-detecting quantizer that bins only dense partitions (paper SIII-B2).
QUANTIZER_PROPOSED = "proposed"
#: Error-targeted quantizer honouring ``error_bound`` (paper's future work).
QUANTIZER_BOUNDED = "bounded"
#: Disable quantization entirely -- the pipeline becomes lossless.
QUANTIZER_NONE = "none"

_QUANTIZERS = (QUANTIZER_SIMPLE, QUANTIZER_PROPOSED, QUANTIZER_BOUNDED, QUANTIZER_NONE)

#: Sentinel accepted by ``levels`` meaning "recurse until no axis can halve".
MAX_LEVELS = "max"

#: Default cap on the block size of the thread-parallel backends (1 MiB):
#: large enough to amortize per-block deflate reset cost (< 1 % rate
#: loss), small enough that a checkpoint-sized body yields work for every
#: core (:meth:`repro.lossless.deflate.DeflateCodec.effective_block_bytes`).
DEFAULT_BACKEND_BLOCK_BYTES = 1 << 20


def knob(
    default: Any,
    kind: type | None = None,
    *,
    ge: float | None = None,
    gt: float | None = None,
    le: float | None = None,
    lt: float | None = None,
    choices: tuple[str, ...] | None = None,
    optional: bool = False,
    serialized: bool = True,
    sparse: bool = False,
    help: str | None = None,
    flag: str | None = None,
    metavar: str | None = None,
    parse: Callable[[Any], Any] | None = None,
) -> Any:
    """Declare one configuration knob as a dataclass field.

    :func:`validate_knobs` enforces ``kind`` (``int``, ``float``, ``bool``
    or ``str``), the bounds ``ge``/``gt``/``le``/``lt``, ``choices`` and
    ``optional`` (``None`` allowed); a knob without ``kind`` is checked by
    its class.  ``serialized=False`` keeps the knob out of ``to_dict``;
    ``sparse`` records it -- in ``to_dict`` and on the command line -- only
    when it differs from its default.  A knob with ``help`` gets the CLI
    option ``--<flag>`` (default: the field name, dashed) showing
    ``metavar``; the option's value goes through ``parse`` to the field.
    When ``parse`` reads strings the default is spelled as the string a
    user would type (``"64m"``), so option and field cannot disagree.
    """
    meta = {k: v for k, v in locals().items() if v is not None and k != "default"}
    if parse is not None and isinstance(default, str):
        meta["text"] = default
        default = parse(default)
    return dataclasses.field(default=default, metadata=meta)


_KIND_NAMES = {int: "an int", float: "a finite number", bool: "a bool",
               str: "a non-empty str"}
_BOUNDS = (("ge", ">=", operator.ge), ("gt", ">", operator.gt),
           ("le", "<=", operator.le), ("lt", "<", operator.lt))


def _fits(value: Any, kind: type, meta: Mapping[str, Any]) -> bool:
    if value is None:
        return meta["optional"]
    if kind is bool or kind is str:
        ok = isinstance(value, kind) and value != ""
    else:  # a bool is an int to isinstance, and never a count or a delay
        ok = isinstance(value, int if kind is int else (int, float))
        ok = ok and not isinstance(value, bool)
        ok = ok and (isinstance(value, int) or math.isfinite(value))
    if "choices" in meta:
        return ok and value in meta["choices"]
    return ok and all(op(value, meta[key]) for key, _, op in _BOUNDS if key in meta)


def validate_knobs(obj: Any) -> None:
    """Check every :func:`knob` of dataclass instance ``obj`` against its
    declaration; the first misfit raises :class:`ConfigurationError`
    naming the field, what it accepts and what it got."""
    for f in dataclasses.fields(obj):
        meta, value = f.metadata, getattr(obj, f.name)
        kind = meta.get("kind")
        if kind is None or _fits(value, kind, meta):
            continue
        if "choices" in meta:
            accepts = f"one of {meta['choices']}"
        else:
            bounds = [f"{sym} {meta[key]}" for key, sym, _ in _BOUNDS if key in meta]
            accepts = " ".join([_KIND_NAMES[kind], " and ".join(bounds)]).rstrip()
        if meta["optional"]:
            accepts += " or None"
        raise ConfigurationError(f"{f.name} must be {accepts}, got {value!r}")


def parse_size(text: str) -> int:
    """``"512m"`` -> bytes; bare ints pass through."""
    text = str(text).strip().lower()
    mult = 1
    if text and text[-1] in "kmg":
        mult = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30}[text[-1]]
        text = text[:-1]
    try:
        return int(text) * mult
    except ValueError as exc:
        raise ConfigurationError(f"cannot parse size {text!r}: {exc}") from exc


class _Config:
    """What the config dataclasses share: eager validation and dict I/O."""

    def __post_init__(self) -> None:
        validate_knobs(self)

    def replace(self, **changes: Any) -> Any:
        """Return a copy with ``changes`` applied (validates eagerly)."""
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict[str, Any]:
        """Return a JSON-compatible dict describing this configuration.

        A knob declared ``serialized=False`` is *never* included: it is a
        pure execution knob that cannot change the emitted stream, and
        serializing it into container headers would make otherwise-
        identical blobs differ by it.  A ``sparse`` knob (which *does*
        shape the output) is included only when it differs from its
        default, so default-valued configs serialize exactly as they did
        before such a field existed -- container headers (and the
        golden-blob format test) remain byte-stable.
        """
        return {
            f.name: getattr(self, f.name)
            for f in dataclasses.fields(self)
            if f.metadata["serialized"]
            and not (f.metadata["sparse"] and getattr(self, f.name) == f.default)
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> Any:
        """Rebuild a config from :meth:`to_dict` output.

        Unknown keys are rejected so stale container headers fail loudly
        instead of silently dropping parameters.
        """
        unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ConfigurationError(f"unknown {cls.__name__} keys: {sorted(unknown)}")
        return cls(**dict(data))


@dataclass(frozen=True)
class CompressionConfig(_Config):
    """Parameters of the wavelet lossy compression pipeline.

    Parameters
    ----------
    n_bins:
        The *division number* ``n`` from the paper: how many partitions the
        quantizer collapses high-frequency values into.  The paper sweeps
        ``n`` over powers of two from 1 to 128; encoding stores one byte per
        quantized value, so ``1 <= n_bins <= 256``.
    quantizer:
        ``"simple"``, ``"proposed"`` (spike detection, the paper's
        contribution) or ``"none"`` (lossless pipeline).
    spike_partitions:
        The parameter ``d`` from paper Eq. (4): the high-frequency value
        range is cut into ``d`` partitions and only partitions holding at
        least ``N_total / d`` values are quantized.  The paper fixes
        ``d = 64``.  Ignored by the simple quantizer.
    levels:
        Wavelet recursion depth.  ``1`` reproduces a single decomposition;
        ``"max"`` recurses until every axis of the low band is shorter
        than 2.  Deeper levels concentrate more coefficients in high bands
        and typically improve the compression rate.
    backend:
        Name of the lossless codec applied to the formatted container
        (paper SIII-D applies gzip).  ``"zlib"`` deflates in memory;
        ``"tempfile-gzip"`` reproduces the paper's measured temp-file path.
        ``"zstd"`` and ``"lz4"`` are retired: they only read old blobs.
    backend_level:
        Compression level forwarded to the backend when it supports one.
    backend_threads:
        Thread count for the block-parallel backends (``gzip-mt`` /
        ``zlib-mt``); ``None`` lets the codec pick
        one thread per effective core and single-threaded backends ignore
        it.  Purely an execution knob: the emitted stream is
        byte-identical for every thread count, so it is never recorded in
        headers/manifests (see :meth:`_Config.to_dict`).
    backend_block_bytes:
        Block-size *cap* the thread-parallel backends split the formatted
        body into (default 1 MiB; bodies over 1 MiB auto-tune the block
        size downward to a fixed target block count -- a pure function of
        the body length, so the bytes stay deterministic).  Unlike
        ``backend_threads`` this *does* change the emitted bytes for those
        backends; it is serialized only when it differs from the default
        so existing v1 container headers stay byte-stable.
    error_bound:
        Only for ``quantizer="bounded"``: the guaranteed maximum *absolute*
        error of any reconstructed element.  The pipeline derives the
        per-coefficient bound from it (dividing by the number of unit-weight
        error terms in the inverse transform) so the guarantee holds after
        the inverse wavelet transform, not just per coefficient.  Requires
        ``wavelet="haar"`` (the derivation rests on Haar's unit synthesis
        weights).
    wavelet:
        Transform family: ``"haar"`` reproduces the paper; ``"cdf53"`` is
        the JPEG 2000 LeGall lifting wavelet, whose linear prediction
        leaves smaller high bands on smooth data (lower error at a similar
        rate -- see the wavelet ablation bench).
    """

    n_bins: int = knob(
        128, int, ge=1, le=256, metavar="N",
        help="division number n (paper Fig. 4), 1-256, one byte per index",
    )
    quantizer: str = knob(
        QUANTIZER_PROPOSED, str, choices=_QUANTIZERS, help="quantization method"
    )
    spike_partitions: int = knob(
        64, int, ge=1, metavar="D", help="spike-detection partition count d"
    )
    levels: int | str = knob(
        "3", metavar="L", help="wavelet recursion depth (int or 'max')",
        # text that is no integer reaches __post_init__ as it is
        parse=lambda text: int(text) if text.lstrip("-").isdigit() else text,
    )
    backend: str = knob(
        "zlib", str,
        help="lossless backend applied to the container; 'gzip-mt'/'zlib-mt' "
             "compress blocks on a shared thread pool ('zstd'/'lz4' are "
             "retired: they read old blobs and refuse to write)",
    )
    backend_level: int = knob(
        6, int, ge=0, le=9, metavar="LVL", help="backend compression level 0-9"
    )
    error_bound: float | None = knob(
        None, float, gt=0, optional=True, metavar="E",
        help="guaranteed max absolute element error (quantizer 'bounded' only)",
    )
    wavelet: str = knob(
        "haar", str, choices=("haar", "cdf53"),
        help="transform family: the paper's haar or JPEG 2000 cdf53",
    )
    backend_threads: int | None = knob(
        None, int, ge=1, optional=True, serialized=False, metavar="T",
        help="thread count for the block-parallel backends "
             "(gzip-mt/zlib-mt); output bytes are identical for "
             "every T; unset = one per effective core",
    )
    backend_block_bytes: int = knob(
        DEFAULT_BACKEND_BLOCK_BYTES, int, ge=1, sparse=True, metavar="B",
        help="block-size cap the threaded backends split the body into; "
             "large bodies auto-tune below the cap deterministically",
    )

    def __post_init__(self) -> None:
        super().__post_init__()
        depth = {"ge": 1, "optional": False}
        if self.levels != MAX_LEVELS and not _fits(self.levels, int, depth):
            raise ConfigurationError(
                f"levels must be an int >= 1 or 'max', got {self.levels!r}"
            )
        if self.quantizer == QUANTIZER_BOUNDED:
            if self.error_bound is None:
                raise ConfigurationError(
                    "quantizer='bounded' requires a positive error_bound, got None"
                )
            if self.wavelet != "haar":
                raise ConfigurationError(
                    "quantizer='bounded' requires wavelet='haar': the error "
                    "guarantee is derived from Haar's unit-weight synthesis, "
                    "which the CDF 5/3 lifting steps do not have"
                )
        elif self.error_bound is not None:
            raise ConfigurationError(
                f"error_bound only applies to quantizer='bounded', not "
                f"{self.quantizer!r}"
            )


#: Predictor that uses the previous generation's reconstruction directly.
PREDICTOR_PREVIOUS = "previous"
#: Predictor that smooths the previous reconstruction to its wavelet low
#: band first (robust when per-step noise dominates the signal).
PREDICTOR_LOWBAND = "lowband"

_PREDICTORS = (PREDICTOR_PREVIOUS, PREDICTOR_LOWBAND)


@dataclass(frozen=True)
class TemporalConfig(_Config):
    """How checkpoints exploit correlation *across* generations.

    Consumed by :class:`repro.ckpt.temporal.TemporalEngine` and, through
    the ``temporal=`` parameter, by
    :class:`repro.ckpt.manager.CheckpointManager`: generation ``N`` is
    predicted from the reconstruction of generation ``N-1`` and only the
    quantized residual is stored.  Because the prediction always uses the
    *decoded* previous generation, the configured ``error_bound`` holds
    per generation and never compounds along the chain.

    Parameters
    ----------
    error_bound:
        Guaranteed maximum absolute error of any reconstructed element,
        for keyframes and delta generations alike.
    predictor:
        ``"previous"`` predicts generation N by the reconstruction of
        N-1 verbatim; ``"lowband"`` predicts by its wavelet low band
        (high-frequency coefficients zeroed), which shrinks residuals
        when the field moves smoothly under per-step noise.
    keyframe_every:
        Longest allowed chain: after this many generations since the
        last keyframe a fresh self-contained keyframe is forced,
        bounding restore cost.

    Constants of the temporal path, not settings: every blob, keyframe or
    delta, is deflated by ``codec`` at ``codec_level``; the ``"lowband"``
    predictor decomposes ``lowband_levels`` deep (a delta records the
    depth it was written with, and its decoder reads it from there); and
    ``drift_slack`` is the fractional tolerance on the *measured*
    per-generation error before a drift fallback forces a keyframe --
    float rounding of the residual arithmetic, nothing more.
    """

    codec: ClassVar[str] = "zlib"
    codec_level: ClassVar[int] = 6
    lowband_levels: ClassVar[int] = 2
    drift_slack: ClassVar[float] = 1e-6

    error_bound: float = knob(
        1e-3, float, gt=0, flag="bound", metavar="E",
        help="guaranteed max absolute element error of the temporal path",
    )
    predictor: str = knob(
        PREDICTOR_PREVIOUS, str, choices=_PREDICTORS,
        help="predict generation N from the previous reconstruction "
             "verbatim, or from its wavelet low band",
    )
    keyframe_every: int = knob(
        8, int, ge=1, metavar="K",
        help="force a self-contained keyframe after K generations",
    )

    def keyframe_config(self) -> "CompressionConfig":
        """The bounded-quantizer pipeline configuration keyframes use."""
        return CompressionConfig(
            quantizer=QUANTIZER_BOUNDED,
            error_bound=self.error_bound,
            wavelet="haar",
            backend=self.codec,
            backend_level=self.codec_level,
        )


@dataclass(frozen=True)
class ResilienceConfig(_Config):
    """How the checkpoint storage path survives faults.

    Bundles the two independent remedies of the self-healing store: bounded
    retry with exponential backoff (transient I/O errors) and XOR-parity
    redundancy (corrupt-or-missing blobs at rest).  Nothing here changes
    the bytes of any array blob -- a parity-enabled checkpoint stores
    *extra* parity blobs and records them in the manifest, but every array
    blob is identical to a parity-free write.

    Parameters
    ----------
    retries:
        Extra attempts per ``put``/``get`` after the first failure
        (``0`` keeps the old fail-fast behaviour).  Always bounded.
    retry_base_delay:
        Backoff before the first retry, in seconds; doubles per retry up
        to the cap of :class:`~repro.ckpt.resilience.RetryPolicy`.
    parity:
        Write one XOR-parity blob per array group at checkpoint time and
        use it to reconstruct any single corrupt-or-missing blob on
        restore/verify.
    parity_group_size:
        Arrays per parity group (manifest order); ``None`` puts every
        array of the checkpoint into one group.  Smaller groups tolerate
        more simultaneous failures (one per group) at proportionally more
        parity storage.

    A healed blob is always written back to the store, so the next
    reader finds it intact.
    """

    retries: int = knob(
        0, int, ge=0, metavar="N",
        help="extra attempts per store operation after a failure, with "
             "exponential backoff + jitter (0 = fail fast)",
    )
    retry_base_delay: float = knob(
        0.05, float, ge=0, metavar="S",
        help="backoff before the first retry, in seconds; doubles per retry",
    )
    parity: bool = knob(
        False, bool,
        help="write an XOR-parity blob per array group; restore/verify "
             "can then reconstruct any single corrupt-or-missing blob",
    )
    parity_group_size: int | None = knob(
        None, int, ge=1, optional=True, metavar="G",
        help="arrays per parity group; unset = all arrays in one group",
    )


@dataclass(frozen=True)
class ServiceConfig(_Config):
    """Sizing of the multi-tenant checkpoint ingest service.

    Consumed by :func:`repro.service.ingest.build_service` and the
    ``repro-ckpt serve`` CLI.  Nothing here changes stored bytes -- only how the service shards, buffers and
    batches them.

    Parameters
    ----------
    shards:
        Backend store count the consistent-hash ring places generations
        across.
    buffer_capacity_bytes:
        Burst-buffer capacity (bytes queued for the drain); beyond it
        submits feel backpressure and oversized blobs write through to the
        slow tier.
    drain_workers:
        Background workers moving absorbed blobs to the slow tier.
    max_batch:
        Most generations one group commit may seal; ``1`` disables
        batching (per-generation barriers).
    durability:
        Shard-store durability mode: ``"batch"`` defers fsyncs to the
        group commit's sync barriers (the amortization the service
        exists for); ``"always"`` fsyncs every put.
    slo_latency_p99:
        Ingest-latency objective in seconds: a submit slower than this is
        *bad* for SLO accounting.  ``None`` disables SLO tracking.
    slo_objective:
        Target good fraction in ``(0, 1)``; ``1 - slo_objective`` is the
        error budget the burn-rate windows measure against.
    metrics_flush_interval:
        Seconds between background metric-snapshot emissions to the trace
        sink while serving; ``0`` disables the flusher.
    replication:
        Distinct shards each generation is written to (hashring successor
        walk).  ``1`` keeps the pre-replication single-copy behavior;
        ``2`` survives any single shard loss.  Clamped by the number of
        shards actually present.
    """

    shards: int = knob(
        4, int, ge=1, metavar="N", help="backend store shards under the service root"
    )
    buffer_capacity_bytes: int = knob(
        "64m", int, ge=1, flag="buffer-bytes", metavar="B", parse=parse_size,
        help="burst-buffer absorb capacity (suffixes k/m/g)",
    )
    drain_workers: int = knob(
        2, int, ge=1, metavar="W", help="background drain workers"
    )
    max_batch: int = knob(
        32, int, ge=1, metavar="G",
        help="most generations one group commit may seal (1 = no batching)",
    )
    durability: str = knob(
        "batch", str, choices=("batch", "always"),
        help="shard fsync mode: 'batch' defers fsyncs to commit barriers, "
             "'always' fsyncs every put",
    )
    slo_latency_p99: float | None = knob(
        1.0, float, gt=0, optional=True, flag="slo-p99", metavar="SEC",
        parse=lambda seconds: seconds if seconds > 0 else None,
        help="ingest-latency objective in seconds (submits slower than "
             "this burn the error budget); 0 disables SLO tracking",
    )
    slo_objective: float = knob(
        0.995, float, gt=0, lt=1, metavar="FRAC",
        help="target good fraction, 1-FRAC is the error budget",
    )
    metrics_flush_interval: float = knob(
        0.0, float, ge=0, flag="metrics-interval", metavar="SEC",
        help="emit metric snapshots to the --trace sink every SEC seconds "
             "while serving (0 = only at shutdown)",
    )
    replication: int = knob(
        1, int, ge=1, metavar="R",
        help="distinct shards each generation is written to; 2 survives "
             "any single shard loss",
    )

