"""Checkpoint manager: writes, verifies and restores whole checkpoints.

Ties together the array registry (what to save), a store (where), and the
compression layer (how): float arrays default to the paper's lossy wavelet
pipeline, everything else to a lossless codec, with per-array overrides.

The write protocol is crash-consistent via the two-phase commit journal
(:mod:`repro.ckpt.journal`): array and parity blobs land under a pending
generation prefix, the manifest follows, a sync barrier makes them durable,
and a tiny commit marker -- published in one atomic put and made durable by
a second barrier before :meth:`CheckpointManager.checkpoint` returns --
makes the generation visible.  :meth:`CheckpointManager.steps` only ever
reports committed generations, so a crash at any instant leaves nothing a
restore could half-trust; :mod:`repro.ckpt.recovery` reaps the debris at
startup.
Every restore verifies blob sizes and CRC32s against the manifest before
any data reaches the application.

With a :class:`~repro.config.ResilienceConfig` the storage path is also
*self-healing*: transient I/O errors are retried with backoff (the store
is wrapped in a :class:`~repro.ckpt.resilience.ResilientStore`), and with
``parity=True`` every checkpoint additionally writes one XOR-parity blob
per array group so a restore or ``verify(repair=True)`` transparently
reconstructs any single corrupt-or-missing blob -- CRC mismatch -> parity
repair -> re-verify -> rewrite the healed blob, all in
:func:`repro.ckpt.redundancy.heal` -- falling back to
:class:`~repro.exceptions.CorruptionError` only when repair is impossible.
"""

from __future__ import annotations

import contextvars
import ctypes
import math
import os
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Iterable, Iterator, Mapping

import numpy as np

from ..config import CompressionConfig, ResilienceConfig, TemporalConfig
from ..core import container
from ..core.chunked import chunked_compress, chunked_decompress
from ..core.pipeline import WaveletCompressor
from ..exceptions import (
    CheckpointError,
    CheckpointNotFoundError,
    CorruptionError,
    FormatError,
    IntegrityError,
    NonFiniteDataError,
    ReproError,
    RestoreError,
    SimulatedCrash,
    StorageError,
)
from ..lossless import get_codec
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from .journal import (
    COMMIT_FORMAT_VERSION,
    CommitJournal,
    CommitTransaction,
    committed_steps,
    load_committed,
    reap_generation,
    scan_generations,
)
from .manifest import (
    ArrayEntry,
    CheckpointManifest,
    array_key,
    validate_app_meta,
)
from .protocol import ArrayRegistry
from .redundancy import RepairEvent, heal, write_parity
from .resilience import ResilientStore, RetryPolicy
from .store import Store
from .temporal import (
    CODEC_DELTA,
    CODEC_KEYFRAME,
    ChainLink,
    EncodedGeneration,
    TemporalEngine,
    chain_closure,
    decode_delta,
    filter_label,
)

__all__ = [
    "CheckpointManager",
    "serialize_array_lossless",
    "deserialize_array",
]

_LOSSLESS_KIND = "lossless-array"
_FLOAT_DTYPES = (np.float32, np.float64)
#: Manifest codecs whose blob is one self-describing pipeline blob.
_LOSSY_CODEC = "wavelet-lossy"
#: The backend of every lossless array this writer stores.
_LOSSLESS_BACKEND = "zlib"
_PIPELINE_CODECS = (_LOSSY_CODEC, CODEC_KEYFRAME)
#: Bodies under two deflate windows are sealed in place: the hand-off
#: costs what their deflate does, and a step counter would hold a slot of
#: the pipeline while the lane runs dry behind it.
_DEFER_MIN_BYTES = 64 * 1024
#: A delta link is handed to the lane from this many *compressed* bytes on:
#: 28 KB of it inflate for ~0.9 ms, the hand-off costs ~0.05.
_PREFETCH_MIN_BYTES = 4 * 1024
#: Links a restore keeps inflated (or inflating) ahead of the one it decodes.
_LOOKAHEAD = 3
#: Bodies a write lets be unsealed (queued or deflating) behind the array
#: it encodes; past that it claims the newest one the lane has not started.
_UNSEALED_MAX = 3

try:  # Linux only; the os module can set a thread's CPUs but not name its CPU
    _sched_getcpu = ctypes.CDLL(None).sched_getcpu if hasattr(os, "sched_setaffinity") else None
except (OSError, AttributeError):  # no libc handle, or none with the call
    _sched_getcpu = None


def _cpus_beside_caller() -> set[int] | None:
    """The CPUs open to the calling thread other than the one it is on now
    (None where the platform cannot tell, or there is no other)."""
    if _sched_getcpu is None:
        return None
    return (os.sched_getaffinity(0) - {_sched_getcpu()}) or None


def _run_on(cpus: set[int] | None) -> None:
    """Confine the calling thread -- the backend lane -- to ``cpus`` (if any).

    A scheduler that wakes the lane on the CPU of the thread that fed it
    and leaves it there (the benchmark's 2-vCPU guest does, for whole
    runs, with the other CPU idle) turns the pipeline serial: one run
    takes the serial write's time, the next 0.7 of it (DESIGN 16)."""
    try:
        if cpus and os.sched_getaffinity(0) != cpus:
            os.sched_setaffinity(0, cpus)
    except OSError:  # cpuset shrank under us, or a sandbox forbids it
        pass


class _Handoff:
    """A stage handed to the lane (:meth:`_Run.defer`), which the calling
    thread may :meth:`claim` while the lane has not started it."""

    def __init__(self, run: "_Run", future: Future, here: Callable[[], Any], codec: str) -> None:
        self.run, self.future, self._here, self._codec = run, future, here, codec
        self.claimed = False

    def claim(self) -> bool:
        """Run the stage here if the lane has not started it, as the lane would."""
        if not self.future.cancel():
            return False
        future: Future = Future()
        try:
            future.set_result((self._here()[0], 0.0))  # no seconds on the lane
        except Exception as exc:  # noqa: BLE001
            future.set_exception(exc)
        self.future, self.claimed = future, True
        self.run.claimed += 1
        get_registry().counter("ckpt.pipeline.claimed", codec=self._codec).inc()
        return True

    def result(self) -> Any:
        """The stage's result (or error); its lane seconds and the caller's
        wait for them go to the run's account."""
        self._here = None  # a stage may refer back to its array: no cycle past here
        if not self.claimed:
            get_registry().counter(self.run.counter, codec=self._codec).inc()
        t0 = time.perf_counter()
        value, seconds = self.future.result()
        self.run.busy += seconds
        # a wait past the stage's own seconds is the lane waking up, not
        # lane work: so waited <= busy and the overlap is never below 0
        self.run.waited += min(time.perf_counter() - t0, seconds)
        return value


class _Run:
    """The lane account of one generation written or restored: the stages
    it hands off (:meth:`defer`), the lane seconds they took (``busy``),
    the caller's wait on them (``waited``) and the claims (``claimed``),
    reported as the generation's overlap (:meth:`report`).  ``counter``
    counts the stages the lane ran (``ckpt.pipeline.deferred`` on writes,
    ``ckpt.pipeline.prefetched`` on restores)."""

    def __init__(self, manager: "CheckpointManager", counter: str) -> None:
        self.manager, self.counter = manager, counter
        # Copied here, not per hand-off: what the lane runs belongs to the
        # generation, which outlives every stage.  The lane enters ``ctx``;
        # a claim runs in a copy of ``unentered``: a copy of ``ctx`` taken
        # while the lane runs in it would carry what the lane's stage set
        # there, such as its open span.
        self.ctx, self.unentered = contextvars.copy_context(), contextvars.copy_context()
        self.started = time.perf_counter()
        self.busy, self.waited, self.claimed = 0.0, 0.0, 0

    def defer(
        self, codec: str, data: Any, stage: Callable[[Any], Any], min_bytes: int, span: Any
    ) -> _Handoff | None:
        """Run ``stage(data)`` -- on a write the backend stage of a body
        (``wrap_envelope``/``Codec.compress``) or a temporal array's whole
        ``TemporalEngine.encode``, on a restore ``WaveletCompressor.unseal``
        of a link's blob; no decisions -- on the lane, in :attr:`ctx` under
        the array's ``span``; returns its :class:`_Handoff`, or None where
        the caller runs the stage itself, at its turn.

        The lane is the manager's own thread, never the shared deflate
        pool: a ``*-mt`` seal parks there waiting for block tasks that an
        outer task on the same pool could starve.  ``workers > 1`` starts
        none (the process pool forks lazily and must not fork a process
        with a live thread) and ``data`` of under ``min_bytes`` is not worth
        the hand-off; where no thread can start nothing is,
        counted under ``fallbacks{kind=serial}``.  The lane keeps off the
        CPU its caller is on at each hand-off (:func:`_run_on`).
        """
        manager = self.manager
        if manager.workers > 1 or memoryview(data).nbytes < min_bytes:
            return None

        beside = _cpus_beside_caller()

        def run(cpus: set[int] | None) -> tuple[Any, float]:
            _run_on(cpus)
            t0 = time.perf_counter()
            with get_tracer().attached(span):
                return stage(data), time.perf_counter() - t0

        try:
            if manager._lane is None:
                manager._lane = ThreadPoolExecutor(
                    max_workers=1, thread_name_prefix="repro-backend"
                )
            future = manager._lane.submit(self.ctx.run, run, beside)
        except (RuntimeError, OSError):  # thread-limited sandbox
            manager.close()
            get_registry().counter("fallbacks", kind="serial").inc()
            return None
        return _Handoff(self, future, lambda: self.unentered.copy().run(run, None), codec)

    @staticmethod
    def settle(handles: list[Any], spans: list[Any]) -> None:
        """The generation failed on the calling thread: cancel the lane
        tasks among ``handles`` that have not started, wait for the one
        that has, close the arrays' open ``spans`` (the links of one chain
        name their array's span once each).  Nothing runs on the lane once
        the error leaves."""
        futures = [h.future for h in handles if isinstance(h, _Handoff)]
        for future in futures:
            future.cancel()
        wait(futures)
        for span in spans:
            if span.end is None:
                get_tracer().finish(span)

    def report(self, root: Any) -> float:
        """Set ``backend_lane_busy_s`` and ``overlap_share`` on the span
        ``root`` (if any) and return the overlap: 1 - wall / (stage seconds
        of both threads), 0 when serial, never below 0."""
        wall = time.perf_counter() - self.started
        overlap = 1.0 - wall / (wall - self.waited + self.busy)
        if root is not None:
            root.set(backend_lane_busy_s=self.busy, overlap_share=overlap)
        return overlap


def _is_count(value: Any) -> bool:
    """An int >= 1; ``True`` is an int to Python, not a count."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


@contextmanager
def _lossless_hint(name: str) -> Iterator[None]:
    """Point a non-finite array at the policy that stores it as it is."""
    try:
        yield
    except NonFiniteDataError as exc:
        raise NonFiniteDataError(
            f"array {name!r}: {exc} (pin it to the lossless path with "
            f"policy={{{name!r}: 'lossless'}} if NaN/Inf are legitimate)"
        ) from exc


def serialize_array_lossless(arr: np.ndarray, codec_name: str, level: int = 6) -> bytes:
    """Bit-exact serialization of any ndarray through a lossless codec.

    The array is handed to the container as is (no ``tobytes()``
    materialization; its item width selects the byte-plane layout).
    """
    return container.wrap_envelope(_lossless_body(arr), codec_name, level)


def _lossless_body(arr: np.ndarray) -> container.Body:
    """The formatted body of :func:`serialize_array_lossless`."""
    a = np.ascontiguousarray(arr)
    header = {
        "kind": _LOSSLESS_KIND,
        "shape": list(a.shape),
        "dtype": a.dtype.str,  # byte-order explicit, e.g. '<f8'
    }
    return container.write_body(header, {"data": a})


def deserialize_array(blob: bytes, codec: str | None = None) -> np.ndarray:
    """Decode a blob written by the lossy pipeline, the chunked container
    or :func:`serialize_array_lossless`.

    ``codec`` is the manifest's codec name for the blob, when the caller
    has one: a pipeline blob then goes straight to its decoder.  Without
    it the kind is read off the magic and the container header.  Either
    way every blob is inflated and parsed once.
    """
    if blob[:4] == container.CHUNK_MAGIC:
        return chunked_decompress(blob)
    if codec in _PIPELINE_CODECS:
        return WaveletCompressor.decompress(blob)
    body, _backend = container.unwrap_envelope(blob)
    header, sections = container.read_body(body)
    if header.get("kind") == _LOSSLESS_KIND:
        shape = container.header_shape(header, what="lossless array")
        try:
            dtype = np.dtype(header["dtype"])
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"lossless array header is malformed: {exc}") from exc
        return container.section_array(
            sections, "data", dtype, what="lossless array", count=math.prod(shape)
        ).reshape(shape).copy()
    return WaveletCompressor.decompress(blob, unseal=lambda _blob: (header, sections))


@dataclass
class _Pending:
    """One array of a generation between its encode and its landing."""

    name: str
    arr: np.ndarray
    span: Any  # the open ``ckpt.array`` span: encode -> landed
    codec: str = ""
    params: Any = None
    #: the blob, a temporal EncodedGeneration, or the lane's _Handoff of either
    sealed: Any = None
    body: bool = False  # a body's backend stage, not a whole encode


@dataclass
class _Link:
    """One blob of a restore between its chain walk and its decode."""

    array: ArrayEntry  # the entry being rebuilt (``entry`` at its last link)
    span: Any  # that array's open ``ckpt.array_load`` span
    entry: ArrayEntry  # the manifest entry of ``blob``
    blob: bytes = b""
    front: _Handoff | None = None  # the inflate handed to the lane
    error: Exception | None = None  # the walk failed: raised at this turn
    #: the temporal engine's reconstruction of the chain up to this link:
    #: nothing to decode, nothing to write into
    recon: np.ndarray | None = None


class CheckpointManager:
    """Write/restore checkpoints of a registry into a store.

    A generation is written as a two-stage pipeline: the calling thread
    runs every NumPy stage and formats each array's body, one backend-lane
    thread (started on first use, stopped by :meth:`close`) deflates the
    bodies queued behind it while the next are produced -- the calling
    thread deflates those the lane has not started rather than wait -- and
    blobs land in registry order on the calling thread: bytes and store
    operations are those of a serial write.  A temporal delta is encoded
    whole, on the lane when it is idle and on the calling thread otherwise;
    keyframes on the calling thread.  One manager serves one caller at a time.

    Parameters
    ----------
    registry:
        The live application arrays (see :class:`ArrayRegistry`).
    store:
        Blob destination.
    config:
        Lossy configuration used for float arrays by default.  Non-float
        arrays (and explicit ``"lossless"`` policy entries) are deflated
        by ``zlib`` at ``config.backend_level``; a reader takes the
        backend from the blob, never from here.
    policy:
        Optional per-array overrides: map an array name to ``"lossy"``,
        ``"lossless"``, or a :class:`CompressionConfig` of its own.  Arrays
        whose values must restore bit-exactly (conserved integer counters,
        RNG state words) should be pinned to ``"lossless"``.
    retention:
        Keep only the newest ``retention`` checkpoints; older ones are
        pruned after every successful write.  ``None`` keeps everything.
    workers:
        When ``> 1``, lossy arrays with more than one leading-axis row are
        written through the chunked container with slab compression fanned
        out to that many worker processes (byte-identical to the serial
        stream; degrades to serial execution when a pool cannot start).
        ``1`` (the default) keeps the single-blob pipeline format.
    chunk_rows:
        Leading-axis slab height used for the chunked path.
    backend_threads:
        When set, overrides ``config.backend_threads`` for the default
        lossy configuration and the lossless path: the final deflate pass
        of each blob runs block-parallel on that many threads when the
        backend is ``gzip-mt``/``zlib-mt``.  Composes
        with ``workers`` (process-level slab parallelism) -- each worker
        process compresses its own slab body with this many threads.
        Output bytes are identical for every value.
    resilience:
        Fault-tolerance knobs (see :class:`~repro.config.ResilienceConfig`).
        ``retries > 0`` wraps the store in a
        :class:`~repro.ckpt.resilience.ResilientStore` (bounded retry with
        deterministic backoff + CRC-aware re-read); ``parity=True`` writes
        one XOR-parity blob per array group and enables transparent
        single-blob reconstruction on restore/verify.  ``None`` keeps the
        historic fail-fast behaviour.
    temporal:
        When set (a :class:`~repro.config.TemporalConfig`), lossy-policy
        float arrays are encoded as temporal deltas against the previous
        *committed* generation's reconstruction, with periodic keyframes
        (see :mod:`repro.ckpt.temporal`).  Restores transparently walk
        the delta chain back to the nearest keyframe; retention pruning
        keeps every generation a retained chain depends on; a fresh
        manager over an existing store seeds its predictor from the
        latest committed generation so chains survive process restarts.
        Temporal arrays bypass the chunked multi-worker path.
    """

    def __init__(
        self,
        registry: ArrayRegistry,
        store: Store,
        *,
        config: CompressionConfig | None = None,
        policy: Mapping[str, Any] | None = None,
        retention: int | None = None,
        workers: int = 1,
        chunk_rows: int = 256,
        backend_threads: int | None = None,
        resilience: ResilienceConfig | None = None,
        temporal: TemporalConfig | None = None,
    ) -> None:
        self.registry = registry
        self.resilience = resilience if resilience is not None else ResilienceConfig()
        if self.resilience.retries > 0 and not isinstance(store, ResilientStore):
            store = ResilientStore(
                store,
                RetryPolicy(
                    max_attempts=self.resilience.retries + 1,
                    base_delay=self.resilience.retry_base_delay,
                ),
            )
        self.store = store
        self.journal = CommitJournal(self.store)
        self.repair_log: list[RepairEvent] = []
        self.config = config if config is not None else CompressionConfig()
        if backend_threads is not None:
            self.config = self.config.replace(backend_threads=backend_threads)
        self.policy = dict(policy or {})
        for name, spec in self.policy.items():
            if not (
                spec in ("lossy", "lossless") or isinstance(spec, CompressionConfig)
            ):
                raise CheckpointError(
                    f"policy for {name!r} must be 'lossy', 'lossless' or a "
                    f"CompressionConfig, got {spec!r}"
                )
        if temporal is not None and not isinstance(temporal, TemporalConfig):
            raise CheckpointError(
                f"temporal must be a TemporalConfig or None, got {temporal!r}"
            )
        # a compression backend that cannot write (unknown, or retired to
        # decode-only) fails here, with the error its first write would raise
        for backend in dict.fromkeys([
            self.config.backend,
            *(s.backend for s in self.policy.values() if isinstance(s, CompressionConfig)),
        ]):
            get_codec(backend).check_writable()
        # a float or bool count fails here, not in _prune after a commit
        if retention is not None and not _is_count(retention):
            raise CheckpointError(f"retention must be an int >= 1 or None, got {retention!r}")
        self.retention = retention
        for knob, value in (("workers", workers), ("chunk_rows", chunk_rows)):
            if not _is_count(value):
                raise CheckpointError(f"{knob} must be an int >= 1, got {value!r}")
        self.workers = workers
        self.chunk_rows = chunk_rows
        self._executor = None  # lazily-started pool, shared across writes
        self._lane: ThreadPoolExecutor | None = None  # backend lane, lazy too
        self.temporal = temporal
        self._temporal_engine = (
            TemporalEngine(temporal) if temporal is not None else None
        )
        self._temporal_seeded = False

    # -- worker pool -----------------------------------------------------------

    def _slab_executor(self):
        """The shared multiprocess executor (created on first use)."""
        if self._executor is None:
            from ..parallel.executor import MultiprocessExecutor

            self._executor = MultiprocessExecutor(self.workers)
        return self._executor

    def close(self) -> None:
        """Shut down the worker pool and the backend lane, whichever was
        started (the next write restarts them).  Idempotent."""
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.close()
        lane, self._lane = self._lane, None
        if lane is not None:
            lane.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "CheckpointManager":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- temporal state --------------------------------------------------------

    def _temporal_chain_indices(self, manifest: CheckpointManifest) -> dict[str, int]:
        """Per-array chain positions of a committed temporal generation."""
        return {
            e.name: int(e.codec_params.get("chain_index", 0))
            for e in manifest.entries
            if e.codec in (CODEC_DELTA, CODEC_KEYFRAME)
        }

    def _seed_temporal_engine(
        self,
        manifest: CheckpointManifest,
        arrays: Mapping[str, np.ndarray],
        chains: Mapping[str, tuple[ChainLink, ...]],
    ) -> None:
        """Point the temporal predictor at the committed generation
        ``manifest`` describes (``arrays`` is that generation, decoded from
        the links ``chains`` name)."""
        assert self._temporal_engine is not None
        chain = self._temporal_chain_indices(manifest)
        self._temporal_engine.seed(
            manifest.step, {n: arrays[n] for n in chain if n in arrays}, chain, chains
        )
        self._temporal_seeded = True

    def _seed_temporal_from_store(self) -> None:
        """Continue an existing store's delta chain from a fresh process.

        Runs once, before the first write: decodes the latest committed
        generation (the exact reconstructions a restore would produce)
        and adopts it as the prediction base with the manifest's chain
        positions, so ``keyframe_every`` keeps counting across restarts.
        """
        if self._temporal_engine is None or self._temporal_seeded:
            return
        self._temporal_seeded = True
        try:
            manifest = load_committed(self.store)
        except CheckpointNotFoundError:
            return
        self._seed_temporal_engine(
            manifest, *self._load(manifest.step, None, manifest, None)
        )

    # -- write ---------------------------------------------------------------

    def _resolve_policy(self, name: str, arr: np.ndarray) -> tuple[str, Any]:
        spec = self.policy.get(name)
        if isinstance(spec, CompressionConfig):
            return "lossy", spec
        if spec == "lossy":
            return "lossy", self.config
        if spec == "lossless":
            return "lossless", _LOSSLESS_BACKEND
        if arr.dtype in [np.dtype(d) for d in _FLOAT_DTYPES]:
            return "lossy", self.config
        return "lossless", _LOSSLESS_BACKEND

    def checkpoint(
        self, step: int, app_meta: Mapping[str, Any] | None = None
    ) -> CheckpointManifest:
        """Write one complete checkpoint for logical ``step``.

        A live failure up to the seal reaps the pending generation; nothing
        after it undoes a committed one -- a retention prune that fails is
        counted (``ckpt.prune.failures``) and left for the next write's.
        """
        if not isinstance(step, (int, np.integer)) or isinstance(step, bool):
            raise CheckpointError(f"step must be an int, got {step!r}")
        step = int(step)
        meta = validate_app_meta(app_meta)
        txn = self.journal.begin(step)  # refuses a negative or committed step
        self._seed_temporal_from_store()
        manifest = self._checkpoint_txn(txn, step, meta)
        if self.retention is not None:
            try:
                self._prune()
            except SimulatedCrash:
                raise  # the process "died" mid-prune: recovery finds the rest
            except ReproError:
                get_registry().counter("ckpt.prune.failures").inc()
        return manifest

    def _encode_array(
        self, p: _Pending, step: int, defer: Callable[..., Any]
    ) -> None:
        """Policy and encode of one array, at its turn in the order.  A
        temporal delta goes to ``defer`` whole -- the engine's finished
        ``EncodedGeneration`` is its unit, blob and all -- and a keyframe
        is encoded here; a single-blob body goes to it after the NumPy
        stages ran here, for its backend stage; a chunked stream is sealed
        here."""
        name, arr = p.name, p.arr
        mode, how = self._resolve_policy(name, arr)
        p.span.set(mode=mode)
        engine = self._temporal_engine
        if mode == "lossy" and engine is not None and engine.eligible(arr):
            def encode(a: np.ndarray) -> EncodedGeneration:
                with get_tracer().attached(p.span), _lossless_hint(name):
                    return engine.encode(name, a, step)

            # A keyframe (one generation in keyframe_every) is encoded here:
            # its working set is ~2.6x a delta's and the lane's arena keeps it
            if engine.keyframe_reason(name, arr) is None:
                p.sealed = defer(self.temporal.codec, arr, encode, idle_only=True)
            else:
                p.sealed = encode(arr)
            return
        with _lossless_hint(name):
            if mode == "lossy" and self.workers > 1 and arr.ndim >= 1 and arr.shape[0] > 1:
                p.sealed = chunked_compress(
                    arr, how, chunk_rows=self.chunk_rows, executor=self._slab_executor()
                )
                p.codec = "wavelet-lossy-chunked"
                p.params = dict(how.to_dict(), chunk_rows=self.chunk_rows)
            elif mode == "lossy":
                compressor = WaveletCompressor(how)
                p.codec, p.params = _LOSSY_CODEC, how.to_dict()
                p.sealed, _stats = compressor.compress_with_stats(
                    arr,
                    seal=lambda body, stats: defer(
                        how.backend, body, partial(compressor.seal, stats=stats, parent=p.span)
                    ),
                )
            else:
                p.codec, p.params = f"lossless:{how}", {}
                p.sealed = defer(
                    how,
                    _lossless_body(arr),
                    partial(container.wrap_envelope, backend=how, level=self.config.backend_level),
                )

    def _checkpoint_txn(
        self, txn: CommitTransaction, step: int, meta: dict[str, Any]
    ) -> CheckpointManifest:
        tracer = get_tracer()
        entries: list[ArrayEntry] = []
        blob_by_name: dict[str, bytes] = {}
        inflight: deque[_Pending] = deque()  # encoded, not landed

        def sealing(p: _Pending) -> bool:
            return isinstance(p.sealed, _Handoff) and not p.sealed.future.done()

        def land() -> None:
            p = inflight[0]  # popped once landed: a failure closes its span
            with tracer.attached(p.span):
                blob = p.sealed
                if isinstance(blob, _Handoff):
                    blob = blob.result()
                if isinstance(blob, EncodedGeneration):
                    p.codec, p.params = blob.codec, blob.params
                    p.span.set(temporal_reason=blob.reason, chain_index=blob.chain_index)
                    if blob.filter is not None:
                        p.span.set(filter=filter_label(blob.filter))
                        get_registry().counter(
                            "ckpt.temporal.filter", kind=blob.filter["kind"]
                        ).inc()
                    blob = blob.blob
                txn.put_blob(array_key(step, p.name), blob)
            inflight.popleft()
            p.span.set(codec=p.codec, stored_bytes=len(blob))
            tracer.finish(p.span)
            blob_by_name[p.name] = blob
            entries.append(
                ArrayEntry(
                    name=p.name,
                    shape=tuple(p.arr.shape),
                    dtype=str(p.arr.dtype),
                    codec=p.codec,
                    codec_params=p.params,
                    raw_bytes=int(p.arr.nbytes),
                    stored_bytes=len(blob),
                    crc32=ArrayEntry.checksum(blob),
                )
            )

        with tracer.span("checkpoint", step=step) as root:
            run = _Run(self, "ckpt.pipeline.deferred")

            def defer(codec: str, data: Any, stage: Callable, idle_only: bool = False) -> Any:
                # ``idle_only``: a whole encode never queues behind the lane's
                # work -- while the lane is busy this thread is the free one
                p, handoff = inflight[-1], None  # the array being encoded
                if not (idle_only and any(map(sealing, inflight))):
                    handoff = run.defer(codec, data, stage, _DEFER_MIN_BYTES, p.span)
                p.body = not idle_only
                return stage(data) if handoff is None else handoff

            def settle_up(final: bool) -> None:
                # Land what is sealed, in order.  Until the registry ends the
                # oldest seal may overlap the next encode: a body until a
                # fourth is unsealed, a whole temporal encode until a second
                # array holds a slot.  Claim the newest unstarted body first.
                while inflight:
                    head = inflight[0]
                    if sealing(head) and not final and (
                        sum(q.body and sealing(q) for q in inflight) <= _UNSEALED_MAX
                        if head.body
                        else sum(sealing(q) or isinstance(q.sealed, EncodedGeneration)
                                 for q in inflight) <= 1
                    ):
                        return
                    if not (sealing(head) and any(
                        q.sealed.claim() for q in reversed(inflight) if q.body and sealing(q)
                    )):
                        land()

            try:
                for name in self.registry.names():
                    arr = np.asarray(self.registry.get(name))
                    p = _Pending(name, arr, tracer.start(
                        "ckpt.array", array=name, nbytes=int(arr.nbytes)
                    ))
                    inflight.append(p)
                    try:
                        with tracer.attached(p.span):
                            self._encode_array(p, step, defer)
                    except Exception:
                        # a serial write raises an earlier array's failure first
                        for q in inflight:
                            if isinstance(q.sealed, _Handoff):
                                q.sealed.result()
                        raise
                    settle_up(final=False)
                settle_up(final=True)
                parity_entries = write_parity(
                    txn, entries, blob_by_name, self.resilience.parity_group_size
                ) if self.resilience.parity else ()
                manifest = CheckpointManifest(
                    step=step, entries=tuple(entries), app_meta=meta,
                    format_version=COMMIT_FORMAT_VERSION,
                    parity=parity_entries,
                )
                txn.seal(manifest)
            except BaseException as exc:
                # only once the lane is settled may the transaction be
                # rolled back (the lane holds no store handle)
                run.settle([p.sealed for p in inflight], [p.span for p in inflight])
                if not isinstance(exc, SimulatedCrash):
                    # a live failure (bad input, compression error, full
                    # store): reap the pending generation so no orphan
                    # outlives the attempt; a crash stays a crash
                    if self._temporal_engine is not None:
                        self._temporal_engine.rollback()
                    try:
                        txn.abort()
                    except StorageError:
                        pass  # recovery will reap it at the next start
                raise
            if self._temporal_engine is not None:
                # The generation is durably committed; only now may the
                # engine predict from it.  A crash before this point
                # leaves the predictor on the last committed generation,
                # exactly what recovery will find in the store.
                self._temporal_engine.commit(
                    step, {e.name: (e.crc32, e.stored_bytes) for e in entries}
                )
            overlap = run.report(root)
            root.set(
                n_arrays=len(entries),
                raw_bytes=sum(e.raw_bytes for e in entries),
                stored_bytes=sum(e.stored_bytes for e in entries),
                claimed=run.claimed,
            )
        registry = get_registry()
        registry.gauge("ckpt.pipeline.overlap_share").set(overlap)
        registry.counter("ckpt.checkpoints").inc()
        registry.counter("ckpt.arrays").inc(len(entries))
        registry.counter("ckpt.raw_bytes").inc(sum(e.raw_bytes for e in entries))
        registry.counter("ckpt.stored_bytes").inc(
            sum(e.stored_bytes for e in entries)
        )
        return manifest

    def _prune(self) -> None:
        committed = {g.step: g.manifest for g in scan_generations(self.store) if g.manifest}
        steps = list(committed)
        retained = steps[max(0, len(steps) - self.retention) :]
        candidates = steps[: max(0, len(steps) - self.retention)]
        if not candidates:
            return
        # Chain-aware: a retained delta generation's restore must walk its
        # chain back to a keyframe, so the base-link closure of every
        # retained step is off-limits regardless of age.  The manifests are
        # the scan's; a base it did not find committed is asked for its reason.
        needed = chain_closure(lambda s: committed.get(s) or self.read_manifest(s), retained)
        for step in candidates:
            if step not in needed:
                self.delete(step)

    # -- enumerate -------------------------------------------------------------

    def steps(self) -> list[int]:
        """Steps of every *committed* checkpoint, ascending.

        Committed is :func:`repro.ckpt.journal.classify`'s definition --
        the marker parses, names its step and seals the manifest actually
        present -- the same one :meth:`restore` and startup recovery
        apply, so a step listed here is a step ``restore(step)`` accepts.
        Torn generations never appear.
        """
        return committed_steps(self.store)

    def read_manifest(self, step: int) -> CheckpointManifest:
        """The manifest of committed generation ``step``, read the one way
        every generation is opened (:func:`~repro.ckpt.journal.load_committed`,
        which raises with the classification reason for any other step)."""
        return load_committed(self.store, step)

    # -- read ------------------------------------------------------------------

    def _collect_verified_blobs(
        self,
        step: int,
        manifest: CheckpointManifest,
        entries: Iterable[ArrayEntry],
        *,
        repair: bool | None,
    ) -> dict[str, bytes]:
        """Verified blob per entry of ``entries`` (entries of generation
        ``step``'s ``manifest``), parity-healing the fixable failures.

        The one detect-retry-repair ladder, for the generation restored and
        for every ancestor its delta chains run through: each blob is read
        (retried and CRC-re-read by a resilient store), failures are
        collected rather than aborting the loop, and -- when ``repair`` is
        on (``None``: exactly when this manifest carries parity) -- each
        parity group with a bad member heals it
        (:func:`~repro.ckpt.redundancy.heal`) from its survivors, read only
        now if they were not asked for.  Anything beyond that raises
        :class:`~repro.exceptions.CorruptionError`.
        """
        blobs: dict[str, bytes] = {}
        bad: dict[str, Exception] = {}

        def fetch(entries: Iterable[ArrayEntry]) -> None:
            # The CRC and length go down the store stack with the read, so
            # whichever layer can heal a mismatch does (a retrying store
            # re-reads before it counts as corruption at rest, a replicated
            # one fails over); a plain store reads and checks once.  What
            # comes back matches the entry.
            for entry in entries:
                if entry.name not in blobs and entry.name not in bad:
                    key = array_key(step, entry.name)
                    try:
                        blobs[entry.name] = self.store.get_verified(
                            key, entry.crc32, entry.stored_bytes
                        )
                    except (StorageError, IntegrityError) as exc:
                        bad[entry.name] = exc

        fetch(entries)
        if repair is None:
            repair = bool(manifest.parity)
        for pe in manifest.parity if bad and repair else ():
            if not bad.keys().isdisjoint(pe.members):
                fetch(map(manifest.entry, pe.members))  # survivors nobody asked for
                self.repair_log.append(heal(
                    self.store, step, manifest, pe, blobs, bad
                ))
        lost = sorted(bad.keys() - blobs.keys())  # in no parity group, or not repaired
        if not lost:
            return blobs
        name, exc = lost[0], bad[lost[0]]
        # point the user at parity the manifest has but was not asked to use
        hint = (
            "parity repair was not attempted (pass --repair / repair=True)"
            if manifest.parity and not repair
            else "no parity repair is available"
        )
        if isinstance(exc, StorageError):
            raise CorruptionError(
                f"checkpoint {step} is missing blob for array {name!r} and "
                f"{hint}: {exc}"
            )
        raise CorruptionError(
            f"array {name!r} of checkpoint {step} is corrupt and "
            f"{hint}: {exc}"
        )

    def _chain(
        self,
        step: int,
        entry: ArrayEntry,
        blob: bytes,
        manifests: dict[int, CheckpointManifest],
        repair: bool | None,
    ) -> list[tuple[int, ArrayEntry, bytes]]:
        """The ``(generation, manifest entry, verified blob)`` links that
        rebuild ``entry``, oldest first: the blob itself, or for a temporal
        delta its keyframe followed by the deltas up to it.

        Follows ``base_step`` links (manifest ``codec_params``) back to the
        nearest keyframe; store reads only, nothing is inflated here.  Each
        ancestor is opened as the generation restored is: its manifest
        through :func:`~repro.ckpt.journal.load_committed`, its blob through
        :meth:`_collect_verified_blobs` with the restore's ``repair``.  Any
        broken link raises a pointed :class:`~repro.exceptions.CorruptionError`
        naming the broken generation.  ``manifests`` holds the ancestor
        manifests read so far for the generation being restored: its arrays
        share their chains, so each ancestor is read once, not once per array.
        """
        name, gen = entry.name, int(step)
        chain = [(gen, entry, blob)]
        visited = {gen}
        while entry.codec == CODEC_DELTA:
            base_step = entry.codec_params.get("base_step")
            if base_step is None:
                raise CorruptionError(
                    f"delta entry {name!r} of checkpoint {gen} records no "
                    "base_step; the manifest is inconsistent"
                )
            gen = int(base_step)
            if gen in visited:
                raise CorruptionError(
                    f"temporal chain of array {name!r} at checkpoint {step} "
                    f"loops back to generation {gen}"
                )
            visited.add(gen)
            if gen not in manifests:
                try:
                    manifests[gen] = self.read_manifest(gen)
                except CheckpointNotFoundError as exc:
                    raise CorruptionError(
                        f"temporal chain of array {name!r} at checkpoint "
                        f"{step} is broken at base generation {gen}: {exc}"
                    ) from exc
            try:
                entry = manifests[gen].entry(name)
            except KeyError as exc:
                raise CorruptionError(
                    f"temporal chain of array {name!r} at checkpoint {step} "
                    f"is broken: generation {gen} does not record "
                    f"that array"
                ) from exc
            blobs = self._collect_verified_blobs(gen, manifests[gen], [entry], repair=repair)
            chain.append((gen, entry, blobs[name]))
        return chain[::-1]

    def load_arrays(self, step: int) -> dict[str, np.ndarray]:
        """Decode every array of checkpoint ``step`` after verifying CRCs.

        Parity reconstruction of corrupt-or-missing blobs, of this
        generation and of every ancestor its delta chains run through, is
        enabled per generation exactly when that generation's manifest
        carries parity groups, so parity-enabled checkpoints heal
        transparently and plain ones keep failing fast.
        """
        return self._load(step, None, None, None)[0]

    def _links(
        self,
        step: int,
        manifest: CheckpointManifest,
        blobs: Mapping[str, bytes],
        repair: bool | None,
        chains: dict[str, tuple[ChainLink, ...]],
    ) -> Iterator[_Link]:
        """A restore as one ordered stream: per manifest entry the blobs it
        inflates, oldest first.  An array's span opens and its chain is
        walked when the consumer's look-ahead pulls its first link.  A
        walk that fails ends the stream with a link carrying the error:
        it belongs to that array's turn, and the serial path reads no
        store key past it.

        Every link is read and verified; where the temporal engine holds
        the reconstruction of a leading part of the chain, that part is
        one link carrying it, and only the links past it are inflated and
        decoded.  ``chains`` receives each array's ``(generation, crc32,
        stored_bytes)`` links, what the engine records when seeded."""
        tracer = get_tracer()
        engine = self._temporal_engine
        ancestors: dict[int, CheckpointManifest] = {}
        for array in manifest.entries:
            span = tracer.start("ckpt.array_load", array=array.name, codec=array.codec)
            try:
                with tracer.attached(span):
                    chain = self._chain(step, array, blobs[array.name], ancestors, repair)
            except Exception as exc:  # noqa: BLE001 - re-raised by _load, in order
                yield _Link(array, span, array, error=exc)
                return
            links = chains[array.name] = tuple(
                (gen, entry.crc32, entry.stored_bytes) for gen, entry, _blob in chain
            )
            reused, recon, source = (
                (0, None, "none") if engine is None else engine.resume_point(array.name, links)
            )
            span.set(chain_links=len(chain), links_decoded=len(chain) - reused, resumed_from=source)
            if recon is not None:
                get_registry().counter("ckpt.restore.links_reused").inc(reused)
                if source == "root":
                    get_registry().counter("ckpt.restore.roots_reused").inc()
                yield _Link(array, span, chain[reused - 1][1], recon=recon)
            for _gen, entry, blob in chain[reused:]:
                yield _Link(array, span, entry, blob)

    def _load(
        self, step: int, repair: bool | None, manifest: CheckpointManifest | None, root: Any
    ) -> tuple[dict[str, np.ndarray], dict[str, tuple[ChainLink, ...]]]:
        """:meth:`load_arrays`, reporting the overlap on the span ``root``,
        and the links each array was rebuilt from (see :meth:`_links`).

        Once the generation's own blobs are verified (and healed), the
        write pipeline mirrored: the lane inflates the next links of
        :meth:`_links` -- pipeline blobs and deltas; at most
        :data:`_LOOKAHEAD` bodies ahead -- while this thread runs the NumPy
        stages of the current one, in order.  A link's inflate needs
        nothing of the generation before it, only its ``pred + q * 2eb``
        does, so a chain replays at the speed of the slower of the two.
        Lossless and chunked blobs decode here, at their turn.
        """
        tracer = get_tracer()
        run = _Run(self, "ckpt.pipeline.prefetched")
        if manifest is None:
            manifest = self.read_manifest(step)
        blobs = self._collect_verified_blobs(step, manifest, manifest.entries, repair=repair)
        arrays: dict[str, np.ndarray] = {}
        chains: dict[str, tuple[ChainLink, ...]] = {}
        stream = self._links(step, manifest, blobs, repair, chains)
        ahead: deque[_Link] = deque()  # [0] is being decoded, the rest inflate

        def look_ahead() -> None:
            while len(ahead) <= _LOOKAHEAD and (link := next(stream, None)) is not None:
                ahead.append(link)
                codec, params = link.entry.codec, link.entry.codec_params
                if link.recon is None and (
                    codec == CODEC_DELTA
                    or (codec in _PIPELINE_CODECS and link.blob[:4] != container.CHUNK_MAGIC)
                ):
                    link.front = run.defer(
                        str(params.get("backend")) if codec == _LOSSY_CODEC else codec,
                        link.blob,
                        partial(WaveletCompressor.unseal, parent=link.span),
                        _PREFETCH_MIN_BYTES if codec == CODEC_DELTA else _DEFER_MIN_BYTES,
                        link.span,
                    )

        def inflated(_blob: bytes) -> tuple[dict, dict]:
            return ahead[0].front.result()

        try:
            look_ahead()
            while ahead:
                link = ahead[0]
                last = link.entry is link.array  # its own blob ends an array's chain
                unseal = inflated if link.front is not None else None
                with tracer.attached(link.span):
                    if link.error is not None:
                        raise link.error
                    if link.recon is not None:
                        # what leaves the restore is never the engine's buffer
                        arr = link.recon.copy() if last else link.recon
                    elif link.entry.codec == CODEC_DELTA:
                        arr = decode_delta(link.blob, arr, unseal=unseal)
                    elif unseal is not None:
                        arr = WaveletCompressor.decompress(link.blob, unseal=unseal)
                    else:
                        arr = deserialize_array(link.blob, link.entry.codec)
                    if last and tuple(arr.shape) != link.array.shape:
                        raise RestoreError(
                            f"array {link.array.name!r} decoded to shape {arr.shape}, "
                            f"manifest records {link.array.shape}"
                        )
                ahead.popleft()
                if last:
                    tracer.finish(link.span)
                    arrays[link.array.name] = arr
                look_ahead()  # outside the span: the next array's is its sibling
        except BaseException:
            run.settle([link.front for link in ahead], [link.span for link in ahead])
            raise
        run.report(root)
        return arrays, chains

    def restore(
        self, step: int | None = None, *, repair: bool | None = None
    ) -> CheckpointManifest:
        """Load checkpoint ``step`` (default: latest) into the registry."""
        # marker + sealed manifest in one pass; for a named step O(1) in the
        # number of generations held (steps() classifies them all)
        manifest = load_committed(self.store, step)
        step = manifest.step
        with get_tracer().span("restore", step=step) as root:
            arrays, chains = self._load(step, repair, manifest, root)
            self.registry.restore(arrays)
        if self._temporal_engine is not None:
            # The application rewound: future deltas must predict from the
            # generation it actually resumed, not from a later write.
            self._seed_temporal_engine(manifest, arrays, chains)
        get_registry().counter("ckpt.restores").inc()
        return manifest

    def verify(
        self,
        step: int,
        *,
        repair: bool = False,
        manifest: CheckpointManifest | None = None,
    ) -> CheckpointManifest:
        """CRC-verify every blob of ``step`` without touching the registry.

        With ``repair=True``, any single corrupt-or-missing member per
        parity group is reconstructed, re-verified and rewritten to the
        store, and a damaged parity blob is re-encoded from its (verified)
        members; only unrepairable damage raises
        :class:`~repro.exceptions.CorruptionError`.  Healed blobs are
        recorded in :attr:`repair_log`.  A caller that has already read the
        step's ``manifest`` passes it in.
        """
        if manifest is None:
            manifest = self.read_manifest(step)
        blobs = self._collect_verified_blobs(step, manifest, manifest.entries, repair=repair)
        for pe in manifest.parity:
            try:
                pe.verify(self.store.get(pe.key))
                continue
            except (StorageError, FormatError) as exc:
                if not repair:
                    raise CorruptionError(
                        f"checkpoint {step}: parity blob {pe.key!r} is "
                        f"corrupt or missing: {exc}"
                    ) from exc
                fault = exc
            self.repair_log.append(heal(
                self.store, step, manifest, pe, blobs, {pe.key: fault}
            ))
        return manifest

    def delete(self, step: int) -> None:
        """Remove checkpoint ``step`` (commit marker first, so it
        disappears atomically from :meth:`steps`; a crash mid-delete
        leaves a torn generation that recovery reaps)."""
        reap_generation(self.store, step)
