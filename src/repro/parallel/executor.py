"""Process-parallel slab compression executors.

The paper's scaling argument (Section IV-D, Fig. 9) rests on every rank
compressing its slab independently -- "compression of checkpoints of each
process can be done in an embarrassingly parallel fashion".  The I/O model
(:mod:`repro.iomodel.scaling`) *models* that parallelism as a constant
per-process cost.  This module makes the parallelism real on one node: a
:class:`SlabExecutor` maps a list of slabs through the wavelet pipeline and
returns ``(blob, CompressionStats)`` per slab, either in-process
(:class:`SerialExecutor`) or fanned out to worker processes
(:class:`MultiprocessExecutor`, built on
:class:`concurrent.futures.ProcessPoolExecutor`).

Two guarantees shape the design:

* **Determinism** -- the pipeline is a pure function of ``(slab, config)``,
  so executors return results in submission order and the bytes are
  identical no matter how many workers ran.  ``chunked_compress(...,
  workers=N)`` therefore produces byte-identical streams for every ``N``.
* **Graceful degradation** -- sandboxes, restricted containers and
  single-core boxes may refuse to start a process pool.  When that happens
  (or a started pool breaks mid-flight) the multiprocess executor falls
  back to serial execution instead of failing the checkpoint, recording
  why in :attr:`MultiprocessExecutor.fallback_reason`.
"""

from __future__ import annotations

import os
import time
from abc import ABC, abstractmethod
from typing import Callable, Sequence

import numpy as np

from ..config import CompressionConfig
from ..core.pipeline import CompressionStats, WaveletCompressor
from ..exceptions import ConfigurationError
from ..obs import trace as _trace
from ..obs.metrics import get_registry
from ..obs.trace import Span, get_tracer

__all__ = [
    "SlabExecutor",
    "SerialExecutor",
    "MultiprocessExecutor",
    "resolve_executor",
    "aggregate_stats",
    "default_worker_count",
]


def default_worker_count() -> int:
    """Worker count used when a pool size is not given: one per core."""
    return max(1, os.cpu_count() or 1)


def _compress_slab(
    config: CompressionConfig, slab: np.ndarray
) -> tuple[bytes, CompressionStats]:
    """Worker-side unit of work; module-level so it pickles."""
    return WaveletCompressor(config).compress_with_stats(slab)


def _compress_slab_traced(
    config: CompressionConfig,
    slab: np.ndarray,
    index: int,
    parent_ctx: dict | None,
) -> tuple[bytes, CompressionStats, list[Span]]:
    """Traced worker-side unit of work: compress one slab under a fresh
    local tracer and ship the finished spans home with the result.

    A brand-new :class:`~repro.obs.trace.Tracer` is swapped in for the
    duration of the call so state inherited across ``fork`` -- an enabled
    parent tracer, buffered spans, sink file descriptors shared with the
    parent process -- can never leak into (or out of) the worker.  The
    ``slab`` span is parented on the caller's span context, so adopted
    spans slot under the parent's ``chunked_compress``/``compress`` tree;
    ids embed the worker PID, so they cannot collide with parent ids.
    """
    tracer = _trace.Tracer()
    tracer.enable()
    previous = _trace.swap_tracer(tracer)
    try:
        with tracer.span("slab", parent=parent_ctx, index=index):
            blob, stats = WaveletCompressor(config).compress_with_stats(slab)
    finally:
        _trace.swap_tracer(previous)
    return blob, stats, tracer.drain()


class SlabExecutor(ABC):
    """Maps slabs through the compression pipeline, preserving order.

    Implementations are context managers; :meth:`close` releases any
    worker processes and is idempotent.
    """

    name: str = "abstract"

    @abstractmethod
    def compress_slabs(
        self, slabs: Sequence[np.ndarray], config: CompressionConfig
    ) -> list[tuple[bytes, CompressionStats]]:
        """Compress every slab; result ``i`` corresponds to ``slabs[i]``."""

    def close(self) -> None:
        """Release worker resources (no-op for in-process executors)."""

    def __enter__(self) -> "SlabExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class SerialExecutor(SlabExecutor):
    """Compress slabs one after another in the calling process."""

    name = "serial"

    def compress_slabs(
        self, slabs: Sequence[np.ndarray], config: CompressionConfig
    ) -> list[tuple[bytes, CompressionStats]]:
        tracer = get_tracer()
        compressor = WaveletCompressor(config)
        results = []
        for index, slab in enumerate(slabs):
            with tracer.span("slab", index=index):
                results.append(compressor.compress_with_stats(slab))
        return results


class MultiprocessExecutor(SlabExecutor):
    """Fan slab compression out to a :class:`ProcessPoolExecutor`.

    Parameters
    ----------
    workers:
        Pool size; defaults to one worker per core.
    fallback:
        When True (the default), any failure to start or keep a pool --
        ``PermissionError`` in sandboxes, a fork bomb limit, a worker
        killed by the OOM killer -- downgrades to serial execution for
        the affected call instead of raising.  The reason is recorded in
        :attr:`fallback_reason` so callers can report it.
    """

    name = "multiprocess"

    def __init__(
        self,
        workers: int | None = None,
        *,
        fallback: bool = True,
        _pool_factory: Callable[..., object] | None = None,
    ) -> None:
        if workers is None:
            workers = default_worker_count()
        if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
            raise ConfigurationError(f"workers must be an int >= 1, got {workers!r}")
        self.workers = workers
        self._fallback = fallback
        self._pool_factory = _pool_factory
        self._pool: object | None = None
        self.fallback_reason: str | None = None

    def _make_pool(self) -> object:
        if self._pool_factory is not None:
            return self._pool_factory(max_workers=self.workers)
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor(max_workers=self.workers)

    def _ensure_pool(self) -> object | None:
        """Start (or reuse) the pool; None means 'run serially'."""
        if self._pool is not None:
            return self._pool
        try:
            self._pool = self._make_pool()
        except Exception as exc:  # sandboxed/locked-down environments
            if not self._fallback:
                raise ConfigurationError(
                    f"cannot start a {self.workers}-worker process pool: {exc}"
                ) from exc
            self.fallback_reason = f"pool start failed: {exc}"
            self._pool = None
        return self._pool

    def compress_slabs(
        self, slabs: Sequence[np.ndarray], config: CompressionConfig
    ) -> list[tuple[bytes, CompressionStats]]:
        if len(slabs) <= 1:
            # Nothing to overlap; skip pickling the slab to a worker.
            return SerialExecutor().compress_slabs(slabs, config)
        pool = self._ensure_pool()
        if pool is not None:
            tracer = get_tracer()
            traced = tracer.enabled
            wall_start = time.perf_counter()
            futures = []
            try:
                if traced:
                    ctx = tracer.context()
                    futures = [
                        pool.submit(_compress_slab_traced, config, slab, i, ctx)
                        for i, slab in enumerate(slabs)
                    ]
                else:
                    futures = [
                        pool.submit(_compress_slab, config, slab) for slab in slabs
                    ]
                if traced:
                    results = []
                    worker_spans: list[list[Span]] = []
                    for f in futures:
                        blob, stats, spans = f.result()
                        results.append((blob, stats))
                        worker_spans.append(spans)
                    # Adopt in slab order so the parent trace lists slab
                    # spans deterministically, not in completion order.
                    for spans in worker_spans:
                        tracer.adopt(spans)
                else:
                    results = [f.result() for f in futures]
            except Exception as exc:  # BrokenProcessPool and friends
                for f in futures:
                    f.cancel()
                self.close()
                if not self._fallback:
                    raise ConfigurationError(
                        f"process pool failed while compressing slabs: {exc}"
                    ) from exc
                self.fallback_reason = f"pool broke mid-flight: {exc}"
            else:
                self._observe_pool_run(results, time.perf_counter() - wall_start)
                return results
        # Determinism makes the serial fallback transparent: same bytes.
        return SerialExecutor().compress_slabs(slabs, config)

    def _observe_pool_run(
        self,
        results: Sequence[tuple[bytes, CompressionStats]],
        wall_seconds: float,
    ) -> None:
        """Record pool-level metrics the workers cannot (their registries
        die with them): per-slab stats, slab durations, utilization."""
        registry = get_registry()
        compute = 0.0
        for _blob, stats in results:
            registry.observe_stats(stats)
            seconds = stats.total_compression_seconds
            compute += seconds
            registry.histogram("executor.slab_seconds").observe(seconds)
        registry.counter("executor.slabs").inc(len(results))
        registry.counter("executor.pool_runs").inc()
        registry.gauge("executor.workers").set(self.workers)
        if wall_seconds > 0:
            registry.gauge("executor.utilization").set(
                compute / (wall_seconds * self.workers)
            )

    def close(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)


def resolve_executor(
    workers: int | None, executor: SlabExecutor | None = None
) -> tuple[SlabExecutor, bool]:
    """Pick an executor for a ``workers=N`` request.

    Returns ``(executor, owned)`` where ``owned`` tells the caller whether
    it created the executor (and must close it) or borrowed one.
    ``workers`` of ``None`` or ``1`` means serial; ``N > 1`` builds a
    multiprocess executor with graceful serial fallback.
    """
    if executor is not None:
        if not isinstance(executor, SlabExecutor):
            raise ConfigurationError(f"not a SlabExecutor: {executor!r}")
        return executor, False
    if workers is None:
        return SerialExecutor(), True
    if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
        raise ConfigurationError(f"workers must be an int >= 1, got {workers!r}")
    if workers == 1:
        return SerialExecutor(), True
    return MultiprocessExecutor(workers), True


def aggregate_stats(
    per_slab: Sequence[CompressionStats],
    *,
    stream_bytes: int | None = None,
) -> CompressionStats:
    """Combine per-slab stats into one Fig. 9-style breakdown.

    Sizes and counts are summed; per-stage timings are summed key-wise, so
    the aggregate ``timings`` still decomposes total cost into the paper's
    wavelet/quantization/encoding/formatting/backend bars.  When
    ``stream_bytes`` is given it overrides the summed compressed size
    (accounting for chunk framing overhead of the enclosing container).
    """
    agg = CompressionStats()
    for stats in per_slab:
        agg.original_bytes += stats.original_bytes
        agg.formatted_bytes += stats.formatted_bytes
        agg.compressed_bytes += stats.compressed_bytes
        agg.n_coefficients += stats.n_coefficients
        agg.n_quantized += stats.n_quantized
        agg.applied_levels = max(agg.applied_levels, stats.applied_levels)
        for key, seconds in stats.timings.items():
            agg.timings[key] = agg.timings.get(key, 0.0) + seconds
        if agg.config is None:
            agg.config = stats.config
    if stream_bytes is not None:
        agg.compressed_bytes = int(stream_bytes)
    return agg
