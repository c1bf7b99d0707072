"""Process-parallel slab compression.

The paper's scaling argument (Section IV-D, Fig. 9) rests on every rank
compressing its slab independently -- "compression of checkpoints of each
process can be done in an embarrassingly parallel fashion".  The I/O model
(:mod:`repro.iomodel.scaling`) *models* that parallelism as a constant
per-process cost.  This module makes the parallelism real on one node: a
:class:`MultiprocessExecutor` maps a list of slabs through the wavelet
pipeline on a :class:`concurrent.futures.ProcessPoolExecutor` and returns
``(blob, CompressionStats)`` per slab.

Two guarantees shape the design:

* **Determinism** -- the pipeline is a pure function of ``(slab, config)``,
  so results come back in submission order and the bytes are identical no
  matter how many workers ran.  ``chunked_compress(..., workers=N)``
  therefore produces byte-identical streams for every ``N``.
* **Graceful degradation** -- sandboxes, restricted containers and
  single-core boxes may refuse to start a process pool.  When that happens
  (or a started pool breaks mid-flight) the executor runs the slabs in its
  own process instead of failing the checkpoint, recording why in
  :attr:`MultiprocessExecutor.fallback_reason`.  One worker or one slab
  runs there too: there is nothing to overlap.
"""

from __future__ import annotations

import time
from typing import Callable, Sequence

import numpy as np

from ..config import CompressionConfig
from ..core.pipeline import CompressionStats, WaveletCompressor
from ..exceptions import ConfigurationError
from ..obs import trace as _trace
from ..obs.metrics import get_registry
from ..obs.trace import Span, get_tracer

__all__ = ["MultiprocessExecutor", "aggregate_stats"]


def _compress_slab(
    config: CompressionConfig,
    slab: np.ndarray,
    index: int,
    parent_ctx: dict | None,
) -> tuple[bytes, CompressionStats, list[Span]]:
    """Worker-side unit of work (module-level so it pickles): compress one
    slab and ship its finished spans home with the result -- none while
    the caller's tracer is off (``parent_ctx`` is None).

    A brand-new :class:`~repro.obs.trace.Tracer` is swapped in for the
    duration of a traced call so state inherited across ``fork`` -- an
    enabled parent tracer, buffered spans, sink file descriptors shared
    with the parent process -- can never leak into (or out of) the worker.
    The ``slab`` span is parented on the caller's span context, so adopted
    spans slot under the parent's ``chunked_compress``/``compress`` tree;
    ids embed the worker PID, so they cannot collide with parent ids.
    """
    if parent_ctx is None:
        return (*WaveletCompressor(config).compress_with_stats(slab), [])
    tracer = _trace.Tracer()
    tracer.enable()
    previous = _trace.swap_tracer(tracer)
    try:
        with tracer.span("slab", parent=parent_ctx, index=index):
            blob, stats = WaveletCompressor(config).compress_with_stats(slab)
    finally:
        _trace.swap_tracer(previous)
    return blob, stats, tracer.drain()


class MultiprocessExecutor:
    """Map slabs through the compression pipeline, preserving order.

    Parameters
    ----------
    workers:
        Pool size.  With one worker or one slab, and for a call whose pool
        will not start or breaks mid-flight (``PermissionError`` in
        sandboxes, a fork limit, a worker killed by the OOM killer), the
        slabs run one after another in this process -- the same bytes --
        and the pool failure is recorded in :attr:`fallback_reason`, which
        describes the last call only (``None`` when it ran on the pool or
        needed none).

    A context manager; :meth:`close` releases the worker processes (the
    next call restarts them) and is idempotent.
    """

    def __init__(
        self, workers: int, *, _pool_factory: Callable[..., object] | None = None
    ) -> None:
        if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
            raise ConfigurationError(f"workers must be an int >= 1, got {workers!r}")
        self.workers = workers
        self._pool_factory = _pool_factory
        self._pool: object | None = None
        self.fallback_reason: str | None = None

    def __enter__(self) -> "MultiprocessExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _make_pool(self) -> object:
        if self._pool_factory is not None:
            return self._pool_factory(max_workers=self.workers)
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor(max_workers=self.workers)

    def _ensure_pool(self) -> object | None:
        """Start (or reuse) the pool; None means 'run in this process'."""
        if self._pool is None:
            try:
                self._pool = self._make_pool()
            except Exception as exc:  # sandboxed/locked-down environments
                self.fallback_reason = f"pool start failed: {exc}"
        return self._pool

    def compress_slabs(
        self, slabs: Sequence[np.ndarray], config: CompressionConfig
    ) -> list[tuple[bytes, CompressionStats]]:
        """Compress every slab; result ``i`` corresponds to ``slabs[i]``."""
        self.fallback_reason = None
        tracer = get_tracer()
        if self.workers > 1 and len(slabs) > 1 and (pool := self._ensure_pool()) is not None:
            parent_ctx = tracer.context()
            wall_start = time.perf_counter()
            futures = []
            try:
                futures = [
                    pool.submit(_compress_slab, config, slab, i, parent_ctx)
                    for i, slab in enumerate(slabs)
                ]
                done = [f.result() for f in futures]
            except Exception as exc:  # BrokenProcessPool and friends
                for f in futures:
                    f.cancel()
                self.close()
                self.fallback_reason = f"pool broke mid-flight: {exc}"
            else:
                # Adopt in slab order so the parent trace lists slab spans
                # deterministically, not in completion order.
                for _blob, _stats, spans in done:
                    tracer.adopt(spans)
                results = [(blob, stats) for blob, stats, _spans in done]
                self._observe_pool_run(results, time.perf_counter() - wall_start)
                return results
        # Determinism makes the in-process loop transparent: same bytes.
        compressor = WaveletCompressor(config)
        results = []
        for index, slab in enumerate(slabs):
            with tracer.span("slab", index=index):
                results.append(compressor.compress_with_stats(slab))
        return results

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
