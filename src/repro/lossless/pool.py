"""Shared, long-lived thread pool for the block-parallel codecs.

Why a *shared* pool: profiling the flat thread-scaling curve in
``BENCH_backend.json`` showed that every ``compress()`` call built (and
tore down) its own :class:`~concurrent.futures.ThreadPoolExecutor`.  On
checkpoint workloads the codecs are called once per slab/array, so thread
creation and join costs were paid hundreds of times per checkpoint and the
pool never stayed warm.  Worse, ``pool.map`` materialized *every*
compressed block before the join started, so split -> compress -> join ran
as three serial phases instead of a pipeline.

This module owns exactly one process-wide executor, created lazily on
first use and reused by every codec call afterwards.  The pool is sized
for the machine (not for any single codec): per-call concurrency is
bounded by each codec's *in-flight window* (see
:meth:`~repro.lossless.deflate.DeflateCodec._iter_map_blocks`),
so a ``threads=2`` codec occupies at most two workers even though the
shared pool may hold more, and concurrent callers (chunked slab workers,
:class:`~repro.ckpt.manager.CheckpointManager`) multiplex onto the same
threads instead of oversubscribing the host.

``ThreadPoolExecutor`` spawns worker threads on demand, so an idle pool
holds no running threads beyond those the workload actually used;
``concurrent.futures`` joins them at interpreter exit.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

__all__ = [
    "get_shared_pool",
    "shared_pool_size",
    "shutdown_shared_pool",
    "max_pool_workers",
]

_lock = threading.Lock()
_pool: ThreadPoolExecutor | None = None


def max_pool_workers() -> int:
    """Worker-thread cap of the shared pool: every core, floor of 4.

    The floor keeps small containers honest -- a codec asked for
    ``threads=4`` on a 1-core box still *overlaps* its zlib calls (the
    GIL is released during deflate) even though they cannot run truly
    parallel, and the scheduling overhead is measured by the backend
    bench rather than hidden by a silently serial pool.
    """
    try:
        cores = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # non-Linux / restricted
        cores = os.cpu_count() or 1
    return max(4, cores)


def get_shared_pool() -> ThreadPoolExecutor:
    """The process-wide executor, created on first call.

    Raises whatever ``ThreadPoolExecutor`` raises when threads cannot be
    created (``RuntimeError``/``OSError`` in thread-limited sandboxes);
    callers degrade to their serial paths on those.
    """
    global _pool
    with _lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(
                max_workers=max_pool_workers(),
                thread_name_prefix="repro-deflate",
            )
        return _pool


def shared_pool_size() -> int | None:
    """Worker cap of the live shared pool, or None when not yet created."""
    with _lock:
        return None if _pool is None else _pool._max_workers


def shutdown_shared_pool(wait: bool = True) -> None:
    """Tear down the shared pool (tests / fork hygiene).

    The next :func:`get_shared_pool` call transparently builds a fresh
    one, so this is safe to call at any time.
    """
    global _pool
    with _lock:
        pool, _pool = _pool, None
    if pool is not None:
        pool.shutdown(wait=wait)
