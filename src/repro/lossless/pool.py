"""Shared, long-lived thread pool for the block-parallel codecs.

Why a *shared* pool: profiling the flat thread-scaling curve in
``BENCH_backend.json`` showed that every ``compress()`` call built (and
tore down) its own :class:`~concurrent.futures.ThreadPoolExecutor`.  On
checkpoint workloads the codecs are called once per slab/array, so thread
creation and join costs were paid hundreds of times per checkpoint and the
pool never stayed warm.

This module owns exactly one process-wide executor, created lazily on
first use and reused by every codec call afterwards.  The pool is sized
for the machine, not for any single codec; the one rule of a call is in
:meth:`~repro.lossless.deflate.DeflateCodec._map_blocks`: at most
``threads`` of its blocks are deflating at once, and its results come back
in block order.  So a ``threads=2`` codec occupies at most two workers
even though the shared pool may hold more, and concurrent callers (chunked
slab workers, :class:`~repro.ckpt.manager.CheckpointManager`) multiplex
onto the same threads instead of oversubscribing the host.

``ThreadPoolExecutor`` spawns worker threads on demand, so an idle pool
holds no running threads beyond those the workload actually used;
``concurrent.futures`` joins them at interpreter exit.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

__all__ = [
    "effective_cores",
    "get_shared_pool",
    "shared_pool_size",
    "shutdown_shared_pool",
]

_lock = threading.Lock()
_pool: ThreadPoolExecutor | None = None


def effective_cores() -> int:
    """The cores this process may run on (its CPU affinity where the
    platform exposes it)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # non-Linux / restricted
        return os.cpu_count() or 1


def get_shared_pool() -> ThreadPoolExecutor:
    """The process-wide executor, created on first call.

    It holds a worker per effective core, at least 4: a codec asked for
    ``threads=4`` on a 1-core box still *overlaps* its zlib calls (the GIL
    is released during deflate) even though they cannot run truly
    parallel, and the scheduling overhead is measured by the backend bench
    rather than hidden by a silently serial pool.

    Raises whatever ``ThreadPoolExecutor`` raises when threads cannot be
    created (``RuntimeError``/``OSError`` in thread-limited sandboxes);
    callers degrade to their serial paths on those.
    """
    global _pool
    with _lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(
                max_workers=max(4, effective_cores()),
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
