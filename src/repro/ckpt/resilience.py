"""Retry, backoff and CRC-aware re-read for checkpoint stores.

The storage path used to be fail-fast: one transient ``OSError`` aborted
a checkpoint even though the write would have succeeded a moment later.
:class:`ResilientStore` wraps any :class:`~repro.ckpt.store.Store` with
bounded retry under a :class:`RetryPolicy` -- exponential backoff with
deterministic, seeded jitter, so test runs and the CI fault-injection
matrix reproduce exactly -- and adds :meth:`ResilientStore.get_verified`,
which treats the CRC mismatch its inner store reports like any other
transient read failure and re-reads before anyone concludes the blob is
corrupt at rest.

Retry counts surface in the global metrics registry (``store.retry.*``)
and each retried operation opens a ``store.retry`` span, so traces show
where a run burned time waiting out faults.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, TypeVar

import numpy as np

from ..config import knob, validate_knobs
from ..exceptions import IntegrityError, StorageError
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from .store import Store, StoreWrapper

__all__ = ["RetryPolicy", "ResilientStore"]

_T = TypeVar("_T")


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with deterministic jitter.

    Each delay is ``base_delay * MULTIPLIER**retry``, capped at
    ``MAX_DELAY``, plus a fraction drawn uniformly from
    ``[0, JITTER * delay)`` that decorrelates concurrent retriers; the
    jitter RNG is seeded with ``SEED``, so test runs and the CI fault
    matrix reproduce exactly.

    Parameters
    ----------
    max_attempts:
        Total tries per operation, including the first (``1`` disables
        retry).  Bounded by construction -- there is no retry-forever mode.
    base_delay:
        Sleep before the first retry, in seconds.
    """

    #: Backoff factor between consecutive retries.
    MULTIPLIER = 2.0
    #: Cap on any single sleep, in seconds.
    MAX_DELAY = 2.0
    #: Largest jitter, as a fraction of the delay it is added to.
    JITTER = 0.1
    #: Seed of the jitter RNG.
    SEED = 0

    max_attempts: int = knob(3, int, ge=1)
    base_delay: float = knob(0.05, float, ge=0)

    def __post_init__(self) -> None:
        validate_knobs(self)

    def delays(self, rng: np.random.Generator) -> list[float]:
        """The sleep before each retry (length ``max_attempts - 1``)."""
        out = []
        for attempt in range(self.max_attempts - 1):
            delay = min(self.base_delay * self.MULTIPLIER**attempt, self.MAX_DELAY)
            delay += float(rng.random()) * self.JITTER * delay
            out.append(min(delay, self.MAX_DELAY))
        return out


class ResilientStore(StoreWrapper):
    """Store wrapper retrying failed operations under a :class:`RetryPolicy`.

    ``put`` and ``get`` (the data path) retry on any
    :class:`~repro.exceptions.StorageError`; metadata operations pass
    through fail-fast, matching the manager's usage where a failed
    ``exists`` is advisory, and so does ``sync``: a failed durability
    barrier must fail the commit rather than be papered over.  ``sleep``
    is injectable so tests and simulations substitute a recording stub
    for :func:`time.sleep`; either way :attr:`slept_seconds` accumulates
    the backoff total.
    """

    def __init__(
        self,
        inner: Store,
        policy: RetryPolicy | None = None,
        *,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        super().__init__(inner)
        self.policy = policy if policy is not None else RetryPolicy()
        self._sleep = sleep
        self._rng = np.random.default_rng(RetryPolicy.SEED)
        self.retries = 0
        self.giveups = 0
        self.slept_seconds = 0.0

    def _run(self, op: str, key: str, fn: Callable[[], _T]) -> _T:
        delays = self.policy.delays(self._rng)
        registry = get_registry()
        for attempt in range(self.policy.max_attempts):
            try:
                return fn()
            except StorageError as exc:
                if attempt >= len(delays):
                    self.giveups += 1
                    registry.counter("store.retry.giveups").inc()
                    raise
                delay = delays[attempt]
                self.retries += 1
                self.slept_seconds += delay
                registry.counter("store.retry.attempts").inc()
                registry.histogram("store.retry.delay_seconds").observe(delay)
                with get_tracer().span(
                    "store.retry", op=op, key=key, attempt=attempt + 1
                ) as sp:
                    sp.set(error=str(exc))
                    self._sleep(delay)
        raise AssertionError("unreachable: loop returns or raises")

    def put(self, key: str, data: bytes) -> None:
        self._run("put", key, lambda: self.inner.put(key, data))

    def get(self, key: str) -> bytes:
        return self._run("get", key, lambda: self.inner.get(key))

    def get_verified(
        self, key: str, crc32: int, nbytes: int | None = None
    ) -> bytes:
        """Read ``key`` and require the payload to match ``crc32``.

        The inner store checks (:meth:`Store.get_verified`); a mismatch it
        reports (or wrong length, when ``nbytes`` is given) counts as a
        failed attempt and triggers a re-read under the same backoff
        budget -- the cheap remedy for transient read corruption.  When
        every attempt mismatches, raises
        :class:`~repro.exceptions.IntegrityError`: the blob is corrupt *at
        rest* and only parity repair can help.
        """

        def read() -> bytes:
            try:
                return self.inner.get_verified(key, crc32, nbytes)
            except IntegrityError as exc:
                get_registry().counter("store.retry.crc_rereads").inc()
                raise _ReadMismatch(str(exc)) from None

        try:
            return self._run("get", key, read)
        except _ReadMismatch as exc:
            raise IntegrityError(
                f"{exc} after {self.policy.max_attempts} attempt(s); "
                "the stored blob is corrupt"
            ) from None


class _ReadMismatch(StorageError):
    """Internal: a verified read came back with the wrong bytes."""
