"""Per-shard health tracking: a consecutive-failure circuit breaker.

The replicated :class:`~repro.service.sharded.ShardedStore` needs a fast
local answer to "is shard X worth talking to right now?".  Waiting out a
dead shard's timeout on every read would turn one bad backend into a
latency storm for every tenant; the standard remedy is a circuit
breaker per shard:

``closed``
    The healthy state: operations flow, every failure increments a
    consecutive-failure counter, any success resets it.
``open``
    After ``failure_threshold`` consecutive failures the breaker opens:
    :meth:`ShardHealth.available` answers ``False`` and callers skip the
    shard entirely (reads fail over to a live replica, writes degrade to
    the replicas that remain).  The shard stays skipped for
    ``open_seconds``.
``half-open``
    Once ``open_seconds`` have elapsed the breaker admits exactly *one*
    probe operation.  If it succeeds the breaker closes; if it fails the
    breaker re-opens with a fresh timer.  This is what lets a repaired
    shard rejoin without a thundering herd re-testing it concurrently.

Time is injected (``clock=``) so the state machine is deterministic
under test; the tracker is thread-safe because drain workers, readers
and the migration worker all consult it from different threads.  State
surfaces three ways: :meth:`available` (the hot-path answer),
:meth:`snapshot` (the ``svc-stats`` health block) and the labeled
gauges/counters ``service.shard_health{shard=...}`` /
``service.shard_breaker_opens{shard=...}``.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable

from ..exceptions import ConfigurationError
from ..obs.metrics import get_registry

__all__ = ["ShardHealth", "STATE_CLOSED", "STATE_OPEN", "STATE_HALF_OPEN"]

STATE_CLOSED = "closed"
STATE_OPEN = "open"
STATE_HALF_OPEN = "half-open"


class _Breaker:
    __slots__ = ("failures", "state", "opened_at", "probing", "opens", "last_error")

    def __init__(self) -> None:
        self.failures = 0
        self.state = STATE_CLOSED
        self.opened_at = 0.0
        self.probing = False
        self.opens = 0
        self.last_error: str | None = None


class ShardHealth:
    """Consecutive-failure circuit breakers, one per shard.

    Parameters
    ----------
    failure_threshold:
        Consecutive failures that open a shard's breaker.
    open_seconds:
        How long an open breaker skips the shard before admitting a
        half-open probe.
    clock:
        Monotonic-seconds source, injectable for deterministic tests.
    """

    def __init__(
        self,
        *,
        failure_threshold: int = 3,
        open_seconds: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if not isinstance(failure_threshold, int) or isinstance(
            failure_threshold, bool
        ) or failure_threshold < 1:
            raise ConfigurationError(
                f"failure_threshold must be an int >= 1, got {failure_threshold!r}"
            )
        if not open_seconds > 0:
            raise ConfigurationError(
                f"open_seconds must be > 0, got {open_seconds!r}"
            )
        self.failure_threshold = failure_threshold
        self.open_seconds = float(open_seconds)
        self._clock = clock
        self._lock = threading.Lock()
        self._breakers: dict[str, _Breaker] = {}

    def _breaker(self, shard_id: str) -> _Breaker:
        b = self._breakers.get(shard_id)
        if b is None:
            b = self._breakers[shard_id] = _Breaker()
        return b

    def _set_gauge(self, shard_id: str, b: _Breaker) -> None:
        get_registry().gauge("service.shard_health", shard=shard_id).set(
            1.0 if b.state == STATE_CLOSED else 0.0
        )

    # -- recording -----------------------------------------------------------

    def record_success(self, shard_id: str) -> None:
        """A shard operation completed: close (or keep closed) the breaker."""
        with self._lock:
            b = self._breaker(shard_id)
            b.failures = 0
            b.probing = False
            if b.state != STATE_CLOSED:
                b.state = STATE_CLOSED
                b.last_error = None
                get_registry().counter(
                    "service.shard_breaker_closes", shard=shard_id
                ).inc()
            self._set_gauge(shard_id, b)

    def record_failure(self, shard_id: str, error: str | None = None) -> None:
        """A shard operation failed; may trip the breaker open."""
        with self._lock:
            b = self._breaker(shard_id)
            b.failures += 1
            b.last_error = error
            get_registry().counter("service.shard_failures", shard=shard_id).inc()
            tripped = (
                b.failures >= self.failure_threshold and b.state == STATE_CLOSED
            )
            failed_probe = b.probing
            if tripped or failed_probe:
                b.state = STATE_OPEN
                b.opened_at = self._clock()
                b.probing = False
                b.opens += 1
                get_registry().counter(
                    "service.shard_breaker_opens", shard=shard_id
                ).inc()
            self._set_gauge(shard_id, b)

    def mark_down(self, shard_id: str, reason: str = "administratively down") -> None:
        """Open a shard's breaker immediately (operator override / storms)."""
        with self._lock:
            b = self._breaker(shard_id)
            if b.state != STATE_OPEN:
                b.opens += 1
                get_registry().counter(
                    "service.shard_breaker_opens", shard=shard_id
                ).inc()
            b.state = STATE_OPEN
            b.opened_at = self._clock()
            b.probing = False
            b.failures = max(b.failures, self.failure_threshold)
            b.last_error = reason
            self._set_gauge(shard_id, b)

    # -- queries -------------------------------------------------------------

    def available(self, shard_id: str) -> bool:
        """Should a caller try this shard *now*?

        ``True`` while closed.  While open, ``False`` until
        ``open_seconds`` elapse -- then exactly one caller gets ``True``
        (the half-open probe); its :meth:`record_success` closes the
        breaker, its :meth:`record_failure` re-opens with a fresh timer.
        """
        with self._lock:
            b = self._breakers.get(shard_id)
            if b is None or b.state == STATE_CLOSED:
                return True
            if b.probing:
                return False  # a probe is already in flight
            if self._clock() - b.opened_at >= self.open_seconds:
                b.state = STATE_HALF_OPEN
                b.probing = True
                return True
            return False

    def state(self, shard_id: str) -> str:
        with self._lock:
            b = self._breakers.get(shard_id)
            return b.state if b is not None else STATE_CLOSED

    @property
    def degraded(self) -> bool:
        """True while any shard's breaker is not closed."""
        with self._lock:
            return any(b.state != STATE_CLOSED for b in self._breakers.values())

    def snapshot(self) -> dict[str, Any]:
        """The per-shard health block ``svc-stats`` serves."""
        with self._lock:
            return {
                sid: {
                    "state": b.state,
                    "consecutive_failures": b.failures,
                    "opens": b.opens,
                    "last_error": b.last_error,
                }
                for sid, b in sorted(self._breakers.items())
            }
