"""Tenant registry and quota enforcement for the ingest service.

Each tenant owns one namespace (``tenants/<name>/...``) and two quotas:

* a **byte quota** on stored checkpoint payload -- reserved atomically at
  submit time, *before* a single blob is absorbed, so a refused
  generation leaves nothing behind to reap;
* an **ingest-rate quota** -- a token bucket over submits, returning the
  delay a request must wait for a token; callers with latency budgets
  bound the wait and get :class:`~repro.exceptions.QuotaExceededError`
  instead of an unbounded stall.

The registry is the single authority the service consults; it holds no
references to stores, so quota logic is testable without I/O.  Time is
injected (``clock=``) so the token bucket is deterministic under test.
"""

from __future__ import annotations

import re
import threading
import time
from dataclasses import dataclass
from typing import Any

from ..exceptions import ConfigurationError, QuotaExceededError, UnknownTenantError
from ..obs.metrics import get_registry

__all__ = ["TenantSpec", "TenantRegistry", "TokenBucket"]

#: Tenant names become path segments under ``tenants/``; keep them to a
#: conservative identifier alphabet so keys stay clean on every backend.
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")

#: Depth of every tenant's rate bucket: how many submits may arrive
#: back-to-back before the sustained ``rate_quota`` applies.
RATE_BURST = 8


@dataclass(frozen=True)
class TenantSpec:
    """Declared limits for one tenant.

    ``byte_quota``/``rate_quota`` of ``None`` mean unlimited.
    ``rate_quota`` is sustained submits per second, after a burst of
    :data:`RATE_BURST`.
    """

    name: str
    byte_quota: int | None = None
    rate_quota: float | None = None

    def __post_init__(self) -> None:
        if not _NAME_RE.match(self.name):
            raise ConfigurationError(
                f"tenant name must match {_NAME_RE.pattern}, got {self.name!r}"
            )
        if self.byte_quota is not None and self.byte_quota < 0:
            raise ConfigurationError(
                f"byte_quota must be >= 0 or None, got {self.byte_quota!r}"
            )
        if self.rate_quota is not None and not self.rate_quota > 0:  # NaN too
            raise ConfigurationError(
                f"rate_quota must be > 0 or None, got {self.rate_quota!r}"
            )


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/sec, depth ``burst``.

    :meth:`reserve` always *takes* a token (possibly driving the level
    negative is avoided by instead returning the delay until the token it
    consumed exists), so concurrent reservations queue fairly: each call
    is told how long it must sleep before its admission instant.
    """

    def __init__(self, rate: float, burst: int, *, clock=time.monotonic) -> None:
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._level = self.burst
        self._stamp = clock()
        self._lock = threading.Lock()

    def _refill(self, now: float) -> None:
        self._level = min(self.burst, self._level + (now - self._stamp) * self.rate)
        self._stamp = now

    def reserve(self) -> float:
        """Consume one token; return seconds to wait until it is valid."""
        with self._lock:
            now = self._clock()
            self._refill(now)
            self._level -= 1.0
            if self._level >= 0.0:
                return 0.0
            return -self._level / self.rate

    def cancel(self) -> None:
        """Return a token taken by :meth:`reserve` (request was refused)."""
        with self._lock:
            self._refill(self._clock())
            self._level = min(self.burst, self._level + 1.0)


class _TenantState:
    __slots__ = ("spec", "used_bytes", "bucket", "submits", "refusals")

    def __init__(self, spec: TenantSpec, clock) -> None:
        self.spec = spec
        self.used_bytes = 0
        self.bucket = (
            TokenBucket(spec.rate_quota, RATE_BURST, clock=clock)
            if spec.rate_quota is not None
            else None
        )
        self.submits = 0
        self.refusals = 0


class TenantRegistry:
    """All tenants the service knows, with live quota accounting."""

    def __init__(self, specs: list[TenantSpec] | tuple[TenantSpec, ...] = (), *, clock=time.monotonic) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._tenants: dict[str, _TenantState] = {}
        for spec in specs:
            self.register(spec)

    def register(self, spec: TenantSpec) -> None:
        with self._lock:
            if spec.name in self._tenants:
                raise ConfigurationError(f"tenant {spec.name!r} already registered")
            self._tenants[spec.name] = _TenantState(spec, self._clock)
        metrics = get_registry()
        if spec.byte_quota is not None:
            metrics.gauge("tenant.quota_limit_bytes", tenant=spec.name).set(
                spec.byte_quota
            )
        metrics.gauge("tenant.quota_used_bytes", tenant=spec.name).set(0)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._tenants)

    def spec(self, name: str) -> TenantSpec:
        return self._state(name).spec

    def _state(self, name: str) -> _TenantState:
        with self._lock:
            state = self._tenants.get(name)
        if state is None:
            raise UnknownTenantError(
                f"unknown tenant {name!r}; registered tenants: "
                f"{', '.join(self.names()) or '(none)'}"
            )
        return state

    # -- byte quota ----------------------------------------------------------

    def reserve_bytes(self, name: str, nbytes: int) -> None:
        """Charge ``nbytes`` against the tenant's byte quota, or refuse.

        Atomic: either the whole reservation is charged or nothing is,
        and a refusal happens before any payload byte is absorbed.
        """
        state = self._state(name)
        if nbytes < 0:
            raise ConfigurationError(f"nbytes must be >= 0, got {nbytes}")
        quota = state.spec.byte_quota
        with self._lock:
            if quota is not None and state.used_bytes + nbytes > quota:
                state.refusals += 1
                get_registry().counter(
                    "tenant.quota_rejections", tenant=name, kind="bytes"
                ).inc()
                raise QuotaExceededError(
                    f"tenant {name!r} byte quota exceeded: "
                    f"{state.used_bytes} used + {nbytes} requested > "
                    f"{quota} limit"
                )
            state.used_bytes += nbytes
            used = state.used_bytes
        self._set_usage_gauges(name, used, quota)

    def release_bytes(self, name: str, nbytes: int) -> None:
        """Return a reservation (generation failed, was reaped or deleted)."""
        state = self._state(name)
        with self._lock:
            state.used_bytes = max(0, state.used_bytes - nbytes)
            used = state.used_bytes
        self._set_usage_gauges(name, used, state.spec.byte_quota)

    @staticmethod
    def _set_usage_gauges(name: str, used: int, quota: int | None) -> None:
        metrics = get_registry()
        metrics.gauge("tenant.quota_used_bytes", tenant=name).set(used)
        if quota:
            metrics.gauge("tenant.quota_utilization", tenant=name).set(
                used / quota
            )

    # -- rate quota ----------------------------------------------------------

    def reserve_rate(self, name: str, *, max_wait: float = 0.0) -> float:
        """Admit one submit under the rate quota; return required delay.

        The returned delay is how long the caller must wait before its
        admission instant (0.0 when a burst token was free).  If the
        delay exceeds ``max_wait`` the token is returned and
        :class:`QuotaExceededError` is raised instead -- rate refusal,
        not an unbounded queue.
        """
        state = self._state(name)
        if state.bucket is None:
            with self._lock:
                state.submits += 1
            return 0.0
        delay = state.bucket.reserve()
        if delay > max_wait:
            state.bucket.cancel()
            with self._lock:
                state.refusals += 1
            get_registry().counter(
                "tenant.quota_rejections", tenant=name, kind="rate"
            ).inc()
            raise QuotaExceededError(
                f"tenant {name!r} ingest-rate quota exceeded: next admission "
                f"in {delay:.3f}s > max wait {max_wait:.3f}s "
                f"(limit {state.spec.rate_quota:g}/s, burst {RATE_BURST})"
            )
        with self._lock:
            state.submits += 1
        return delay

    # -- diagnostics ---------------------------------------------------------

    def stats(self) -> dict[str, dict[str, Any]]:
        with self._lock:
            return {
                name: {
                    "used_bytes": st.used_bytes,
                    "submits": st.submits,
                    "refusals": st.refusals,
                    "byte_quota": st.spec.byte_quota,
                    "utilization": (
                        st.used_bytes / st.spec.byte_quota
                        if st.spec.byte_quota
                        else None
                    ),
                }
                for name, st in sorted(self._tenants.items())
            }
