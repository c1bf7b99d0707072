"""ShardHealth circuit-breaker state machine (deterministic fake clock)."""

import pytest

from repro.exceptions import ConfigurationError
from repro.service.health import (
    STATE_CLOSED,
    STATE_HALF_OPEN,
    STATE_OPEN,
    ShardHealth,
)


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def _health(threshold=3, open_seconds=5.0):
    clock = FakeClock()
    return ShardHealth(
        failure_threshold=threshold, open_seconds=open_seconds, clock=clock
    ), clock


class TestBreakerStateMachine:
    def test_unknown_shard_is_closed_and_available(self):
        h, _ = _health()
        assert h.available("s0")
        assert h.state("s0") == STATE_CLOSED
        assert not h.degraded

    def test_failures_below_threshold_stay_closed(self):
        h, _ = _health(threshold=3)
        h.record_failure("s0")
        h.record_failure("s0")
        assert h.available("s0")
        assert h.state("s0") == STATE_CLOSED

    def test_threshold_consecutive_failures_open(self):
        h, _ = _health(threshold=3)
        for _ in range(3):
            h.record_failure("s0", "boom")
        assert h.state("s0") == STATE_OPEN
        assert not h.available("s0")
        assert h.degraded
        assert h.state("s1") == STATE_CLOSED

    def test_success_resets_the_failure_count(self):
        h, _ = _health(threshold=3)
        h.record_failure("s0")
        h.record_failure("s0")
        h.record_success("s0")
        h.record_failure("s0")
        h.record_failure("s0")
        assert h.state("s0") == STATE_CLOSED  # never 3 *consecutive*

    def test_open_breaker_admits_one_probe_after_timeout(self):
        h, clock = _health(threshold=1, open_seconds=5.0)
        h.record_failure("s0")
        assert not h.available("s0")
        clock.advance(5.0)
        assert h.available("s0")  # the single half-open probe
        assert h.state("s0") == STATE_HALF_OPEN
        assert not h.available("s0")  # a second caller is refused
        assert not h.available("s0")

    def test_successful_probe_closes(self):
        h, clock = _health(threshold=1, open_seconds=1.0)
        h.record_failure("s0")
        clock.advance(1.0)
        assert h.available("s0")
        h.record_success("s0")
        assert h.state("s0") == STATE_CLOSED
        assert h.available("s0")
        assert not h.degraded

    def test_failed_probe_reopens_with_fresh_timer(self):
        h, clock = _health(threshold=3, open_seconds=2.0)
        for _ in range(3):
            h.record_failure("s0")
        clock.advance(2.0)
        assert h.available("s0")  # probe admitted
        h.record_failure("s0")  # probe failed: re-open immediately
        assert h.state("s0") == STATE_OPEN
        clock.advance(1.0)
        assert not h.available("s0")  # fresh timer, not the stale one
        clock.advance(1.0)
        assert h.available("s0")

    def test_mark_down_opens_immediately(self):
        h, _ = _health(threshold=5)
        h.mark_down("s2", "draining")
        assert not h.available("s2")
        assert h.snapshot()["s2"]["last_error"] == "draining"

    def test_breakers_are_independent(self):
        h, _ = _health(threshold=1)
        h.record_failure("s0")
        assert not h.available("s0")
        assert h.available("s1")
        assert (h.state("s0"), h.state("s1")) == (STATE_OPEN, STATE_CLOSED)

    def test_snapshot_shape(self):
        h, _ = _health(threshold=1)
        h.record_failure("s0", "io error")
        snap = h.snapshot()
        assert snap["s0"]["state"] == STATE_OPEN
        assert snap["s0"]["consecutive_failures"] == 1
        assert snap["s0"]["opens"] == 1
        assert snap["s0"]["last_error"] == "io error"

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="failure_threshold"):
            ShardHealth(failure_threshold=0)
        with pytest.raises(ConfigurationError, match="open_seconds"):
            ShardHealth(open_seconds=0.0)
