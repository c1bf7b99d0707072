"""Tenant registry: byte quotas, token-bucket rate quotas, taxonomy."""

from __future__ import annotations

import pytest

from repro.exceptions import (
    ConfigurationError,
    QuotaExceededError,
    ReproError,
    ServiceError,
    UnknownTenantError,
)
from repro.service import TenantRegistry, TenantSpec
from repro.service.tenants import RATE_BURST, TokenBucket


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestTenantSpec:
    def test_defaults_unlimited(self):
        spec = TenantSpec("alice")
        assert spec.byte_quota is None and spec.rate_quota is None

    @pytest.mark.parametrize("bad", ["", "/etc", "a/b", "../up", ".hidden"])
    def test_bad_names_refused(self, bad):
        with pytest.raises(ConfigurationError, match="tenant name"):
            TenantSpec(bad)

    def test_bad_quotas_refused(self):
        with pytest.raises(ConfigurationError):
            TenantSpec("a", byte_quota=-1)
        with pytest.raises(ConfigurationError):
            TenantSpec("a", rate_quota=0.0)
        for rate in (-1.0, float("nan")):
            with pytest.raises(ConfigurationError, match="rate_quota"):
                TenantSpec("a", rate_quota=rate)


class TestRegistryBasics:
    def test_unknown_tenant_is_pointed_and_a_keyerror(self):
        reg = TenantRegistry([TenantSpec("alice"), TenantSpec("bob")])
        with pytest.raises(UnknownTenantError) as exc_info:
            reg.reserve_bytes("carol", 1)
        # one-line diagnosis naming the registered tenants, and the full
        # taxonomy: ServiceError -> ReproError, plus KeyError
        message = str(exc_info.value)
        assert "carol" in message and "alice" in message
        assert isinstance(exc_info.value, (ServiceError, ReproError, KeyError))

    def test_duplicate_registration_refused(self):
        reg = TenantRegistry([TenantSpec("alice")])
        with pytest.raises(ConfigurationError, match="already registered"):
            reg.register(TenantSpec("alice"))

    def test_names_sorted(self):
        reg = TenantRegistry([TenantSpec("zed"), TenantSpec("amy")])
        assert reg.names() == ["amy", "zed"]


class TestByteQuota:
    def test_reserve_within_quota(self):
        reg = TenantRegistry([TenantSpec("a", byte_quota=100)])
        reg.reserve_bytes("a", 60)
        reg.reserve_bytes("a", 40)
        assert reg.stats()["a"]["used_bytes"] == 100

    def test_refusal_is_atomic(self):
        reg = TenantRegistry([TenantSpec("a", byte_quota=100)])
        reg.reserve_bytes("a", 60)
        with pytest.raises(QuotaExceededError, match="byte quota exceeded"):
            reg.reserve_bytes("a", 50)
        # the refused reservation charged nothing
        assert reg.stats()["a"]["used_bytes"] == 60

    def test_release_returns_bytes(self):
        reg = TenantRegistry([TenantSpec("a", byte_quota=100)])
        reg.reserve_bytes("a", 80)
        reg.release_bytes("a", 80)
        reg.reserve_bytes("a", 100)

    def test_unlimited(self):
        reg = TenantRegistry([TenantSpec("a")])
        reg.reserve_bytes("a", 10**12)

    def test_quotas_are_per_tenant(self):
        reg = TenantRegistry(
            [TenantSpec("a", byte_quota=10), TenantSpec("b", byte_quota=1000)]
        )
        with pytest.raises(QuotaExceededError):
            reg.reserve_bytes("a", 11)
        reg.reserve_bytes("b", 500)


class TestRateQuota:
    def test_burst_admits_instantly(self):
        clock = FakeClock()
        reg = TenantRegistry([TenantSpec("a", rate_quota=10.0)], clock=clock)
        for _ in range(RATE_BURST):
            assert reg.reserve_rate("a") == 0.0

    def test_refusal_beyond_max_wait(self):
        clock = FakeClock()
        reg = TenantRegistry([TenantSpec("a", rate_quota=10.0)], clock=clock)
        for _ in range(RATE_BURST):
            assert reg.reserve_rate("a") == 0.0
        with pytest.raises(QuotaExceededError, match="ingest-rate quota"):
            reg.reserve_rate("a", max_wait=0.05)

    def test_bounded_wait_returned(self):
        clock = FakeClock()
        reg = TenantRegistry([TenantSpec("a", rate_quota=10.0)], clock=clock)
        for _ in range(RATE_BURST):
            reg.reserve_rate("a")
        delay = reg.reserve_rate("a", max_wait=1.0)
        assert delay == pytest.approx(0.1)

    def test_tokens_refill_with_time(self):
        clock = FakeClock()
        reg = TenantRegistry([TenantSpec("a", rate_quota=10.0)], clock=clock)
        for _ in range(RATE_BURST):
            reg.reserve_rate("a")
        clock.now += 0.2
        assert reg.reserve_rate("a") == 0.0

    def test_refused_request_returns_its_token(self):
        clock = FakeClock()
        reg = TenantRegistry([TenantSpec("a", rate_quota=10.0)], clock=clock)
        for _ in range(RATE_BURST):
            reg.reserve_rate("a")
        for _ in range(3):
            with pytest.raises(QuotaExceededError):
                reg.reserve_rate("a", max_wait=0.0)
        # the refusals must not have consumed tokens: after exactly one
        # token's refill time a submit is admitted again
        clock.now += 0.1
        assert reg.reserve_rate("a") == 0.0

    def test_no_rate_quota_never_waits(self):
        reg = TenantRegistry([TenantSpec("a")])
        for _ in range(100):
            assert reg.reserve_rate("a") == 0.0


class TestTokenBucket:
    def test_sustained_rate(self):
        clock = FakeClock()
        bucket = TokenBucket(5.0, 2, clock=clock)
        assert bucket.reserve() == 0.0
        assert bucket.reserve() == 0.0
        assert bucket.reserve() == pytest.approx(0.2)
        assert bucket.reserve() == pytest.approx(0.4)

    def test_level_capped_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(5.0, 2, clock=clock)
        clock.now += 100.0  # long idle: level must cap at burst, not grow
        assert bucket.reserve() == 0.0
        assert bucket.reserve() == 0.0
        assert bucket.reserve() > 0.0


class TestStats:
    def test_stats_shape(self):
        reg = TenantRegistry([TenantSpec("a", byte_quota=100)])
        reg.reserve_rate("a")
        reg.reserve_bytes("a", 10)
        with pytest.raises(QuotaExceededError):
            reg.reserve_bytes("a", 1000)
        stats = reg.stats()
        assert stats["a"]["used_bytes"] == 10
        assert stats["a"]["submits"] == 1
        assert stats["a"]["refusals"] == 1
