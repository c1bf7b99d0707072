"""The service's telemetry surface: labeled series, SLO health, flushing.

These tests drive the real ingest path and read back the per-tenant /
per-shard series, the Prometheus exposition, the SLO verdict and the
background metrics flusher -- the full observability surface ``svc-stats``
and ``svc-metrics`` serve.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.ckpt.store import MemoryStore
from repro.config import ServiceConfig
from repro.exceptions import CommitError, QuotaExceededError, UnknownTenantError
from repro.obs import SLOTracker, get_registry
from repro.obs.flush import MetricsFlusher
from repro.obs.sink import MemorySink
from repro.service import (
    CheckpointIngestService,
    ShardedStore,
    TenantRegistry,
    TenantSpec,
)
from repro.service.tenants import RATE_BURST


@pytest.fixture(autouse=True)
def clean_registry():
    get_registry().reset()
    yield
    get_registry().reset()


def _registry(**quotas) -> TenantRegistry:
    return TenantRegistry(
        [
            TenantSpec("alice", **quotas.get("alice", {})),
            TenantSpec("bob", **quotas.get("bob", {})),
        ]
    )


def _service(store=None, registry=None, **kw) -> CheckpointIngestService:
    return CheckpointIngestService(
        store if store is not None else _sharded(1),
        registry if registry is not None else _registry(),
        **kw,
    )


def _sharded(n: int = 4) -> ShardedStore:
    return ShardedStore(
        {f"s{i}": MemoryStore() for i in range(n)}, placement=MemoryStore()
    )


class TestAdmissionSeries:
    def test_outcomes_are_labeled_per_tenant(self):
        async def run():
            svc = _service(registry=_registry(alice={"byte_quota": 1000}))
            async with svc:
                await svc.submit("alice", 0, {"u": b"x" * 100})
                with pytest.raises(QuotaExceededError):
                    await svc.submit("alice", 1, {"u": b"x" * 2000})
                with pytest.raises(UnknownTenantError):
                    await svc.submit("mallory", 0, {"u": b"x"})
                with pytest.raises(CommitError):
                    await svc.submit("alice", 0, {"u": b"x" * 100})

        asyncio.run(run())
        m = get_registry()
        adm = lambda **kw: m.counter("service.admission", **kw).value
        assert adm(tenant="alice", outcome="accepted") == 1
        assert adm(tenant="alice", outcome="quota") == 1
        assert adm(tenant="alice", outcome="duplicate") == 1
        assert adm(tenant="mallory", outcome="unknown-tenant") == 1

    def test_accepted_submits_feed_per_tenant_histograms(self):
        async def run():
            svc = _service()
            async with svc:
                await asyncio.gather(
                    *[svc.submit("alice", s, {"u": b"x" * 64}) for s in range(3)],
                    svc.submit("bob", 0, {"u": b"y" * 64}),
                )

        asyncio.run(run())
        m = get_registry()
        assert m.counter("service.submits").value == 4
        assert m.counter("service.submits", tenant="alice").value == 3
        assert m.counter("service.submits", tenant="bob").value == 1
        assert m.histogram("service.ingest_seconds", tenant="alice").count == 3
        assert m.histogram("service.ingest_seconds").count == 4
        assert m.histogram("service.commit_batch").count >= 1

    def test_buffer_series_are_labeled_per_tenant(self):
        async def run():
            svc = _service()
            async with svc:
                await svc.submit("alice", 0, {"u": b"x" * 500})

        asyncio.run(run())
        m = get_registry()
        assert m.counter("service.absorbed_bytes", tenant="alice").value == 500
        assert m.histogram("service.drain_lag_seconds", tenant="alice").count == 1


class TestQuotaGauges:
    def test_usage_and_utilization_track_reservations(self):
        reg = _registry(alice={"byte_quota": 1000})
        m = get_registry()
        assert m.gauge("tenant.quota_limit_bytes", tenant="alice").value == 1000
        reg.reserve_bytes("alice", 600)
        assert m.gauge("tenant.quota_used_bytes", tenant="alice").value == 600
        assert m.gauge(
            "tenant.quota_utilization", tenant="alice"
        ).value == pytest.approx(0.6)
        reg.release_bytes("alice", 100)
        assert m.gauge(
            "tenant.quota_utilization", tenant="alice"
        ).value == pytest.approx(0.5)

    def test_rejections_are_labeled_by_kind(self):
        reg = _registry(
            alice={"byte_quota": 100},
            bob={"rate_quota": 1.0},
        )
        with pytest.raises(QuotaExceededError):
            reg.reserve_bytes("alice", 200)
        for _ in range(RATE_BURST):
            reg.reserve_rate("bob")
        with pytest.raises(QuotaExceededError):
            reg.reserve_rate("bob")
        m = get_registry()
        assert m.counter(
            "tenant.quota_rejections", tenant="alice", kind="bytes"
        ).value == 1
        assert m.counter(
            "tenant.quota_rejections", tenant="bob", kind="rate"
        ).value == 1

    def test_stats_expose_quota_and_utilization(self):
        reg = _registry(alice={"byte_quota": 1000})
        reg.reserve_bytes("alice", 250)
        stats = reg.stats()
        assert stats["alice"]["byte_quota"] == 1000
        assert stats["alice"]["utilization"] == pytest.approx(0.25)
        assert stats["bob"]["byte_quota"] is None
        assert stats["bob"]["utilization"] is None


class TestShardStats:
    def test_shard_stats_counts_and_imbalance(self):
        store = _sharded(2)
        store.put("tenants/a/ckpt/1/u.bin", b"x" * 100)
        stats = store.shard_stats()
        assert sum(stats["keys"].values()) == 1
        assert sum(stats["put_bytes"].values()) == 100
        # one generation on one of two shards: max/mean = 2.0
        assert stats["imbalance"] == pytest.approx(2.0)
        m = get_registry()
        assert m.gauge("service.shard_imbalance").value == pytest.approx(2.0)
        loaded = [s for s, n in stats["keys"].items() if n]
        assert m.gauge("service.shard_keys", shard=loaded[0]).value == 1

    def test_empty_store_is_perfectly_balanced(self):
        assert _sharded(3).shard_stats()["imbalance"] == 1.0

    def test_service_stats_include_shards_and_slo(self):
        async def run():
            slo = SLOTracker(latency_threshold_seconds=1.0)
            svc = _service(store=_sharded(), slo=slo)
            async with svc:
                await svc.submit("alice", 0, {"u": b"x" * 64})
            return svc.stats()

        stats = asyncio.run(run())
        assert stats["shards"]["imbalance"] >= 1.0
        assert stats["slo"]["healthy"] is True
        assert stats["slo"]["good"] == 1
        assert stats["tenants"]["alice"]["submits"] == 1


class TestSLOHealth:
    def test_injected_latency_fault_flips_health(self):
        async def run():
            # Nothing commits in under a nanosecond: every submit is bad.
            slo = SLOTracker(latency_threshold_seconds=1e-9)
            svc = _service(slo=slo)
            async with svc:
                for s in range(4):
                    await svc.submit("alice", s, {"u": b"x" * 64})
            return svc.stats()["slo"]

        status = asyncio.run(run())
        assert status["bad"] == 4
        assert status["state"] == "burning"
        assert status["healthy"] is False

    def test_metrics_text_exposes_slo_and_tenant_series(self):
        async def run():
            slo = SLOTracker(
                latency_threshold_seconds=1.0,
                histogram=get_registry().histogram("service.ingest_seconds"),
            )
            svc = _service(store=_sharded(), slo=slo)
            async with svc:
                await svc.submit("alice", 0, {"u": b"x" * 64})
            return svc.metrics_text()

        text = asyncio.run(run())
        assert "# TYPE service_admission counter" in text
        assert 'service_admission{outcome="accepted",tenant="alice"} 1' in text
        assert "# TYPE service_ingest_seconds summary" in text
        assert 'service_ingest_seconds{quantile="0.99"}' in text
        assert "service_slo_healthy 1" in text
        assert 'service_slo_burn_rate{window="60s"}' in text
        assert "service_shard_imbalance" in text


class TestFlusher:
    def test_flush_emits_metrics_and_slo_events(self):
        get_registry().counter("service.submits").inc()
        slo = SLOTracker(latency_threshold_seconds=1.0)
        slo.record(0.01)
        sink = MemorySink()
        flusher = MetricsFlusher(sink, interval=0.0, slo=slo)
        flusher.flush()
        metrics = [e for e in sink.events if e["type"] == "metrics"]
        slo_events = [e for e in sink.events if e["type"] == "slo"]
        assert metrics and metrics[0]["values"]["service.submits"] == 1
        assert slo_events and slo_events[0]["status"]["healthy"] is True
        assert flusher.flushes == 1

    def test_broken_sink_disables_flushing_quietly(self):
        class ExplodingSink:
            def emit_metrics(self, values):
                raise OSError("disk gone")

            def emit(self, event):
                raise OSError("disk gone")

        get_registry().counter("c").inc()
        flusher = MetricsFlusher(ExplodingSink(), interval=0.0)
        flusher.flush()  # must not raise
        flusher.flush()
        assert flusher.flushes == 0

    def test_service_flushes_periodically_to_its_sink(self):
        async def run():
            sink = MemorySink()
            svc = _service(
                slo=SLOTracker(latency_threshold_seconds=1.0),
                flush_sink=sink,
                config=ServiceConfig(metrics_flush_interval=0.01),
            )
            async with svc:
                await svc.submit("alice", 0, {"u": b"x" * 64})
                await asyncio.sleep(0.05)
            return sink

        sink = asyncio.run(run())
        metrics = [e for e in sink.events if e["type"] == "metrics"]
        slo_events = [e for e in sink.events if e["type"] == "slo"]
        assert len(metrics) >= 2  # periodic flushes plus the final one
        assert any(
            "service.submits{tenant=alice}" in e["values"] for e in metrics
        )
        assert slo_events and slo_events[-1]["status"]["good"] == 1
