"""Unit tests for retry/backoff and CRC-aware re-read."""

from __future__ import annotations

import zlib

import numpy as np
import pytest

from repro.ckpt.faults import (
    FAULT_BITFLIP,
    FAULT_TRANSIENT,
    FaultInjectingStore,
    FaultPlan,
)
from repro.ckpt.manager import CheckpointManager
from repro.ckpt.manifest import array_key, manifest_key
from repro.ckpt.protocol import ArrayRegistry
from repro.ckpt.resilience import ResilientStore, RetryPolicy
from repro.ckpt.store import DirectoryStore, MemoryStore
from repro.exceptions import (
    ConfigurationError,
    IntegrityError,
    StorageError,
)


def crc(data: bytes) -> int:
    return zlib.crc32(data) & 0xFFFFFFFF


class TestRetryPolicy:
    def test_delays_are_exponential_and_capped(self):
        # base 0.5 s doubling: 0.5, 1.0, then the 2.0 s cap
        delays = RetryPolicy(max_attempts=5, base_delay=0.5).delays(
            np.random.default_rng(0)
        )
        for delay, raw in zip(delays, [0.5, 1.0]):
            assert raw <= delay < raw * (1 + RetryPolicy.JITTER)
        assert delays[2:] == [RetryPolicy.MAX_DELAY] * 2

    def test_jitter_is_deterministic_under_a_seed(self):
        policy = RetryPolicy(max_attempts=4, base_delay=0.1)
        a = policy.delays(np.random.default_rng(RetryPolicy.SEED))
        b = policy.delays(np.random.default_rng(RetryPolicy.SEED))
        assert a == b
        raw = [0.1 * RetryPolicy.MULTIPLIER**i for i in range(3)]
        assert all(r <= d < r * (1 + RetryPolicy.JITTER) for d, r in zip(a, raw))
        assert a != raw

    def test_single_attempt_means_no_retry(self):
        assert RetryPolicy(max_attempts=1).delays(np.random.default_rng(0)) == []

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"base_delay": -1.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            RetryPolicy(**kwargs)


def _fast_policy(attempts: int = 3) -> RetryPolicy:
    return RetryPolicy(max_attempts=attempts, base_delay=0.0)


class TestResilientStore:
    def test_rides_over_transient_faults(self):
        plan = FaultPlan(schedule=[(0, FAULT_TRANSIENT), (2, FAULT_TRANSIENT)])
        faulty = FaultInjectingStore(MemoryStore(), plan)
        store = ResilientStore(faulty, _fast_policy())
        store.put("k", b"payload")  # op 0 transient, op 1 succeeds
        assert store.get("k") == b"payload"  # op 2 transient, op 3 succeeds
        assert store.retries == 2
        assert store.giveups == 0

    def test_bounded_gives_up_and_raises(self):
        class AlwaysDown(MemoryStore):
            def put(self, key, data):
                raise StorageError("disk on fire")

        store = ResilientStore(AlwaysDown(), _fast_policy(attempts=3))
        with pytest.raises(StorageError, match="disk on fire"):
            store.put("k", b"x")
        assert store.retries == 2  # attempts 2 and 3
        assert store.giveups == 1

    def test_sleep_is_injectable_and_accounted(self):
        naps: list[float] = []

        class FlakyOnce(MemoryStore):
            fails = [True]

            def put(self, key, data):
                if self.fails:
                    self.fails.pop()
                    raise StorageError("blip")
                super().put(key, data)

        policy = RetryPolicy(max_attempts=2, base_delay=0.25)
        store = ResilientStore(FlakyOnce(), policy, sleep=naps.append)
        store.put("k", b"x")
        assert naps == policy.delays(np.random.default_rng(RetryPolicy.SEED))
        assert store.slept_seconds == pytest.approx(naps[0])

    def test_metadata_ops_fail_fast(self):
        class BrokenMeta(MemoryStore):
            def exists(self, key):
                raise StorageError("meta down")

        store = ResilientStore(BrokenMeta(), _fast_policy())
        with pytest.raises(StorageError):
            store.exists("k")
        assert store.retries == 0

    def test_get_verified_rereads_transient_corruption(self):
        data = b"x" * 128
        plan = FaultPlan(schedule=[(1, FAULT_BITFLIP)])
        faulty = FaultInjectingStore(MemoryStore(), plan)
        store = ResilientStore(faulty, _fast_policy())
        store.put("k", data)
        # first read comes back flipped; the re-read heals it
        assert store.get_verified("k", crc(data), len(data)) == data
        assert store.retries == 1

    def test_get_verified_detects_corruption_at_rest(self):
        inner = MemoryStore()
        store = ResilientStore(inner, _fast_policy())
        inner.put("k", b"wrong bytes")
        with pytest.raises(IntegrityError, match="corrupt"):
            store.get_verified("k", crc(b"right bytes"), len(b"right bytes"))
        assert store.giveups == 1

    def test_get_verified_checks_length(self):
        inner = MemoryStore()
        store = ResilientStore(inner, _fast_policy(attempts=1))
        inner.put("k", b"short")
        with pytest.raises(IntegrityError, match="bytes"):
            store.get_verified("k", crc(b"short"), 100)

    def test_a_restore_hashes_each_stored_byte_once(self, tmp_path, crc_bytes):
        """The verified read is the one check of a blob and of the
        manifest; only the container's own section CRCs (inside the
        inflated body) are hashed besides."""
        rng = np.random.default_rng(3)
        registry = ArrayRegistry()
        registry.register("field", np.cumsum(rng.standard_normal((64, 32)), axis=0))
        registry.register("steps", np.arange(500, dtype=np.int64))
        store = ResilientStore(DirectoryStore(str(tmp_path)), _fast_policy())
        manager = CheckpointManager(registry, store)
        manager.checkpoint(1)
        stored = sum(
            len(store.get(key))
            for key in (array_key(1, "field"), array_key(1, "steps"), manifest_key(1))
        )
        crc_bytes.clear()
        assert manager.restore(1).step == 1
        hashed = {m: n for m, n in crc_bytes.items() if m != "repro.core.container"}
        assert sum(hashed.values()) == stored, hashed

    def test_retry_metrics_reach_registry(self):
        from repro.obs.metrics import get_registry

        registry = get_registry()
        before = (
            registry.counter("store.retry.attempts").value
            if "store.retry.attempts" in registry
            else 0.0
        )
        plan = FaultPlan(schedule=[(0, FAULT_TRANSIENT)])
        store = ResilientStore(
            FaultInjectingStore(MemoryStore(), plan), _fast_policy()
        )
        store.put("k", b"x")
        assert registry.counter("store.retry.attempts").value == before + 1

    def test_passthrough_metadata(self):
        store = ResilientStore(MemoryStore(), _fast_policy())
        store.put("a/b", b"1")
        assert store.exists("a/b")
        assert store.list_keys("a/") == ["a/b"]
        store.delete("a/b")
        assert not store.exists("a/b")
