"""Burst-buffer drain stage: absorb, drain, overflow, backpressure, crash."""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.ckpt.store import MemoryStore, Store, StoreWrapper
from repro.exceptions import ConfigurationError, SimulatedCrash, StorageError
from repro.obs.metrics import get_registry
from repro.service.buffer import BurstDrain


def buffered_bytes() -> float:
    """What the buffer holds, as the metrics it serves say."""
    return get_registry().gauge("service.buffer_used_bytes").value


class SlowStore(StoreWrapper):
    """Store whose puts really take wall-clock time (models the PFS)."""

    def __init__(self, inner: Store, delay: float) -> None:
        super().__init__(inner)
        self.delay = delay

    def _before(self, op, key):
        if op == "put":
            time.sleep(self.delay)


class CrashOnPut(StoreWrapper):
    """Raises SimulatedCrash on the Nth put."""

    def __init__(self, inner: Store, crash_at: int) -> None:
        super().__init__(inner)
        self.crash_at = crash_at
        self.puts = 0

    def _before(self, op, key):
        if op != "put":
            return
        self.puts += 1
        if self.puts >= self.crash_at:
            raise SimulatedCrash(f"injected death at put #{self.puts}")


def test_absorb_then_drain_moves_blob_to_slow_tier():
    async def run():
        slow = MemoryStore()
        drain = BurstDrain(slow, capacity_bytes=1 << 20)
        await drain.start()
        done = await drain.absorb("tenants/a/ckpt/0000000001/u.bin", b"payload")
        await done
        await drain.close()
        assert slow.get("tenants/a/ckpt/0000000001/u.bin") == b"payload"
        # the buffer released the space once drained
        assert buffered_bytes() == 0
        assert drain.stats.drained_blobs == 1

    asyncio.run(run())


def test_oversized_blob_writes_through():
    async def run():
        slow = MemoryStore()
        drain = BurstDrain(slow, capacity_bytes=100)
        await drain.start()
        big = b"x" * 500
        done = await drain.absorb("k", big)
        await done  # already resolved: write-through is synchronous
        assert slow.get("k") == big
        assert drain.stats.peak_used_bytes == 0  # never buffered
        assert drain.stats.through_blobs == 1
        assert drain.stats.absorbed_blobs == 0
        await drain.close()

    asyncio.run(run())


def test_backpressure_bounds_buffer_and_engages():
    async def run():
        slow = SlowStore(MemoryStore(), delay=0.005)
        drain = BurstDrain(slow, capacity_bytes=250, drain_workers=1)
        await drain.start()
        dones = [await drain.absorb(f"k{i:03d}", b"x" * 100) for i in range(10)]
        await asyncio.gather(*dones)
        await drain.close()
        assert drain.stats.peak_used_bytes <= 250
        assert drain.stats.backpressure_waits > 0
        assert drain.stats.drained_blobs == 10

    asyncio.run(run())


def test_ingest_does_not_block_on_slow_tier():
    async def run():
        slow = SlowStore(MemoryStore(), delay=0.02)
        drain = BurstDrain(slow, capacity_bytes=1 << 20, drain_workers=2)
        await drain.start()
        t0 = time.monotonic()
        dones = [await drain.absorb(f"k{i}", b"x" * 64) for i in range(8)]
        absorb_elapsed = time.monotonic() - t0
        await asyncio.gather(*dones)
        await drain.close()
        # 8 x 20 ms of slow-tier writes happened, but absorbing took a
        # small fraction of that: the client paid none of them.
        assert absorb_elapsed < 0.08
        assert drain.stats.drained_blobs == 8

    asyncio.run(run())


def test_crash_in_drain_poisons_stage():
    async def run():
        slow = CrashOnPut(MemoryStore(), crash_at=2)
        drain = BurstDrain(slow, capacity_bytes=1 << 20, drain_workers=1)
        await drain.start()
        first = await drain.absorb("a", b"1")
        second = await drain.absorb("b", b"2")
        await first
        with pytest.raises(SimulatedCrash):
            await second
        assert drain.crashed is not None
        with pytest.raises(SimulatedCrash):
            await drain.absorb("c", b"3")
        await drain.close()

    asyncio.run(run())


def test_crash_wakes_backpressured_absorbers():
    async def run():
        slow = CrashOnPut(SlowStore(MemoryStore(), delay=0.01), crash_at=1)
        drain = BurstDrain(slow, capacity_bytes=150, drain_workers=1)
        await drain.start()
        first = await drain.absorb("a", b"x" * 100)

        async def blocked():
            done = await drain.absorb("b", b"x" * 100)
            await done

        task = asyncio.create_task(blocked())
        with pytest.raises(SimulatedCrash):
            await first
        with pytest.raises(SimulatedCrash):
            await asyncio.wait_for(task, timeout=2.0)
        await drain.close()

    asyncio.run(run())


class FlakyStore(StoreWrapper):
    """Fails the first N puts with a transient (non-crash) StorageError."""

    def __init__(self, inner: Store, fail_first: int) -> None:
        super().__init__(inner)
        self.fail_first = fail_first
        self.puts = 0

    def _before(self, op, key):
        if op != "put":
            return
        self.puts += 1
        if self.puts <= self.fail_first:
            raise StorageError(f"transient put failure #{self.puts}")


def test_transient_drain_failure_returns_capacity():
    async def run():
        slow = FlakyStore(MemoryStore(), fail_first=1)
        drain = BurstDrain(slow, capacity_bytes=150, drain_workers=1)
        await drain.start()
        first = await drain.absorb("a", b"x" * 100)
        with pytest.raises(StorageError):
            await first
        # the blob never reached the slow tier, so its reservation came
        # back -- no capacity leak
        assert buffered_bytes() == 0
        assert drain.crashed is None
        # with the capacity returned, an equally large blob absorbs
        # without deadlocking in the backpressure wait
        second = await asyncio.wait_for(
            drain.absorb("b", b"y" * 100), timeout=2.0
        )
        await second
        await drain.close()
        assert drain.stats.drained_blobs == 1
        assert slow.get("b") == b"y" * 100

    asyncio.run(run())


def test_validation():
    with pytest.raises(ConfigurationError):
        BurstDrain(MemoryStore(), capacity_bytes=0)
    with pytest.raises(ConfigurationError):
        BurstDrain(MemoryStore(), capacity_bytes=1, drain_workers=0)
