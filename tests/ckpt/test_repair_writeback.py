"""Which healed block is written back, and what a failed write-back does.

A healed member is written back best effort: the restore or verify that
healed it succeeds from the healed copy even when the put fails, and its
:class:`RepairEvent` says it was not rewritten.  A rebuilt parity blob is
written back unconditionally, and a failed put fails the
``verify(repair=True)`` that rebuilt it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ckpt.manager import CheckpointManager
from repro.ckpt.manifest import array_key, parity_key
from repro.ckpt.protocol import ArrayRegistry
from repro.ckpt.store import MemoryStore, StoreWrapper
from repro.config import ResilienceConfig
from repro.exceptions import CorruptionError, StorageError
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer


class RefusingPuts(StoreWrapper):
    """Fails every put while ``refuse`` is set."""

    def __init__(self, inner) -> None:
        super().__init__(inner)
        self.refuse = False

    def _before(self, op: str, key: str) -> None:
        if op == "put" and self.refuse:
            raise StorageError(f"put of {key!r} refused")


@pytest.fixture
def registry(smooth2d, rng):
    reg = ArrayRegistry()
    reg.register("temperature", smooth2d.copy())
    reg.register("counter", np.arange(64, dtype=np.int64))
    reg.register("velocity", rng.normal(0.0, 1.0, (16, 8)))
    return reg


@pytest.fixture
def store():
    return RefusingPuts(MemoryStore())


def make_manager(registry, store, **res_kwargs):
    return CheckpointManager(
        registry, store, resilience=ResilienceConfig(parity=True, **res_kwargs)
    )


def counts(*names):
    return [get_registry().counter(name).value for name in names]


COUNTERS = ("ckpt.repair.healed", "ckpt.repair.rewrites", "ckpt.repair.parity_rebuilt")


class TestMemberWriteBack:
    def test_failed_write_back_still_restores(self, registry, store):
        manager = make_manager(registry, store)
        manager.checkpoint(1)
        reference = manager.load_arrays(1)
        key = array_key(1, "temperature")
        store.delete(key)
        store.refuse = True
        before = counts(*COUNTERS)
        restored = manager.load_arrays(1)
        for name, arr in reference.items():
            np.testing.assert_array_equal(restored[name], arr)
        (event,) = manager.repair_log
        assert (event.step, event.kind, event.name, event.rewritten) == (
            1, "member", "temperature", False,
        )
        healed, rewrites, rebuilt = before
        assert counts(*COUNTERS) == [healed + 1, rewrites, rebuilt]
        assert not store.exists(key)

    def test_failed_write_back_on_verify_leaves_the_store_damaged(self, registry, store):
        manager = make_manager(registry, store)
        manager.checkpoint(1)
        store.delete(array_key(1, "counter"))
        store.refuse = True
        manager.verify(1, repair=True)
        (event,) = manager.repair_log
        assert (event.kind, event.name, event.rewritten) == ("member", "counter", False)
        with pytest.raises(CorruptionError, match="missing blob"):
            manager.verify(1)


class TestParityWriteBack:
    def test_parity_rebuilt_is_counted(self, registry, store):
        manager = make_manager(registry, store)
        manifest = manager.checkpoint(1)
        store.delete(parity_key(1, 0))
        healed, rewrites, rebuilt = counts(*COUNTERS)
        manager.verify(1, repair=True)
        assert counts(*COUNTERS) == [healed, rewrites, rebuilt + 1]
        manifest.parity[0].verify(store.get(parity_key(1, 0)))
        (event,) = manager.repair_log
        assert (event.step, event.kind, event.name, event.rewritten) == (
            1, "parity", parity_key(1, 0), True,
        )

    def test_failed_put_raises_out_of_verify(self, registry, store):
        manager = make_manager(registry, store)
        manager.checkpoint(1)
        store.delete(parity_key(1, 0))
        store.refuse = True
        before = counts(*COUNTERS)
        with pytest.raises(StorageError, match="refused"):
            manager.verify(1, repair=True)
        assert manager.repair_log == []
        assert counts(*COUNTERS) == before
        assert not store.exists(parity_key(1, 0))

    def test_repair_span_of_the_parity_kind(self, registry, store):
        manager = make_manager(registry, store)
        manager.checkpoint(1)
        store.delete(parity_key(1, 0))
        tracer = get_tracer()
        tracer.reset()
        tracer.enable()
        try:
            manager.verify(1, repair=True)
            spans = tracer.spans
        finally:
            tracer.disable()
        (repair,) = [s for s in spans if s.name == "ckpt.repair"]
        assert repair.attrs["kind"] == "parity"
        assert repair.attrs["parity"] == parity_key(1, 0)
        assert repair.attrs["step"] == 1
        assert "array" not in repair.attrs
