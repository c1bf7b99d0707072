"""Temporal restores that start from the engine's reconstruction.

The contract the restore start point stands on: after every write and
every restore, :meth:`TemporalEngine.committed_recon` is bit-identical to
what a cold reader decodes for that generation.  On it:

* a restore whose chain starts with the chain the engine holds decodes
  only the links past it, and equals the cold restore bit for bit;
* every link is still read and verified: the store sees the same
  operations, in the same order, as for a cold restore;
* next to that generation the engine keeps the chain root, the
  reconstruction of the last keyframe it held: a restore anywhere in that
  chain decodes deltas only, and the root is dropped before the next
  keyframe of its array is compressed;
* a chain that shares nothing with the engine's -- a keyframe rewritten by
  another manager, a store reopened by a fresh process -- is decoded from
  its keyframe;
* the engine owns its buffers: what a restore hands the application is
  never the predictor.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

import repro.ckpt.temporal as temporal_module
from repro.ckpt.manager import CheckpointManager
from repro.ckpt.protocol import ArrayRegistry, registry_from_checkpointable
from repro.ckpt.store import MemoryStore
from repro.ckpt.temporal import CODEC_KEYFRAME
from repro.config import TemporalConfig
from repro.exceptions import CorruptionError, NonFiniteDataError
from repro.obs import get_registry, get_tracer

from .test_manager_pipeline import RecordingStore

EB = 1e-3
CYCLE = 4


@pytest.fixture(autouse=True)
def fresh_telemetry():
    get_registry().reset()
    yield
    get_tracer().reset()


def reused() -> float:
    return get_registry().counter("ckpt.restore.links_reused").value


def roots_reused() -> float:
    return get_registry().counter("ckpt.restore.roots_reused").value


def held_bytes() -> float:
    return get_registry().gauge("ckpt.temporal.held_bytes").value


class Fields:
    """Application state behind the ``Checkpointable`` protocol: the
    application keeps whatever array a restore hands it, and may change an
    array's shape."""

    def __init__(self, **arrays: np.ndarray) -> None:
        self.state = dict(arrays)
        self.registry = registry_from_checkpointable(self)

    def state_arrays(self) -> dict[str, np.ndarray]:
        return dict(self.state)

    def load_state_arrays(self, arrays) -> None:
        self.state.update(arrays)


def drifting(n_rows: int = 48, seed: int = 3) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.standard_normal((n_rows, 8)), axis=0)


def temporal(predictor: str = "previous") -> TemporalConfig:
    return TemporalConfig(error_bound=EB, keyframe_every=CYCLE, predictor=predictor)


def cold(store) -> CheckpointManager:
    """A reader with no temporal engine: every chain from its keyframe."""
    return CheckpointManager(ArrayRegistry(), store)


def assert_engine_is_cold(manager: CheckpointManager, step: int) -> None:
    """The engine holds, for every temporal array, generation ``step`` as
    a cold reader decodes it."""
    engine = manager._temporal_engine
    expected = cold(manager.store).load_arrays(step)
    held = manager.read_manifest(step)
    for entry in held.entries:
        recon = engine.committed_recon(entry.name)
        assert recon is not None, entry.name
        np.testing.assert_array_equal(recon, expected[entry.name], err_msg=entry.name)
    # ... and each root is its keyframe as a cold reader decodes it
    for name, root in engine._roots.items():
        (keyframe, crc32, _size), = root.chain
        entry = manager.read_manifest(keyframe).entry(name)
        assert (entry.codec, entry.crc32) == (CODEC_KEYFRAME, crc32), name
        np.testing.assert_array_equal(
            root.recon, cold(manager.store).load_arrays(keyframe)[name], err_msg=name
        )


def step_fields(fields: Fields, step: int) -> None:
    """One generation of the schedule below: ``f`` drifts and hits its
    chain limit, ``g`` changes shape at 5, ``h`` jumps past int32 residual
    indices at 2, ``s`` is too small for any delta to pay."""
    rows = np.arange(48)[:, None]
    fields.state["f"] = fields.state["f"] + 0.02 * np.sin(rows / 7.0 + step)
    g = fields.state["g"]
    g = g + 0.01 * np.cos(np.arange(g.shape[0])[:, None] / 5.0 + step)
    fields.state["g"] = g.reshape(24, 16) if step == 5 else g
    fields.state["h"] = fields.state["h"] + (1e9 if step == 2 else 0.003)
    fields.state["s"] = fields.state["s"] + np.float32(0.1)


class TestEngineIsTheColdRestore:
    @pytest.mark.parametrize(
        "predictor, axis",
        [("previous", None), ("previous", 0), ("lowband", None)],
        ids=["unfiltered", "filtered", "lowband"],
    )
    def test_after_every_write_and_every_restore(self, predictor, axis, monkeypatch):
        monkeypatch.setattr(temporal_module, "choose_filter", lambda q: axis)
        fields = Fields(
            f=drifting(), g=drifting(seed=4), h=drifting(seed=5),
            s=np.array([1.0, 2.0], dtype=np.float32),
        )
        store = MemoryStore()
        with CheckpointManager(fields.registry, store, temporal=temporal(predictor)) as manager:
            for step in range(2 * CYCLE):
                step_fields(fields, step)
                manager.checkpoint(step)
                assert_engine_is_cold(manager, step)
            reasons = {
                entry.codec_params["reason"]
                for step in range(2 * CYCLE)
                for entry in manager.read_manifest(step).entries
                if entry.codec == CODEC_KEYFRAME
            }
            assert reasons == {"initial", "chain-limit", "shape-changed", "overflow", "inflation"}
            kinds = {
                (entry.codec_params.get("filter") or {}).get("kind")
                for step in range(2 * CYCLE)
                for entry in manager.read_manifest(step).entries
            }
            assert kinds == {None, "none" if axis is None else "delta"}
            for step in (7, 6, 1, 3, 2, 3, 0, 7, 5):
                manager.restore(step)
                assert_engine_is_cold(manager, step)
            assert reused() > 0

    def test_after_a_drift_keyframe(self):
        """The float32 half-ulp construction of
        ``test_temporal.py::test_drift_forces_a_keyframe``, in a commit."""
        arr = np.full(8, 8192.0, dtype=np.float32)
        fields = Fields(field=arr)
        with CheckpointManager(
            fields.registry, MemoryStore(), temporal=TemporalConfig(error_bound=5.5e-4)
        ) as manager:
            prev = np.full(8, 8192.0 - 4 * 2**-10, dtype=np.float32)
            manager._temporal_engine.seed(0, {"field": prev}, {"field": 0})
            manager._temporal_seeded = True
            manager.checkpoint(1)
            assert manager.read_manifest(1).entry("field").codec_params["reason"] == "drift"
            assert_engine_is_cold(manager, 1)
            manager.restore(1)
            assert_engine_is_cold(manager, 1)


def written(store, generations: int = 2 * CYCLE, predictor: str = "previous"):
    """A manager that wrote ``generations`` of three drifting fields."""
    fields = Fields(**{f"f{i}": drifting(seed=10 + i) for i in range(3)})
    manager = CheckpointManager(fields.registry, store, temporal=temporal(predictor))
    rows = np.arange(48)[:, None]
    for step in range(generations):
        for i, name in enumerate(sorted(fields.state)):
            fields.state[name] = fields.state[name] + 0.02 * np.sin(rows / 7.0 + step + i)
        manager.checkpoint(step)
    return manager, fields


class TestRestoresThroughOneManager:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("predictor", ["previous", "lowband"])
    def test_random_orders_equal_cold_restores(self, seed, predictor):
        store = MemoryStore()
        manager, fields = written(store, predictor=predictor)
        expected = [cold(store).load_arrays(step) for step in range(2 * CYCLE)]
        rng = random.Random(seed)
        order = [rng.randrange(2 * CYCLE) for _ in range(3 * CYCLE)]
        with manager:
            for step in order:
                manager.restore(step)
                for name, arr in expected[step].items():
                    np.testing.assert_array_equal(fields.state[name], arr)
                assert_engine_is_cold(manager, step)
        assert reused() > 0

    def test_links_past_the_engine_are_the_only_ones_decoded(self):
        """Generation 5 held, generation 7 restored: its chain is keyframe
        4 and deltas 5-7, of which 4 and 5 are the engine's."""
        manager, _fields = written(MemoryStore())
        tracer = get_tracer()
        with manager:
            manager.restore(5)
            get_registry().reset()
            tracer.enable()
            manager.restore(7)
            tracer.disable()
        loads = [s for s in tracer.spans if s.name == "ckpt.array_load"]
        assert [(s.attrs["chain_links"], s.attrs["links_decoded"]) for s in loads] == [(4, 2)] * 3
        assert reused() == 3 * 2
        # one inflate per link decoded, and no keyframe among them
        assert len([s for s in tracer.spans if s.name == "backend_inverse"]) == 3 * 2
        assert not any(s.name == "decompress" for s in tracer.spans)

    def test_the_generation_held_decodes_nothing_and_hands_out_a_copy(self):
        manager, _fields = written(MemoryStore())
        with manager:
            arrays = manager.load_arrays(2 * CYCLE - 1)
            assert reused() == 3 * CYCLE
            engine = manager._temporal_engine
            for name, arr in arrays.items():
                np.testing.assert_array_equal(arr, engine.committed_recon(name))
                assert not np.shares_memory(arr, engine.committed_recon(name))

    @staticmethod
    def store_ops(before: list[int], step: int) -> tuple[list, list, tuple[float, float]]:
        """The store operations of restoring ``step`` after restoring
        ``before`` through the writer, those of the same restore by a fresh
        reader, and the writer's ``(links_reused, roots_reused)``."""
        store = RecordingStore()
        manager, _fields = written(store)
        with manager:
            for earlier in before:
                manager.restore(earlier)
            store.ops.clear()
            get_registry().reset()
            manager.restore(step)
            warm, counts = list(store.ops), (reused(), roots_reused())
        store.ops.clear()
        fresh_fields = Fields(**{f"f{i}": drifting(seed=10 + i) for i in range(3)})
        with CheckpointManager(fresh_fields.registry, store, temporal=temporal()) as fresh:
            get_registry().reset()
            fresh.restore(step)
            assert reused() == 0
        return warm, store.ops, counts

    def test_every_link_is_still_read_in_the_cold_order(self):
        """The store sees the same operations for a restore the engine
        shortens as for the same restore by a fresh reader."""
        warm, fresh, (links, roots) = self.store_ops([5], 7)
        assert links > 0 and roots == 0
        assert fresh == warm

    def test_every_link_is_still_read_in_the_cold_order_from_the_root(self):
        """Generation 7 held: generation 6 starts at keyframe 4, the root."""
        warm, fresh, (links, roots) = self.store_ops([], 6)
        assert (links, roots) == (3, 3)
        assert fresh == warm


class TestAnotherChainIsDecodedWhole:
    def test_generation_rewritten_by_another_manager(self):
        store = MemoryStore()
        manager, fields = written(store, generations=CYCLE)
        last = CYCLE - 1
        # a second writer over the same store replaces the newest generation
        manager.delete(last)
        other = Fields(**{name: arr + 0.5 for name, arr in fields.state.items()})
        with CheckpointManager(other.registry, store, temporal=temporal()) as rewriter:
            rewriter.checkpoint(last)
        tracer = get_tracer()
        tracer.enable()
        with manager:
            arrays = manager.load_arrays(last)
        tracer.disable()
        # the rewritten generation's chain shares the engine's keyframe:
        # the restore starts at the root (a rewritten keyframe is decoded
        # whole: test_keyframe_rewritten_by_another_manager)
        assert (reused(), roots_reused()) == (3, 3)
        loads = [s for s in tracer.spans if s.name == "ckpt.array_load"]
        assert [(s.attrs["chain_links"], s.attrs["links_decoded"]) for s in loads] == [(CYCLE, CYCLE - 1)] * 3
        expected = cold(store).load_arrays(last)
        for name, arr in expected.items():
            np.testing.assert_array_equal(arrays[name], arr)

    def test_store_reopened_by_a_fresh_process(self):
        store = MemoryStore()
        written(store)[0].close()
        fields = Fields(**{f"f{i}": drifting(seed=10 + i) for i in range(3)})
        with CheckpointManager(fields.registry, store, temporal=temporal()) as fresh:
            fresh.restore(2 * CYCLE - 1)
            assert reused() == 0
            # ... and once it holds that generation, the next restore of it
            # decodes nothing
            fresh.restore(2 * CYCLE - 1)
            assert reused() == 3 * CYCLE
        expected = cold(store).load_arrays(2 * CYCLE - 1)
        for name, arr in expected.items():
            np.testing.assert_array_equal(fields.state[name], arr)


    def test_keyframe_rewritten_by_another_manager(self):
        """Keyframe 4 deleted and written again with other values: its CRC
        differs from the engine's root, so generation 5 (a delta on it)
        is decoded from the new keyframe."""
        store = MemoryStore()
        manager, fields = written(store, generations=CYCLE + 2)
        manager.delete(CYCLE + 1)
        manager.delete(CYCLE)
        other = Fields(**{name: arr + 0.5 for name, arr in fields.state.items()})
        with CheckpointManager(other.registry, store, temporal=temporal()) as rewriter:
            rewriter.checkpoint(CYCLE)
            rewriter.checkpoint(CYCLE + 1)
        tracer = get_tracer()
        tracer.enable()
        with manager:
            arrays = manager.load_arrays(CYCLE + 1)
        tracer.disable()
        assert (reused(), roots_reused()) == (0, 0)
        loads = [s for s in tracer.spans if s.name == "ckpt.array_load"]
        assert [(s.attrs["chain_links"], s.attrs["links_decoded"], s.attrs["resumed_from"])
                for s in loads] == [(2, 2, "none")] * 3
        assert len([s for s in tracer.spans if s.name == "decompress"]) == 3
        expected = cold(store).load_arrays(CYCLE + 1)
        for name, arr in expected.items():
            np.testing.assert_array_equal(arrays[name], arr)


class TestEngineOwnsItsBuffers:
    @pytest.mark.parametrize("reader", ["writer", "fresh"])
    def test_application_mutating_the_restored_array_moves_no_predictor(self, reader):
        """The application keeps the array a restore handed it and steps
        it in place; the next delta still decodes within the bound."""
        store = MemoryStore()
        manager, fields = written(store, generations=2)
        if reader == "fresh":
            manager.close()
            fields = Fields(**{f"f{i}": drifting(seed=10 + i) for i in range(3)})
            manager = CheckpointManager(fields.registry, store, temporal=temporal())
        with manager:
            manager.restore(1)
            for name in fields.state:
                fields.state[name] += 0.05  # in place: the restored array itself
            manager.checkpoint(2)
            assert manager.read_manifest(2).entry("f0").codec_params["base_step"] == 1
        restored = cold(store).load_arrays(2)
        for name, arr in restored.items():
            assert np.abs(arr - fields.state[name]).max() <= EB * (1 + 1e-6), name


class TestChainRoot:
    """The reconstruction of the last keyframe held, kept next to the held
    generation: generations 0-3, 4-7 and 8-11 are three keyframe cycles."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("predictor", ["previous", "lowband"])
    def test_random_orders_over_three_cycles_equal_cold_restores(self, seed, predictor):
        store = MemoryStore()
        manager, fields = written(store, 3 * CYCLE, predictor)
        expected = [cold(store).load_arrays(step) for step in range(3 * CYCLE)]
        rng = random.Random(seed)
        order = [rng.randrange(3 * CYCLE) for _ in range(4 * CYCLE)]
        with manager:
            for step in order:
                manager.restore(step)
                for name, arr in expected[step].items():
                    np.testing.assert_array_equal(fields.state[name], arr)
                assert_engine_is_cold(manager, step)
        assert roots_reused() > 0

    def test_a_restore_inside_the_newest_chain_decodes_no_keyframe(self):
        manager, _fields = written(MemoryStore())
        tracer = get_tracer()
        tracer.enable()
        with manager:
            for step in (5, 4, 7, 6, 4, 5):
                manager.restore(step)
        tracer.disable()
        assert not any(s.name == "decompress" for s in tracer.spans)
        loads = [s for s in tracer.spans if s.name == "ckpt.array_load"]
        # 7 was held after the writes; 4, the root, the whole time
        assert [s.attrs["resumed_from"] for s in loads[::3]] == [
            "root", "root", "held", "root", "root", "held"
        ]
        assert [s.attrs["links_decoded"] for s in loads[::3]] == [1, 0, 3, 2, 0, 1]
        assert roots_reused() == 3 * 4

    def test_held_bytes_counts_each_buffer_once(self):
        manager, fields = written(MemoryStore())
        nbytes = fields.state["f0"].nbytes
        with manager:
            assert held_bytes() == 3 * 2 * nbytes  # delta 7 and keyframe 4
            manager.restore(4)
            assert held_bytes() == 3 * nbytes  # the keyframe is both
            manager.restore(6)
            assert held_bytes() == 3 * 2 * nbytes
            manager._temporal_engine.reset()
            assert held_bytes() == 0

    def test_engine_holds_only_held_and_staged_while_a_keyframe_encodes(self, monkeypatch):
        """Generation 8 writes keyframes: before each is compressed, its
        array's root is gone, and the arrays before it are staged."""
        manager, fields = written(MemoryStore())
        engine = manager._temporal_engine
        names = sorted(fields.state)
        seen = []

        class Spy(temporal_module.WaveletCompressor):
            def compress(self, arr):
                seen.append((sorted(engine._roots), sorted(engine._pending)))
                return super().compress(arr)

        monkeypatch.setattr(temporal_module, "WaveletCompressor", Spy)
        with manager:
            for name in names:
                fields.state[name] = fields.state[name] + 0.01
            manager.checkpoint(2 * CYCLE)
            assert_engine_is_cold(manager, 2 * CYCLE)
        assert seen == [(names[i + 1:], names[:i]) for i in range(3)]

    def test_a_keyframe_write_that_rolls_back_leaves_cold_restores(self):
        """f0 and f1 drop their roots for keyframes of generation 8, then
        f2 fails it: what the engine holds is still the cold restore."""
        store = MemoryStore()
        manager, fields = written(store)
        with manager:
            good = dict(fields.state)
            fields.state["f2"] = np.full_like(good["f2"], np.nan)
            with pytest.raises(NonFiniteDataError):
                manager.checkpoint(2 * CYCLE)
            assert sorted(manager._temporal_engine._roots) == ["f2"]
            fields.state.update(good)
            for step in (6, 4, 5, 1):
                manager.restore(step)
                for name, arr in cold(store).load_arrays(step).items():
                    np.testing.assert_array_equal(fields.state[name], arr)
                assert_engine_is_cold(manager, step)
            manager.restore(2 * CYCLE - 1)
            manager.checkpoint(2 * CYCLE)
            assert_engine_is_cold(manager, 2 * CYCLE)

    def test_keyframe_generation_removed_fails_as_the_cold_reader_does(self):
        store = MemoryStore()
        manager, _fields = written(store)
        with manager:
            manager.restore(5)  # held 5, root 4: both on the chain of 6
            manager.delete(CYCLE)
            with pytest.raises(CorruptionError) as warm:
                manager.restore(6)
        with pytest.raises(CorruptionError) as fresh:
            cold(store).load_arrays(6)
        assert str(warm.value) == str(fresh.value)
        assert "base generation 4" in str(warm.value)
