"""The generation pipeline of :class:`CheckpointManager`: backend stages on
one lane thread, blobs landed in registry order on the calling thread.

The contract is that nobody downstream can tell: every object and every
store operation is what a serial write produces.  The serial reference in
here is the manager's own inline fallback (a lane that cannot start).
"""

from __future__ import annotations

import faulthandler
import gc
import hashlib
import os
import sys
import threading
import time

import numpy as np
import pytest

import repro.ckpt.manager as manager_module
from repro import CompressionConfig
from repro.apps.climate import ClimateProxy
from repro.ckpt.faults import CRASH_KINDS
from repro.ckpt.manager import CheckpointManager
from repro.ckpt.protocol import ArrayRegistry, registry_from_checkpointable
from repro.ckpt.store import MemoryStore
from repro.config import ResilienceConfig, TemporalConfig
from repro.core import container
from repro.core.pipeline import WaveletCompressor
from repro.exceptions import CompressionError, NonFiniteDataError
from repro.lossless.zlib_codec import GzipCodec
from repro.obs import get_registry, get_tracer

from . import test_crash_points as crash_points

LANE_PREFIX = "repro-backend"

#: sha256 over ``key \0 sha256(object)`` of every object the replay below
#: leaves in its store, recorded at the commit before the pipeline (d6346f8)
PARENT_STORE_DIGESTS = {
    "gzip": "42f993a036021b296fa81c36243ca507f5fac18e2415c6da9f20208a58288c99",
    "zlib": "e7eaad5569da268c1115905f3cba1f9cc88f2253ab3decdaa00ddb5d1bc2c3d7",
    "gzip-mt": "0e4948618d0263b915c18b17605aff3de94f9873a7e71cd99e28fbd0ac29a0ac",
    "gzip+parity": "a32b7c5b8c6ac75096640ada88e836e649faef7ffa5254867d6d348838ceedd4",
}


def lane_threads() -> list[str]:
    return [t.name for t in threading.enumerate() if t.name.startswith(LANE_PREFIX)]


@pytest.fixture(autouse=True)
def every_body_is_deferred(monkeypatch):
    """Test arrays are small; send their bodies through the lane anyway."""
    monkeypatch.setattr(manager_module, "_DEFER_MIN_BYTES", 0)
    get_registry().reset()
    yield
    get_tracer().reset()
    # a manager dropped without close() (the crash matrix "dies" holding
    # one) releases its lane when it is collected; the thread then exits
    gc.collect()
    deadline = time.monotonic() + 10
    while lane_threads() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert lane_threads() == [], "a test left a backend lane running"


def refuse_threads(*args, **kwargs):
    """Stands in for ``ThreadPoolExecutor`` in a thread-limited sandbox:
    the lane cannot start, every seal runs inline."""
    raise RuntimeError("can't start new thread")


@pytest.fixture
def no_lane(monkeypatch):
    monkeypatch.setattr(manager_module, "ThreadPoolExecutor", refuse_threads)


class RecordingStore(MemoryStore):
    """Remembers every operation that reaches it, in order."""

    def __init__(self) -> None:
        super().__init__()
        self.ops: list[tuple[str, str]] = []

    def put(self, key, data):
        self.ops.append(("put", key))
        super().put(key, data)

    def get(self, key):
        self.ops.append(("get", key))
        return super().get(key)

    def exists(self, key):
        self.ops.append(("exists", key))
        return super().exists(key)

    def delete(self, key):
        self.ops.append(("delete", key))
        super().delete(key)

    def list_keys(self, prefix=""):
        self.ops.append(("list", prefix))
        return super().list_keys(prefix)

    def sync(self):
        self.ops.append(("sync", ""))
        super().sync()


def store_digest(store: MemoryStore) -> str:
    digest = hashlib.sha256()
    for key in MemoryStore.list_keys(store, ""):
        digest.update(key.encode() + b"\0")
        digest.update(hashlib.sha256(MemoryStore.get(store, key)).digest())
    return digest.hexdigest()


def replay(store, backend="gzip", generations=12, **manager_kwargs) -> None:
    app = ClimateProxy(shape=(192, 24, 2), seed=11)
    with CheckpointManager(
        registry_from_checkpointable(app),
        store,
        config=CompressionConfig(backend=backend, quantizer="proposed", n_bins=128),
        policy={"modulator": "lossless", "step": "lossless"},
        **manager_kwargs,
    ) as manager:
        for step in range(1, generations + 1):
            app.step()
            manager.checkpoint(step)


def float_registry(n: int = 5, bad: int | None = None) -> ArrayRegistry:
    rng = np.random.default_rng(5)
    registry = ArrayRegistry()
    for i in range(n):
        field = np.cumsum(rng.standard_normal((48, 16)), axis=0)
        if i == bad:
            field[3, 3] = np.nan
        registry.register(f"f{i}", field)
    return registry


class TestBytesAndOrder:
    @pytest.mark.parametrize(
        "case, backend, kwargs",
        [
            ("gzip", "gzip", {}),
            ("zlib", "zlib", {}),
            ("gzip-mt", "gzip-mt", {"backend_threads": 4}),
            ("gzip+parity", "gzip", {"resilience": ResilienceConfig(parity=True)}),
        ],
    )
    def test_every_object_is_the_parent_commits(self, case, backend, kwargs):
        store = MemoryStore()
        replay(store, backend, **kwargs)
        assert get_registry().counter("ckpt.pipeline.deferred", codec=backend).value > 0
        assert store_digest(store) == PARENT_STORE_DIGESTS[case]

    @pytest.mark.parametrize("parity", [False, True])
    def test_store_sees_the_serial_op_sequence(self, parity, monkeypatch):
        kwargs = {"resilience": ResilienceConfig(parity=parity), "retention": 3}
        piped = RecordingStore()
        replay(piped, generations=5, **kwargs)
        assert get_registry().counter("fallbacks", kind="serial").value == 0
        with monkeypatch.context() as patch:
            patch.setattr(manager_module, "ThreadPoolExecutor", refuse_threads)
            serial = RecordingStore()
            replay(serial, generations=5, **kwargs)
        assert get_registry().counter("fallbacks", kind="serial").value > 0
        assert piped.ops == serial.ops
        assert store_digest(piped) == store_digest(serial)

    @pytest.mark.parametrize("parity", [False, True], ids=["plain", "parity"])
    @pytest.mark.parametrize("mode", CRASH_KINDS)
    def test_crash_matrix_with_every_seal_on_the_lane(self, mode, parity):
        """The kill-at-every-op matrix of ``test_crash_points.py`` as it is;
        only the threshold that would seal its small arrays in place is
        gone (see the autouse fixture)."""
        crash_points.test_crash_at_every_protocol_op(mode, parity)
        assert get_registry().counter("ckpt.pipeline.deferred", codec="zlib").value > 0


class TestOverlap:
    def test_next_body_is_formatted_while_the_lane_deflates(self, monkeypatch):
        entered, release = threading.Event(), threading.Event()
        original_compress = GzipCodec.compress
        original_write_body = container.write_body
        store = RecordingStore()
        seen = {"overlapped": False, "bodies": 0, "max_in_flight": 0}

        def blocking_compress(self, data, cuts=None):
            entered.set()
            assert release.wait(30), "nobody released the lane"
            return original_compress(self, data, cuts)

        def counting_write_body(header, sections):
            if seen["bodies"] == 1:
                # array 0's seal is parked in the codec; this is array 1
                assert entered.wait(30), "the lane never reached the codec"
                seen["overlapped"] = not release.is_set()
                release.set()
            body = original_write_body(header, sections)
            seen["bodies"] += 1
            landed = sum(op == "put" for op, _ in store.ops)
            seen["max_in_flight"] = max(seen["max_in_flight"], seen["bodies"] - landed)
            return body

        monkeypatch.setattr(GzipCodec, "compress", blocking_compress)
        monkeypatch.setattr(container, "write_body", counting_write_body)
        with CheckpointManager(
            float_registry(5), store, config=CompressionConfig(backend="gzip")
        ) as manager:
            manager.checkpoint(0)
            manager.restore(0)
        assert seen["overlapped"]
        assert seen["bodies"] == 5
        assert seen["max_in_flight"] == 2

    def test_small_bodies_are_sealed_in_place(self, monkeypatch):
        monkeypatch.setattr(manager_module, "_DEFER_MIN_BYTES", 64 * 1024)
        registry = ArrayRegistry()
        registry.register("step", np.array([7], dtype=np.int64))
        with CheckpointManager(registry, MemoryStore()) as manager:
            manager.checkpoint(0)
            assert lane_threads() == []
        assert get_registry().counter("fallbacks", kind="serial").value == 0


class TestFailureDrainsTheLane:
    @pytest.mark.parametrize("temporal", [None, TemporalConfig(error_bound=1e-3)])
    def test_non_finite_third_array(self, temporal):
        registry = float_registry(5, bad=2)
        registry.register("a_counts", np.arange(4096, dtype=np.int64))
        store = MemoryStore()
        manager = CheckpointManager(registry, store, temporal=temporal)
        with pytest.raises(NonFiniteDataError, match="f2"):
            manager.checkpoint(0)
        assert store.list_keys("") == []
        if temporal is not None:
            assert manager._temporal_engine._pending == {}
        registry.get("f2")[3, 3] = 0.0
        manager.checkpoint(0)
        manager.restore(0)
        manager.close()

    def test_seal_that_raises(self, monkeypatch):
        original = GzipCodec.compress
        calls = {"n": 0}

        def failing_compress(self, data, cuts=None):
            calls["n"] += 1
            if calls["n"] == 3:
                raise CompressionError("deflate fell over")
            return original(self, data, cuts)

        monkeypatch.setattr(GzipCodec, "compress", failing_compress)
        store = MemoryStore()
        manager = CheckpointManager(
            float_registry(5), store, config=CompressionConfig(backend="gzip")
        )
        with pytest.raises(CompressionError, match="fell over"):
            manager.checkpoint(0)
        assert store.list_keys("") == []
        manager.checkpoint(0)
        assert manager.steps() == [0]
        manager.close()


class TestLifecycle:
    def test_lane_is_lazy_closed_and_restarted(self):
        manager = CheckpointManager(float_registry(2), MemoryStore())
        assert lane_threads() == []
        manager.checkpoint(0)
        assert len(lane_threads()) == 1
        manager.close()
        manager.close()
        assert lane_threads() == []
        manager.checkpoint(1)
        assert len(lane_threads()) == 1
        manager.close()

    def test_temporal_only_manager_starts_no_thread(self):
        manager = CheckpointManager(
            float_registry(3), MemoryStore(), temporal=TemporalConfig(error_bound=1e-3)
        )
        manager.checkpoint(0)
        manager.checkpoint(1)
        assert lane_threads() == []

    def test_no_lane_before_the_process_pool_forks(self, monkeypatch):
        from repro.parallel.executor import MultiprocessExecutor

        alive_at_fork: list[list[str]] = []

        def make_pool(self):
            alive_at_fork.append(lane_threads())
            raise OSError("no processes in this test")

        monkeypatch.setattr(MultiprocessExecutor, "_make_pool", make_pool)
        registry = float_registry(2)
        registry.register("a_counts", np.arange(4096, dtype=np.int64))
        with CheckpointManager(registry, MemoryStore(), workers=2, chunk_rows=16) as manager:
            manager.checkpoint(0)
            manager.restore(0)
        assert alive_at_fork and all(names == [] for names in alive_at_fork)

    def test_nested_pools_do_not_deadlock(self):
        """More writers than cores, each sealing ``gzip-mt`` bodies on its
        own lane while the seals park on the shared deflate pool for their
        blocks; every store still ends up with the bytes of a lone writer."""
        config = CompressionConfig(backend="gzip-mt", backend_block_bytes=2048)
        stores = [MemoryStore() for _ in range(4)]
        errors: list[BaseException] = []

        def write(store) -> None:
            try:
                with CheckpointManager(
                    float_registry(5), store, config=config, backend_threads=4
                ) as manager:
                    for step in range(6):
                        manager.checkpoint(step)
                    manager.restore(5)
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        write(stores[0])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        faulthandler.dump_traceback_later(120, exit=True)
        try:
            writers = [threading.Thread(target=write, args=(s,)) for s in stores[1:]]
            for t in writers:
                t.start()
            for t in writers:
                t.join(110)
            assert not any(t.is_alive() for t in writers)
        finally:
            faulthandler.cancel_dump_traceback_later()
            sys.setswitchinterval(interval)
        assert errors == []
        assert {store_digest(s) for s in stores} == {store_digest(stores[0])}


def lane_cpus() -> set[int]:
    (lane,) = [t for t in threading.enumerate() if t.name.startswith(LANE_PREFIX)]
    return os.sched_getaffinity(lane.native_id)


@pytest.mark.skipif(manager_module._sched_getcpu is None, reason="no sched_getcpu here")
class TestLanePlacement:
    """The lane keeps off the CPU its caller is on (DESIGN section 16): a
    scheduler that leaves both on one CPU turns the pipeline serial."""

    def test_lane_avoids_the_callers_cpu_and_leaves_the_caller_alone(self):
        mine = os.sched_getaffinity(0)
        if len(mine) < 2:
            pytest.skip("one CPU: nowhere else to go")
        try:
            here = min(mine)
            os.sched_setaffinity(0, {here})  # so "the caller's CPU" is known
            beside = manager_module._cpus_beside_caller
            with CheckpointManager(float_registry(2), MemoryStore()) as manager:
                # the caller may use all of ``mine`` but sits on ``here``
                manager_module._cpus_beside_caller = lambda: mine - {here}
                manager.checkpoint(0)
                assert lane_cpus() == mine - {here}
                assert os.sched_getaffinity(0) == {here}
        finally:
            manager_module._cpus_beside_caller = beside
            os.sched_setaffinity(0, mine)

    def test_a_caller_confined_to_one_cpu_shares_it(self):
        mine = os.sched_getaffinity(0)
        try:
            os.sched_setaffinity(0, {min(mine)})
            assert manager_module._cpus_beside_caller() is None
            with CheckpointManager(float_registry(2), MemoryStore()) as manager:
                manager.checkpoint(0)
                assert lane_cpus() == {min(mine)}
        finally:
            os.sched_setaffinity(0, mine)

    def test_the_cpus_beside_the_caller(self):
        mine = os.sched_getaffinity(0)
        beside = manager_module._cpus_beside_caller()
        if len(mine) < 2:
            assert beside is None
        else:
            assert beside < mine and len(beside) == len(mine) - 1

    def test_refused_affinity_call_is_not_an_error(self, monkeypatch):
        def refuse(pid, cpus):
            raise PermissionError("sched_setaffinity is filtered here")

        monkeypatch.setattr(manager_module.os, "sched_setaffinity", refuse)
        monkeypatch.setattr(manager_module, "_cpus_beside_caller", lambda: {10**6})
        store = MemoryStore()
        with CheckpointManager(float_registry(2), store) as manager:
            manager.checkpoint(0)
            deferred = get_registry().counter(
                "ckpt.pipeline.deferred", codec=CompressionConfig().backend
            )
            assert deferred.value == 2
            manager.restore(0)

    def test_without_sched_getcpu_the_lane_goes_where_it_is_put(self, monkeypatch):
        monkeypatch.setattr(manager_module, "_sched_getcpu", None)
        assert manager_module._cpus_beside_caller() is None
        with CheckpointManager(float_registry(2), MemoryStore()) as manager:
            manager.checkpoint(0)
            assert lane_cpus() == os.sched_getaffinity(0)


class TestSealHook:
    def test_default_seal_is_todays_result(self, smooth2d):
        compressor = WaveletCompressor(CompressionConfig(backend="gzip"))
        blob, stats = compressor.compress_with_stats(smooth2d)
        assert isinstance(blob, bytes)
        assert blob == compressor.compress(smooth2d)
        assert stats.compressed_bytes == len(blob)
        assert list(stats.timings) == [
            "wavelet", "quantization", "encoding", "formatting", "backend",
        ]

    def test_custom_seal_gets_the_body_and_returns_in_the_blobs_place(self, smooth2d):
        compressor = WaveletCompressor(CompressionConfig(backend="zlib"))
        held = []
        handle, stats = compressor.compress_with_stats(
            smooth2d, seal=lambda body, stats: held.append(body) or "ticket"
        )
        assert handle == "ticket"
        assert stats.n_coefficients == smooth2d.size and stats.n_quantized > 0
        assert stats.formatted_bytes == len(held[0]) and stats.compressed_bytes == 0
        assert "backend" not in stats.timings
        blob = compressor.seal(held[0], stats)
        assert blob == compressor.compress(smooth2d)
        assert stats.compressed_bytes == len(blob) and "backend" in stats.timings


class TestObservability:
    def test_checkpoint_span_reports_the_overlap(self):
        tracer = get_tracer()
        tracer.enable()
        with CheckpointManager(
            float_registry(4), MemoryStore(), config=CompressionConfig(backend="gzip")
        ) as manager:
            manager.checkpoint(0)
        (root,) = [s for s in tracer.spans if s.name == "checkpoint"]
        assert root.attrs["backend_lane_busy_s"] > 0.0
        assert 0.0 <= root.attrs["overlap_share"] < 0.5
        registry = get_registry()
        assert registry.gauge("ckpt.pipeline.overlap_share").value == pytest.approx(
            root.attrs["overlap_share"]
        )
        assert registry.counter("ckpt.pipeline.deferred", codec="gzip").value == 4
        # every backend span ran on the lane, under its array's span, and
        # that span covers encode -> landed
        arrays = {s.span_id: s for s in tracer.spans if s.name == "ckpt.array"}
        backends = [s for s in tracer.spans if s.name == "backend"]
        assert len(backends) == 4
        for span in backends:
            parent = arrays[span.parent_id]
            assert span.tid != parent.tid
            assert parent.start <= span.start and span.end <= parent.end
            assert parent.attrs["codec"] == "wavelet-lossy"
            assert parent.attrs["stored_bytes"] == span.attrs["compressed_bytes"]

    def test_serial_fallback_is_counted_and_overlaps_nothing(self, no_lane):
        tracer = get_tracer()
        tracer.enable()
        manager = CheckpointManager(float_registry(3), MemoryStore())
        manager.checkpoint(0)
        (root,) = [s for s in tracer.spans if s.name == "checkpoint"]
        assert root.attrs["backend_lane_busy_s"] == 0.0
        assert root.attrs["overlap_share"] == 0.0
        assert get_registry().counter("fallbacks", kind="serial").value == 3
        assert get_registry().counter("ckpt.pipeline.deferred", codec="gzip").value == 0

    def test_traced_checkpoint_has_no_orphan_spans(self, tmp_path):
        from repro.cli import main
        from repro.obs.sink import JsonlSink

        path = str(tmp_path / "trace.jsonl")
        registry = float_registry(1)
        registry.register("a_counts", np.arange(4096, dtype=np.int64))
        tracer = get_tracer()
        sink = JsonlSink(path)
        tracer.enable(sink)
        try:
            with CheckpointManager(registry, MemoryStore()) as manager:
                manager.checkpoint(0)
        finally:
            tracer.disable()
            sink.close()
        assert main(["report", path, "--check-parentage"]) == 0

    def test_failed_generation_leaves_no_orphan_spans(self):
        from repro.obs.report import TraceReport

        tracer = get_tracer()
        tracer.enable()
        manager = CheckpointManager(float_registry(5, bad=2), MemoryStore())
        with pytest.raises(NonFiniteDataError):
            manager.checkpoint(0)
        manager.close()
        report = TraceReport([s.to_dict() for s in tracer.spans])
        assert report.orphans() == []
