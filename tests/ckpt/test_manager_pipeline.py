"""The generation pipeline of :class:`CheckpointManager`: backend stages on
one lane thread, blobs landed in registry order on the calling thread.

The contract is that nobody downstream can tell: every object and every
store operation is what a serial write produces.  The serial reference in
here is the manager's own inline fallback (a lane that cannot start).
"""

from __future__ import annotations

import contextvars
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
from repro.ckpt.temporal import TemporalEngine
from repro.config import ResilienceConfig, TemporalConfig
from repro.core import container
from repro.core.pipeline import WaveletCompressor
from repro.exceptions import CompressionError, NonFiniteDataError, ReproError, StorageError
from repro.lossless.deflate import DeflateCodec
from repro.obs import get_registry, get_tracer

from . import test_crash_points as crash_points
from . import test_temporal

LANE_PREFIX = "repro-backend"

#: sha256 over ``key \0 sha256(object)`` of every object the replay below
#: leaves in its store: first recorded at the commit before the pipeline
#: (d6346f8), re-recorded from the serial write (``ThreadPoolExecutor``
#: patched to ``refuse_threads``) when deflate gained its stored strategy
PARENT_STORE_DIGESTS = {
    "gzip": "06d6516b9995d2e326b3d1f346984158244aaa12d3702455dec2f638cac3303b",
    "zlib": "e67c446ec60fe458cbe07cdf37ba4e724121c97456cde016dbb57c41939dbc75",
    "gzip-mt": "4febf7b41d9299a185a9e5f06a3e627e4cbc9edb60b3c069a3b6849085cb2339",
    "gzip+parity": "ea0d278e0a116d4c1d7804213fe0beaba73f49b8ba67a35ae140e935ccee41f2",
}


def lane_threads() -> list[str]:
    return [t.name for t in threading.enumerate() if t.name.startswith(LANE_PREFIX)]


@pytest.fixture(autouse=True)
def every_body_is_deferred(monkeypatch):
    """Test arrays are small; send their bodies through the lane anyway."""
    monkeypatch.setattr(manager_module, "_DEFER_MIN_BYTES", 0)
    monkeypatch.setattr(manager_module, "_PREFETCH_MIN_BYTES", 0)
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


#: Rows of the fields whose restore must show a non-negative overlap: at 48
#: rows an inflate takes less than handing it to the lane and back, and the
#: share reads below zero in a third of the runs on a 2-vCPU guest.
OVERLAP_ROWS = 2048


def float_registry(n: int = 5, bad: int | None = None, n_rows: int = 48) -> ArrayRegistry:
    rng = np.random.default_rng(5)
    registry = ArrayRegistry()
    for i in range(n):
        field = np.cumsum(rng.standard_normal((n_rows, 16)), axis=0)
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
    @pytest.mark.parametrize("axis", [None, 0], ids=["unfiltered", "filtered"])
    def test_temporal_write_is_the_serial_write(self, axis, parity, monkeypatch):
        """Two keyframe cycles of three fields, each encoded whole on the
        lane or here: every object and every ``(op, key)`` the store sees
        are those of the write that cannot start a thread."""
        import repro.ckpt.temporal as temporal_module

        monkeypatch.setattr(temporal_module, "choose_filter", lambda q: axis)
        resilience = ResilienceConfig(parity=parity)
        piped = RecordingStore()
        temporal_writes(piped, resilience=resilience).close()
        assert deferred("zlib") > 0
        assert get_registry().counter("fallbacks", kind="serial").value == 0
        with monkeypatch.context() as patch:
            patch.setattr(manager_module, "ThreadPoolExecutor", refuse_threads)
            serial = RecordingStore()
            manager = temporal_writes(serial, resilience=resilience)
        assert get_registry().counter("fallbacks", kind="serial").value > 0
        assert piped.ops == serial.ops
        assert store_digest(piped) == store_digest(serial)
        filters = {
            (manager.read_manifest(step).entry("f0").codec_params.get("filter") or {}).get("kind")
            for step in range(2 * CYCLE)
        }
        assert filters == {None, "none" if axis is None else "delta"}

    @pytest.mark.parametrize("mode", CRASH_KINDS)
    def test_temporal_crash_matrix_with_encodes_on_the_lane(self, mode, monkeypatch):
        """``TestCrashMatrix`` of ``test_temporal.py`` as it is, over two
        fields, so one array's encode runs on the lane while the other's
        runs here, at every store operation a crash can hit."""

        def two_fields(arr, name="field"):
            registry = ArrayRegistry()
            registry.register(name, arr.copy())
            registry.register(f"{name}_b", 2.0 * arr + 1.0)
            return registry

        monkeypatch.setattr(test_temporal, "_registry", two_fields)
        test_temporal.TestCrashMatrix().test_crash_mid_delta_commit_preserves_the_committed_chain(
            mode
        )
        assert deferred("zlib") > 0

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
        """The lane parks in array 0's deflate while this thread formats the
        bodies behind it.  Bodies formatted and not yet deflated, counted as
        the next one is formatted, reach ``_UNSEALED_MAX`` and no more: past
        it this thread deflates the newest body itself."""
        caller = threading.current_thread()
        entered, release = threading.Event(), threading.Event()
        original_compress = DeflateCodec.compress
        original_write_body = container.write_body
        seen = {"overlapped": False, "bodies": 0, "deflated": 0, "max_in_flight": 0}

        def blocking_compress(self, data, cuts=None):
            here = threading.current_thread() is caller
            if not here:
                entered.set()
                assert release.wait(30), "nobody released the lane"
            out = original_compress(self, data, cuts)
            seen["deflated"] += 1
            if here and seen["deflated"] == 4:  # every body but array 0's
                release.set()
            return out

        def counting_write_body(header, sections):
            if seen["bodies"] == 1:
                # array 0's seal is parked in the codec; this is array 1
                assert entered.wait(30), "the lane never reached the codec"
                seen["overlapped"] = not release.is_set()
            seen["max_in_flight"] = max(seen["max_in_flight"], seen["bodies"] - seen["deflated"])
            seen["bodies"] += 1
            return original_write_body(header, sections)

        monkeypatch.setattr(DeflateCodec, "compress", blocking_compress)
        monkeypatch.setattr(container, "write_body", counting_write_body)
        with CheckpointManager(
            float_registry(5), RecordingStore(), config=CompressionConfig(backend="gzip")
        ) as manager:
            manager.checkpoint(0)
            manager.restore(0)
        assert seen["overlapped"]
        assert seen["bodies"] == 5
        assert seen["max_in_flight"] == manager_module._UNSEALED_MAX == 3
        assert (deferred("gzip"), claimed("gzip")) == (1, 4)

    def test_temporal_array_is_encoded_on_the_lane_while_the_next_is_encoded_here(
        self, monkeypatch
    ):
        """Keyframes are encoded here.  In the delta generation after them
        the lane parks in ``f0``'s encode until ``f1``'s has run on the
        calling thread; encodes started minus arrays landed never exceeds
        two, so ``f2`` waits for ``f0`` to land."""
        entered, release = threading.Event(), threading.Event()
        lock = threading.Lock()
        original = TemporalEngine.encode
        store = RecordingStore()
        seen = {"encodes": 0, "max_in_flight": 0, "overlapped": False, "threads": {}}
        registry = float_registry(5)
        manager = CheckpointManager(
            registry, store, temporal=TemporalConfig(error_bound=1e-3)
        )
        manager.checkpoint(0)
        assert deferred("zlib") == 0  # keyframes
        store.ops.clear()

        def watching_encode(self, name, arr, step):
            with lock:
                seen["threads"][name] = threading.current_thread().name
                seen["encodes"] += 1
                landed = sum(op == "put" and key.endswith(".bin") for op, key in store.ops)
                seen["max_in_flight"] = max(seen["max_in_flight"], seen["encodes"] - landed)
            if name == "f0":
                entered.set()
                assert release.wait(30), "nobody released the lane"
                time.sleep(0.05)  # still busy when f1 is done: f2 must wait
            elif name == "f1":
                assert entered.wait(30), "the lane never reached f0"
                seen["overlapped"] = not release.is_set()
                try:
                    return original(self, name, arr, step)
                finally:
                    release.set()
            return original(self, name, arr, step)

        drift(registry)
        monkeypatch.setattr(TemporalEngine, "encode", watching_encode)
        with manager:
            manager.checkpoint(1)
            restored = manager.load_arrays(1)
            codecs = {entry.codec for entry in manager.read_manifest(1).entries}
        assert codecs == {"temporal-delta"}
        assert seen["overlapped"]
        assert seen["threads"]["f0"].startswith(LANE_PREFIX)
        assert seen["threads"]["f1"] == threading.current_thread().name
        assert seen["encodes"] == 5
        assert seen["max_in_flight"] == 2
        assert 1 <= deferred("zlib") <= 4  # f1 never
        for name in registry.names():
            assert np.abs(restored[name] - registry.get(name)).max() <= 1e-3

    def test_small_bodies_are_sealed_in_place(self, monkeypatch):
        monkeypatch.setattr(manager_module, "_DEFER_MIN_BYTES", 64 * 1024)
        registry = ArrayRegistry()
        registry.register("step", np.array([7], dtype=np.int64))
        with CheckpointManager(registry, MemoryStore()) as manager:
            manager.checkpoint(0)
            assert lane_threads() == []
        assert get_registry().counter("fallbacks", kind="serial").value == 0


def opened_spans(monkeypatch) -> list:
    """Every span the (enabled) tracer starts from here on."""
    tracer = get_tracer()
    opened, start = [], tracer.start

    def recording_start(name, **kwargs):
        opened.append(start(name, **kwargs))
        return opened[-1]

    monkeypatch.setattr(tracer, "start", recording_start)
    tracer.enable()
    return opened


def drift(registry: ArrayRegistry) -> None:
    for name in registry.names():
        if registry.get(name).dtype.kind == "f":
            registry.get(name)[...] += 0.01


def serial_checkpoint_failure(manager, step, monkeypatch) -> ReproError:
    manager.close()
    with monkeypatch.context() as patch:
        patch.setattr(manager_module, "ThreadPoolExecutor", refuse_threads)
        with pytest.raises(ReproError) as serial:
            manager.checkpoint(step)
    return serial.value


class TestFailureDrainsTheLane:
    @pytest.mark.parametrize("temporal", [None, TemporalConfig(error_bound=1e-3)])
    def test_non_finite_third_array(self, temporal, monkeypatch):
        """Wherever ``f2``'s encode ran, its failure leaves as the serial
        write's does -- hint included -- with nothing stored, staged,
        running or open behind it."""
        from repro.obs.report import TraceReport

        registry = float_registry(5)
        registry.register("a_counts", np.arange(4096, dtype=np.int64))
        store = MemoryStore()
        manager = CheckpointManager(registry, store, temporal=temporal)
        manager.checkpoint(0)  # temporal: keyframes, so generation 1 is deltas
        committed = store.list_keys("")
        get_registry().reset()
        drift(registry)
        registry.get("f2")[3, 3] = np.nan
        opened = opened_spans(monkeypatch)
        with pytest.raises(NonFiniteDataError, match="f2") as piped:
            manager.checkpoint(1)
        assert "pin it to the lossless path with policy={'f2': 'lossless'}" in str(piped.value)
        assert [s.name for s in opened if s.end is None] == []
        assert TraceReport([s.to_dict() for s in get_tracer().spans]).orphans() == []
        get_tracer().disable()
        assert store.list_keys("") == committed
        if temporal is not None:
            assert deferred("zlib") > 0
            assert manager._temporal_engine._pending == {}
        serial = serial_checkpoint_failure(manager, 1, monkeypatch)
        assert (type(piped.value), str(piped.value)) == (type(serial), str(serial))
        registry.get("f2")[3, 3] = 0.0
        manager.checkpoint(1)
        manager.restore(1)
        manager.close()

    def test_lane_failure_before_a_caller_failure_is_the_one_raised(self, monkeypatch):
        """``f0`` fails on the lane, ``f1`` -- encoded here while ``f0``
        still runs -- fails too: the serial write meets ``f0`` first, so
        that is the error, and the generation leaves nothing behind."""
        from repro.obs.report import TraceReport

        f1_started = threading.Event()
        original = TemporalEngine.encode
        threads = {}

        def ordered_encode(self, name, arr, step):
            threads[name] = threading.current_thread().name
            if name == "f0":
                assert f1_started.wait(30), "f1 was never encoded beside f0"
            else:
                f1_started.set()
            return original(self, name, arr, step)

        registry = float_registry(2)
        store = MemoryStore()
        manager = CheckpointManager(registry, store, temporal=TemporalConfig(error_bound=1e-3))
        manager.checkpoint(0)  # keyframes: generation 1 is deltas
        committed = store.list_keys("")
        drift(registry)
        registry.get("f0")[3, 3] = np.nan
        registry.get("f1")[5, 5] = np.inf
        opened = opened_spans(monkeypatch)
        with monkeypatch.context() as patch:
            patch.setattr(TemporalEngine, "encode", ordered_encode)
            with pytest.raises(NonFiniteDataError, match="'f0'") as piped:
                manager.checkpoint(1)
        assert threads["f0"].startswith(LANE_PREFIX)
        assert threads["f1"] == threading.current_thread().name
        assert [s.name for s in opened if s.end is None] == []
        assert TraceReport([s.to_dict() for s in get_tracer().spans]).orphans() == []
        get_tracer().disable()
        assert store.list_keys("") == committed
        assert manager._temporal_engine._pending == {}
        assert manager._lane._work_queue.empty()
        serial = serial_checkpoint_failure(manager, 1, monkeypatch)
        assert (type(piped.value), str(piped.value)) == (type(serial), str(serial))

    def test_seal_that_raises(self, monkeypatch):
        original = DeflateCodec.compress
        calls = {"n": 0}

        def failing_compress(self, data, cuts=None):
            calls["n"] += 1
            if calls["n"] == 3:
                raise CompressionError("deflate fell over")
            return original(self, data, cuts)

        monkeypatch.setattr(DeflateCodec, "compress", failing_compress)
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


class ParkedLane:
    """Forces claims: the lane parks in the first deflate of every
    generation until the calling thread has deflated every other body of
    it (one per registry array), which it can only do by claiming them.
    ``fail`` maps ``"lane"``/``"here"`` to a backend name whose deflate
    raises on that thread."""

    def __init__(self, monkeypatch, fail=None):
        self.fail = fail or {}
        self.caller = threading.current_thread()
        compress, write_body = DeflateCodec.compress, container.write_body
        checkpoint = CheckpointManager.checkpoint

        def parked_compress(codec, data, cuts=None):
            here = threading.current_thread() is self.caller
            if not here:
                self.entered.set()
                assert self.release.wait(30), "the caller never claimed the other bodies"
            where = "here" if here else "lane"
            try:
                if self.fail.get(where) == codec.name:
                    raise CompressionError(f"{codec.name} deflate failed ({where})")
                return compress(codec, data, cuts)
            finally:
                if here:
                    self.here += 1
                    if self.here == self.bodies - 1:
                        self.release.set()

        def waiting_write_body(header, sections):
            self.formatted += 1
            if self.formatted == 2:  # body 0 is on the lane before any claim
                assert self.entered.wait(30), "the lane never reached the codec"
            return write_body(header, sections)

        def generation(manager, step, *args, **kwargs):
            self.bodies = len(manager.registry.names())
            self.entered, self.release = threading.Event(), threading.Event()
            self.here = self.formatted = 0
            return checkpoint(manager, step, *args, **kwargs)

        monkeypatch.setattr(DeflateCodec, "compress", parked_compress)
        monkeypatch.setattr(container, "write_body", waiting_write_body)
        monkeypatch.setattr(CheckpointManager, "checkpoint", generation)


class TestClaims:
    """The caller claims every body the parked lane has not started."""

    @pytest.mark.parametrize(
        "case, backend, kwargs",
        [
            ("gzip", "gzip", {}),
            ("zlib", "zlib", {}),
            ("gzip-mt", "gzip-mt", {"backend_threads": 4}),
            ("gzip+parity", "gzip", {"resilience": ResilienceConfig(parity=True)}),
        ],
    )
    def test_every_object_is_the_parent_commits(self, case, backend, kwargs, monkeypatch):
        ParkedLane(monkeypatch)
        store = MemoryStore()
        replay(store, backend, **kwargs)
        # per generation the modulator on the lane, the six arrays after it here
        assert claimed(backend) + claimed("zlib") * (backend != "zlib") == 12 * 6
        assert store_digest(store) == PARENT_STORE_DIGESTS[case]

    def test_claims_racing_the_lane_lose_and_repeat_no_body(self):
        """No parking: with the interpreter switching threads every
        microsecond, claims race the lane for every body.  Each body is
        deflated exactly once -- by the lane or by its claim -- and the
        store holds what the parent commit wrote."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            store = MemoryStore()
            replay(store, "gzip")
        finally:
            sys.setswitchinterval(interval)
        handed_off = sum(deferred(c) + claimed(c) for c in ("gzip", "zlib"))
        assert handed_off == 12 * 7  # generations x arrays
        assert store_digest(store) == PARENT_STORE_DIGESTS["gzip"]

    @pytest.mark.parametrize("parity", [False, True])
    def test_store_sees_the_serial_op_sequence(self, parity, monkeypatch):
        kwargs = {"resilience": ResilienceConfig(parity=parity), "retention": 3}
        with monkeypatch.context() as patch:
            ParkedLane(patch)
            piped = RecordingStore()
            replay(piped, generations=5, **kwargs)
        assert claimed("gzip") > 0
        with monkeypatch.context() as patch:
            patch.setattr(manager_module, "ThreadPoolExecutor", refuse_threads)
            serial = RecordingStore()
            replay(serial, generations=5, **kwargs)
        assert piped.ops == serial.ops
        assert store_digest(piped) == store_digest(serial)

    @pytest.mark.parametrize(
        "fail, raised",
        [
            ({"here": "zlib"}, "zlib deflate failed (here)"),
            ({"here": "zlib", "lane": "gzip"}, "gzip deflate failed (lane)"),
        ],
        ids=["claimed-alone", "claimed-behind-lane"],
    )
    def test_failure_is_raised_at_its_arrays_turn(self, fail, raised, monkeypatch):
        """``f3`` (zlib) fails where this thread claimed it; with ``f0``
        (gzip) failing on the lane too, ``f0``'s error is the one raised, as
        the serial write meets it first.  Either way the lane is drained and
        the generation leaves no key and no open span."""
        from repro.obs.report import TraceReport

        policy = {"f3": CompressionConfig(backend="zlib")}
        store = MemoryStore()
        manager = CheckpointManager(
            float_registry(5), store, config=CompressionConfig(backend="gzip"), policy=policy
        )
        manager.checkpoint(0)
        committed = store.list_keys("")
        get_registry().reset()
        opened = opened_spans(monkeypatch)
        with monkeypatch.context() as patch:
            ParkedLane(patch, fail)
            with pytest.raises(CompressionError) as piped:
                manager.checkpoint(1)
        assert str(piped.value) == raised
        assert claimed("zlib") == 1
        assert [s.name for s in opened if s.end is None] == []
        assert TraceReport([s.to_dict() for s in get_tracer().spans]).orphans() == []
        get_tracer().disable()
        assert store.list_keys("") == committed
        assert manager._lane._work_queue.empty()
        if "lane" not in fail:  # the serial write fails on f3 the same way
            compress = DeflateCodec.compress

            def failing(codec, data, cuts=None):
                if codec.name == "zlib":
                    raise CompressionError("zlib deflate failed (here)")
                return compress(codec, data, cuts)

            monkeypatch.setattr(DeflateCodec, "compress", failing)
            serial = serial_checkpoint_failure(manager, 1, monkeypatch)
            assert (type(piped.value), str(piped.value)) == (type(serial), str(serial))
        manager.close()

    def test_claim_does_not_see_what_the_lane_set(self, monkeypatch):
        """A claimed body runs in the generation's context as it was before
        any hand-off, not in a copy of the one the lane is running in: a
        context variable the lane's stage set is not visible to it."""
        lane = ParkedLane(monkeypatch)
        parked = DeflateCodec.compress
        mark = contextvars.ContextVar("mark", default="unset")
        seen = []

        def marking(codec, data, cuts=None):
            if threading.current_thread() is lane.caller:
                seen.append(mark.get())
            else:
                mark.set("lane")
            return parked(codec, data, cuts)

        monkeypatch.setattr(DeflateCodec, "compress", marking)
        manager = CheckpointManager(float_registry(3), MemoryStore())
        manager.checkpoint(0)
        manager.close()
        assert claimed("zlib") == 2
        assert seen == ["unset", "unset"]

    @pytest.mark.parametrize("parity", [False, True], ids=["plain", "parity"])
    @pytest.mark.parametrize("mode", CRASH_KINDS)
    def test_crash_matrix_with_claims_forced(self, mode, parity, monkeypatch):
        """The kill-at-every-op matrix of ``test_crash_points.py`` as it is,
        with the second body of every generation claimed."""
        ParkedLane(monkeypatch)
        crash_points.test_crash_at_every_protocol_op(mode, parity)
        assert claimed("zlib") > 0


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
            # a body this thread claimed is one the lane never started
            backend = CompressionConfig().backend
            assert deferred(backend) + claimed(backend) == 2
            manager.restore(0)
            assert prefetched() == 2  # a restore claims nothing

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
        # every body was deflated on the lane or claimed by this thread
        assert deferred("gzip") + claimed("gzip") == 4
        assert root.attrs["claimed"] == claimed("gzip")
        assert (root.attrs["backend_lane_busy_s"] > 0.0) == (deferred("gzip") > 0)
        # every backend span ran under its array's span, on the lane when
        # deferred and here when claimed, and that span covers encode -> landed
        arrays = {s.span_id: s for s in tracer.spans if s.name == "ckpt.array"}
        backends = [s for s in tracer.spans if s.name == "backend"]
        assert len(backends) == 4
        for span in backends:
            parent = arrays[span.parent_id]
            assert parent.start <= span.start and span.end <= parent.end
            assert parent.attrs["codec"] == "wavelet-lossy"
            assert parent.attrs["stored_bytes"] == span.attrs["compressed_bytes"]
        on_lane = [s.tid != arrays[s.parent_id].tid for s in backends]
        assert (sum(on_lane), len(on_lane) - sum(on_lane)) == (
            deferred("gzip"), claimed("gzip")
        )

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
        registry = float_registry(3)
        registry.register("a_counts", np.arange(4096, dtype=np.int64))
        tracer = get_tracer()
        sink = JsonlSink(path)
        tracer.enable(sink)
        try:
            with CheckpointManager(registry, MemoryStore()) as manager:
                manager.checkpoint(0)
            # keyframes then deltas, encoded on the lane and here
            with CheckpointManager(
                registry, MemoryStore(), temporal=TemporalConfig(error_bound=1e-3)
            ) as manager:
                manager.checkpoint(0)
                registry.get("f0")[...] += 0.01
                manager.checkpoint(1)
        finally:
            tracer.disable()
            sink.close()
        assert deferred("zlib") > 0
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


# -- the restore side ------------------------------------------------------------


def written(registry=None, **manager_kwargs):
    """A manager over a fresh store holding generation 0 of ``registry``."""
    manager = CheckpointManager(
        registry if registry is not None else float_registry(5),
        MemoryStore(),
        **manager_kwargs,
    )
    manager.checkpoint(0)
    get_registry().reset()
    return manager


def deferred(codec: str) -> float:
    return get_registry().counter("ckpt.pipeline.deferred", codec=codec).value


def claimed(codec: str) -> float:
    return get_registry().counter("ckpt.pipeline.claimed", codec=codec).value


def prefetched(backend: str = CompressionConfig().backend) -> float:
    return get_registry().counter("ckpt.pipeline.prefetched", codec=backend).value


class TestRestoreLane:
    def test_restore_equals_the_restore_without_a_lane(self, monkeypatch):
        registry = float_registry(5)
        registry.register("a_counts", np.arange(4096, dtype=np.int64))
        with written(registry) as manager:
            piped = manager.load_arrays(0)
            assert prefetched() == 5
            assert get_registry().counter("fallbacks", kind="serial").value == 0
            manager.close()  # the next hand-off has a thread to start
            monkeypatch.setattr(manager_module, "ThreadPoolExecutor", refuse_threads)
            serial = manager.load_arrays(0)
            assert get_registry().counter("fallbacks", kind="serial").value == 5
            assert prefetched() == 5
        assert list(piped) == list(serial) == registry.names()
        for name in piped:
            np.testing.assert_array_equal(piped[name], serial[name])

    def test_next_blob_is_inflated_while_this_one_is_decoded(self, monkeypatch):
        """The lane parks in array 1's inflate until array 0's decode has
        seen it there; ``read_body`` calls minus finished decodes is the
        number of inflated bodies alive, never above the look-ahead plus
        the one being decoded."""
        import repro.core.pipeline as pipeline_module

        entered, release = threading.Event(), threading.Event()
        original_decompress = DeflateCodec.decompress
        original_read_body = container.read_body
        original_decode = pipeline_module.decode_coefficients
        seen = {"inflates": 0, "bodies": 0, "decoded": 0, "alive": 0, "overlapped": False}

        def blocking_decompress(self, data):
            seen["inflates"] += 1
            if seen["inflates"] == 2:
                entered.set()
                assert release.wait(30), "nobody released the lane"
            return original_decompress(self, data)

        def counting_read_body(body):
            seen["bodies"] += 1
            return original_read_body(body)

        def watching_decode(payload):
            if seen["decoded"] == 0:
                assert entered.wait(30), "the lane never reached array 1"
                seen["overlapped"] = not release.is_set()
                release.set()
            seen["alive"] = max(seen["alive"], seen["bodies"] - seen["decoded"])
            flat = original_decode(payload)
            seen["decoded"] += 1
            return flat

        with written(config=CompressionConfig(backend="gzip")) as manager:
            monkeypatch.setattr(DeflateCodec, "decompress", blocking_decompress)
            monkeypatch.setattr(container, "read_body", counting_read_body)
            monkeypatch.setattr(pipeline_module, "decode_coefficients", watching_decode)
            manager.restore(0)
        assert seen["overlapped"]
        assert seen["bodies"] == seen["decoded"] == 5
        assert 1 <= seen["alive"] <= manager_module._LOOKAHEAD + 1

    @pytest.mark.parametrize("k", [0, 2, 4])
    def test_corrupted_body_raises_what_the_serial_path_raises(self, k, monkeypatch):
        """Array ``k``'s deflate stream rots after the CRC check: the lane's
        failure surfaces at that array's turn, typed and worded as the
        serial path's, and nothing is left running."""
        collect = CheckpointManager._collect_verified_blobs

        def rotten(self, step, manifest, entries, *, repair):
            blobs = collect(self, step, manifest, entries, repair=repair)
            blob = bytearray(blobs[f"f{k}"])
            blob[len(blob) // 2] ^= 0xFF
            blobs[f"f{k}"] = bytes(blob)
            return blobs

        monkeypatch.setattr(CheckpointManager, "_collect_verified_blobs", rotten)
        manager = written()
        with pytest.raises(ReproError) as piped:
            manager.restore(0)
        assert prefetched() >= 1
        started = time.monotonic()
        manager.close()
        manager.close()
        assert time.monotonic() - started < 5 and lane_threads() == []
        monkeypatch.setattr(manager_module, "ThreadPoolExecutor", refuse_threads)
        with pytest.raises(ReproError) as serial:
            manager.restore(0)
        assert type(piped.value) is type(serial.value)
        assert str(piped.value) == str(serial.value)

    def test_failure_cancels_the_front_behind_it(self, monkeypatch):
        """A decode fails while the fronts of the arrays behind it sit on
        the lane: the error leaves only after the running one is done, and
        none past the look-ahead is ever started."""
        import repro.core.pipeline as pipeline_module

        inflates = []
        original_decompress = DeflateCodec.decompress

        def counting_decompress(self, data):
            inflates.append(threading.current_thread().name)
            return original_decompress(self, data)

        def failing_inverse(coeffs, applied, wavelet, **kwargs):
            if len(inflates) >= 2:
                raise RuntimeError("inverse fell over")
            return original_inverse(coeffs, applied, wavelet, **kwargs)

        original_inverse = pipeline_module.wavelet_inverse
        with written(config=CompressionConfig(backend="gzip")) as manager:
            monkeypatch.setattr(DeflateCodec, "decompress", counting_decompress)
            monkeypatch.setattr(pipeline_module, "wavelet_inverse", failing_inverse)
            with pytest.raises(RuntimeError, match="fell over"):
                manager.restore(0)
            # array 1 fails at the latest; by then 1 + _LOOKAHEAD are handed over
            assert 2 <= len(inflates) <= manager_module._LOOKAHEAD + 2
            assert all(name.startswith(LANE_PREFIX) for name in inflates)
            settled = len(inflates)
            time.sleep(0.05)
            assert len(inflates) == settled  # nothing still running behind the error

    def test_workers_2_starts_no_lane_on_restore(self):
        store = MemoryStore()
        with CheckpointManager(float_registry(3), store) as writer:
            writer.checkpoint(0)
        get_registry().reset()
        with CheckpointManager(float_registry(3), store, workers=2) as reader:
            reader.restore(0)
            assert lane_threads() == []
        assert prefetched() == 0
        assert get_registry().counter("fallbacks", kind="serial").value == 0

    def test_small_blobs_are_inflated_in_place(self, monkeypatch):
        monkeypatch.setattr(manager_module, "_DEFER_MIN_BYTES", 64 * 1024)
        with written() as manager:
            manager.close()
            manager.restore(0)
            assert lane_threads() == []
        assert prefetched() == 0

    def test_parity_repaired_blob_is_decoded_from_the_repaired_bytes(self, monkeypatch):
        from repro.ckpt.manifest import array_key

        def refuse(key, data):
            raise StorageError("read-only")

        with written(resilience=ResilienceConfig(parity=True)) as manager:
            reference = manager.load_arrays(0)
            key = array_key(0, "f2")
            blob = bytearray(manager.store.get(key))
            blob[len(blob) // 2] ^= 0xFF
            manager.store.put(key, bytes(blob))
            monkeypatch.setattr(manager.store, "put", refuse)  # no write-back
            get_registry().reset()
            healed = manager.load_arrays(0)
            (event,) = manager.repair_log
            assert (event.name, event.rewritten) == ("f2", False)
            assert manager.store.get(key) == bytes(blob)  # still rotten at rest
            assert prefetched() == 5
        for name in reference:
            np.testing.assert_array_equal(healed[name], reference[name])

    def test_temporal_generations_restore_unchanged(self):
        """A temporal manager's restores prefetch one link per array and
        chain position, the keyframe included, on the lane its writes
        already started for whole-array encodes."""
        registry = float_registry(3)
        manager = CheckpointManager(
            registry, MemoryStore(), temporal=TemporalConfig(error_bound=1e-3, keyframe_every=4)
        )
        written_states = []
        for step in range(3):
            for name in registry.names():
                registry.get(name)[...] += 0.01 * (step + 1)
            written_states.append({n: registry.get(n).copy() for n in registry.names()})
            manager.checkpoint(step)
        assert len(lane_threads()) == 1 and deferred("zlib") > 0
        get_registry().reset()
        # an engine holding generation 2 decodes none of its links: forget it
        manager._temporal_engine.reset()
        for step in range(3):
            arrays = manager.load_arrays(step)
            for name in registry.names():
                assert np.abs(arrays[name] - written_states[step][name]).max() <= 1e-3
        assert len(lane_threads()) == 1
        # generation k replays k + 1 links per array: 1 + 2 + 3 chains of 3
        assert prefetched("temporal-keyframe") == 3 * 3
        assert prefetched("temporal-delta") == 3 * (0 + 1 + 2)
        assert prefetched() == 0
        assert get_registry().counter("fallbacks", kind="serial").value == 0
        manager.close()

    def test_chunked_generation_restores_unchanged(self):
        from repro.core.chunked import chunked_decompress
        from repro.ckpt.manifest import array_key

        store = MemoryStore()
        with CheckpointManager(float_registry(2), store, workers=2, chunk_rows=16) as writer:
            writer.checkpoint(0)
        get_registry().reset()
        with CheckpointManager(float_registry(2), store) as reader:
            arrays = reader.load_arrays(0)
            assert lane_threads() == [] and prefetched() == 0
        for name, arr in arrays.items():
            np.testing.assert_array_equal(arr, chunked_decompress(store.get(array_key(0, name))))


# -- temporal chains: one link stream ---------------------------------------------

CYCLE = 4  # keyframe_every of the stores below: generation 7's chains are 4 links


def temporal_writes(
    store, predictor: str = "previous", generations: int = 2 * CYCLE, n_rows: int = 48,
    **manager_kwargs,
):
    """A manager that has written two keyframe cycles of three drifting
    fields into ``store``."""
    registry = float_registry(3, n_rows=n_rows)
    manager = CheckpointManager(
        registry,
        store,
        temporal=TemporalConfig(error_bound=1e-3, keyframe_every=CYCLE, predictor=predictor),
        **manager_kwargs,
    )
    rows = np.arange(n_rows)[:, None]
    for step in range(generations):
        for i, name in enumerate(registry.names()):
            registry.get(name)[...] += 0.02 * np.sin(rows / 7.0 + step + i)
        manager.checkpoint(step)
    return manager


def temporal_manager(
    predictor: str = "previous", generations: int = 2 * CYCLE, n_rows: int = 48
):
    """A fresh manager over a store :func:`temporal_writes` filled,
    counters reset after: its engine holds no chain, so a restore inflates
    and decodes every link."""
    store = MemoryStore()
    temporal_writes(store, predictor, generations, n_rows).close()
    manager = CheckpointManager(
        float_registry(3, n_rows=n_rows),
        store,
        temporal=TemporalConfig(error_bound=1e-3, keyframe_every=CYCLE, predictor=predictor),
    )
    get_registry().reset()
    return manager


def rot(blob: bytes) -> bytes:
    damaged = bytearray(blob)
    damaged[len(damaged) // 2] ^= 0xFF
    return bytes(damaged)


def rot_after_verification(monkeypatch, *links: tuple[int, str]) -> None:
    """The blobs of ``(step, array)`` rot between CRC check and inflate."""
    collect = CheckpointManager._collect_verified_blobs

    def collect_then_rot(self, step, manifest, entries, *, repair):
        blobs = collect(self, step, manifest, entries, repair=repair)
        return {n: rot(b) if (step, n) in links else b for n, b in blobs.items()}

    monkeypatch.setattr(CheckpointManager, "_collect_verified_blobs", collect_then_rot)


def serial_failure(manager, step, monkeypatch) -> ReproError:
    manager.close()
    with monkeypatch.context() as patch:
        patch.setattr(manager_module, "ThreadPoolExecutor", refuse_threads)
        with pytest.raises(ReproError) as serial:
            manager.restore(step)
    return serial.value


class TestTemporalRestoreLane:
    @pytest.mark.parametrize(
        "predictor, axis",
        [("previous", None), ("previous", 0), ("lowband", None)],
        ids=["unfiltered", "filtered", "lowband"],
    )
    def test_two_keyframe_cycles_equal_the_restores_without_a_lane(
        self, predictor, axis, monkeypatch
    ):
        import repro.ckpt.temporal as temporal_module

        monkeypatch.setattr(temporal_module, "choose_filter", lambda q: axis)
        manager = temporal_manager(predictor)
        filters = {
            (manager.read_manifest(step).entry("f0").codec_params.get("filter") or {}).get("kind")
            for step in range(2 * CYCLE)
        }
        assert filters == {None, "none" if axis is None else "delta"}
        piped = [manager.load_arrays(step) for step in range(2 * CYCLE)]
        links = 3 * 2 * sum(range(1, CYCLE + 1))
        assert prefetched("temporal-keyframe") + prefetched("temporal-delta") == links
        assert prefetched("temporal-keyframe") == 3 * 2 * CYCLE
        assert get_registry().counter("fallbacks", kind="serial").value == 0
        manager.close()
        monkeypatch.setattr(manager_module, "ThreadPoolExecutor", refuse_threads)
        serial = [manager.load_arrays(step) for step in range(2 * CYCLE)]
        assert get_registry().counter("fallbacks", kind="serial").value == links
        assert lane_threads() == []
        for with_lane, without in zip(piped, serial):
            assert list(with_lane) == list(without) == ["f0", "f1", "f2"]
            for name in with_lane:
                np.testing.assert_array_equal(with_lane[name], without[name])

    @pytest.mark.parametrize("position", [0, 2, CYCLE - 1], ids=["keyframe", "middle", "last"])
    def test_link_rotten_after_its_crc_check_fails_as_the_serial_path_does(
        self, position, monkeypatch
    ):
        from repro.obs.report import TraceReport

        rot_after_verification(monkeypatch, (CYCLE + position, "f1"))
        manager = temporal_manager()
        tracer = get_tracer()
        opened, start = [], tracer.start

        def recording_start(name, **kwargs):
            opened.append(start(name, **kwargs))
            return opened[-1]

        monkeypatch.setattr(tracer, "start", recording_start)
        tracer.enable()
        with pytest.raises(ReproError) as piped:
            manager.restore(2 * CYCLE - 1)
        assert prefetched("temporal-delta") >= 1
        assert [s.name for s in opened if s.end is None] == []
        assert TraceReport([s.to_dict() for s in tracer.spans]).orphans() == []
        tracer.disable()
        started = time.monotonic()
        manager.close()
        assert time.monotonic() - started < 5 and lane_threads() == []
        serial = serial_failure(manager, 2 * CYCLE - 1, monkeypatch)
        assert type(piped.value) is type(serial)
        assert str(piped.value) == str(serial)

    def test_two_broken_arrays_report_the_first_in_manifest_order(self, monkeypatch):
        """``f2``'s chain is found broken by the look-ahead, while ``f1`` is
        still being replayed; ``f1``'s rotten link is found later and is
        the one reported.  With both chains broken in the walk, likewise."""
        from repro.ckpt.manifest import array_key
        from repro.exceptions import CorruptionError

        manager = temporal_manager()
        manager.store.delete(array_key(CYCLE + 1, "f2"))
        with pytest.raises(CorruptionError, match="'f2'"):
            manager.restore(2 * CYCLE - 1)
        with monkeypatch.context() as patch:
            rot_after_verification(patch, (2 * CYCLE - 1, "f1"))
            with pytest.raises(ReproError) as piped:
                manager.restore(2 * CYCLE - 1)
            assert not isinstance(piped.value, CorruptionError)
            serial = serial_failure(manager, 2 * CYCLE - 1, patch)
            assert (type(piped.value), str(piped.value)) == (type(serial), str(serial))
        manager.store.delete(array_key(CYCLE + 2, "f1"))
        with pytest.raises(CorruptionError, match="'f1'"):
            manager.restore(2 * CYCLE - 1)
        manager.close()

    def test_inflated_bodies_alive_stay_within_the_look_ahead(self, monkeypatch):
        """Bodies the (patched) ``unseal`` has produced minus links decoded:
        the one being decoded plus ``_LOOKAHEAD``, across chain and array
        boundaries, with a decode slow enough for the lane to run as far
        ahead as it is let."""
        seen = {"unsealed": 0, "decoded": 0, "alive": 0}
        lock = threading.Lock()
        unseal = WaveletCompressor.unseal

        def counting_unseal(blob, *, parent=None):
            body = unseal(blob, parent=parent)
            with lock:
                seen["unsealed"] += 1
                seen["alive"] = max(seen["alive"], seen["unsealed"] - seen["decoded"])
            return body

        def counting(decode):
            def decoder(*args, **kwargs):
                time.sleep(0.01)
                arr = decode(*args, **kwargs)
                with lock:
                    seen["decoded"] += 1
                return arr

            return decoder

        manager = temporal_manager()
        monkeypatch.setattr(WaveletCompressor, "unseal", staticmethod(counting_unseal))
        monkeypatch.setattr(manager_module, "decode_delta", counting(manager_module.decode_delta))
        monkeypatch.setattr(
            WaveletCompressor, "decompress", staticmethod(counting(WaveletCompressor.decompress))
        )
        with manager:
            manager.restore(2 * CYCLE - 1)
        assert seen["unsealed"] == seen["decoded"] == 3 * CYCLE
        assert 2 <= seen["alive"] <= manager_module._LOOKAHEAD + 1


class TestRestoreObservability:
    def test_restore_span_reports_the_overlap(self):
        tracer = get_tracer()
        registry = float_registry(5, n_rows=OVERLAP_ROWS)
        with written(registry, config=CompressionConfig(backend="gzip")) as manager:
            tracer.enable()
            manager.restore(0)
        (root,) = [s for s in tracer.spans if s.name == "restore"]
        assert root.attrs["backend_lane_busy_s"] > 0.0
        assert 0.0 <= root.attrs["overlap_share"] < 0.5
        assert prefetched("gzip") == 5
        # every inflate ran on the lane, under its array's span, which
        # covers hand-off -> decoded
        loads = {s.span_id: s for s in tracer.spans if s.name == "ckpt.array_load"}
        fronts = [s for s in tracer.spans if s.name == "backend_inverse"]
        assert len(loads) == len(fronts) == 5
        for span in fronts:
            parent = loads[span.parent_id]
            assert span.tid != parent.tid
            assert parent.start <= span.start and span.end <= parent.end
            assert parent.parent_id == root.span_id

    def test_temporal_restore_is_attributed_link_by_link(self):
        from repro.obs.report import TraceReport

        tracer = get_tracer()
        with temporal_manager(n_rows=OVERLAP_ROWS) as manager:
            tracer.enable()
            manager.restore(CYCLE)
            # the engine now holds generation CYCLE, the keyframe of the
            # next chain: forget it so that chain is decoded whole
            manager._temporal_engine.reset()
            manager.restore(2 * CYCLE - 1)
        keyframes, chains = [s for s in tracer.spans if s.name == "restore"]
        assert chains.attrs["backend_lane_busy_s"] > 0.0
        assert 0.0 <= chains.attrs["overlap_share"] < 0.5
        assert prefetched("temporal-keyframe") == 3 + 3
        assert prefetched("temporal-delta") == 3 * (CYCLE - 1)
        assert prefetched() == 0
        loads = {s.span_id: s for s in tracer.spans if s.name == "ckpt.array_load"}
        assert [s.attrs["chain_links"] for s in loads.values()] == [1] * 3 + [CYCLE] * 3
        # every link of every chain was inflated on the lane, under the
        # span of the array it rebuilds
        fronts = [s for s in tracer.spans if s.name == "backend_inverse"]
        assert len(fronts) == 3 + 3 * CYCLE
        for span in fronts:
            parent = loads[span.parent_id]
            assert span.tid != parent.tid
            assert parent.start <= span.start and span.end <= parent.end
            assert parent.parent_id in (keyframes.span_id, chains.span_id)
        assert TraceReport([s.to_dict() for s in tracer.spans]).orphans() == []

    def test_serial_restore_overlaps_nothing(self, no_lane):
        tracer = get_tracer()
        manager = written()
        tracer.enable()
        manager.restore(0)
        (root,) = [s for s in tracer.spans if s.name == "restore"]
        assert root.attrs["backend_lane_busy_s"] == 0.0
        assert root.attrs["overlap_share"] == 0.0
        assert get_registry().counter("fallbacks", kind="serial").value == 5
        assert prefetched() == 0

    def test_overlap_stays_non_negative_when_the_lane_is_slow_to_wake(self, monkeypatch):
        # Every stage starts 50 ms late on the lane: the caller waits that
        # long for an inflate of well under a millisecond.  Only the stage's
        # own seconds of that wait count against the lane.
        run_on = manager_module._run_on

        def slow_run_on(cpus):
            time.sleep(0.05)
            run_on(cpus)

        monkeypatch.setattr(manager_module, "_run_on", slow_run_on)
        tracer = get_tracer()
        tracer.enable()
        with CheckpointManager(
            float_registry(4), MemoryStore(), config=CompressionConfig(backend="gzip")
        ) as manager:
            manager.checkpoint(0)
            manager.restore(0)
        write, read = [s for s in tracer.spans if s.name in ("checkpoint", "restore")]
        assert read.attrs["backend_lane_busy_s"] > 0.0
        assert write.attrs["overlap_share"] >= 0.0
        assert read.attrs["overlap_share"] >= 0.0

    @pytest.mark.parametrize("fails", [False, True])
    def test_traced_restore_has_no_orphan_spans(self, fails, monkeypatch):
        import repro.core.pipeline as pipeline_module
        from repro.obs.report import TraceReport

        tracer = get_tracer()
        manager = written()
        if fails:
            def failing_decode(payload):
                raise RuntimeError("decode fell over")

            monkeypatch.setattr(pipeline_module, "decode_coefficients", failing_decode)
        tracer.enable()
        if fails:
            with pytest.raises(RuntimeError, match="fell over"):
                manager.restore(0)
        else:
            manager.restore(0)
        manager.close()
        report = TraceReport([s.to_dict() for s in tracer.spans])
        assert report.orphans() == []
        assert {s.name for s in tracer.spans} >= {"restore", "ckpt.array_load", "backend_inverse"}
