"""Protocol-conformance suite: every proxy app against every C/R property.

One parametrized battery instead of per-app copies: each application must
(1) expose a stable, checkpointable state, (2) resume bit-exactly from a
snapshot, (3) integrate with the CheckpointManager end to end under both
lossless and lossy configurations, and (4) stay finite over a long run.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import CompressionConfig
from repro.apps import ClimateProxy
from repro.apps.advection import AdvectionProxy
from repro.apps.base import run_steps
from repro.apps.heat import HeatDiffusionProxy
from repro.apps.nbody import NBodyProxy
from repro.apps.shallow_water import ShallowWaterProxy
from repro.ckpt.manager import CheckpointManager
from repro.ckpt.protocol import Checkpointable, registry_from_checkpointable
from repro.ckpt.store import MemoryStore

APP_FACTORIES = {
    "climate": lambda: ClimateProxy(shape=(24, 8, 2), seed=9),
    "heat": lambda: HeatDiffusionProxy(shape=(12, 8, 4), seed=9),
    "advection": lambda: AdvectionProxy(shape=(12, 8, 4), seed=9),
    "nbody": lambda: NBodyProxy(n_particles=24, seed=9),
    "shallow-water": lambda: ShallowWaterProxy(shape=(16, 16), seed=9),
}


#: sha256 over ``name:dtype:shape`` and the bytes of every state array, in
#: name order, after three steps of the factory's app.  The physics
#: constants of each app shape these bytes, so a constant that changes
#: value shows here.  ``ClimateProxy``'s trajectory is pinned by the store
#: digests of ``tests/ckpt/test_manager_pipeline.py``.
TRAJECTORY_SHA256 = {
    "advection": "fff2ce9c925448a547e103c59da9ea65951008ee06357d5825ac35fbd29b40ae",
    "heat": "cf1ef3c17fe845cd0dc103dee1e9bcb226d0c96f3efb739690b12ee91a437114",
    "nbody": "c140656e322ade80bbdfd13c528f85616a3ffd13a0cfccea73171191d318e37f",
    "shallow-water": "10164df8eda0a4aa60f0d2f6113d3cf10ff2d510e6d137f9dde6fb5925ac9dec",
}


def state_sha256(app) -> str:
    digest = hashlib.sha256()
    for name, value in sorted(app.state_arrays().items()):
        value = np.ascontiguousarray(value)
        digest.update(f"{name}:{value.dtype.str}:{value.shape}".encode())
        digest.update(value.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(TRAJECTORY_SHA256))
def test_trajectory_is_pinned(name):
    app = run_steps(APP_FACTORIES[name](), 3)
    assert state_sha256(app) == TRAJECTORY_SHA256[name]


@pytest.fixture(params=sorted(APP_FACTORIES), ids=sorted(APP_FACTORIES))
def factory(request):
    return APP_FACTORIES[request.param]


class TestConformance:
    def test_satisfies_checkpointable(self, factory):
        assert isinstance(factory(), Checkpointable)

    def test_state_names_stable_across_steps(self, factory):
        app = factory()
        names = set(app.state_arrays())
        run_steps(app, 3)
        assert set(app.state_arrays()) == names

    def test_step_counter_rides_in_state(self, factory):
        app = factory()
        run_steps(app, 4)
        state = app.state_arrays()
        assert "step" in state
        assert int(np.asarray(state["step"]).ravel()[0]) == 4

    def test_snapshot_resume_bit_exact(self, factory):
        app = factory()
        run_steps(app, 3)
        snap = {k: v.copy() for k, v in app.state_arrays().items()}
        run_steps(app, 4)
        final = {k: v.copy() for k, v in app.state_arrays().items()}

        fresh = factory()
        fresh.load_state_arrays(snap)
        assert fresh.step_index == 3
        run_steps(fresh, 4)
        for name, value in fresh.state_arrays().items():
            np.testing.assert_array_equal(value, final[name], err_msg=name)

    def test_manager_lossless_roundtrip(self, factory):
        app = factory()
        run_steps(app, 3)
        registry = registry_from_checkpointable(app)
        manager = CheckpointManager(
            registry, MemoryStore(), config=CompressionConfig(quantizer="none")
        )
        manager.checkpoint(app.step_index)
        reference = {k: v.copy() for k, v in app.state_arrays().items()}
        run_steps(app, 3)
        manager.restore()
        assert app.step_index == 3
        for name, value in app.state_arrays().items():
            np.testing.assert_allclose(
                value,
                reference[name],
                rtol=1e-12,
                atol=1e-9 * max(1.0, float(np.abs(reference[name]).max())),
                err_msg=name,
            )

    def test_manager_lossy_roundtrip_stays_close(self, factory):
        app = factory()
        run_steps(app, 3)
        registry = registry_from_checkpointable(app)
        manager = CheckpointManager(
            registry, MemoryStore(),
            config=CompressionConfig(n_bins=256, quantizer="proposed"),
        )
        manager.checkpoint(app.step_index)
        reference = {k: v.copy() for k, v in app.state_arrays().items()}
        run_steps(app, 3)
        manager.restore()
        for name, value in app.state_arrays().items():
            ref = np.asarray(reference[name], dtype=np.float64)
            got = np.asarray(value, dtype=np.float64)
            span = float(ref.max() - ref.min())
            scale = span if span > 0 else max(1.0, float(np.abs(ref).max()))
            assert float(np.abs(got - ref).max()) <= 0.2 * scale, name

    def test_long_run_stays_finite(self, factory):
        app = factory()
        run_steps(app, 120)
        for name, value in app.state_arrays().items():
            assert np.isfinite(np.asarray(value, dtype=np.float64)).all(), name

    def test_fresh_instances_identical(self, factory):
        a, b = factory(), factory()
        for name, value in a.state_arrays().items():
            np.testing.assert_array_equal(value, b.state_arrays()[name])
