"""Unit tests for the array registry and Checkpointable protocol."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.heat import HeatDiffusionProxy
from repro.ckpt.protocol import (
    ArrayRegistry,
    Checkpointable,
    registry_from_checkpointable,
)
from repro.exceptions import CheckpointError, RestoreError


class TestRegistration:
    def test_register_and_names(self):
        reg = ArrayRegistry()
        reg.register("b", np.zeros(4))
        reg.register("a", np.ones(2))
        assert reg.names() == ["a", "b"]
        assert len(reg) == 2
        assert "a" in reg and "c" not in reg

    def test_duplicate_rejected(self):
        reg = ArrayRegistry()
        reg.register("x", np.zeros(2))
        with pytest.raises(CheckpointError, match="already registered"):
            reg.register("x", np.zeros(2))

    @pytest.mark.parametrize("name", ["", "a/b", "..", ".", "a\\b", 42, None])
    def test_bad_names_rejected(self, name):
        with pytest.raises(CheckpointError):
            ArrayRegistry().register(name, np.zeros(2))

    def test_scalar_rejected(self):
        with pytest.raises(CheckpointError, match="0-dimensional"):
            ArrayRegistry().register("s", np.float64(1.0))

    def test_get_unknown(self):
        with pytest.raises(CheckpointError):
            ArrayRegistry().get("nope")


class TestSnapshotRestore:
    def test_snapshot_is_a_copy(self):
        live = np.arange(4.0)
        reg = ArrayRegistry()
        reg.register("x", live)
        snap = reg.snapshot()
        live[0] = 99.0
        assert snap["x"][0] == 0.0

    def test_restore_in_place_preserves_references(self):
        live = np.arange(4.0)
        reg = ArrayRegistry()
        reg.register("x", live)
        snap = reg.snapshot()
        live[:] = -1.0
        reg.restore(snap)
        np.testing.assert_array_equal(live, np.arange(4.0))  # same buffer healed

    def test_restore_missing_array(self):
        reg = ArrayRegistry()
        reg.register("x", np.zeros(2))
        with pytest.raises(RestoreError, match="missing"):
            reg.restore({})

    def test_restore_shape_mismatch(self):
        reg = ArrayRegistry()
        reg.register("x", np.zeros(2))
        with pytest.raises(RestoreError, match="shape"):
            reg.restore({"x": np.zeros(3)})

    def test_iteration(self):
        reg = ArrayRegistry()
        reg.register("x", np.zeros(2))
        reg.register("y", np.zeros(2))
        assert list(reg) == ["x", "y"]


class TestCheckpointableBacked:
    def test_proxy_app_satisfies_protocol(self):
        assert isinstance(HeatDiffusionProxy(), Checkpointable)

    def test_names_from_app(self):
        app = HeatDiffusionProxy(shape=(8, 4, 2))
        reg = registry_from_checkpointable(app)
        assert reg.names() == ["step", "temperature"]
        assert len(reg) == 2

    def test_snapshot_tracks_live_state(self):
        app = HeatDiffusionProxy(shape=(8, 4, 2))
        reg = registry_from_checkpointable(app)
        before = reg.snapshot()
        app.step()
        after = reg.snapshot()
        assert not np.array_equal(before["temperature"], after["temperature"])
        assert after["step"][0] == 1

    def test_restore_goes_through_load(self):
        app = HeatDiffusionProxy(shape=(8, 4, 2))
        reg = registry_from_checkpointable(app)
        snap = reg.snapshot()
        for _ in range(3):
            app.step()
        reg.restore(snap)
        assert app.step_index == 0
        np.testing.assert_array_equal(app.temperature, snap["temperature"])

    def test_restore_missing_raises(self):
        app = HeatDiffusionProxy(shape=(8, 4, 2))
        reg = registry_from_checkpointable(app)
        with pytest.raises(RestoreError):
            reg.restore({"temperature": app.temperature})

    def test_cannot_register_extra(self):
        reg = registry_from_checkpointable(HeatDiffusionProxy(shape=(8, 4, 2)))
        with pytest.raises(CheckpointError):
            reg.register("extra", np.zeros(2))
