"""Unit tests for the heat-diffusion proxy."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.base import run_steps, state_allclose
from repro.apps.heat import HeatDiffusionProxy
from repro.exceptions import ConfigurationError, RestoreError


def make_app(**kwargs):
    kwargs.setdefault("shape", (16, 8, 4))
    return HeatDiffusionProxy(**kwargs)


class TestPhysics:
    def test_total_heat_conserved(self):
        app = make_app()
        before = app.total_heat()
        run_steps(app, 50)
        assert app.total_heat() == pytest.approx(before, rel=1e-12)

    def test_extremes_contract(self):
        app = make_app()
        hi, lo = app.temperature.max(), app.temperature.min()
        run_steps(app, 50)
        assert app.temperature.max() <= hi + 1e-9
        assert app.temperature.min() >= lo - 1e-9

    def test_converges_to_uniform(self):
        app = make_app(shape=(8, 8, 2))
        run_steps(app, 3000)
        assert app.temperature.std() < 0.05 * 50.0

    def test_deterministic(self):
        a, b = make_app(seed=3), make_app(seed=3)
        run_steps(a, 10)
        run_steps(b, 10)
        np.testing.assert_array_equal(a.temperature, b.temperature)


class TestProtocol:
    def test_state_roundtrip(self):
        a = make_app()
        run_steps(a, 5)
        snap = {k: v.copy() for k, v in a.state_arrays().items()}
        run_steps(a, 5)
        b = make_app()
        b.load_state_arrays(snap)
        assert b.step_index == 5
        run_steps(b, 5)
        np.testing.assert_array_equal(a.temperature, b.temperature)

    def test_state_allclose_helper(self):
        a = make_app()
        assert state_allclose(a.state_arrays(), a.state_arrays())
        b = make_app(seed=99)
        assert not state_allclose(a.state_arrays(), b.state_arrays())
        assert not state_allclose({}, a.state_arrays())

    def test_load_validation(self):
        app = make_app()
        with pytest.raises(RestoreError):
            app.load_state_arrays({"temperature": app.temperature})
        with pytest.raises(RestoreError):
            app.load_state_arrays(
                {"temperature": np.zeros((2, 2, 2)), "step": np.array([0])}
            )


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"shape": (4, 4)},
        {"shape": (1, 4, 4)},
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(ConfigurationError):
            make_app(**kwargs)

    def test_run_steps_negative(self):
        from repro.exceptions import ReproError

        with pytest.raises(ReproError):
            run_steps(make_app(), -1)
