"""Unit tests for the shallow-water CFD proxy."""

from __future__ import annotations

import numpy as np
import pytest

from repro import CompressionConfig, WaveletCompressor
from repro.apps.base import run_steps
from repro.apps.shallow_water import ShallowWaterProxy
from repro.exceptions import ConfigurationError, RestoreError


def make_app(**kwargs):
    kwargs.setdefault("shape", (32, 32))
    kwargs.setdefault("seed", 5)
    return ShallowWaterProxy(**kwargs)


class TestPhysics:
    def test_mass_conserved_exactly(self):
        app = make_app()
        before = app.total_mass()
        run_steps(app, 200)
        assert app.total_mass() == pytest.approx(before, rel=1e-13)

    def test_momentum_conserved(self):
        app = make_app()
        run_steps(app, 100)
        px, py = app.total_momentum()
        # starts at rest; fluxes telescope, so total momentum stays ~0
        assert abs(px) < 1e-8 and abs(py) < 1e-8

    def test_height_stays_positive_and_bounded(self):
        app = make_app()
        run_steps(app, 300)
        assert app.height.min() > 0
        assert app.height.max() < 11.0
        assert np.isfinite(app.height).all()

    def test_waves_propagate(self):
        """The free surface must keep moving (not instantly flattened by
        numerical dissipation) -- the regression the Rusanov flux fixes."""
        app = make_app(shape=(64, 64))
        initial_spread = app.height.std()
        run_steps(app, 100)
        assert app.height.std() > 0.2 * initial_spread
        assert np.abs(app.momentum_x).max() > 0

    def test_energy_decays_slowly(self):
        app = make_app()
        e0 = app.total_energy()
        run_steps(app, 200)
        e1 = app.total_energy()
        assert e1 <= e0 * (1 + 1e-12)  # dissipation only removes energy
        assert e1 > 0.99 * e0          # ...and only a little of it

    def test_deterministic(self):
        a, b = make_app(), make_app()
        run_steps(a, 20)
        run_steps(b, 20)
        np.testing.assert_array_equal(a.height, b.height)

    def test_fields_compress_like_mesh_data(self):
        app = make_app(shape=(64, 64))
        run_steps(app, 100)
        comp = WaveletCompressor(CompressionConfig(n_bins=128))
        _, stats = comp.compress_with_stats(app.height)
        assert stats.compression_rate_percent < 60.0


class TestProtocol:
    def test_state_roundtrip_exact(self):
        a = make_app()
        run_steps(a, 5)
        snap = {k: v.copy() for k, v in a.state_arrays().items()}
        run_steps(a, 5)
        b = make_app()
        b.load_state_arrays(snap)
        run_steps(b, 5)
        np.testing.assert_array_equal(a.height, b.height)
        np.testing.assert_array_equal(a.momentum_x, b.momentum_x)

    def test_load_validation(self):
        app = make_app()
        state = dict(app.state_arrays())
        state["height"] = np.zeros((2, 2))
        with pytest.raises(RestoreError):
            app.load_state_arrays(state)

    def test_nonpositive_height_rejected(self):
        app = make_app()
        state = {k: v.copy() for k, v in app.state_arrays().items()}
        state["height"][0, 0] = -1.0
        with pytest.raises(RestoreError, match="positive"):
            app.load_state_arrays(state)


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"shape": (32,)},
        {"shape": (2, 32)},
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(ConfigurationError):
            make_app(**kwargs)
