"""Unit tests for the upwind advection proxy."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.advection import AdvectionProxy
from repro.apps.base import run_steps
from repro.exceptions import ConfigurationError, RestoreError


def make_app(**kwargs):
    kwargs.setdefault("shape", (32, 8, 4))
    return AdvectionProxy(**kwargs)


class TestPhysics:
    def test_mass_conserved_exactly(self):
        """The invariant the paper's Section IV-E warns lossy restarts can
        break; here we establish the scheme itself conserves it."""
        app = make_app()
        before = app.total_mass()
        run_steps(app, 100)
        assert app.total_mass() == pytest.approx(before, rel=1e-12)

    def test_lossy_restart_breaks_conservation(self):
        """...and that a lossy roundtrip of the state indeed perturbs it."""
        from repro import CompressionConfig, WaveletCompressor

        app = make_app()
        run_steps(app, 10)
        before = app.total_mass()
        comp = WaveletCompressor(CompressionConfig(n_bins=8, quantizer="simple"))
        app.scalar = comp.decompress(comp.compress(app.scalar))
        assert app.total_mass() != before

    def test_peak_travels_downstream(self):
        app = AdvectionProxy(shape=(64, 4, 2), seed=0)
        # place a bump and watch its center of mass move along axis 0
        app.scalar = np.zeros(app.shape)
        app.scalar[10, :, :] = 1.0
        run_steps(app, 50)  # 50 * DT 0.5 * v_0 0.8 -> 20 cells
        profile = app.scalar.sum(axis=(1, 2))
        assert 25 <= int(np.argmax(profile)) <= 35  # upwind diffuses but moves

    def test_extremes_bounded(self):
        app = make_app()
        hi, lo = app.scalar.max(), app.scalar.min()
        run_steps(app, 200)
        assert app.scalar.max() <= hi + 1e-9
        assert app.scalar.min() >= lo - 1e-9



class TestProtocol:
    def test_state_roundtrip(self):
        a = make_app()
        run_steps(a, 5)
        snap = {k: v.copy() for k, v in a.state_arrays().items()}
        run_steps(a, 5)
        b = make_app()
        b.load_state_arrays(snap)
        run_steps(b, 5)
        np.testing.assert_array_equal(a.scalar, b.scalar)

    def test_load_validation(self):
        app = make_app()
        with pytest.raises(RestoreError):
            app.load_state_arrays({"scalar": app.scalar})


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"shape": (4, 4)},
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(ConfigurationError):
            make_app(**kwargs)
