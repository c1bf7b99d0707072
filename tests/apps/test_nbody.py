"""Unit tests for the N-body proxy (related-work workload class)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import CompressionConfig, WaveletCompressor
from repro.apps.base import run_steps
from repro.apps.nbody import NBodyProxy
from repro.exceptions import ConfigurationError, RestoreError


def make_app(**kwargs):
    kwargs.setdefault("n_particles", 48)
    kwargs.setdefault("seed", 3)
    return NBodyProxy(**kwargs)


class TestPhysics:
    def test_momentum_conserved(self):
        app = make_app()
        before = app.total_momentum()
        run_steps(app, 50)
        np.testing.assert_allclose(app.total_momentum(), before, atol=1e-12)

    def test_energy_nearly_conserved(self):
        app = make_app()
        e0 = app.total_energy()
        run_steps(app, 100)
        assert abs(app.total_energy() - e0) < 0.01 * abs(e0)

    def test_initial_momentum_zero(self):
        np.testing.assert_allclose(make_app().total_momentum(), 0.0, atol=1e-12)

    def test_deterministic(self):
        a, b = make_app(), make_app()
        run_steps(a, 10)
        run_steps(b, 10)
        np.testing.assert_array_equal(a.positions, b.positions)

    def test_particles_actually_move(self):
        app = make_app()
        before = app.positions.copy()
        run_steps(app, 10)
        assert not np.allclose(app.positions, before)

    def test_softening_bounds_accelerations(self):
        app = make_app()
        acc = app._accelerations(app.positions)
        assert np.isfinite(acc).all()
        # two coincident particles must not blow up
        app.positions[1] = app.positions[0]
        acc = app._accelerations(app.positions)
        assert np.isfinite(acc).all()


class TestProtocol:
    def test_state_roundtrip_exact(self):
        a = make_app()
        run_steps(a, 5)
        snap = {k: v.copy() for k, v in a.state_arrays().items()}
        run_steps(a, 5)
        b = make_app()
        b.load_state_arrays(snap)
        run_steps(b, 5)
        np.testing.assert_array_equal(a.positions, b.positions)
        np.testing.assert_array_equal(a.velocities, b.velocities)

    def test_load_validation(self):
        app = make_app()
        state = dict(app.state_arrays())
        state["positions"] = np.zeros((3, 3))
        with pytest.raises(RestoreError):
            app.load_state_arrays(state)
        state = dict(app.state_arrays())
        del state["masses"]
        with pytest.raises(RestoreError):
            app.load_state_arrays(state)


class TestCompressionContrast:
    def test_particle_order_defeats_smoothness_assumption(self):
        """The Section II-C smoothness assumption does not hold for
        particle arrays: neighbouring entries are unrelated particles.
        Controlled demonstration -- the *same values* in particle order vs
        sorted (spatially coherent) order, where sorting is exactly the
        smoothness the compressor exploits."""
        app = make_app(n_particles=512)
        run_steps(app, 5)
        unsorted = np.ascontiguousarray(app.positions[:, 0])
        sorted_view = np.sort(unsorted)
        comp = WaveletCompressor(CompressionConfig(n_bins=128, levels="max"))
        _, particle_stats = comp.compress_with_stats(unsorted)
        _, sorted_stats = comp.compress_with_stats(sorted_view)
        errs = {}
        for name, arr in (("particle", unsorted), ("sorted", sorted_view)):
            approx = comp.decompress(comp.compress(arr))
            errs[name] = float(np.abs(arr - approx).max())
        # same values: smooth ordering compresses harder at lower error
        assert sorted_stats.compression_rate_percent < particle_stats.compression_rate_percent
        assert errs["sorted"] <= errs["particle"]

    def test_lossy_restart_breaks_momentum(self):
        app = make_app()
        run_steps(app, 5)
        before = app.total_momentum()
        comp = WaveletCompressor(CompressionConfig(n_bins=16, quantizer="simple"))
        app.velocities = comp.decompress(comp.compress(app.velocities))
        assert not np.allclose(app.total_momentum(), before, atol=1e-15)


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"n_particles": 1},
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(ConfigurationError):
            make_app(**kwargs)
