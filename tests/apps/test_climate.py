"""Unit tests for the NICAM-like climate proxy."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.climate import ClimateProxy
from repro.exceptions import ConfigurationError, RestoreError

SHAPE = (48, 12, 2)


def make_app(**kwargs):
    kwargs.setdefault("shape", SHAPE)
    kwargs.setdefault("seed", 11)
    return ClimateProxy(**kwargs)


class TestDeterminism:
    def test_same_seed_same_trajectory(self):
        a, b = make_app(), make_app()
        for _ in range(20):
            a.step()
            b.step()
        np.testing.assert_array_equal(a.temperature, b.temperature)
        np.testing.assert_array_equal(a.wind_u, b.wind_u)
        np.testing.assert_array_equal(a.modulator, b.modulator)

    def test_different_seed_different_trajectory(self):
        a, b = make_app(seed=1), make_app(seed=2)
        a.step()
        b.step()
        assert not np.array_equal(a.temperature, b.temperature)

    def test_state_roundtrip_resumes_exactly(self):
        """The crucial C/R property: save state, run on, restore, rerun ->
        bit-identical trajectory (forcing is (seed, step)-keyed)."""
        a = make_app()
        for _ in range(7):
            a.step()
        snap = {k: v.copy() for k, v in a.state_arrays().items()}
        for _ in range(5):
            a.step()
        after_once = a.temperature.copy()
        b = make_app()
        b.load_state_arrays(snap)
        assert b.step_index == 7
        for _ in range(5):
            b.step()
        np.testing.assert_array_equal(b.temperature, after_once)


class TestStability:
    def test_bounded_over_long_run(self):
        app = make_app()
        for _ in range(500):
            app.step()
        assert np.isfinite(app.temperature).all()
        assert 180.0 < app.temperature.min() and app.temperature.max() < 340.0
        assert np.abs(app.wind_u).max() < 50.0
        assert app.energy_proxy() < 1e3

    def test_fields_stay_smooth(self):
        """Compressibility must persist as the simulation evolves."""
        from repro import CompressionConfig, WaveletCompressor

        app = make_app()
        for _ in range(200):
            app.step()
        comp = WaveletCompressor(CompressionConfig(n_bins=128))
        _, stats = comp.compress_with_stats(app.temperature)
        assert stats.compression_rate_percent < 60.0


class TestChaoticCoupling:
    def test_perturbation_grows_with_chaos(self):
        """A tiny state perturbation must diverge (slowly) when the chaotic
        modulator is on -- the Fig. 10 mechanism."""
        a = make_app()
        b = make_app()
        b.temperature = b.temperature + 1e-4
        errs = []
        for k in range(400):
            a.step()
            b.step()
            if k % 100 == 99:
                errs.append(float(np.abs(a.modulator - b.modulator).max()))
        assert errs[-1] > errs[0]


class TestCheckpointProtocol:
    def test_state_arrays_contents(self):
        app = make_app()
        state = app.state_arrays()
        assert set(state) == {
            "pressure", "temperature", "wind_u", "wind_v", "wind_w",
            "modulator", "step",
        }
        assert state["step"].dtype == np.int64
        assert state["modulator"].shape == (3,)

    def test_load_missing_field(self):
        app = make_app()
        state = dict(app.state_arrays())
        del state["wind_v"]
        with pytest.raises(RestoreError, match="missing"):
            app.load_state_arrays(state)

    def test_load_wrong_shape(self):
        app = make_app()
        state = dict(app.state_arrays())
        state["pressure"] = np.zeros((2, 2, 2))
        with pytest.raises(RestoreError, match="shape"):
            app.load_state_arrays(state)

    def test_load_bad_modulator(self):
        app = make_app()
        state = dict(app.state_arrays())
        state["modulator"] = np.zeros(5)
        with pytest.raises(RestoreError, match="modulator"):
            app.load_state_arrays(state)

    def test_load_copies_input(self):
        app = make_app()
        snap = {k: v.copy() for k, v in app.state_arrays().items()}
        app.load_state_arrays(snap)
        snap["temperature"][0, 0, 0] = 1e9
        assert app.temperature[0, 0, 0] != 1e9


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"shape": (8, 8)},
        {"shape": (2, 8, 2)},
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(ConfigurationError):
            make_app(**kwargs)

    def test_default_shape_is_nicam(self):
        from repro.apps.fields import NICAM_SHAPE

        app = ClimateProxy.__new__(ClimateProxy)  # avoid 1.5MB x5 alloc? no: just check default
        import inspect

        sig = inspect.signature(ClimateProxy.__init__)
        assert sig.parameters["shape"].default == NICAM_SHAPE
