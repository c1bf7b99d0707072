"""Unit tests for the Fig. 10 drift experiment driver."""

from __future__ import annotations

import numpy as np
import pytest

from repro import CompressionConfig
from repro.analysis.drift import error_drift_experiment, lossy_roundtrip_state
from repro.apps.climate import ClimateProxy
from repro.apps.heat import HeatDiffusionProxy
from repro.exceptions import ConfigurationError


def heat_factory():
    return HeatDiffusionProxy(shape=(16, 8, 2), seed=4)


def climate_factory():
    return ClimateProxy(shape=(32, 8, 2), seed=4)


class TestLossyRoundtripState:
    def test_float_arrays_perturbed(self, smooth2d):
        state = {"field": smooth2d, "step": np.array([3], dtype=np.int64)}
        out = lossy_roundtrip_state(
            state, CompressionConfig(n_bins=2, quantizer="simple")
        )
        assert not np.array_equal(out["field"], smooth2d)

    def test_non_float_passthrough(self, smooth2d):
        state = {"field": smooth2d, "step": np.array([3], dtype=np.int64)}
        out = lossy_roundtrip_state(state, CompressionConfig())
        np.testing.assert_array_equal(out["step"], [3])

    def test_single_element_float_passthrough(self):
        state = {"scalar": np.array([2.5])}
        out = lossy_roundtrip_state(state, CompressionConfig())
        np.testing.assert_array_equal(out["scalar"], [2.5])

    def test_returns_copies(self, smooth2d):
        state = {"field": smooth2d}
        out = lossy_roundtrip_state(state, CompressionConfig(quantizer="none"))
        out["field"][0, 0] = 1e9
        assert smooth2d[0, 0] != 1e9

    def test_float16_is_compressed_not_passed_through(self, smooth2d):
        """Regression: float16 fields used to bypass compression silently,
        so the drift experiment reported zero error for them."""
        state = {"field": smooth2d.astype(np.float16)}
        out = lossy_roundtrip_state(
            state, CompressionConfig(n_bins=2, quantizer="simple")
        )
        assert out["field"].dtype == np.float16
        assert not np.array_equal(out["field"], state["field"])

    def test_float16_lossless_roundtrip_close(self, smooth2d):
        state = {"field": smooth2d.astype(np.float16)}
        out = lossy_roundtrip_state(state, CompressionConfig(quantizer="none"))
        assert out["field"].dtype == np.float16
        np.testing.assert_allclose(
            out["field"].astype(np.float64),
            state["field"].astype(np.float64),
            rtol=1e-3,
        )

    @pytest.mark.parametrize("base", [np.float32, np.float64])
    def test_non_native_endian_is_compressed(self, smooth2d, base):
        """Regression: big-endian float arrays also bypassed compression."""
        swapped_dtype = np.dtype(base).newbyteorder()
        state = {"field": smooth2d.astype(swapped_dtype)}
        out = lossy_roundtrip_state(
            state, CompressionConfig(n_bins=2, quantizer="simple")
        )
        assert out["field"].dtype == swapped_dtype
        assert not np.array_equal(
            out["field"].astype(base), state["field"].astype(base)
        )

    def test_non_native_endian_matches_native_path(self, smooth2d):
        """Byte order must not change the numbers: the swapped path has to
        produce bit-identical values to compressing the native array."""
        config = CompressionConfig(n_bins=4, quantizer="simple")
        native = lossy_roundtrip_state({"field": smooth2d}, config)
        swapped_dtype = np.dtype(np.float64).newbyteorder()
        swapped = lossy_roundtrip_state(
            {"field": smooth2d.astype(swapped_dtype)}, config
        )
        assert swapped["field"].dtype == swapped_dtype
        np.testing.assert_array_equal(
            swapped["field"].astype(np.float64), native["field"]
        )

    def test_unsupported_float_dtype_raises(self):
        longdouble = np.dtype(np.longdouble)
        if longdouble.itemsize == 8:
            pytest.skip("longdouble aliases float64 on this platform")
        state = {"field": np.linspace(0, 1, 16).astype(longdouble)}
        with pytest.raises(ConfigurationError, match="field"):
            lossy_roundtrip_state(state, CompressionConfig())


class TestDriftExperiment:
    def test_result_structure(self):
        result = error_drift_experiment(
            heat_factory,
            ckpt_step=5,
            extra_steps=10,
            configs={"cfg": CompressionConfig(n_bins=4, quantizer="simple")},
            field="temperature",
        )
        assert result.steps.shape == (10,)
        assert result.steps[0] == 6 and result.steps[-1] == 15
        assert set(result.series) == {"cfg"}
        assert result.series["cfg"].shape == (10,)
        assert result.field == "temperature"
        assert result.immediate_errors["cfg"] >= 0

    def test_record_every(self):
        result = error_drift_experiment(
            heat_factory, 2, 10,
            {"c": CompressionConfig(n_bins=4)}, record_every=5,
        )
        assert list(result.steps) == [7, 12]

    def test_lossless_config_zero_drift(self):
        result = error_drift_experiment(
            heat_factory, 3, 8, {"exact": CompressionConfig(quantizer="none")}
        )
        assert result.immediate_errors["exact"] < 1e-10
        assert result.series["exact"].max() < 1e-9

    def test_diffusive_app_errors_decay(self):
        """Pure diffusion damps restart perturbations -- the contrast case
        to the chaotic climate proxy.  Measured in *absolute* error because
        Eq. 6's denominator (the field range) itself shrinks under
        diffusion, which would inflate the relative series."""
        from repro.analysis.drift import lossy_roundtrip_state
        from repro.core.errors import rmse

        ref = heat_factory()
        restarted = heat_factory()
        for _ in range(3):
            ref.step()
        restarted.load_state_arrays(
            lossy_roundtrip_state(
                ref.state_arrays(),
                CompressionConfig(n_bins=2, quantizer="simple"),
            )
        )
        first = rmse(ref.temperature, restarted.temperature)
        for _ in range(60):
            ref.step()
            restarted.step()
        last = rmse(ref.temperature, restarted.temperature)
        assert 0 < last < first

    def test_proposed_below_simple_on_climate(self):
        """The Fig. 10 ordering on a short window."""
        result = error_drift_experiment(
            climate_factory,
            ckpt_step=20,
            extra_steps=30,
            configs={
                "simple": CompressionConfig(n_bins=16, quantizer="simple"),
                "proposed": CompressionConfig(n_bins=16, quantizer="proposed"),
            },
        )
        assert result.series["proposed"].mean() < result.series["simple"].mean()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            error_drift_experiment(heat_factory, -1, 5, {"c": CompressionConfig()})
        with pytest.raises(ConfigurationError):
            error_drift_experiment(heat_factory, 1, 0, {"c": CompressionConfig()})
        with pytest.raises(ConfigurationError):
            error_drift_experiment(heat_factory, 1, 5, {})
        with pytest.raises(ConfigurationError):
            error_drift_experiment(
                heat_factory, 1, 5, {"c": CompressionConfig()}, field="bogus"
            )
        with pytest.raises(ConfigurationError):
            error_drift_experiment(
                heat_factory, 1, 5, {"c": CompressionConfig()}, record_every=0
            )
