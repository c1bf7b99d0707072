"""Unit tests for error-targeted parameter selection."""

from __future__ import annotations

import numpy as np
import pytest

from repro import CompressionConfig
from repro.core.tuning import CANDIDATES, tune_division_number, tune_for_tolerance

DEFAULT = CompressionConfig()
from repro.exceptions import TuningError


class TestTuneDivisionNumber:
    def test_meets_tolerance(self, smooth3d):
        result = tune_division_number(smooth3d, 1e-3, metric="mean", base=DEFAULT)
        assert result.achieved_error <= 1e-3
        assert result.config.n_bins in CANDIDATES

    def test_smallest_satisfying_n(self, smooth3d):
        """A looser tolerance must never pick a larger n."""
        tight = tune_division_number(smooth3d, 5e-4, base=DEFAULT)
        loose = tune_division_number(smooth3d, 5e-2, base=DEFAULT)
        assert loose.config.n_bins <= tight.config.n_bins

    def test_unreachable_tolerance(self, smooth3d):
        with pytest.raises(TuningError, match="no division number"):
            tune_division_number(smooth3d, 1e-18, base=DEFAULT)

    def test_max_metric(self, smooth3d):
        result = tune_division_number(smooth3d, 5e-2, metric="max", base=DEFAULT)
        assert result.achieved_error <= 5e-2

    def test_invalid_metric(self, smooth3d):
        with pytest.raises(TuningError):
            tune_division_number(smooth3d, 0.01, metric="median", base=DEFAULT)

    def test_invalid_tolerance(self, smooth3d):
        with pytest.raises(TuningError):
            tune_division_number(smooth3d, 0.0, base=DEFAULT)

    def test_respects_base_config(self, smooth3d):
        base = CompressionConfig(quantizer="simple", levels=1)
        result = tune_division_number(smooth3d, 1e-2, base=base)
        assert result.config.quantizer == "simple"
        assert result.config.levels == 1

    def test_evaluation_count(self, smooth3d):
        result = tune_division_number(smooth3d, 5e-2, base=DEFAULT)
        # one evaluation per candidate tried, up to and including the pick
        assert result.evaluations == CANDIDATES.index(result.config.n_bins) + 1


class TestTuneForTolerance:
    def test_returns_satisfying_config(self, smooth3d):
        result = tune_for_tolerance(smooth3d, 1e-3)
        assert result.achieved_error <= 1e-3
        assert result.tolerance == 1e-3
        assert result.compression_rate_percent > 0

    def test_unreachable(self):
        rng = np.random.default_rng(0)
        noise = rng.standard_normal((32, 32))
        with pytest.raises(TuningError):
            tune_for_tolerance(noise, 1e-18)

    @pytest.mark.parametrize("tolerance", [-1.0, 0.0, float("nan"), float("inf")])
    def test_rejects_a_tolerance_before_sweeping(self, smooth3d, tolerance):
        # not swallowed as "neither quantizer meets ..." after two sweeps
        with pytest.raises(TuningError, match="positive and finite"):
            tune_for_tolerance(smooth3d, tolerance)
