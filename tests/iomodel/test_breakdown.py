"""Unit tests for the measured compression-phase breakdown."""

from __future__ import annotations

import pytest

from repro import CompressionConfig
from repro.exceptions import ConfigurationError
from repro.iomodel.breakdown import BREAKDOWN_PHASES, PhaseBreakdown, measure_breakdown


class TestPhaseBreakdown:
    def test_total(self):
        bd = PhaseBreakdown(1.0, 2.0, 3.0, 4.0, 5.0)
        assert bd.total_seconds == pytest.approx(15.0)

    def test_as_dict_has_phases(self):
        bd = PhaseBreakdown()
        assert set(BREAKDOWN_PHASES) <= set(bd.as_dict())


class TestMeasure:
    def test_positive_phases_and_rate(self, smooth3d):
        bd = measure_breakdown(smooth3d, repeats=2)
        assert bd.wavelet > 0
        assert bd.quantization_encoding > 0
        assert bd.temp_write > 0
        assert bd.gzip > 0
        assert bd.other >= 0
        assert 0 < bd.compression_rate_percent < 100
        assert bd.per_process_bytes == smooth3d.nbytes

    def test_forces_tempfile_backend(self, smooth2d):
        """Even a zlib config gets measured through the temp-file path so
        the Fig. 9 split exists."""
        bd = measure_breakdown(
            smooth2d, CompressionConfig(backend="zlib"), repeats=1
        )
        assert bd.temp_write > 0

    def test_respects_quantizer_choice(self, smooth3d):
        simple = measure_breakdown(
            smooth3d, CompressionConfig(quantizer="simple"), repeats=1
        )
        proposed = measure_breakdown(
            smooth3d, CompressionConfig(quantizer="proposed"), repeats=1
        )
        # proposed keeps more exact doubles -> larger compressed output
        assert proposed.compression_rate_percent >= simple.compression_rate_percent

    def test_repeats_validation(self, smooth2d):
        with pytest.raises(ConfigurationError):
            measure_breakdown(smooth2d, repeats=0)
