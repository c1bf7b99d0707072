"""Unit tests for the exascale efficiency projection."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.failure.projection import (
    efficiency_at,
    mtbf_at_scale,
)


class TestEfficiency:
    def test_bounded(self):
        pt = efficiency_at(3600.0, 60.0, 120.0)
        assert 0 < pt.efficiency < 1

    def test_degrades_as_mtbf_shrinks(self):
        """The paper's Section I argument in one assertion."""
        sweep = [efficiency_at(m, 60.0, 120.0) for m in (86400.0, 7200.0, 1800.0, 600.0)]
        effs = [p.efficiency for p in sweep]
        assert all(a > b for a, b in zip(effs, effs[1:]))

    def test_compression_lifts_efficiency(self):
        """Cheaper checkpoints (the paper's contribution) buy efficiency at
        every MTBF, most at the harsh end."""
        mtbf = 1800.0
        plain = efficiency_at(mtbf, 60.0, 120.0)
        lossy = efficiency_at(mtbf, 3.0 + 60.0 * 0.19, 120.0)
        assert lossy.efficiency > plain.efficiency

    def test_interval_is_daly(self):
        from repro.ckpt.interval import daly_interval

        pt = efficiency_at(3600.0, 60.0, 0.0)
        assert pt.interval == pytest.approx(daly_interval(60.0, 3600.0))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            efficiency_at(0.0, 1.0, 1.0)
        with pytest.raises(ConfigurationError):
            efficiency_at(10.0, 0.0, 1.0)
        with pytest.raises(ConfigurationError):
            efficiency_at(10.0, 1.0, -1.0)


class TestMtbfAtScale:
    def test_poisson_superposition(self):
        assert mtbf_at_scale(1000.0, 10) == pytest.approx(100.0)

    def test_paper_projection_few_hours(self):
        """Ref. [4]'s 'few hours at exascale': a 5-year node MTBF across
        100k nodes lands well under a day."""
        system = mtbf_at_scale(5 * 365 * 86400.0, 100_000)
        assert system < 4 * 3600.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            mtbf_at_scale(0.0, 10)
        with pytest.raises(ConfigurationError):
            mtbf_at_scale(100.0, 0)
