"""Unit tests for the text rendering helpers."""

from __future__ import annotations

import pytest

from repro.analysis.tables import BAR_WIDTH, render_bars, render_series, render_table
from repro.exceptions import ReproError


class TestRenderTable:
    def test_basic_layout(self):
        out = render_table(["name", "value"], [["x", 1.5], ["long-name", 22]])
        lines = out.splitlines()
        assert lines[0].startswith("name")
        assert set(lines[1]) <= {"-", " "}
        assert "long-name" in lines[3]

    def test_title(self):
        out = render_table(["a"], [[1]], title="Table I")
        assert out.splitlines()[0] == "Table I"

    def test_float_formatting(self):
        out = render_table(["v"], [[0.123456789]], floatfmt=".2f")
        assert "0.12" in out

    def test_nan_rendered_as_dash(self):
        out = render_table(["v"], [[float("nan")]])
        assert "-" in out.splitlines()[-1]

    def test_row_length_mismatch(self):
        with pytest.raises(ReproError):
            render_table(["a", "b"], [[1]])

    def test_empty_rows(self):
        out = render_table(["a", "b"], [])
        assert len(out.splitlines()) == 2


class TestRenderSeries:
    def test_columns(self):
        out = render_series(
            [1, 2], {"s1": [0.1, 0.2], "s2": [9, 8]}, x_label="n"
        )
        lines = out.splitlines()
        assert lines[0].split() == ["n", "s1", "s2"]
        assert lines[2].split()[0] == "1"

    def test_length_mismatch(self):
        with pytest.raises(ReproError):
            render_series([1, 2], {"s": [1.0]})


class TestRenderBars:
    def test_scaled_to_peak(self):
        out = render_bars({"a": 10.0, "b": 5.0})
        lines = out.splitlines()
        assert lines[0].count("#") == BAR_WIDTH
        assert lines[1].count("#") == BAR_WIDTH // 2

    def test_zero_values_ok(self):
        out = render_bars({"a": 0.0})
        assert "#" not in out

    def test_validation(self):
        with pytest.raises(ReproError):
            render_bars({})
        with pytest.raises(ReproError):
            render_bars({"a": -1.0})
