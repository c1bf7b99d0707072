"""Plain-text rendering of benchmark tables and series.

The benchmark harness regenerates every table and figure of the paper as
text: tables as aligned ASCII grids, figures as labelled series (and small
inline bar charts for the stacked-bar figure).  Keeping the renderer here
lets benches and examples share one look.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from ..exceptions import ReproError

__all__ = ["render_table", "render_series", "render_bars"]


def _fmt(value: object, floatfmt: str) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, (float, np.floating)):
        if value != value:  # NaN
            return "-"
        return format(float(value), floatfmt)
    return str(value)


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    *,
    floatfmt: str = ".4g",
    title: str | None = None,
) -> str:
    """Aligned ASCII table with a header rule."""
    rows = [list(r) for r in rows]
    for i, row in enumerate(rows):
        if len(row) != len(headers):
            raise ReproError(
                f"row {i} has {len(row)} cells, header has {len(headers)}"
            )
    cells = [[_fmt(c, floatfmt) for c in row] for row in rows]
    widths = [
        max(len(str(h)), *(len(r[i]) for r in cells)) if cells else len(str(h))
        for i, h in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_series(
    x: Sequence[object],
    series: Mapping[str, Sequence[object]],
    *,
    x_label: str = "x",
    floatfmt: str = ".4g",
    title: str | None = None,
) -> str:
    """A figure's data as a table: one x column, one column per series."""
    headers = [x_label, *series.keys()]
    columns = [list(x)] + [list(v) for v in series.values()]
    n = len(columns[0])
    for label, col in zip(headers[1:], columns[1:]):
        if len(col) != n:
            raise ReproError(
                f"series {label!r} has {len(col)} points, x has {n}"
            )
    rows = [[col[i] for col in columns] for i in range(n)]
    return render_table(headers, rows, floatfmt=floatfmt, title=title)


#: Characters in the longest bar of :func:`render_bars`.
BAR_WIDTH = 40


def render_bars(
    values: Mapping[str, float],
    *,
    unit: str = "",
    title: str | None = None,
) -> str:
    """Horizontal ASCII bar chart (for the Fig. 9 stacked-bar breakdown)."""
    if not values:
        raise ReproError("render_bars needs at least one value")
    if any(v < 0 for v in values.values()):
        raise ReproError("bar values must be >= 0")
    peak = max(values.values()) or 1.0
    label_width = max(len(k) for k in values)
    lines = [title] if title else []
    for key, val in values.items():
        bar = "#" * max(0, round(BAR_WIDTH * val / peak))
        lines.append(f"{key.ljust(label_width)}  {bar} {val:.4g}{unit}")
    return "\n".join(lines)
