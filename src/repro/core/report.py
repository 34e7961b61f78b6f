"""Plain-text rendering of experiment tables and figure series.

The benchmarks print the same rows/series the paper's figures plot;
these helpers keep that output consistent.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Union

Number = Union[int, float]


def _fmt(x: Number, width: int = 10) -> str:
    if isinstance(x, float):
        if x == 0:
            return f"{0:>{width}.1f}"
        if abs(x) >= 1000 or abs(x) < 0.01:
            return f"{x:>{width}.3g}"
        return f"{x:>{width}.2f}"
    return f"{x:>{width}d}"


def format_table(title: str, headers: Sequence[str],
                 rows: Sequence[Sequence[Union[str, Number]]],
                 col_width: int = 12) -> str:
    """Fixed-width table with a title rule."""
    lines = [title, "=" * max(len(title), 8)]
    lines.append(" ".join(f"{h:>{col_width}s}" for h in headers))
    lines.append(" ".join("-" * col_width for _ in headers))
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, str):
                cells.append(f"{cell:>{col_width}s}")
            else:
                cells.append(_fmt(cell, col_width))
        lines.append(" ".join(cells))
    return "\n".join(lines)


def format_series(title: str, x_label: str, xs: Sequence[Number],
                  series: Dict[str, Sequence[Number]]) -> str:
    """A figure rendered as one row per x value, one column per line."""
    headers = [x_label] + list(series)
    rows: List[List[Number]] = []
    for i, x in enumerate(xs):
        row: List[Number] = [x]
        for name in series:
            row.append(series[name][i])
        rows.append(row)
    return format_table(title, headers, rows)


def format_comparison(title: str, labels: Sequence[str],
                      baseline: Sequence[float],
                      measured: Sequence[float],
                      baseline_name: str = "paper",
                      measured_name: str = "measured") -> str:
    """Paper-vs-measured comparison with ratios."""
    rows = []
    for label, b, m in zip(labels, baseline, measured):
        ratio = m / b if b else float("nan")
        rows.append([label, b, m, ratio])
    return format_table(title, ["case", baseline_name, measured_name, "ratio"],
                        rows)
