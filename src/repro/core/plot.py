"""ASCII rendering of the paper's figures.

Terminal-friendly scatter and line charts so ``benchmarks/results/``
contains visual reproductions, not just tables.  Log-scale support
matches Figure 4's byte axis (13 B to 220 MB).
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

_MARKERS = "ox+*#@%&"
#: Plot area in characters, and tick labels per axis.
_WIDTH, _HEIGHT, _TICKS = 64, 20, 5


def _ticks(lo: float, hi: float) -> List[float]:
    return [lo + (hi - lo) * i / (_TICKS - 1) for i in range(_TICKS)]


def _fmt_tick(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-2:
        return f"{v:.0e}"
    if abs(v) >= 100:
        return f"{v:.0f}"
    return f"{v:.3g}"


def _scale(v: float, lo: float, hi: float, extent: int) -> int:
    if hi == lo:
        return 0
    frac = (v - lo) / (hi - lo)
    return max(0, min(extent - 1, round(frac * (extent - 1))))


def ascii_chart(series: Dict[str, Sequence[Tuple[float, float]]],
                title: str = "", x_label: str = "", y_label: str = "",
                log_y: bool = False, connect: bool = False) -> str:
    """Render (x, y) series as an ASCII chart, linear in x.

    ``connect`` draws crude vertical interpolation between consecutive
    points (line-chart flavour); otherwise it is a scatter.
    """
    points = [(x, y) for pts in series.values() for x, y in pts]
    if not points:
        raise ValueError("no data")
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if y_lo == y_hi:
        y_hi = y_lo + 1
    if x_lo == x_hi:
        x_hi = x_lo + 1

    # A log y axis is a linear one over log10(y).
    fy = (lambda v: math.log10(max(v, 1e-12))) if log_y else (lambda v: v)
    fy_lo, fy_hi = fy(y_lo), fy(y_hi)
    grid = [[" "] * _WIDTH for _ in range(_HEIGHT)]

    for si, (name, pts) in enumerate(series.items()):
        marker = _MARKERS[si % len(_MARKERS)]
        cells = []
        for x, y in pts:
            col = _scale(x, x_lo, x_hi, _WIDTH)
            row = _HEIGHT - 1 - _scale(fy(y), fy_lo, fy_hi, _HEIGHT)
            cells.append((col, row))
            grid[row][col] = marker
        if connect:
            cells.sort()
            for (c0, r0), (c1, r1) in zip(cells, cells[1:]):
                for c in range(c0 + 1, c1):
                    # linear interpolation in screen space
                    r = round(r0 + (r1 - r0) * (c - c0) / max(c1 - c0, 1))
                    if grid[r][c] == " ":
                        grid[r][c] = "."

    y_ticks = [10 ** t for t in _ticks(fy_lo, fy_hi)] if log_y \
        else _ticks(y_lo, y_hi)
    label_w = max(len(_fmt_tick(t)) for t in y_ticks) + 1
    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("")
    for row in range(_HEIGHT):
        tick = ""
        # attach a tick label at rows matching tick positions
        for t in y_ticks:
            if _scale(fy(t), fy_lo, fy_hi, _HEIGHT) == _HEIGHT - 1 - row:
                tick = _fmt_tick(t)
                break
        lines.append(f"{tick:>{label_w}s} |" + "".join(grid[row]))
    lines.append(" " * label_w + "+" + "-" * _WIDTH)
    x_tick_line = [" "] * (_WIDTH + label_w + 10)
    for t in _ticks(x_lo, x_hi):
        col = label_w + 1 + _scale(t, x_lo, x_hi, _WIDTH)
        for i, ch in enumerate(_fmt_tick(t)):
            x_tick_line[col + i] = ch
    lines.append("".join(x_tick_line).rstrip())
    if x_label:
        lines.append(" " * label_w + f"  {x_label}")
    legend = "   ".join(f"{_MARKERS[i % len(_MARKERS)]} = {name}"
                        for i, name in enumerate(series))
    lines.append(f"{'':>{label_w}s}  [{legend}]"
                 + (f"   (y: {y_label})" if y_label else ""))
    return "\n".join(lines)


def figure4_scatter(records, title: str = "Figure 4: I/O access pattern"
                    ) -> str:
    """The paper's Figure 4: operation size vs time, log-y scatter."""
    reads = [(r.start, r.size) for r in records if r.op == "read"]
    writes = [(r.start, max(r.size, 1)) for r in records if r.op == "write"]
    return ascii_chart({"read": reads, "write": writes}, title=title,
                       x_label="time (seconds)", y_label="bytes",
                       log_y=True)


def figure_lines(xs: Sequence[float], series: Dict[str, Sequence[float]],
                 title: str, x_label: str) -> str:
    """Line-chart form used for Figures 5, 6, 7 (y in seconds)."""
    data = {name: list(zip(xs, ys)) for name, ys in series.items()}
    return ascii_chart(data, title=title, x_label=x_label,
                       y_label="seconds", connect=True)
