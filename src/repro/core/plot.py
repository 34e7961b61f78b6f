"""ASCII rendering of the paper's figures.

Terminal-friendly scatter and line charts so ``benchmarks/results/``
contains visual reproductions, not just tables.  Log-scale support
matches Figure 4's byte axis (13 B to 220 MB).
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

_MARKERS = "ox+*#@%&"


def _ticks(lo: float, hi: float, log: bool, n: int = 5) -> List[float]:
    if log:
        llo, lhi = math.log10(max(lo, 1e-12)), math.log10(max(hi, 1e-12))
        return [10 ** (llo + (lhi - llo) * i / (n - 1)) for i in range(n)]
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _fmt_tick(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-2:
        return f"{v:.0e}"
    if abs(v) >= 100:
        return f"{v:.0f}"
    return f"{v:.3g}"


def _scale(v: float, lo: float, hi: float, extent: int, log: bool) -> int:
    if log:
        v, lo, hi = (math.log10(max(x, 1e-12)) for x in (v, lo, hi))
    if hi == lo:
        return 0
    frac = (v - lo) / (hi - lo)
    return max(0, min(extent - 1, round(frac * (extent - 1))))


def ascii_chart(series: Dict[str, Sequence[Tuple[float, float]]],
                title: str = "", width: int = 64, height: int = 20,
                x_label: str = "", y_label: str = "",
                log_x: bool = False, log_y: bool = False,
                connect: bool = False) -> str:
    """Render (x, y) series as an ASCII chart.

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

    grid = [[" "] * width for _ in range(height)]

    for si, (name, pts) in enumerate(series.items()):
        marker = _MARKERS[si % len(_MARKERS)]
        cells = []
        for x, y in pts:
            col = _scale(x, x_lo, x_hi, width, log_x)
            row = height - 1 - _scale(y, y_lo, y_hi, height, log_y)
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

    y_ticks = _ticks(y_lo, y_hi, log_y)
    label_w = max(len(_fmt_tick(t)) for t in y_ticks) + 1
    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("")
    for row in range(height):
        tick = ""
        # attach a tick label at rows matching tick positions
        for t in y_ticks:
            if _scale(t, y_lo, y_hi, height, log_y) == height - 1 - row:
                tick = _fmt_tick(t)
                break
        lines.append(f"{tick:>{label_w}s} |" + "".join(grid[row]))
    lines.append(" " * label_w + "+" + "-" * width)
    x_tick_line = [" "] * (width + label_w + 10)
    for t in _ticks(x_lo, x_hi, log_x):
        col = label_w + 1 + _scale(t, x_lo, x_hi, width, log_x)
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
                 title: str, x_label: str, y_label: str = "seconds") -> str:
    """Line-chart form used for Figures 5, 6, 7."""
    data = {name: list(zip(xs, ys)) for name, ys in series.items()}
    return ascii_chart(data, title=title, x_label=x_label, y_label=y_label,
                       connect=True)
