"""Programmatic regeneration of the paper's tables and figures.

Each ``figure*``/``table1`` function runs the corresponding experiment
set and returns a :class:`FigureResult` with the raw data, the rendered
table, and (where the paper plots one) an ASCII chart.  The benchmark
files in ``benchmarks/`` are thin assertion wrappers around these, and
``python -m repro.cli reproduce --figure 9`` exposes them on the
command line.

All functions take ``scale``: 1.0 is the paper's 2.7 GB nt (seconds of
wall time per run); 0.1 is a quick look.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.core.experiment import (
    ExperimentConfig,
    Placement,
    Variant,
    run_experiment,
)
from repro.core.plot import figure4_scatter, figure_lines
from repro.core.report import format_series, format_table

MB = 1_000_000


@dataclass
class FigureResult:
    """One regenerated artefact."""

    figure_id: str
    title: str
    table: str
    chart: str = ""
    #: Raw numbers, keyed per figure (see each function's docstring).
    data: dict = field(default_factory=dict)

    def render(self) -> str:
        parts = [self.table]
        if self.chart:
            parts += ["", self.chart]
        return "\n".join(parts)


def table1(scale: float = 1.0) -> FigureResult:
    """§4.1 platform microbenchmarks.  data: {metric: (measured, paper)}."""
    from repro.cluster import Cluster
    from repro.cluster.params import MiB

    total = int(200 * MB * min(scale * 4, 1.0)) or MB

    def disk_rate(kind):
        c = Cluster(n_nodes=1)

        def proc():
            off = 0
            while off < total:
                if kind == "read":
                    yield c[0].disk.read(off, MiB, stream="bonnie")
                else:
                    yield c[0].disk.write(off, MiB, stream="bonnie")
                off += MiB

        p = c.sim.process(proc())
        c.sim.run_until_complete(p)
        return total / c.sim.now / MB

    def tcp_rate():
        c = Cluster(n_nodes=2)

        def proc():
            yield from c.network.transfer(c[0], c[1], total)

        p = c.sim.process(proc())
        c.sim.run_until_complete(p)
        return total / c.sim.now / MB

    data = {
        "disk write (Bonnie)": (disk_rate("write"), 32.0),
        "disk read (Bonnie)": (disk_rate("read"), 26.0),
        "TCP/Myrinet (Netperf)": (tcp_rate(), 112.0),
    }
    rows = [[name, paper, round(measured, 1), round(measured / paper, 3)]
            for name, (measured, paper) in data.items()]
    return FigureResult(
        "T1", "platform microbenchmarks (MB/s)",
        format_table("T1: platform microbenchmarks (MB/s), paper Section 4.1",
                     ["metric", "paper", "measured", "ratio"], rows,
                     col_width=22),
        data=data)


def figure4(scale: float = 1.0) -> FigureResult:
    """The 8-worker I/O trace.  data: {"stats": TraceStats, "tracer": ...}."""
    from repro.trace import analyze

    cfg = ExperimentConfig(variant=Variant.ORIGINAL, n_workers=8,
                           n_fragments=8, trace=True).scaled(scale)
    res = run_experiment(cfg)
    stats = analyze(res.tracer)
    rows = [
        ["total operations", 144, stats.operations],
        ["read fraction (%)", 89, round(100 * stats.read_fraction)],
        ["min read (B)", 13, stats.reads.min_bytes],
        ["max read (MB)", 220, round(stats.reads.max_bytes / MB)],
        ["write count", 16, stats.writes.count],
        ["mean write (B)", 690, round(stats.writes.mean_bytes)],
    ]
    return FigureResult(
        "F4", "I/O trace statistics, 8 workers",
        format_table("F4: I/O trace statistics, 8 workers (paper §4.2)",
                     ["statistic", "paper", "measured"], rows, col_width=18),
        chart=figure4_scatter(
            res.tracer.records,
            "F4: operation size vs time (log-y)"),
        data={"stats": stats, "tracer": res.tracer})


def figure5(scale: float = 1.0,
            workers: Tuple[int, ...] = (1, 2, 4, 8)) -> FigureResult:
    """Equal-resource comparison.  data: {"original": [...], "over PVFS": [...]}."""
    series: Dict[str, List[float]] = {"original": [], "over PVFS": []}
    for w in workers:
        for variant, key in ((Variant.ORIGINAL, "original"),
                             (Variant.PVFS, "over PVFS")):
            cfg = ExperimentConfig(variant=variant, n_workers=w,
                                   n_servers=w).scaled(scale)
            series[key].append(run_experiment(cfg).execution_time)
    table = format_series(
        "F5: execution time (s), equal resources",
        "workers", list(workers),
        {k: [round(v, 1) for v in vs] for k, vs in series.items()})
    chart = figure_lines(list(workers), series,
                         "F5 (chart): execution time vs worker nodes",
                         "workers")
    return FigureResult("F5", "equal-resource comparison", table, chart,
                        data=dict(series, workers=list(workers)))


def figure6(scale: float = 1.0,
            workers: Tuple[int, ...] = (1, 2, 4, 8),
            servers: Tuple[int, ...] = (1, 2, 4, 6, 8, 12, 16)
            ) -> FigureResult:
    """Server sweep.  data: {"sweep": {w: [t per server]}, "baselines": {w: t}}."""
    sweep: Dict[int, List[float]] = {}
    baselines: Dict[int, float] = {}
    for w in workers:
        baselines[w] = run_experiment(ExperimentConfig(
            variant=Variant.ORIGINAL, n_workers=w).scaled(scale)
        ).execution_time
        sweep[w] = [run_experiment(ExperimentConfig(
            variant=Variant.PVFS, n_workers=w, n_servers=s).scaled(scale)
        ).execution_time for s in servers]
    series = {f"{w} workers": [round(t, 1) for t in sweep[w]]
              for w in workers}
    table = format_series("F6: execution time (s) vs PVFS data servers",
                          "servers", list(servers), series)
    baseline_rows = [[w, round(baselines[w], 1)] for w in workers]
    table += "\n\n" + format_table("original baselines",
                                   ["workers", "exec (s)"], baseline_rows)
    chart = figure_lines(list(servers),
                         {f"{w} workers": sweep[w] for w in workers},
                         "F6 (chart): execution time vs data servers",
                         "data servers")
    return FigureResult("F6", "server-count sweep", table, chart,
                        data={"sweep": sweep, "baselines": baselines,
                              "servers": list(servers)})


def figure7(scale: float = 1.0,
            workers: Tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8)
            ) -> FigureResult:
    """PVFS-8 vs CEFT-4+4.  data: the two series."""
    series: Dict[str, List[float]] = {"PVFS 8 servers": [],
                                      "CEFT 4+4 mirrored": []}
    for w in workers:
        for variant, key in ((Variant.PVFS, "PVFS 8 servers"),
                             (Variant.CEFT_PVFS, "CEFT 4+4 mirrored")):
            cfg = ExperimentConfig(variant=variant, n_workers=w, n_servers=8,
                                   placement=Placement.DEDICATED).scaled(scale)
            series[key].append(run_experiment(cfg).execution_time)
    table = format_series("F7: execution time (s), 8 data servers, dedicated",
                          "workers", list(workers),
                          {k: [round(v, 1) for v in vs]
                           for k, vs in series.items()})
    chart = figure_lines(list(workers), series,
                         "F7 (chart): PVFS-8 vs CEFT-4+4", "workers")
    return FigureResult("F7", "PVFS vs CEFT-PVFS", table, chart,
                        data=dict(series, workers=list(workers)))


def figure9(scale: float = 1.0) -> FigureResult:
    """Hot-spot degradation.  data: {variant: (base, stressed, factor)}."""
    paper = {Variant.ORIGINAL: 10.0, Variant.PVFS: 21.0,
             Variant.CEFT_PVFS: 2.0}
    data = {}
    rows = []
    for variant in (Variant.ORIGINAL, Variant.PVFS, Variant.CEFT_PVFS):
        base = run_experiment(ExperimentConfig(
            variant=variant, n_workers=8, n_servers=8).scaled(scale)
        ).execution_time
        stressed = run_experiment(ExperimentConfig(
            variant=variant, n_workers=8, n_servers=8, n_stressed_disks=1,
            time_limit=1e7).scaled(scale)).execution_time
        factor = stressed / base
        data[variant] = (base, stressed, factor)
        rows.append([variant.value, round(base, 1), round(stressed, 1),
                     round(factor, 2), paper[variant]])
    table = format_table(
        "F9: one stressed disk, 8 workers x 8 servers",
        ["scheme", "no stress (s)", "stressed (s)", "factor",
         "paper factor"], rows, col_width=14)
    return FigureResult("F9", "hot-spot degradation", table, data=data)


FIGURES = {
    "T1": table1,
    "F4": figure4,
    "F5": figure5,
    "F6": figure6,
    "F7": figure7,
    "F9": figure9,
}


def reproduce(figure_id: str, scale: float = 1.0) -> FigureResult:
    """Regenerate one artefact by id ("T1", "F4"..."F9")."""
    key = figure_id.upper()
    if not key.startswith(("T", "F")):
        key = f"F{key}"
    try:
        fn = FIGURES[key]
    except KeyError:
        raise ValueError(f"unknown figure {figure_id!r}; "
                         f"choose from {sorted(FIGURES)}") from None
    return fn(scale=scale)
