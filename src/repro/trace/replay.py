"""Trace export and replay.

Collected application-level traces can be exported to CSV, re-imported,
and *replayed* against any simulated file system — turning a measured
workload into a portable benchmark driver (the methodology of the
paper's related work [24], which replays FLASH's checkpoint traces).
"""

from __future__ import annotations

import csv
import io
from typing import TYPE_CHECKING, Dict, Iterable, List

from repro.trace.record import TraceRecord

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node
    from repro.parallel.ioadapters import WorkerIO

CSV_FIELDS = ["start", "end", "node", "op", "path", "size"]


def export_csv(records: Iterable[TraceRecord]) -> str:
    """Render records as CSV text."""
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=CSV_FIELDS)
    writer.writeheader()
    for r in records:
        writer.writerow({"start": r.start, "end": r.end, "node": r.node,
                         "op": r.op, "path": r.path, "size": r.size})
    return out.getvalue()


def import_csv(text: str) -> List[TraceRecord]:
    """Parse CSV text back into records."""
    records: List[TraceRecord] = []
    for row in csv.DictReader(io.StringIO(text)):
        records.append(TraceRecord(
            node=row["node"], op=row["op"], path=row["path"],
            size=int(row["size"]), start=float(row["start"]),
            end=float(row["end"])))
    return records


def replay(node: "Node", io_adapter: "WorkerIO",
           records: Iterable[TraceRecord],
           preserve_timing: bool = True,
           time_scale: float = 1.0):
    """Generator process: re-issue a trace's operations against
    *io_adapter*.

    With ``preserve_timing`` the replayer waits until each record's
    original (scaled) start time before issuing it — an open-loop
    replay; otherwise operations are issued back-to-back (closed-loop,
    measuring pure service capability).  Returns (ops, read bytes,
    written bytes).
    """
    sim = node.sim
    t0 = sim.now
    ops = reads = writes = 0
    # Make sure every file exists and is large enough first.
    needed: Dict[str, int] = {}
    recs = list(records)
    for r in recs:
        if r.op == "read":
            needed[r.path] = max(needed.get(r.path, 0), r.size)
    for path, size in needed.items():
        io_adapter.ensure_file(path, size)
    for r in recs:
        if preserve_timing:
            target = t0 + (r.start - recs[0].start) * time_scale
            if target > sim.now:
                yield sim.timeout(target - sim.now)
        if r.op == "read":
            yield from io_adapter.read(r.path, 0, r.size)
            reads += r.size
        elif r.op == "write":
            io_adapter.ensure_file(r.path, 0)
            yield from io_adapter.write(r.path, 0, r.size)
            writes += r.size
        else:  # pragma: no cover - defensive
            raise ValueError(f"cannot replay op {r.op!r}")
        ops += 1
    return ops, reads, writes
