"""Checkpoint workloads (the paper's related work, ref [24]).

Ross et al. studied FLASH astrophysics I/O on Linux clusters — write-
only checkpoint and plotfile phases, the mirror image of BLAST's
read-dominated pattern.  This generator reproduces that shape so the
write paths (PVFS striping, CEFT duplexing protocols, NFS) can be
exercised under a realistic scientific workload, not just
microbenchmarks.

A checkpoint phase: every process writes its slab of the global state
to a shared file (striped FS) or its own file, roughly simultaneously —
the bursty, aligned, large-write pattern parallel file systems were
built for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Sequence

#: Simulated seconds past which :func:`run_checkpoint_workload` fails.
_TIME_LIMIT = 1e9

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node
    from repro.parallel.ioadapters import WorkerIO


@dataclass(frozen=True)
class CheckpointSpec:
    """One application's checkpointing behaviour."""

    #: Number of writer processes.
    n_processes: int
    #: Bytes each process writes per checkpoint.
    bytes_per_process: int
    #: Simulated compute time between checkpoints.
    compute_between: float
    #: Number of checkpoint phases.
    n_checkpoints: int
    #: One shared striped file (True) or a file per process (False).
    shared_file: bool = True

    @property
    def total_bytes(self) -> int:
        return self.n_processes * self.bytes_per_process * self.n_checkpoints


def run_checkpoint_workload(nodes: Sequence["Node"],
                            ios: Sequence["WorkerIO"],
                            spec: CheckpointSpec) -> dict:
    """Run the workload; returns totals.

    ``nodes[i]``/``ios[i]`` host process i (round-robin if
    ``spec.n_processes`` exceeds the node count).  Returns a dict with
    the makespan, pure write time (sum over the slowest process), and
    effective aggregate write bandwidth during checkpoint phases.
    """
    if not nodes or len(nodes) != len(ios):
        raise ValueError("need matching nodes and ios")
    sim = nodes[0].sim
    write_times: List[float] = []

    # Pre-create the files.
    if spec.shared_file:
        ios[0].ensure_file("checkpoint.dat",
                           spec.n_processes * spec.bytes_per_process)
    else:
        for p in range(spec.n_processes):
            ios[p % len(ios)].ensure_file(f"checkpoint.{p:04d}", 0)

    def process(pid: int):
        node = nodes[pid % len(nodes)]
        io = ios[pid % len(ios)]
        io_total = 0.0
        for ck in range(spec.n_checkpoints):
            yield node.cpu.consume(spec.compute_between)
            t0 = sim.now
            if spec.shared_file:
                offset = pid * spec.bytes_per_process
                yield from io.write("checkpoint.dat", offset,
                                    spec.bytes_per_process)
            else:
                yield from io.write(f"checkpoint.{pid:04d}",
                                    ck * spec.bytes_per_process,
                                    spec.bytes_per_process)
            io_total += sim.now - t0
        write_times.append(io_total)

    start = sim.now
    procs = [sim.process(process(p)) for p in range(spec.n_processes)]
    sim.run_until_complete(*procs, limit=_TIME_LIMIT)
    makespan = sim.now - start
    write_time = max(write_times) if write_times else 0.0
    compute = spec.n_checkpoints * spec.compute_between
    return {
        "makespan": makespan,
        "write_time_max": write_time,
        "write_fraction": write_time / makespan if makespan else 0.0,
        "aggregate_write_mb_s": (spec.total_bytes / 1e6
                                 / max(makespan - compute, 1e-9)),
    }
