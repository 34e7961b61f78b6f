"""Top-level parallel BLAST job runner.

Glues a master and N workers together on a simulated cluster with a
chosen I/O scheme.  File placement is set up before the clock starts
(fragments are already copied / striped — the paper measures the search
phase and subtracts copying; see EXPERIMENTS.md), so the returned
:class:`~repro.parallel.master.JobResult` is the search-phase timing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Sequence

from repro.parallel.iomodel import FragmentSpec, fragment_files
from repro.parallel.ioadapters import WorkerIO
from repro.parallel.master import MASTER_RANK, JobResult, master_proc
from repro.parallel.mpi import Messenger
from repro.parallel.worker import worker_proc

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.calibration import BlastCostModel
    from repro.cluster.node import Node
    from repro.trace.collector import TraceCollector


def run_parallel_blast(master_node: "Node", worker_nodes: Sequence["Node"],
                       worker_ios: Sequence[WorkerIO],
                       fragments: Sequence[FragmentSpec],
                       cost: "BlastCostModel",
                       time_limit: float = 1e9,
                       tracer: Optional["TraceCollector"] = None,
                       degraded_mode: Optional[bool] = None,
                       warm_fragments: Optional[Sequence[set]] = None
                       ) -> JobResult:
    """Run one job to completion and return its result.

    ``worker_ios[i]`` is the I/O adapter for ``worker_nodes[i]``.  The
    fragment files are created in each adapter's file system before the
    job starts.

    ``degraded_mode`` controls whether a worker abort requeues its
    fragment (CEFT-PVFS can serve the data from the mirror group) or
    aborts the whole job (PVFS/local have no second copy).  Left as
    ``None``, it is inferred from the I/O scheme.

    ``warm_fragments``, when given, holds one set of fragment ids per
    worker — the fragments whose scan structures that worker's engine
    already caches.  Workers update their sets in place, so passing the
    same sets to consecutive jobs models long-lived service workers
    (see :func:`run_query_stream`).
    """
    if len(worker_nodes) != len(worker_ios):
        raise ValueError("need one WorkerIO per worker node")
    if not worker_nodes:
        raise ValueError("need at least one worker")
    if warm_fragments is not None and len(warm_fragments) != len(worker_nodes):
        raise ValueError("need one warm-fragment set per worker node")
    if degraded_mode is None:
        degraded_mode = all(
            getattr(io, "scheme", None) == "ceft-pvfs" for io in worker_ios)
    sim = master_node.sim

    # Pre-place the database fragments.  Shared (parallel) file systems
    # are populated once; per-node local file systems each get a copy
    # (the original BLAST's copy step, accounted out-of-band).
    seen = set()
    for io in worker_ios:
        key = id(getattr(io, "fs", None) or getattr(io, "client").fs)
        for spec in fragments:
            for name, size in fragment_files(spec).items():
                if (key, name) not in seen:
                    io.ensure_file(name, size)
                    seen.add((key, name))

    messenger = Messenger()
    messenger.register(MASTER_RANK, master_node)
    for i, node in enumerate(worker_nodes):
        messenger.register(i + 1, node)

    frag_map: Dict[int, FragmentSpec] = {f.fragment_id: f for f in fragments}
    wprocs = [
        sim.process(worker_proc(i + 1, node, io, messenger, cost, frag_map,
                                tracer=tracer,
                                warm_fragments=(warm_fragments[i]
                                                if warm_fragments is not None
                                                else None)),
                    name=f"worker{i + 1}")
        for i, (node, io) in enumerate(zip(worker_nodes, worker_ios))
    ]
    mproc = sim.process(
        master_proc(master_node, messenger, fragments, len(worker_nodes),
                    cost, degraded_mode=degraded_mode),
        name="master")

    sim.run_until_complete(mproc, *wprocs, limit=time_limit)
    if mproc.failed:
        raise mproc.value
    for p in wprocs:
        if p.failed:
            raise p.value

    # The master assembles per-worker stats itself, from the totals
    # each worker sends with its final message — so even a worker that
    # aborted mid-job is accounted for.
    result: JobResult = mproc.value
    return result


def run_query_stream(master_node: "Node", worker_nodes: Sequence["Node"],
                     worker_ios: Sequence[WorkerIO],
                     fragments: Sequence[FragmentSpec],
                     cost: "BlastCostModel",
                     arrival_times: Sequence[float],
                     time_limit: float = 1e9):
    """Serve a stream of queries arriving at the given times.

    Models a BLAST service: queries queue FIFO and the cluster runs one
    parallel job per query (as mpiBLAST does); page caches stay warm
    between queries, and each worker keeps its engine's scan-structure
    cache across queries (a fragment re-searched by the same worker
    computes at ``cost.warm_compute_factor``; with the default factor
    of 1.0 this is a no-op).  Returns a list of per-query dicts with
    arrival, start, finish, service, and latency - enough to study the
    throughput/latency behaviour the paper's single-shot methodology
    cannot see.
    """
    sim = master_node.sim
    if list(arrival_times) != sorted(arrival_times):
        raise ValueError("arrival times must be non-decreasing")
    results = []
    t_free = sim.now
    warm_sets = [set() for _ in worker_nodes]
    for k, arrival in enumerate(arrival_times):
        start = max(arrival, t_free)
        if start > sim.now:
            sim.run(until=start)
        job = run_parallel_blast(master_node, worker_nodes, worker_ios,
                                 fragments, cost, time_limit=time_limit,
                                 warm_fragments=warm_sets)
        finish = sim.now
        t_free = finish
        results.append({
            "query": k,
            "arrival": arrival,
            "start": start,
            "finish": finish,
            "service": job.makespan,
            "latency": finish - arrival,
        })
    return results


def estimate_copy_time(fragment_bytes: int, network_bandwidth: float,
                       disk_write_bandwidth: float) -> float:
    """Time for one worker to copy its fragment to local disk.

    The paper measures this separately and subtracts it from the
    original BLAST's total (Section 4.3); the copy streams over the
    network and onto the local disk, bounded by the slower of the two.
    """
    return fragment_bytes / min(network_bandwidth, disk_write_bandwidth)
