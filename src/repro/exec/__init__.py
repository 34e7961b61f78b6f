"""Multi-core execution runtime for the real BLAST engine.

The simulated cluster in :mod:`repro.parallel` answers the paper's
*what-if* questions; this package runs the same database-segmented
master/worker design on actual cores:

* :mod:`repro.exec.shm` — immutable fragment scan-structures (the
  concatenated database bytes, one per residue, nothing derived)
  published once in ``multiprocessing.shared_memory`` and attached
  zero-copy by every worker, with CRC32 integrity verification at
  publish and attach;
* :mod:`repro.exec.schedule` — greedy heaviest-first dynamic fragment
  scheduling with front-requeue on failure, bounded retries and hedged
  re-issue of stuck tasks (a task is one pack for one query batch);
* :mod:`repro.exec.pool` — the persistent worker pool
  (:class:`ExecPool`: the master side; its local workers are node
  agents forked onto a ``socketpair``), byte-identical to the serial
  engine, with worker respawn and graceful serial fallback; every pool
  knob is an ``ExecPool`` keyword, and ``REPRO_EXEC_FAULT_PLAN`` is the
  only environment variable the package reads;
* :mod:`repro.exec.faults` — deterministic fault injection (kill /
  hang / slow / drop-result / corrupt-pack, plus the reply-time
  disconnect / partition / delay / reorder kinds) and the structured
  :class:`FailureLedger` the pool's recovery actions append to;
* :mod:`repro.exec.diskpack` — the persistent on-disk pack format
  (``formatdb`` for this engine, and its one on-disk database):
  checksummed mmap-able pack files whose data region matches the shm
  layout byte-for-byte, a streaming bounded-memory builder with atomic
  commit, and the pool's mmap-then-memcpy cold-start path;
* :mod:`repro.exec.net` — the one transport (CRC32-checked
  length-prefixed frames, per-connection sequence numbers, PING/PONG
  keepalives, bounded reconnect backoff), local or across hosts;
* :mod:`repro.exec.nodes` — the worker side: every worker is a node
  agent running the one task-serving loop (``serve_tasks``) over its
  one pack holder, and its master-side client — packs attached by shm
  name on the master's machine, shipped once and cached by identity to
  a remote node (``repro-node``), CEFT-style mirroring so a node death
  is a mirror re-read; plus the :class:`NodeFleet` test/chaos
  harness.
"""

from repro.blast.seqdb import plan_fragments  # the one binning rule
from repro.exec.diskpack import (DiskPack, PackFormatError, PackStore,
                                 PackStoreBuilder, build_pack_store,
                                 corrupt_pack_file, search_store,
                                 search_store_batch, sweep_build_leftovers,
                                 write_pack)
from repro.exec.faults import (ANOMALY_KINDS, FAULT_KINDS, FAULT_PLAN_ENV,
                               FailureLedger, Fault, FaultInjector,
                               FaultPlan, LedgerEntry, random_plan)
from repro.exec.net import (FrameConnection, FrameCRCError, FrameDecoder,
                            FrameError, FrameSequenceError, FrameTruncated,
                            NodeConnectError, TransportError, backoff_delay,
                            connect_backoff, parse_address)
from repro.exec.nodes import (NodeAgent, NodeClient, NodeFleet, execute_task,
                              run_node)
from repro.exec.pool import ExecPool, JobSpec, PoolJobError, PoolStats
from repro.exec.results import (decode_result_pairs, encode_result_pairs,
                                estimate_payload_size)
from repro.exec.schedule import GreedyScheduler, RetriesExceeded
# The range planner no runtime path uses; perf/harness/layers.py still
# times it (tools/census.py, PERF_ONLY).
from repro.exec.schedule import (DEFAULT_SCAN_RATE, DEFAULT_TASK_OVERHEAD_S,
                                 plan_task_ranges)
from repro.exec.shm import (ArenaSpec, AttachedPack, PackDB,
                            PackIntegrityError, PackSpec, ResultArena,
                            ShmRegistry, corrupt_segment, create_pack,
                            default_registry, pack_fragment, pack_layout,
                            publish_pack_bytes)

__all__ = [
    "DiskPack", "PackFormatError", "PackStore", "PackStoreBuilder",
    "build_pack_store", "corrupt_pack_file", "search_store",
    "search_store_batch", "sweep_build_leftovers", "write_pack",
    "pack_layout", "publish_pack_bytes",
    "ExecPool", "JobSpec", "PoolJobError", "PoolStats",
    "DEFAULT_SCAN_RATE", "DEFAULT_TASK_OVERHEAD_S",
    "GreedyScheduler", "RetriesExceeded", "plan_fragments",
    "plan_task_ranges",
    "decode_result_pairs", "encode_result_pairs", "estimate_payload_size",
    "ArenaSpec", "AttachedPack", "PackDB", "PackIntegrityError", "PackSpec",
    "ResultArena", "ShmRegistry", "corrupt_segment", "create_pack",
    "default_registry", "pack_fragment",
    "ANOMALY_KINDS", "FAULT_KINDS", "FAULT_PLAN_ENV",
    "Fault", "FaultInjector", "FaultPlan", "FailureLedger", "LedgerEntry",
    "random_plan",
    "FrameConnection", "FrameCRCError", "FrameDecoder", "FrameError",
    "FrameSequenceError", "FrameTruncated", "NodeConnectError",
    "TransportError", "backoff_delay", "connect_backoff", "parse_address",
    "NodeAgent", "NodeClient", "NodeFleet", "execute_task", "run_node",
]
