"""The multi-core execution runtime: persistent workers, greedy
dynamic scheduling, byte-identical cross-fragment merging.

This is the real-execution twin of the simulated master/worker in
:mod:`repro.parallel`: the paper's database-segmented BLAST, run on
actual cores instead of simulated nodes.  A persistent
:class:`ExecPool` of worker *processes* (not threads — the scan kernel
is numpy-heavy but the seeding/extension half is pure Python and GIL-
bound) attaches each fragment's shared-memory pack once, then serves
``(query, fragment)`` tasks handed out greedily by the master-side
:class:`~repro.exec.schedule.GreedyScheduler`.  Queries stream through
the same work queue, so a multi-query workload keeps every core busy
across query boundaries.

Fault handling upgrades PR 1's "fail cleanly" into CEFT-style "keep
serving" (the paper's dead-server and hot-spot experiments, Figs 7–9):

* a worker dying mid-task is detected on its pipe (plus a heartbeat
  liveness sweep), the task is requeued at the front, and — new — the
  pool **respawns** the lost worker so capacity recovers instead of
  shrinking toward job failure;
* a task stuck past its **soft deadline** is **hedged**: re-issued
  speculatively to an idle worker, the direct analog of skipping a hot
  server and reading from the mirror group — first result wins, the
  loser's late duplicate is discarded by run-epoch tag;
* a worker stuck past the **hard deadline** (a hang or a dropped
  reply) is killed, its task requeued if still needed, and its slot
  respawned;
* every pack carries CRC32 checksums verified at publish and attach,
  so a corrupted or torn segment raises a typed
  :class:`~repro.exec.shm.PackIntegrityError` before any hit is
  produced from it;
* when the pool still cannot finish a job (retry budget exhausted,
  every worker lost and respawn cannot recover one), ``search_many``
  **degrades gracefully** to the serial scan
  engine with a warning — results stay byte-identical, and the
  structured :class:`~repro.exec.faults.FailureLedger` records every
  fault, requeue, hedge, respawn, and the fallback itself.

Deterministic fault injection for all of the above lives in
:mod:`repro.exec.faults`; arm a plan via the ``fault_plan`` argument
or the ``REPRO_EXEC_FAULT_PLAN`` environment variable and the chaos
suite drives this exact, unmodified code path.

Byte-identity with the serial engine is a hard invariant, not a
goal: workers receive the master's Karlin–Altschul parameters and the
*whole-database* effective search space (so per-fragment E-values and
cutoff filtering match a serial run exactly), fragment-local subject
ids map back through each pack's ``source_ids``, and the merge
pre-sorts hits by global subject id before the standard result sort —
the same deterministic tie-break order a serial scan produces.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
import warnings
import weakref
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.blast.alphabet import DNA, PROTEIN
from repro.blast.scankernel import db_token
from repro.blast.search import (SearchParams, SearchResults,
                                merge_fragment_results, resolve_ka,
                                search_batch)
from repro.blast.seqdb import AA
from repro.blast.stats import KarlinAltschul, effective_search_space
from repro.exec.faults import FailureLedger, FaultInjector, FaultPlan
from repro.exec.net import (FrameError, NodeConnectError, backoff_delay,
                            parse_address)
from repro.exec.nodes import (NamedPacks, NodeClient, _NodeProcess,
                              serve_tasks)
from repro.exec.results import (decode_result_pairs, encode_result_pairs,
                                estimate_payload_size)
from repro.exec.schedule import (DEFAULT_MAX_QUERY_BATCH, DEFAULT_SCAN_RATE,
                                 GreedyScheduler, RetriesExceeded,
                                 plan_fragments, plan_mirror_groups,
                                 plan_query_batches, plan_task_ranges)
from repro.exec.shm import (ArenaSpec, PackIntegrityError, PackSpec,
                            ResultArena, ShmRegistry, default_registry,
                            ensure_tracker, pack_fragment, publish_pack_bytes)

#: Adaptive soft-deadline floor and multiplier: with no observed task
#: times yet a task is hedge-eligible after this many seconds; once an
#: EMA exists the deadline is ``max(floor, mult * ema)``.
_HEDGE_FLOOR = 0.5
_HEDGE_MULT = 4.0

#: Seconds a freshly spawned worker gets to report ``ready``.
_START_TIMEOUT = 30.0


class PoolJobError(RuntimeError):
    """A parallel job could not be completed (workers exhausted or a
    task burned through its retry budget)."""


@dataclass
class PoolConfig:
    """Worker-side knobs (picklable; shipped once at spawn).

    ``task_sleep`` stalls every task by that many seconds — a test and
    benchmark hook that widens the window for mid-task fault
    injection; 0 in production.
    ``fault_plan`` arms deterministic worker-side faults (see
    :mod:`repro.exec.faults`); ``None`` in production.
    ``arena_threshold`` is the estimated payload size (bytes) above
    which a worker ships results through its shared-memory arena
    instead of pickling them over the pipe; small results stay inline
    because the arena's encode/copy costs more than a tiny pickle.
    """

    task_sleep: float = 0.0
    fault_plan: Optional[FaultPlan] = None
    arena_threshold: int = 32768


@dataclass
class JobSpec:
    """Everything a worker needs to search one query against any
    fragment of the prepared database — statistics included, so every
    fragment is scored exactly as the serial whole-database search
    would score it."""

    query: np.ndarray
    query_id: str
    scheme: object
    params: SearchParams
    both_strands: bool
    ka: KarlinAltschul
    effective_space: Tuple[int, int]


@dataclass
class PoolStats:
    """Accounting for the most recent pool run."""

    tasks_done: int = 0
    fragments_done: int = 0
    requeues: int = 0
    worker_errors: int = 0
    worker_deaths: List[int] = field(default_factory=list)
    hedges: int = 0
    hedge_wins: int = 0
    stale_results: int = 0
    respawns: int = 0
    #: Respawns *tried*, successful or not; the budget counts attempts
    #: so a slot whose replacement keeps failing to start cannot spin
    #: the pump loop forever.
    respawn_attempts: int = 0
    hang_kills: int = 0
    integrity_failures: int = 0
    #: Result payloads shipped through the shm arena vs pickled inline
    #: vs RRES blobs framed over a node socket.
    arena_results: int = 0
    inline_results: int = 0
    remote_results: int = 0
    #: Remote nodes re-dialed (successfully) during this run; these
    #: also count into ``respawns`` — a reconnect *is* the socket
    #: transport's respawn.
    reconnects: int = 0
    #: Idle nodes declared dead for missing heartbeats.
    heartbeat_losses: int = 0
    fallback: bool = False


@dataclass
class _Worker:
    rank: int
    process: object
    conn: object
    alive: bool = True
    jobs_sent: set = field(default_factory=set)
    #: The task this worker is serving: ``(epoch, qis, names)`` where
    #: ``qis`` is the tuple of query indexes in the batch and ``names``
    #: the tuple of pack names in the fragment range.
    #: Pool-level (not scheduler-level) so a straggler from a previous
    #: run is still recognised — and reaped — across run boundaries.
    busy: Optional[tuple] = None
    busy_since: float = 0.0
    #: The :class:`~repro.exec.nodes.NodeClient` behind a remote
    #: worker; ``None`` for a local pipe worker.
    remote: Optional[NodeClient] = None


@dataclass
class _PreparedDB:
    """Parent-side record of one published fragment set."""

    key: tuple                       # (token, version, k, base, n_fragments)
    specs: List[PackSpec]
    ids_by_name: Dict[str, List[int]]
    #: CEFT-style mirror placement (empty without nodes): fragment
    #: index groups, the node ranks holding each group, and per-pack
    #: name → holder ranks.
    groups: List[Tuple[int, ...]] = field(default_factory=list)
    group_nodes: List[Tuple[int, ...]] = field(default_factory=list)
    placement: Dict[str, Tuple[int, ...]] = field(default_factory=dict)


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _worker_main(rank: int, conn, cfg: PoolConfig,
                 arena_spec: Optional[ArenaSpec] = None) -> None:
    """Pipe-worker entry point: the shared task loop
    (:func:`repro.exec.nodes.serve_tasks`) over packs attached by shm
    name, results shipped through the worker's shared-memory arena when
    the payload is large (descriptor over the pipe, CRC-checked) and
    pickled inline when it is small.

    Runs in a child process, but takes any connection-like object so
    the protocol is unit-testable in-process with a scripted pipe.
    """
    holder = NamedPacks()
    injector = (FaultInjector(cfg.fault_plan, rank)
                if cfg.fault_plan is not None else None)
    arena = ResultArena(arena_spec) if arena_spec is not None else None

    def ship(pairs) -> tuple:
        if arena is not None and \
                estimate_payload_size(pairs) >= cfg.arena_threshold:
            blob = encode_result_pairs(pairs)
            if len(blob) <= arena.size:
                return ("arena",) + arena.write(blob)
        return ("inline", pairs)

    try:
        conn.send(("ready", rank))
        serve_tasks(conn, rank, holder, ship, injector=injector,
                    task_sleep=cfg.task_sleep)
    except (EOFError, KeyboardInterrupt, OSError):  # parent went away
        pass
    finally:
        holder.close()
        if arena is not None:
            arena.close()


# ----------------------------------------------------------------------
# Master side
# ----------------------------------------------------------------------
def _effective_space(ka: KarlinAltschul, params: SearchParams,
                     query_len: int, db) -> Tuple[int, int]:
    """The (m_eff, n_eff) a serial whole-database search would use."""
    if params.effective_lengths:
        return effective_search_space(ka, query_len, db.total_residues,
                                      len(db))
    return query_len, db.total_residues


def _terminate_workers(workers: List[_Worker]) -> None:  # pragma: no cover
    """GC/exit safety net (module-level so weakref.finalize can hold it
    without keeping the pool alive); ``close()`` is the normal path."""
    for w in workers:
        try:
            if w.process.is_alive():
                w.process.terminate()
        except Exception:
            pass


class ExecPool:
    """A persistent pool of search workers over shared fragment packs.

    Usage::

        with ExecPool(jobs=4) as pool:
            results = pool.search(query, db, scheme, params)

    The pool prepares a database once (greedy fragment plan, one
    shared-memory pack per fragment, attach broadcast), then any number
    of searches against it reuse the packs — the warm path a query
    stream lives on.  ``search_many`` runs a whole batch through one
    scheduler pass, so fragments of different queries interleave and
    no core idles at query boundaries.

    Every knob is a constructor keyword, set here and nowhere else
    (DESIGN.md §5e has the table with CLI flags and who sets what):

    ``jobs`` / ``n_fragments``
        local worker processes (default: the core count; 0 allowed
        with ``nodes``) and the default fragment count for ``search*``
        calls that give none (default ``2 x`` worker slots).
    ``max_retries``
        failed attempts a task may burn before the job fails
        (default 2).
    ``task_sleep``
        stall every task by this many seconds — the test / chaos hook
        that widens the window for mid-task faults (default 0).
    ``heartbeat``
        idle-tick interval for the liveness/deadline sweeps, seconds
        (default 0.2).
    ``join_timeout``
        budget for draining and joining workers at ``close()``; a
        worker that survives it is escalated ``terminate()`` →
        ``kill()`` so teardown can never hang (default 2.0).
    ``hedge_after``
        soft per-task deadline before speculative re-issue to an idle
        worker; ``None`` adapts from the observed task-time EMA.
    ``task_timeout``
        hard per-task deadline before the holding worker is presumed
        hung, killed, and respawned; ``None`` adapts from the soft
        deadline.
    ``respawn`` / ``max_respawns``
        whether (and how often per run; default ``2 x slots + 2``) lost
        workers are replaced so the pool recovers its configured
        capacity.
    ``serial_fallback``
        degrade to the serial scan engine (byte-identical, with a
        ``RuntimeWarning`` and a ledger entry) when a job fails or the
        last worker is lost; ``False`` raises :class:`PoolJobError`.
    ``fault_plan``
        a :class:`~repro.exec.faults.FaultPlan` armed in every worker;
        ``None`` reads ``REPRO_EXEC_FAULT_PLAN`` — the pool's one
        environment variable, so chaos suites reach workers through
        unmodified callers — and is unarmed in production.
    ``query_batch``
        max queries per batched task (default 32): ``search_many``
        groups its queries into batches of at most this size and each
        task scans its fragment range once for the whole batch via
        :func:`~repro.blast.search.search_batch`.  ``0`` (or ``1``)
        disables batching — one query per task.
    ``task_granularity``
        pin N fragments per task (``1`` = one task per fragment);
        ``None`` lets the overhead-aware planner size the ranges.
    ``result_arena_bytes`` / ``arena_threshold``
        size of each worker's shared-memory result arena (default
        4 MiB; 0 disables it) and the estimated payload size above
        which a result goes through it instead of being pickled over
        the pipe (default 32 KiB).
    ``nodes`` / ``replication``
        remote worker nodes (``host:port`` strings or pairs; see
        :mod:`repro.exec.nodes`).  Fragment packs are shipped once
        per holding node, every fragment is mirrored onto
        ``replication`` nodes (CEFT-style, default 2, clamped to the
        node count), and the scheduler prefers the nodes already
        holding a fragment.  A node death re-issues its tasks to a
        mirror — a re-read, not a re-ship; losing the *last* mirror
        of any pending fragment fails the job into the usual serial
        fallback (exit code 5 semantics), never a partial result.
        With nodes configured, ``jobs`` may be 0 (remote-only pool);
        local workers, when present, hold every fragment and are
        eligible for everything.
    ``node_timeout`` / ``node_connect_attempts``
        seconds of heartbeat silence from an *idle* node before it is
        declared dead (default ``max(1.0, 5 * heartbeat)``; a *busy*
        node is covered by the hard task deadline), and dial attempts
        per node at start (default 3).  Dead nodes are re-dialed with
        bounded exponential backoff + jitter under the same respawn
        budget as local workers.

    Every recovery action is appended to :attr:`ledger`, a
    :class:`~repro.exec.faults.FailureLedger` spanning the pool's
    lifetime.
    """

    def __init__(self, jobs: Optional[int] = None, *,
                 n_fragments: Optional[int] = None,
                 max_retries: int = 2,
                 task_sleep: float = 0.0,
                 heartbeat: float = 0.2,
                 join_timeout: float = 2.0,
                 hedge_after: Optional[float] = None,
                 task_timeout: Optional[float] = None,
                 respawn: bool = True,
                 max_respawns: Optional[int] = None,
                 serial_fallback: bool = True,
                 fault_plan: Optional[FaultPlan] = None,
                 query_batch: int = DEFAULT_MAX_QUERY_BATCH,
                 task_granularity: Optional[int] = None,
                 result_arena_bytes: int = 4 << 20,
                 arena_threshold: int = PoolConfig.arena_threshold,
                 nodes: Optional[Sequence] = None,
                 replication: int = 2,
                 node_timeout: Optional[float] = None,
                 node_connect_attempts: int = 3):
        self.node_addresses = [parse_address(a) for a in (nodes or [])]
        self.replication = max(1, int(replication))
        self.node_connect_attempts = max(1, int(node_connect_attempts))
        if jobs is None and self.node_addresses:
            jobs = 0            # remote-only by default when nodes given
        self.jobs = (os.cpu_count() or 1) if jobs is None else int(jobs)
        if self.jobs < 1 and not self.node_addresses:
            raise ValueError("jobs must be >= 1 (or give nodes=...)")
        if self.jobs < 0:
            raise ValueError("jobs must be >= 0")
        self.default_fragments = n_fragments
        self.max_retries = max_retries
        self.task_granularity = task_granularity
        #: Max queries per batched task; <= 1 disables query batching
        #: (every task carries a single query).
        self.query_batch = int(query_batch)
        self.result_arena_bytes = int(result_arena_bytes)
        self._cfg = PoolConfig(
            task_sleep=task_sleep,
            fault_plan=(fault_plan if fault_plan is not None
                        else FaultPlan.from_env()),
            arena_threshold=int(arena_threshold))
        self._ctx = mp.get_context(
            "fork" if "fork" in mp.get_all_start_methods() else "spawn")
        self._heartbeat = heartbeat
        self.join_timeout = join_timeout
        self.hedge_after = hedge_after
        self.task_timeout = task_timeout
        self.respawn = respawn
        n_slots = self.jobs + len(self.node_addresses)
        self.max_respawns = (2 * n_slots + 2 if max_respawns is None
                             else int(max_respawns))
        self.serial_fallback = serial_fallback
        self.node_timeout = node_timeout or max(1.0, 5 * heartbeat)
        self._registry: ShmRegistry = default_registry()
        self._workers: List[_Worker] = []
        #: rank -> NodeClient for every configured node (connected or
        #: not) — close() aborts these regardless of worker-slot state,
        #: so a client whose connection never made it into _workers
        #: (a death mid-_ensure_capacity) cannot leak a half-open
        #: socket.
        self._node_clients: Dict[int, NodeClient] = {}
        #: Transports created but never installed into a worker slot
        #: (e.g. a pipe pair whose process failed to start); close()
        #: sweeps them.
        self._strays: List[object] = []
        self._prepared: Dict[tuple, _PreparedDB] = {}
        self._arenas: Dict[int, ResultArena] = {}
        self._pack_residues: Dict[str, int] = {}
        self._started = False
        self._closed = False
        self._epoch = 0
        self._task_ema: Optional[float] = None
        #: Observed scan rate (residues/second) EMA; feeds the range
        #: planner so task sizing tracks the actual machine.
        self._rate_ema: Optional[float] = None
        self.last_stats: Optional[PoolStats] = None
        self.ledger = FailureLedger()
        self.total_respawns = 0
        self._finalizer = weakref.finalize(self, _terminate_workers,
                                           self._workers)

    # ------------------------------------------------------------------
    def _arena_for(self, rank: int) -> Optional[ResultArena]:
        """The rank's result arena, created on first use (and reused by
        a respawned replacement — its predecessor is dead, and the
        master consumed or abandoned any descriptor it had written)."""
        if self.result_arena_bytes <= 0:
            return None
        arena = self._arenas.get(rank)
        if arena is None:
            arena = ResultArena.create(self.result_arena_bytes,
                                       tag=str(rank),
                                       registry=self._registry)
            self._arenas[rank] = arena
        return arena

    def _spawn_worker(self, rank: int,
                      cfg: Optional[PoolConfig] = None) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe()
        arena = self._arena_for(rank)
        proc = self._ctx.Process(
            target=_worker_main, args=(rank, child_conn, cfg or self._cfg,
                                       arena.spec if arena else None),
            name=f"repro-exec-{rank}", daemon=True)
        try:
            proc.start()
        except BaseException:
            # A failed fork/spawn must not leak the pipe pair: nothing
            # downstream will ever see this transport, so close both
            # ends here and let close() sweep the registered strays of
            # any end a racing failure left half-open.
            for end in (parent_conn, child_conn):
                self._strays.append(end)
                try:
                    end.close()
                except OSError:  # pragma: no cover
                    pass
            raise
        child_conn.close()
        return _Worker(rank, proc, parent_conn)

    def _await_ready(self, w: _Worker) -> bool:
        try:
            if not w.conn.poll(_START_TIMEOUT):
                return False
            return w.conn.recv()[0] == "ready"
        except (EOFError, OSError):  # pragma: no cover - spawn crash
            return False

    def start(self) -> "ExecPool":
        if self._closed:
            raise PoolJobError("pool is closed")
        if self._started:
            # A restarted run begins at full strength: respawn any
            # capacity lost to deaths since the previous run.
            self._ensure_capacity()
            return self
        # Workers must inherit the parent's resource tracker (see
        # ensure_tracker) — start it before the first fork.
        ensure_tracker()
        for rank in range(self.jobs):
            self._workers.append(self._spawn_worker(rank))
        for w in self._workers:
            if not self._await_ready(w):
                raise PoolJobError(f"worker {w.rank} failed to start")
        # Remote workers: one slot per configured node, ranks above the
        # local ones.  An unreachable node starts as a dead slot — the
        # reconnect machinery keeps re-dialing it under backoff, and
        # the mirror placement covers its fragments meanwhile.
        for i, address in enumerate(self.node_addresses):
            rank = self.jobs + i
            client = NodeClient(
                address, rank,
                connect_attempts=self.node_connect_attempts)
            self._node_clients[rank] = client
            w = _Worker(rank, _NodeProcess(client), None, alive=False,
                        remote=client)
            try:
                client.connect()
            except NodeConnectError as exc:
                self.ledger.record("node_unreachable", rank=rank,
                                   detail=str(exc))
                warnings.warn(f"worker node {client.label} unreachable at "
                              f"start ({exc}); continuing without it",
                              RuntimeWarning, stacklevel=2)
            else:
                w.conn = client.conn
                w.alive = True
            self._workers.append(w)
        if not self._live():
            raise PoolJobError(
                f"no workers came up ({self.jobs} local, "
                f"{len(self.node_addresses)} nodes)")
        self._started = True
        return self

    def __enter__(self) -> "ExecPool":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    def _live(self) -> List[_Worker]:
        return [w for w in self._workers if w.alive]

    def worker_pids(self) -> Dict[int, int]:
        """rank -> pid of the live *local* workers (fault-injection
        hook); remote nodes are not ours to signal."""
        return {w.rank: w.process.pid for w in self._live()
                if w.remote is None}

    def node_ship_stats(self) -> List[dict]:
        """Per-node pack shipping counters (ship-once accounting)."""
        return [self._node_clients[r].ship_stats()
                for r in sorted(self._node_clients)]

    # ------------------------------------------------------------------
    def _respawn_slot(self, idx: int,
                      stats: Optional[PoolStats] = None) -> Optional[_Worker]:
        """Replace the dead worker in slot *idx* with a fresh process
        (same rank, new pipe) and re-attach every prepared pack.

        The replacement is a *healthy* machine: it carries no fault
        plan (otherwise a once-per-process fault re-arms on every
        respawn and a single injected kill poisons its task forever,
        which no real crash does — and seeded chaos plans would never
        converge)."""
        old = self._workers[idx]
        try:
            old.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        clean = (replace(self._cfg, fault_plan=None)
                 if self._cfg.fault_plan is not None else self._cfg)
        if stats is not None:
            stats.respawn_attempts += 1
        w = self._spawn_worker(old.rank, clean)
        if not self._await_ready(w):
            # The replacement never came up: reap it completely (kill
            # *and* join, it is in no worker list) and leave the dead
            # slot as-is — the attempt above still consumed budget, so
            # a permanently failing spawn cannot loop forever.
            self._reap_stillborn(w)
            self.ledger.record("respawn_failed", rank=old.rank)
            return None
        try:
            for prep in self._prepared.values():
                for spec in prep.specs:
                    w.conn.send(("attach", spec))
        except OSError:  # instant death during re-attach
            self._reap_stillborn(w)
            self.ledger.record("respawn_failed", rank=old.rank,
                               detail="died during pack re-attach")
            return None
        self._workers[idx] = w
        self.total_respawns += 1
        if stats is not None:
            stats.respawns += 1
        self.ledger.record("respawn", rank=w.rank)
        return w

    def _reap_stillborn(self, w: _Worker) -> None:
        """Kill and join a replacement that failed before it was ever
        placed in ``_workers`` — nothing else will, so skipping this
        leaks a live process."""
        w.alive = False
        try:
            w.process.kill()
            w.process.join(timeout=self.join_timeout)
        except Exception:  # pragma: no cover - teardown best effort
            pass
        try:
            w.conn.close()
        except OSError:  # pragma: no cover
            pass

    def _reconnect_slot(self, idx: int,
                        stats: Optional[PoolStats] = None,
                        force: bool = False) -> Optional[_Worker]:
        """Re-dial the dead remote worker in slot *idx* and re-ship (or
        re-adopt) every pack its mirror placement assigns it.

        Paced by per-client exponential backoff + jitter: a node that
        stays down costs one quick refused dial per backoff window, not
        per pump tick.  Each *actual* attempt consumes respawn budget,
        exactly like a local respawn.  A reconnected node that still
        holds its packs (network blip, agent survived) re-registers
        them by identity — the adopt path — so recovery ships ~0 bytes.
        """
        w = self._workers[idx]
        client = w.remote
        now = time.monotonic()
        if not force and now < client.retry_at:
            return None
        if stats is not None:
            stats.respawn_attempts += 1
        try:
            # The hello wait runs inside the single-threaded pump: a
            # port that accepts but never answers (agent dead, its
            # supervisor still holds the listening socket) must cost
            # one node-timeout, not the generous session-start default.
            client.connect(attempts=1, hello_timeout=self.node_timeout)
        except NodeConnectError as exc:
            client.retry_n += 1
            client.retry_at = now + backoff_delay(client.retry_n,
                                                  base=0.2, max_delay=5.0)
            self.ledger.record("reconnect_failed", rank=w.rank,
                               detail=str(exc))
            return None
        try:
            self._ship_packs_to(client)
        except (OSError, EOFError, FrameError) as exc:
            client.abort()
            client.retry_n += 1
            client.retry_at = now + backoff_delay(client.retry_n,
                                                  base=0.2, max_delay=5.0)
            self.ledger.record("reconnect_failed", rank=w.rank,
                               detail=f"died during pack re-ship: {exc}")
            return None
        w.conn = client.conn
        w.alive = True
        w.busy = None
        w.jobs_sent.clear()
        self.total_respawns += 1
        if stats is not None:
            stats.respawns += 1
            stats.reconnects += 1
        self.ledger.record("reconnect", rank=w.rank, detail=client.label)
        return w

    def _recover_slot(self, idx: int,
                      stats: Optional[PoolStats] = None) -> Optional[_Worker]:
        w = self._workers[idx]
        if w.remote is not None:
            return self._reconnect_slot(idx, stats)
        return self._respawn_slot(idx, stats)

    def _ensure_capacity(self) -> int:
        """Recover every dead slot (between-runs capacity recovery):
        local slots respawn, remote slots re-dial (ignoring backoff
        pacing — a new run is worth one fresh dial per node)."""
        if not self.respawn or self._closed:
            return 0
        restored = 0
        for idx, w in enumerate(self._workers):
            if w.alive:
                continue
            if w.remote is not None:
                restored += self._reconnect_slot(idx, force=True) is not None
            else:
                restored += self._respawn_slot(idx) is not None
        return restored

    def _maybe_respawn(self, stats: PoolStats) -> None:
        """Budgeted per-run capacity recovery.  The budget counts
        *attempts* (not successes): one worker death must consume at
        most one unit even when its send failure and the liveness
        sweep both observe it, and a slot whose replacements keep
        dying cannot burn the pump loop on endless spawns.  Remote
        slots additionally pace themselves with per-client backoff, so
        a hard-down node consumes budget slowly instead of instantly."""
        if not self.respawn:
            return
        for idx, w in enumerate(self._workers):
            if not w.alive and stats.respawn_attempts < self.max_respawns:
                self._recover_slot(idx, stats)

    # ------------------------------------------------------------------
    def _prepare(self, db, k: int, base: int,
                 n_fragments: Optional[int]) -> _PreparedDB:
        if getattr(db, "is_pack_store", False):
            return self._prepare_from_store(db, k, base)
        token = db_token(db)
        version = getattr(db, "_version", 0)
        n_slots = self.jobs + len(self.node_addresses)
        nf = n_fragments or max(1, min(len(db) or 1, 2 * n_slots))
        key = (token, version, k, base, nf)
        prep = self._prepared.get(key)
        if prep is not None:
            return prep
        self._drop_stale(token, version)
        specs: List[PackSpec] = []
        for frag_id, ids in enumerate(plan_fragments(db, nf)
                                      if len(db) else []):
            sub = db.subset(ids, name=f"{getattr(db, 'name', 'db')}"
                                      f".{frag_id:03d}",
                            fragment_id=frag_id)
            specs.append(pack_fragment(sub, k, base,
                                       cache_token=(token, version, frag_id),
                                       registry=self._registry))
        return self._install_prepared(key, specs)

    def _prepare_from_store(self, store, k: int, base: int) -> _PreparedDB:
        """Cold start from an on-disk pack store: mmap each committed
        pack, bulk-copy its data region into a fresh shm segment (one
        memcpy per fragment — no scan structures are rebuilt), verify
        CRCs from the segment, and drop the mappings immediately.  The
        packs keep their own ``(("rpk", store_id), version,
        fragment_id)`` ScanCache identities, so worker caches and
        stale-version invalidation behave exactly as for in-RAM
        databases."""
        from repro.exec.diskpack import DiskPack
        if k != store.k or base != store.base:
            raise ValueError(
                f"pack store {store.directory!r} was built with word size "
                f"{store.k} over base {store.base}; this search needs "
                f"({k}, {base}) — rebuild the store")
        token = db_token(store)
        version = store._version
        key = (token, version, k, base, len(store.packs))
        prep = self._prepared.get(key)
        if prep is not None:
            return prep
        self._drop_stale(token, version)
        specs: List[PackSpec] = []
        packs: List[DiskPack] = []
        try:
            packs = store.open_packs(verify=True)
            for pack in packs:
                specs.append(publish_pack_bytes(
                    pack.data, pack.layout, pack.checksums,
                    seqtype=pack.spec.seqtype,
                    cache_token=pack.spec.cache_token,
                    fragment_id=pack.spec.fragment_id,
                    k=pack.spec.k, base=pack.spec.base,
                    n_sequences=pack.spec.n_sequences,
                    total_residues=pack.spec.total_residues,
                    source_ids=pack.spec.source_ids,
                    size=pack.spec.size, registry=self._registry))
        except BaseException:
            for spec in specs:
                self._registry.release(spec.name)
            raise
        finally:
            # Publish-and-close: after this point the pool serves from
            # shm only; no mmap or store fd survives (ExecPool.close()
            # therefore has nothing disk-side to leak).
            for pack in packs:
                pack.close()
        return self._install_prepared(key, specs)

    def _drop_stale(self, token, version) -> None:
        """The registry is keyed by token+version: a mutated database
        invalidates every pack built from its previous version."""
        stale = [kk for kk in self._prepared
                 if kk[0] == token and kk[1] != version]
        for kk in stale:
            self._release_prepared(self._prepared.pop(kk))

    def _node_ranks(self) -> List[int]:
        return sorted(self._node_clients)

    def _install_prepared(self, key: tuple,
                          specs: List[PackSpec]) -> _PreparedDB:
        prep = _PreparedDB(key=key, specs=specs,
                           ids_by_name={s.name: list(s.source_ids)
                                        for s in specs})
        if specs and self._node_clients:
            # CEFT-style mirror placement over the configured node
            # ranks (dead ones included: they may reconnect, and their
            # groups' other mirrors cover them meanwhile).
            groups, group_nodes = plan_mirror_groups(
                [s.total_residues for s in specs],
                self._node_ranks(), self.replication)
            prep.groups = groups
            prep.group_nodes = group_nodes
            prep.placement = {specs[i].name: group_nodes[g]
                              for g, idx in enumerate(groups)
                              for i in idx}
        for s in specs:
            self._pack_residues[s.name] = s.total_residues
        for w in self._live():
            if w.remote is not None:
                continue            # nodes get pack bytes, not shm names
            try:
                for spec in specs:
                    w.conn.send(("attach", spec))
            except OSError:
                w.alive = False
        self._prepared[key] = prep
        for w in self._live():
            if w.remote is None:
                continue
            try:
                self._ship_packs_to(w.remote)
            except (OSError, EOFError, FrameError) as exc:
                w.remote.abort()
                w.alive = False
                self.ledger.record("node_ship_failed", rank=w.rank,
                                   detail=str(exc))
        return prep

    def _ship_packs_to(self, client: NodeClient) -> int:
        """Ship (or adopt) every pack *client*'s placement assigns it,
        across all prepared fragment sets; returns bytes sent."""
        sent = 0
        for prep in self._prepared.values():
            for spec in prep.specs:
                holders = prep.placement.get(spec.name, ())
                if client.rank in holders:
                    sent += client.ship(spec)
        return sent

    def _release_prepared(self, prep: _PreparedDB,
                          notify: bool = True) -> None:
        for spec in prep.specs:
            if notify:
                for w in self._live():
                    try:
                        w.conn.send(("detach", spec.name))
                    except OSError:
                        w.alive = False
            self._registry.release(spec.name)
            self._pack_residues.pop(spec.name, None)

    def release_db(self, db) -> int:
        """Drop every pack prepared from *db* (any version); returns
        how many fragment sets were released."""
        token = getattr(db, "_scan_token", None)
        keys = [kk for kk in self._prepared if kk[0] == token]
        for kk in keys:
            self._release_prepared(self._prepared.pop(kk))
        return len(keys)

    # ------------------------------------------------------------------
    def _soft_deadline(self) -> float:
        """Seconds before an outstanding task becomes hedge-eligible."""
        if self.hedge_after is not None:
            return self.hedge_after
        ema = self._task_ema
        return max(_HEDGE_FLOOR, _HEDGE_MULT * ema if ema else 0.0)

    def _hard_deadline(self) -> float:
        """Seconds before a busy worker is presumed hung and killed."""
        if self.task_timeout is not None:
            return self.task_timeout
        return max(4 * self._soft_deadline(), 2.0)

    def _fail_current(self, w: _Worker, sched: GreedyScheduler,
                      stats: PoolStats,
                      epoch: int) -> Optional[PoolJobError]:
        """Resolve the task a lost worker was holding: requeue it (or
        fail the job) when it belongs to the current run, ignore it
        when it is a cross-run straggler or already hedge-completed."""
        task = w.busy
        w.busy = None
        if task is None or task[0] != epoch:
            return None
        try:
            key = sched.fail(w.rank)
        except RetriesExceeded as exc:
            sched.drop_pending()
            self.ledger.record("retries_exceeded", rank=w.rank,
                               task=task[1:], detail=str(exc))
            return PoolJobError(
                f"fragment task {exc.key!r} failed {exc.attempts} times "
                f"(worker deaths: {stats.worker_deaths})")
        if key is not None:
            self.ledger.record("requeue", rank=w.rank, task=key)
        return None

    def _handle_death(self, w: _Worker, sched: GreedyScheduler,
                      stats: PoolStats,
                      epoch: int) -> Optional[PoolJobError]:
        if not w.alive:
            return None
        w.alive = False
        stats.worker_deaths.append(w.rank)
        self.ledger.record("worker_death", rank=w.rank,
                           task=w.busy[1:] if w.busy else None)
        if w.remote is not None:
            # Drop the socket now: a half-dead connection must not
            # keep waking the pump, and the reconnect path dials fresh.
            w.remote.abort()
        try:
            w.process.join(timeout=min(0.5, self.join_timeout))
        except Exception:  # pragma: no cover
            pass
        return self._fail_current(w, sched, stats, epoch)

    def _send_task(self, w: _Worker, jobs: Dict[int, JobSpec],
                   qis: Tuple[int, ...], names: Tuple[str, ...], epoch: int,
                   sched: GreedyScheduler,
                   stats: PoolStats) -> Optional[PoolJobError]:
        """Ship (any new jobs, then task) to *w*; busy bookkeeping is
        set first so a send failure resolves the assignment as a death.
        ``jobs_sent`` is only updated after every send succeeded — a
        half-delivered dispatch must not leave the record claiming the
        worker holds a job spec it never received."""
        w.busy = (epoch, qis, names)
        w.busy_since = time.monotonic()
        try:
            for qi in qis:
                if qi not in w.jobs_sent:
                    w.conn.send(("job", qi, jobs[qi]))
            w.conn.send(("task", qis, names, epoch))
        except OSError:
            return self._handle_death(w, sched, stats, epoch)
        w.jobs_sent.update(qis)
        return None

    def _payload_pairs(self, w: "_Worker", payload: tuple,
                       stats: PoolStats
                       ) -> List[Tuple[str, int, SearchResults]]:
        """Materialize a result payload: inline pickled triples, or a
        CRC-checked read from the worker's shared result arena.

        The single-slot arena is safe because this read happens inside
        the result-message handler — before the dispatch phase can hand
        the same worker another task that would overwrite the slot.
        Hedge copies run on *other* workers, which own their own arenas.
        """
        mode = payload[0]
        if mode == "inline":
            stats.inline_results += 1
            return payload[1]
        if mode == "blob":
            # Socket-node result: the RRES blob travelled inside a
            # CRC-checked frame, so the codec's own truncation guards
            # are the only verification left to do here.
            stats.remote_results += 1
            return decode_result_pairs(payload[1])
        _, offset, nbytes, crc = payload
        arena = self._arenas.get(w.rank)
        if arena is None:
            raise PackIntegrityError(
                f"worker {w.rank} shipped an arena result but the master "
                f"holds no arena for that rank")
        stats.arena_results += 1
        return decode_result_pairs(arena.read(offset, nbytes, crc))

    def _hedge_candidate(self, sched: GreedyScheduler, epoch: int,
                         now: float, soft: float,
                         rank: Optional[int] = None) -> Optional[tuple]:
        """The most-overdue unhedged current-run task — restricted,
        when *rank* is given, to tasks that worker is eligible for
        (a node cannot hedge a fragment range it does not hold)."""
        best, best_age = None, soft
        for w in self._live():
            if w.busy is None or w.busy[0] != epoch:
                continue
            key = (w.busy[1], w.busy[2])
            if sched.is_completed(key) or sched.holder_count(key) != 1:
                continue
            if rank is not None and not sched.eligible(rank, key):
                continue
            age = now - w.busy_since
            if age > best_age:
                best, best_age = key, age
        return best

    def _run_tasks(self, jobs: Dict[int, JobSpec],
                   tasks: Sequence[Tuple[tuple, float]],
                   affinity: Optional[Dict[tuple, Tuple[int, ...]]] = None
                   ) -> Tuple[Dict[int, Dict[str, SearchResults]], PoolStats]:
        self._epoch += 1
        epoch = self._epoch
        sched = GreedyScheduler(tasks, max_retries=self.max_retries,
                                affinity=affinity)
        stats = PoolStats()
        results: Dict[int, Dict[str, SearchResults]] = {qi: {} for qi in jobs}

        try:
            self._pump(jobs, sched, stats, results, epoch)
        finally:
            # Drop the job tables win or lose: a failed run must not
            # leave workers holding stale specs for reused query ids.
            for w in self._live():
                try:
                    for qi in w.jobs_sent:
                        w.conn.send(("forget_job", qi))
                    w.jobs_sent.clear()
                except OSError:
                    w.alive = False
            stats.requeues = sched.requeues
            self.last_stats = stats
        return results, stats

    def _pump(self, jobs: Dict[int, JobSpec], sched: GreedyScheduler,
              stats: PoolStats,
              results: Dict[int, Dict[str, SearchResults]],
              epoch: int) -> None:
        from multiprocessing.connection import wait

        failure: Optional[Exception] = None
        while not sched.done:
            now = time.monotonic()
            # Belt and braces: a worker can die without its pipe waking
            # wait() promptly; sweep liveness every tick.
            for w in self._live():
                if not w.process.is_alive():
                    # NB: the recovery call must run even with a failure
                    # already latched (`failure or f()` would skip it and
                    # leave a dead worker marked alive forever).
                    err = self._handle_death(w, sched, stats, epoch)
                    failure = failure or err
            # Hard deadline: a worker stuck this long is hung (or its
            # reply was lost) — kill it and recover the capacity.  The
            # CEFT analog: stop waiting on a dead server, period.
            hard = self._hard_deadline()
            for w in self._live():
                if w.busy is not None and now - w.busy_since > hard:
                    stats.hang_kills += 1
                    self.ledger.record("hang_kill", rank=w.rank,
                                       task=w.busy[1:],
                                       detail=f"busy {now - w.busy_since:.2f}s"
                                              f" > {hard:.2f}s")
                    try:
                        w.process.kill()
                    except Exception:  # pragma: no cover
                        pass
                    err = self._handle_death(w, sched, stats, epoch)
                    failure = failure or err
            # Missed-heartbeat detection for *idle* remote workers: a
            # busy one is covered by the hard deadline above, but an
            # idle node that stops answering PINGs would otherwise
            # look healthy forever.  PINGs are rate-limited to the
            # heartbeat interval; PONGs refresh last_heard inside the
            # connection's poll/recv.
            for w in self._live():
                if w.remote is None or w.busy is not None:
                    continue
                conn = w.conn
                if now - conn.last_ping >= self._heartbeat:
                    try:
                        conn.ping()
                    except OSError:
                        err = self._handle_death(w, sched, stats, epoch)
                        failure = failure or err
                        continue
                if now - conn.last_heard > self.node_timeout:
                    stats.heartbeat_losses += 1
                    self.ledger.record(
                        "heartbeat_lost", rank=w.rank,
                        detail=f"silent {now - conn.last_heard:.2f}s "
                               f"> {self.node_timeout:.2f}s")
                    err = self._handle_death(w, sched, stats, epoch)
                    failure = failure or err
            if failure is None:
                self._maybe_respawn(stats)
            else:
                # A failed run stops dispatching, so anything requeued
                # after the failure could never drain — drop it.
                sched.drop_pending()
            live = self._live()
            if not live:
                failure = failure or PoolJobError(
                    f"pool collapsed to 0/{len(self._workers)} workers "
                    f"(deaths: {stats.worker_deaths})")
                break
            # Last-mirror loss: pending work whose every eligible
            # holder is dead can never drain.  Fail the job now — the
            # serial fallback serves it whole — instead of waiting on
            # a reconnect that may never come.
            if failure is None:
                stranded = sched.unplaceable([w.rank for w in live])
                if stranded:
                    self.ledger.record(
                        "mirror_lost", task=stranded[0],
                        detail=f"{len(stranded)} task(s) lost their last "
                               f"holder (deaths: {stats.worker_deaths})")
                    failure = PoolJobError(
                        f"{len(stranded)} pending task(s) lost the last "
                        f"node holding their fragments "
                        f"(deaths: {stats.worker_deaths})")
                    sched.drop_pending()
            # Greedy dispatch: every idle worker gets the next task it
            # is eligible for (locality: its own fragments first).
            for w in live:
                if failure is not None or not sched.has_pending:
                    break
                if not w.alive or w.busy is not None:
                    continue
                task = sched.assign(w.rank)
                if task is None:
                    continue        # nothing this worker can serve
                qis, names = task
                err = self._send_task(w, jobs, qis, names,
                                      epoch, sched, stats)
                failure = failure or err
            # Hedged re-issue: idle workers with nothing pending take a
            # speculative copy of the most-overdue task (the mirror-
            # group read around a hot primary).  First result wins.
            if failure is None and not sched.has_pending:
                soft = self._soft_deadline()
                now = time.monotonic()
                for w in live:
                    if not w.alive or w.busy is not None:
                        continue
                    cand = self._hedge_candidate(sched, epoch, now, soft,
                                                 rank=w.rank)
                    if cand is None:
                        continue
                    sched.hedge(w.rank, cand)
                    stats.hedges += 1
                    self.ledger.record("hedge", rank=w.rank, task=cand)
                    err = self._send_task(w, jobs, cand[0], cand[1],
                                          epoch, sched, stats)
                    failure = failure or err
            if sched.done:
                break
            conns = {w.conn: w for w in self._live()}
            if not conns:
                continue
            # Buffered socket messages first: wait() watches fds, but
            # one socket read can decode several frames — a message
            # already queued inside a FrameConnection generates no fd
            # activity and would otherwise wait for the peer's next
            # send (or the hard deadline) to be noticed.
            ready = [c for c in conns if getattr(c, "queued", 0)]
            if not ready:
                ready = wait(list(conns), timeout=self._heartbeat)
            for conn in ready:
                w = conns[conn]
                try:
                    # A socket wakeup may carry only a control frame
                    # (PONG); poll(0) absorbs those and answers whether
                    # a data message is actually queued.  A framing
                    # violation (bad CRC, bad magic, sequence gap) is a
                    # typed transport error, handled as a node death —
                    # never a hang, never a silently-accepted payload.
                    if not conn.poll(0):
                        continue
                    msg = conn.recv()
                except FrameError as exc:
                    self.ledger.record("transport_error", rank=w.rank,
                                       detail=str(exc))
                    err = self._handle_death(w, sched, stats, epoch)
                    failure = failure or err
                    continue
                except (EOFError, OSError):
                    err = self._handle_death(w, sched, stats, epoch)
                    failure = failure or err
                    continue
                kind = msg[0]
                if kind == "result":
                    _, rank, qis, names, payload, elapsed, m_epoch = msg
                    w.busy = None
                    if m_epoch != epoch:
                        stats.stale_results += 1
                        self.ledger.record("stale_result", rank=w.rank,
                                           task=(qis, names),
                                           detail="cross-run straggler")
                        continue
                    key = (qis, names)
                    was_done = sched.is_completed(key)
                    hedged = sched.holder_count(key) > 1
                    if w.rank in sched.outstanding:
                        sched.complete(w.rank)
                    if was_done:
                        stats.stale_results += 1
                        self.ledger.record("stale_result", rank=w.rank,
                                           task=key, detail="hedge loser")
                        continue
                    stats.tasks_done += 1
                    stats.fragments_done += len(names)
                    if not hedged:
                        # Only clean, sole-holder completions feed the
                        # adaptive deadlines: a hedged task's elapsed
                        # time is either the straggler's stall or a
                        # duplicate — letting one straggler inflate the
                        # soft deadline would disable hedging for the
                        # rest of the run.
                        self._task_ema = (elapsed if self._task_ema is None
                                          else 0.5 * self._task_ema
                                          + 0.5 * elapsed)
                        if elapsed > 0:
                            # A batched task scans the range once per
                            # query in the batch, so its effective scan
                            # throughput is residues x batch size.
                            rate = (len(qis)
                                    * sum(self._pack_residues.get(n, 0)
                                          for n in names)) / elapsed
                            if rate > 0:
                                self._rate_ema = (
                                    rate if self._rate_ema is None
                                    else 0.5 * self._rate_ema + 0.5 * rate)
                    if hedged:
                        stats.hedge_wins += 1
                        self.ledger.record("hedge_win", rank=w.rank, task=key)
                    if failure is None:
                        try:
                            pairs = self._payload_pairs(w, payload, stats)
                        except PackIntegrityError as exc:
                            stats.integrity_failures += 1
                            self.ledger.record(
                                "integrity", rank=w.rank,
                                detail=f"result arena: {exc}")
                            failure = exc
                            sched.drop_pending()
                            continue
                        for pack_name, tqi, res in pairs:
                            results[tqi][pack_name] = res
                elif kind == "error":
                    _, rank, qis, names, tb, m_epoch = msg
                    stats.worker_errors += 1
                    self.ledger.record("worker_error", rank=w.rank,
                                       task=(qis, names),
                                       detail=tb.strip().splitlines()[-1]
                                       if tb else "")
                    if qis is None:
                        continue            # attach-time failure
                    w.busy = None
                    if m_epoch != epoch:
                        continue            # cross-run straggler error
                    try:
                        key = sched.fail(w.rank)
                    except RetriesExceeded as exc:
                        sched.drop_pending()
                        self.ledger.record("retries_exceeded", rank=w.rank,
                                           task=(qis, names),
                                           detail=str(exc))
                        failure = failure or PoolJobError(
                            f"fragment task {exc.key!r} failed "
                            f"{exc.attempts} times; last worker error:\n"
                            f"{tb}")
                        continue
                    if key is not None:
                        self.ledger.record("requeue", rank=w.rank, task=key)
                elif kind == "integrity":
                    _, rank, pack_name, detail = msg
                    stats.integrity_failures += 1
                    self.ledger.record("integrity", rank=w.rank,
                                       detail=f"{pack_name}: {detail}")
                    failure = failure or PackIntegrityError(detail)
                    sched.drop_pending()
                elif kind == "stopped":  # pragma: no cover - close path
                    w.alive = False

        if failure is not None:
            raise failure

    # ------------------------------------------------------------------
    def _serial_rescue(self, queries: Sequence[np.ndarray],
                       query_ids: Sequence[str], db, scheme,
                       params: SearchParams, both_strands: bool,
                       exc: PoolJobError) -> List[SearchResults]:
        """Graceful degradation: the pool could not finish the job, so
        serve it with the serial scan engine (byte-identical by
        construction) instead of failing the caller."""
        self.ledger.record("fallback", detail=str(exc))
        stats = self.last_stats or PoolStats()
        stats.fallback = True
        self.last_stats = stats
        warnings.warn(
            f"exec pool degraded ({exc}); serving this batch with the "
            f"serial scan engine", RuntimeWarning, stacklevel=3)
        if getattr(db, "is_pack_store", False):
            from repro.exec.diskpack import search_store
            return [search_store(q, db, scheme, params,
                                 query_id=query_ids[qi],
                                 both_strands=both_strands)
                    for qi, q in enumerate(queries)]
        return search_batch(queries, db, scheme, params,
                            query_ids=query_ids, both_strands=both_strands)

    def search_many(self, queries: Sequence[np.ndarray], db, scheme,
                    params: Optional[SearchParams] = None, *,
                    query_ids: Optional[Sequence[str]] = None,
                    both_strands: bool = True,
                    n_fragments: Optional[int] = None,
                    keep_fragment_ids: bool = False,
                    query_batch: Optional[int] = None
                    ) -> List[SearchResults]:
        """Search a batch of encoded queries through one scheduler pass.

        Returns one :class:`SearchResults` per query, in input order,
        each byte-identical to ``search(query, db, ...)`` run serially.
        Queries are grouped into batches of at most *query_batch*
        (default: the pool's ``query_batch`` knob) and each task scans
        its fragment range once for a whole batch, so a multi-query
        workload amortizes the database pass itself.  If the pool
        cannot finish the batch (capacity collapse, retry exhaustion)
        and ``serial_fallback`` is on, the batch is served by the
        serial engine instead — same bytes, plus a ``RuntimeWarning``
        and a ledger ``fallback`` entry.  A pack failing CRC
        verification always raises
        :class:`~repro.exec.shm.PackIntegrityError`.
        """
        params = params or SearchParams()
        is_protein = db.seqtype == AA
        base = len(PROTEIN) if is_protein else len(DNA)
        queries = [np.asarray(q, dtype=np.uint8) for q in queries]
        if query_ids is None:
            query_ids = ["query"] * len(queries)
        if len(query_ids) != len(queries):
            raise ValueError("query_ids must match queries")
        if not queries:
            return []
        try:
            self.start()
        except PoolJobError as exc:
            # Startup collapse (every node unreachable, every local
            # spawn failed) degrades exactly like a mid-run collapse.
            if not self.serial_fallback or self._closed:
                raise
            return self._serial_rescue(queries, query_ids, db, scheme,
                                       params, both_strands, exc)

        ka = resolve_ka(scheme, params, is_protein)
        prep = self._prepare(db, params.word_size, base,
                             n_fragments or self.default_fragments)
        jobs = {
            qi: JobSpec(query=q, query_id=query_ids[qi], scheme=scheme,
                        params=params, both_strands=both_strands, ka=ka,
                        effective_space=_effective_space(ka, params,
                                                         len(q), db))
            for qi, q in enumerate(queries)
        }
        # Query-batch x fragment-range tasks: queries are grouped into
        # contiguous batches (one shared database pass per batch) and
        # contiguous fragments grouped per task so the master's
        # dispatch/merge overhead is amortized (the 0.83x fix), sized
        # by the observed scan rate once the pool has one.
        qgroups = plan_query_batches(
            len(jobs), self.jobs,
            self.query_batch if query_batch is None else int(query_batch))
        weights = [float(spec.total_residues) for spec in prep.specs]
        local_ranks = tuple(range(self.jobs))
        range_affinity: List[Optional[Tuple[int, ...]]] = []
        if prep.groups and any(prep.group_nodes):
            # Mirror-aware planning: ranges are cut *inside* each
            # placement group so no task ever spans fragments held by
            # different node sets.  Each range's affinity lists the
            # group's holders (primary rotated across the mirrors for
            # balance) plus every local rank — local workers attach all
            # packs and stay eligible for everything.
            n_slots = max(1, self.jobs + len(self.node_addresses))
            ranges = []
            for g, idx in enumerate(prep.groups):
                gjobs = max(1, round(n_slots * len(idx)
                                     / max(1, len(prep.specs))))
                for j, rng in enumerate(plan_task_ranges(
                        [weights[i] for i in idx],
                        n_queries=len(qgroups), jobs=gjobs,
                        granularity=self.task_granularity,
                        scan_rate=self._rate_ema or DEFAULT_SCAN_RATE,
                        queries_per_task=max((len(g) for g in qgroups),
                                             default=1))):
                    ranges.append(tuple(idx[i] for i in rng))
                    gn = prep.group_nodes[g]
                    rot = gn[j % len(gn):] + gn[:j % len(gn)] if gn else ()
                    range_affinity.append(rot + local_ranks)
        else:
            ranges = plan_task_ranges(
                weights, n_queries=len(qgroups), jobs=self.jobs,
                granularity=self.task_granularity,
                scan_rate=self._rate_ema or DEFAULT_SCAN_RATE,
                queries_per_task=max((len(g) for g in qgroups), default=1))
            range_affinity = [None] * len(ranges)
        tasks = []
        affinity: Dict[tuple, Tuple[int, ...]] = {}
        for qg in qgroups:
            for rng, aff in zip(ranges, range_affinity):
                key = (qg, tuple(prep.specs[i].name for i in rng))
                tasks.append((key, len(qg) * sum(weights[i] for i in rng)))
                if aff is not None:
                    affinity[key] = aff
        if tasks:
            try:
                results, _stats = self._run_tasks(jobs, tasks,
                                                  affinity or None)
            except PackIntegrityError:
                raise               # never served silently — see shm.py
            except PoolJobError as exc:
                if not self.serial_fallback:
                    raise
                return self._serial_rescue(queries, query_ids, db, scheme,
                                           params, both_strands, exc)
        else:
            results = {qi: {} for qi in jobs}
            self.last_stats = PoolStats()

        return [
            merge_fragment_results(
                results[qi], prep.ids_by_name,
                query_id=query_ids[qi], query_len=len(q),
                db_residues=db.total_residues, db_sequences=len(db),
                fragment_id=None if keep_fragment_ids else db.fragment_id,
                keep_fragment_ids=keep_fragment_ids)
            for qi, q in enumerate(queries)
        ]

    def search(self, query: np.ndarray, db, scheme,
               params: Optional[SearchParams] = None, *,
               query_id: str = "query", both_strands: bool = True,
               n_fragments: Optional[int] = None,
               keep_fragment_ids: bool = False) -> SearchResults:
        """One query through the pool; byte-identical to serial
        :func:`repro.blast.search.search`."""
        return self.search_many(
            [query], db, scheme, params, query_ids=[query_id],
            both_strands=both_strands, n_fragments=n_fragments,
            keep_fragment_ids=keep_fragment_ids)[0]

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop every worker and release all shared-memory segments.

        Bounded: draining and joining share one ``join_timeout``
        budget per worker, after which the worker is escalated
        ``terminate()`` → ``kill()`` — a hung or fault-injected worker
        can therefore never hang teardown (or CI).
        """
        if self._closed:
            return
        self._closed = True
        for w in self._live():
            try:
                w.conn.send(("stop",))
            except (OSError, FrameError):
                w.alive = False
        for w in self._workers:
            deadline = time.monotonic() + self.join_timeout
            if w.alive and w.conn is not None:
                try:
                    while True:
                        left = deadline - time.monotonic()
                        if left <= 0 or not w.conn.poll(left):
                            break
                        if w.conn.recv()[0] == "stopped":
                            break
                except (EOFError, OSError, FrameError):
                    pass
            w.process.join(timeout=max(0.0, deadline - time.monotonic()))
            if w.process.is_alive():
                w.process.terminate()
                w.process.join(timeout=max(0.5, self.join_timeout / 2))
            if w.process.is_alive():  # pragma: no cover - SIGTERM immune
                w.process.kill()
                w.process.join()
            if w.conn is not None:
                try:
                    w.conn.close()
                except OSError:  # pragma: no cover
                    pass
            w.alive = False
        # Node clients are aborted regardless of worker-slot state:
        # a connection opened during a failed _ensure_capacity (or a
        # reconnect that never made it back into a slot) must not
        # survive close() as a half-open socket.
        for client in self._node_clients.values():
            client.abort()
        for end in self._strays:
            try:
                end.close()
            except Exception:  # pragma: no cover - best effort
                pass
        self._strays.clear()
        for key in list(self._prepared):
            self._release_prepared(self._prepared.pop(key), notify=False)
        for arena in self._arenas.values():
            arena.close()
            self._registry.release(arena.spec.name)
        self._arenas.clear()
        self._workers.clear()
