"""The multi-core execution runtime: persistent workers, greedy
dynamic scheduling, byte-identical cross-fragment merging.

This is the real-execution twin of the simulated master/worker in
:mod:`repro.parallel`: the paper's database-segmented BLAST, run on
actual cores instead of simulated nodes.  A persistent
:class:`ExecPool` of worker *processes* (not threads — the scan kernel
is numpy-heavy but the seeding/extension half is pure Python and GIL-
bound) attaches each fragment's shared-memory pack once, then serves
``(query, fragment)`` tasks handed out greedily by the master-side
:class:`~repro.exec.schedule.GreedyScheduler`.  A local worker is a
:class:`~repro.exec.nodes.NodeAgent` forked onto one end of a
``socketpair``: the same agent, loop and framed connection as a remote
node, its packs attached by shm name instead of shipped.  Queries
stream through the same work queue, so a multi-query workload keeps
every core busy across query boundaries.

Fault handling upgrades PR 1's "fail cleanly" into CEFT-style "keep
serving" (the paper's dead-server and hot-spot experiments, Figs 7–9):

* a worker dying mid-task is detected by EOF on its socket (plus a
  liveness sweep; an idle worker that stops answering misses its
  heartbeats), the task is requeued at the front, and the pool
  **respawns** the lost worker so capacity recovers instead of
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
import socket
import time
import warnings
import weakref
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.blast.alphabet import DNA, PROTEIN
from repro.blast.scankernel import db_token
from repro.blast.search import (SearchParams, SearchResults,
                                merge_fragment_results, resolve_ka,
                                search_batch)
from repro.blast.seqdb import AA, segment_db
from repro.blast.stats import KarlinAltschul, effective_search_space
from repro.exec.faults import FailureLedger, FaultPlan
from repro.exec.net import NodeConnectError, parse_address
from repro.exec.nodes import (NodeClient, SlotLost, WorkerSlot, _agent_main,
                              _end_process)
from repro.exec.schedule import (GreedyScheduler, RetriesExceeded,
                                 plan_mirror_groups, plan_query_batches)
from repro.exec.shm import (PackIntegrityError, PackSpec, ShmRegistry,
                            default_registry, ensure_tracker, pack_fragment,
                            publish_pack_bytes)

#: Adaptive soft-deadline floor and multiplier: with no observed task
#: times yet a task is hedge-eligible after this many seconds; once an
#: EMA exists the deadline is ``max(floor, mult * ema)``.
_HEDGE_FLOOR = 0.5
_HEDGE_MULT = 4.0

#: Seconds a freshly spawned worker gets to report ``ready``.
_START_TIMEOUT = 30.0

#: Failed attempts a task may burn before its job fails.
_MAX_RETRIES = 2

#: Respawn budget of one run: this many per worker slot, plus two.
_RESPAWNS_PER_SLOT = 2

#: Dial attempts per node at start.
_NODE_CONNECT_ATTEMPTS = 3

#: Seconds ``close()`` gives each worker to drain and join before it is
#: escalated ``terminate()`` → ``kill()``.
_JOIN_TIMEOUT = 2.0


class PoolJobError(RuntimeError):
    """A parallel job could not be completed (workers exhausted or a
    task burned through its retry budget)."""


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
    #: Results received from local workers and from remote nodes; the
    #: third is always 0 and stays because perf/ reads all three names.
    inline_results: int = 0
    remote_results: int = 0
    arena_results: int = 0
    #: Remote nodes re-dialed (successfully) during this run; these
    #: also count into ``respawns`` — a reconnect *is* a remote node's
    #: respawn.
    reconnects: int = 0
    #: Idle workers declared dead for missing heartbeats.
    heartbeat_losses: int = 0
    fallback: bool = False


#: The ``PoolStats`` counters each ledger kind bumps (``worker_death``
#: appends its rank to ``worker_deaths`` instead).
_COUNTERS = {
    "hang_kill": ("hang_kills",),
    "heartbeat_lost": ("heartbeat_losses",),
    "hedge": ("hedges",),
    "hedge_win": ("hedge_wins",),
    "stale_result": ("stale_results",),
    "integrity": ("integrity_failures",),
    "worker_error": ("worker_errors",),
    "respawn": ("respawn_attempts", "respawns"),
    "respawn_failed": ("respawn_attempts",),
    "reconnect": ("respawn_attempts", "respawns", "reconnects"),
    "reconnect_failed": ("respawn_attempts",),
}


@dataclass
class _Run:
    """One scheduler pass: everything the pump's phases share."""

    ledger: FailureLedger
    jobs: Dict[int, JobSpec]
    sched: GreedyScheduler
    epoch: int
    results: Dict[int, Dict[str, SearchResults]]
    stats: PoolStats = field(default_factory=PoolStats)
    failure: Optional[Exception] = None

    def fail(self, err: Exception) -> None:
        """The first failure wins.  A failed run stops dispatching, so
        queued work could never drain — drop it."""
        if self.failure is None:
            self.failure = err
        self.sched.drop_pending()

    def note(self, kind: str, rank: Optional[int] = None,
             task: Optional[tuple] = None, detail: str = "") -> None:
        """Record one recovery event: the ledger entry and the
        ``PoolStats`` counters that mirror it."""
        self.ledger.record(kind, rank=rank, task=task, detail=detail)
        if kind == "worker_death":
            self.stats.worker_deaths.append(rank)
        for name in _COUNTERS.get(kind, ()):
            setattr(self.stats, name, getattr(self.stats, name) + 1)


@dataclass
class _PreparedDB:
    """Parent-side record of one published fragment set."""

    key: tuple                       # (token, version, k, base, n_fragments)
    specs: List[PackSpec]
    ids_by_name: Dict[str, List[int]]
    #: CEFT-style mirror placement (empty without nodes): pack name →
    #: the node ranks holding it, primary first.
    placement: Dict[str, Tuple[int, ...]] = field(default_factory=dict)


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


def _check_positive(**values) -> None:
    """``ValueError`` for a count or duration given as zero or less."""
    for name, value in values.items():
        if value is not None and not value > 0:
            raise ValueError(f"{name} must be positive, got {value!r}")


def _terminate_workers(workers: List[WorkerSlot]) -> None:  # pragma: no cover
    """GC/exit safety net (module-level so weakref.finalize can hold it
    without keeping the pool alive); ``close()`` is the normal path."""
    for w in workers:
        w.kill()


class _LocalSlot(NodeClient):
    """A local worker: a node agent forked onto one end of a
    ``socketpair``.  Hello, heartbeat, receive and goodbye are
    :class:`~repro.exec.nodes.NodeClient`'s; what differs is where the
    socket comes from (a fork, not a dial), that the agent attaches
    every prepared pack by shm name (no bytes cross the socket), and
    that the process is the pool's to signal, join and replace."""

    def __init__(self, pool: "ExecPool", rank: int):
        super().__init__(("local", rank), rank, heartbeat=pool._heartbeat,
                         node_timeout=pool.node_timeout)
        self.pool = pool
        self.process = None
        self.fault_plan = pool.fault_plan

    @property
    def pid(self) -> int:
        return self.process.pid

    def _open(self, attempts: Optional[int]) -> socket.socket:
        """Fork the agent onto a fresh ``socketpair``; a refused fork
        leaks neither end."""
        ours, theirs = socket.socketpair()
        proc = self.pool._ctx.Process(
            target=_agent_main,
            args=(theirs, self.fault_plan, self.pool.task_sleep,
                  f"local-{self.rank}", True),
            name=f"repro-exec-{self.rank}", daemon=True)
        try:
            proc.start()
        except BaseException:
            ours.close()
            raise
        finally:
            theirs.close()
        self.process = proc
        return ours

    ship_stats = WorkerSlot.ship_stats      # attached, never shipped

    def is_alive(self) -> bool:
        return super().is_alive() and self.process.is_alive()

    def kill(self) -> None:
        if self.process is not None:
            self.process.kill()

    def lost(self) -> None:
        self.abort()
        self._reap(min(0.5, _JOIN_TIMEOUT))

    def install(self, prepared) -> None:
        try:
            for prep in prepared:
                for spec in prep.specs:
                    self.conn.send(("attach", spec))
        except OSError as exc:
            raise SlotLost() from exc

    def revive(self, now: float, prepared,
               force: bool = False) -> Tuple[str, str]:
        """A fresh agent (same rank, new socketpair) with every prepared
        pack re-attached, at once: a fork is not paced like a re-dial.

        The replacement is a *healthy* machine: it carries no fault
        plan (otherwise a once-per-process fault re-arms on every
        respawn and a single injected kill poisons its task forever,
        which no real crash does — and seeded chaos plans would never
        converge)."""
        self.fault_plan = None
        try:
            self.connect(hello_timeout=_START_TIMEOUT)
            self.install(prepared)
        except NodeConnectError as exc:
            detail = str(exc)
        except SlotLost:
            detail = "died during pack re-attach"
        else:
            self.alive = True
            return "respawn", ""
        # The replacement never came up: kill *and* join it — nothing
        # else will, and skipping this leaks a live process.
        self.kill()
        self.lost()
        return "respawn_failed", detail

    def stop(self, deadline: float) -> None:
        """The goodbye and the join share *deadline*."""
        super().stop(deadline)
        self._reap(max(0.0, deadline - time.monotonic()))

    def _reap(self, grace: float) -> None:
        if self.process is not None:
            _end_process(self.process, grace, max(0.5, _JOIN_TIMEOUT / 2))


class ExecPool:
    """A persistent pool of search workers over shared fragment packs.

    Usage::

        with ExecPool(jobs=4) as pool:
            results = pool.search(query, db, scheme, params)

    The pool prepares a database once (greedy fragment plan, one
    shared-memory pack per fragment, attach broadcast), then any number
    of searches against it reuse the packs — the warm path a query
    stream lives on.  A task has one shape: one pack for one query
    batch (at most 32 queries, scanned in one pass by
    :func:`~repro.blast.search.search_batch`).  ``search_many`` runs a
    whole query set through one scheduler pass, so packs of different
    batches interleave and no core idles at batch boundaries.

    Every knob is a constructor keyword, set here and nowhere else
    (DESIGN.md §5e has the table with CLI flags and who sets what):

    ``jobs``
        local worker processes (default: the core count; 0 allowed
        with ``nodes``).  A ``search*`` call cuts an in-RAM database
        into its ``n_fragments``, by default one per worker slot, local
        or node, so one search is one task per worker; a pack store
        brings its own fragment count.
    ``task_sleep``
        stall every task by this many seconds — the test / chaos hook
        that widens the window for mid-task faults (default 0).
    ``heartbeat``
        idle-tick interval for the liveness/deadline sweeps and the
        PINGs to idle workers, seconds (default 0.2).
    ``hedge_after``
        soft per-task deadline before speculative re-issue to an idle
        worker; ``None`` adapts from the observed task-time EMA.
    ``task_timeout``
        hard per-task deadline before the holding worker is presumed
        hung, killed, and respawned; ``None`` adapts from the soft
        deadline.
    ``respawn``
        whether lost workers are replaced (at most ``2 x slots + 2``
        attempts per run) so the pool recovers its configured
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
    ``node_timeout``
        seconds of heartbeat silence from an *idle* worker, local or
        node, before it is declared dead (default ``max(1.0, 5 *
        heartbeat)``; a *busy* one is covered by the hard task
        deadline).  A node is dialed up to 3 times at start; dead
        nodes are re-dialed with bounded exponential backoff + jitter
        under the same respawn budget as local workers.

    ``replication`` and every duration above must be positive (``ValueError`` otherwise).  Values nothing sets are module
    constants: the retry budget (2 failed attempts per task), the
    respawn budget, the dial attempts and the 2 s drain-and-join
    budget ``close()`` gives each worker before escalating
    ``terminate()`` → ``kill()``, so teardown can never hang.

    Every recovery action is appended to :attr:`ledger`, a
    :class:`~repro.exec.faults.FailureLedger` spanning the pool's
    lifetime.
    """

    def __init__(self, jobs: Optional[int] = None, *,
                 task_sleep: float = 0.0,
                 heartbeat: float = 0.2,
                 hedge_after: Optional[float] = None,
                 task_timeout: Optional[float] = None,
                 respawn: bool = True,
                 serial_fallback: bool = True,
                 fault_plan: Optional[FaultPlan] = None,
                 nodes: Optional[Sequence] = None,
                 replication: int = 2,
                 node_timeout: Optional[float] = None):
        _check_positive(heartbeat=heartbeat, hedge_after=hedge_after,
                        task_timeout=task_timeout, node_timeout=node_timeout,
                        replication=replication)
        self.node_addresses = [parse_address(a) for a in (nodes or [])]
        self.replication = int(replication)
        if jobs is None and self.node_addresses:
            jobs = 0            # remote-only by default when nodes given
        self.jobs = (os.cpu_count() or 1) if jobs is None else int(jobs)
        if self.jobs < 1 and not self.node_addresses:
            raise ValueError("jobs must be >= 1 (or give nodes=...)")
        if self.jobs < 0:
            raise ValueError("jobs must be >= 0")
        self.task_sleep = task_sleep
        self.fault_plan = (fault_plan if fault_plan is not None
                           else FaultPlan.from_env())
        self._ctx = mp.get_context(
            "fork" if "fork" in mp.get_all_start_methods() else "spawn")
        self._heartbeat = heartbeat
        self.hedge_after = hedge_after
        self.task_timeout = task_timeout
        self.respawn = respawn
        self.serial_fallback = serial_fallback
        self.node_timeout = (max(1.0, 5 * heartbeat) if node_timeout is None
                             else node_timeout)
        self._registry: ShmRegistry = default_registry()
        #: One slot per configured worker, local ranks first, dead or
        #: alive.
        self._workers: List[WorkerSlot] = []
        self._prepared: Dict[tuple, _PreparedDB] = {}
        self._started = False
        self._closed = False
        self._epoch = 0
        #: The pump's two contacts with real time; tests step them.
        self._clock = time.monotonic
        self._wait = wait
        self._task_ema: Optional[float] = None
        self.last_stats: Optional[PoolStats] = None
        self.ledger = FailureLedger()
        self.total_respawns = 0
        self._finalizer = weakref.finalize(self, _terminate_workers,
                                           self._workers)

    # ------------------------------------------------------------------
    def start(self) -> "ExecPool":
        if self._closed:
            raise PoolJobError("pool is closed")
        if self._started:
            # A restarted run begins at full strength: revive any
            # capacity lost to deaths since the previous run.
            self._ensure_capacity()
            return self
        # Workers must inherit the parent's resource tracker (see
        # ensure_tracker) — start it before the first fork.
        ensure_tracker()
        for rank in range(self.jobs):
            slot = _LocalSlot(self, rank)
            self._workers.append(slot)
            try:
                slot.connect(hello_timeout=_START_TIMEOUT)
            except NodeConnectError as exc:
                raise PoolJobError(f"worker {rank} failed to start "
                                   f"({exc})") from exc
            slot.alive = True
        # Remote workers: one slot per configured node, ranks above the
        # local ones.  An unreachable node starts as a dead slot — the
        # revive phase keeps re-dialing it under backoff, and the
        # mirror placement covers its fragments meanwhile.
        for i, address in enumerate(self.node_addresses):
            slot = NodeClient(address, self.jobs + i,
                              connect_attempts=_NODE_CONNECT_ATTEMPTS,
                              heartbeat=self._heartbeat,
                              node_timeout=self.node_timeout)
            self._workers.append(slot)
            try:
                slot.connect()
            except NodeConnectError as exc:
                self.ledger.record("node_unreachable", rank=slot.rank,
                                   detail=str(exc))
                warnings.warn(f"worker node {slot.label} unreachable at "
                              f"start ({exc}); continuing without it",
                              RuntimeWarning, stacklevel=2)
            else:
                slot.alive = True
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

    def _live(self) -> List[WorkerSlot]:
        return [w for w in self._workers if w.alive]

    def worker_pids(self) -> Dict[int, int]:
        """rank -> pid of the live *local* workers (fault-injection
        hook); remote nodes are not ours to signal."""
        return {w.rank: w.pid for w in self._live() if w.pid is not None}

    def node_ship_stats(self) -> List[dict]:
        """Per-node pack shipping counters (ship-once accounting)."""
        stats = (w.ship_stats() for w in self._workers)
        return [s for s in stats if s is not None]

    # ------------------------------------------------------------------
    def _revive(self, slot: WorkerSlot, now: float, note,
                force: bool = False) -> None:
        """One revive attempt on a dead slot, reported through *note*
        (``run.note`` inside a run, ``ledger.record`` between runs)."""
        event = slot.revive(now, self._prepared.values(), force)
        if event is not None:
            note(event[0], rank=slot.rank, detail=event[1])
        if slot.alive:
            slot.busy = None
            slot.jobs_sent.clear()
            self.total_respawns += 1

    def _ensure_capacity(self) -> None:
        """Between-runs capacity recovery: every dead slot gets one
        attempt, ignoring pacing — a new run is worth one fresh dial
        per node."""
        if not self.respawn or self._closed:
            return
        now = self._clock()
        for slot in self._workers:
            if not slot.alive:
                self._revive(slot, now, self.ledger.record, force=True)

    # ------------------------------------------------------------------
    def _prepare(self, db, k: int, base: int,
                 n_fragments: Optional[int]) -> _PreparedDB:
        if getattr(db, "is_pack_store", False):
            return self._prepare_from_store(db, base)
        token = db_token(db)
        version = getattr(db, "_version", 0)
        n_slots = self.jobs + len(self.node_addresses)
        nf = (max(1, min(len(db) or 1, n_slots)) if n_fragments is None
              else n_fragments)
        key = (token, version, k, base, nf)
        prep = self._prepared.get(key)
        if prep is not None:
            return prep
        self._drop_stale(token, version)
        # The fragment count is part of the identity: fragment 0 of a
        # 3-way split is not fragment 0 of a 9-way one.
        specs = [pack_fragment(sub, k, base, registry=self._registry,
                               cache_token=(token, version, nf,
                                            sub.fragment_id))
                 for sub in segment_db(db, nf)]
        return self._install_prepared(key, specs)

    def _prepare_from_store(self, store, base: int) -> _PreparedDB:
        """Cold start from an on-disk pack store: mmap each committed
        pack, bulk-copy its data region into a fresh shm segment (one
        memcpy per fragment — no scan structures are rebuilt), verify
        CRCs from the segment, and drop the mappings immediately.  The
        packs keep their own ``(("rpk", store_id), version,
        fragment_id)`` identities, so stale-version invalidation
        behaves exactly as for in-RAM databases, and serve every word
        size (nothing in a pack depends on it)."""
        if base != store.base:
            raise ValueError(
                f"pack store {store.directory!r} was built over base "
                f"{store.base}; this search needs base {base}")
        token = db_token(store)
        version = store._version
        key = (token, version, store.k, base, len(store.packs))
        prep = self._prepared.get(key)
        if prep is not None:
            return prep
        self._drop_stale(token, version)
        specs: List[PackSpec] = []
        packs = store.open_packs()
        try:
            for pack in packs:
                specs.append(publish_pack_bytes(pack.data, pack.spec,
                                                registry=self._registry))
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

    def _install_prepared(self, key: tuple,
                          specs: List[PackSpec]) -> _PreparedDB:
        prep = _PreparedDB(key=key, specs=specs,
                           ids_by_name={s.name: list(s.source_ids)
                                        for s in specs})
        if specs and self.node_addresses:
            # CEFT-style mirror placement over the configured node
            # ranks (dead ones included: they may reconnect, and their
            # groups' other mirrors cover them meanwhile).  Within a
            # group the primary rotates across the mirrors by the
            # pack's index, so the group's packs start on different
            # holders.
            groups, group_nodes = plan_mirror_groups(
                [s.total_residues for s in specs],
                list(range(self.jobs, self.jobs + len(self.node_addresses))),
                self.replication)
            for idx, gn in zip(groups, group_nodes):
                for j, i in enumerate(idx):
                    r = j % len(gn)
                    prep.placement[specs[i].name] = gn[r:] + gn[:r]
        self._prepared[key] = prep
        for slot in self._live():
            try:
                slot.install([prep])
            except SlotLost as lost:
                self._write_off(slot, self.ledger.record, lost)
        return prep

    def _release_prepared(self, prep: _PreparedDB,
                          notify: bool = True) -> None:
        if notify:
            for w in self._live():
                self._tell(w, [("detach", s.name) for s in prep.specs],
                           self.ledger.record)
        for spec in prep.specs:
            self._registry.release(spec.name)

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

    def _requeue(self, slot: WorkerSlot, run: _Run, task: tuple,
                 why: str) -> None:
        """Give back the current-run *task* that *slot* failed: front
        requeue, or job failure once its retry budget is spent (*why*
        ends the error message)."""
        try:
            key = run.sched.fail(slot.rank)
        except RetriesExceeded as exc:
            run.note("retries_exceeded", rank=slot.rank, task=task,
                     detail=str(exc))
            run.fail(PoolJobError(f"fragment task {exc.key!r} failed "
                                  f"{exc.attempts} times{why}"))
            return
        if key is not None:
            run.note("requeue", rank=slot.rank, task=key)
            if run.failure is not None:
                run.sched.drop_pending()

    def _write_off(self, slot: WorkerSlot, note,
                   lost: Optional[SlotLost] = None) -> Optional[tuple]:
        """Declare *slot* dead, once (a send failure and the liveness
        sweep may both see one death): *lost*'s ledger line, then
        ``worker_death``, through *note* (``run.note`` or
        ``ledger.record``); let go of the transport; return its task."""
        if not slot.alive:
            return None
        slot.alive = False
        if lost is not None and lost.kind:
            note(lost.kind, rank=slot.rank, detail=lost.detail)
        task, slot.busy = slot.busy, None
        note("worker_death", rank=slot.rank,
             task=task[1:] if task else None)
        slot.lost()
        return task

    def _tell(self, slot: WorkerSlot, msgs: List[tuple], note) -> None:
        """Pack and job-table upkeep: a broken transport is a death."""
        try:
            for msg in msgs:
                slot.conn.send(msg)
        except OSError:
            self._write_off(slot, note)

    def _handle_death(self, slot: WorkerSlot, run: _Run,
                      lost: Optional[SlotLost] = None) -> None:
        """Write *slot* off and resolve the task it held — ignored when
        it is a cross-run straggler."""
        task = self._write_off(slot, run.note, lost)
        if task is not None and task[0] == run.epoch:
            self._requeue(slot, run, task[1:],
                          f" (worker deaths: {run.stats.worker_deaths})")

    def _send_task(self, slot: WorkerSlot, run: _Run, task: tuple,
                   now: float) -> None:
        """Ship (any new jobs, then task) to *slot*; busy bookkeeping is
        set first so a send failure resolves the assignment as a death.
        ``jobs_sent`` is only updated after every send succeeded — a
        half-delivered dispatch must not leave the record claiming the
        worker holds a job spec it never received."""
        qis, names = task
        slot.busy = (run.epoch, qis, names)
        slot.busy_since = now
        try:
            for qi in qis:
                if qi not in slot.jobs_sent:
                    slot.conn.send(("job", qi, run.jobs[qi]))
            slot.conn.send(("task", qis, names, run.epoch))
        except OSError:
            self._handle_death(slot, run)
            return
        slot.jobs_sent.update(qis)

    def _hedge_candidate(self, run: _Run, now: float, soft: float,
                         rank: int) -> Optional[tuple]:
        """The most-overdue unhedged current-run task that worker
        *rank* is eligible for (a node cannot hedge a fragment range it
        does not hold)."""
        sched = run.sched
        best, best_age = None, soft
        for w in self._live():
            if w.busy is None or w.busy[0] != run.epoch:
                continue
            key = (w.busy[1], w.busy[2])
            if sched.is_completed(key) or sched.holder_count(key) != 1 \
                    or not sched.eligible(rank, key):
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
        run = _Run(self.ledger, jobs,
                   GreedyScheduler(tasks, max_retries=_MAX_RETRIES,
                                   affinity=affinity),
                   self._epoch, {qi: {} for qi in jobs})
        try:
            self._pump(run)
        finally:
            # Drop the job tables win or lose: a failed run must not
            # leave workers holding stale specs for reused query ids.
            for w in self._live():
                self._tell(w, [("forget_job", qi) for qi in w.jobs_sent],
                           run.note)
                w.jobs_sent.clear()
            run.stats.requeues = run.sched.requeues
            self.last_stats = run.stats
        return run.results, run.stats

    # -- the pump: one tick is the phases below, in this order ---------
    def _pump(self, run: _Run) -> None:
        """Drive *run* to completion.  The clock is read once per tick
        and handed down, so only the wait blocks on real time; who is
        alive is settled before anything is dispatched."""
        while not run.sched.done:
            now = self._clock()
            self._sweep_liveness(run)
            self._enforce_deadlines(run, now)
            self._idle_checks(run, now)
            self._revive_dead(run, now)
            if not self._check_stranded(run):
                break
            self._dispatch(run, now)
            self._hedge(run, now)
            if run.sched.done:
                break
            self._receive(run, self._wait_ready())
        if run.failure is not None:
            raise run.failure

    def _sweep_liveness(self, run: _Run) -> None:
        """Belt and braces: a worker can die without its transport
        waking the wait promptly."""
        for slot in self._live():
            if not slot.is_alive():
                self._handle_death(slot, run)

    def _enforce_deadlines(self, run: _Run, now: float) -> None:
        """Hard deadline: a worker stuck this long is hung (or its
        reply was lost) — kill it and recover the capacity.  The CEFT
        analog: stop waiting on a dead server, period."""
        hard = self._hard_deadline()
        for slot in self._live():
            if slot.busy is not None and now - slot.busy_since > hard:
                run.note("hang_kill", rank=slot.rank, task=slot.busy[1:],
                         detail=f"busy {now - slot.busy_since:.2f}s"
                                f" > {hard:.2f}s")
                slot.kill()
                self._handle_death(slot, run)

    def _idle_checks(self, run: _Run, now: float) -> None:
        for slot in self._live():
            if slot.busy is None:
                try:
                    slot.idle_check(now)
                except SlotLost as lost:
                    self._handle_death(slot, run, lost)

    def _revive_dead(self, run: _Run, now: float) -> None:
        """Budgeted per-run capacity recovery.  The budget counts
        *attempts* (not successes): one death consumes at most one unit
        even when a send failure and the liveness sweep both observe
        it, and a slot whose replacements keep dying cannot burn the
        pump on endless spawns.  Slots may additionally pace themselves
        (a hard-down node consumes budget slowly instead of instantly).
        """
        if not self.respawn or run.failure is not None:
            return
        budget = _RESPAWNS_PER_SLOT * len(self._workers) + 2
        for slot in self._workers:
            if not slot.alive and run.stats.respawn_attempts < budget:
                self._revive(slot, now, run.note)

    def _check_stranded(self, run: _Run) -> bool:
        """Fail a run nobody can finish; ``False`` when not even a slot
        to wait on is left."""
        live = self._live()
        if not live:
            run.fail(PoolJobError(
                f"pool collapsed to 0/{len(self._workers)} workers "
                f"(deaths: {run.stats.worker_deaths})"))
            return False
        if run.failure is None:
            # Last-mirror loss: pending work whose every eligible
            # holder is dead can never drain.  Fail the job now — the
            # serial fallback serves it whole — instead of waiting on
            # a reconnect that may never come.
            stranded = run.sched.unplaceable([w.rank for w in live])
            if stranded:
                deaths = f"(deaths: {run.stats.worker_deaths})"
                run.note("mirror_lost", task=stranded[0],
                         detail=f"{len(stranded)} task(s) lost their last "
                                f"holder {deaths}")
                run.fail(PoolJobError(
                    f"{len(stranded)} pending task(s) lost the last "
                    f"node holding their fragments {deaths}"))
        return True

    def _dispatch(self, run: _Run, now: float) -> None:
        """Greedy hand-out: every idle slot takes the next task it is
        eligible for (locality: its own fragments first)."""
        for slot in self._live():
            if run.failure is not None or not run.sched.has_pending:
                break
            if slot.busy is None:
                task = run.sched.assign(slot.rank)
                if task is not None:    # else: nothing it can serve
                    self._send_task(slot, run, task, now)

    def _hedge(self, run: _Run, now: float) -> None:
        """Hedged re-issue: idle slots with nothing pending take a
        speculative copy of the most-overdue task (the mirror-group
        read around a hot primary).  First result wins."""
        if run.failure is not None or run.sched.has_pending:
            return
        soft = self._soft_deadline()
        for slot in self._live():
            if slot.busy is not None:
                continue
            cand = self._hedge_candidate(run, now, soft, slot.rank)
            if cand is not None:
                run.sched.hedge(slot.rank, cand)
                run.note("hedge", rank=slot.rank, task=cand)
                self._send_task(slot, run, cand, now)

    def _wait_ready(self) -> List[WorkerSlot]:
        """Block until a live slot has something to say, at most one
        heartbeat.  Messages a slot has already decoded come first:
        the wait watches file descriptors, and a message queued inside
        a connection generates no fd activity."""
        live = self._live()
        ready = [w for w in live if w.has_queued()]
        if ready or not live:
            return ready
        by_conn = {w.conn: w for w in live}
        return [by_conn[c] for c in self._wait(list(by_conn),
                                               self._heartbeat)]

    def _receive(self, run: _Run, ready: List[WorkerSlot]) -> None:
        for slot in ready:
            try:
                msg = slot.recv()
            except SlotLost as lost:
                self._handle_death(slot, run, lost)
                continue
            kind = msg[0] if msg is not None else None
            if kind == "result":
                self._on_result(slot, run, msg)
            elif kind == "error":
                self._on_error(slot, run, msg)
            elif kind == "integrity":
                _, _rank, pack_name, detail = msg
                run.note("integrity", rank=slot.rank,
                         detail=f"{pack_name}: {detail}")
                run.fail(PackIntegrityError(detail))
            elif kind == "stopped":  # pragma: no cover - close path
                slot.alive = False

    def _on_result(self, slot: WorkerSlot, run: _Run, msg: tuple) -> None:
        _, _rank, qis, names, pairs, elapsed, m_epoch = msg
        sched = run.sched
        slot.busy = None
        key = (qis, names)
        stale = "cross-run straggler"
        if m_epoch == run.epoch:
            stale = "hedge loser" if sched.is_completed(key) else None
            hedged = sched.holder_count(key) > 1
            if slot.rank in sched.outstanding:
                sched.complete(slot.rank)
        if stale:
            run.note("stale_result", rank=slot.rank, task=key, detail=stale)
            return
        run.stats.tasks_done += 1
        run.stats.fragments_done += len(names)
        if hedged:
            run.note("hedge_win", rank=slot.rank, task=key)
        else:
            # Only clean, sole-holder completions feed the adaptive
            # deadlines: a hedged task's elapsed time is either the
            # straggler's stall or a duplicate, and letting one straggler
            # inflate the soft deadline would disable hedging for the
            # rest of the run.
            self._task_ema = (elapsed if self._task_ema is None
                              else 0.5 * self._task_ema + 0.5 * elapsed)
        if run.failure is not None:
            return
        if isinstance(slot, _LocalSlot):
            run.stats.inline_results += 1
        else:
            run.stats.remote_results += 1
        for pack_name, tqi, res in pairs:
            run.results[tqi][pack_name] = res

    def _on_error(self, slot: WorkerSlot, run: _Run, msg: tuple) -> None:
        _, _rank, qis, names, tb, m_epoch = msg
        run.note("worker_error", rank=slot.rank, task=(qis, names),
                 detail=tb.strip().splitlines()[-1] if tb else "")
        if qis is None:
            return                  # attach-time failure
        slot.busy = None
        if m_epoch == run.epoch:    # else: cross-run straggler error
            self._requeue(slot, run, (qis, names),
                          f"; last worker error:\n{tb}")

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
        serial_batch = search_batch
        if getattr(db, "is_pack_store", False):
            from repro.exec.diskpack import search_store_batch as serial_batch
        return serial_batch(queries, db, scheme, params, query_ids=query_ids,
                            both_strands=both_strands)

    def search_many(self, queries: Sequence[np.ndarray], db, scheme,
                    params: Optional[SearchParams] = None, *,
                    query_ids: Optional[Sequence[str]] = None,
                    both_strands: bool = True,
                    n_fragments: Optional[int] = None,
                    keep_fragment_ids: bool = False
                    ) -> List[SearchResults]:
        """Search a batch of encoded queries through one scheduler pass.

        Returns one :class:`SearchResults` per query, in input order,
        each byte-identical to ``search(query, db, ...)`` run serially.
        Queries are grouped into batches of at most 32 and each task
        scans one pack once for a whole batch, so a multi-query
        workload amortizes the database pass itself.  If the pool
        cannot finish the batch (capacity collapse, retry exhaustion)
        and ``serial_fallback`` is on, the batch is served by the
        serial engine instead — same bytes, plus a ``RuntimeWarning``
        and a ledger ``fallback`` entry.  A pack failing CRC
        verification always raises
        :class:`~repro.exec.shm.PackIntegrityError`.
        """
        params = params or SearchParams()
        _check_positive(n_fragments=n_fragments)
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
        prep = self._prepare(db, params.word_size, base, n_fragments)
        jobs = {
            qi: JobSpec(query=q, query_id=query_ids[qi], scheme=scheme,
                        params=params, both_strands=both_strands, ka=ka,
                        effective_space=_effective_space(ka, params,
                                                         len(q), db))
            for qi, q in enumerate(queries)
        }
        # One task per (query batch, pack): a batch shares one pass
        # over the pack, and with one pack per worker slot a search is
        # one round trip per worker.  Under mirroring a task may run on
        # its pack's holders, primary first, or on any local worker —
        # local workers attach every pack.
        local_ranks = tuple(range(self.jobs))
        tasks = []
        affinity: Dict[tuple, Tuple[int, ...]] = {}
        for qg in plan_query_batches(len(jobs)):
            for spec in prep.specs:
                key = (qg, (spec.name,))
                tasks.append((key, len(qg) * float(spec.total_residues)))
                if spec.name in prep.placement:
                    affinity[key] = prep.placement[spec.name] + local_ranks
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

        Bounded: draining and joining share one 2 s budget per
        worker (``_JOIN_TIMEOUT``), after which the worker is escalated
        ``terminate()`` → ``kill()`` — a hung or fault-injected worker
        can therefore never hang teardown (or CI).
        """
        if self._closed:
            return
        self._closed = True
        for w in self._live():
            try:
                w.conn.send(("stop",))
            except OSError:
                w.alive = False
        # Every slot is stopped whatever its state: a connection opened
        # by a revive that never made it back to alive must not survive
        # close() as a half-open socket.
        for w in self._workers:
            w.stop(time.monotonic() + _JOIN_TIMEOUT)
        for key in list(self._prepared):
            self._release_prepared(self._prepared.pop(key), notify=False)
