"""The worker side of the pool — every worker is a node agent — and
the master-side client of one.

The paper's I/O schemes change how a worker *comes to hold* its
fragment, never how it serves the master's tasks, and the code has
that shape: every worker is a :class:`NodeAgent` running one loop,
:func:`serve_tasks`, over one framed connection, with one pack holder,
:class:`TokenPacks`.  Only how the packs arrive differs.  A pool's
local worker is an agent forked onto one end of a ``socketpair`` that
``attach``-es the master's own shared-memory segments by name; a
remote node (``repro-node`` / ``python -m repro.cli node``) listens on
TCP and receives each pack **once** as bytes (``publish``, CRC-checked
field by field), cached by content identity across sessions, so a
master that reconnects sends a tiny ``adopt`` instead — the CEFT
mirror's re-read, not a re-ship.

The master side has the same shape: one surface, :class:`WorkerSlot`,
that the pool's pump drives, and one implementation of it for a real
worker, :class:`NodeClient` (hello, ship-or-adopt, heartbeat; a dial
with bounded backoff for a node, a fork for the local slot in
:mod:`repro.exec.pool`).  :class:`NodeFleet` spawns listening agents
for tests, chaos sweeps, CI and benchmarks: it keeps each listening
socket open, so a respawned agent re-serves the *same* port, and reaps
the shared-memory segments a SIGKILLed agent left behind.
"""

from __future__ import annotations

import glob
import multiprocessing as mp
import os
import signal
import socket
import sys
import time
import traceback
from typing import Dict, List, Optional, Sequence, Tuple

from repro.blast.search import search_batch
from repro.exec.faults import FaultInjector, FaultPlan
from repro.exec.net import (FrameConnection, FrameError, NodeConnectError,
                            backoff_delay, connect_backoff, parse_address)
from repro.exec.shm import (AttachedPack, PackDB, PackIntegrityError,
                            PackView, ShmRegistry, corrupt_segment,
                            ensure_tracker, publish_pack_bytes,
                            read_pack_bytes)

#: Wire protocol version: both ends state it in the hello handshake and
#: refuse a peer stating another (3: a shipped pack has no position
#: table; 4: no word codes; 5: a result message carries its pairs).
PROTO_VERSION = 5

#: Exit code of an injected ``kill`` fault (``os._exit``, i.e. SIGKILL
#: semantics: no cleanup, no goodbye to the master).
_FAULT_EXIT = 86


# ----------------------------------------------------------------------
# Worker side: one task-serving loop, one pack holder
# ----------------------------------------------------------------------
def execute_task(packs, jobs, qis, names, cache=None):
    """Scan a fragment range for a query batch.

    *packs* maps pack name → ``(AttachedPack, PackDB)``, *jobs* maps
    query index → job spec.  Returns ``(pairs, elapsed, fragment_ids)``
    where *pairs* is the ``(name, query_index, SearchResults)`` list a
    result message carries.
    """
    # *cache* is never read (a PackDB answers ``scan_structures``
    # itself); it survives because ``perf/harness/layers.py:254`` passes
    # one positionally and only a [benchmark] PR may edit ``perf/``.
    specs = [jobs[q] for q in qis]
    # scheme / params / ka / both_strands are batch-wide (search_many
    # builds them once); the effective space is per query.
    job = specs[0]
    t0 = time.perf_counter()
    pairs = []
    frag_ids = []
    for name in names:
        pack, db = packs[name]
        batch_res = search_batch(
            [s.query for s in specs], db, job.scheme, job.params,
            query_ids=[s.query_id for s in specs],
            ka=job.ka, both_strands=job.both_strands, scan_cache=cache,
            effective_spaces=[s.effective_space for s in specs])
        for q, res in zip(qis, batch_res):
            pairs.append((name, q, res))
        frag_ids.append(pack.spec.fragment_id)
    return pairs, time.perf_counter() - t0, frag_ids


class TokenPacks:
    """An agent's fragment packs, keyed by content identity (the spec's
    ``cache_token``) so they outlive sessions, and addressed by tasks
    through the *master's* segment names, kept as aliases.

    ``attach`` opens the master's own segment zero-copy by name (a
    local agent); ``publish`` republishes shipped bytes in the agent's
    shared memory (a remote one); ``adopt`` re-binds a name to an
    identity already held (a returning master ships nothing);
    ``detach`` drops a name, and the pack with its last name — the
    segment unlinked only if this holder published it.  These are the
    ``verbs`` (kind → ``handler(msg, injector)``) :func:`serve_tasks`
    dispatches to; a failed one is reported against ``pack_name(msg)``.
    """

    def __init__(self, node_id: str):
        self.node_id = node_id
        self._registry = ShmRegistry()
        #: cache_token -> (AttachedPack, PackDB)
        self._store: Dict[tuple, tuple] = {}
        #: master-side pack name -> cache_token
        self._aliases: Dict[str, tuple] = {}
        self.verbs = {"attach": self._attach, "publish": self._publish,
                      "adopt": self._adopt, "detach": self._detach}

    @staticmethod
    def _open(spec, verify: bool = True) -> tuple:
        pack = AttachedPack(spec, verify=verify)
        return pack, PackDB(pack)

    @staticmethod
    def pack_name(msg) -> str:
        # Every pack verb carries the master's PackSpec or its name.
        return getattr(msg[1], "name", msg[1])

    def held_tokens(self) -> List[tuple]:
        return list(self._store)

    def _attach(self, msg, injector) -> None:
        spec = msg[1]
        if injector is not None and \
                injector.on_attach(spec.fragment_id) is not None:
            corrupt_segment(spec)
        if spec.cache_token not in self._store:
            self._store[spec.cache_token] = self._open(spec)
        self._aliases[spec.name] = spec.cache_token

    def _publish(self, msg, injector) -> None:
        spec, data = msg[1], msg[2]     # the master's spec, the bytes
        if injector is not None and \
                injector.on_attach(spec.fragment_id) is not None:
            data = bytearray(data)
            with PackView(spec, data) as view:
                view.corrupt()
        token = spec.cache_token
        if token not in self._store:
            local = publish_pack_bytes(data, spec, registry=self._registry)
            # One mapping per pack, the attach below: pages mapped twice
            # are resident twice, as far as the tasks served reached.
            self._registry.unmap(local.name)
            self._store[token] = self._open(local, verify=False)
        self._aliases[spec.name] = token

    def _adopt(self, msg, injector=None) -> None:
        name, token = msg[1], tuple(msg[2])
        if token not in self._store:
            raise LookupError(f"pack {token!r} is not cached on "
                              f"{self.node_id}")
        self._aliases[name] = token

    def _detach(self, msg, injector=None) -> None:
        token = self._aliases.pop(msg[1], None)
        if token is not None and token not in self._aliases.values():
            self._release(token)

    def _release(self, token: tuple) -> None:
        entry = self._store.pop(token, None)
        if entry is not None:
            entry[0].close()
            self._registry.release(entry[0].spec.name)

    def _lookup(self, name: str) -> tuple:
        return self._store[self._aliases[name]]

    def packs_for(self, names) -> Dict[str, tuple]:
        return {n: self._lookup(n) for n in names}

    def fragment_ids(self, names) -> List[Optional[int]]:
        """Fragment id per pack name (``None`` for a pack not held):
        what a fault plan's ``fragment`` selector matches against."""
        return [self._lookup(n)[0].spec.fragment_id
                if n in self._aliases else None for n in names]

    def stats(self) -> dict:
        return {"node": self.node_id, "held": len(self._store)}

    def close(self) -> None:
        for token in list(self._store):
            try:
                self._release(token)
            except Exception:  # pragma: no cover - teardown best effort
                pass


def serve_tasks(conn, rank: int, holder, *,
                injector: Optional[FaultInjector] = None,
                task_sleep: float = 0.0) -> None:
    """The worker side of the master/worker protocol, for every
    agent: serve the master's messages on *conn* until ``stop``
    (or an injected ``disconnect``); a vanished master raises
    ``EOFError`` / ``OSError`` to the entry point.

    ``job`` / ``forget_job`` maintain the query table; a ``task`` is a
    query batch (tuple of query indexes) crossed with a contiguous
    fragment range (tuple of pack names) tagged with the master's run
    epoch — every pack is scanned once for the whole batch and the
    per-(pack, query) results go back in one ``result`` message as the
    plain ``(name, query_index, SearchResults)`` list, the epoch echoed
    so the master can discard cross-run stragglers.  Pack management is
    the *holder*'s (see :class:`TokenPacks`); anything else gets the
    unknown-message error reply.

    *injector* arms deterministic faults: ``kill`` / ``hang`` / ``slow``
    / ``drop_result`` at task receipt, the network kinds at reply time.
    *task_sleep* stalls every task (a test and chaos hook that widens
    the window for mid-task faults).
    """
    jobs: Dict[int, object] = {}
    tasks = fragments = 0
    held_back: Optional[tuple] = None       # reorder-fault holdback
    while True:
        msg = conn.recv()
        kind = msg[0]
        if kind == "job":
            jobs[msg[1]] = msg[2]
        elif kind == "forget_job":
            jobs.pop(msg[1], None)
        elif kind == "task":
            _, qis, names, epoch = msg
            if injector is not None:
                frag_ids = holder.fragment_ids(names)
                fault = injector.on_task(qis, frag_ids)
                if fault is not None:
                    if fault.kind == "kill":
                        os._exit(_FAULT_EXIT)
                    elif fault.kind in ("hang", "slow"):
                        time.sleep(fault.stall)
                    if fault.kind == "drop_result":
                        continue        # serve nothing, say nothing
            try:
                if task_sleep > 0:
                    time.sleep(task_sleep)
                pairs, elapsed, done = execute_task(
                    holder.packs_for(names), jobs, qis, names)
                out = ("result", rank, qis, names, pairs, elapsed, epoch)
                tasks += 1
                fragments += len(done)
            except Exception:
                out = ("error", rank, qis, names, traceback.format_exc(),
                       epoch)
            if injector is not None:
                fault = injector.on_result(qis, frag_ids)
                if fault is not None:
                    if fault.kind == "disconnect":
                        return          # close without a goodbye
                    if fault.kind in ("partition", "delay"):
                        # Silent for the stall: no result, no heartbeat
                        # replies (we are not in recv), then resume as
                        # if healed.
                        time.sleep(fault.stall)
                    elif fault.kind == "reorder":
                        held_back = out
                        continue
            conn.send(out)
            if held_back is not None:
                conn.send(held_back)    # delivered out of order
                held_back = None
        elif kind == "stop":
            if held_back is not None:
                conn.send(held_back)
            conn.send(("stopped", rank,
                       {"rank": rank, "tasks": tasks,
                        "fragments": fragments, **holder.stats()}))
            return
        elif kind in holder.verbs:
            try:
                holder.verbs[kind](msg, injector)
            except PackIntegrityError as exc:
                conn.send(("integrity", rank, holder.pack_name(msg),
                           str(exc)))
            except Exception:
                conn.send(("error", rank, None, holder.pack_name(msg),
                           traceback.format_exc(), -1))
            # Before the next read: a pack's bytes held across it would
            # pin the heap under the next payload (DESIGN.md §5k).
            del msg
        else:
            conn.send(("error", rank, None, None,
                       f"unknown message {kind!r}", -1))


# ----------------------------------------------------------------------
# The agent
# ----------------------------------------------------------------------
class NodeAgent:
    """A worker agent serving pool tasks over a socket.

    One session at a time (the paper's topology: each node serves one
    master), but the agent outlives sessions: a master that stops or
    vanishes returns the agent to ``accept``, and the pack cache — a
    :class:`TokenPacks` keyed by content identity — survives, which is
    what makes a reconnect a re-read instead of a re-ship.  ``host=None``
    (with no *listen_sock*) binds nothing: a pool's local worker is an
    agent handed one connected socket (see :func:`_agent_main`).

    *fault_plan* arms deterministic worker faults; ``None`` in
    production.
    """

    def __init__(self, host: Optional[str] = "127.0.0.1", port: int = 0, *,
                 listen_sock: Optional[socket.socket] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 task_sleep: float = 0.0,
                 node_id: Optional[str] = None):
        if listen_sock is None and host is not None:
            listen_sock = socket.socket()
            listen_sock.setsockopt(socket.SOL_SOCKET,
                                   socket.SO_REUSEADDR, 1)
            listen_sock.bind((host, port))
            listen_sock.listen(8)
        self._lsock = listen_sock
        self.address: Optional[Tuple[str, int]] = (
            listen_sock.getsockname()[:2] if listen_sock else None)
        self.node_id = node_id or f"node-{os.getpid()}"
        self.task_sleep = task_sleep
        self.fault_plan = fault_plan
        self._packs = TokenPacks(self.node_id)
        self.sessions_served = 0
        self._shutdown = False
        #: Created at the first hello and kept across sessions: a
        #: ``once`` fault must fire once per agent *process*, not once
        #: per session — re-arming on every reconnect would poison the
        #: faulted task forever (the same rule that makes the pool's
        #: local respawns healthy).  A fresh agent (fleet respawn)
        #: naturally re-arms, which keeps seeded chaos plans finite.
        self._injector: Optional[FaultInjector] = None

    def serve(self, max_sessions: Optional[int] = None) -> None:
        """Accept masters until shut down (or *max_sessions* served)."""
        try:
            while not self._shutdown:
                try:
                    sock, _peer = self._lsock.accept()
                except OSError:
                    break
                try:
                    self._session(sock)
                except Exception:  # pragma: no cover - keep serving
                    traceback.print_exc()
                self.sessions_served += 1
                if (max_sessions is not None
                        and self.sessions_served >= max_sessions):
                    break
        finally:
            self.close()

    def _session(self, sock: socket.socket) -> None:
        """One master's session: the hello handshake, then the shared
        task loop over the framed (CRC-checked) socket."""
        conn = FrameConnection(sock, name="master")
        try:
            msg = conn.recv()
            if msg[0] != "hello":
                conn.send(("error", -1, None, None,
                           f"expected hello, got {msg[0]!r}", -1))
                return
            if msg[1].get("proto") != PROTO_VERSION:
                conn.send(("error", -1, None, None,
                           f"protocol version mismatch: master speaks "
                           f"{msg[1].get('proto')!r}, node {self.node_id} "
                           f"speaks {PROTO_VERSION}", -1))
                return
            rank = int(msg[1].get("rank", 0))
            if self.fault_plan is not None and self._injector is None:
                self._injector = FaultInjector(self.fault_plan, rank)
            conn.send(("ready", rank, {
                "node": self.node_id,
                "proto": PROTO_VERSION,
                "pid": os.getpid(),
                "held": self._packs.held_tokens(),
            }))
            serve_tasks(conn, rank, self._packs, injector=self._injector,
                        task_sleep=self.task_sleep)
        except (EOFError, OSError, FrameError):
            return          # master went away; keep cache, re-accept
        finally:
            conn.close()

    def close(self) -> None:
        """Release every cached pack and the listening socket."""
        self._shutdown = True
        self._packs.close()
        if self._lsock is not None:
            self._lsock.close()


# ----------------------------------------------------------------------
# Master side: one worker slot
# ----------------------------------------------------------------------
#: What a broken transport raises from ``send`` / ``poll`` / ``recv``.
_BROKEN = (EOFError, OSError, FrameError)


class SlotLost(Exception):
    """A slot's transport failed.  *kind* / *detail* are the ledger
    line the loss earns on top of the ``worker_death`` every loss gets
    (``None``: a plain EOF says it all)."""

    def __init__(self, kind: Optional[str] = None, detail: str = ""):
        super().__init__(kind, detail)
        self.kind = kind
        self.detail = detail


class WorkerSlot:
    """One worker as the master sees it: the seam the pump drives.

    The pump owns the bookkeeping — *alive* (the master's belief),
    *busy* / *busy_since* (the ``(epoch, qis, names)`` task in flight;
    pool-level, so a straggler from a previous run is still recognised
    across run boundaries; reset when a revive brings the slot back),
    *jobs_sent* (likewise) — and talks through *conn*.  A few questions
    an implementation answers, or raises :class:`SlotLost`; besides the
    defaults below:
    ``is_alive()`` (does the transport still look up), ``kill()`` (stop
    a worker presumed hung), ``lost()`` (declared dead: let go of the
    transport), ``install(prepared)`` (make the worker hold these
    fragment sets) and ``revive(now, prepared, force=False)`` — bring a
    dead slot back holding *prepared*: ``None`` when no attempt was due
    (pacing, which *force* ignores), else the ``(ledger kind, detail)``
    of the attempt, with *alive* saying whether the slot is back.
    """

    pid: Optional[int] = None   # a pid the master may signal, if any

    def __init__(self, rank: int):
        self.rank = rank
        self.conn = None
        self.alive = False
        self.jobs_sent: set = set()
        self.busy: Optional[tuple] = None
        self.busy_since = 0.0

    def idle_check(self, now: float) -> None:
        """Probe an idle worker (a busy one is covered by the task
        deadlines); the default probes nothing."""

    def has_queued(self) -> bool:
        """Messages decoded and waiting, which a wait on fds misses."""
        return self.conn.queued > 0

    def ship_stats(self) -> Optional[dict]:
        """Pack shipping counters, for a transport that ships packs."""
        return None

    def recv(self):
        """The next queued message, or ``None`` when the wakeup carried
        none (a socket wakeup may be a bare keepalive).  A framing
        violation is a typed transport error handled as a death —
        never a hang, never a silently accepted payload."""
        try:
            return self.conn.recv() if self.conn.poll(0) else None
        except FrameError as exc:
            raise SlotLost("transport_error", str(exc)) from exc
        except (EOFError, OSError) as exc:
            raise SlotLost() from exc

    def stop(self, deadline: float) -> None:
        """Wait until *deadline* for the ``stopped`` goodbye of a worker
        told to stop; implementations then shut the transport."""
        if self.alive and self.conn is not None:
            try:
                while True:
                    left = deadline - time.monotonic()
                    if left <= 0 or not self.conn.poll(left):
                        break
                    if self.conn.recv()[0] == "stopped":
                        break
            except _BROKEN:
                pass
        self.alive = False


class NodeClient(WorkerSlot):
    """The master's slot for one worker agent, here a dialed node.

    Owns the dial/backoff/hello lifecycle and the ship-or-adopt
    decision: packs whose identity the node already reported holding
    are adopted (bytes saved — the mirror re-read), everything else is
    shipped once and remembered.  An idle worker is PINGed every
    *heartbeat* seconds and lost after *node_timeout* of silence.
    """

    def __init__(self, address, rank: int, *,
                 connect_attempts: int = 3,
                 connect_timeout: float = 2.0,
                 backoff_base: float = 0.05,
                 heartbeat: float = 0.2,
                 node_timeout: float = 1.0):
        super().__init__(rank)
        self.address = parse_address(address)
        self.connect_attempts = max(1, int(connect_attempts))
        self.connect_timeout = connect_timeout
        self.backoff_base = backoff_base
        self.heartbeat = heartbeat
        self.node_timeout = node_timeout
        self.node_info: dict = {}
        self.held: set = set()
        self.connects = 0
        self.packs_shipped = 0
        self.packs_adopted = 0
        self.bytes_shipped = 0
        self.bytes_saved = 0
        #: Revive pacing: next dial not before *retry_at*, with
        #: *retry_n* driving the exponential backoff.
        self.retry_n = 0
        self.retry_at = 0.0
        #: When the oldest PING not yet answered was sent.
        self.asked_at = 0.0

    @property
    def label(self) -> str:
        return f"{self.address[0]}:{self.address[1]}"

    def connect(self, attempts: Optional[int] = None,
                hello_timeout: float = 10.0) -> dict:
        """Dial, shake hands, learn what the node already holds.

        Raises :class:`~repro.exec.net.NodeConnectError` (never hangs:
        the hello reply is awaited under *hello_timeout*).
        """
        self.abort()
        conn = FrameConnection(self._open(attempts),
                               name=f"node{self.rank}@{self.label}")
        try:
            conn.send(("hello", {"proto": PROTO_VERSION,
                                 "rank": self.rank}))
            info = self._await_ready(conn, hello_timeout)
        except BaseException as exc:
            conn.close()
            if isinstance(exc, _BROKEN):
                raise NodeConnectError(f"handshake with node {self.label} "
                                       f"failed: {exc}") from exc
            raise
        self.conn = conn
        self.node_info = info
        self.held = {tuple(t) for t in info.get("held", ())}
        self.connects += 1
        self.retry_n = 0
        return info

    def _open(self, attempts: Optional[int]) -> socket.socket:
        """A socket connected to the agent: a dial, bounded backoff."""
        return connect_backoff(
            self.address,
            attempts=self.connect_attempts if attempts is None else attempts,
            base_delay=self.backoff_base, timeout=self.connect_timeout)

    def _await_ready(self, conn: FrameConnection, timeout: float) -> dict:
        """The ready wait: the agent's info from its answer to the hello,
        which must state this master's protocol version."""
        if not conn.poll(timeout):
            raise NodeConnectError(
                f"node {self.label} accepted but did not answer "
                f"hello within {timeout}s")
        msg = conn.recv()
        if not (isinstance(msg, tuple) and msg and msg[0] == "ready"):
            raise NodeConnectError(
                f"node {self.label} answered {msg!r}, expected ready")
        if msg[2].get("proto") != PROTO_VERSION:
            raise NodeConnectError(
                f"node {self.label} speaks protocol version "
                f"{msg[2].get('proto')!r}, this master speaks "
                f"{PROTO_VERSION}")
        return msg[2]

    def ship(self, spec) -> int:
        """Make the node hold *spec*'s pack under the master's name.

        Returns the bytes actually sent over the wire: the full data
        region on a cold ship, ~0 for an ``adopt`` of an identity the
        node caches (the reconnect / mirror fast path).
        """
        if spec.cache_token in self.held:
            self.conn.send(("adopt", spec.name, spec.cache_token))
            self.packs_adopted += 1
            self.bytes_saved += spec.size
            return 0
        payload = read_pack_bytes(spec)
        self.conn.send(("publish", spec, payload))
        self.held.add(spec.cache_token)
        self.packs_shipped += 1
        self.bytes_shipped += len(payload)
        return len(payload)

    def abort(self) -> None:
        """Drop the connection (idempotent)."""
        if self.conn is not None:
            self.conn.close()
            self.conn = None

    def ship_stats(self) -> dict:
        return {"address": self.label, "connects": self.connects,
                "packs_shipped": self.packs_shipped,
                "packs_adopted": self.packs_adopted,
                "bytes_shipped": self.bytes_shipped,
                "bytes_saved": self.bytes_saved}

    # -- the slot surface ----------------------------------------------
    def is_alive(self) -> bool:
        return self.conn is not None and not self.conn.closed

    # Both drop the socket: the far process is not ours to signal, and
    # a half-dead connection must not keep waking the pump.
    kill = lost = abort

    def install(self, prepared) -> None:
        """Ship (or adopt) every pack this node's mirror placement
        assigns it; nodes get pack bytes, not shm names."""
        try:
            for prep in prepared:
                for spec in prep.specs:
                    if self.rank in prep.placement.get(spec.name, ()):
                        self.ship(spec)
        except _BROKEN as exc:
            raise SlotLost("node_ship_failed", str(exc)) from exc

    def revive(self, now: float, prepared,
               force: bool = False) -> Optional[Tuple[str, str]]:
        """Re-dial and re-ship (or re-adopt) the placed packs.

        Paced by exponential backoff + jitter: a node that stays down
        costs one quick refused dial per backoff window, not per pump
        tick.  A reconnected node that still holds its packs (network
        blip, agent survived) re-registers them by identity — the adopt
        path — so recovery ships ~0 bytes.
        """
        if not force and now < self.retry_at:
            return None
        try:
            # The hello wait runs inside the single-threaded pump: a
            # port that accepts but never answers (agent dead, its
            # supervisor still holds the listening socket) must cost
            # one node-timeout, not the generous session-start default.
            self.connect(attempts=1, hello_timeout=self.node_timeout)
            self.install(prepared)
        except NodeConnectError as exc:
            detail = str(exc)
        except SlotLost as lost:
            self.abort()
            detail = f"died during pack re-ship: {lost.detail}"
        else:
            self.alive = True
            return "reconnect", self.label
        self.retry_n += 1
        self.retry_at = now + backoff_delay(self.retry_n, base=0.2,
                                            max_delay=5.0)
        return "reconnect_failed", detail

    def idle_check(self, now: float) -> None:
        """Missed-heartbeat detection: an idle worker that stops
        answering PINGs would otherwise look healthy forever.  PINGs
        are paced by the heartbeat; PONGs refresh ``last_heard`` inside
        the connection's poll/recv.  Silence counts from the oldest
        unanswered PING, and one older than *node_timeout* restarts the
        count: between runs nobody pings, and a pause is not a death."""
        conn = self.conn
        if now - conn.last_ping >= self.heartbeat:
            if conn.last_heard > conn.last_ping \
                    or now - conn.last_ping > self.node_timeout:
                self.asked_at = now
            try:
                conn.ping()
            except OSError as exc:
                raise SlotLost() from exc
        silent = now - max(conn.last_heard, self.asked_at)
        if silent > self.node_timeout:
            raise SlotLost("heartbeat_lost",
                           f"silent {silent:.2f}s "
                           f"> {self.node_timeout:.2f}s")

    def stop(self, deadline: float) -> None:
        super().stop(deadline)
        self.abort()


# ----------------------------------------------------------------------
# Local agents: pool workers, and fleets (tests / chaos / CI / benchmarks)
# ----------------------------------------------------------------------
def _agent_main(sock: socket.socket, fault_plan: Optional[FaultPlan],
                task_sleep: float, node_id: Optional[str],
                connected: bool = False) -> None:
    """Forked-child entry point of every local agent: a fleet agent
    serves masters on an inherited listening socket, a pool worker
    (*connected*) one master on an inherited end of a socketpair."""
    # SIGTERM must run the cleanup below (the agent's ShmRegistry
    # unlinks its segments there); the default handler would skip it.
    # A terminal's Ctrl-C reaches the whole process group: the master
    # acts on it, and tells its agents.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    ensure_tracker()
    agent = NodeAgent(None, listen_sock=None if connected else sock,
                      fault_plan=fault_plan, task_sleep=task_sleep,
                      node_id=node_id)
    try:
        if connected:
            agent._session(sock)
        else:
            agent.serve()
    finally:
        agent.close()


def _end_process(proc, grace: float, patience: float = 5.0) -> None:
    """Join *proc* for *grace* seconds, then escalate ``terminate()``
    (*patience* seconds more) → ``kill()``: an ending never hangs."""
    proc.join(timeout=grace)
    if proc.is_alive():
        proc.terminate()
        proc.join(timeout=patience)
    if proc.is_alive():  # pragma: no cover - SIGTERM immune
        proc.kill()
        proc.join()


def _reap_agent_segments(pid: Optional[int]) -> int:
    """Unlink /dev/shm segments a SIGKILLed agent left behind.

    Agent segment names embed the agent's pid
    (``repro_<pid>_f*``), so the fleet supervisor can clean up after
    an agent that died without running atexit (injected kill faults,
    hard SIGKILL).  No-op off Linux-style /dev/shm.
    """
    if pid is None or not os.path.isdir("/dev/shm"):
        return 0
    reaped = 0
    for path in glob.glob(f"/dev/shm/repro_{pid}_*"):
        try:
            os.unlink(path)
            reaped += 1
        except OSError:  # pragma: no cover - raced with tracker
            pass
        # The dead agent was forked, so its segments are registered in
        # *this* process tree's shared resource tracker; clear those
        # entries too or the tracker warns about (and re-unlinks)
        # already-reaped names at interpreter exit.
        try:
            from multiprocessing import resource_tracker
            resource_tracker.unregister(
                "/" + os.path.basename(path), "shared_memory")
        except Exception:  # pragma: no cover - tracker not running
            pass
    return reaped


class NodeFleet:
    """*n* local node agents for tests, chaos sweeps, CI, benchmarks.

    The parent binds every listening socket itself and keeps it open:
    a forked agent serves on the inherited socket, and
    :meth:`respawn` forks a replacement onto the *same* port with no
    rebind race — the deterministic substrate for kill-and-recover
    scenarios.  Requires the ``fork`` start method (socket inheritance).
    """

    def __init__(self, n: int, *, fault_plan: Optional[FaultPlan] = None,
                 plans: Optional[Sequence[Optional[FaultPlan]]] = None,
                 task_sleep: float = 0.0, host: str = "127.0.0.1"):
        if "fork" not in mp.get_all_start_methods():  # pragma: no cover
            raise RuntimeError("NodeFleet needs the fork start method")
        self._ctx = mp.get_context("fork")
        # Agents must inherit *this* process's resource tracker: forked
        # before one exists, each agent would lazily spawn its own,
        # which then "cleans up" (and warns about) the agent's segments
        # the moment the agent is killed — racing the supervisor reap.
        ensure_tracker()
        self.task_sleep = task_sleep
        self._plans = list(plans) if plans is not None else [fault_plan] * n
        self.socks: List[socket.socket] = []
        self.addresses: List[Tuple[str, int]] = []
        self.procs: List[Optional[mp.process.BaseProcess]] = [None] * n
        for _ in range(n):
            s = socket.socket()
            s.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            s.bind((host, 0))
            s.listen(8)
            self.socks.append(s)
            self.addresses.append(s.getsockname()[:2])
        for i in range(n):
            self.respawn(i)

    def __len__(self) -> int:
        return len(self.socks)

    def respawn(self, i: int, fault_plan="inherit") -> None:
        """(Re)fork agent *i* onto its existing port.  A respawned
        agent is a fresh process with an empty pack cache; pass
        ``fault_plan=None`` to respawn it healthy (the chaos default
        keeps the configured plan)."""
        old = self.procs[i]
        if old is not None:
            _end_process(old, 0.0)
            _reap_agent_segments(old.pid)
        plan = self._plans[i] if fault_plan == "inherit" else fault_plan
        proc = self._ctx.Process(
            target=_agent_main,
            args=(self.socks[i], plan, self.task_sleep, f"fleet-{i}"),
            name=f"repro-node-{i}", daemon=True)
        proc.start()
        self.procs[i] = proc

    def kill(self, i: int) -> None:
        """SIGKILL agent *i* (it stays down until :meth:`respawn`)."""
        proc = self.procs[i]
        if proc is not None and proc.is_alive():
            proc.kill()
            proc.join(timeout=5.0)
        if proc is not None:
            _reap_agent_segments(proc.pid)

    def alive(self) -> List[bool]:
        return [p is not None and p.is_alive() for p in self.procs]

    def stop(self) -> None:
        for i, proc in enumerate(self.procs):
            if proc is None:
                continue
            _end_process(proc, 0.0)
            _reap_agent_segments(proc.pid)
            self.procs[i] = None
        for s in self.socks:
            try:
                s.close()
            except OSError:  # pragma: no cover
                pass
        self.socks = []

    def __enter__(self) -> "NodeFleet":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


# ----------------------------------------------------------------------
def run_node(host: str = "0.0.0.0", port: int = 0, *,
             node_id: Optional[str] = None,
             max_sessions: Optional[int] = None,
             announce=None) -> None:
    """Serve one worker-node agent until interrupted (the
    ``repro-node`` / ``blastall node`` entry point).

    Binds, announces the bound address via *announce* (so a caller
    scripting ``port=0`` can learn the kernel-chosen port), then blocks
    in the agent's accept loop.  SIGTERM and Ctrl-C both exit through
    the agent's cleanup path, releasing every cached shm segment.
    """
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    ensure_tracker()
    agent = NodeAgent(host, port, node_id=node_id)
    bound = agent.address
    if announce is not None:
        announce(f"repro-node listening on {bound[0]}:{bound[1]} "
                 f"(pid {os.getpid()})")
    try:
        agent.serve(max_sessions=max_sessions)
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
    finally:
        agent.close()
