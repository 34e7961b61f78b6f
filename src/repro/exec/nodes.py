"""The worker side of the pool — every worker is a node agent — and
the master-side client of one.

The paper's I/O schemes change how a worker *comes to hold* its
fragment, never how it serves the master's tasks, and the code has
that shape: every worker is a :class:`NodeAgent` running one loop,
:func:`serve_tasks`, over one framed connection, with one pack holder,
:class:`TokenPacks`.  Only how the packs arrive differs.  A pool's
local worker is an agent forked onto one end of a ``socketpair`` that
``attach``-es each pack where the master found it — the master's own
shared-memory segment by name, or a pack store's ``.rpk`` file by path
and data offset; a remote node (``repro-node`` / ``python -m repro.cli
node``) listens on TCP and receives each pack **once** as bytes
(``publish``, CRC-checked field by field), cached by content identity
across sessions, so a master that reconnects sends a tiny ``adopt``
instead — the CEFT mirror's re-read, not a re-ship.

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
import reprlib
import signal
import socket
import stat
import sys
import threading
import time
import traceback
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

from repro.blast.search import search_batch
from repro.exec.faults import FaultInjector, FaultPlan
from repro.exec.net import (FrameConnection, FrameError, NodeConnectError,
                            backoff_delay, connect_backoff, parse_address)
from repro.exec.shm import (AttachedPack, PackDB, PackIntegrityError,
                            PackView, ShmRegistry, ensure_tracker,
                            publish_pack_bytes, read_pack_bytes)

#: Wire protocol version: both ends state it in the hello handshake and
#: refuse a peer stating another (3: a shipped pack has no position
#: table; 4: no word codes; 5: a result message carries its pairs;
#: 6: a job's ``SearchParams`` has no ``gapped_method``; 7: nor
#: ``gapped`` or ``two_hit_window``; 8: a PONG names the task the
#: agent holds; 9: a task carries its queries' job specs, so an agent
#: keeps no query table, and ``stopped`` is ``("stopped", rank)``; 10:
#: a shipped nucleotide pack's residue section, ``residues``, holds 2
#: bits per residue; 11: a pack's global ids are its ``source_ids``
#: section, and a spec carries the data region's ``offset``).
PROTO_VERSION = 11

#: Exit code of an injected ``kill`` fault (``os._exit``, i.e. SIGKILL
#: semantics: no cleanup, no goodbye to the master).
_FAULT_EXIT = 86


# ----------------------------------------------------------------------
# Worker side: one task-serving loop, one pack holder
# ----------------------------------------------------------------------
def execute_task(packs, jobs, qis, names, cache=None):
    """Search a task's pack for its query batch.

    One :func:`~repro.blast.search.search_batch` per name in *names*;
    a pool task names one pack.

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

    ``attach`` maps the pack zero-copy where the master found it (a
    local agent): the master's own segment by name, or a store's
    ``.rpk`` file by path and data offset, CRC-verified either way;
    ``publish`` republishes shipped bytes in the agent's shared memory
    (a remote one); ``adopt`` re-binds a name to an
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
    def pack_name(msg) -> str:
        # Every pack verb carries the master's PackSpec or its name.
        return getattr(msg[1], "name", msg[1])

    def held_tokens(self) -> List[tuple]:
        return list(self._store)

    def _attach(self, msg, injector) -> None:
        spec = msg[1]
        torn = (injector is not None
                and injector.on_attach(spec.fragment_id) is not None)
        if spec.cache_token not in self._store:
            # A torn pack: the fault scribbles this agent's mapping (a
            # file's is copy-on-write, so the store stays intact) and
            # the verify below must catch it.
            pack = AttachedPack(spec, verify=False, writable=torn)
            try:
                if torn:
                    pack.corrupt()
                pack.verify()
            except BaseException:
                pack.close()
                raise
            self._store[spec.cache_token] = (pack, PackDB(pack))
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
            pack = AttachedPack(local, verify=False)
            self._store[token] = (pack, PackDB(pack))
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

    def close(self) -> None:
        for token in list(self._store):
            try:
                self._release(token)
            except Exception:  # pragma: no cover - teardown best effort
                pass


class _Inbox:
    """One agent session's receiving half.  :func:`serve_tasks` reads
    ``conn`` itself while it waits; while it computes a task, a thread
    reads for it, so PINGs are still answered.  Whoever reads a
    ``task`` sets ``conn.holding`` to it before reading on, so every
    later PONG names it."""

    def __init__(self, conn):
        self.conn, self._msgs = conn, deque()
        self._cv = threading.Condition()
        self._computing = self._reading = self._closed = False
        self._thread = threading.Thread(target=self._read, daemon=True)
        self._thread.start()

    def _recv(self):
        msg = self.conn.recv()
        if msg[0] == "task":
            with self.conn.send_lock:
                self.conn.holding = (msg[3], msg[1], msg[2])
        return msg

    def _read(self) -> None:
        while True:
            with self._cv:
                self._cv.wait_for(lambda: self._closed or self._computing)
                if self._closed:
                    return
                self._reading = True
            try:
                msg = self._recv()
            except BaseException as exc:    # EOF, framing, a shut socket
                msg = exc
            with self._cv:
                self._msgs.append(msg)
                self._reading = False
                self._cv.notify_all()
            if isinstance(msg, BaseException):
                return
            del msg

    def get(self):
        """The next message; raises what ended the reading."""
        with self._cv:
            self._computing = False
            self._cv.wait_for(lambda: self._msgs or not self._reading)
            msg = self._msgs.popleft() if self._msgs else None
        if msg is None:
            msg = self._recv()
        elif isinstance(msg, BaseException):
            raise msg
        if msg[0] == "task":
            with self._cv:
                self._computing = True
                self._cv.notify_all()
        return msg

    def close(self) -> None:
        with self._cv:
            self._closed = True
            self._cv.notify_all()
        self.conn.shutdown()
        self._thread.join()


def serve_tasks(conn, rank: int, holder, *,
                injector: Optional[FaultInjector] = None,
                task_sleep: float = 0.0) -> None:
    """The worker side of the master/worker protocol, for every
    agent: serve the master's messages on *conn* until ``stop``
    (or an injected ``disconnect``); a vanished master raises
    ``EOFError`` / ``OSError`` to the entry point.

    A ``task`` is a query batch (tuple of query indexes, with their job
    specs) crossed with a contiguous fragment range (tuple of pack
    names) tagged with the master's run epoch — every pack is scanned
    once for the whole batch and the per-(pack, query) results go back
    in one ``result`` message as the plain ``(name, query_index,
    SearchResults)`` list, the epoch echoed so the master can discard
    cross-run stragglers.  Pack management is the *holder*'s (see
    :class:`TokenPacks`), the only state an agent keeps between
    tasks; anything else gets the unknown-message error reply.

    PINGs are answered all the while (:class:`_Inbox`), each PONG
    naming the task held from its read until its reply is sent.
    *injector* arms deterministic faults, all at task receipt: ``hang``
    stalls holding the send lock (no PONG), ``slow`` and *task_sleep*
    (every task: a test and chaos hook that widens the window for
    mid-task faults) where the compute runs.
    """
    inbox = _Inbox(conn)
    try:
        while True:
            msg = inbox.get()
            kind = msg[0]
            if kind == "task":
                _, qis, names, epoch, specs = msg
                if injector is not None:
                    fault = injector.on_task(qis, holder.fragment_ids(names))
                    if fault is not None:
                        if fault.kind == "kill":
                            os._exit(_FAULT_EXIT)
                        elif fault.kind == "disconnect":
                            return          # close without a goodbye
                        elif fault.kind == "hang":
                            with conn.send_lock:
                                time.sleep(fault.stall)
                        elif fault.kind == "slow":
                            time.sleep(fault.stall)
                        elif fault.kind == "drop_result":
                            with conn.send_lock:    # serve nothing, say
                                conn.holding = None  # nothing, hold nothing
                            continue
                try:
                    if task_sleep > 0:
                        time.sleep(task_sleep)
                    pairs, elapsed, _ = execute_task(
                        holder.packs_for(names), dict(zip(qis, specs)),
                        qis, names)
                    out = ("result", rank, qis, names, pairs, elapsed, epoch)
                except Exception:
                    out = ("error", rank, qis, names, traceback.format_exc(),
                           epoch)
                with conn.send_lock:
                    conn.send(out)
                    conn.holding = None
            elif kind == "stop":
                conn.send(("stopped", rank))
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
                # Before the next read: a pack's bytes held across it
                # would pin the heap under the next payload (DESIGN.md
                # §5k).
                del msg
            else:
                conn.send(("error", rank, None, None,
                           f"unknown message {kind!r}", -1))
    finally:
        inbox.close()


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
            try:
                msg = conn.recv()
            except FrameError as exc:
                self._refuse(conn, str(exc))
                return
            if not (type(msg) is tuple and len(msg) == 2
                    and msg[0] == "hello" and type(msg[1]) is dict
                    and isinstance(msg[1].get("rank", 0), int)):
                self._refuse(conn, f"expected ('hello', {{..., 'rank': "
                                   f"int}}), got {reprlib.repr(msg)}")
                return
            if msg[1].get("proto") != PROTO_VERSION:
                conn.send(("error", -1, None, None,
                           f"protocol version mismatch: master speaks "
                           f"{msg[1].get('proto')!r}, node {self.node_id} "
                           f"speaks {PROTO_VERSION}", -1))
                return
            rank = msg[1].get("rank", 0)
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

    def _refuse(self, conn: FrameConnection, why: str) -> None:
        """End a session whose first message is no hello: one line on
        stderr, one error reply (if the peer still reads); the agent
        goes back to ``accept``."""
        print(f"repro-node {self.node_id}: refused a session: {why}",
              file=sys.stderr, flush=True)
        try:
            conn.send(("error", -1, None, None, why, -1))
        except OSError:
            pass

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

    The pump owns the bookkeeping — *alive* (the master's belief) and
    *busy* / *busy_since* / *busy_pings* (the ``(epoch, qis, names)``
    task in flight, when it was sent and how many PINGs went before it;
    pool-level, so a straggler from a previous run is still recognised
    across run boundaries; reset when a revive brings the slot back) —
    and talks through *conn*.  A few questions
    an implementation answers, or raises :class:`SlotLost`; besides the
    defaults below:
    ``is_alive()`` (does the transport still look up), ``kill()`` (stop
    a worker that stopped answering), ``lost()`` (declared dead: let go
    of the transport), ``install(prepared)`` (make the worker hold these
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
        self.busy: Optional[tuple] = None
        self.busy_since = 0.0
        self.busy_pings = 0

    def probe(self, now: float) -> None:
        """Check that the worker answers, busy or idle; the default
        probes nothing."""

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
    shipped once and remembered.  The worker, busy or idle, is PINGed
    every *heartbeat* seconds and lost after *node_timeout* of silence
    or when it answers without the task it was given.
    """

    def __init__(self, address, rank: int, *,
                 connect_attempts: int = 3,
                 heartbeat: float = 0.2,
                 node_timeout: float = 1.0):
        super().__init__(rank)
        self.address = parse_address(address)
        self.connect_attempts = max(1, int(connect_attempts))
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
            attempts=self.connect_attempts if attempts is None else attempts)

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

    def probe(self, now: float) -> None:
        """A worker is alive while it answers, busy or idle.  PINGs are
        paced by the heartbeat; PONGs refresh ``last_heard`` inside the
        connection's poll/recv.  Silence counts from the oldest
        unanswered PING: a worker that answered its last one is asked
        afresh, one that did not stays silent — across runs too, so a
        straggler that stopped answering is written off however short
        the runs are.  The connection is read before that judgement:
        between runs nobody reads, and a PONG that came in during the
        pause is an answer.  Each PONG names the task the agent holds;
        one answering a PING sent after this slot's task, read once
        every message before it was handled, that names another task
        means the reply will never come."""
        conn = self.conn
        if now - conn.last_ping >= self.heartbeat:
            try:
                conn.poll(0)
                if conn.last_heard > conn.last_ping:
                    self.asked_at = now
                conn.ping()
            except FrameError as exc:
                raise SlotLost("transport_error", str(exc)) from exc
            except OSError as exc:
                raise SlotLost() from exc
        silent = now - max(conn.last_heard, self.asked_at)
        if silent > self.node_timeout:
            raise SlotLost("heartbeat_lost",
                           f"silent {silent:.2f}s "
                           f"> {self.node_timeout:.2f}s")
        if self.busy is not None and conn.pongs > self.busy_pings \
                and not conn.queued and conn.peer_holding != self.busy:
            raise SlotLost("heartbeat_lost",
                           f"holds {conn.peer_holding!r}, not the task "
                           f"{self.busy!r}")

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
    if mp.parent_process() is not None:     # a fork, not an in-process call
        _release_inherited_sockets(sock)
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


def _release_inherited_sockets(keep: socket.socket) -> None:
    """Drop every socket the fork copied from the parent but *keep*.

    A forked agent inherits the master's other connections: its node
    sessions and the other workers' socketpair ends.  Holding a copy
    keeps a connection the master drops half-open — the agent at the
    far end never sees EOF and never returns to ``accept``.  Each one
    is replaced by ``/dev/null`` rather than closed, so its number
    stays taken: the parent's socket objects the child still carries
    would otherwise close whatever later reuses it.  The standard
    streams and non-socket descriptors (the resource tracker's pipe,
    the process sentinel) are kept.
    """
    fd_dir = "/proc/self/fd" if os.path.isdir("/proc/self/fd") else "/dev/fd"
    try:
        fds = [int(name) for name in os.listdir(fd_dir)]
    except OSError:  # pragma: no cover - no descriptor listing
        return
    devnull = os.open(os.devnull, os.O_RDWR)
    try:
        for fd in fds:
            if fd <= 2 or fd in (keep.fileno(), devnull):
                continue
            try:
                is_socket = stat.S_ISSOCK(os.fstat(fd).st_mode)
            except OSError:
                continue            # the listing's own descriptor
            if is_socket:
                os.dup2(devnull, fd)
    finally:
        os.close(devnull)


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

    def __init__(self, n: int, *,
                 plans: Optional[Sequence[Optional[FaultPlan]]] = None,
                 task_sleep: float = 0.0):
        if "fork" not in mp.get_all_start_methods():  # pragma: no cover
            raise RuntimeError("NodeFleet needs the fork start method")
        self._ctx = mp.get_context("fork")
        # Agents must inherit *this* process's resource tracker: forked
        # before one exists, each agent would lazily spawn its own,
        # which then "cleans up" (and warns about) the agent's segments
        # the moment the agent is killed — racing the supervisor reap.
        ensure_tracker()
        self.task_sleep = task_sleep
        self._plans = list(plans) if plans is not None else [None] * n
        self.socks: List[socket.socket] = []
        self.addresses: List[Tuple[str, int]] = []
        self.procs: List[Optional[mp.process.BaseProcess]] = [None] * n
        for _ in range(n):
            s = socket.socket()
            s.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            s.bind(("127.0.0.1", 0))
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
def run_node(host: str = "127.0.0.1", port: int = 0, *,
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
