"""Worker-node agent and master-side node client.

This module takes the execution pool across the machine boundary: a
:class:`NodeAgent` is a long-lived process (``repro-node`` / ``python
-m repro.cli node``) that listens on a TCP socket, accepts a master's
session, receives fragment packs **once** as raw bytes (republished
locally through :func:`~repro.exec.shm.publish_pack_bytes`, CRC-checked
field by field), and then serves ``(query batch, fragment range)``
tasks with exactly the same execution core as a local pipe worker —
byte-identical results by construction.

Pack caching is the CEFT mirroring substrate: the agent keys every
received pack by its ``(token, version, fragment_id)`` identity and
keeps it across sessions, so a master that reconnects after a network
drop ships nothing — the hello reply lists the held identities and the
master sends a tiny ``adopt`` instead of megabytes of pack bytes (a
re-read, not a re-ship).

The master side is :class:`NodeClient` (dial with bounded backoff,
hello handshake, ship-or-adopt accounting) and :class:`_NodeProcess`, a
duck-typed stand-in for ``multiprocessing.Process`` so a remote worker
slots into the pool's existing ``_Worker`` bookkeeping — liveness
sweeps, hang kills, and close() escalation all reuse one code path.

:class:`NodeFleet` spawns local agents for tests, chaos sweeps, CI and
benchmarks: the parent keeps each listening socket open, so respawning
a killed agent re-serves the *same* port with no rebind race, and
reaps any shared-memory segments a SIGKILLed agent left behind.
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

from repro.blast.scankernel import ScanCache
from repro.blast.search import search_batch
from repro.exec.faults import FaultInjector, FaultPlan
from repro.exec.net import (FrameConnection, FrameError, NodeConnectError,
                            connect_backoff, pack_wire_meta, parse_address)
from repro.exec.results import encode_result_pairs
from repro.exec.shm import (AttachedPack, PackDB, PackIntegrityError,
                            ShmRegistry, ensure_tracker, publish_pack_bytes,
                            read_pack_bytes)

#: Wire protocol version, negotiated in the hello handshake.
PROTO_VERSION = 1

#: Exit code of an injected ``kill`` fault (SIGKILL semantics, no
#: cleanup) — mirrors the pipe worker's ``_FAULT_EXIT``.
_FAULT_EXIT = 86


def execute_task(packs, jobs, qis, names, cache):
    """Scan a fragment range for a query batch.

    The execution core shared by the pipe worker loop
    (:func:`repro.exec.pool._worker_main`) and the socket node agent:
    *packs* maps pack name → ``(AttachedPack, PackDB)``, *jobs* maps
    query index → job spec.  Returns ``(pairs, elapsed, fragment_ids)``
    where *pairs* is the ``(name, query_index, SearchResults)`` list a
    result message carries.
    """
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


# ----------------------------------------------------------------------
# Node side
# ----------------------------------------------------------------------
class NodeAgent:
    """A worker-node daemon serving pool tasks over a socket.

    One session at a time (the paper's topology: each node serves one
    master), but the agent outlives sessions: a master that stops or
    vanishes returns the agent to ``accept``, and the pack cache —
    keyed by ``(token, version, fragment_id)`` — survives, which is
    what makes a reconnect a re-read instead of a re-ship.

    *fault_plan* arms the same deterministic faults as a pipe worker
    plus the network kinds (``disconnect`` / ``partition`` / ``delay``
    / ``reorder``) applied at result-send time; ``None`` in
    production.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 listen_sock: Optional[socket.socket] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 task_sleep: float = 0.0,
                 cache_entries: int = 1024,
                 cache_bytes: int = 1 << 40,
                 node_id: Optional[str] = None):
        if listen_sock is None:
            listen_sock = socket.socket()
            listen_sock.setsockopt(socket.SOL_SOCKET,
                                   socket.SO_REUSEADDR, 1)
            listen_sock.bind((host, port))
            listen_sock.listen(8)
        self._lsock = listen_sock
        self.address: Tuple[str, int] = listen_sock.getsockname()[:2]
        self.node_id = node_id or f"node-{os.getpid()}"
        self.task_sleep = task_sleep
        self.fault_plan = fault_plan
        self._registry = ShmRegistry()
        self._cache = ScanCache(max_entries=cache_entries,
                                max_bytes=cache_bytes)
        #: cache_token -> (local PackSpec, AttachedPack, PackDB)
        self._store: Dict[tuple, tuple] = {}
        #: master-side pack name -> cache_token (task messages address
        #: packs by the *master's* segment names)
        self._aliases: Dict[str, tuple] = {}
        self.sessions_served = 0
        self.tasks_served = 0
        self._shutdown = False
        #: Created at the first hello and kept across sessions: a
        #: ``once`` fault must fire once per agent *process*, not once
        #: per session — re-arming on every reconnect would poison the
        #: faulted task forever (the same rule that makes the pool's
        #: local respawns healthy).  A fresh agent (fleet respawn)
        #: naturally re-arms, which keeps seeded chaos plans finite.
        self._injector: Optional[FaultInjector] = None

    # -- pack cache ----------------------------------------------------
    def held_tokens(self) -> List[tuple]:
        return list(self._store)

    def _release_token(self, token: tuple) -> None:
        entry = self._store.pop(token, None)
        if entry is None:
            return
        spec, pack, db = entry
        self._cache.evict(db._scan_token)
        del db, entry
        pack.close()
        self._registry.release(spec.name)

    def _packs_for(self, names) -> Dict[str, tuple]:
        out = {}
        for name in names:
            spec, pack, db = self._store[self._aliases[name]]
            out[name] = (pack, db)
        return out

    # -- serving -------------------------------------------------------
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
        conn = FrameConnection(sock, name="master")
        rank = -1
        injector: Optional[FaultInjector] = None
        jobs: Dict[int, object] = {}
        held_result: Optional[tuple] = None   # reorder-fault holdback
        try:
            while True:
                msg = conn.recv()
                kind = msg[0]
                if kind == "hello":
                    info = msg[1] if len(msg) > 1 else {}
                    rank = int(info.get("rank", 0))
                    if self.fault_plan is not None:
                        if self._injector is None:
                            self._injector = FaultInjector(self.fault_plan,
                                                           rank)
                        injector = self._injector
                    conn.send(("ready", rank, {
                        "node": self.node_id,
                        "proto": PROTO_VERSION,
                        "pid": os.getpid(),
                        "held": self.held_tokens(),
                    }))
                elif kind == "publish":
                    meta, data = msg[1], msg[2]
                    token = tuple(meta["cache_token"])
                    try:
                        if injector is not None:
                            fault = injector.on_attach(meta["fragment_id"])
                            if fault is not None:
                                data = bytearray(data)
                                mid = len(data) // 2
                                for pos in range(mid, min(len(data),
                                                          mid + 8)):
                                    data[pos] ^= 0xFF
                        if token not in self._store:
                            spec = publish_pack_bytes(
                                data, meta["arrays"], meta["checksums"],
                                seqtype=meta["seqtype"], cache_token=token,
                                fragment_id=meta["fragment_id"],
                                k=meta["k"], base=meta["base"],
                                n_sequences=meta["n_sequences"],
                                total_residues=meta["total_residues"],
                                source_ids=meta["source_ids"],
                                size=meta["size"], registry=self._registry)
                            pack = AttachedPack(spec, verify=False)
                            db = PackDB(pack)
                            self._cache.put(db, spec.k, spec.base,
                                            pack.structs)
                            self._store[token] = (spec, pack, db)
                        self._aliases[meta["name"]] = token
                    except PackIntegrityError as exc:
                        conn.send(("integrity", rank, meta["name"],
                                   str(exc)))
                    except Exception:
                        conn.send(("error", rank, None, meta["name"],
                                   traceback.format_exc(), -1))
                elif kind == "adopt":
                    name, token = msg[1], tuple(msg[2])
                    if token in self._store:
                        self._aliases[name] = token
                    else:
                        conn.send(("error", rank, None, name,
                                   f"pack {token!r} is not cached on "
                                   f"{self.node_id}", -1))
                elif kind == "detach":
                    token = self._aliases.pop(msg[1], None)
                    if (token is not None
                            and token not in self._aliases.values()):
                        self._release_token(token)
                elif kind == "job":
                    jobs[msg[1]] = msg[2]
                elif kind == "forget_job":
                    jobs.pop(msg[1], None)
                elif kind == "task":
                    qis, names = msg[1], msg[2]
                    epoch = msg[3] if len(msg) > 3 else 0
                    frag_ids = tuple(
                        self._store[self._aliases[n]][0].fragment_id
                        if n in self._aliases else None for n in names)
                    if injector is not None:
                        fault = injector.on_task(qis, frag_ids)
                        if fault is not None:
                            if fault.kind == "kill":
                                os._exit(_FAULT_EXIT)
                            elif fault.kind in ("hang", "slow"):
                                time.sleep(fault.stall)
                            if fault.kind == "drop_result":
                                continue    # serve nothing, say nothing
                    try:
                        if self.task_sleep > 0:
                            time.sleep(self.task_sleep)
                        pairs, elapsed, _ = execute_task(
                            self._packs_for(names), jobs, qis, names,
                            self._cache)
                        out = ("result", rank, qis, names,
                               ("blob", encode_result_pairs(pairs)),
                               elapsed, epoch)
                        self.tasks_served += 1
                    except Exception:
                        out = ("error", rank, qis, names,
                               traceback.format_exc(), epoch)
                    if injector is not None:
                        nf = injector.on_result(qis, frag_ids)
                        if nf is not None:
                            if nf.kind == "disconnect":
                                return      # close without a goodbye
                            if nf.kind in ("partition", "delay"):
                                # Silent for the stall: no result, no
                                # heartbeat replies (we are not in
                                # recv), then resume as if healed.
                                time.sleep(nf.stall)
                            elif nf.kind == "reorder":
                                held_result = out
                                continue
                    conn.send(out)
                    if held_result is not None:
                        conn.send(held_result)   # delivered out of order
                        held_result = None
                elif kind == "stop":
                    if held_result is not None:
                        conn.send(held_result)
                        held_result = None
                    conn.send(("stopped", rank, {
                        "node": self.node_id, "rank": rank,
                        "tasks": self.tasks_served,
                        "held": len(self._store),
                    }))
                    return
                else:
                    conn.send(("error", rank, None, None,
                               f"unknown message {kind!r}", -1))
        except (EOFError, OSError, FrameError):
            return          # master went away; keep cache, re-accept
        finally:
            conn.close()

    def close(self) -> None:
        """Release every cached pack and the listening socket."""
        self._shutdown = True
        for token in list(self._store):
            try:
                self._release_token(token)
            except Exception:  # pragma: no cover - teardown best effort
                pass
        try:
            self._lsock.close()
        except OSError:  # pragma: no cover
            pass


# ----------------------------------------------------------------------
# Master side
# ----------------------------------------------------------------------
class NodeClient:
    """Master-side handle on one worker node.

    Owns the dial/backoff/hello lifecycle and the ship-or-adopt
    decision: packs whose identity the node already reported holding
    are adopted (bytes saved — the mirror re-read), everything else is
    shipped once and remembered.
    """

    def __init__(self, address, rank: int, *,
                 connect_attempts: int = 3,
                 connect_timeout: float = 2.0,
                 backoff_base: float = 0.05):
        self.address = parse_address(address)
        self.rank = rank
        self.connect_attempts = max(1, int(connect_attempts))
        self.connect_timeout = connect_timeout
        self.backoff_base = backoff_base
        self.conn: Optional[FrameConnection] = None
        self.node_info: dict = {}
        self.held: set = set()
        self.connects = 0
        self.packs_shipped = 0
        self.packs_adopted = 0
        self.bytes_shipped = 0
        self.bytes_saved = 0
        #: Reconnect pacing (pool-side): next attempt not before
        #: *retry_at*, with *retry_n* driving the exponential backoff.
        self.retry_n = 0
        self.retry_at = 0.0

    @property
    def alive(self) -> bool:
        return self.conn is not None and not self.conn.closed

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
        sock = connect_backoff(
            self.address,
            attempts=self.connect_attempts if attempts is None else attempts,
            base_delay=self.backoff_base, timeout=self.connect_timeout)
        conn = FrameConnection(sock, name=f"node{self.rank}@{self.label}")
        try:
            conn.send(("hello", {"proto": PROTO_VERSION,
                                 "rank": self.rank}))
            if not conn.poll(hello_timeout):
                raise NodeConnectError(
                    f"node {self.label} accepted but did not answer "
                    f"hello within {hello_timeout}s")
            msg = conn.recv()
            if not (isinstance(msg, tuple) and msg
                    and msg[0] == "ready"):
                raise NodeConnectError(
                    f"node {self.label} answered {msg!r}, expected ready")
        except NodeConnectError:
            conn.close()
            raise
        except (EOFError, OSError, FrameError) as exc:
            conn.close()
            raise NodeConnectError(
                f"handshake with node {self.label} failed: {exc}") from exc
        except BaseException:
            conn.close()
            raise
        self.conn = conn
        self.node_info = msg[2] if len(msg) > 2 else {}
        self.held = {tuple(t) for t in self.node_info.get("held", ())}
        self.connects += 1
        self.retry_n = 0
        return self.node_info

    def ship(self, spec, data: Optional[bytes] = None) -> int:
        """Make the node hold *spec*'s pack under the master's name.

        Returns the bytes actually sent over the wire: the full data
        region on a cold ship, ~0 for an ``adopt`` of an identity the
        node caches (the reconnect / mirror fast path).
        """
        if self.conn is None:
            raise OSError("node client is not connected")
        if spec.cache_token in self.held:
            self.conn.send(("adopt", spec.name, spec.cache_token))
            self.packs_adopted += 1
            self.bytes_saved += spec.size
            return 0
        payload = bytes(data) if data is not None else read_pack_bytes(spec)
        self.conn.send(("publish", pack_wire_meta(spec), payload))
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


class _NodeProcess:
    """Duck-typed ``multiprocessing.Process`` stand-in over a
    :class:`NodeClient`, so remote workers ride the pool's existing
    ``_Worker`` bookkeeping (liveness sweep, hang kill, close
    escalation) unchanged.  "Kill" means "drop the connection": the
    agent process on the far node is not ours to signal."""

    def __init__(self, client: NodeClient):
        self._client = client

    @property
    def pid(self) -> Optional[int]:
        return self._client.node_info.get("pid")

    @property
    def exitcode(self) -> Optional[int]:
        return None if self._client.alive else 0

    def is_alive(self) -> bool:
        return self._client.alive

    def terminate(self) -> None:
        self._client.abort()

    def kill(self) -> None:
        self._client.abort()

    def join(self, timeout: Optional[float] = None) -> None:
        return None


# ----------------------------------------------------------------------
# Local fleets (tests / chaos / CI / benchmarks)
# ----------------------------------------------------------------------
def _agent_main(lsock: socket.socket, fault_plan: Optional[FaultPlan],
                task_sleep: float, node_id: Optional[str]) -> None:
    """Forked-child entry point: serve on an inherited listen socket."""
    # SIGTERM must run atexit (the agent's ShmRegistry unlinks its
    # segments there); the default handler would skip it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    ensure_tracker()
    agent = NodeAgent(listen_sock=lsock, fault_plan=fault_plan,
                      task_sleep=task_sleep, node_id=node_id)
    try:
        agent.serve()
    except SystemExit:
        raise
    finally:
        agent.close()


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
            if old.is_alive():
                old.terminate()
            old.join(timeout=5.0)
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
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - SIGTERM immune
                proc.kill()
                proc.join(timeout=5.0)
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
