"""The master's pump, driven in-process: scripted slots stand in for
workers, a stepped clock for time, and the blocking wait advances that
clock — no processes, no sockets, no sleeping.  The pump reads the
clock once per tick and hands ``now`` to every phase, so stepping the
clock is all it takes to walk a run through heartbeat loss, revive
pacing and the respawn budget, cross-run staleness, hedging, and the
loss of a fragment's last mirror."""

import pickle
import socket
import threading
import warnings
from collections import deque
from types import SimpleNamespace

import numpy as np
import pytest

from repro.blast.score import NucleotideScore
from repro.blast.search import search_batch
from repro.blast.seqdb import NT, SequenceDB
from repro.exec import ExecPool, NodeClient, PoolJobError
from repro.exec.net import (DATA, PING, FrameConnection, NodeConnectError,
                            encode_frame)
from repro.exec.nodes import WorkerSlot, serve_tasks

TICK = 0.25                 # binary-exact, so stepped sums are too


class SteppedClock:
    def __init__(self, t=100.0):
        self.t = t

    def __call__(self):
        return self.t


class ScriptedConn:
    """A connection that answers each task *delay* stepped seconds
    after it was sent (``None``: never).  By default it never answers a
    PING; with *answers* it answers each one *pong_delay* later (a
    tick by default), the PONG
    naming the task it holds (the last one sent whose answer was not due
    yet at the PING) — or nothing at all with *disowns*, an agent that
    let go of its task.  *mark* is appended to every result it returns,
    to tell two answers to one task apart."""

    queued = 0
    closed = False
    mark = ""

    def __init__(self, clock, rank, delay=None, answers=False,
                 disowns=False, pong_delay=TICK):
        self.clock, self.rank, self.delay = clock, rank, delay
        self.answers, self.disowns = answers, disowns
        self.pong_delay = pong_delay
        self.sent = []
        self.due = []
        self.inbox = deque()
        self.pings = self.pongs = 0
        self.peer_holding = None
        self.last_ping = 0.0
        self.last_heard = clock()
        self.holding, self.done_at = None, None
        self.pending_pongs = []

    def send(self, msg):
        self.sent.append(msg)
        if msg[0] == "task":
            _, qis, names, epoch, _specs = msg
            self.holding, self.done_at = (epoch, qis, names), None
            if self.delay is not None:
                self.done_at = self.clock() + self.delay
                pairs = [(name, qi, f"{name}/{qi}{self.mark}")
                         for name in names for qi in qis]
                self.due.append((self.done_at,
                                 ("result", self.rank, qis, names, pairs,
                                  0.01, epoch)))

    def ping(self):
        now = self.clock()
        self.pings += 1
        self.last_ping = now
        if self.answers:
            held = self.holding
            if self.disowns or (self.done_at is not None
                                and self.done_at <= now):
                held = None
            self.pending_pongs.append((now + self.pong_delay, held))

    def deliver(self):
        now = self.clock()
        for t, held in self.pending_pongs:
            if t <= now:
                self.pongs += 1
                self.peer_holding, self.last_heard = held, now
        self.pending_pongs = [p for p in self.pending_pongs if p[0] > now]
        self.inbox.extend(m for t, m in self.due if t <= now)
        self.due = [(t, m) for t, m in self.due if t > now]
        return bool(self.inbox)

    def poll(self, timeout=0.0):
        # A read, like a socket's: whatever is due arrives.
        return self.deliver()

    def recv(self):
        return self.inbox.popleft()

    def close(self):
        self.closed = True


class ScriptedSlot(WorkerSlot):
    """A healthy worker that cannot die and is never revived."""

    def __init__(self, rank, clock, delay):
        super().__init__(rank)
        self.conn = ScriptedConn(clock, rank, delay)
        self.alive = True

    def is_alive(self):
        return True

    def kill(self):
        pass

    def lost(self):
        pass

    def install(self, prepared):
        pass


def scripted_pool(clock, slots, **kw):
    """An ``ExecPool`` whose slots, clock and wait are the test's."""
    kw = {"jobs": 1, "hedge_after": 1e6, **kw}
    pool = ExecPool(heartbeat=TICK, **kw)
    pool._workers.extend(slots)
    pool._started = True
    pool._clock = clock
    ticks = []

    def wait(conns, timeout):
        assert len(ticks) < 4000, "the run never ended"
        ticks.append(clock.t)
        clock.t += timeout
        return [c for c in conns if c.deliver()]

    pool._wait = wait
    return pool, ticks


ONE_TASK = [(((0,), ("p0",)), 1.0)]


def test_idle_node_silent_past_node_timeout_is_lost_and_revived():
    clock = SteppedClock()
    worker = ScriptedSlot(0, clock, delay=2.0)
    node = NodeClient(("127.0.0.1", 1), 1, heartbeat=TICK, node_timeout=1.0)
    node.conn = first = ScriptedConn(clock, 1)      # connected, then mute
    node.alive = True
    dials = []

    def connect(attempts=None, hello_timeout=10.0):
        dials.append(clock.t)
        node.conn = ScriptedConn(clock, 1)

    node.connect = connect
    pool, ticks = scripted_pool(clock, [worker, node])
    try:
        results, stats = pool._run_tasks({0: None}, ONE_TASK)
        assert node.alive and node.conn is not first
    finally:
        pool.close()
    assert results == {0: {"p0": "p0/0"}}
    assert stats.heartbeat_losses == 1
    assert stats.worker_deaths == [1]
    assert stats.reconnects == stats.respawns == stats.respawn_attempts == 1
    kinds = [e.kind for e in pool.ledger.entries]
    assert kinds == ["heartbeat_lost", "worker_death", "reconnect"]
    # Declared lost on the first tick past the timeout, revived in the
    # same tick (liveness is settled before anything is dispatched).
    assert dials == [ticks[0] + 5 * TICK]
    assert first.closed
    # PINGs are paced by the heartbeat, one per tick at this tick size.
    assert first.pings == 6


def test_a_pause_between_runs_is_not_a_heartbeat_loss():
    """Between runs nobody PINGs and nobody listens: an idle worker
    that answers as soon as it is asked again must not be declared
    lost because the previous run ended long ago."""
    clock = SteppedClock()
    worker = ScriptedSlot(0, clock, delay=0.5)
    node = NodeClient(("127.0.0.1", 1), 1, heartbeat=TICK, node_timeout=1.0)
    node.conn = ScriptedConn(clock, 1, answers=True)
    node.alive = True
    pool, _ticks = scripted_pool(clock, [worker, node])
    try:
        pool._run_tasks({0: None}, ONE_TASK)
        clock.t += 10 * node.node_timeout       # the caller pauses
        results, stats = pool._run_tasks({0: None}, ONE_TASK)
        assert node.alive
    finally:
        pool.close()
    assert results == {0: {"p0": "p0/0"}}
    assert stats.heartbeat_losses == 0 and pool.ledger.entries == []


def _straggler(clock, pool, conn):
    """A live node slot on *conn*, still busy with a task of the run
    before the next one (its re-dial brings up a healthy node)."""
    node, dials = _node(clock, conn)
    node.busy = conn.holding = (pool._epoch, (0,), ("old",))
    node.busy_since = clock()
    return node, dials


def _short_runs_with_pauses(clock, pool, n_runs, pause=2.0):
    """*n_runs* runs of one 0.3 s task each, *pause* stepped seconds
    apart; their stats."""
    stats = []
    for _ in range(n_runs):
        results, run_stats = pool._run_tasks({0: None}, ONE_TASK)
        assert results == {0: {"p0": "p0/0"}}
        stats.append(run_stats)
        clock.t += pause
    return stats


def test_a_silent_straggler_is_lost_across_short_runs():
    """A worker still busy with an earlier run's task that stopped
    answering is written off once its silence passes node_timeout, even
    when every run is shorter than that: a pause between runs restarts
    the count only of a worker that answered its last PING."""
    clock = SteppedClock()
    worker = ScriptedSlot(0, clock, delay=0.3)
    pool, _ticks = scripted_pool(clock, [worker])
    node, dials = _straggler(clock, pool, ScriptedConn(clock, 1))
    pool._workers.append(node)
    try:
        stats = _short_runs_with_pauses(clock, pool, 3)
        assert node.alive and node.busy is None
    finally:
        pool.close()
    # Silent since the first run's PING: lost at the second run's first
    # tick, and revived in it.
    assert [s.heartbeat_losses for s in stats] == [0, 1, 0]
    assert [(e.kind, e.rank, e.task) for e in pool.ledger.entries] == [
        ("heartbeat_lost", 1, None), ("worker_death", 1, ((0,), ("old",))),
        ("reconnect", 1, None)]
    assert dials == [100.0 + 0.5 + 2.0]


def test_an_answering_straggler_is_kept_across_pauses():
    """The same straggler answering every PING over a slow link (each
    PONG three ticks behind its PING) is kept, busy, however long the
    pauses: a run ends with its PONGs still in flight, and they are
    read before the next run judges it."""
    clock = SteppedClock()
    worker = ScriptedSlot(0, clock, delay=0.3)
    pool, _ticks = scripted_pool(clock, [worker])
    conn = ScriptedConn(clock, 1, answers=True, pong_delay=3 * TICK)
    node, dials = _straggler(clock, pool, conn)
    pool._workers.append(node)
    try:
        stats = _short_runs_with_pauses(clock, pool, 3)
        assert conn.pending_pongs        # the last run's PONGs, in flight
        assert node.alive
    finally:
        pool.close()
    assert [s.heartbeat_losses for s in stats] == [0, 0, 0]
    assert pool.ledger.entries == [] and not dials
    assert node.busy == (0, (0,), ("old",))


def _node(clock, conn):
    """A live node slot on *conn* whose re-dial brings up a healthy
    node (answers PINGs, each task in one stepped second); the dial
    times land in the returned list."""
    node = NodeClient(("127.0.0.1", 1), 1, heartbeat=TICK, node_timeout=1.0)
    node.conn = conn
    node.alive = True
    dials = []

    def connect(attempts=None, hello_timeout=10.0):
        dials.append(clock.t)
        node.conn = ScriptedConn(clock, 1, delay=1.0, answers=True)

    node.connect = connect
    return node, dials


def test_a_busy_worker_that_answers_is_never_lost():
    """Liveness is an answer, not a clock: a task that takes 10 s of
    stepped time, on a worker answering every PING meanwhile (and
    naming the task), finishes with no death, no requeue and no
    fallback — even under the adaptive soft deadline, with nobody idle
    to hedge to."""
    clock = SteppedClock()
    conn = ScriptedConn(clock, 1, delay=10.0, answers=True)
    node, dials = _node(clock, conn)
    pool, ticks = scripted_pool(clock, [node], jobs=0,
                                nodes=["127.0.0.1:1"], hedge_after=None)
    try:
        results, stats = pool._run_tasks({0: None}, ONE_TASK)
        assert node.alive and not dials
    finally:
        pool.close()
    assert results == {0: {"p0": "p0/0"}}
    assert stats.worker_deaths == [] and stats.requeues == 0
    assert not stats.fallback and pool.ledger.entries == []
    assert ticks[-1] - ticks[0] == 10.0 - TICK
    # Busy or idle, the slot was PINGed every tick and it answered.
    assert conn.pings == len(ticks)
    assert conn.peer_holding == (pool._epoch, (0,), ("p0",))


def test_a_busy_worker_that_falls_silent_is_lost_and_its_task_requeued():
    clock = SteppedClock()
    silent = ScriptedConn(clock, 1)                 # never answers
    node, dials = _node(clock, silent)
    pool, ticks = scripted_pool(clock, [node], jobs=0,
                                nodes=["127.0.0.1:1"])
    try:
        results, stats = pool._run_tasks({0: None}, ONE_TASK)
    finally:
        pool.close()
    assert results == {0: {"p0": "p0/0"}}
    task = ((0,), ("p0",))
    assert [(e.kind, e.task) for e in pool.ledger.entries] == [
        ("heartbeat_lost", None), ("worker_death", task),
        ("requeue", task), ("reconnect", None)]
    assert silent.sent[-1][0] == "task" and silent.closed
    # Sent the task at the first tick, lost (and re-dialed) within
    # node_timeout plus one heartbeat of it.
    assert ticks[0] < dials[0] <= ticks[0] + node.node_timeout + TICK
    assert stats.heartbeat_losses == 1 and stats.requeues == 1


def test_a_pong_that_disowns_the_task_loses_the_worker():
    """A worker that answers but no longer holds its task (a dropped
    reply) will never answer the task: it is written off at the first
    PONG that answers a PING sent after the task, long before any
    silence would count."""
    clock = SteppedClock()
    node, dials = _node(clock, ScriptedConn(clock, 1, answers=True,
                                            disowns=True))
    pool, ticks = scripted_pool(clock, [node], jobs=0,
                                nodes=["127.0.0.1:1"])
    try:
        results, stats = pool._run_tasks({0: None}, ONE_TASK)
    finally:
        pool.close()
    assert results == {0: {"p0": "p0/0"}}
    lost = pool.ledger.entries[0]
    assert (lost.kind, lost.rank) == ("heartbeat_lost", 1)
    assert "holds None" in lost.detail
    # The PING of the dispatch tick went out before the task; the next
    # tick's PING is the first after it, answered a tick later.
    assert dials == [ticks[0] + 2 * TICK]
    assert stats.requeues == 1 and stats.worker_deaths == [1]


def test_a_ping_right_behind_a_task_is_answered_as_holding_it():
    """The agent's side: a PING that arrives in the same read as a
    ``task`` frame is answered after the task is read, so the PONG
    names the task — an agent busy computing it cannot be mistaken for
    one that dropped it."""
    ours, theirs = socket.socketpair()
    master = FrameConnection(ours, name="master")
    agent = FrameConnection(theirs, name="agent")
    release = threading.Event()

    class Holder:
        verbs = {}

        def packs_for(self, names):
            release.wait()
            raise LookupError("no packs here")

    serving = threading.Thread(target=serve_tasks,
                               args=(agent, 0, Holder()), daemon=True)
    serving.start()
    try:
        task = ("task", (0, 1), ("p0",), 7, [None, None])
        ours.sendall(encode_frame(DATA, 0, pickle.dumps(task))
                     + encode_frame(PING, 1))
        while master.pongs == 0:
            assert not master.poll(0.05)
        assert master.peer_holding == (7, (0, 1), ("p0",))
        release.set()
        reply = master.recv()
        assert reply[:4] == ("error", 0, (0, 1), ("p0",))
        master._send_seq = 2    # the raw frames above were 0 and 1
        master.ping()           # after the reply: the task is let go
        while master.pongs == 1:
            assert not master.poll(0.05)
        assert master.peer_holding is None
        master.send(("stop",))
        assert master.recv()[0] == "stopped"
        serving.join(timeout=5.0)
        assert not serving.is_alive()
    finally:
        release.set()
        master.close()
        agent.close()


def test_down_node_is_dialed_once_per_backoff_window_within_budget(
        monkeypatch):
    clock = SteppedClock()
    worker = ScriptedSlot(0, clock, delay=30.0)
    node = NodeClient(("127.0.0.1", 1), 1, heartbeat=TICK, node_timeout=1.0)
    dials = []

    def connect(attempts=None, hello_timeout=10.0):
        dials.append(clock.t)
        raise NodeConnectError("refused")

    node.connect = connect
    # A budget of four attempts: one per slot, plus the two spare.
    monkeypatch.setattr("repro.exec.pool._RESPAWNS_PER_SLOT", 1)
    pool, ticks = scripted_pool(clock, [worker, node])
    try:
        results, stats = pool._run_tasks({0: None}, ONE_TASK)
        assert not node.alive
    finally:
        pool.close()
    assert results == {0: {"p0": "p0/0"}}
    assert len(ticks) == 120
    # One dial per backoff window (0.2 s doubling, jitter only ever
    # lengthens it), each costing one unit of the respawn budget —
    # after which the node is left alone for the rest of the run.
    assert len(dials) == 4
    gaps = [b - a for a, b in zip(dials, dials[1:])]
    assert all(gap >= 0.2 * 2 ** (n + 1) - 1e-9
               for n, gap in enumerate(gaps))
    assert stats.respawn_attempts == 4 and stats.respawns == 0
    assert pool.ledger.summary() == {"reconnect_failed": 4}


def test_previous_epoch_result_is_stale_and_frees_the_slot():
    clock = SteppedClock()
    worker = ScriptedSlot(0, clock, delay=1.0)
    straggler = ScriptedSlot(1, clock, delay=None)
    pool, _ticks = scripted_pool(clock, [worker, straggler])
    epoch = pool._epoch             # the run below gets epoch + 1
    straggler.busy = (epoch, (0,), ("old",))
    straggler.busy_since = clock()
    straggler.conn.due.append(
        (clock() + 0.5, ("result", 1, (0,), ("old",),
                         [("old", 0, "old/0")], 0.01, epoch)))
    try:
        results, stats = pool._run_tasks({0: None}, ONE_TASK)
    finally:
        pool.close()
    assert results == {0: {"p0": "p0/0"}}       # "old" never merged
    assert stats.stale_results == 1 and stats.tasks_done == 1
    assert straggler.busy is None
    stale = [e for e in pool.ledger.entries if e.kind == "stale_result"]
    assert [(e.rank, e.task, e.detail) for e in stale] == \
        [(1, ((0,), ("old",)), "cross-run straggler")]


def test_overdue_task_is_hedged_to_the_idle_slot_and_the_loser_is_stale():
    clock = SteppedClock()
    slow = ScriptedSlot(0, clock, delay=2.0)
    idle = ScriptedSlot(1, clock, delay=0.5)
    other = ScriptedSlot(2, clock, delay=3.0)   # keeps the run open
    slow.conn.mark = " (late)"
    hedged, held = ((0,), ("p0",)), ((0,), ("p1",))
    pool, ticks = scripted_pool(clock, [slow, idle, other], hedge_after=1.0)
    try:
        results, stats = pool._run_tasks(
            {0: None}, [(hedged, 2.0), (held, 1.0)],
            affinity={hedged: (0, 1), held: (2,)})
    finally:
        pool.close()
    # The hedge's answer is the one merged; the late one changed nothing.
    assert results == {0: {"p0": "p0/0", "p1": "p1/0"}}
    assert stats.hedges == stats.hedge_wins == 1
    assert stats.stale_results == 1
    assert stats.tasks_done == stats.fragments_done == 2
    assert stats.requeues == 0 and not stats.worker_deaths
    assert [(e.kind, e.rank, e.task, e.detail)
            for e in pool.ledger.entries] == [
        ("hedge", 1, hedged, ""), ("hedge_win", 1, hedged, ""),
        ("stale_result", 0, hedged, "hedge loser")]
    assert slow.busy is None and idle.busy is None
    assert ticks[-1] - ticks[0] == 3.0 - TICK


@pytest.mark.parametrize("serial_fallback", [True, False])
def test_last_mirror_lost_fails_the_run_into_the_serial_fallback(
        serial_fallback):
    """Two nodes, replication 1: each fragment has one holder.  The
    holder of ``f1`` dies with its task in flight, the requeued task has
    nobody left to run on, and the job is served serially — or raised."""
    clock = SteppedClock()
    survivor = ScriptedSlot(0, clock, delay=1.0)
    mortal = ScriptedSlot(1, clock, delay=None)
    dies_at = clock() + 2 * TICK
    mortal.is_alive = lambda: clock() < dies_at
    pool, _ticks = scripted_pool(
        clock, [survivor, mortal], jobs=0, nodes=["127.0.0.1:1", "127.0.0.1:2"],
        replication=1, respawn=False, serial_fallback=serial_fallback)
    rng = np.random.default_rng(11)
    db = SequenceDB(NT)
    for i in range(6):
        db.add(f"s{i}", "".join(rng.choice(list("ACGT"), 200)))
    queries = [db.sequence(2)[20:140]]
    scheme = NucleotideScore()
    specs = [SimpleNamespace(name=f"f{i}", total_residues=600)
             for i in range(2)]
    prep = pool._install_prepared(("scripted",), specs,
                                  [[3 * i, 3 * i + 1, 3 * i + 2]
                                   for i in range(2)])
    assert prep.placement == {"f0": (0,), "f1": (1,)}
    pool._prepare = lambda *args: prep
    try:
        if serial_fallback:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", RuntimeWarning)
                got = pool.search_many(queries, db, scheme, query_ids=["q0"])
            serial = search_batch(queries, db, scheme, query_ids=["q0"])
            assert got[0].hits
            assert [r.tabular() for r in got] == \
                [r.tabular() for r in serial]
            assert len(caught) == 1 and "degraded" in str(caught[0].message)
        else:
            with pytest.raises(PoolJobError, match="lost the last node"):
                pool.search_many(queries, db, scheme, query_ids=["q0"])
        stats = pool.last_stats
    finally:
        pool.close()
    assert bool(stats.fallback) == serial_fallback
    assert stats.worker_deaths == [1] and stats.requeues == 1
    lost = ((0,), ("f1",))
    assert [(e.kind, e.rank, e.task) for e in pool.ledger.entries] == [
        ("worker_death", 1, lost), ("requeue", 1, lost),
        ("mirror_lost", None, lost)] + [("fallback", None, None)
                                        ] * serial_fallback
