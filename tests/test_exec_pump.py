"""The master's pump, driven in-process: scripted slots stand in for
workers, a stepped clock for time, and the blocking wait advances that
clock — no processes, no sockets, no sleeping.  The pump reads the
clock once per tick and hands ``now`` to every phase, so stepping the
clock is all it takes to walk a run through heartbeat loss, revive
pacing and the respawn budget, cross-run staleness, hedging, and the
loss of a fragment's last mirror."""

import warnings
from collections import deque
from types import SimpleNamespace

import numpy as np
import pytest

from repro.blast.score import NucleotideScore
from repro.blast.search import search_batch
from repro.blast.seqdb import NT, SequenceDB
from repro.exec import ExecPool, NodeClient, PoolJobError
from repro.exec.net import NodeConnectError
from repro.exec.nodes import WorkerSlot

TICK = 0.25                 # binary-exact, so stepped sums are too


class SteppedClock:
    def __init__(self, t=100.0):
        self.t = t

    def __call__(self):
        return self.t


class ScriptedConn:
    """A connection that answers each task *delay* stepped seconds
    after it was sent (``None``: never) and never answers a PING.
    *mark* is appended to every result it returns, to tell two
    answers to one task apart."""

    queued = 0
    closed = False
    mark = ""

    def __init__(self, clock, rank, delay=None):
        self.clock, self.rank, self.delay = clock, rank, delay
        self.sent = []
        self.due = []
        self.inbox = deque()
        self.pings = 0
        self.last_ping = 0.0
        self.last_heard = clock()

    def send(self, msg):
        self.sent.append(msg)
        if msg[0] == "task" and self.delay is not None:
            _, qis, names, epoch = msg
            pairs = [(name, qi, f"{name}/{qi}{self.mark}")
                     for name in names for qi in qis]
            self.due.append((self.clock() + self.delay,
                             ("result", self.rank, qis, names, pairs,
                              0.01, epoch)))

    def ping(self):
        self.pings += 1
        self.last_ping = self.clock()

    def deliver(self):
        now = self.clock()
        self.inbox.extend(m for t, m in self.due if t <= now)
        self.due = [(t, m) for t, m in self.due if t > now]
        return bool(self.inbox)

    def poll(self, timeout=0.0):
        return bool(self.inbox)

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
    pool = ExecPool(heartbeat=TICK, task_timeout=1e6, **kw)
    pool._workers.extend(slots)
    pool._started = True
    pool._clock = clock
    ticks = []

    def wait(conns, timeout):
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


class AnsweringConn(ScriptedConn):
    """A :class:`ScriptedConn` that answers each PING one tick later."""

    def __init__(self, clock, rank, delay=None):
        super().__init__(clock, rank, delay)
        self.pongs = []

    def ping(self):
        super().ping()
        self.pongs.append(self.clock() + TICK)

    def deliver(self):
        now = self.clock()
        if any(t <= now for t in self.pongs):
            self.last_heard = now
            self.pongs = [t for t in self.pongs if t > now]
        return super().deliver()


def test_a_pause_between_runs_is_not_a_heartbeat_loss():
    """Between runs nobody PINGs and nobody listens: an idle worker
    that answers as soon as it is asked again must not be declared
    lost because the previous run ended long ago."""
    clock = SteppedClock()
    worker = ScriptedSlot(0, clock, delay=0.5)
    node = NodeClient(("127.0.0.1", 1), 1, heartbeat=TICK, node_timeout=1.0)
    node.conn = AnsweringConn(clock, 1)
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
    specs = [SimpleNamespace(name=f"f{i}", total_residues=600,
                             source_ids=[3 * i, 3 * i + 1, 3 * i + 2])
             for i in range(2)]
    prep = pool._install_prepared(("scripted",), specs)
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
