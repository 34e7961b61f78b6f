"""Multi-node execution: byte-identical remote search over localhost
socket nodes, ship-once pack caching, CEFT-style mirror survival of a
killed node, last-mirror loss degrading to serial, reconnect-adopt, and
the stray-transport sweep in ``ExecPool.close``."""

import dataclasses
import socket
import time
import warnings

import numpy as np
import pytest

from repro.blast.score import NucleotideScore
from repro.blast.search import SearchParams, search
from repro.blast.seqdb import NT, SequenceDB
from repro.exec import ExecPool, PoolJobError
from repro.exec.faults import Fault, FaultPlan
from repro.exec.nodes import NodeFleet

NT_LETTERS = np.array(list("ACGT"))


pytestmark = pytest.mark.usefixtures("no_segment_leaks")


def random_nt_db(rng, n_seqs, min_len=5, max_len=300):
    db = SequenceDB(NT)
    for i in range(n_seqs):
        length = int(rng.integers(min_len, max_len))
        db.add(f"s{i} desc", "".join(NT_LETTERS[rng.integers(0, 4, length)]))
    return db


def dump(results):
    return (results.query_id, results.query_len, results.db_residues,
            results.db_sequences,
            [(h.subject_id, h.description, h.subject_len, h.fragment_id,
              [dataclasses.astuple(p) for p in h.hsps])
             for h in results.hits])


def serial_many(queries, db, scheme, params):
    return [search(q, db, scheme, params, query_id=f"q{i}")
            for i, q in enumerate(queries)]


def make_case(seed, n_seqs=20, n_queries=3):
    rng = np.random.default_rng(seed)
    db = random_nt_db(rng, n_seqs)
    queries = [db.sequence(int(rng.integers(0, n_seqs)))[:100].copy()
               for _ in range(n_queries)]
    return db, queries, NucleotideScore(), SearchParams(word_size=11)


# ----------------------------------------------------------------------
# Remote equivalence and ship-once caching
# ----------------------------------------------------------------------
def test_two_nodes_byte_identity_and_ship_once():
    db, queries, scheme, params = make_case(31)
    expected = [dump(r) for r in serial_many(queries, db, scheme, params)]
    with NodeFleet(2) as fleet:
        with ExecPool(jobs=0, nodes=fleet.addresses, replication=2) as pool:
            got = pool.search_many(queries, db, scheme, params,
                                   query_ids=[f"q{i}" for i in
                                              range(len(queries))])
            assert [dump(r) for r in got] == expected
            stats1 = pool.node_ship_stats()
            # replication=2 on 2 nodes: every pack lives on both.
            assert all(s["packs_shipped"] > 0 for s in stats1)
            assert pool.last_stats.remote_results > 0
            assert not pool.last_stats.fallback

            # Second batch through the same pool: the packs are already
            # attached — not a byte reshipped.
            got2 = pool.search_many(queries, db, scheme, params,
                                    query_ids=[f"q{i}" for i in
                                               range(len(queries))])
            assert [dump(r) for r in got2] == expected
            stats2 = pool.node_ship_stats()
            assert [s["bytes_shipped"] for s in stats2] == \
                [s["bytes_shipped"] for s in stats1]
            assert pool.ledger.anomalies() == 0


def test_node_serves_every_fragment_count_of_one_database():
    """A pack's identity includes how the database was cut: after a
    3-way split, fragment 0 of a 9-way split is another pack, shipped
    rather than adopted under the first one's token."""
    db, queries, scheme, params = make_case(38, n_seqs=30)
    expected = [dump(r) for r in serial_many(queries, db, scheme, params)]
    qids = [f"q{i}" for i in range(len(queries))]
    with NodeFleet(1) as fleet:
        with ExecPool(jobs=0, nodes=fleet.addresses, replication=1) as pool:
            for nf in (1, 3, 9):
                got = pool.search_many(queries, db, scheme, params,
                                       query_ids=qids, n_fragments=nf)
                assert [dump(r) for r in got] == expected
            assert pool.node_ship_stats()[0]["packs_adopted"] == 0


def test_local_and_remote_mix_matches_serial():
    db, queries, scheme, params = make_case(32)
    expected = [dump(r) for r in serial_many(queries, db, scheme, params)]
    with NodeFleet(1) as fleet:
        with ExecPool(jobs=2, nodes=fleet.addresses) as pool:
            got = pool.search_many(queries, db, scheme, params,
                                   query_ids=[f"q{i}" for i in
                                              range(len(queries))])
            assert [dump(r) for r in got] == expected
            assert not pool.last_stats.fallback
            assert pool.last_stats.tasks_done > 0


# ----------------------------------------------------------------------
# Node loss: mirror survival, last-mirror degradation, reconnect-adopt
# ----------------------------------------------------------------------
def test_killed_node_is_served_by_its_mirror():
    """An injected kill (SIGKILL semantics, no goodbye) on one node
    mid-job: the task requeues onto the mirror that already holds the
    fragments — byte-identical output, no serial fallback."""
    db, queries, scheme, params = make_case(33)
    expected = [dump(r) for r in serial_many(queries, db, scheme, params)]
    plan = FaultPlan(faults=(Fault(kind="kill", task_index=0),))
    with NodeFleet(2, plans=[plan, None]) as fleet:
        with ExecPool(jobs=0, nodes=fleet.addresses, replication=2,
                      respawn=False, heartbeat=0.1) as pool:
            got = pool.search_many(queries, db, scheme, params,
                                   query_ids=[f"q{i}" for i in
                                              range(len(queries))])
            assert [dump(r) for r in got] == expected
            assert len(pool.last_stats.worker_deaths) >= 1
            assert pool.last_stats.requeues >= 1
            assert not pool.last_stats.fallback
            kinds = {e.kind for e in pool.ledger.entries}
            assert "worker_death" in kinds and "requeue" in kinds
            assert pool.ledger.anomalies() == 0


def test_last_mirror_lost_degrades_to_serial():
    """One node, replication 1, killed mid-job: the only holder of the
    fragments is gone.  The pool must degrade to the serial engine —
    byte-identical, never wrong or partial — and say so."""
    db, queries, scheme, params = make_case(34)
    expected = [dump(r) for r in serial_many(queries, db, scheme, params)]
    plan = FaultPlan(faults=(Fault(kind="kill", task_index=0),))
    with NodeFleet(1, plans=[plan]) as fleet:
        with ExecPool(jobs=0, nodes=fleet.addresses, replication=1,
                      respawn=False, heartbeat=0.1) as pool:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", RuntimeWarning)
                got = pool.search_many(queries, db, scheme, params,
                                       query_ids=[f"q{i}" for i in
                                                  range(len(queries))])
            assert [dump(r) for r in got] == expected
            assert pool.last_stats.fallback
            assert any("serial" in str(w.message) for w in caught)
            assert pool.ledger.summary().get("fallback", 0) == 1
            assert pool.ledger.anomalies() == 0


def test_last_mirror_lost_without_fallback_is_pool_failure():
    db, queries, scheme, params = make_case(35)
    plan = FaultPlan(faults=(Fault(kind="kill", task_index=0),))
    with NodeFleet(1, plans=[plan]) as fleet:
        with ExecPool(jobs=0, nodes=fleet.addresses, replication=1,
                      respawn=False, serial_fallback=False,
                      heartbeat=0.1) as pool:
            with pytest.raises(PoolJobError):
                pool.search_many(queries, db, scheme, params,
                                 query_ids=[f"q{i}" for i in
                                            range(len(queries))])


def test_disconnect_fault_reconnects_and_adopts_cached_packs():
    """A dropped connection (no goodbye) is not a dead node: the pool
    redials with backoff and the agent's identity-keyed pack cache
    turns the re-attach into an ``adopt`` — zero pack bytes reshipped."""
    db, queries, scheme, params = make_case(36)
    expected = [dump(r) for r in serial_many(queries, db, scheme, params)]
    plan = FaultPlan(faults=(Fault(kind="disconnect", task_index=0),))
    with NodeFleet(1, plans=[plan]) as fleet:
        with ExecPool(jobs=0, nodes=fleet.addresses, replication=1,
                      heartbeat=0.1) as pool:
            got = pool.search_many(queries, db, scheme, params,
                                   query_ids=[f"q{i}" for i in
                                              range(len(queries))])
            assert [dump(r) for r in got] == expected
            assert not pool.last_stats.fallback
            assert pool.last_stats.reconnects >= 1
            stats = pool.node_ship_stats()[0]
            assert stats["connects"] >= 2
            assert stats["packs_adopted"] > 0
            assert stats["bytes_saved"] > 0
            assert pool.ledger.anomalies() == 0


def test_fleet_respawn_reserves_same_port_and_reships():
    """A respawned agent is a fresh process (empty cache) on the same
    port: the next run reconnects and ships again — no stale adopt."""
    db, queries, scheme, params = make_case(37)
    expected = [dump(r) for r in serial_many(queries, db, scheme, params)]
    qids = [f"q{i}" for i in range(len(queries))]
    with NodeFleet(1) as fleet:
        addr = fleet.addresses[0]
        with ExecPool(jobs=0, nodes=fleet.addresses, replication=1,
                      heartbeat=0.1) as pool:
            got = pool.search_many(queries, db, scheme, params,
                                   query_ids=qids)
            assert [dump(r) for r in got] == expected
            shipped1 = pool.node_ship_stats()[0]["bytes_shipped"]
            fleet.kill(0)
            fleet.respawn(0)
            assert fleet.addresses[0] == addr
            got2 = pool.search_many(queries, db, scheme, params,
                                    query_ids=qids)
            assert [dump(r) for r in got2] == expected
            stats = pool.node_ship_stats()[0]
            assert stats["connects"] >= 2
            assert stats["bytes_shipped"] > shipped1


def test_mixed_pool_dropped_node_returns_to_accept():
    """A mixed pool (a local worker and a node) whose local worker is
    respawned — forked *after* the node's connection exists — and whose
    node then hangs, silent past ``node_timeout``, so the master drops
    it.
    The forked worker must not keep that connection half-open: once the
    node wakes it finds its master gone, returns to ``accept``, and a
    re-dial gets it back, adopting its cached packs."""
    db, queries, scheme, params = make_case(38)
    expected = [dump(r) for r in serial_many(queries, db, scheme, params)]
    qids = [f"q{i}" for i in range(len(queries))]
    stall = 3.0
    node_plan = FaultPlan(faults=(Fault(kind="hang", task_index=0,
                                        delay=stall),))
    local_plan = FaultPlan(faults=(Fault(kind="kill", rank=0,
                                         task_index=0),))
    t0 = time.monotonic()
    with NodeFleet(1, plans=[node_plan]) as fleet:
        with ExecPool(jobs=1, nodes=fleet.addresses, replication=1,
                      heartbeat=0.1, node_timeout=1.5, hedge_after=30.0,
                      fault_plan=local_plan) as pool:
            got = pool.search_many(queries, db, scheme, params,
                                   query_ids=qids)
            assert [dump(r) for r in got] == expected
            kinds = [(e.kind, e.rank) for e in pool.ledger.entries]
            assert kinds[:3] == [("worker_death", 0), ("requeue", 0),
                                 ("respawn", 0)]
            assert ("heartbeat_lost", 1) in kinds
            # Past the stall, the node has woken up to a dropped master.
            time.sleep(max(0.0, t0 + stall + 1.0 - time.monotonic()))
            got = pool.search_many(queries, db, scheme, params,
                                   query_ids=qids)
            assert [dump(r) for r in got] == expected
            assert pool._workers[1].alive
            stats = pool.node_ship_stats()[0]
            assert stats["connects"] >= 2
            assert stats["packs_adopted"] > 0
            assert pool.ledger.anomalies() == 0


# ----------------------------------------------------------------------
# close() hygiene (stray transports, half-open node sockets)
# ----------------------------------------------------------------------
def test_close_sweeps_transports_of_failed_spawn(monkeypatch):
    """A socketpair whose process never started must not leak: a
    refused fork closes both ends itself, since no worker slot will
    ever hold the transport."""
    pairs = []
    real_socketpair = socket.socketpair

    def recording_socketpair(*args, **kwargs):
        pairs.append(real_socketpair(*args, **kwargs))
        return pairs[-1]

    monkeypatch.setattr(socket, "socketpair", recording_socketpair)
    pool = ExecPool(jobs=1, serial_fallback=False)
    real_ctx = pool._ctx

    class _BoomProcess:
        def __init__(self, *a, **kw):
            pass

        def start(self):
            raise RuntimeError("fork refused")

    class _BoomCtx:
        def __getattr__(self, name):
            if name == "Process":
                return _BoomProcess
            return getattr(real_ctx, name)

    pool._ctx = _BoomCtx()
    try:
        with pytest.raises((RuntimeError, PoolJobError)):
            pool.start()
    finally:
        pool._ctx = real_ctx
        pool.close()
    assert pairs, "the refused spawn opened no socketpair"
    for end in (end for pair in pairs for end in pair):
        assert end.fileno() == -1


def test_close_aborts_node_client_outside_worker_slots():
    """A connection whose slot the master no longer believes alive (a
    revive that connected and then lost the race) must not survive
    close() as a half-open socket: every slot is stopped regardless of
    its state."""
    with NodeFleet(1) as fleet:
        pool = ExecPool(jobs=0, nodes=fleet.addresses,
                        serial_fallback=False)
        try:
            pool.start()
            client = pool._workers[0]
            assert client.alive and client.is_alive()
            # Simulate the race: the slot is written off, the
            # connection stays behind.
            client.alive = False
        finally:
            pool.close()
        assert client.conn is None or client.conn.closed


def test_unreachable_node_is_a_typed_failure(monkeypatch):
    """A configured node nobody listens on: start() must fail with
    PoolJobError after the bounded dial budget, never hang, and leave
    no half-open client."""
    s = socket.socket()
    s.bind(("127.0.0.1", 0))
    addr = s.getsockname()[:2]
    s.close()                          # port is now closed: refused dials
    monkeypatch.setattr("repro.exec.pool._NODE_CONNECT_ATTEMPTS", 1)
    pool = ExecPool(jobs=0, nodes=[addr], serial_fallback=False)
    try:
        with pytest.warns(RuntimeWarning, match="unreachable"):
            with pytest.raises(PoolJobError):
                pool.start()
        assert pool.ledger.summary().get("node_unreachable", 0) >= 1
    finally:
        pool.close()
    assert pool._workers
    for client in pool._workers:
        assert client.conn is None or client.conn.closed
