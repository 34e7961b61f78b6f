"""The multi-core pool: byte-identical parallel search, dynamic
scheduling, worker-death requeue, retry exhaustion, and shared-memory
hygiene.  The agent session every worker runs is also driven
in-process over a socketpair, so its protocol is covered without a
subprocess."""

import dataclasses
import os
import signal
import socket
import threading

import numpy as np
import pytest

from repro.blast.scankernel import db_token
from repro.blast.score import NucleotideScore, ProteinScore
from repro.blast.search import (SearchParams, SearchResults,
                                merge_fragment_results, search)
from repro.blast.seqdb import AA, NT, SequenceDB
from repro.exec import (ExecPool, FrameConnection, GreedyScheduler,
                        PoolJobError, RetriesExceeded, plan_fragments)
from repro.exec.nodes import PROTO_VERSION, NodeAgent, _agent_main
from repro.exec.pool import JobSpec
from repro.exec.shm import ShmRegistry, pack_fragment, read_pack_bytes

from oracle_search import search_reference

NT_LETTERS = np.array(list("ACGT"))
AA_LETTERS = np.array(list("ARNDCQEGHILKMFPSTWYV"))


def diskpack_leftovers():
    """Build artifacts the streaming pack builder must never leak:
    spool directories and half-committed ``*.tmp`` files inside any
    store directory a builder of this process targeted."""
    from repro.exec import diskpack

    found = []
    for root in sorted(diskpack.build_roots()):
        if not os.path.isdir(root):
            continue
        for entry in sorted(os.listdir(root)):
            if (entry.startswith(diskpack.BUILD_DIR_PREFIX)
                    or entry.endswith(".tmp")):
                found.append(os.path.join(root, entry))
    return found


pytestmark = pytest.mark.usefixtures("no_segment_leaks")


@pytest.fixture(autouse=True)
def no_build_leftovers():
    yield
    assert diskpack_leftovers() == [], "test leaked pack build artifacts"


def random_nt_db(rng, n_seqs, min_len=5, max_len=300):
    db = SequenceDB(NT)
    for i in range(n_seqs):
        length = int(rng.integers(min_len, max_len))
        db.add(f"s{i} desc", "".join(NT_LETTERS[rng.integers(0, 4, length)]))
    return db


def random_aa_db(rng, n_seqs, min_len=5, max_len=200):
    db = SequenceDB(AA)
    for i in range(n_seqs):
        length = int(rng.integers(min_len, max_len))
        db.add(f"p{i}", "".join(AA_LETTERS[rng.integers(0, 20, length)]))
    return db


def dump(results):
    """Full byte-level result dump (every HSP field, hit order, ids)."""
    return (results.query_id, results.query_len, results.db_residues,
            results.db_sequences,
            [(h.subject_id, h.description, h.subject_len, h.fragment_id,
              [dataclasses.astuple(p) for p in h.hsps])
             for h in results.hits])


# ----------------------------------------------------------------------
# Scheduling
# ----------------------------------------------------------------------
def test_plan_fragments_partitions_everything():
    rng = np.random.default_rng(0)
    db = random_nt_db(rng, 23)
    bins = plan_fragments(db, 5)
    assert len(bins) == 5
    flat = sorted(i for b in bins for i in b)
    assert flat == list(range(23))
    # Greedy balance: no bin is empty for a 23-sequence database.
    assert all(b for b in bins)


def test_plan_fragments_clamps_and_validates():
    rng = np.random.default_rng(1)
    db = random_nt_db(rng, 3)
    assert len(plan_fragments(db, 10)) == 3
    assert plan_fragments(SequenceDB(NT), 4) == []
    with pytest.raises(ValueError):
        plan_fragments(db, 0)


def test_scheduler_heaviest_first_and_lifecycle():
    sched = GreedyScheduler([("a", 1.0), ("b", 5.0), ("c", 3.0)])
    assert sched.assign(0) == "b"
    assert sched.assign(1) == "c"
    assert not sched.done
    assert sched.complete(0) == "b"
    assert sched.assign(0) == "a"
    sched.complete(0)
    sched.complete(1)
    assert sched.done
    assert sched.assign(7) is None
    assert sorted(sched.completed) == ["a", "b", "c"]


def test_scheduler_requeues_at_front_with_bounded_retries():
    sched = GreedyScheduler([("a", 2.0), ("b", 1.0)], max_retries=1)
    assert sched.assign(0) == "a"
    assert sched.fail(0) == "a"          # retry 1: requeued at front
    assert sched.requeues == 1
    assert sched.assign(1) == "a"
    with pytest.raises(RetriesExceeded):
        sched.fail(1)                     # budget exhausted
    assert sched.fail(3) is None          # idle worker: nothing to fail
    assert sched.drop_pending() == 1      # "b" abandoned
    assert sched.done


def test_scheduler_rejects_duplicates_and_double_assign():
    with pytest.raises(ValueError):
        GreedyScheduler([("a", 1.0), ("a", 2.0)])
    with pytest.raises(ValueError):
        GreedyScheduler([], max_retries=-1)
    sched = GreedyScheduler([("a", 1.0), ("b", 1.0)])
    sched.assign(0)
    with pytest.raises(ValueError):
        sched.assign(0)


# ----------------------------------------------------------------------
# Equivalence with the serial engines
# ----------------------------------------------------------------------
def test_pool_matches_serial_nt_both_strands_many_fragments():
    rng = np.random.default_rng(2)
    db = random_nt_db(rng, 40)
    scheme = NucleotideScore()
    params = SearchParams(word_size=11)
    queries = [db.sequence(i)[:120].copy() for i in (3, 11, 27)]
    with ExecPool(jobs=2) as pool:
        for nf in (1, 3, 9):
            for qi, q in enumerate(queries):
                par = pool.search(q, db, scheme, params,
                                  query_id=f"q{qi}", n_fragments=nf)
                ser = search(q, db, scheme, params, query_id=f"q{qi}")
                ref = search_reference(q, db, scheme, params,
                                       query_id=f"q{qi}")
                assert dump(par) == dump(ser) == dump(ref)


def test_pool_matches_serial_protein():
    rng = np.random.default_rng(3)
    db = random_aa_db(rng, 30)
    scheme = ProteinScore()
    params = SearchParams(word_size=3, neighbor_threshold=11,
                          xdrop_ungapped=16)
    q = db.sequence(7)[:80].copy()
    with ExecPool(jobs=2) as pool:
        par = pool.search(q, db, scheme, params, both_strands=False,
                          n_fragments=6)
        assert dump(par) == dump(search(q, db, scheme, params,
                                        both_strands=False))


def test_pool_streaming_many_queries_one_pass():
    rng = np.random.default_rng(4)
    db = random_nt_db(rng, 35)
    scheme = NucleotideScore()
    params = SearchParams(word_size=11)
    queries = [db.sequence(i)[:100].copy() for i in range(0, 12, 2)]
    ids = [f"stream{i}" for i in range(len(queries))]
    with ExecPool(jobs=2) as pool:
        many = pool.search_many(queries, db, scheme, params, query_ids=ids,
                                n_fragments=5)
        assert len(many) == len(queries)
        for q, qid, res in zip(queries, ids, many):
            assert dump(res) == dump(search(q, db, scheme, params,
                                            query_id=qid))
        # The six queries fit one batch: one task per pack.
        assert pool.last_stats.tasks_done == 5
        assert pool.last_stats.fragments_done == 5


def test_pool_short_query_and_empty_db():
    rng = np.random.default_rng(5)
    db = random_nt_db(rng, 10)
    scheme = NucleotideScore()
    params = SearchParams(word_size=11)
    short = db.sequence(0)[:5].copy()      # shorter than the word size
    with ExecPool(jobs=1) as pool:
        assert dump(pool.search(short, db, scheme, params)) == \
               dump(search(short, db, scheme, params))
        empty = SequenceDB(NT)
        assert dump(pool.search(short, empty, scheme, params)) == \
               dump(search(short, empty, scheme, params))
        assert pool.search_many([], db, scheme, params) == []


def test_pool_keep_fragment_ids_and_pack_reuse():
    rng = np.random.default_rng(6)
    db = random_nt_db(rng, 20)
    scheme = NucleotideScore()
    params = SearchParams(word_size=11)
    q = db.sequence(2)[:150].copy()
    with ExecPool(jobs=1) as pool:
        tagged = pool.search(q, db, scheme, params, n_fragments=4,
                             keep_fragment_ids=True)
        frags = {h.fragment_id for h in tagged.hits}
        assert frags and frags <= set(range(4))
        # Same (db, k, nf) key: packs are prepared once and reused.
        pool.search(q, db, scheme, params, n_fragments=4)
        assert len(pool._prepared) == 1


def test_transient_pool_and_query_ids_validation():
    rng = np.random.default_rng(7)
    db = random_nt_db(rng, 15)
    scheme = NucleotideScore()
    params = SearchParams(word_size=11)
    q = db.sequence(1)[:90].copy()
    with ExecPool(jobs=1) as pool:
        assert dump(pool.search(q, db, scheme, params)) == \
               dump(search(q, db, scheme, params))
        with pytest.raises(ValueError):
            pool.search_many([q], db, scheme, params, query_ids=["a", "b"])


def test_pool_validation_and_close_semantics():
    with pytest.raises(ValueError):
        ExecPool(jobs=0)
    pool = ExecPool(jobs=1)
    assert (pool._heartbeat, pool.hedge_after,
            pool.task_sleep) == (0.2, None, 0.0)
    pool.close()
    pool.close()                           # idempotent
    pool = ExecPool(jobs=1, heartbeat=0.3, hedge_after=1.0,
                    task_sleep=0.5)
    assert (pool._heartbeat, pool.hedge_after,
            pool.task_sleep) == (0.3, 1.0, 0.5)
    pool.close()
    with pytest.raises(PoolJobError):
        pool.start()                       # closed pools do not restart


@pytest.mark.parametrize("keyword", ["n_fragments", "heartbeat",
                                     "hedge_after", "node_timeout"])
@pytest.mark.parametrize("value", [0, -1])
def test_pool_refuses_non_positive_counts_and_durations(keyword, value):
    """A fragment count or a duration of zero or less is a caller's
    error, refused before a worker starts — not a default in disguise
    (``--fragments 0`` was ignored) or a deadline every task misses.
    The constructor checks the durations, a search its fragment
    count."""
    if keyword != "n_fragments":
        with pytest.raises(ValueError, match=f"{keyword} must be positive"):
            ExecPool(jobs=1, **{keyword: value})
        return
    rng = np.random.default_rng(4)
    db = random_nt_db(rng, 4)
    pool = ExecPool(jobs=1)
    with pytest.raises(ValueError, match="n_fragments must be positive"):
        pool.search(db.sequence(0), db, NucleotideScore(), n_fragments=value)
    assert pool._workers == []
    pool.close()


def test_pool_refuses_zero_replication():
    """A mirror count under one is refused like the other pool numbers,
    not silently run with one copy; above the node count it is clamped
    (``plan_mirror_groups``)."""
    for value in (0, -2):
        with pytest.raises(ValueError, match="replication must be positive"):
            ExecPool(jobs=1, replication=value)
    pool = ExecPool(jobs=1, replication=5)
    assert pool.replication == 5
    pool.close()


# ----------------------------------------------------------------------
# Fault handling
# ----------------------------------------------------------------------
def test_kill_worker_mid_job_requeues_and_stays_byte_identical():
    rng = np.random.default_rng(8)
    db = random_nt_db(rng, 30, min_len=100, max_len=300)
    scheme = NucleotideScore()
    params = SearchParams(word_size=11)
    q = db.sequence(5)[:120].copy()
    serial = search(q, db, scheme, params)
    # Eight packs are eight tasks, so the kill lands while the victim
    # still holds work.
    with ExecPool(jobs=2, task_sleep=0.15) as pool:
        pool.start()
        victim = pool.worker_pids()[0]
        timer = threading.Timer(0.25, os.kill, (victim, signal.SIGKILL))
        timer.start()
        try:
            res = pool.search(q, db, scheme, params, n_fragments=8)
        finally:
            timer.cancel()
            timer.join()
        assert dump(res) == dump(serial)
        assert pool.last_stats.worker_deaths == [0]
        assert pool.last_stats.requeues >= 1
        # The survivor carries follow-up jobs alone.
        again = pool.search(q, db, scheme, params, n_fragments=8)
        assert dump(again) == dump(serial)
        assert pool.last_stats.worker_deaths == []


def test_all_workers_dead_fails_job_cleanly(monkeypatch):
    rng = np.random.default_rng(9)
    db = random_nt_db(rng, 20, min_len=100, max_len=300)
    scheme = NucleotideScore()
    params = SearchParams(word_size=11)
    q = db.sequence(3)[:120].copy()
    # Respawn and serial fallback are the new default recovery paths;
    # disable both to pin the PR 1 contract: losing every worker fails
    # the job cleanly instead of hanging or leaking.
    monkeypatch.setattr("repro.exec.pool._MAX_RETRIES", 0)
    with ExecPool(jobs=1, task_sleep=0.3,
                  respawn=False, serial_fallback=False) as pool:
        pool.start()
        pid = pool.worker_pids()[0]
        timer = threading.Timer(0.1, os.kill, (pid, signal.SIGKILL))
        timer.start()
        try:
            with pytest.raises(PoolJobError):
                pool.search(q, db, scheme, params, n_fragments=4)
        finally:
            timer.cancel()
            timer.join()
        assert pool.last_stats.worker_deaths == [0]
    # Context exit released every pack despite the failure (the autouse
    # fixture asserts /dev/shm is clean).


def test_worker_error_exhausts_retries_without_killing_pool(monkeypatch):
    rng = np.random.default_rng(10)
    db = random_nt_db(rng, 10)
    scheme = NucleotideScore()
    params = SearchParams(word_size=11)
    q = db.sequence(0)[:90].copy()
    monkeypatch.setattr("repro.exec.pool._MAX_RETRIES", 1)
    with ExecPool(jobs=1) as pool:
        pool.start()
        prep = pool._prepare(db, params.word_size, 4, 2)
        # Poison the job table: the worker raises on every task, which
        # must surface as a clean PoolJobError after retries.
        jobs = {0: None}
        tasks = [(((0,), (spec.name,)), 1.0) for spec in prep.specs]
        with pytest.raises(PoolJobError) as err:
            pool._run_tasks(jobs, tasks)
        assert "failed 2 times" in str(err.value)
        assert pool.last_stats.worker_errors >= 2
        # The pool survives worker errors (the worker never died).
        res = pool.search(q, db, scheme, params)
        assert dump(res) == dump(search(q, db, scheme, params))


def test_worker_killed_between_runs_is_ledgered_before_its_respawn():
    """A worker that dies between two searches is found by the next
    message the master sends it — here the ``detach`` of packs a
    mutated database made stale — and that is a death like any other:
    a ``worker_death`` line before its ``respawn``, and the search that
    follows byte-identical."""
    rng = np.random.default_rng(14)
    db = random_nt_db(rng, 20, min_len=100, max_len=300)
    scheme = NucleotideScore()
    params = SearchParams(word_size=11)
    q = db.sequence(4)[:120].copy()
    with ExecPool(jobs=2) as pool:
        first = pool.search(q, db, scheme, params)
        assert dump(first) == dump(search(q, db, scheme, params))
        victim = pool._workers[0].process
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=10.0)
        db.add("late", "ACGT" * 40)         # new version: packs are stale
        got = pool.search(q, db, scheme, params)
        ledger = [e.kind for e in pool.ledger.entries if e.rank == 0]
    assert dump(got) == dump(search(q, db, scheme, params))
    assert ledger == ["worker_death", "respawn"]


def test_tasks_longer_than_any_deadline_run_clean():
    """A worker is alive while it answers: tasks of 2.5 s each (longer
    than the 2 s the pool once called hung) finish with no death and
    the serial bytes; at most the later one is hedged."""
    rng = np.random.default_rng(15)
    db = random_nt_db(rng, 16, min_len=100, max_len=300)
    scheme = NucleotideScore()
    params = SearchParams(word_size=11)
    q = db.sequence(6)[:120].copy()
    with ExecPool(jobs=2, task_sleep=2.5) as pool:
        got = pool.search(q, db, scheme, params, n_fragments=2)
        stats = pool.last_stats
        kinds = {e.kind for e in pool.ledger.entries}
    assert dump(got) == dump(search(q, db, scheme, params))
    assert kinds <= {"hedge", "hedge_win", "stale_result"}
    assert stats.worker_deaths == [] and stats.tasks_done == 2
    assert not stats.fallback


def test_busy_worker_that_stops_answering_is_lost_and_respawned(
        monkeypatch):
    """A busy local worker SIGSTOPped mid-task answers no PING: it is
    killed (not waited out) once silent for ``node_timeout``, its task
    requeued, its slot respawned — output byte-identical."""
    rng = np.random.default_rng(15)
    db = random_nt_db(rng, 16, min_len=100, max_len=300)
    scheme = NucleotideScore()
    params = SearchParams(word_size=11)
    q = db.sequence(6)[:120].copy()
    monkeypatch.setattr("repro.exec.pool._JOIN_TIMEOUT", 0.2)
    with ExecPool(jobs=2, heartbeat=0.05, node_timeout=0.5,
                  hedge_after=100.0, task_sleep=1.0) as pool:
        pool.start()
        stopped = pool.worker_pids()[1]
        timer = threading.Timer(0.3, os.kill, (stopped, signal.SIGSTOP))
        timer.start()
        try:
            got = pool.search(q, db, scheme, params, n_fragments=2)
        finally:
            timer.join()
            try:
                os.kill(stopped, signal.SIGCONT)
            except ProcessLookupError:
                pass
        ledger = [(e.kind, e.rank) for e in pool.ledger.entries]
        assert pool.worker_pids()[1] != stopped
        assert len(pool.worker_pids()) == 2
    assert dump(got) == dump(search(q, db, scheme, params))
    assert ledger == [("heartbeat_lost", 1), ("worker_death", 1),
                      ("requeue", 1), ("respawn", 1)]


def test_idle_worker_that_stops_answering_is_lost_and_respawned(
        monkeypatch):
    """A stopped process keeps its socket open, so no EOF ever comes;
    an idle local worker is PINGed like a node, and one that misses
    its heartbeats is declared lost, killed and replaced while the
    other worker's task runs on — output byte-identical."""
    rng = np.random.default_rng(15)
    db = random_nt_db(rng, 16, min_len=100, max_len=300)
    scheme = NucleotideScore()
    params = SearchParams(word_size=11)
    q = db.sequence(6)[:120].copy()
    monkeypatch.setattr("repro.exec.pool._JOIN_TIMEOUT", 0.2)
    with ExecPool(jobs=2, heartbeat=0.05, node_timeout=0.5,
                  hedge_after=100.0, task_sleep=1.5) as pool:
        pool.start()
        stopped = pool.worker_pids()[1]
        os.kill(stopped, signal.SIGSTOP)
        try:
            # One task: rank 0 takes it, rank 1 stays idle (and silent).
            got = pool.search(q, db, scheme, params, n_fragments=1)
        finally:
            try:
                os.kill(stopped, signal.SIGCONT)
            except ProcessLookupError:
                pass
        ledger = [(e.kind, e.rank) for e in pool.ledger.entries]
        assert pool.worker_pids()[1] != stopped
    assert dump(got) == dump(search(q, db, scheme, params))
    assert ledger == [("heartbeat_lost", 1), ("worker_death", 1),
                      ("respawn", 1)]


# ----------------------------------------------------------------------
# The agent session, driven in-process over a socketpair
# ----------------------------------------------------------------------
def _job_for(db, q, scheme, params):
    from repro.blast.search import resolve_ka

    ka = resolve_ka(scheme, params, is_protein=False)
    return JobSpec(query=q, query_id="q", scheme=scheme, params=params,
                   both_strands=True, ka=ka,
                   effective_space=(len(q), db.total_residues))


def _session_replies(rank, script):
    """*script* through one ``NodeAgent._session`` over a socketpair —
    the session every worker runs, local or remote; everything the
    agent sends after its ``ready``."""
    agent = NodeAgent(None, node_id="proto")
    ours, theirs = socket.socketpair()
    session = threading.Thread(target=agent._session, args=(theirs,),
                               daemon=True)
    session.start()
    conn = FrameConnection(ours, name="master")
    try:
        conn.send(("hello", {"proto": PROTO_VERSION, "rank": rank}))
        kind, got_rank, info = conn.recv()
        assert (kind, got_rank, info["held"]) == ("ready", rank, [])
        for msg in script:
            conn.send(msg)
        replies = []
        while not replies or replies[-1][0] != "stopped":
            replies.append(conn.recv())
        return replies
    finally:
        conn.close()
        session.join(timeout=10.0)
        agent.close()


def _segment_mappings(name):
    with open("/proc/self/maps") as maps:
        return maps.read().count(name)


def test_worker_main_protocol_in_process():
    """One script through the one agent session, its packs brought in
    both ways — ``attach`` by shm name (a pool's local worker) and
    ``publish`` as bytes (a remote node): reply kinds, epoch echo,
    error texts, the goodbye and the result payload itself — a list of
    ``(name, qi, SearchResults)`` — are identical.  A task carries its
    queries' job specs; the agent keeps no query table, so a ``job``
    message is an unknown one."""
    rng = np.random.default_rng(11)
    db = random_nt_db(rng, 12)
    scheme = NucleotideScore()
    params = SearchParams(word_size=11)
    q = db.sequence(4)[:90].copy()
    serial = dump(search(q, db, scheme, params, query_id="q"))
    registry = ShmRegistry()
    specs = [pack_fragment(db.subset(ids, name=f"f{i}", fragment_id=i),
                           params.word_size, 4,
                           cache_token=(db_token(db), 0, i),
                           registry=registry)
             for i, ids in enumerate(plan_fragments(db, 2))]
    names = tuple(s.name for s in specs)
    job = _job_for(db, q, scheme, params)
    script = [
        ("task", (0,), names, 7, [job]),    # one task, two fragments
        ("task", (0,), ("no-such-pack",), 8, [job]),    # -> error reply
        ("bogus",),                         # -> unknown-message error
        ("job", 0, job),                    # -> unknown-message error
        ("detach", names[0]),
        ("detach", names[0]),               # idempotent re-detach
        ("stop",),
    ]
    loads = {"attach": [("attach", spec) for spec in specs],
             "publish": [("publish", spec, read_pack_bytes(spec))
                         for spec in specs]}
    seen = {}
    try:
        for verb, load in loads.items():
            # Loading every pack twice is idempotent either way.
            replies = _session_replies(3, load + load + script)
            assert [m[0] for m in replies] == \
                ["result", "error", "error", "error", "stopped"]
            result, bad_pack, bogus, old_job, stopped = replies
            assert result[1:4] == (3, (0,), names)
            assert len(result) == 7 and result[6] == 7  # epoch echoed
            pairs = result[4]
            assert type(pairs) is list
            assert [p[:2] for p in pairs] == [(n, 0) for n in names]
            assert all(type(p) is tuple and len(p) == 3
                       and type(p[2]) is SearchResults for p in pairs)
            merged = merge_fragment_results(
                {n: res for n, _qi, res in pairs},
                {s.name: list(s.source_ids) for s in specs},
                query_id="q", query_len=len(q),
                db_residues=db.total_residues, db_sequences=len(db),
                fragment_id=db.fragment_id)
            assert dump(merged) == serial
            assert bad_pack[1:4] == (3, (0,), ("no-such-pack",))
            assert "KeyError" in bad_pack[4] and bad_pack[5] == 8
            assert bogus[2:4] == (None, None) and bogus[5] == -1
            assert "unknown message 'bogus'" in bogus[4]
            assert old_job[2:4] == (None, None) and old_job[5] == -1
            assert "unknown message 'job'" in old_job[4]
            assert stopped == ("stopped", 3)
            # Everything but the elapsed time, results by their bytes.
            seen[verb] = [result[:4] + ([(n, qi, dump(r))
                                         for n, qi, r in pairs],
                                        result[6])] + replies[1:]
        assert seen["attach"] == seen["publish"]
    finally:
        for spec in specs:
            registry.release(spec.name)


def test_worker_main_eof_tears_down_packs():
    """A local worker's child entry point, run in-process: the master
    vanishing without a ``stop`` (EOF after one ``attach``) ends the
    session, and the agent lets go of the pack on its way out."""
    rng = np.random.default_rng(12)
    db = random_nt_db(rng, 8)
    registry = ShmRegistry()
    spec = pack_fragment(db, 11, 4, cache_token=(db_token(db), 0, 1),
                         registry=registry)
    ours, theirs = socket.socketpair()
    conn = FrameConnection(ours, name="master")
    handlers = {sig: signal.getsignal(sig)         # _agent_main sets both
                for sig in (signal.SIGTERM, signal.SIGINT)}
    try:
        assert _segment_mappings(spec.name) == 1     # the creator's
        conn.send(("hello", {"proto": PROTO_VERSION, "rank": 0}))
        conn.send(("attach", spec))
        ours.shutdown(socket.SHUT_WR)               # then EOF, no stop
        _agent_main(theirs, None, 0.0, "eof", connected=True)
        assert conn.recv()[0] == "ready"
        with pytest.raises(EOFError):
            conn.recv()
        assert _segment_mappings(spec.name) == 1
    finally:
        for sig, handler in handlers.items():
            signal.signal(sig, handler)
        conn.close()
        registry.release(spec.name)


def test_worker_main_reports_attach_failure():
    rng = np.random.default_rng(13)
    db = random_nt_db(rng, 6)
    registry = ShmRegistry()
    spec = pack_fragment(db, 11, 4, cache_token=(db_token(db), 0, 2),
                         registry=registry)
    registry.release(spec.name)             # segment gone before attach
    replies = _session_replies(1, [("attach", spec), ("stop",)])
    assert [m[0] for m in replies] == ["error", "stopped"]
    assert "FileNotFoundError" in replies[0][4]


def test_pool_cold_start_leaves_no_mmap_open(tmp_path):
    """The cold-start path maps each pack on the master only long enough
    to verify it and copy its ids (the agents map the files
    themselves): no disk mapping may survive _prepare in the master,
    and ExecPool.close() must not be holding pack-file descriptors
    either."""
    from repro.exec.diskpack import build_pack_store, open_pack_count

    rng = np.random.default_rng(21)
    db = random_nt_db(rng, 14)
    store = build_pack_store(db, str(tmp_path / "store"),
                             seqtype=NT, n_fragments=3)
    query = db.sequence(3)[:80].copy()
    params = SearchParams(word_size=11)

    def store_fds():
        fds = []
        for fd in os.listdir("/proc/self/fd"):
            try:
                target = os.readlink(f"/proc/self/fd/{fd}")
            except OSError:
                continue
            if str(tmp_path) in target:
                fds.append(target)
        return fds

    assert open_pack_count() == 0
    pool = ExecPool(jobs=2)
    try:
        got = pool.search(query, store, NucleotideScore(), params,
                          query_id="q")
        assert open_pack_count() == 0, "pool kept a disk pack mmapped"
        assert store_fds() == [], "pool kept pack-file descriptors open"
    finally:
        pool.close()
    assert open_pack_count() == 0
    assert store_fds() == []
    want = search(query, db, NucleotideScore(), params, query_id="q")
    assert dump(got) == dump(want)
