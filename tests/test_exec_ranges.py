"""Pool tasks — one pack for one query batch — and the pool
behaviours that ride on them: exact task accounting, EMA hygiene,
send-failure death accounting, and the respawn attempt budget.  Also
unit tests of three things no runtime path uses any more, which stay
while ``perf/harness/layers.py`` times them: the overhead-aware range
planner ``plan_task_ranges`` (the runtime builds one task per pack),
the columnar result codec and the result arena."""

import dataclasses
import os
import signal
import threading

import numpy as np
import pytest

from repro.blast.score import NucleotideScore
from repro.blast.search import SearchParams, search, search_batch
from repro.blast.seqdb import AA, NT, SequenceDB
from repro.exec import (ExecPool, Fault, FaultPlan, PackIntegrityError,
                        ResultArena, decode_result_pairs,
                        encode_result_pairs, estimate_payload_size,
                        plan_task_ranges)
from repro.exec.net import NodeConnectError
from repro.exec.pool import _LocalSlot
from repro.exec.shm import ShmRegistry, own_segments


NT_LETTERS = np.array(list("ACGT"))
AA_LETTERS = np.array(list("ARNDCQEGHILKMFPSTWYV"))


pytestmark = pytest.mark.usefixtures("no_segment_leaks")


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
# The range planner (perf/harness/layers.py's shadow pool only)
# ----------------------------------------------------------------------
def test_plan_explicit_granularity_chunks_in_order():
    assert plan_task_ranges([1.0] * 5, 1, 2, granularity=2) == \
        [(0, 1), (2, 3), (4,)]
    assert plan_task_ranges([1.0] * 3, 1, 2, granularity=1) == \
        [(0,), (1,), (2,)]
    # granularity is clamped up to 1, and oversize chunks collapse.
    assert plan_task_ranges([1.0] * 3, 1, 2, granularity=0) == \
        [(0,), (1,), (2,)]
    assert plan_task_ranges([1.0] * 3, 1, 2, granularity=99) == [(0, 1, 2)]
    assert plan_task_ranges([], 1, 2) == []


def test_plan_covers_every_index_exactly_once():
    rng = np.random.default_rng(0)
    for n in (1, 2, 3, 7, 16, 33):
        for jobs in (1, 2, 4, 8):
            for n_queries in (1, 3):
                weights = rng.integers(1, 1000, n).astype(float).tolist()
                ranges = plan_task_ranges(weights, n_queries, jobs)
                flat = [i for r in ranges for i in r]
                assert flat == list(range(n)), (n, jobs, n_queries)
                assert all(r == tuple(range(r[0], r[-1] + 1))
                           for r in ranges), "ranges must be contiguous"


def test_plan_amortizes_small_work_into_few_tasks():
    # The benchmark scenario that measured 0.83x: 1M residues over 4
    # fragments at 2 workers used to be 4 dispatch round-trips; the
    # planner folds it to one range per worker.
    assert plan_task_ranges([250_000.0] * 4, 1, 2) == [(0, 1), (2, 3)]
    # Tiny corpus, many workers: capacity still feeds every worker.
    assert len(plan_task_ranges([100.0] * 8, 1, 4)) == 4
    # Tiny corpus, one worker: a single task (no overhead to amortize).
    assert plan_task_ranges([100.0] * 6, 1, 1) == [(0, 1, 2, 3, 4, 5)]


def test_plan_is_weight_aware():
    # One fat fragment up front: the first cut must come early so the
    # fat fragment does not drag half the light ones with it.
    ranges = plan_task_ranges([1000.0, 1.0, 1.0, 1.0, 1.0, 1.0], 1, 2,
                              overhead_s=1e-9)
    assert ranges[0] == (0,)
    # Plenty of work: balance targets ~2 tasks per worker.
    big = plan_task_ranges([10e6] * 16, 1, 4)
    assert len(big) == 8


# ----------------------------------------------------------------------
# The result codec
# ----------------------------------------------------------------------
def _searched_pairs():
    rng = np.random.default_rng(21)
    db = random_nt_db(rng, 20, min_len=80, max_len=300)
    q = db.sequence(3)[:120].copy()
    res = search(q, db, NucleotideScore(), SearchParams(word_size=11),
                 query_id="q3")
    assert res.hits, "codec test needs real hits"
    return [("pack-a", 0, res)]


def test_result_codec_round_trips_exactly():
    pairs = _searched_pairs()
    blob = encode_result_pairs(pairs)
    back = decode_result_pairs(blob)
    assert len(back) == 1 and back[0][:2] == ("pack-a", 0)
    assert dump(back[0][2]) == dump(pairs[0][2])
    # Including float fields to the last ULP.
    orig = [p for h in pairs[0][2].hits for p in h.hsps]
    got = [p for h in back[0][2].hits for p in h.hsps]
    assert all(a.evalue == b.evalue and a.bit_score == b.bit_score
               for a, b in zip(orig, got))


def test_result_codec_empty_and_multi_pack():
    from repro.blast.search import SearchResults

    empty = SearchResults(query_id="e", query_len=7, db_residues=0,
                          db_sequences=0)
    pairs = _searched_pairs() + [("pack-b", 5, empty)]
    back = decode_result_pairs(encode_result_pairs(pairs))
    assert [(name, qi) for name, qi, _ in back] == [("pack-a", 0),
                                                    ("pack-b", 5)]
    assert back[1][2].hits == []
    assert back[1][2].query_id == "e"


def test_estimate_upper_bounds_encoded_size():
    pairs = _searched_pairs()
    assert estimate_payload_size(pairs) >= len(encode_result_pairs(pairs))


def test_result_codec_rejects_foreign_blob():
    with pytest.raises(ValueError):
        decode_result_pairs(b"not a result blob at all")


# ----------------------------------------------------------------------
# The result arena
# ----------------------------------------------------------------------
def test_arena_write_read_round_trip_and_bounds():
    registry = ShmRegistry()
    arena = ResultArena.create(4096, tag="t", registry=registry)
    try:
        blob = os.urandom(1000)
        desc = arena.write(blob)
        assert arena.read(*desc) == blob
        with pytest.raises(ValueError):
            arena.write(os.urandom(5000))      # does not fit
        with pytest.raises(PackIntegrityError):
            arena.read(4000, 500, 0)           # descriptor out of bounds
    finally:
        arena.close()
        registry.release(arena.spec.name)


def test_arena_crc_mismatch_raises_integrity_error():
    registry = ShmRegistry()
    arena = ResultArena.create(4096, tag="c", registry=registry)
    try:
        offset, nbytes, crc = arena.write(b"x" * 256)
        # Scribble into the slab after the descriptor was taken — the
        # torn-write case the CRC discipline exists to catch.
        arena._shm.buf[17] ^= 0xFF
        with pytest.raises(PackIntegrityError):
            arena.read(offset, nbytes, crc)
    finally:
        arena.close()
        registry.release(arena.spec.name)


# ----------------------------------------------------------------------
# End-to-end through the pool
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n_batches", [1, 2])
@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("n_fragments", [1, 3, 8])
def test_one_task_per_pack_and_batch(n_fragments, jobs, n_batches):
    """A task is one pack for one query batch (at most 32 queries), so
    a run is exactly packs x batches tasks, whatever the worker count,
    and its output is the serial engine's."""
    rng = np.random.default_rng(31)
    db = random_nt_db(rng, 28)
    scheme = NucleotideScore()
    params = SearchParams(word_size=11)
    if n_batches == 1:
        queries = [db.sequence(i)[:140].copy() for i in (1, 8, 15)]
    else:
        # 33 short queries: one more than a batch holds.
        queries = [db.sequence(i % 28)[:40].copy() for i in range(33)]
    ids = [f"q{i}" for i in range(len(queries))]
    serial = [dump(r) for r in search_batch(queries, db, scheme, params,
                                            query_ids=ids)]
    with ExecPool(jobs=jobs) as pool:
        got = pool.search_many(queries, db, scheme, params, query_ids=ids,
                               n_fragments=n_fragments)
        stats = pool.last_stats
    assert [dump(r) for r in got] == serial
    assert stats.tasks_done == stats.fragments_done == n_fragments * n_batches


def test_range_tasks_stay_byte_identical_aa():
    from repro.blast.score import ProteinScore

    rng = np.random.default_rng(32)
    db = random_aa_db(rng, 22)
    scheme = ProteinScore()
    params = SearchParams()
    q = db.sequence(5)[:80].copy()
    serial = dump(search(q, db, scheme, params, both_strands=False))
    with ExecPool(jobs=2) as pool:
        got = pool.search(q, db, scheme, params, both_strands=False,
                          n_fragments=5)
    assert dump(got) == serial


def test_pool_run_creates_no_arena_segment():
    """A result is one pickle in the result message: a live pool holds
    fragment packs in shared memory and nothing else."""
    rng = np.random.default_rng(33)
    db = random_nt_db(rng, 26, min_len=100, max_len=300)
    scheme = NucleotideScore()
    params = SearchParams(word_size=11)
    q = db.sequence(2)[:150].copy()
    serial = dump(search(q, db, scheme, params))
    before = set(own_segments())
    with ExecPool(jobs=2) as pool:
        got = pool.search(q, db, scheme, params, n_fragments=4)
        stats = pool.last_stats
        live = set(own_segments()) - before
    assert dump(got) == serial
    assert len(live) == 4 and not [n for n in live if "arena" in n]
    assert stats.inline_results == stats.tasks_done > 0
    assert (stats.arena_results, stats.remote_results) == (0, 0)


def test_hedge_reissues_whole_range_task():
    rng = np.random.default_rng(35)
    db = random_nt_db(rng, 24)
    scheme = NucleotideScore()
    params = SearchParams(word_size=11)
    queries = [db.sequence(i)[:150].copy() for i in (2, 9, 17)]
    serial = [dump(search(q, db, scheme, params)) for q in queries]
    plan = FaultPlan(faults=(Fault("slow", rank=0, task_index=0,
                                   delay=3.0),))
    with ExecPool(jobs=2, fault_plan=plan, hedge_after=0.25) as pool:
        got = pool.search_many(queries, db, scheme, params, n_fragments=4)
        stats = pool.last_stats
        hedged = [e.task for e in pool.ledger.entries if e.kind == "hedge"]
    assert [dump(r) for r in got] == serial
    assert stats.hedge_wins >= 1
    # The hedged key is a whole task: a query batch crossed with one
    # pack.
    assert hedged and all(isinstance(names, tuple) and len(names) == 1
                          for _qi, names in hedged)


def test_hedged_completion_does_not_feed_task_ema():
    rng = np.random.default_rng(36)
    db = random_nt_db(rng, 24)
    scheme = NucleotideScore()
    params = SearchParams(word_size=11)
    queries = [db.sequence(i)[:150].copy() for i in (2, 9, 17)]
    plan = FaultPlan(faults=(Fault("slow", rank=0, task_index=0,
                                   delay=3.0),))
    with ExecPool(jobs=2, fault_plan=plan, hedge_after=0.25) as pool:
        pool.search_many(queries, db, scheme, params, n_fragments=4)
        ema = pool._task_ema
        assert pool.last_stats.hedges >= 1
    # Whichever holder of the hedged task answered first (even the 3 s
    # straggler itself), its elapsed time must not poison the EMA that
    # sizes future soft deadlines: unhedged tasks here run in well
    # under a second.
    assert ema is None or ema < 1.0


def test_send_failure_counts_one_death_and_recovers():
    rng = np.random.default_rng(37)
    db = random_nt_db(rng, 24, min_len=80, max_len=250)
    scheme = NucleotideScore()
    params = SearchParams(word_size=11)
    q = db.sequence(3)[:130].copy()
    serial = dump(search(q, db, scheme, params))
    with ExecPool(jobs=2) as pool:
        # Warm run: packs prepared and attached, so the severed socket
        # below fails inside task dispatch (_send_task), not attach.
        warm = pool.search(q, db, scheme, params, n_fragments=6)
        assert dump(warm) == serial
        pool._workers[0].conn.close()
        got = pool.search(q, db, scheme, params, n_fragments=6)
        stats = pool.last_stats
    assert dump(got) == serial
    assert stats.worker_deaths == [0]
    # One death, one respawn attempt — the send failure and the
    # liveness sweep must not both bill the budget.
    assert stats.respawn_attempts == stats.respawns == 1
    assert not stats.fallback


def test_respawn_budget_counts_attempts_not_successes(monkeypatch):
    rng = np.random.default_rng(38)
    db = random_nt_db(rng, 20, min_len=80, max_len=250)
    scheme = NucleotideScore()
    params = SearchParams(word_size=11)
    q = db.sequence(2)[:120].copy()
    serial = dump(search(q, db, scheme, params))
    # A budget of two attempts: none per slot, plus the two spare.
    monkeypatch.setattr("repro.exec.pool._RESPAWNS_PER_SLOT", 0)
    with ExecPool(jobs=2, task_sleep=0.2) as pool:
        pool.start()
        victim = pool.worker_pids()[0]
        # Every replacement is stillborn from here on: it never says
        # ready.
        def stillborn(self, conn, timeout):
            raise NodeConnectError("no ready")

        monkeypatch.setattr(_LocalSlot, "_await_ready", stillborn)
        timer = threading.Timer(0.1, os.kill, (victim, signal.SIGKILL))
        timer.start()
        try:
            got = pool.search(q, db, scheme, params, n_fragments=4)
        finally:
            timer.cancel()
            timer.join()
        stats = pool.last_stats
        ledger = pool.ledger.summary()
    assert dump(got) == serial              # the survivor finished alone
    assert not stats.fallback
    assert stats.respawns == 0
    # Exactly the budget was attempted (the pump visits the dead slot
    # every tick); a permanently failing spawn cannot loop forever.
    assert stats.respawn_attempts == 2
    assert ledger.get("respawn_failed", 0) == 2


def test_two_workers_match_serial_on_benchmark_corpus():
    """Two workers on the 568-nt / 600 k-residue benchmark shape render
    exactly what the serial engine renders.  (How fast they do it is
    the benchmark's business: ``nt_single_pool2`` vs
    ``nt_single_serial`` in ``perf/run.py``.)"""
    from repro.blast.alphabet import encode_dna
    from repro.workloads import extract_query, synthetic_nt_db

    db = synthetic_nt_db(600_000, seed=0)
    query = encode_dna(extract_query(db, length=568, seed=1))
    scheme = NucleotideScore()
    params = SearchParams()

    serial_res = search(query, db, scheme, params)
    with ExecPool(jobs=2) as pool:
        first = pool.search(query, db, scheme, params)
    assert dump(first) == dump(serial_res)
