"""The one search driver and its batched scan path: QueryBatch vs
per-index scans; ``search(q)`` ≡ ``search_batch([q])[0]`` ≡ the
per-sequence oracle, and ``search_batch`` of N ≡ N sequential searches,
across alphabets / strands / seeding modes / PSSM / masking / gapped
routes / database kinds / degenerate query sets; query-batch planning;
the batched task protocol through the real pool (fault injection
included); and per-stage profiling output."""

import dataclasses
import importlib
import json
from contextlib import ExitStack

import numpy as np
import pytest

from repro.blast.alphabet import reverse_complement
from repro.blast.kmer import WordIndex
from repro.blast.profile import PROFILE_ENV
from repro.blast.psiblast import build_pssm
from repro.blast.scankernel import (QueryBatch, build_scan_structures,
                                    scan_fragment, scan_fragment_batch)
from repro.blast.score import NucleotideScore, ProteinScore
from repro.blast.search import (SearchParams, prepare_queries, search,
                                search_batch)
from repro.blast.seqdb import AA, NT, SequenceDB
from repro.exec import ExecPool, Fault, FaultPlan
from repro.exec.diskpack import DiskPack, write_pack
from repro.exec.schedule import plan_query_batches
from repro.exec.shm import PackDB

from oracle_search import search_reference

gapped_mod = importlib.import_module("repro.blast.gapped")

NT_LETTERS = np.array(list("ACGT"))
AA_LETTERS = np.array(list("ARNDCQEGHILKMFPSTWYV"))


pytestmark = pytest.mark.usefixtures("no_segment_leaks")


def random_nt_db(rng, n_seqs, min_len=50, max_len=300):
    db = SequenceDB(NT)
    for i in range(n_seqs):
        length = int(rng.integers(min_len, max_len))
        db.add(f"s{i} desc", "".join(NT_LETTERS[rng.integers(0, 4, length)]))
    return db


def random_aa_db(rng, n_seqs, min_len=40, max_len=200):
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


def sequential_dumps(queries, db, scheme, params, **kw):
    return [dump(search(q, db, scheme, params, query_id=f"q{i}", **kw))
            for i, q in enumerate(queries)]


def batch_dumps(queries, db, scheme, params, **kw):
    ids = [f"q{i}" for i in range(len(queries))]
    return [dump(r) for r in search_batch(queries, db, scheme, params,
                                          query_ids=ids, **kw)]


# ----------------------------------------------------------------------
# The combined lookup structure
# ----------------------------------------------------------------------
def _groups(batch, structs):
    """``scan_fragment_batch``'s flat form regrouped into one ``(eid,
    sid, spos, qpos)`` tuple per group (positions as lists)."""
    hits = scan_fragment_batch(batch, structs)
    return [(eid, sid, hits.spos[hits.gid == g].tolist(),
             hits.qpos[hits.gid == g].tolist())
            for g, (eid, sid) in enumerate(zip(hits.eid.tolist(),
                                               hits.sid.tolist()))]


def test_query_batch_scan_matches_per_index_scans():
    rng = np.random.default_rng(50)
    db = random_nt_db(rng, 15)
    structs = build_scan_structures(db, 11, 4)
    queries = [db.sequence(i)[:120].copy() for i in (1, 4, 9, 12)]
    indexes = [WordIndex.for_dna(q, 11) for q in queries]
    batch = QueryBatch(indexes)

    batched = _groups(batch, structs)
    for eid, ix in enumerate(indexes):
        mine = [(sid, spos, qpos)
                for geid, sid, spos, qpos in batched if geid == eid]
        solo = [(sid, spos.tolist(), qpos.tolist())
                for sid, spos, qpos in scan_fragment(ix, structs)]
        assert mine == solo, f"entry {eid} diverges from its solo scan"


def test_query_batch_rejects_mixed_word_sizes():
    rng = np.random.default_rng(51)
    db = random_nt_db(rng, 4)
    q = db.sequence(0)[:80].copy()
    with pytest.raises(ValueError):
        QueryBatch([WordIndex.for_dna(q, 11), WordIndex.for_dna(q, 12)])


# ----------------------------------------------------------------------
# One driver: search == batch of one == the oracle; batch of N == N
# ----------------------------------------------------------------------
def nt_case(seed, both_strands=True, **params_kw):
    """Forward extracts, one reverse-complement extract (so the minus
    strand has a real hit), and per-query subject variants carrying a
    deletion and substitutions (so gapped refinement emits gaps)."""
    rng = np.random.default_rng(seed)
    db = random_nt_db(rng, 30)
    queries = [db.sequence(i)[:140].copy() for i in (0, 7, 14, 21)]
    queries.append(reverse_complement(db.sequence(28)[:140]))
    for i, q in enumerate(queries[:3]):
        variant = np.delete(q, slice(60, 63))
        variant[20::31] = (variant[20::31] + 1) % 4
        db.add(f"var{i}", "".join(NT_LETTERS[variant]))
    return dict(queries=queries, db=db, scheme=NucleotideScore(),
                params=SearchParams(word_size=11, **params_kw),
                both_strands=both_strands)


def aa_case(seed, **params_kw):
    rng = np.random.default_rng(seed)
    db = random_aa_db(rng, 24)
    queries = [db.sequence(i)[:70].copy() for i in (2, 8, 15, 20)]
    for i, q in enumerate(queries[:2]):
        variant = np.delete(q, slice(30, 32))
        variant[5::9] = (variant[5::9] + 1) % 20
        db.add(f"var{i}", "".join(AA_LETTERS[variant]))
    return dict(queries=queries, db=db, scheme=ProteinScore(),
                params=SearchParams(word_size=3, neighbor_threshold=11,
                                    xdrop_ungapped=16, **params_kw),
                both_strands=False)


def masked_case():
    case = nt_case(54, filter_low_complexity=True)
    db = case["db"]
    # Low-complexity runs the DUST filter actually masks.
    db.add("lc", "ATATATATATAT" * 20)
    case["queries"][1] = db.sequence(len(db) - 1)[:150].copy()
    return case


def short_query_case():
    case = nt_case(66)
    case["queries"][1] = case["queries"][1][:7]     # < word_size
    case["queries"][3] = np.array([], dtype=np.uint8)
    return case


def pssm_case():
    """One PSI-BLAST round-2 call: position indices searched against a
    PSSM scheme, identities counted on the original residues."""
    case = aa_case(67)
    db, scheme, params = case["db"], case["scheme"], case["params"]
    enc = case["queries"][0]
    round1 = search(enc, db, scheme, params)
    pssm = build_pssm(enc, db, round1, inclusion_evalue=1e-3)
    case.update(queries=[np.arange(len(enc), dtype=np.uint8)],
                scheme=pssm.scheme(scheme.gap_open, scheme.gap_extend),
                identity_queries=[enc])
    return case


def effective_space_case():
    case = nt_case(68)
    # Every query scored against a made-up whole-database space, the
    # way the pool scores a fragment.
    case["effective_spaces"] = [(len(q) + 5 * i, 3_000_000 + i)
                                for i, q in enumerate(case["queries"])]
    return case


def packdb_case(stack, tmp_path):
    """A db that provides its own ``scan_structures`` (mmapped pack)."""
    case = nt_case(69)
    db = case["db"]
    path = str(tmp_path / "frag.rpk")
    write_pack(path, build_scan_structures(db, 11, 4),
               [db.description(i) for i in range(len(db))], seqtype=NT,
               store_id="sid", version=0, fragment_id=0,
               source_ids=range(len(db)))
    case["db"] = PackDB(stack.enter_context(DiskPack(path)))
    return case


def routed(case, sweep_bytes):
    """Pin the gapped route through the align mode's chunk budget: out
    of reach, every batch fits one chunk and is aligned directly; at
    one byte, every chunk holds one problem, so a batch of two or more
    is scored first and only its survivors are aligned.  Left alone,
    the driver picks by whether a batch fits one chunk."""
    case["sweep_bytes"] = sweep_bytes
    return case


CASES = {
    "nt-both-strands": lambda stack, tmp: nt_case(52),
    "nt-plus-strand-only": lambda stack, tmp: nt_case(62,
                                                      both_strands=False),
    "protein-two-hit": lambda stack, tmp: aa_case(53),
    "pssm-identity-query": lambda stack, tmp: pssm_case(),
    "low-complexity-filter": lambda stack, tmp: masked_case(),
    "query-shorter-than-word": lambda stack, tmp: short_query_case(),
    "explicit-effective-space": lambda stack, tmp: effective_space_case(),
    "packdb": packdb_case,
    # Default blastp (two-hit seeds through the bulk extension kernel)
    # on each DP route.
    "protein-two-hit-scalar-route": lambda stack, tmp: routed(
        aa_case(53), 10 ** 12),
    "protein-two-hit-bulk-route": lambda stack, tmp: routed(aa_case(53), 1),
    "pssm-bulk-route": lambda stack, tmp: routed(pssm_case(), 1),
    "nt-bulk-route": lambda stack, tmp: routed(nt_case(52), 1),
}


@pytest.mark.parametrize("name", list(CASES))
def test_search_batch_matches_sequential(name, tmp_path, monkeypatch):
    with ExitStack() as stack:
        case = CASES[name](stack, tmp_path)
        if "sweep_bytes" in case:
            monkeypatch.setattr(gapped_mod, "_SWEEP_BYTES",
                                case["sweep_bytes"])
        queries, db = case["queries"], case["db"]
        scheme, params = case["scheme"], case["params"]
        both = case["both_strands"]
        n = len(queries)
        ids = [f"q{i}" for i in range(n)]
        id_queries = case.get("identity_queries") or [None] * n
        spaces = case.get("effective_spaces") or [None] * n

        singles = []
        for i, q in enumerate(queries):
            kw = dict(query_id=ids[i], both_strands=both,
                      identity_query=id_queries[i],
                      effective_space=spaces[i])
            single = search(q, db, scheme, params, **kw)
            of_one = search_batch([q], db, scheme, params,
                                  query_ids=[ids[i]], both_strands=both,
                                  identity_queries=[id_queries[i]],
                                  effective_spaces=[spaces[i]])[0]
            ref = search_reference(q, db, scheme, params, **kw)
            assert dump(single) == dump(of_one) == dump(ref)
            assert single.tabular() == of_one.tabular() == ref.tabular()
            singles.append(single)
        assert any(r.hits for r in singles), "case exercises no hits"

        batch = search_batch(queries, db, scheme, params, query_ids=ids,
                             both_strands=both,
                             identity_queries=id_queries,
                             effective_spaces=spaces)
        assert [dump(r) for r in batch] == [dump(r) for r in singles]
        assert ([r.tabular() for r in batch]
                == [r.tabular() for r in singles])
        # ... and a batch of three is its first three.
        three = search_batch(queries[:3], db, scheme, params,
                             query_ids=ids[:3], both_strands=both,
                             identity_queries=id_queries[:3],
                             effective_spaces=spaces[:3])
        assert [dump(r) for r in three] == [dump(r) for r in singles[:3]]
        # Drop the PackDB's views before the stack unmaps its pack.
        del case, db


def test_search_batch_empty_short_and_duplicate_queries():
    rng = np.random.default_rng(55)
    db = random_nt_db(rng, 18)
    scheme = NucleotideScore()
    params = SearchParams(word_size=11)
    q = db.sequence(5)[:120].copy()
    queries = [np.array([], dtype=np.uint8),      # empty
               db.sequence(2)[:7].copy(),         # shorter than word size
               q, q.copy(),                       # exact duplicates
               db.sequence(9)[:100].copy()]
    assert batch_dumps(queries, db, scheme, params) == \
        sequential_dumps(queries, db, scheme, params)
    # Degenerate whole-batch cases.
    assert search_batch([], db, scheme, params) == []
    only_short = search_batch([np.array([], dtype=np.uint8)], db, scheme,
                              params)
    assert len(only_short) == 1 and only_short[0].hits == []


def test_search_batch_rejects_mismatched_per_query_arguments():
    rng = np.random.default_rng(56)
    db = random_nt_db(rng, 12)
    scheme = NucleotideScore()
    params = SearchParams(word_size=11)
    queries = [db.sequence(i)[:90].copy() for i in (1, 6)]
    with pytest.raises(ValueError):
        search_batch(queries, db, scheme, params, query_ids=["just-one"])


# ----------------------------------------------------------------------
# Batch planning
# ----------------------------------------------------------------------
def test_plan_query_batches_shapes():
    assert plan_query_batches(0) == []
    assert plan_query_batches(6) == [(0, 1, 2, 3, 4, 5)]
    assert plan_query_batches(33) == [tuple(range(17)),
                                      tuple(range(17, 33))]
    assert plan_query_batches(7, max_batch=3) == [(0, 1, 2), (3, 4),
                                                  (5, 6)]
    # max_batch <= 1 is one query per group.
    assert plan_query_batches(3, max_batch=0) == [(0,), (1,), (2,)]
    assert plan_query_batches(3, max_batch=1) == [(0,), (1,), (2,)]
    for n in (1, 2, 5, 17, 64):
        for max_batch in (1, 3, 32):
            groups = plan_query_batches(n, max_batch=max_batch)
            flat = [qi for g in groups for qi in g]
            assert flat == list(range(n))
            assert all(len(g) <= max_batch for g in groups)
            assert max(len(g) for g in groups) - \
                min(len(g) for g in groups) <= 1


# ----------------------------------------------------------------------
# Through the pool
# ----------------------------------------------------------------------
def test_pool_batched_tasks_byte_identical_at_two_jobs():
    rng = np.random.default_rng(57)
    db = random_nt_db(rng, 26, min_len=100, max_len=300)
    scheme = NucleotideScore()
    params = SearchParams(word_size=11)
    queries = [db.sequence(i)[:140].copy() for i in (0, 5, 12, 19, 24)]
    ids = [f"q{i}" for i in range(len(queries))]
    serial = sequential_dumps(queries, db, scheme, params)
    # 33 queries are two batches (17 + 16), past the 32-query cap.
    many = [db.sequence(i % 26)[:60].copy() for i in range(33)]
    many_ids = [f"q{i}" for i in range(len(many))]
    many_serial = sequential_dumps(many, db, scheme, params)
    with ExecPool(jobs=2) as pool:
        got = pool.search_many(queries, db, scheme, params, query_ids=ids,
                               n_fragments=4)
        one_batch = pool.last_stats
        capped = pool.search_many(many, db, scheme, params,
                                  query_ids=many_ids, n_fragments=4)
        two_batches = pool.last_stats
    assert [dump(r) for r in got] == serial
    assert one_batch.tasks_done == one_batch.fragments_done == 4
    assert [dump(r) for r in capped] == many_serial
    assert two_batches.tasks_done == two_batches.fragments_done == 4 * 2


def test_pool_hedges_batched_range_task_under_fault():
    rng = np.random.default_rng(58)
    db = random_nt_db(rng, 24, min_len=100, max_len=300)
    scheme = NucleotideScore()
    params = SearchParams(word_size=11)
    queries = [db.sequence(i)[:150].copy() for i in (2, 9, 17)]
    serial = sequential_dumps(queries, db, scheme, params)
    plan = FaultPlan(faults=(Fault("drop_result", rank=0, task_index=0),))
    with ExecPool(jobs=2, fault_plan=plan, hedge_after=0.25) as pool:
        got = pool.search_many(queries, db, scheme, params,
                               query_ids=[f"q{i}"
                                          for i in range(len(queries))],
                               n_fragments=4)
        ledger = pool.ledger.summary()
        recovered = [e.task for e in pool.ledger.entries
                     if e.kind in ("hedge", "requeue")]
    assert [dump(r) for r in got] == serial
    assert ledger.get("hedge", 0) + ledger.get("requeue", 0) >= 1
    # The recovered unit is a whole task: the query batch crossed with
    # one pack.
    assert recovered
    qis, names = recovered[0]
    assert isinstance(qis, tuple) and len(qis) == len(queries)
    assert isinstance(names, tuple) and len(names) == 1


def test_injector_matches_query_inside_batch():
    from repro.exec import FaultInjector

    plan = FaultPlan(faults=(Fault("slow", query=2, delay=0.0),))
    inj = FaultInjector(plan, rank=0)
    assert inj.on_task((0, 1), (0,)) is None       # 2 not in the batch
    fault = inj.on_task((1, 2, 3), (0, 1))
    assert fault is not None and fault.kind == "slow"


# ----------------------------------------------------------------------
# Profiling
# ----------------------------------------------------------------------
def test_profile_emits_stage_json_to_stderr(monkeypatch, capsys):
    monkeypatch.setenv(PROFILE_ENV, "1")
    rng = np.random.default_rng(59)
    db = random_nt_db(rng, 15)
    scheme = NucleotideScore()
    params = SearchParams(word_size=11)
    queries = [db.sequence(i)[:120].copy() for i in (1, 6, 11)]
    search(queries[0], db, scheme, params, query_id="first")
    err = capsys.readouterr().err.strip().splitlines()
    # search() runs the batch driver inside its own profile: exactly
    # one line, and it is the single-query one.
    assert len(err) == 1, "one JSON line per top-level search"
    single = json.loads(err[0])
    assert single["profile"] == "search"
    assert single["query_id"] == "first"
    assert single["query_len"] == len(queries[0])
    search_batch(queries, db, scheme, params)
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    batched = json.loads(err[0])
    assert batched["profile"] == "search_batch"
    assert batched["n_queries"] == len(queries)
    for doc in (single, batched):
        assert set(doc["stages"]) <= {"index", "pack", "scan", "seed",
                                      "extend", "gapped", "gapped_bulk"}
        assert doc["total_s"] >= 0.0
    assert batched["counters"].get("seeds", 0) >= 0
    # hit_groups counts the (orientation, subject) groups of the scan.
    prepared = prepare_queries(queries, scheme, params, is_protein=False,
                               db_size=(db.total_residues, len(db)))
    hits = scan_fragment_batch(prepared.batch,
                               build_scan_structures(db, 11, 4))
    assert batched["counters"]["hit_groups"] == len(hits.eid) > 0
    assert 0 < single["counters"]["hit_groups"] < len(hits.eid)


def test_profile_disabled_is_silent(monkeypatch, capsys):
    monkeypatch.setenv(PROFILE_ENV, "0")
    rng = np.random.default_rng(60)
    db = random_nt_db(rng, 8)
    search(db.sequence(1)[:90].copy(), db, NucleotideScore(),
           SearchParams(word_size=11))
    assert capsys.readouterr().err == ""
