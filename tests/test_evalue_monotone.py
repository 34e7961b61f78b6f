"""E-values are monotone in score: within one query's result, an HSP
with a higher score never has a larger E-value.

Every HSP of a query is scored against one search space, so its
E-value is a decreasing function of its raw score alone.  The property
is checked through the public API only — ``search_batch`` over a
database in RAM, ``search_store_batch`` over a 3-pack store built from
the same records and ``ExecPool(jobs=2).search_many`` over the same
database — on random corpora with planted, mutated copies of the
queries, so each result holds HSPs of many different scores.
"""

import dataclasses
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blast.alphabet import reverse_complement
from repro.blast.programs import program_defaults
from repro.blast.search import search_batch
from repro.blast.seqdb import AA, NT, SequenceDB
from repro.exec import ExecPool, build_pack_store, search_store_batch
from repro.exec.shm import own_segments

NT_LETTERS = np.array(list("ACGT"))
AA_LETTERS = np.array(list("ARNDCQEGHILKMFPSTWYV"))


@st.composite
def _corpus(draw):
    """``(seqtype, db, queries)``: 3-12 random sequences, one to three
    queries cut from them, and copies of each query carrying
    substitutions at a drawn spacing (and, for nucleotides, reverse
    complemented half the time) planted back into the corpus."""
    seqtype = draw(st.sampled_from([NT, AA]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    letters = NT_LETTERS if seqtype == NT else AA_LETTERS
    n_sym = len(letters)
    seqs = [rng.integers(0, n_sym, int(rng.integers(20, 150)))
            for _ in range(draw(st.integers(3, 12)))]
    queries = []
    for _ in range(draw(st.integers(1, 3))):
        src = seqs[int(rng.integers(0, len(seqs)))]
        lo = int(rng.integers(0, len(src) - 15))
        q = src[lo:lo + int(rng.integers(15, 120))].copy()
        queries.append(q)
        # A nucleotide copy keeps an 11-mer seed only at spacing >= 12.
        spacings = st.integers(12, 30) if seqtype == NT else st.integers(3, 12)
        for spacing in draw(st.lists(spacings, max_size=3)):
            copy = q.copy()
            copy[::spacing] = (copy[::spacing] + 1) % n_sym
            if seqtype == NT and rng.integers(0, 2):
                copy = reverse_complement(copy.astype(np.uint8))
            seqs.append(np.concatenate([rng.integers(0, n_sym, 10), copy]))
    db = SequenceDB(seqtype)
    for i, seq in enumerate(seqs):
        db.add(f"s{i}", "".join(letters[seq]))
    return seqtype, db, [q.astype(np.uint8) for q in queries]


def _assert_monotone(result):
    pairs = sorted((hsp.score, hsp.evalue)
                   for hit in result.hits for hsp in hit.hsps)
    for (lo_score, lo_e), (hi_score, hi_e) in zip(pairs, pairs[1:]):
        if hi_score > lo_score:
            assert hi_e <= lo_e, (result.query_id, pairs)


@pytest.fixture(scope="module")
def pool():
    """One two-worker pool for every drawn corpus (a pool per example
    would fork two workers each time); it must leave no segment."""
    before = own_segments()
    with ExecPool(jobs=2) as pool:
        yield pool
    assert own_segments() == before, "the pool leaked shared-memory segments"


@settings(max_examples=40, deadline=None)
@given(case=_corpus())
def test_evalues_are_monotone_in_score(pool, case):
    seqtype, db, queries = case
    scheme, params = program_defaults("blastn" if seqtype == NT
                                      else "blastp")
    # A loose cutoff keeps the weak HSPs too, so each result spans many
    # scores.
    params = dataclasses.replace(params, evalue_cutoff=1e4)
    ids = [f"q{i}" for i in range(len(queries))]
    in_ram = search_batch(queries, db, scheme, params, query_ids=ids)
    with tempfile.TemporaryDirectory() as tmp:
        store = build_pack_store(db, tmp, seqtype=seqtype, n_fragments=3)
        from_store = search_store_batch(queries, store, scheme, params,
                                        query_ids=ids)
    pooled = pool.search_many(queries, db, scheme, params, query_ids=ids)
    assert not pool.last_stats.fallback
    assert any(r.hits for r in in_ram)
    for result in in_ram + from_store + pooled:
        _assert_monotone(result)
