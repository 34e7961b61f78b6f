"""Edge-case tests for the search engine: degenerate inputs that a
downstream user will eventually feed it."""

import numpy as np
import pytest

from repro.blast import (
    SequenceDB,
    SearchParams,
    blastn,
    blastp,
    search,
)
from repro.blast.alphabet import encode_dna
from repro.blast.score import NucleotideScore


def test_query_equal_to_word_size():
    db = SequenceDB("nt")
    db.add("s", "ACGTACGTACGTACGTACGT")
    res = blastn("ACGTACGTACG", db)  # exactly 11 bases
    assert res.query_len == 11
    # May or may not pass the E-value cutoff, but must not crash and
    # any hits must be perfect.
    for hit in res.hits:
        for h in hit.hsps:
            assert h.identity == 1.0


def test_single_sequence_single_base_db():
    db = SequenceDB("nt")
    db.add("tiny", "A")
    res = blastn("ACGTACGTACGT", db)
    assert res.hits == []


def test_query_longer_than_every_subject():
    db = SequenceDB("nt")
    db.add("short", "ACGTACGTACGTACG")
    res = blastn("ACGTACGTACGTACG" * 10, db)
    # The short subject is still findable inside the long query.
    assert res.hits
    assert res.best().s_start == 0


def test_homopolymer_query_and_subject():
    db = SequenceDB("nt")
    db.add("polya", "A" * 200)
    res = blastn("A" * 100, db)
    assert res.hits
    best = res.best()
    assert best.identity == 1.0
    # Massive word-hit count must still dedupe to few HSPs.
    assert len(res.hits[0].hsps) <= SearchParams().max_hsps


def test_ambiguity_codes_in_query():
    db = SequenceDB("nt")
    db.add("s", "A" * 50 + "CGCGCGCGCGCG" + "T" * 50)
    res = blastn("NNNNNCGCGCGCGCGCGNNNNN", db)  # Ns fold to A
    assert res is not None  # no crash; hits depend on folding


def test_empty_database():
    db = SequenceDB("nt")
    res = blastn("ACGT" * 10, db)
    assert res.hits == []
    assert res.db_sequences == 0
    assert res.report()  # renders without error


def test_protein_query_shorter_than_word():
    db = SequenceDB("aa")
    db.add("p", "MKVLAWMKVLAW")
    res = blastp("MK", db)
    assert res.hits == []


def test_duplicate_sequences_in_db():
    db = SequenceDB("nt")
    seq = "ACGTACGTACGTACGTACGTACGTACGTACGT"
    db.add("a", seq)
    db.add("b", seq)
    res = blastn(seq, db)
    assert len(res.hits) == 2
    assert res.hits[0].best_score == res.hits[1].best_score


def test_query_is_entire_subject():
    db = SequenceDB("nt")
    seq = "ACGGTTAACCGGTTAACCGTATATGCGCAT" * 3
    db.add("s", seq)
    res = blastn(seq, db)
    best = res.best()
    assert best.q_start == 0 and best.q_end == len(seq)
    assert best.identity == 1.0


def test_max_hsps_cap_enforced():
    # A subject with many repeated copies of the query region.
    unit = "ACGGTTAACCGGTTAACCGTATATGCGCAT"
    db = SequenceDB("nt")
    db.add("repeats", ("TTTTTTTTTT" + unit) * 30)
    params = SearchParams(word_size=11, max_hsps=3, gapped_trigger=18)
    res = blastn(unit, db, params=params)
    assert res.hits
    assert len(res.hits[0].hsps) <= 3


def test_strict_evalue_cutoff_suppresses_everything():
    rng = np.random.default_rng(1)
    db = SequenceDB("nt")
    db.add("s", "".join(rng.choice(list("ACGT"), 400)))
    res = blastn("".join(rng.choice(list("ACGT"), 60)), db,
                 params=SearchParams(word_size=11, evalue_cutoff=1e-30))
    assert res.hits == []


def test_search_with_explicit_scheme_and_single_strand():
    from repro.blast.alphabet import encode_dna

    db = SequenceDB("nt")
    db.add("s", "ACGTACGTACGTACGTACGTACGT")
    res = search(encode_dna("ACGTACGTACGTACGT"), db, NucleotideScore(),
                 SearchParams(word_size=11), both_strands=False)
    assert all(h.strand == 1 for hit in res.hits for h in hit.hsps)
