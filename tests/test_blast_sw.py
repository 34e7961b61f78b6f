"""Tests for full Smith-Waterman, banded-vs-exact properties, and what
the oracle is for: every HSP a search reports, on either family of
gapped kernels, checked against the optimum for its pair."""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blast.alphabet import encode_dna, reverse_complement
from repro.blast.gapped import banded_local_align
from repro.blast.profile import profiled
from repro.blast.score import NucleotideScore, ProteinScore
from repro.blast.search import SearchParams, search_batch
from repro.blast.seqdb import AA, NT, SequenceDB

from oracle_sw import smith_waterman, smith_waterman_score

gapped_mod = importlib.import_module("repro.blast.gapped")
SCHEME = NucleotideScore()  # +1/-3, gap 5/2
dna = st.text(alphabet="ACGT", min_size=0, max_size=80)


def rescore(ops, q, s, qi, si, scheme):
    """Replay alignment *ops* from (qi, si): the score they add up to
    and where they end."""
    score = 0
    prev = ""
    for op in ops:
        if op == "M":
            score += int(scheme.matrix[q[qi], s[si]])
            qi += 1
            si += 1
        else:
            score -= scheme.gap_extend if op == prev else scheme.gap_open
            if op == "D":
                qi += 1
            else:
                si += 1
        prev = op
    return score, qi, si


def test_sw_exact_match():
    a = encode_dna("ACGTACGTACGT")
    aln = smith_waterman(a, a, SCHEME)
    assert aln.score == 12
    assert aln.ops == "M" * 12
    assert (aln.q_start, aln.q_end) == (0, 12)


def test_sw_empty_inputs():
    a = encode_dna("ACGT")
    empty = encode_dna("")
    assert smith_waterman(a, empty, SCHEME).score == 0
    assert smith_waterman(empty, a, SCHEME).score == 0
    assert smith_waterman_score(empty, a, SCHEME) == 0


def test_sw_no_positive_alignment():
    aln = smith_waterman(encode_dna("AAAA"), encode_dna("CCCC"), SCHEME)
    assert aln.score == 0
    assert aln.ops == ""


def test_sw_gap_handling():
    q = encode_dna("ACGTACGTACGT" + "GG" + "TGCATGCATGCA")
    s = encode_dna("ACGTACGTACGT" + "TGCATGCATGCA")
    aln = smith_waterman(q, s, SCHEME)
    assert aln.score == 24 - (5 + 2)  # 24 matches, gap of 2
    assert aln.ops.count("D") == 2
    assert aln.ops.count("M") == 24


def test_sw_local_trims():
    q = encode_dna("CCCC" + "ACGTACGTACGT" + "GGGG")
    s = encode_dna("TTTT" + "ACGTACGTACGT" + "AAAA")
    aln = smith_waterman(q, s, SCHEME)
    assert aln.score == 12
    assert aln.q_start == 4 and aln.q_end == 16
    assert aln.s_start == 4 and aln.s_end == 16


@settings(max_examples=60, deadline=None)
@given(dna, dna)
def test_sw_score_matches_traceback_score(a, b):
    qa, sb = encode_dna(a), encode_dna(b)
    assert smith_waterman(qa, sb, SCHEME).score == \
        smith_waterman_score(qa, sb, SCHEME)


@settings(max_examples=60, deadline=None)
@given(dna, dna)
def test_sw_ops_rescore_to_reported_score(a, b):
    """Replaying the traceback ops reproduces the optimal score."""
    qa, sb = encode_dna(a), encode_dna(b)
    aln = smith_waterman(qa, sb, SCHEME)
    assert rescore(aln.ops, qa, sb, aln.q_start, aln.s_start, SCHEME) == \
        (aln.score, aln.q_end, aln.s_end)


@settings(max_examples=60, deadline=None)
@given(dna, dna)
def test_banded_never_exceeds_exact(a, b):
    """The banded heuristic is a lower bound on the true optimum."""
    qa, sb = encode_dna(a), encode_dna(b)
    exact = smith_waterman_score(qa, sb, SCHEME)
    banded = banded_local_align(qa, sb, diag=0, scheme=SCHEME, band=8).score
    assert banded <= exact


@settings(max_examples=40, deadline=None)
@given(st.text(alphabet="ACGT", min_size=5, max_size=60),
       st.integers(0, 3), st.integers(0, 100))
def test_banded_equals_exact_when_band_covers(core, n_muts, seed):
    """For near-diagonal alignments (few mutations, no big shifts) a
    generous band recovers the exact optimum."""
    rng = np.random.default_rng(seed)
    q = list(core)
    for _ in range(n_muts):
        pos = int(rng.integers(0, len(q)))
        q[pos] = rng.choice(list("ACGT"))
    qa, sb = encode_dna("".join(q)), encode_dna(core)
    exact = smith_waterman_score(qa, sb, SCHEME)
    banded = banded_local_align(qa, sb, diag=0, scheme=SCHEME,
                                band=max(len(core), 8)).score
    assert banded == exact


@settings(max_examples=40, deadline=None)
@given(dna, dna)
def test_sw_symmetry(a, b):
    """score(a, b) == score(b, a) for a symmetric matrix."""
    qa, sb = encode_dna(a), encode_dna(b)
    assert smith_waterman_score(qa, sb, SCHEME) == \
        smith_waterman_score(sb, qa, SCHEME)


# ----------------------------------------------------------------------
# The oracle against the search paths (ROADMAP 4(b))
# ----------------------------------------------------------------------
def planted_case(seed, seqtype, n_planted, identity):
    """A query and a database in which *n_planted* subjects carry a
    copy of a query segment at >= *identity*: an exact core (long
    enough to seed and to trigger gapped extension under either seeding
    rule) with substitutions in the flanks only, for nt half of them on
    the minus strand.  Returns ``(query, db, scheme, params, plants)``,
    *plants* = ``(sid, strand, core start, core end in the subject)``.
    """
    rng = np.random.default_rng(seed)
    if seqtype == NT:
        base, core, flank, scheme = 4, 30, 25, NucleotideScore()
        params = SearchParams(word_size=11)
    else:
        base, core, flank, scheme = 20, 14, 20, ProteinScore()
        params = SearchParams(word_size=3)
    segment = core + 2 * flank
    query = rng.integers(0, base, segment + 40).astype(np.uint8)
    q0 = int(rng.integers(0, 40))
    n_subst = int((1.0 - identity) * segment)
    db = SequenceDB(seqtype)
    plants = []
    for sid in range(n_planted + 3):
        subject = rng.integers(0, base, int(rng.integers(
            segment + 20, segment + 120))).astype(np.uint8)
        if sid < n_planted:
            strand = -1 if seqtype == NT and sid % 2 else 1
            copy = query[q0:q0 + segment].copy()
            where = rng.choice(2 * flank, n_subst, replace=False)
            where = np.where(where < flank, where, where + core)
            copy[where] = (copy[where] + rng.integers(1, base, n_subst)) % base
            if strand < 0:
                copy = reverse_complement(copy)
            at = int(rng.integers(0, len(subject) - segment))
            subject[at:at + segment] = copy
            plants.append((sid, strand, at + flank, at + flank + core))
        db.add(f"s{sid}", subject)
    return query, db, scheme, params, plants


@pytest.mark.parametrize("route", ["scalar", "stacked"])
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), seqtype=st.sampled_from([NT, AA]),
       extra=st.integers(0, 2), identity=st.floats(0.9, 1.0))
def test_search_hsps_bounded_by_sw_and_plants_found(route, seed, seqtype,
                                                    extra, identity):
    """Through ``search_batch`` on both gapped routes — every problem
    aligned directly (the batch fits one align chunk), and scored first
    with only the survivors aligned (a chunk budget of one byte holds
    one problem a chunk) — every reported HSP scores no more than the
    Smith-Waterman optimum of its (oriented query, subject) pair, its
    ops replay to exactly its score and extent, and every planted
    >= 90 %-identity insert is reported on its strand."""
    n_planted = extra + (1 if route == "scalar" else 4)
    query, db, scheme, params, plants = planted_case(
        seed, seqtype, n_planted, identity)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gapped_mod, "_SWEEP_BYTES",
                   10 ** 12 if route == "scalar" else 1)
        with profiled("t", enabled=True, emit=False) as prof:
            [results] = search_batch([query], db, scheme, params)
    assert ("gapped_bulk" in prof.stages) == (route == "stacked")

    oriented = {1: query}
    if seqtype == NT:
        oriented[-1] = reverse_complement(query)
    optimum = {}
    by_subject = {hit.subject_id: hit.hsps for hit in results.hits}
    for sid, hsps in by_subject.items():
        subject = db.sequence(sid)
        for h in hsps:
            q = oriented[h.strand]
            assert rescore(h.ops, q, subject, h.q_start, h.s_start,
                           scheme) == (h.score, h.q_end, h.s_end)
            assert len(h.ops) == h.align_len
            if (sid, h.strand) not in optimum:
                optimum[sid, h.strand] = smith_waterman_score(
                    q, subject, scheme)
            assert h.score <= optimum[sid, h.strand]
    for sid, strand, core0, core1 in plants:
        assert any(h.strand == strand and h.s_start <= core0
                   and h.s_end >= core1 for h in by_subject.get(sid, [])), \
            f"planted insert in subject {sid} (strand {strand}) not reported"
