"""Equivalence battery for the gapped stage.

The one row sweep of ``repro.blast.gapped`` runs in two modes — score
(``bulk_banded_score``) and align (``banded_local_align_many``) — and
the driver either aligns a batch's problems directly or scores them
first and aligns the survivors.  Two layers of checks:

1. Kernel level — per problem the score mode returns exactly the
   oracle's (``tests/oracle_gapped.py``, the per-row scalar kernel)
   ``(score, q_end, s_end)`` and the align mode its whole
   ``GappedAlignment`` (``ops`` included), over random nt / protein /
   PSSM corpora with planted indels, band widths 0-64, ``gap_open``
   above, equal to and below ``gap_extend``, both forms of E's prefix
   maximum, every DP integer width, and chunks of one or two problems.

2. Pipeline level — culling (diagonal memoization, E-value reject
   skips, the per-subject cap) never changes the rendered output:
   full result dumps and tabular text match between the routes (the
   direct one forced by a chunk budget out of reach, the scored one by
   a budget of one byte) through ``search``, ``search_batch`` (two-hit
   and one-hit seeding), the process pool at two jobs, and the
   PSI-BLAST PSSM rounds.  Both routes replay one plan through one
   candidate loop, so what differs between them is which problems are
   aligned; the code-disjoint comparison is the per-sequence oracle
   (``search_reference``), which the seeding and cap cases use.
"""

import dataclasses
import hashlib
import importlib
import os
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blast.alphabet import encode_protein
from repro.blast.gapped import (GappedAlignment, banded_local_align,
                                banded_local_align_many, bulk_banded_score)
from repro.blast.profile import profiled
from repro.blast.psiblast import psiblast
from repro.blast.score import (
    BLOSUM62,
    NucleotideScore,
    ProteinScore,
    ScoringScheme,
)
from repro.blast.search import SearchParams, search, search_batch
from repro.blast.seqdb import AA, NT, SequenceDB

from oracle_gapped import banded_local_align as oracle_banded_local_align
from oracle_search import search_reference

# The package re-exports the ``search`` function under the module's own
# name, so attribute access on ``repro.blast`` finds the function.
search_mod = importlib.import_module("repro.blast.search")
gapped_mod = importlib.import_module("repro.blast.gapped")

NT_LETTERS = np.array(list("ACGT"))
AA_LETTERS = np.array(list("ARNDCQEGHILKMFPSTWYV"))


# ----------------------------------------------------------------------
# Corpus helpers
# ----------------------------------------------------------------------
def random_nt_db(rng, n_seqs, min_len=60, max_len=300):
    db = SequenceDB(NT)
    for i in range(n_seqs):
        length = int(rng.integers(min_len, max_len))
        db.add(f"s{i} desc", "".join(NT_LETTERS[rng.integers(0, 4, length)]))
    return db


def random_aa_db(rng, n_seqs, min_len=60, max_len=250):
    db = SequenceDB(AA)
    for i in range(n_seqs):
        length = int(rng.integers(min_len, max_len))
        db.add(f"p{i}", "".join(AA_LETTERS[rng.integers(0, 20, length)]))
    return db


def mutated_query(db, index, rng, period=9, length=250):
    """An extract with periodic substitutions: keeps seeds alive while
    forcing plenty of near-threshold gapped candidates."""
    q = db.sequence(index)[:length].copy()
    base = 4 if db.seqtype == NT else 20
    q[::period] = (q[::period] + int(rng.integers(1, base))) % base
    return q


def dump(results):
    """Full byte-level result dump (every HSP field, hit order, ids)."""
    return (results.query_id, results.query_len,
            [(h.subject_id, h.description, h.subject_len,
              [dataclasses.astuple(p) for p in h.hsps])
             for h in results.hits])


# ----------------------------------------------------------------------
# 1. Kernel equivalence: both modes == the oracle
# ----------------------------------------------------------------------
def _random_candidates(rng, alphabet_size, n_cand, max_len=90):
    """Random (query, subject, diag) triples packed into flat
    concatenations the way the search driver packs them."""
    q_seqs, s_seqs = [], []
    q_off, q_len, s_off, s_len, diag = [], [], [], [], []
    qpos = spos = 0
    for _ in range(n_cand):
        ql = int(rng.integers(5, max_len))
        sl = int(rng.integers(5, max_len))
        q = rng.integers(0, alphabet_size, ql).astype(np.int64)
        s = rng.integers(0, alphabet_size, sl).astype(np.int64)
        # Deliberately include diagonals at and beyond the valid range.
        d = int(rng.integers(-ql - 8, sl + 8))
        if rng.random() < 0.5:  # half the corpus: planted homology
            k = min(ql, sl)
            s[:k] = q[:k]
            s[::7] = rng.integers(0, alphabet_size, len(s[::7]))
            if rng.random() < 0.6:  # ... most of it with an indel,
                cut = int(rng.integers(1, k))
                gap = int(rng.integers(1, 5))
                if rng.random() < 0.5:
                    s = np.concatenate([s[:cut], s[cut + gap:]])
                else:
                    s = np.concatenate(
                        [s[:cut], rng.integers(0, alphabet_size, gap),
                         s[cut:]])
                sl = len(s)
                d = int(rng.integers(-3, 4))    # ... on a nearby diagonal
        q_seqs.append(q)
        s_seqs.append(s)
        q_off.append(qpos)
        q_len.append(ql)
        s_off.append(spos)
        s_len.append(sl)
        diag.append(d)
        qpos += ql
        spos += sl
    qcat = np.concatenate(q_seqs)
    scat = np.concatenate(s_seqs)
    return (qcat, scat, np.array(q_off), np.array(q_len),
            np.array(s_off), np.array(s_len), np.array(diag))


def _assert_kernels_match_scalar(packed, scheme, band, identity_qcat=None):
    """Both modes against the oracle (the per-row scalar kernel), per
    problem: the score mode on ``(score, q_end, s_end)``, the align
    mode on every ``GappedAlignment`` field — each at its default chunk
    bound and in chunks of two problems (score) or one (align: a
    one-byte budget), so chunk boundaries and, in the score mode, an
    active prefix that shrinks inside every chunk are crossed."""
    qcat, scat, q_off, q_len, s_off, s_len, diag = packed
    want = []
    for c in range(len(diag)):
        rows = slice(q_off[c], q_off[c] + q_len[c])
        want.append(oracle_banded_local_align(
            qcat[rows], scat[s_off[c]:s_off[c] + s_len[c]], int(diag[c]),
            scheme, band=band,
            identity_query=(None if identity_qcat is None
                            else identity_qcat[rows])))

    def where(c):
        return (f"problem {c} (ql={q_len[c]} sl={s_len[c]} "
                f"diag={diag[c]} band={band})")

    ends = [(a.score, a.q_end, a.s_end) if a.score > 0 else (0, 0, 0)
            for a in want]
    for chunk in (gapped_mod._BULK_CANDIDATES, 2):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gapped_mod, "_BULK_CANDIDATES", chunk)
            score, qend, send = bulk_banded_score(*packed, scheme, band=band)
        for c in range(len(want)):
            got = (int(score[c]), int(qend[c]), int(send[c]))
            assert got == ends[c], \
                f"{where(c)}, chunks of {chunk}: {got} != {ends[c]}"
    for budget in (gapped_mod._SWEEP_BYTES, 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gapped_mod, "_SWEEP_BYTES", budget)
            alns = banded_local_align_many(*packed, scheme, band=band,
                                           identity_qcat=identity_qcat)
        assert len(alns) == len(want)
        for c, aln in enumerate(want):
            assert alns[c] == aln, f"{where(c)}, budget {budget}"
    return want


def _assert_bulk_matches_scalar(rng, scheme, alphabet_size, band,
                                n_cand=300):
    want = _assert_kernels_match_scalar(
        _random_candidates(rng, alphabet_size, n_cand), scheme, band)
    # The corpus exercises what it is meant to: opened and extended
    # gaps, and (narrow bands) candidates where nothing scores.
    if band >= 4:
        assert any("II" in a.ops or "DD" in a.ops for a in want)
    if band <= 4:
        assert any(a.score == 0 for a in want)


@pytest.mark.parametrize("band", [0, 4, 24, 64])
def test_bulk_matches_scalar_nucleotide(band):
    rng = np.random.default_rng(100 + band)
    _assert_bulk_matches_scalar(rng, NucleotideScore(), 4, band)


@pytest.mark.parametrize("band", [0, 4, 24, 64])
def test_bulk_matches_scalar_protein(band):
    rng = np.random.default_rng(200 + band)
    _assert_bulk_matches_scalar(rng, ProteinScore(), 20, band)


def _pssm_candidates(rng, m, n_cand, max_subject=90):
    """*n_cand* candidates whose queries are runs of PSSM positions
    ``0..ql-1`` (``ql < m``) and whose subjects are residues, packed
    like :func:`_random_candidates`."""
    q_seqs, s_seqs = [], []
    q_off, q_len, s_off, s_len, diag = [], [], [], [], []
    qpos = spos = 0
    for _ in range(n_cand):
        ql = int(rng.integers(5, m))
        sl = int(rng.integers(5, max_subject))
        q_seqs.append(np.arange(ql, dtype=np.int64))
        s_seqs.append(rng.integers(0, 20, sl).astype(np.int64))
        q_off.append(qpos)
        q_len.append(ql)
        s_off.append(spos)
        s_len.append(sl)
        diag.append(int(rng.integers(-ql - 4, sl + 4)))
        qpos += ql
        spos += sl
    return (np.concatenate(q_seqs), np.concatenate(s_seqs), np.array(q_off),
            np.array(q_len), np.array(s_off), np.array(s_len),
            np.array(diag))


@pytest.mark.parametrize("band", [0, 4, 24])
def test_bulk_matches_scalar_pssm(band):
    """PSI-BLAST passes query *positions* and a per-position matrix,
    and the residues to count identities against separately; the
    kernels must gather through that matrix, and the traceback must
    honour the identity residues, identically."""
    rng = np.random.default_rng(300 + band)
    m = 80  # position count: every query is positions 0..ql-1 < m
    matrix = rng.integers(-4, 9, size=(m, 25)).astype(np.int32)
    matrix.setflags(write=False)
    scheme = ScoringScheme(matrix, 11, 1, "pssm")
    packed = _pssm_candidates(rng, m, 200)
    qcat, scat = packed[:2]
    # Four-letter identity residues: identities are neither 0 nor all.
    residues = rng.integers(0, 4, len(qcat)).astype(np.uint8)
    scat %= 4
    want = _assert_kernels_match_scalar(packed, scheme, band,
                                        identity_qcat=residues)
    assert any(0 < a.identities < a.ops.count("M") for a in want)


@contextmanager
def dp_widths():
    """The integer types the bulk sweep picks, one per chunk, in order."""
    seen = []
    pick = gapped_mod._dp_width

    def spy(*args):
        dtype, neg = pick(*args)
        seen.append(dtype)
        return dtype, neg

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gapped_mod, "_dp_width", spy)
        yield seen


@pytest.mark.parametrize("scale,width", [(1, np.int16), (100, np.int32),
                                         (10 ** 7, np.int64)])
def test_bulk_integer_widths(scale, width):
    """Each chunk sweeps in the narrowest integer type its static bound
    (rows x the matrix maximum, plus penalties and the matrix minimum)
    fits: a 300-position PSSM of entries up to 8 stays in int16, at
    100x its entries the bound crosses into int32 and at 10^7x into
    int64.  Both modes still equal the oracle (int64 throughout), and
    the widths are pinned, so a sweep that silently widened every chunk
    would fail here."""
    rng = np.random.default_rng(400 + len(str(scale)))
    m = 300
    matrix = rng.integers(-4, 9, size=(m, 25)).astype(np.int64) * scale
    matrix.setflags(write=False)
    scheme = ScoringScheme(matrix, 11, 1, "pssm")
    packed = _pssm_candidates(rng, m, 40, max_subject=320)
    with dp_widths() as seen:
        want = _assert_kernels_match_scalar(packed, scheme, 24)
    # The score mode sweeps the 40 problems as one chunk, first; every
    # later chunk is narrower or equal.
    assert seen[0] == width
    assert max(seen, key=lambda d: d.itemsize) == width
    # The best scores overflow the next narrower type.
    narrower = {np.int32: np.int16, np.int64: np.int32}.get(width)
    if narrower is not None:
        assert max(a.score for a in want) > np.iinfo(narrower).max
    assert any("I" in a.ops or "D" in a.ops for a in want)


def test_benchmark_protein_chunks_sweep_in_int16():
    """The protein search's DP chunks (350-row problems under BLOSUM62,
    bound 350 x 11 plus penalties) run in int16."""
    rng = np.random.default_rng(41)
    db = random_aa_db(rng, 30, min_len=300, max_len=400)
    q = mutated_query(db, 3, rng, period=9, length=350)
    with dp_widths() as seen:
        search(q, db, ProteinScore(), SearchParams(word_size=3),
               query_id="q")
    assert seen and set(seen) == {np.dtype(np.int16)}


@contextmanager
def pinned_width(dtype):
    """Every chunk swept in *dtype* (``None``: the type ``_dp_width``
    picks), when that is at least as wide as the picked one."""
    pick = gapped_mod._dp_width

    def pinned(*args):
        picked, neg = pick(*args)
        return max(picked, np.dtype(dtype), key=lambda d: d.itemsize), neg

    with pytest.MonkeyPatch.context() as mp:
        if dtype is not None:
            mp.setattr(gapped_mod, "_dp_width", pinned)
        yield


def _random_problems(seed, alphabet, band, gaps, short_subjects, n_cand,
                     pssm):
    """``(packed, scheme, identity_qcat)``: *n_cand* random problems
    over a random *alphabet*-letter matrix or a PSSM (whose residues
    count identities), half with planted homology and maybe an indel,
    subjects shorter than the band when *short_subjects*, ``gap_open``
    above, equal to or below ``gap_extend`` as *gaps* says."""
    rng = np.random.default_rng(seed)
    ge = int(rng.integers(1, 4))
    go = {"open>extend": ge + int(rng.integers(1, 8)), "open==extend": ge,
          "open<extend": int(rng.integers(0, ge))}[gaps]
    q_seqs, s_seqs = [], []
    for _ in range(n_cand):
        q = rng.integers(0, alphabet, int(rng.integers(1, 60)))
        s_max = max(2, band) if short_subjects else 80
        s = rng.integers(0, alphabet, int(rng.integers(1, s_max + 1)))
        if rng.random() < 0.5:         # planted homology, maybe an indel
            k = min(len(q), len(s))
            s[:k] = q[:k]
            if k > 2 and rng.random() < 0.5:
                cut = int(rng.integers(1, k - 1))
                s = np.concatenate([s[:cut], s[cut + 1:]])
        q_seqs.append(q)
        s_seqs.append(s)
    q_len = np.array([len(q) for q in q_seqs])
    identity_qcat = None
    if pssm:
        # Queries are PSSM positions; the residues count identities.
        matrix = rng.integers(-5, 9, size=(int(q_len.max()), alphabet))
        identity_qcat = np.concatenate(q_seqs)
        q_seqs = [np.arange(n) for n in q_len]
    else:
        matrix = rng.integers(-5, 9, size=(alphabet, alphabet))
    matrix = matrix.astype(np.int64)
    matrix.setflags(write=False)
    scheme = ScoringScheme(matrix, go, ge, "aa")
    s_len = np.array([len(s) for s in s_seqs])
    diag = np.array([int(rng.integers(-ql - band - 2, sl + band + 3))
                     for ql, sl in zip(q_len, s_len)])
    packed = (np.concatenate(q_seqs), np.concatenate(s_seqs),
              np.concatenate([[0], np.cumsum(q_len)[:-1]]), q_len,
              np.concatenate([[0], np.cumsum(s_len)[:-1]]), s_len, diag)
    return packed, scheme, identity_qcat


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       alphabet=st.integers(2, 25),
       band=st.integers(0, 64),
       gaps=st.sampled_from(["open>extend", "open==extend", "open<extend"]),
       short_subjects=st.booleans(),
       n_cand=st.integers(1, 12),
       pssm=st.booleans(),
       narrow_cells=st.sampled_from([None, 0, 10 ** 9]),
       budget=st.sampled_from([None, 1, 20_000]),
       width=st.sampled_from([None, np.int32, np.int64]))
def test_stacked_kernels_equal_scalar(seed, alphabet, band, gaps,
                                      short_subjects, n_cand, pssm,
                                      narrow_cells, budget, width):
    """Both modes of the one row sweep against the oracle (the per-row
    scalar kernel), field for field for the align mode and ``(score,
    q_end, s_end)`` for the score mode: random alphabets and matrices
    or a PSSM with ``identity_qcat``, bands 0-64, ``gap_open`` above,
    equal to and below ``gap_extend``, subjects shorter than the band,
    E's prefix maximum as one ``accumulate`` and as log-step passes
    (the switch pinned either way, or left at the problem count), a
    chunk budget of one byte, a few problems and the default, and every
    DP integer width."""
    packed, scheme, identity_qcat = _random_problems(
        seed, alphabet, band, gaps, short_subjects, n_cand, pssm)
    with pinned_width(width), pytest.MonkeyPatch.context() as mp:
        if narrow_cells is not None:
            mp.setattr(gapped_mod, "_NARROW_CELLS", narrow_cells)
        if budget is not None:
            mp.setattr(gapped_mod, "_SWEEP_BYTES", budget)
        _assert_kernels_match_scalar(packed, scheme, band,
                                     identity_qcat=identity_qcat)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       alphabet=st.integers(2, 25),
       band=st.integers(0, 32),
       gaps=st.sampled_from(["open>extend", "open==extend", "open<extend"]),
       short_subjects=st.booleans(),
       n_cand=st.integers(1, 12),
       pssm=st.booleans())
def test_aligning_to_the_best_row_equals_the_full_alignment(
        seed, alphabet, band, gaps, short_subjects, n_cand, pssm):
    """What lets the driver align a scored batch's survivors only up to
    their best rows: for every problem with a positive score, aligning
    query rows ``[1, q_end]`` — ``q_end`` the score mode's — gives the
    full alignment, field for field.  The DP only looks back, and no
    earlier row holds the best score."""
    packed, scheme, identity_qcat = _random_problems(
        seed, alphabet, band, gaps, short_subjects, n_cand, pssm)
    qcat, scat, q_off, q_len, s_off, s_len, diag = packed
    score, q_end, _s_end = bulk_banded_score(*packed, scheme, band=band)
    full = banded_local_align_many(*packed, scheme, band=band,
                                   identity_qcat=identity_qcat)
    pos = np.flatnonzero(score > 0)
    cut = banded_local_align_many(
        qcat, scat, q_off[pos], q_end[pos], s_off[pos], s_len[pos],
        diag[pos], scheme, band=band, identity_qcat=identity_qcat)
    assert cut == [full[c] for c in pos]
    assert all(full[c].q_end == q_end[c] for c in pos)


def test_bulk_gap_open_equals_extend_fallback():
    """gap_open == gap_extend switches the kernel to the per-slot
    E-scan loop; it must stay exact there too."""
    rng = np.random.default_rng(7)
    scheme = NucleotideScore(gap_open=2, gap_extend=2)
    _assert_bulk_matches_scalar(rng, scheme, 4, band=8, n_cand=200)
    scheme = ScoringScheme(BLOSUM62, 3, 3, "aa")
    _assert_bulk_matches_scalar(rng, scheme, 20, band=24, n_cand=150)


def test_bulk_tie_breaks_on_flat_scores():
    """+1/-1 with gaps 2/1 makes DIAG / F / E and open / extend ties
    common on the traceback path; the derived pointers must break them
    in the oracle's order (``go > ge``: the closed-form scan)."""
    rng = np.random.default_rng(11)
    scheme = NucleotideScore(match=1, mismatch=-1, gap_open=2, gap_extend=1)
    _assert_bulk_matches_scalar(rng, scheme, 4, band=8, n_cand=400)
    _assert_bulk_matches_scalar(rng, scheme, 2, band=24, n_cand=200)


def test_band_zero_has_no_within_row_gap():
    """A one-slot band used to crash the one-problem kernel's
    closed-form E scan while the bulk kernel answered — so with
    ``SearchParams(band=0)`` the result depended on the routing."""
    q = np.array([0, 1, 2, 3, 0, 1], dtype=np.int64)
    aln = banded_local_align(q, q, 0, NucleotideScore(), band=0)
    assert (aln.score, aln.q_end, aln.s_end, aln.ops) == (6, 6, 6, "MMMMMM")
    score, qend, send = bulk_banded_score(
        q, q, [0], [6], [0], [6], [0], NucleotideScore(), band=0)
    assert (int(score[0]), int(qend[0]), int(send[0])) == (6, 6, 6)
    assert banded_local_align_many(q, q, [0], [6], [0], [6], [0],
                                   NucleotideScore(), band=0) == [aln]


@pytest.mark.parametrize("bad", ["subject", "query"])
def test_codes_outside_the_matrix_raise(bad):
    """A residue code past the scoring matrix is an error in both modes
    (the gathers clip, so the sweep checks the codes)."""
    q = np.array([0, 1, 2, 3, 0, 1], dtype=np.int64)
    s = q.copy()
    (s if bad == "subject" else q)[3] = 9
    scheme = NucleotideScore()
    with pytest.raises(IndexError):
        banded_local_align(q, s, 0, scheme, band=2)
    one = ([0], [6], [0], [6], [0])
    with pytest.raises(IndexError):
        bulk_banded_score(q, s, *one, scheme, band=2)
    with pytest.raises(IndexError):
        banded_local_align_many(q, s, *one, scheme, band=2)


def test_kernel_annotations_resolve():
    """``bulk_banded_score`` was annotated with a ``Tuple`` the module
    never imported; only ``from __future__ import annotations`` hid it."""
    import typing

    for fn in (banded_local_align, banded_local_align_many,
               bulk_banded_score):
        assert "return" in typing.get_type_hints(fn)


def test_bulk_empty_and_degenerate_inputs():
    scheme = NucleotideScore()
    nothing = GappedAlignment(0, 0, 0, 0, 0, 0, 0)
    empty = np.array([], dtype=np.int64)
    score, qend, send = bulk_banded_score(
        empty, empty, empty, empty, empty, empty, empty, scheme)
    assert len(score) == len(qend) == len(send) == 0
    assert banded_local_align_many(empty, empty, empty, empty, empty, empty,
                                   empty, scheme) == []
    # Single candidate whose band misses the subject entirely.
    q = np.array([0, 1, 2, 3], dtype=np.int64)
    s = np.array([0, 1, 2, 3], dtype=np.int64)
    one = (np.array([0]), np.array([4]), np.array([0]), np.array([4]))
    score, qend, send = bulk_banded_score(
        q, s, *one, np.array([500]), scheme, band=4)
    assert (int(score[0]), int(qend[0]), int(send[0])) == (0, 0, 0)
    assert banded_local_align_many(q, s, *one, np.array([500]), scheme,
                                   band=4) == [nothing]
    # In range, but nothing scores: all mismatches.
    assert banded_local_align_many(q, (s + 1) % 4, *one, np.array([0]),
                                   scheme, band=0) == [nothing]
    assert banded_local_align(q, (s + 1) % 4, 0, scheme, band=0) == nothing


# ----------------------------------------------------------------------
# 2. Pipeline equivalence: culling never changes rendered output
# ----------------------------------------------------------------------
@contextmanager
def direct_route():
    """Align every batch's problems directly: with the align mode's
    chunk budget out of reach, every batch fits one chunk."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gapped_mod, "_SWEEP_BYTES", 10 ** 12)
        yield


@contextmanager
def scored_route():
    """Score every batch of two or more problems first and align only
    its survivors: a one-byte budget holds one problem a chunk."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gapped_mod, "_SWEEP_BYTES", 1)
        yield


@pytest.mark.parametrize("evalue_cutoff", [10.0, 1e-2])
def test_search_nt_byte_identical(evalue_cutoff):
    rng = np.random.default_rng(40)
    db = random_nt_db(rng, 25)
    params = SearchParams(evalue_cutoff=evalue_cutoff)
    for qi in (2, 7, 11):
        q = mutated_query(db, qi, rng, period=29, length=220)
        with scored_route():
            bulk = search(q, db, NucleotideScore(), params, query_id="q")
        with direct_route():
            scal = search(q, db, NucleotideScore(), params, query_id="q")
        assert dump(bulk) == dump(scal)
        assert bulk.tabular() == scal.tabular()


def _planted_at_score(rng, core_len, query_len=120, flank=20):
    """A query and a database whose one planted hit extends, ungapped,
    to a score of exactly *core_len*: ``+1`` per core column, and every
    other column of the hit's diagonal a mismatch."""
    q = rng.integers(0, 4, query_len)
    lo = (query_len - core_len) // 2
    on_diag = (q + rng.integers(1, 4, query_len)) % 4
    on_diag[lo:lo + core_len] = q[lo:lo + core_len]
    subject = np.concatenate([rng.integers(0, 4, flank), on_diag,
                              rng.integers(0, 4, flank)])
    db = random_nt_db(rng, 4)
    db.add("planted", "".join(NT_LETTERS[subject]))
    return q.astype(np.uint8), db, len(db) - 1


@pytest.mark.parametrize("delta", [-1, 0])
@pytest.mark.parametrize("trigger", [22, 13])
def test_emit_bound_boundary_matches_oracle(trigger, delta):
    """A group is dropped before the dedup replay when its best
    ungapped extension scores under ``s*`` (the least score whose
    E-value passes), capped at ``gapped_trigger``.  Planted at exactly
    one under the bound and exactly at it, the driver renders what the
    oracle, which has no bound, renders — and reports the plant iff it
    reaches ``s*``."""
    scheme = NucleotideScore()
    s_star = 16
    bound = min(s_star, trigger)
    rng = np.random.default_rng(53)
    q, db, sid = _planted_at_score(rng, bound + delta)
    ka = search_mod.resolve_ka(scheme, SearchParams(), False)
    space = (len(q), db.total_residues)
    cutoff = ka.evalue(s_star, *space)
    assert ka.evalue(s_star - 1, *space) > cutoff
    assert ka.min_passing_score(cutoff, *space) == s_star
    params = SearchParams(gapped_trigger=trigger, evalue_cutoff=cutoff)
    got = search(q, db, scheme, params, query_id="q")
    want = search_reference(q, db, scheme, params, query_id="q")
    assert dump(got) == dump(want)
    assert got.tabular() == want.tabular()
    planted = [h for hit in got.hits if hit.subject_id == sid
               for h in hit.hsps]
    if bound == s_star:
        assert [h.score for h in planted] == ([s_star] if delta == 0
                                              else [])


@pytest.mark.parametrize("band", [4, 24])
def test_search_protein_byte_identical(band):
    rng = np.random.default_rng(41)
    db = random_aa_db(rng, 30)
    params = SearchParams(word_size=3, band=band)
    for qi in (1, 5, 9):
        q = mutated_query(db, qi, rng, period=9, length=200)
        with scored_route(), \
                profiled("t", enabled=True, emit=False) as prof_bulk:
            bulk = search(q, db, ProteinScore(), params, query_id="q")
        with direct_route(), \
                profiled("t", enabled=True, emit=False) as prof_scal:
            scal = search(q, db, ProteinScore(), params, query_id="q")
        # The two sides really took the two routes.
        assert "gapped_bulk" in prof_bulk.stages
        assert "gapped_bulk" not in prof_scal.stages
        assert dump(bulk) == dump(scal)
        assert bulk.tabular() == scal.tabular()


def test_search_batch_byte_identical():
    """Two-hit seeds through their grouped seeder and the one bulk
    extension kernel, at batch sizes 1, 3 and 4, on both DP routes,
    against the per-sequence oracle."""
    rng = np.random.default_rng(42)
    db = random_aa_db(rng, 20)
    params = SearchParams(word_size=3)
    queries = [mutated_query(db, qi, rng, period=9, length=180)
               for qi in (0, 3, 6, 12)]
    ids = [f"q{i}" for i in range(len(queries))]
    refs = [dump(search_reference(q, db, ProteinScore(), params,
                                  query_id=qid))
            for q, qid in zip(queries, ids)]
    for n in (1, 3, 4):
        with scored_route():
            bulk = search_batch(queries[:n], db, ProteinScore(), params,
                                query_ids=ids[:n])
        with direct_route():
            scal = search_batch(queries[:n], db, ProteinScore(), params,
                                query_ids=ids[:n])
        assert [dump(r) for r in bulk] == [dump(r) for r in scal] == refs[:n]


def test_pool_two_jobs_byte_identical():
    from repro.exec import ExecPool

    rng = np.random.default_rng(43)
    db = random_nt_db(rng, 24, min_len=100, max_len=300)
    params = SearchParams()
    scheme = NucleotideScore()
    queries = [mutated_query(db, qi, rng, period=29, length=200)
               for qi in (1, 8, 15)]
    ids = [f"q{i}" for i in range(len(queries))]
    with ExecPool(jobs=2) as pool:
        pooled = pool.search_many(queries, db, scheme, params,
                                  query_ids=ids, n_fragments=4)
    with direct_route():
        serial = [search(q, db, scheme, params, query_id=qid)
                  for q, qid in zip(queries, ids)]
    assert [dump(r) for r in pooled] == [dump(r) for r in serial]


def test_psiblast_pssm_rounds_byte_identical():
    """Round >= 2 searches position indices against a PSSM scheme with
    ``identity_query`` set — the scored route must survive that too."""
    rng = np.random.default_rng(44)
    db = random_aa_db(rng, 15, min_len=80, max_len=200)
    # Plant a family so the PSSM rounds have material to include.
    seed_seq = db.sequence_str(0)[:120]
    fam = np.frombuffer(seed_seq.encode(), dtype=np.uint8).copy()
    for i in range(4):
        mutant = fam.copy()
        mutant[i + 1::11] = np.frombuffer(
            b"ARND", dtype=np.uint8)[rng.integers(0, 4, len(mutant[i + 1::11]))]
        db.add(f"fam{i}", mutant.tobytes().decode())
    stacked = []  # (DP problems, identity residues passed) per call

    def spy(*args, **kwargs):
        stacked.append((len(args[6]), kwargs["identity_qcat"] is not None))
        return banded_local_align_many(*args, **kwargs)

    with scored_route(), pytest.MonkeyPatch.context() as mp:
        mp.setattr(search_mod, "banded_local_align_many", spy)
        bulk = psiblast(seed_seq, db, iterations=3)
    with direct_route():
        scal = psiblast(seed_seq, db, iterations=3)
    # The PSSM round really aligned only the survivors, with its
    # identity residues: 32 survivors of 45 scored diagonals.
    assert stacked[-1] == (32, True)
    assert bulk.n_iterations == scal.n_iterations == 2
    assert bulk.converged == scal.converged
    assert ([dump(r) for r in bulk.iterations]
            == [dump(r) for r in scal.iterations])
    # ... and round 2 is what the per-survivor tracebacks produced
    # before they were stacked (integer fields only, read at PR 12).
    rows = [(h.subject_id, p.score, p.q_start, p.q_end, p.s_start, p.s_end,
             p.identities, p.align_len, p.ops)
            for h in bulk.iterations[1].hits for p in h.hsps]
    assert len(rows) == 22
    assert (hashlib.sha256(repr(rows).encode()).hexdigest()[:16]
            == "f4db65acf6aa9aa5")


def test_tiny_workloads_route_to_scalar():
    """A batch whose problems fit one align chunk is aligned directly:
    no score pass (no ``gapped_bulk`` stage), the oracle's output."""
    rng = np.random.default_rng(49)
    db = random_nt_db(rng, 10)
    q = mutated_query(db, 2, rng, period=29, length=200)
    params = SearchParams()
    with profiled("t", enabled=True, emit=False) as prof:
        bulk = search(q, db, NucleotideScore(), params, query_id="q")
    assert prof.counters.get("gapped_trials", 0) > 0  # gapped work ran
    assert "gapped_bulk" not in prof.stages
    ref = search_reference(q, db, NucleotideScore(), params, query_id="q")
    assert dump(bulk) == dump(ref)


def test_scalar_route_is_one_kernel_call(monkeypatch):
    """When a batch's gapped problems fit one align chunk they are all
    aligned by one ``banded_local_align_many`` call — one row sweep —
    and no score pass runs; the output is the oracle's."""
    rng = np.random.default_rng(49)
    db = random_nt_db(rng, 12)
    queries = [mutated_query(db, qi, rng, period=29, length=200)
               for qi in (2, 5, 9)]
    calls = []

    def spy(*args, **kwargs):
        calls.append(len(args[6]))
        return banded_local_align_many(*args, **kwargs)

    def stacked(*args, **kwargs):
        raise AssertionError("the score pass ran")

    monkeypatch.setattr(search_mod, "banded_local_align_many", spy)
    monkeypatch.setattr(search_mod, "bulk_banded_score", stacked)
    params = SearchParams()
    ids = ["q0", "q1", "q2"]
    with profiled("t", enabled=True, emit=False) as prof:
        got = search_batch(queries, db, NucleotideScore(), params,
                           query_ids=ids)
    trials = prof.counters["gapped_trials"]
    assert trials >= 3
    assert calls == [trials]
    assert [dump(r) for r in got] == [
        dump(search_reference(q, db, NucleotideScore(), params, query_id=i))
        for q, i in zip(queries, ids)]


def test_counters_traceback_bounded_by_trials():
    rng = np.random.default_rng(46)
    db = random_aa_db(rng, 25)
    q = mutated_query(db, 4, rng, period=9, length=220)
    params = SearchParams(word_size=3)
    with scored_route(), profiled("t", enabled=True, emit=False) as prof:
        search(q, db, ProteinScore(), params, query_id="q")
    c = prof.counters
    assert c.get("gapped_trials", 0) > 0
    assert 0 < c.get("gapped_traceback", 0) <= c["gapped_trials"]
    # The whole point of the two-pass stage: most candidates resolve
    # without a pointer-matrix DP on a noisy corpus.
    assert c.get("gapped_culled", 0) > 0
    # Stacking the tracebacks must not change what is counted: the
    # values the per-survivor pass 2 gave on this corpus (PR 12).
    assert (c["gapped_trials"], c["gapped_traceback"],
            c["gapped_culled"]) == (54, 38, 16)


def _two_candidates_on_one_diagonal():
    """A protein subject the query meets three times: blocks A and B on
    diagonal 0 — the 12 residues between them differ so badly that the
    ungapped extension of one never reaches the other, while the band
    DP on that diagonal joins them — and a shorter block C, far off
    that diagonal (it ends the query and starts the subject)."""
    rng = np.random.default_rng(50)
    a, b, c = ("".join(AA_LETTERS[rng.integers(0, 20, n)])
               for n in (40, 40, 18))
    query = a + "W" * 12 + b + c
    subject = c + a + "D" * 12 + b
    db = random_aa_db(rng, 6)
    db.add("triple", subject)
    return encode_protein(query), db, len(db) - 1


@pytest.mark.parametrize("route", ["scalar", "bulk"])
def test_candidates_on_one_diagonal_share_one_dp_problem(route, monkeypatch):
    """A and B trigger separately but share one DP problem and one
    alignment (the second is a duplicate span), so the subject reports
    the joined A..B alignment once, then C — as the per-candidate
    oracle does, running the DP twice."""
    monkeypatch.setattr(gapped_mod, "_SWEEP_BYTES",
                        10 ** 12 if route == "scalar" else 1)
    q, db, sid = _two_candidates_on_one_diagonal()
    scheme = ProteinScore()
    params = SearchParams(word_size=3, xdrop_ungapped=16)
    with profiled("t", enabled=True, emit=False) as prof:
        got = search(q, db, scheme, params, query_id="q")
    assert dump(got) == dump(search_reference(q, db, scheme, params,
                                              query_id="q"))
    assert ("gapped_bulk" in prof.stages) == (route == "bulk")
    spans = [(h.q_start, h.q_end) for hit in got.hits
             if hit.subject_id == sid for h in hit.hsps]
    assert spans[:2] == [(0, 92), (92, 110)]
    # Alone in a database: five candidates trigger on this subject (A,
    # B, C and two chance ones) on four diagonals, so four DP problems;
    # the memo hit is culled on both routes.
    one = SequenceDB(AA)
    one.add("triple", db.sequence_str(sid))
    with profiled("t", enabled=True, emit=False) as prof:
        search(q, one, scheme, params, query_id="q")
    c = prof.counters
    assert c["gapped_trials"] == 4
    assert c["gapped_traceback"] + c["gapped_culled"] == 5
    assert c["gapped_culled"] >= 1


def test_benchmark_protein_query_counters_pinned():
    """Query 0 of the benchmark's ``aa_gapped_serial`` workload at seed
    1, built by the benchmark's own generator: what the pipeline counts
    did not move when two-hit seeds changed seeder and extension kernel
    (PR 22) — same seeds, same coverage skips, same DP problems."""
    perf = os.path.join(os.path.dirname(__file__), os.pardir, "perf")
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(perf)
        make_aa = importlib.import_module("harness.inputs").make_aa
    aa = make_aa(1)
    assert search_mod._TWO_HIT_WINDOW == 40
    with profiled("t", enabled=True, emit=False) as prof:
        search(aa.encoded[0], aa.db, aa.scheme, aa.params, query_id="q")
    c = prof.counters
    assert (c["seeds"], c["seeds_skipped"], c["gapped_trials"],
            c["gapped_traceback"]) == (4081, 8, 839, 113)


def test_no_candidates_no_crash():
    """A query with zero seeds exercises the empty-job path."""
    db = SequenceDB(NT)
    db.add("s0", "ACGT" * 40)
    q = np.zeros(30, dtype=np.uint8)  # poly-A: seeds, but vs poly-ACGT
    q[:] = 2  # poly-G — no 11-mer matches ACGT repeats
    res = search(q, db, NucleotideScore(), SearchParams(), query_id="q")
    assert res.hits == []
