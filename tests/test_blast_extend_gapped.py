"""Tests for ungapped X-drop extension and banded gapped alignment."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.blast.alphabet import PROTEIN, encode_dna
from repro.blast.extend import (_AUTOMATON_BYTES, _BULK_WINDOWS,
                                _STATE_ENTRIES, _window_dtype,
                                _xdrop_automaton, bulk_ungapped_extend)
from repro.blast import gapped as gapped_mod
from repro.blast.gapped import banded_local_align, banded_local_align_many
from repro.blast.profile import profiled
from repro.blast.programs import program_defaults
from repro.blast.scankernel import build_scan_structures
from repro.blast.score import BLOSUM62, NucleotideScore, ScoringScheme
from repro.blast.seqdb import NT, SequenceDB

from oracle_gapped import banded_local_align as oracle_banded_local_align
from oracle_search import ungapped_extend

SCHEME = NucleotideScore()  # +1/-3, gaps 5/2


def test_ungapped_extends_exact_match_fully():
    q = encode_dna("ACGTACGTAC")
    s = encode_dna("TTACGTACGTACTT")
    hsp = ungapped_extend(q, s, 0, 2, SCHEME, xdrop=10)
    assert hsp.q_start == 0 and hsp.s_start == 2
    assert hsp.length == 10
    assert hsp.score == 10
    assert hsp.q_end == 10 and hsp.s_end == 12


def test_ungapped_extends_left_and_right():
    q = encode_dna("AAAACCCCGGGG")
    s = encode_dna("TTAAAACCCCGGGGTT")
    # Seed in the middle.
    hsp = ungapped_extend(q, s, 6, 8, SCHEME, xdrop=10)
    assert hsp.q_start == 0
    assert hsp.s_start == 2
    assert hsp.length == 12
    assert hsp.score == 12


def test_ungapped_stops_at_xdrop():
    # Match block, then a long mismatch run, then another match block
    # that the X-drop must not reach.
    q = encode_dna("AAAAAAAA" + "CCCC" + "AAAAAAAA")
    s = encode_dna("AAAAAAAA" + "GGGG" + "TTTTTTTT")
    hsp = ungapped_extend(q, s, 0, 0, SCHEME, xdrop=5)
    assert hsp.length == 8
    assert hsp.score == 8


def test_ungapped_xdrop_bridges_small_dip():
    # One mismatch (-3) inside matches: bridged when xdrop > 3.
    q = encode_dna("AAAAATAAAAA")
    s = encode_dna("AAAAACAAAAA")
    hsp = ungapped_extend(q, s, 0, 0, SCHEME, xdrop=10)
    assert hsp.length == 11
    assert hsp.score == 10 - 3


def test_ungapped_at_sequence_edges():
    q = encode_dna("ACGT")
    s = encode_dna("ACGT")
    hsp = ungapped_extend(q, s, 3, 3, SCHEME, xdrop=10)
    assert hsp.q_start == 0 and hsp.length == 4


def test_ungapped_no_negative_scores_reported():
    q = encode_dna("AAAA")
    s = encode_dna("CCCC")
    hsp = ungapped_extend(q, s, 0, 0, SCHEME, xdrop=3)
    assert hsp.score == 0
    assert hsp.length == 0


@settings(max_examples=100)
@given(st.text(alphabet="ACGT", min_size=11, max_size=80),
       st.integers(0, 79))
def test_ungapped_self_alignment_is_full_length(s, pos):
    """Extending a sequence against itself from any anchor recovers the
    identity alignment."""
    enc = encode_dna(s)
    anchor = min(pos, len(s) - 1)
    hsp = ungapped_extend(enc, enc, anchor, anchor, SCHEME, xdrop=10 ** 6)
    assert hsp.q_start == 0
    assert hsp.length == len(s)
    assert hsp.score == len(s)


# ---------------------------------------------------------------- gapped
# ------------------------------------- the bulk kernel vs the single seed

#: Walk lengths around the window ladder's edges (nothing / one window
#: / the other, either side of each) and one well past it.
_AVAILS = [0, 1, 31, 32, 33, 63, 64, 65, 150]
#: X-drops whose static bound puts both windows in int16; the 32-wide
#: one in int16 and the 64-wide in int32; both in int32; the 32-wide in
#: int32 and the 64-wide in int64; both in int64.
_XDROPS = [0, 5, 20, 600, 5000, 40_000_000, 10 ** 9]


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       kind=st.sampled_from(["nt", "aa", "pssm"]),
       xdrop=st.sampled_from(_XDROPS),
       n_seeds=st.integers(1, 12),
       mutation=st.sampled_from([0.0, 0.05, 0.3, 1.0]))
def test_bulk_extension_equals_oracle_per_seed(seed, kind, xdrop, n_seeds,
                                               mutation):
    """``bulk_ungapped_extend`` over many seeds at once returns, for
    every seed and in each direction, what the oracle's single-seed
    ``ungapped_extend`` returns: seeds whose walks end around 0, 31,
    32, 33, 63, 64 and 65 positions out (the window ladder's edges) or
    well past it, X-drops that put the windows in int16, int32 and
    int64, subjects from identical to unrelated, under nt, BLOSUM62 and
    a random PSSM (positions as the query).  Subjects sit in one flat
    concatenation with sentinels, so a window that runs past a
    subject's end reads its neighbour's bytes and must ignore them."""
    rng = np.random.default_rng(seed)
    qlen = 2 * max(_AVAILS) + 8
    alphabet = 4 if kind == "nt" else 20
    residues = rng.integers(0, alphabet, qlen).astype(np.uint8)
    if kind == "nt":
        scheme = NucleotideScore()
        query = residues
    elif kind == "aa":
        scheme = ScoringScheme(BLOSUM62, 11, 1, PROTEIN)
        query = residues
    else:
        pssm = rng.integers(-4, 5, (qlen, len(PROTEIN))).astype(np.int32)
        pssm[np.arange(qlen), residues] += 6
        scheme = ScoringScheme(pssm, 11, 1, PROTEIN)
        query = np.arange(qlen)
    sentinel = scheme.matrix.shape[1]
    subjects, seeds = [], []
    for _ in range(n_seeds):
        a_l, a_r = (int(a) for a in rng.choice(_AVAILS, 2))
        # min(qp, sp) == a_l on the left, len(subject) - sp == a_r on
        # the right (the query is long enough not to bind first).
        sp = a_l
        qp = a_l + int(rng.integers(0, qlen - a_l - a_r + 1))
        subject = residues[qp - sp:qp + a_r].copy()
        hit = rng.random(len(subject)) < mutation
        subject[hit] = rng.integers(0, alphabet, int(hit.sum()))
        subjects.append(subject)
        seeds.append((qp, sp))
    starts = np.cumsum([0] + [len(s) + 1 for s in subjects[:-1]])
    scat = np.concatenate([np.append(s, sentinel) for s in subjects]
                          ).astype(np.uint8)
    qp = np.array([q for q, _ in seeds], dtype=np.int64)
    sp = np.array([s for _, s in seeds], dtype=np.int64)
    slen = np.array([len(s) for s in subjects], dtype=np.int64)
    ll, ls, rl, rs = bulk_ungapped_extend(
        query, scat, qp, starts + sp, np.minimum(qp, sp),
        np.minimum(qlen - qp, slen - sp), scheme, xdrop=xdrop)
    for i, (q0, s0) in enumerate(seeds):
        subject = subjects[i]
        left = ungapped_extend(query[:q0], subject[:s0], q0, s0, scheme,
                               xdrop=xdrop)
        right = ungapped_extend(query[q0:], subject[s0:], 0, 0, scheme,
                                xdrop=xdrop)
        both = ungapped_extend(query, subject, q0, s0, scheme, xdrop=xdrop)
        assert (int(ll[i]), int(ls[i])) == (left.length, left.score)
        assert (int(rl[i]), int(rs[i])) == (right.length, right.score)
        assert (q0 - int(ll[i]), int(ll[i] + rl[i]),
                int(ls[i] + rs[i])) == (both.q_start, both.length,
                                        both.score)


def _peak_scheme(source: str, m: int):
    """A two-letter scheme whose width bound ``max(smax, -smin,
    xdrop + 1)`` is *m*, set by the matrix maximum, its minimum or the
    X-drop; returns ``(scheme, xdrop)``."""
    if source == "smax":
        matrix, xdrop = [[m, -1], [-1, m]], 0
    elif source == "smin":
        matrix, xdrop = [[1, -m], [-m, 1]], 0
    else:
        matrix, xdrop = [[1, -1], [-1, 1]], m - 1
    return ScoringScheme(np.array(matrix, dtype=np.int64), 5, 2, "ab"), xdrop


@pytest.mark.parametrize("window", _BULK_WINDOWS)
@pytest.mark.parametrize("source", ["smax", "smin", "xdrop"])
@pytest.mark.parametrize("narrow,wide", [(np.int16, np.int32),
                                         (np.int32, np.int64)])
def test_window_width_boundaries(window, source, narrow, wide):
    """A window runs in the narrowest integer type holding ``window x
    max(smax, -smin, xdrop + 1)``: exactly at the narrow type's maximum
    it stays narrow, one step of the bound past it is wide, whichever
    of the three sets the bound."""
    top = np.iinfo(narrow).max // window
    scheme, xdrop = _peak_scheme(source, top)
    assert _window_dtype(window, scheme, xdrop) == narrow
    scheme, xdrop = _peak_scheme(source, top + 1)
    assert _window_dtype(window, scheme, xdrop) == wide


@pytest.mark.parametrize("narrow", [np.int16, np.int32])
def test_window_scores_past_the_narrow_type(narrow):
    """Past a type's boundary the window really is wider: a full
    window of the top score sums beyond the narrow type's maximum and
    comes back exact (a narrow cumulative sum would wrap negative)."""
    window = _BULK_WINDOWS[0]
    m = np.iinfo(narrow).max // window + 1
    scheme, xdrop = _peak_scheme("smax", m)
    seq = np.zeros(window, dtype=np.uint8)
    ll, ls, rl, rs = bulk_ungapped_extend(
        seq, seq, np.zeros(1, np.int64), np.zeros(1, np.int64),
        np.zeros(1, np.int64), np.full(1, window, np.int64), scheme,
        xdrop=xdrop)
    assert ls[0] == ll[0] == 0
    assert rl[0] == window and rs[0] == window * m > np.iinfo(narrow).max


def test_program_defaults_extend_in_int16():
    """blastn's and blastp's default X-drops under their matrices keep
    both windows in int16."""
    for program in ("blastn", "blastp"):
        scheme, params = program_defaults(program)
        for window in _BULK_WINDOWS:
            assert _window_dtype(window, scheme,
                                 params.xdrop_ungapped) == np.int16


# ------------------------------- the 2-bit automaton vs the single seed

#: Where planted walks end, in positions from their anchor: nothing, a
#: table step's edges (7 / 8 / 9), the first pass's (31 / 32 / 33), the
#: second's (63 / 64 / 65) and well past both.
_RUNS = [0, 1, 7, 8, 9, 31, 32, 33, 63, 64, 65, 150]
#: The largest X-drop whose automaton table fits its byte bound.
_TOP_XDROP = _AUTOMATON_BYTES // (_STATE_ENTRIES * 8) - 2
#: X-drops with a table (blastp's and blastn's defaults among them) and
#: without one, either side of the bound.
_TWO_BIT_XDROPS = [0, 1, 5, 16, 20, _TOP_XDROP, _TOP_XDROP + 1, 300]
_NT_SCORES = [(1, -3), (2, -3), (1, -2), (5, -4)]


def _two_bit_case(subjects, seeds, query, scheme, xdrop):
    """Extend *seeds* — ``(sid, qp, sp)`` into *query* and the
    *subjects*, stored as one 2-bit section — on the section, on its
    one-byte decoding, and seed by seed with the oracle; assert all
    three agree in each direction.  Returns the section route's
    ``seeds_rescanned`` count and the number of walks whose best
    extension reaches past the automaton's last window."""
    db = SequenceDB(NT)
    for i, subject in enumerate(subjects):
        db.add(f"s{i}", subject)
    structs = build_scan_structures(db, 11, 4)
    assert ((_xdrop_automaton(structs.scat, scheme, xdrop) is not None)
            == (xdrop <= _TOP_XDROP))
    sid = np.array([s for s, _, _ in seeds], dtype=np.int64)
    qp = np.array([q for _, q, _ in seeds], dtype=np.int64)
    sp = np.array([p for _, _, p in seeds], dtype=np.int64)
    args = (qp, structs.starts[sid] + sp, np.minimum(qp, sp),
            np.minimum(len(query) - qp, structs.lengths[sid] - sp))
    with profiled("automaton", enabled=True, emit=False) as prof:
        packed = bulk_ungapped_extend(query, structs.scat, *args, scheme,
                                      xdrop=xdrop)
    one_byte = bulk_ungapped_extend(
        query, structs.scat[0:len(structs.scat)], *args, scheme,
        xdrop=xdrop)
    for got, want in zip(packed, one_byte):
        assert np.array_equal(got, want)
    ll, ls, rl, rs = packed
    past = 0
    for i, (s, q0, s0) in enumerate(seeds):
        subject = subjects[s]
        left = ungapped_extend(query[:q0], subject[:s0], q0, s0, scheme,
                               xdrop=xdrop)
        right = ungapped_extend(query[q0:], subject[s0:], 0, 0, scheme,
                                xdrop=xdrop)
        assert (int(ll[i]), int(ls[i])) == (left.length, left.score)
        assert (int(rl[i]), int(rs[i])) == (right.length, right.score)
        past += (left.length > _BULK_WINDOWS[-1]) + (right.length
                                                     > _BULK_WINDOWS[-1])
    return prof.counters.get("seeds_rescanned", 0), past


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       score=st.sampled_from(_NT_SCORES),
       xdrop=st.sampled_from(_TWO_BIT_XDROPS),
       n_subjects=st.integers(1, 6),
       mutation=st.sampled_from([0.05, 0.3, 1.0]))
def test_two_bit_extension_equals_oracle_and_one_byte_route(
        seed, score, xdrop, n_subjects, mutation):
    """On a real 2-bit section (``SequenceDB`` → ``build_scan_structures``)
    the kernel answers every seed as the oracle's ``ungapped_extend``
    does and as the one-byte route does on the decoded section: walks
    that end at the subject's edges or after a planted identical run 0,
    1, 7–9, 31–33, 63–65 or 150 positions out, anchors in every lane
    and query phase, each score pair at X-drops with and without an
    automaton table.  Every walk whose best reaches past the
    automaton's last window is counted as ``seeds_rescanned``."""
    rng = np.random.default_rng(seed)
    scheme = NucleotideScore(*score)
    qlen = 2 * max(_RUNS) + 8
    query = rng.integers(0, 4, qlen).astype(np.uint8)
    subjects, seeds = [], []
    for s in range(n_subjects):
        a_l, a_r, r_l, r_r = (int(a) for a in rng.choice(_RUNS, 4))
        a_r = max(a_r, 1 - a_l)
        q0 = a_l + int(rng.integers(0, qlen - a_l - a_r + 1))
        subject = query[q0 - a_l:q0 + a_r].copy()
        # Identical from a_l - r_l to a_l + r_r, mutated elsewhere.
        hit = rng.random(len(subject)) < mutation
        hit[max(a_l - r_l, 0):a_l + r_r] = False
        subject[hit] = (subject[hit] + rng.integers(1, 4, int(hit.sum()))) % 4
        subjects.append(subject)
        seeds.append((s, q0, a_l))
        seeds.append((s, int(rng.integers(0, qlen)),
                      int(rng.integers(0, len(subject)))))
    rescanned, past = _two_bit_case(subjects, seeds, query, scheme, xdrop)
    assert rescanned >= past


@pytest.mark.parametrize("score", _NT_SCORES)
def test_two_bit_extension_at_section_edges_in_every_lane(score):
    """Anchors in all four lanes against all four query phases, at the
    section's first position, beside each separator and at its last
    position, with identical runs reaching the edges and far past the
    automaton's windows (so the exact per-seed walk runs too)."""
    rng = np.random.default_rng(sum(score) + 17)
    scheme = NucleotideScore(*score)
    query = rng.integers(0, 4, 400).astype(np.uint8)
    # Each subject copies the query from an offset in every phase, so
    # seeds on its diagonal are planted runs to the subject's edges.
    subjects = [query[off:off + length].copy()
                for off, length in ((0, 97), (5, 130), (10, 3), (15, 201),
                                    (2, 1), (7, 64))]
    seeds = []
    for s, subject in enumerate(subjects):
        off = (0, 5, 10, 15, 2, 7)[s]
        for sp in sorted({0, 1, 2, 3, len(subject) // 2,
                          len(subject) - 1} & set(range(len(subject)))):
            seeds.append((s, off + sp, sp))
            # Off-diagonal query partners: every query phase.
            for shift in (1, 2, 3):
                seeds.append((s, min(off + sp + shift, len(query) - 1), sp))
    for xdrop in (0, 20, _TOP_XDROP):
        rescanned, past = _two_bit_case(subjects, seeds, query, scheme,
                                        xdrop)
        assert rescanned >= past > 0


def test_gapped_exact_match():
    q = encode_dna("ACGTACGTACGTACGT")
    s = encode_dna("TTTTACGTACGTACGTACGTTTTT")
    aln = banded_local_align(q, s, diag=4, scheme=SCHEME, band=8)
    assert aln.score == 16
    assert aln.identities == 16
    assert aln.align_len == 16
    assert aln.q_start == 0 and aln.q_end == 16
    assert aln.s_start == 4 and aln.s_end == 20


def test_gapped_alignment_crosses_deletion():
    """A 2-base deletion in the subject: affine gap cost 5+2=7... with
    +1 match the flanks (12+12) minus gap open/extend beats splitting."""
    left = "ACGTACGTACGT"
    right = "TGCATGCATGCA"
    q = encode_dna(left + "GG" + right)
    s = encode_dna(left + right)
    aln = banded_local_align(q, s, diag=0, scheme=SCHEME, band=6)
    # 24 matches, one gap of length 2 (open 5 + extend 2).
    assert aln.score == 24 - 7
    assert aln.identities == 24
    assert aln.align_len == 26
    assert aln.q_start == 0 and aln.q_end == 26
    assert aln.s_start == 0 and aln.s_end == 24


def test_gapped_alignment_crosses_insertion():
    left = "ACGTACGTACGT"
    right = "TGCATGCATGCA"
    q = encode_dna(left + right)
    s = encode_dna(left + "CC" + right)
    aln = banded_local_align(q, s, diag=0, scheme=SCHEME, band=6)
    assert aln.score == 24 - 7
    assert aln.identities == 24
    assert aln.align_len == 26


def test_gapped_local_trims_noise():
    q = encode_dna("CCCC" + "ACGTACGTACGT" + "GGGG")
    s = encode_dna("TTTT" + "ACGTACGTACGT" + "AAAA")
    aln = banded_local_align(q, s, diag=0, scheme=SCHEME, band=4)
    assert aln.score == 12
    assert aln.q_start == 4 and aln.q_end == 16


def test_gapped_no_alignment_returns_zero():
    q = encode_dna("AAAAAAAA")
    s = encode_dna("CCCCCCCC")
    aln = banded_local_align(q, s, diag=0, scheme=SCHEME, band=4)
    assert aln.score == 0
    assert aln.align_len == 0


def test_gapped_respects_band():
    """A shift larger than the band cannot be bridged."""
    left = "ACGTACGTACGT"
    right = "TGCATGCATGCA"
    q = encode_dna(left + right)
    s = encode_dna(left + "C" * 20 + right)
    aln = banded_local_align(q, s, diag=0, scheme=SCHEME, band=4)
    # Only one of the two blocks alignable within the band.
    assert aln.score == 12


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet="ACGT", min_size=4, max_size=60))
def test_gapped_self_alignment_perfect(s):
    enc = encode_dna(s)
    aln = banded_local_align(enc, enc, diag=0, scheme=SCHEME, band=5)
    assert aln.score == len(s)
    assert aln.identities == len(s)
    assert aln.align_len == len(s)


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet="ACGT", min_size=10, max_size=50),
       st.text(alphabet="ACGT", min_size=10, max_size=50))
def test_gapped_score_consistency(a, b):
    """Identities never exceed alignment length; score bounded by
    match-count upper bound."""
    qa, sb = encode_dna(a), encode_dna(b)
    aln = banded_local_align(qa, sb, diag=0, scheme=SCHEME, band=6)
    assert 0 <= aln.identities <= aln.align_len
    assert aln.score <= min(len(a), len(b)) * int(SCHEME.matrix.max())
    assert aln.q_end - aln.q_start <= aln.align_len
    assert aln.s_end - aln.s_start <= aln.align_len


# ----------------------------------------------------------------------
# Row clipping: the pointer matrices only cover rows whose band
# overlaps the subject.  These tests pin the clipped DP against an
# unclipped pure-python reference at extreme diagonals.
# ----------------------------------------------------------------------
def _reference_banded_score(q, s, diag, scheme, band):
    """Unclipped O(m*w) python DP: best score and end coordinates."""
    m, n, w = len(q), len(s), 2 * band + 1
    go, ge = scheme.gap_open, scheme.gap_extend
    NEG = -(1 << 40)
    H = [0] * (w + 2)
    F = [NEG] * (w + 2)
    best, bi, bj = 0, 0, 0
    for i in range(1, m + 1):
        jbase = i + diag - band
        Hn = [0] * (w + 2)
        Fn = [NEG] * (w + 2)
        E = NEG
        for b in range(w):
            j = jbase + b
            if j < 1 or j > n:
                continue
            sub = int(scheme.matrix[q[i - 1], s[j - 1]])
            h = max(0, H[b + 1] + sub)
            f = max(H[b + 2] - go, F[b + 2] - ge)
            E = max(Hn[b] - go, E - ge) if b > 0 else NEG
            h = max(h, f, E)
            Hn[b + 1], Fn[b + 1] = h, f
            if h > best:
                best, bi, bj = h, i, j
        H, F = Hn, Fn
    return best, bi, bj


def _ops_score(q, s, aln, scheme):
    """Replay ops and recompute the score — validates coordinates."""
    score, i, j = 0, aln.q_start, aln.s_start
    run = None
    for op in aln.ops:
        if op == "M":
            score += int(scheme.matrix[q[i], s[j]])
            i, j = i + 1, j + 1
            run = None
        else:
            score -= scheme.gap_open if run != op else scheme.gap_extend
            run = op
            if op == "D":
                i += 1
            else:
                j += 1
    assert (i, j) == (aln.q_end, aln.s_end)
    return score


@pytest.mark.parametrize("band", [3, 8])
def test_gapped_clipping_matches_unclipped_reference(band):
    rng = np.random.default_rng(9)
    for _ in range(120):
        m = int(rng.integers(4, 40))
        n = int(rng.integers(4, 40))
        q = rng.integers(0, 4, m).astype(np.int64)
        s = rng.integers(0, 4, n).astype(np.int64)
        if rng.random() < 0.5:
            k = min(m, n)
            s[:k] = q[:k]
        diag = int(rng.integers(-m - 2 * band, n + 2 * band))
        aln = banded_local_align(q, s, diag, SCHEME, band=band)
        ref, ri, rj = _reference_banded_score(q, s, diag, SCHEME, band)
        assert aln.score == ref, (m, n, diag, band)
        if aln.score > 0:
            assert (aln.q_end, aln.s_end) == (ri, rj)
            assert _ops_score(q, s, aln, SCHEME) == aln.score


def test_gapped_diag_outside_subject_is_empty():
    """Band entirely past either end of the subject: no DP rows."""
    q = encode_dna("ACGTACGTACGT")
    s = encode_dna("ACGTACGTACGT")
    for diag in (len(s) + 5, -len(q) - 5, 10 ** 6, -(10 ** 6)):
        aln = banded_local_align(q, s, diag, SCHEME, band=4)
        assert aln.score == 0
        assert aln.align_len == 0


def test_gapped_band_grazing_subject_edges():
    """Diagonals where only one or two rows survive clipping."""
    q = encode_dna("ACGTACGTACGTACGT")
    s = encode_dna("ACGTACGTACGTACGT")
    band = 2
    for diag in (len(s) + band - 1, len(s) + band,
                 -len(q) - band + 1, -len(q) - band):
        aln = banded_local_align(q, s, diag, SCHEME, band=band)
        ref, _, _ = _reference_banded_score(q, s, diag, SCHEME, band)
        assert aln.score == ref


# ------------------------------------------ the library kernel vs its oracle

@settings(max_examples=400, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       gaps=st.sampled_from([(5, 2), (2, 1), (11, 1), (3, 3), (1, 1),
                             (1, 2), (2, 5)]),
       band=st.sampled_from([0, 1, 3, 24]),
       kind=st.sampled_from(["nt", "aa", "pssm"]),
       m=st.integers(1, 70), n=st.integers(1, 70),
       edge=st.sampled_from(["low", "high", "inside"]),
       offset=st.integers(-4, 4),
       planted=st.sampled_from(["no", "substituted", "indel"]))
# An open/extend tie on the traceback path with gap_open == gap_extend:
# rare under the strategy, and the slot-loop derivation must break it
# as the per-row kernel does (open wins).
@example(seed=14, gaps=(3, 3), band=24, kind="nt", m=11, n=23,
         edge="inside", offset=0, planted="no")
def test_banded_kernel_equals_oracle_kernel(seed, gaps, band, kind, m, n,
                                            edge, offset, planted):
    """The fused sweep with pointers derived afterwards returns what
    the per-row kernel it replaced returns (``tests/oracle_gapped.py``),
    field for field, ``ops`` included: ``gap_open`` above, equal to and
    below ``gap_extend``, bands 0 / 1 / 3 / 24, diagonals whose band
    hangs off either end of the subject, planted homology with and
    without an indel (so tracebacks cross gaps, and small nt scores
    make open/extend ties), and PSSM rounds (position indices as the
    query, residues as ``identity_query``)."""
    rng = np.random.default_rng(seed)
    go, ge = gaps
    alphabet = 4 if kind == "nt" else 20
    residues = rng.integers(0, alphabet, m).astype(np.uint8)
    subject = rng.integers(0, alphabet, n).astype(np.uint8)
    if planted != "no":
        k = min(m, n)
        subject[:k] = residues[:k]
        subject[::5] = rng.integers(0, alphabet, len(subject[::5]))
    if planted == "indel" and n > 2:
        cut = int(rng.integers(1, n - 1))
        gap = int(rng.integers(1, 5))
        subject = np.concatenate(
            [subject[:cut], subject[cut + gap:]] if rng.random() < 0.5 else
            [subject[:cut], rng.integers(0, alphabet, gap).astype(np.uint8),
             subject[cut:]])
        n = len(subject)
    identity_query = None
    if kind == "nt":
        scheme = NucleotideScore(match=int(rng.integers(1, 4)),
                                 mismatch=-int(rng.integers(1, 4)),
                                 gap_open=go, gap_extend=ge)
        query = residues
    elif kind == "aa":
        scheme = ScoringScheme(BLOSUM62, go, ge, PROTEIN)
        query = residues
    else:
        pssm = rng.integers(-4, 9, (m, len(PROTEIN))).astype(np.int32)
        scheme = ScoringScheme(pssm, go, ge, PROTEIN)
        query = np.arange(m)
        identity_query = residues
    # Around the band's first / last overlap with the subject, or
    # anywhere in between.
    if edge == "low":
        diag = -m - band + 1 + offset
    elif edge == "high":
        diag = n + band - 1 + offset
    else:
        diag = int(rng.integers(-m, n + 1))
    got = banded_local_align(query, subject, diag, scheme, band=band,
                             identity_query=identity_query)
    want = oracle_banded_local_align(query, subject, diag, scheme, band=band,
                                     identity_query=identity_query)
    assert got == want


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       n_prob=st.integers(1, 12),
       gaps=st.sampled_from([(5, 2), (11, 1), (3, 3), (1, 1), (2, 5)]),
       band=st.integers(0, 40),
       kind=st.sampled_from(["nt", "aa", "pssm"]),
       budget=st.sampled_from([None, 1, 30_000]))
def test_many_problem_sweep_equals_oracle_per_problem(seed, n_prob, gaps,
                                                      band, kind, budget):
    """One row sweep over 1-12 problems returns, for each, what the
    per-row oracle kernel returns for that problem alone, field for
    field: mixed query and subject lengths, subjects shorter than the
    band, diagonals at both edges of the sequences (rows clip, cells
    mask), bands 0-40, ``gap_open`` above, equal to and below
    ``gap_extend``, nt, BLOSUM62 and a random PSSM with
    ``identity_qcat`` — swept as one chunk, one problem a chunk, or a
    few.  Mixed lengths put the rows past a short problem's own into
    the sweep, and planted homology ending at the query's end makes
    those rows score."""
    rng = np.random.default_rng(seed)
    go, ge = gaps
    alphabet = 4 if kind == "nt" else 20
    if kind == "nt":
        scheme = NucleotideScore(match=int(rng.integers(1, 4)),
                                 mismatch=-int(rng.integers(1, 4)),
                                 gap_open=go, gap_extend=ge)
    elif kind == "aa":
        scheme = ScoringScheme(BLOSUM62, go, ge, PROTEIN)
    else:
        pssm = rng.integers(-4, 9, (80, len(PROTEIN))).astype(np.int32)
        scheme = ScoringScheme(pssm, go, ge, PROTEIN)
    queries, residues, subjects, diags = [], [], [], []
    for _ in range(n_prob):
        m = int(rng.integers(1, 80))
        n = int(rng.integers(1, max(2, band) + 1) if rng.random() < 0.3
                else rng.integers(1, 90))
        res = rng.integers(0, alphabet, m).astype(np.uint8)
        subject = rng.integers(0, alphabet, n).astype(np.uint8)
        if rng.random() < 0.6:         # homology, maybe with an indel
            at = int(rng.integers(0, n))
            k = min(m, n - at)
            subject[at:at + k] = res[m - k:]
            subject[at::7] = rng.integers(0, alphabet, len(subject[at::7]))
            if k > 4 and rng.random() < 0.5:
                cut = at + int(rng.integers(1, k - 1))
                subject = np.delete(subject, range(cut, cut + 2))
                n = len(subject)
            diag = at - (m - k)
        else:
            edge = rng.integers(0, 3)
            diag = (-m - band + 1 + int(rng.integers(-3, 4)) if edge == 0
                    else n + band - 1 + int(rng.integers(-3, 4)) if edge == 1
                    else int(rng.integers(-m, n + 1)))
        queries.append(np.arange(m) if kind == "pssm" else res)
        residues.append(res)
        subjects.append(subject)
        diags.append(diag)
    q_len = [len(q) for q in queries]
    s_len = [len(s) for s in subjects]
    q_off = np.concatenate([[0], np.cumsum(q_len)[:-1]])
    s_off = np.concatenate([[0], np.cumsum(s_len)[:-1]])
    with pytest.MonkeyPatch.context() as mp:
        if budget is not None:
            mp.setattr(gapped_mod, "_SWEEP_BYTES", budget)
        got = banded_local_align_many(
            np.concatenate(queries), np.concatenate(subjects), q_off, q_len,
            s_off, s_len, diags, scheme, band=band,
            identity_qcat=(np.concatenate(residues) if kind == "pssm"
                           else None))
    want = [oracle_banded_local_align(
        q, s, d, scheme, band=band,
        identity_query=res if kind == "pssm" else None)
        for q, res, s, d in zip(queries, residues, subjects, diags)]
    assert got == want
