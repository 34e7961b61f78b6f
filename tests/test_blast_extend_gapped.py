"""Tests for ungapped X-drop extension and banded gapped alignment."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.blast.alphabet import PROTEIN, encode_dna
from repro.blast.gapped import banded_local_align
from repro.blast.score import BLOSUM62, NucleotideScore, ScoringScheme

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
