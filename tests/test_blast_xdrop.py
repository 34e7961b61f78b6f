"""Tests for the gapped X-drop extension (NCBI's adaptive-band DP)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blast.alphabet import encode_dna
from repro.blast.gapped import banded_local_align
from repro.blast.score import NucleotideScore
from oracle_sw import smith_waterman_score
from repro.blast.xdrop import xdrop_gapped_extend

SCHEME = NucleotideScore()


def test_exact_match_extends_fully():
    q = encode_dna("ACGTACGTACGTACGT")
    s = encode_dna("TTTT" + "ACGTACGTACGTACGT" + "GGGG")
    aln = xdrop_gapped_extend(q, s, 8, 12, SCHEME)
    assert aln.score == 16
    assert aln.identities == 16
    assert (aln.q_start, aln.q_end) == (0, 16)
    assert (aln.s_start, aln.s_end) == (4, 20)
    assert aln.ops == "M" * 16


def test_seed_validation():
    q = encode_dna("ACGT")
    s = encode_dna("ACGT")
    with pytest.raises(ValueError):
        xdrop_gapped_extend(q, s, 4, 0, SCHEME)
    with pytest.raises(ValueError):
        xdrop_gapped_extend(q, s, 0, 9, SCHEME)


def test_bridges_small_gap():
    left = "ACGTACGTACGT"
    right = "TGCATGCATGCA"
    q = encode_dna(left + "GG" + right)
    s = encode_dna(left + right)
    aln = xdrop_gapped_extend(q, s, 2, 2, SCHEME, xdrop=20)
    assert aln.score == 24 - 7
    assert aln.identities == 24
    assert aln.ops.count("D") == 2


def test_adaptive_band_crosses_shift_outside_fixed_band():
    """A 10-base insertion (gap cost 5 + 10*2 = 25): profitable to
    cross, outside a +/-4 fixed band, found by the adaptive region."""
    left = "ACGGTCAGTACGGTCAGTACGGTCAGTACGGTCAGT"   # 36 matches
    right = "TTGCACCATGGTTGCACCATGGTTGCACCATGG"     # 33 matches
    insert = "CCCCCCCCCC"                           # 10 bases
    q = encode_dna(left + right)
    s = encode_dna(left + insert + right)
    fixed = banded_local_align(q, s, diag=0, scheme=SCHEME, band=4)
    adaptive = xdrop_gapped_extend(q, s, 4, 4, SCHEME, xdrop=80)
    # Affine convention: first gapped position costs gap_open, each of
    # the other 9 costs gap_extend.
    expected = 36 + 33 - (SCHEME.gap_open + 9 * SCHEME.gap_extend)
    # The fixed band cannot reach the right block.
    assert fixed.score <= 36
    # The adaptive region can, and optimally.
    assert adaptive.score == expected
    assert adaptive.ops.count("I") == 10


def test_no_extension_on_mismatch_seed():
    q = encode_dna("AAAAAAAA")
    s = encode_dna("CCCCCCCC")
    aln = xdrop_gapped_extend(q, s, 3, 3, SCHEME, xdrop=5)
    assert aln.score == 0
    assert aln.align_len == 0


@settings(max_examples=40, deadline=None)
@given(st.text(alphabet="ACGT", min_size=12, max_size=60),
       st.integers(0, 59))
def test_self_extension_recovers_identity(s, pos):
    enc = encode_dna(s)
    seed = min(pos, len(s) - 1)
    aln = xdrop_gapped_extend(enc, enc, seed, seed, SCHEME, xdrop=100)
    assert aln.score == len(s)
    assert aln.identities == len(s)


@settings(max_examples=40, deadline=None)
@given(st.text(alphabet="ACGT", min_size=12, max_size=50),
       st.text(alphabet="ACGT", min_size=12, max_size=50))
def test_xdrop_never_exceeds_optimal(a, b):
    qa, sb = encode_dna(a), encode_dna(b)
    exact = smith_waterman_score(qa, sb, SCHEME)
    aln = xdrop_gapped_extend(qa, sb, len(a) // 2, len(b) // 2, SCHEME,
                              xdrop=100)
    assert aln.score <= exact


@settings(max_examples=30, deadline=None)
@given(st.text(alphabet="ACGT", min_size=15, max_size=50),
       st.integers(0, 3), st.integers(0, 50))
def test_xdrop_matches_exact_for_point_mutations(core, n_muts, seed):
    """With generous X, point-mutated pairs align optimally when the
    seed sits inside the alignment."""
    rng = np.random.default_rng(seed)
    q = list(core)
    for _ in range(n_muts):
        q[int(rng.integers(0, len(q)))] = rng.choice(list("ACGT"))
    qa, sb = encode_dna("".join(q)), encode_dna(core)
    mid = len(core) // 2
    if qa[mid] != sb[mid]:
        return  # seed must be a plausible anchor
    exact = smith_waterman_score(qa, sb, SCHEME)
    aln = xdrop_gapped_extend(qa, sb, mid, mid, SCHEME, xdrop=10 ** 6)
    assert aln.score == exact
