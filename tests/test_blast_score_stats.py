"""Tests for scoring schemes and Karlin-Altschul statistics."""

import math

import numpy as np
import pytest

from repro.blast.alphabet import PROTEIN, encode_protein
from repro.blast.score import BLOSUM62, NucleotideScore, ProteinScore
from repro.blast.stats import karlin_altschul_params, KarlinAltschul


def test_blosum62_is_symmetric():
    assert np.array_equal(BLOSUM62, BLOSUM62.T)


def test_blosum62_known_entries():
    def s(a, b):
        return BLOSUM62[PROTEIN.index(a), PROTEIN.index(b)]

    assert s("A", "A") == 4
    assert s("W", "W") == 11
    assert s("C", "C") == 9
    assert s("A", "R") == -1
    assert s("W", "A") == -3
    assert s("E", "Z") == 4
    assert s("*", "*") == 1
    assert s("A", "*") == -4
    assert s("U", "C") == 9  # U scored like C


def test_blosum62_immutable():
    with pytest.raises(ValueError):
        BLOSUM62[0, 0] = 99


def test_nucleotide_score_defaults():
    sch = NucleotideScore()
    assert sch.score(0, 0) == 1
    assert sch.score(0, 1) == -3
    assert sch.gap_open == 5 and sch.gap_extend == 2


def test_nucleotide_score_validation():
    with pytest.raises(ValueError):
        NucleotideScore(match=0)
    with pytest.raises(ValueError):
        NucleotideScore(mismatch=1)


def test_pair_scores_vectorised():
    sch = NucleotideScore()
    xs = np.array([0, 1, 2, 3])
    ys = np.array([0, 1, 0, 3])
    assert list(sch.pair_scores(xs, ys)) == [1, 1, -3, 1]


def test_ungapped_lambda_dna_matches_literature():
    """For +1/-3 with uniform base composition, lambda ~= 1.374."""
    sch = NucleotideScore(gap_open=10 ** 9)  # penalties irrelevant here
    ka = karlin_altschul_params(sch.matrix)
    assert ka.lam == pytest.approx(1.374, abs=0.01)


def test_ungapped_lambda_blosum62_close_to_literature():
    """Ungapped BLOSUM62 lambda ~= 0.318 (Robinson frequencies)."""
    ka = karlin_altschul_params(BLOSUM62)
    assert ka.lam == pytest.approx(0.318, abs=0.02)
    assert ka.h > 0


def test_gapped_constants_lookup():
    ka = karlin_altschul_params(BLOSUM62, gapped_key="aa:blosum62:11/1")
    assert ka.lam == pytest.approx(0.267)
    assert ka.k == pytest.approx(0.041)


def test_evalue_monotone_in_score():
    ka = KarlinAltschul(lam=1.0, k=0.5, h=1.0)
    assert ka.evalue(50, 100, 1000) < ka.evalue(40, 100, 1000)


def test_evalue_scales_with_search_space():
    ka = KarlinAltschul(lam=1.0, k=0.5, h=1.0)
    assert ka.evalue(50, 100, 2000) == pytest.approx(2 * ka.evalue(50, 100, 1000))


def test_bit_score_definition():
    ka = KarlinAltschul(lam=0.5, k=0.1, h=1.0)
    raw = 100
    expected = (0.5 * raw - math.log(0.1)) / math.log(2)
    assert ka.bit_score(raw) == pytest.approx(expected)


def test_min_passing_score_is_the_least_passing_integer():
    """The emit bound's score: the least positive integer whose
    E-value passes, settled with ``evalue`` itself, so the score below
    it fails — also at cutoffs that sit exactly on an E-value, at 0
    (passes only where the E-value underflows), and at cutoffs every
    score or no score passes."""
    ka = KarlinAltschul(lam=0.7, k=0.2, h=1.0)
    m, n = 500, 10 ** 6
    cutoffs = [1e-5, 10.0, 1e-300, 0.0, ka.evalue(40, m, n),
               ka.evalue(40, m, n) * (1 - 1e-15)]
    for cutoff in cutoffs:
        s = ka.min_passing_score(cutoff, m, n)
        assert ka.evalue(s, m, n) <= cutoff < ka.evalue(s - 1, m, n)
    assert ka.min_passing_score(ka.evalue(40, m, n), m, n) == 40
    assert ka.min_passing_score(ka.evalue(40, m, n) * (1 - 1e-15),
                                m, n) == 41
    assert ka.min_passing_score(0.0, m, n) > 1000
    for huge in (ka.evalue(1, m, n), 1e300, math.inf):
        assert ka.min_passing_score(huge, m, n) == 1
    for hopeless in (-1.0, -math.inf, math.nan):
        assert ka.min_passing_score(hopeless, m, n) is None


def test_positive_expected_score_rejected():
    m = np.ones((4, 4))  # all matches positive: invalid
    with pytest.raises(ValueError):
        karlin_altschul_params(m + 0.0)
