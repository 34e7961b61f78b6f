"""Karlin–Altschul statistics.

The significance of an HSP of raw score S between a query of length m
and a database of total length n is::

    E = K * m * n * exp(-lambda * S)

``lambda`` is the unique positive root of  sum_ij p_i p_j e^{lambda s_ij} = 1
and K is computed here with the standard geometric-series approximation
(adequate for ranking and for the paper's workload; NCBI uses a longer
expansion).  For gapped alignments precomputed empirical constants are
used, as NCBI BLAST itself does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class KarlinAltschul:
    """The (lambda, K, H) parameter triple."""

    lam: float
    k: float
    h: float

    def bit_score(self, raw: float) -> float:
        return (self.lam * raw - math.log(self.k)) / math.log(2.0)

    def evalue(self, raw: float, m: int, n: int) -> float:
        return self.k * m * n * math.exp(-self.lam * raw)

    def min_passing_score(self, cutoff: float, m: int, n: int
                          ) -> Optional[int]:
        """Smallest positive integer raw score whose :meth:`evalue` is
        ``<= cutoff`` (``None`` when no score passes: a negative or NaN
        cutoff).

        The log-form inverse of :meth:`evalue` is only a starting
        guess; the result is settled with :meth:`evalue` itself, so
        every positive integer below it fails the cutoff exactly as the
        report filter computes it.  A cutoff of 0 passes where the
        E-value underflows to 0.
        """
        if not cutoff >= 0:
            return None
        if self.evalue(1, m, n) <= cutoff:
            return 1
        # Here 0 <= cutoff < evalue(1) and k * m * n > 0; the smallest
        # positive double stands in for a cutoff of 0.
        guess = (math.log(self.k * m * n)
                 - math.log(max(cutoff, math.ulp(0.0)))) / self.lam
        hi = max(2, math.ceil(guess))
        step = 1
        while self.evalue(hi, m, n) > cutoff:
            hi += step
            step *= 2
        lo = 1                  # evalue(lo) > cutoff >= evalue(hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self.evalue(mid, m, n) <= cutoff:
                hi = mid
            else:
                lo = mid
        return hi


def _solve_lambda(matrix: np.ndarray, probs: np.ndarray) -> float:
    """Bisection for the positive root of sum p_i p_j e^{λ s_ij} = 1."""
    weights = np.outer(probs, probs)
    scores = matrix.astype(np.float64)
    expected = float((weights * scores).sum())
    if expected >= 0:
        raise ValueError("expected score must be negative for Karlin-Altschul")

    def f(lam: float) -> float:
        return float((weights * np.exp(lam * scores)).sum()) - 1.0

    lo, hi = 1e-6, 1e-6
    while f(hi) < 0:
        hi *= 2
        if hi > 100:
            raise ValueError("lambda diverged")
    lo = hi / 2 if f(hi / 2) < 0 else 1e-9
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _entropy(matrix: np.ndarray, probs: np.ndarray, lam: float) -> float:
    """Relative entropy H of the target distribution."""
    weights = np.outer(probs, probs)
    scores = matrix.astype(np.float64)
    q = weights * np.exp(lam * scores)
    return float(lam * (q * scores).sum())


def _approx_k(matrix: np.ndarray, probs: np.ndarray, lam: float, h: float) -> float:
    """Rough K (one-term approximation): K ≈ H / lambda for integral
    score lattices, damped toward NCBI's tabulated values.

    NCBI computes K from an infinite series over random-walk stopping
    scores; the one-term value is within a small factor, which shifts
    every E-value by that constant factor — harmless for ranking and
    threshold behaviour, and recorded here as an approximation.
    """
    k = h / lam * math.exp(-2.0 * h / lam)
    return max(min(k, 1.0), 1e-4)


_UNIFORM_DNA = np.full(4, 0.25)
#: Fixed-point iterations :func:`length_adjustment` runs at most.
_LENGTH_ADJUST_ITERATIONS = 20

#: Robinson & Robinson amino-acid background frequencies over the
#: 25-letter alphabet (rare letters get a tiny floor and the vector is
#: renormalised).
_AA_FREQS_20 = {
    "A": 0.07805, "R": 0.05129, "N": 0.04487, "D": 0.05364, "C": 0.01925,
    "Q": 0.04264, "E": 0.06295, "G": 0.07377, "H": 0.02199, "I": 0.05142,
    "L": 0.09019, "K": 0.05744, "M": 0.02243, "F": 0.03856, "P": 0.05203,
    "S": 0.07120, "T": 0.05841, "W": 0.01330, "Y": 0.03216, "V": 0.06441,
}


def _protein_probs() -> np.ndarray:
    from repro.blast.alphabet import PROTEIN

    probs = np.full(len(PROTEIN), 1e-5)
    for aa, freq in _AA_FREQS_20.items():
        probs[PROTEIN.index(aa)] = freq
    return probs / probs.sum()


#: Empirical gapped constants, as used by NCBI for its default settings.
#: Keys: (description of scheme) -> (lambda, K, H).
GAPPED_CONSTANTS: Dict[str, Tuple[float, float, float]] = {
    # blastn +1/-3, gap 5/2
    "nt:+1/-3:5/2": (1.280, 0.460, 0.85),
    # blastn +1/-2, gap 5/2
    "nt:+1/-2:5/2": (1.190, 0.380, 0.75),
    # blastp BLOSUM62, gap 11/1
    "aa:blosum62:11/1": (0.267, 0.041, 0.14),
}

def length_adjustment(ka: KarlinAltschul, m: int, n: int,
                      n_sequences: int = 1) -> int:
    """NCBI's edge-effect correction.

    An alignment cannot start within ~l residues of a sequence end, so
    the *effective* search space is (m - l)(n - N*l) with l solving::

        l = ln(K * (m - l) * (n - N*l)) / H

    computed by at most :data:`_LENGTH_ADJUST_ITERATIONS` fixed-point
    iterations (the scheme NCBI uses).  Returns the integer length
    adjustment l (0 when the correction would make a length
    non-positive).
    """
    if m <= 0 or n <= 0 or n_sequences <= 0:
        return 0
    if ka.h <= 0:
        return 0
    l = 0.0
    for _ in range(_LENGTH_ADJUST_ITERATIONS):
        space = (m - l) * (n - n_sequences * l)
        if space <= 1:
            return 0
        l_new = math.log(ka.k * space) / ka.h
        if l_new < 0:
            l_new = 0.0
        if abs(l_new - l) < 0.5:
            l = l_new
            break
        l = l_new
    l_int = int(l)
    if m - l_int <= 0 or n - n_sequences * l_int <= 0:
        return 0
    return l_int


def effective_search_space(ka: KarlinAltschul, m: int, n: int,
                           n_sequences: int = 1) -> Tuple[int, int]:
    """(effective query length, effective database length) after the
    length adjustment."""
    l = length_adjustment(ka, m, n, n_sequences)
    return m - l, max(n - n_sequences * l, 1)


# Keyed by matrix *contents* — an id()-based key aliases when a freed
# matrix's address is recycled, silently returning another matrix's
# parameters.  The matrices are tiny, so hashing the bytes is cheap.
_cache: Dict[tuple, KarlinAltschul] = {}


def karlin_altschul_params(matrix: np.ndarray,
                           gapped_key: Optional[str] = None) -> KarlinAltschul:
    """Compute (or look up) Karlin–Altschul parameters for a matrix.

    With *gapped_key* set and present in :data:`GAPPED_CONSTANTS`, the
    tabulated gapped values are returned; otherwise ungapped values are
    computed from the matrix and the background residue frequencies
    (uniform for a 4 × 4 DNA matrix, Robinson–Robinson otherwise).
    """
    if gapped_key is not None and gapped_key in GAPPED_CONSTANTS:
        lam, k, h = GAPPED_CONSTANTS[gapped_key]
        return KarlinAltschul(lam, k, h)
    key = (matrix.shape, matrix.dtype.str, matrix.tobytes())
    if key in _cache:
        return _cache[key]
    probs = _UNIFORM_DNA if matrix.shape[0] == 4 else _protein_probs()
    lam = _solve_lambda(matrix, probs)
    h = _entropy(matrix, probs, lam)
    k = _approx_k(matrix, probs, lam, h)
    params = KarlinAltschul(lam, k, h)
    _cache[key] = params
    return params
