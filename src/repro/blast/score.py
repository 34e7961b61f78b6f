"""Scoring schemes: nucleotide match/mismatch and BLOSUM62.

Default parameters follow classic NCBI blastn/blastp defaults of the
paper's era: blastn reward +1 / penalty -3, gap open 5 / extend 2;
blastp BLOSUM62, gap open 11 / extend 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.blast.alphabet import DNA, PROTEIN

_BLOSUM62_TEXT = """
 4 -1 -2 -2  0 -1 -1  0 -2 -1 -1 -1 -1 -2 -1  1  0 -3 -2  0 -2 -1  0 -4
-1  5  0 -2 -3  1  0 -2  0 -3 -2  2 -1 -3 -2 -1 -1 -3 -2 -3 -1  0 -1 -4
-2  0  6  1 -3  0  0  0  1 -3 -3  0 -2 -3 -2  1  0 -4 -2 -3  3  0 -1 -4
-2 -2  1  6 -3  0  2 -1 -1 -3 -4 -1 -3 -3 -1  0 -1 -4 -3 -3  4  1 -1 -4
 0 -3 -3 -3  9 -3 -4 -3 -3 -1 -1 -3 -1 -2 -3 -1 -1 -2 -2 -1 -3 -3 -2 -4
-1  1  0  0 -3  5  2 -2  0 -3 -2  1  0 -3 -1  0 -1 -2 -1 -2  0  3 -1 -4
-1  0  0  2 -4  2  5 -2  0 -3 -3  1 -2 -3 -1  0 -1 -3 -2 -2  1  4 -1 -4
 0 -2  0 -1 -3 -2 -2  6 -2 -4 -4 -2 -3 -3 -2  0 -2 -2 -3 -3 -1 -2 -1 -4
-2  0  1 -1 -3  0  0 -2  8 -3 -3 -1 -2 -1 -2 -1 -2 -2  2 -3  0  0 -1 -4
-1 -3 -3 -3 -1 -3 -3 -4 -3  4  2 -3  1  0 -3 -2 -1 -3 -1  3 -3 -3 -1 -4
-1 -2 -3 -4 -1 -2 -3 -4 -3  2  4 -2  2  0 -3 -2 -1 -2 -1  1 -4 -3 -1 -4
-1  2  0 -1 -3  1  1 -2 -1 -3 -2  5 -1 -3 -1  0 -1 -3 -2 -2  0  1 -1 -4
-1 -1 -2 -3 -1  0 -2 -3 -2  1  2 -1  5  0 -2 -1 -1 -1 -1  1 -3 -1 -1 -4
-2 -3 -3 -3 -2 -3 -3 -3 -1  0  0 -3  0  6 -4 -2 -2  1  3 -1 -3 -3 -1 -4
-1 -2 -2 -1 -3 -1 -1 -2 -2 -3 -3 -1 -2 -4  7 -1 -1 -4 -3 -2 -2 -1 -2 -4
 1 -1  1  0 -1  0  0  0 -1 -2 -2  0 -1 -2 -1  4  1 -3 -2 -2  0  0  0 -4
 0 -1  0 -1 -1 -1 -1 -2 -2 -1 -1 -1 -1 -2 -1  1  5 -2 -2  0 -1 -1  0 -4
-3 -3 -4 -4 -2 -2 -3 -2 -2 -3 -2 -3 -1  1 -4 -3 -2 11  2 -3 -4 -3 -2 -4
-2 -2 -2 -3 -2 -1 -2 -3  2 -1 -1 -2 -1  3 -3 -2 -2  2  7 -1 -3 -2 -1 -4
 0 -3 -3 -3 -1 -2 -2 -3 -3  3  1 -2  1 -1 -2 -2  0 -3 -1  4 -3 -2 -1 -4
-2 -1  3  4 -3  0  1 -1  0 -3 -4  0 -3 -3 -2  0 -1 -4 -3 -3  4  1 -1 -4
-1  0  0  1 -3  3  4 -2  0 -3 -3  1 -1 -3 -1  0 -1 -3 -2 -2  1  4 -1 -4
 0 -1 -1 -1 -2 -1 -1 -1 -1 -1 -1 -1 -1 -1 -2  0  0 -2 -1 -1 -1 -1 -1 -4
-4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4  1
"""


def _build_blosum62() -> np.ndarray:
    rows = [[int(x) for x in line.split()]
            for line in _BLOSUM62_TEXT.strip().splitlines()]
    m24 = np.array(rows, dtype=np.int32)
    assert m24.shape == (24, 24)
    # Extend to 25x25 for U (selenocysteine), scored like C.
    n = len(PROTEIN)
    m = np.full((n, n), -4, dtype=np.int32)
    m[:24, :24] = m24
    c = PROTEIN.index("C")
    u = PROTEIN.index("U")
    m[u, :24] = m24[c, :]
    m[:24, u] = m24[:, c]
    m[u, u] = m24[c, c]
    return m


#: The standard BLOSUM62 substitution matrix over :data:`PROTEIN`.
BLOSUM62 = _build_blosum62()
BLOSUM62.setflags(write=False)
#: blastp's gap open and extend costs.
_PROTEIN_GAPS = (11, 1)


@dataclass(frozen=True)
class ScoringScheme:
    """A substitution matrix + affine gap penalties.

    ``gap_open`` is the cost of the first gapped position and
    ``gap_extend`` of each further one (both positive numbers; they are
    subtracted).
    """

    matrix: np.ndarray
    gap_open: int
    gap_extend: int
    alphabet: str

    def score(self, a: int, b: int) -> int:
        return int(self.matrix[a, b])

    def pair_scores(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Vectorised element-wise substitution scores."""
        return self.matrix[np.asarray(xs, dtype=np.intp),
                           np.asarray(ys, dtype=np.intp)]


def NucleotideScore(match: int = 1, mismatch: int = -3,
                    gap_open: int = 5, gap_extend: int = 2) -> ScoringScheme:
    """blastn-style scoring (defaults: +1/-3, gaps 5/2)."""
    if match <= 0 or mismatch >= 0:
        raise ValueError("need match > 0 and mismatch < 0")
    n = len(DNA)
    m = np.full((n, n), mismatch, dtype=np.int32)
    np.fill_diagonal(m, match)
    m.setflags(write=False)
    return ScoringScheme(m, gap_open, gap_extend, DNA)


def ProteinScore() -> ScoringScheme:
    """blastp-style scoring (BLOSUM62, gaps 11/1)."""
    return ScoringScheme(BLOSUM62, *_PROTEIN_GAPS, PROTEIN)
