"""Full (unbanded) Smith-Waterman-Gotoh local alignment.

The exact algorithm BLAST approximates.  O(m*n) time and memory — far
too slow for database search, which is the whole reason BLAST exists —
but invaluable as a gold standard: the banded extension's score can
never exceed it, and must equal it whenever the optimal path stays
inside the band (property-tested in ``tests/test_blast_sw.py``).

It lives with the tests because tests are its only caller (moved
verbatim from ``repro.blast.sw``): an oracle that shares no code with
the seeded pipeline — no word index, no seeds, no band — so every HSP
any search path reports can be checked against the optimum for its
(query, subject) pair.

Row-vectorised with NumPy; fine up to a few thousand residues a side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.blast.score import ScoringScheme

NEG = -(10 ** 9)


@dataclass(frozen=True)
class SWAlignment:
    """Optimal local alignment."""

    q_start: int
    q_end: int     # exclusive
    s_start: int
    s_end: int     # exclusive
    score: int
    ops: str       # M / D (query vs gap) / I (gap vs subject)

    @property
    def align_len(self) -> int:
        return len(self.ops)


def smith_waterman_score(query: np.ndarray, subject: np.ndarray,
                         scheme: ScoringScheme) -> int:
    """Optimal local alignment score only (no traceback, low memory)."""
    m, n = len(query), len(subject)
    if m == 0 or n == 0:
        return 0
    go, ge = scheme.gap_open, scheme.gap_extend
    H_prev = np.zeros(n + 1, dtype=np.int64)
    F_prev = np.full(n + 1, NEG, dtype=np.int64)
    best = 0
    subject_idx = subject.astype(np.intp)
    for i in range(1, m + 1):
        sub = scheme.matrix[query[i - 1], subject_idx].astype(np.int64)
        diag = H_prev[:-1] + sub
        F = np.maximum(H_prev[1:] - go, F_prev[1:] - ge)
        H = np.maximum(diag, F)
        np.maximum(H, 0, out=H)
        # E needs a sequential scan within the row.
        E = NEG
        Hrow = np.empty(n + 1, dtype=np.int64)
        Hrow[0] = 0
        for j in range(1, n + 1):
            E = max(Hrow[j - 1] - go, E - ge)
            h = H[j - 1]
            if E > h:
                h = E
            Hrow[j] = h
        best = max(best, int(Hrow.max()))
        F_prev = np.concatenate([[NEG], F])
        H_prev = Hrow
    return best


def smith_waterman(query: np.ndarray, subject: np.ndarray,
                   scheme: ScoringScheme) -> SWAlignment:
    """Optimal local alignment with full traceback."""
    m, n = len(query), len(subject)
    if m == 0 or n == 0:
        return SWAlignment(0, 0, 0, 0, 0, "")
    go, ge = scheme.gap_open, scheme.gap_extend

    H = np.zeros((m + 1, n + 1), dtype=np.int64)
    E = np.full((m + 1, n + 1), NEG, dtype=np.int64)
    F = np.full((m + 1, n + 1), NEG, dtype=np.int64)
    subject_idx = subject.astype(np.intp)

    for i in range(1, m + 1):
        sub = scheme.matrix[query[i - 1], subject_idx].astype(np.int64)
        F[i, 1:] = np.maximum(H[i - 1, 1:] - go, F[i - 1, 1:] - ge)
        diag = H[i - 1, :-1] + sub
        base = np.maximum(np.maximum(diag, F[i, 1:]), 0)
        # Sequential E within the row.
        e = NEG
        row = H[i]
        for j in range(1, n + 1):
            e = max(row[j - 1] - go, e - ge)
            E[i, j] = e
            h = base[j - 1]
            if e > h:
                h = e
            row[j] = h

    best = int(H.max())
    if best <= 0:
        return SWAlignment(0, 0, 0, 0, 0, "")
    i, j = np.unravel_index(int(np.argmax(H)), H.shape)
    i, j = int(i), int(j)
    q_end, s_end = i, j
    ops = []
    state = "H"
    while i > 0 and j > 0:
        if state == "H":
            h = H[i, j]
            if h == 0:
                break
            sub = int(scheme.matrix[query[i - 1], subject[j - 1]])
            if h == H[i - 1, j - 1] + sub:
                ops.append("M")
                i -= 1
                j -= 1
            elif h == F[i, j]:
                state = "F"
            elif h == E[i, j]:
                state = "E"
            else:  # pragma: no cover - DP consistency
                raise AssertionError("traceback inconsistency")
        elif state == "F":
            ops.append("D")
            came_ext = F[i, j] == F[i - 1, j] - ge
            came_open = F[i, j] == H[i - 1, j] - go
            i -= 1
            state = "F" if (came_ext and not came_open) else "H"
        else:  # E
            ops.append("I")
            came_ext = E[i, j] == E[i, j - 1] - ge
            came_open = E[i, j] == H[i, j - 1] - go
            j -= 1
            state = "E" if (came_ext and not came_open) else "H"
    return SWAlignment(q_start=i, q_end=q_end, s_start=j, s_end=s_end,
                       score=best, ops="".join(reversed(ops)))
