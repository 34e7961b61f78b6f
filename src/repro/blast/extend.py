"""Ungapped X-drop extension along a diagonal.

From a seed word the alignment is extended left and right; extension in
a direction stops when the running score falls more than X below the
best score seen in that direction (Altschul et al. 1990).  Both
directions are fully vectorised: the per-position substitution scores
along the diagonal are cumulative-summed and the X-drop cut-off is found
with a running maximum.

:func:`bulk_ungapped_extend` is the one extension kernel the search
driver calls, for every alphabet and seeding rule: all seeds of a batch
— across queries, strands and subjects — are scored in one 2-D gather
against the flat query / fragment concatenations, and the driver
replays the per-diagonal coverage dedup (a seed inside an HSP already
found on its diagonal is skipped) from the returned extents.
The single-seed definition it is specified against
(``ungapped_extend``) lives beside the oracle, ``tests/oracle_search.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.blast.score import ScoringScheme


@dataclass
class UngappedHSP:
    """An ungapped high-scoring segment pair."""

    q_start: int
    s_start: int
    length: int
    score: int

    @property
    def q_end(self) -> int:
        """Exclusive query end."""
        return self.q_start + self.length

    @property
    def s_end(self) -> int:
        return self.s_start + self.length


_CHUNK = 128


def _best_prefix(scores: np.ndarray, xdrop: int) -> Tuple[int, int]:
    """Given per-position scores walking away from an anchor, return
    (number of positions taken, their total score) under X-drop.

    Works through *scores* in geometrically growing chunks: the X-drop
    rule almost always terminates within the first few dozen positions,
    so the common case touches ``_CHUNK`` elements instead of the whole
    diagonal.  Results are identical to a single full-length pass."""
    total = len(scores)
    if total == 0:
        return 0, 0
    lo = 0
    carry = 0           # cumulative score entering the chunk
    carry_max = 0       # running max of max(cum, 0) entering the chunk
    best_val = 0        # best positive cumulative score so far
    best_idx = -1
    chunk = _CHUNK
    while lo < total:
        hi = min(total, lo + chunk)
        cum = np.cumsum(scores[lo:hi])
        if carry:
            cum += carry
        runmax = np.maximum.accumulate(np.maximum(cum, carry_max))
        dropped = runmax - cum > xdrop
        if dropped.any():
            stop = int(np.argmax(dropped))  # first True in this chunk
        else:
            stop = hi - lo
        if stop:
            head = cum[:stop]
            b = int(np.argmax(head))
            if head[b] > best_val:
                best_val = int(head[b])
                best_idx = lo + b
        if stop < hi - lo:
            break
        carry = int(cum[-1])
        carry_max = int(runmax[-1])
        lo = hi
        chunk *= 4
    if best_idx < 0:
        return 0, 0
    return best_idx + 1, best_val


#: Window width of the vectorised bulk X-drop pass: extensions that do
#: not terminate within this many positions (true alignments, not the
#: random-hit noise that dominates seed counts) fall back to the exact
#: per-seed chunked scan.
_BULK_WINDOW = 64
#: Row-chunk bound of the bulk pass: peak scratch is eight to ten
#: ``_BULK_ROWS * _BULK_WINDOW`` int64 temporaries.  Sized by
#: measurement when blastp's ~4 000 two-hit seeds per query started
#: coming through here (nt's ~800 never filled a 4096-row chunk):
#: kernel scratch (tracemalloc peak) on benchmark aa query 0, then the
#: ``extend`` stage, best of 7-15 runs in ms, for that query / one
#: 568-nt query / a batch of eight against 4 M residues.
#:
#: ===== ========== ===== ====== ======
#: rows  scratch MB aa    nt x1  nt x8
#: ===== ========== ===== ====== ======
#: 128   0.8        15.6  3.15   25.2
#: 256   1.5        14.7  2.97   23.4
#: 512   2.7        14.4  2.77   23.3
#: 1024  5.2        14.4  2.81   22.9
#: 2048  10.2       22.5  2.78   30.2
#: 4096  14.9       28.7  2.64   34.6
#: ===== ========== ===== ====== ======
#:
#: Past ~1024 rows the temporaries leave the cache and the stage gets
#: slower as well as bigger; 512 keeps the scratch under the scan's
#: own ~5 MB transient, so extension never sets ``peak_rss_mb``.
_BULK_ROWS = 512


def _bulk_prefix(qcat: np.ndarray, scat: np.ndarray,
                 q0: np.ndarray, s0: np.ndarray, avail: np.ndarray,
                 step: int, scheme: ScoringScheme, xdrop: int,
                 window: int) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorised :func:`_best_prefix` over many seeds at once.

    Row ``i`` walks ``avail[i]`` positions from ``(q0[i], s0[i])`` in
    *step* direction (+1 right, -1 left) through the flat query /
    subject concatenations.  The first *window* positions of every row
    are scored in one 2-D gather; positions past a row's ``avail`` are
    padded with ``-(xdrop + 1)``, which trips the X-drop test exactly
    at the boundary, so any row whose scan terminates inside the window
    gets the same (length, score) answer as the scalar pass.  Rows that
    neither drop nor end within the window re-run the exact per-seed
    scan.  Returns ``(lengths, scores)`` int64 arrays.
    """
    n = len(q0)
    out_len = np.zeros(n, dtype=np.int64)
    out_score = np.zeros(n, dtype=np.int64)
    if n == 0:
        return out_len, out_score
    pad = -(xdrop + 1)
    cols = np.arange(window, dtype=np.int64)
    for lo in range(0, n, _BULK_ROWS):
        hi = min(n, lo + _BULK_ROWS)
        av = avail[lo:hi]
        valid = cols < av[:, None]
        # Out-of-window gathers are masked anyway; clamp their indexes
        # to 0 so the matrix lookup never leaves the concatenations.
        qi = np.where(valid, q0[lo:hi, None] + step * cols, 0)
        si = np.where(valid, s0[lo:hi, None] + step * cols, 0)
        pair = scheme.pair_scores(qcat[qi], scat[si]).astype(np.int64,
                                                            copy=False)
        scores = np.where(valid, pair, pad)
        cum = np.cumsum(scores, axis=1, dtype=np.int64)
        runmax = np.maximum.accumulate(np.maximum(cum, 0), axis=1)
        dropped = (runmax - cum) > xdrop
        has_drop = dropped.any(axis=1)
        stop = np.where(has_drop, np.argmax(dropped, axis=1), window)
        head = np.where(cols < stop[:, None], cum, np.int64(-(2 ** 62)))
        best = np.argmax(head, axis=1)
        val = head[np.arange(hi - lo), best]
        pos = val > 0
        out_len[lo:hi][pos] = best[pos] + 1
        out_score[lo:hi][pos] = val[pos]
        # Exact re-scan of rows the window could not settle.
        for i in np.nonzero(~has_drop & (av > window))[0]:
            a = int(av[i])
            walk = step * np.arange(a, dtype=np.int64)
            row = scheme.pair_scores(qcat[int(q0[lo + i]) + walk],
                                     scat[int(s0[lo + i]) + walk])
            out_len[lo + i], out_score[lo + i] = _best_prefix(row, xdrop)
    return out_len, out_score


def bulk_ungapped_extend(qcat: np.ndarray, scat: np.ndarray,
                         gq: np.ndarray, gs: np.ndarray,
                         avail_l: np.ndarray, avail_r: np.ndarray,
                         scheme: ScoringScheme, xdrop: int = 20
                         ) -> Tuple[np.ndarray, np.ndarray,
                                    np.ndarray, np.ndarray]:
    """X-drop extend many seeds across many query/subject pairs at once.

    The batched search driver's extension kernel: *gq*/*gs* are seed
    anchors as **flat positions** into the query concatenation *qcat*
    and the packed fragment *scat*, so one 2-D gather scores seeds
    belonging to different queries, strands and subjects together —
    no per-(query, subject) numpy dispatch at all.  ``avail_l`` /
    ``avail_r`` bound each seed's walk to its own sequence, which is
    what keeps sentinels and neighbouring sequences out of the scoring
    window.

    Per seed the answer — ``(left_len, left_score, right_len,
    right_score)`` — is exactly what the oracle's ``ungapped_extend``
    computes from the equivalent per-sequence slices.
    """
    right_len, right_score = _bulk_prefix(qcat, scat, gq, gs, avail_r,
                                          +1, scheme, xdrop, _BULK_WINDOW)
    left_len, left_score = _bulk_prefix(qcat, scat, gq - 1, gs - 1, avail_l,
                                        -1, scheme, xdrop, _BULK_WINDOW)
    return left_len, left_score, right_len, right_score
