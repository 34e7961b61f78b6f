"""Ungapped X-drop extension along a diagonal.

From a seed word the alignment is extended left and right; extension in
a direction stops when the running score falls more than X below the
best score seen in that direction (Altschul et al. 1990).  Both
directions are fully vectorised: the per-position substitution scores
along the diagonal are cumulative-summed and the X-drop cut-off is found
with a running maximum.

:func:`bulk_ungapped_extend` is the one extension kernel the search
driver calls, for every alphabet and seeding rule: all seeds of a batch
— across queries, strands and subjects — are scored together against
the flat query / fragment concatenations, a 32-wide window first and a
64-wide one for the rows it cannot settle, and the driver
replays the per-diagonal coverage dedup (a seed inside an HSP already
found on its diagonal is skipped) from the returned extents.
The single-seed definition it is specified against
(``ungapped_extend``) lives beside the oracle, ``tests/oracle_search.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from repro.blast.scankernel import TwoBitResidues
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


#: The window ladder of the vectorised bulk X-drop pass: every row is
#: scored over the first window; rows that neither drop nor end there
#: re-run over the second, and extensions that outlast it too (true
#: alignments, not the random-hit noise that dominates seed counts)
#: take the exact per-seed chunked scan.  94-99 % of the benchmark's
#: seeds drop within 32 positions in either direction.
_BULK_WINDOWS = (32, 64)
#: Row-chunk bound of the bulk pass: peak scratch is eight to ten
#: ``_BULK_ROWS * window`` temporaries.  Sized by measurement when
#: blastp's ~4 000 two-hit seeds per query started coming through here
#: (nt's ~800 never filled a 4096-row chunk), with the single 64-wide
#: int64 window the ladder replaced: kernel scratch (tracemalloc peak)
#: on benchmark aa query 0, then the ``extend`` stage, best of 7-15
#: runs in ms, for that query / one 568-nt query / a batch of eight
#: against 4 M residues.
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
#: own ~5 MB transient, so extension never sets ``peak_rss_mb``.  The
#: ladder (a 32-wide window, int16 for both programs' defaults) peaks
#: at 1.0 MB on the same query at 512 rows, and its stage times at 256
#: to 4096 rows lie within run-to-run noise of each other, so the bound
#: stays.
_BULK_ROWS = 512


def _window_dtype(window: int, scheme: ScoringScheme,
                  xdrop: int) -> np.dtype:
    """The integer type of a *window*-position pass, from a static
    bound on what it can form.

    Every per-position score — a matrix entry or the ``-(xdrop + 1)``
    pad — lies within ``±m``, ``m = max(smax, -smin, xdrop + 1)``.  So
    no prefix sum of a row exceeds ``window * m`` in magnitude, and
    neither does its gap under the running maximum (the positions
    since the maximum, or since the anchor, each lose at most ``m``).
    The narrowest of int16 / int32 / int64 that holds ``window * m``:
    a property of the inputs, not a setting (the rule of
    :func:`repro.blast.gapped._dp_width`)."""
    matrix = scheme.matrix
    bound = window * max(int(matrix.max()), -int(matrix.min()), xdrop + 1)
    for dtype in (np.int16, np.int32):
        if bound <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(np.int64)


def _window_pass(qcat: np.ndarray,
                 scat: Union[np.ndarray, TwoBitResidues], q0: np.ndarray,
                 s0: np.ndarray, av: np.ndarray, step: int,
                 scheme: ScoringScheme, xdrop: int, window: int
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One window of :func:`_bulk_prefix` over rows ``q0`` / ``s0`` /
    ``av``: ``(settled, lengths, scores)``, the last two exact for the
    settled rows — those that drop or end inside the window."""
    dtype = _window_dtype(window, scheme, xdrop)
    n_cols = scheme.matrix.shape[1]
    table = scheme.matrix.astype(dtype).ravel()
    span = np.arange(window, dtype=np.int64)
    walk = span * step
    settled = np.empty(len(q0), dtype=bool)
    out_len = np.zeros(len(q0), dtype=np.int64)
    out_score = np.zeros(len(q0), dtype=np.int64)
    for lo in range(0, len(q0), _BULK_ROWS):
        hi = min(len(q0), lo + _BULK_ROWS)
        a = av[lo:hi, None]
        # One flat (query code, subject code) index into the matrix.
        # Gathers past a row's end may read sentinels or neighbours:
        # every index is clipped in range and those scores padded.
        code = np.take(qcat, q0[lo:hi, None] + walk,
                       mode="clip").astype(np.intp)
        code *= n_cols
        code += scat.take(s0[lo:hi, None] + walk, mode="clip")
        scores = np.where(span < a, np.take(table, code, mode="clip"),
                          dtype.type(-(xdrop + 1)))
        cum = np.cumsum(scores, axis=1, dtype=dtype)
        runmax = np.maximum.accumulate(np.maximum(cum, 0), axis=1)
        dropped = (runmax - cum) > xdrop
        has_drop = dropped.any(axis=1)
        stop = np.where(has_drop, np.argmax(dropped, axis=1), window)
        head = np.where(span < stop[:, None], cum, np.iinfo(dtype).min)
        best = np.argmax(head, axis=1)
        val = head[np.arange(hi - lo), best].astype(np.int64)
        pos = val > 0
        out_len[lo:hi] = np.where(pos, best + 1, 0)
        out_score[lo:hi] = np.where(pos, val, 0)
        settled[lo:hi] = has_drop | (a[:, 0] <= window)
    return settled, out_len, out_score


def _bulk_prefix(qcat: np.ndarray, scat: Union[np.ndarray, TwoBitResidues],
                 q0: np.ndarray, s0: np.ndarray, avail: np.ndarray,
                 step: int, scheme: ScoringScheme, xdrop: int
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorised :func:`_best_prefix` over many seeds at once.

    Row ``i`` walks ``avail[i]`` positions from ``(q0[i], s0[i])`` in
    *step* direction (+1 right, -1 left) through the flat query /
    subject concatenations.  Each window of :data:`_BULK_WINDOWS`
    scores the rows still open in one flat gather, in the narrowest
    integer type :func:`_window_dtype` admits; positions past a row's
    ``avail`` are padded with ``-(xdrop + 1)``, which trips the X-drop
    test exactly at the boundary, so any row whose scan terminates
    inside a window gets the same (length, score) answer as the scalar
    pass.  Rows that neither drop nor end within the last window
    re-run the exact per-seed scan.  Returns ``(lengths, scores)``
    int64 arrays.
    """
    n = len(q0)
    out_len = np.zeros(n, dtype=np.int64)
    out_score = np.zeros(n, dtype=np.int64)
    open_rows = np.arange(n)
    for window in _BULK_WINDOWS:
        if not len(open_rows):
            return out_len, out_score
        settled, lengths, scores = _window_pass(
            qcat, scat, q0[open_rows], s0[open_rows], avail[open_rows],
            step, scheme, xdrop, window)
        done = open_rows[settled]
        out_len[done] = lengths[settled]
        out_score[done] = scores[settled]
        open_rows = open_rows[~settled]
    # Exact re-scan of rows no window could settle.
    for i in open_rows.tolist():
        walk = step * np.arange(int(avail[i]), dtype=np.int64)
        row = scheme.pair_scores(qcat[int(q0[i]) + walk],
                                 scat.take(int(s0[i]) + walk))
        out_len[i], out_score[i] = _best_prefix(row, xdrop)
    return out_len, out_score


def bulk_ungapped_extend(qcat: np.ndarray,
                         scat: Union[np.ndarray, TwoBitResidues],
                         gq: np.ndarray, gs: np.ndarray,
                         avail_l: np.ndarray, avail_r: np.ndarray,
                         scheme: ScoringScheme, xdrop: int = 20
                         ) -> Tuple[np.ndarray, np.ndarray,
                                    np.ndarray, np.ndarray]:
    """X-drop extend many seeds across many query/subject pairs at once.

    The batched search driver's extension kernel: *gq*/*gs* are seed
    anchors as **flat positions** into the query concatenation *qcat*
    and the fragment's residues *scat* (a one-byte array or a
    :class:`~repro.blast.scankernel.TwoBitResidues`: anything with
    ``take``), so one 2-D gather scores seeds
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
                                          +1, scheme, xdrop)
    left_len, left_score = _bulk_prefix(qcat, scat, gq - 1, gs - 1, avail_l,
                                        -1, scheme, xdrop)
    return left_len, left_score, right_len, right_score
