"""The per-row banded gapped kernel: the oracle for the library's.

``repro.blast.gapped.banded_local_align`` sweeps the band's H and F rows
with no pointer bookkeeping and derives its traceback pointers from the
stored rows after the sweep.  This module holds the kernel it replaced,
moved here verbatim: it writes all three pointer matrices row by row,
with a per-row maximum, and runs the within-row E recurrence either as
the closed-form prefix maximum (:func:`_e_scan_vectorized`, for
``gap_open > gap_extend``) or as the reference left-to-right scan
(:func:`_e_scan_loop`).  The two kernels must agree field for field,
``ops`` included (``tests/test_blast_gapped_bulk.py``), and
``tests/oracle_search.py`` aligns every triggered candidate with this
copy, so the search oracle imports nothing from ``repro.blast.gapped``
except the :class:`~repro.blast.gapped.GappedAlignment` record.

See ``repro.blast.gapped`` for the DP formulation and band layout.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.blast.gapped import GappedAlignment
from repro.blast.score import ScoringScheme

NEG = -(10 ** 9)

# Traceback codes for the H matrix.
_STOP, _DIAG, _FROM_F, _FROM_E = 0, 1, 2, 3


def _e_scan_loop(H: np.ndarray, codes: np.ndarray, pe: np.ndarray,
                 go: int, ge: int) -> np.ndarray:
    """Reference within-row E scan: left-to-right, updating H in place.

    ``H``/``codes`` are modified in place; returns E.  Kept as the
    fallback for schemes with ``gap_open <= gap_extend`` and as the
    equivalence oracle for the vectorised scan."""
    w = len(H)
    E = np.full(w, NEG, dtype=np.int64)
    for b in range(1, w):
        e_open = H[b - 1] - go
        e_ext = E[b - 1] - ge
        E[b] = e_open if e_open >= e_ext else e_ext
        pe[b] = 0 if e_open >= e_ext else 1
        if E[b] > H[b]:
            H[b] = E[b]
            codes[b] = _FROM_E
    return E


def _e_scan_vectorized(H: np.ndarray, codes: np.ndarray, pe: np.ndarray,
                       go: int, ge: int, slot_ge: np.ndarray,
                       open_cost: np.ndarray,
                       scratch: Tuple[np.ndarray, np.ndarray]
                       ) -> np.ndarray:
    """Closed-form E scan (requires ``go > ge`` and at least two
    slots); same contract as :func:`_e_scan_loop`.

    ``slot_ge`` is the precomputed ``ge * arange(w)`` vector,
    ``open_cost`` is ``go + slot_ge[:-1]``, and ``scratch`` is a pair
    of reusable ``(w,)`` int64 buffers (the returned E is the second,
    valid until the next call).  Because ``go > ge``, opening a gap
    from an E-derived H cell can never beat extending that E, so E
    depends only on the pre-E H values — which makes it a prefix
    maximum; the same inequality makes the open/extend tie-break of the
    scan loop reproduce exactly."""
    P, E = scratch
    T = H + slot_ge
    np.maximum.accumulate(T, out=P)
    E[0] = NEG
    np.subtract(P[:-1], open_cost, out=E[1:])
    # pe[b] = 1 (extended) iff the best opening point lies before b-1.
    pe[1] = 0
    np.less(T[1:-1], P[:-2], out=pe[2:].view(bool))
    take_e = E > H
    H[take_e] = E[take_e]
    codes[take_e] = _FROM_E
    return E



def banded_local_align(query: np.ndarray, subject: np.ndarray,
                       diag: int, scheme: ScoringScheme,
                       band: int = 24,
                       identity_query: Optional[np.ndarray] = None
                       ) -> GappedAlignment:
    """Banded affine local alignment around diagonal ``diag = s - q``.

    ``identity_query`` supplies the residue letters for identity
    counting when *query* holds something else — PSI-BLAST passes
    position indices as *query* (so ``scheme.matrix`` is a PSSM) and
    the actual residues here.
    """
    id_query = query if identity_query is None else identity_query
    m = len(query)
    n = len(subject)
    if m == 0 or n == 0:
        return GappedAlignment(0, 0, 0, 0, 0, 0, 0)
    w = 2 * band + 1
    go = scheme.gap_open
    ge = scheme.gap_extend

    # Row i's band covers subject columns [i+diag-band, i+diag+band];
    # rows whose window lies entirely outside [1, n] form a prefix
    # and/or suffix of 1..m.  A fully-invalid row is masked to H = 0,
    # F = NEG — exactly the DP's initial state — so the leading ones
    # can be skipped and the trailing ones can never improve the best
    # cell: only rows [row_lo, row_hi] are computed and allocated.
    # Short diagonals near sequence edges stop paying full-length DP.
    row_lo = max(1, 1 - diag - band)
    row_hi = min(m, n - diag + band)
    if row_lo > row_hi:
        return GappedAlignment(0, 0, 0, 0, 0, 0, 0)
    n_rows = row_hi - row_lo + 1

    ptrH = np.zeros((n_rows, w), dtype=np.int8)
    # ptrE / ptrF: 1 if the gap state was *extended* (came from the same
    # gap matrix), 0 if freshly *opened* (came from H).
    ptrE = np.zeros((n_rows, w), dtype=np.int8)
    ptrF = np.zeros((n_rows, w), dtype=np.int8)

    best = 0
    best_pos = (0, 0)
    subject_idx = subject.astype(np.intp)
    band_arange = np.arange(w)
    slot_ge = ge * band_arange
    open_cost = go + slot_ge[:-1]
    # A one-slot band (band=0) has no within-row gap: the scan loop is
    # then a no-op, and the closed form needs a second slot.
    vector_scan = go > ge and w > 1

    # Per-row substitution gathers and validity masks, computed in one
    # shot: row i uses slice i-row_lo of each.
    cols = (np.arange(row_lo, row_hi + 1)[:, None] + (diag - band)
            + band_arange)
    valid_all = (cols >= 1) & (cols <= n)
    row_invalid = ~valid_all.all(axis=1)
    safe_all = np.clip(cols - 1, 0, n - 1)
    sub_all = scheme.matrix[query[row_lo - 1:row_hi][:, None],
                            subject_idx[safe_all]].astype(np.int64)

    # Ping-pong row buffers (allocation per row is measurable at this
    # band width); up_* carry a trailing NEG that never changes.
    bufs = [np.zeros((2, w), dtype=np.int64),
            np.full((2, w), NEG, dtype=np.int64)]
    diag_score = np.empty(w, dtype=np.int64)
    up_H = np.full(w, NEG, dtype=np.int64)
    up_F = np.full(w, NEG, dtype=np.int64)
    F_open = np.empty(w, dtype=np.int64)
    F_ext = np.empty(w, dtype=np.int64)
    scratch = (np.empty(w, dtype=np.int64), np.empty(w, dtype=np.int64))

    for i in range(row_lo, row_hi + 1):
        r = i - row_lo
        cur = i & 1
        H_prev = bufs[0][1 - cur]
        F_prev = bufs[1][1 - cur]
        H = bufs[0][cur]
        F = bufs[1][cur]

        np.add(H_prev, sub_all[r], out=diag_score)

        # F: gap in subject, from row i-1 slot b+1.
        up_H[:-1] = H_prev[1:]
        up_F[:-1] = F_prev[1:]
        np.subtract(up_H, go, out=F_open)
        np.subtract(up_F, ge, out=F_ext)
        np.maximum(F_open, F_ext, out=F)
        np.greater(F_ext, F_open, out=ptrF[r].view(bool))

        # H before E (E needs H within the row, computed left to right);
        # diag >= max(diag, 0) iff diag >= 0, and _DIAG/_STOP are 1/0.
        codes = ptrH[r]
        np.maximum(diag_score, 0, out=H)
        np.greater_equal(diag_score, 0, out=codes.view(bool))
        take_f = F > H
        np.maximum(H, F, out=H)
        codes[take_f] = _FROM_F

        if vector_scan:
            _e_scan_vectorized(H, codes, ptrE[r], go, ge, slot_ge,
                               open_cost, scratch)
        else:
            _e_scan_loop(H, codes, ptrE[r], go, ge)

        if row_invalid[r]:
            invalid = ~valid_all[r]
            H[invalid] = 0
            codes[invalid] = _STOP
            F[invalid] = NEG

        row_best = int(H.max())
        if row_best > best:
            best = row_best
            best_pos = (i, int(np.argmax(H)))

    if best <= 0:
        return GappedAlignment(0, 0, 0, 0, 0, 0, 0)

    # ------------------------------------------------------------ traceback
    # Pointer rows exist only for [row_lo, row_hi]; rows below row_lo
    # are all-_STOP in the unclipped DP (fully invalid), so stepping
    # under row_lo ends the walk exactly where reading their codes
    # would have.  (The walk cannot *consume* ops below row_lo: F is
    # never selected there — its values derive from H = 0 minus at
    # least a gap-open — and E stays within its row.)
    i, b = best_pos
    j = i + diag - band + b
    q_end, s_end = i, j
    identities = 0
    align_len = 0
    ops_rev = []
    state = "H"
    while i >= row_lo and 0 <= b < w:
        if state == "H":
            code = ptrH[i - row_lo, b]
            if code == _STOP:
                break
            if code == _DIAG:
                if id_query[i - 1] == subject[j - 1]:
                    identities += 1
                align_len += 1
                ops_rev.append("M")
                i -= 1
                j -= 1
                # same slot
            elif code == _FROM_F:
                state = "F"
            else:
                state = "E"
        elif state == "F":
            # consume one query residue (gap in subject)
            extended = ptrF[i - row_lo, b]
            align_len += 1
            ops_rev.append("D")
            i -= 1
            b += 1
            state = "F" if extended else "H"
        else:  # state == "E": consume one subject residue (gap in query)
            extended = ptrE[i - row_lo, b]
            align_len += 1
            ops_rev.append("I")
            j -= 1
            b -= 1
            state = "E" if extended else "H"
    return GappedAlignment(
        q_start=i, q_end=q_end, s_start=j, s_end=s_end,
        score=best, identities=identities, align_len=align_len,
        ops="".join(reversed(ops_rev)),
    )
