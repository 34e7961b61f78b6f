"""Banded gapped alignment.

Promising ungapped HSPs are refined with a banded affine-gap local
alignment (Smith–Waterman restricted to a diagonal band around the
HSP's diagonal — the moral equivalent of Gapped BLAST's X-dropoff
gapped extension).  The DP is vectorised across the band for each query
row; exact affine traceback recovers endpoints, alignment length, and
identity count.

DP formulation (Gotoh): for query index i (1..m) and subject index j::

    E(i,j) = best score ending at (i,j) with a gap in the query
             (last move consumes subject only, from (i, j-1))
    F(i,j) = best score ending at (i,j) with a gap in the subject
             (last move consumes query only, from (i-1, j))
    H(i,j) = max(0, H(i-1,j-1) + s(q_i, s_j), E(i,j), F(i,j))

Band slot b holds subject column j = i + diag - band + b, so cell
(i-1, j-1) is slot b of the previous row, (i-1, j) is slot b+1 of the
previous row, and (i, j-1) is slot b-1 of the same row.

The within-row E recurrence ``E[b] = max(H[b-1] - open, E[b-1] - ext)``
is a left-to-right scan, but it closes in one vectorised pass: with
``T[a] = H[a] + ext * a`` and ``P`` its running maximum,
``E[b] = P[b-1] - open - ext*(b-1)`` (each candidate opening point
pays the open penalty once plus ``ext`` per slot travelled).  The
identity requires ``open >= ext`` (otherwise re-opening a gap inside a
gap could beat extending it, which the prefix maximum cannot see), and
the open/extend traceback tie-break matches the scan's only for
``open > ext`` — so the vectorised pass runs exactly when
``gap_open > gap_extend`` (every standard scheme) and the reference
scan loop handles the rest.

Three entry points share the DP:

* :func:`banded_local_align` — one (query, subject, diag), full affine
  traceback with pointer matrices.  Rows whose entire band falls
  outside the subject (a prefix and/or suffix of the row range, since
  the band's column window moves one column per row) are never
  computed: an all-invalid row resets the DP state to exactly the
  initial one (H = 0, F = -inf), so clipping them changes nothing but
  the allocation size.
* :func:`bulk_banded_score` — many candidates at once, **score only**
  (no pointer matrices): the same recurrences stacked candidate-major
  so each DP row is one set of vectorised passes over a
  ``(candidates, band)`` block.  It returns per candidate the best
  score and its end cell, which is all the search driver needs to
  decide which candidates deserve the (much more expensive) traceback
  pass.
* :func:`bulk_banded_align` — the same stacked sweep, additionally
  recording one packed pointer byte per cell and walking every
  candidate back: per candidate exactly the scalar routine's
  :class:`GappedAlignment`.  The search driver runs all survivors of
  the score pass through it in one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.blast.score import ScoringScheme

NEG = -(10 ** 9)

# Traceback codes for the H matrix.
_STOP, _DIAG, _FROM_F, _FROM_E = 0, 1, 2, 3

_INT64_MIN = np.iinfo(np.int64).min


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


@dataclass
class GappedAlignment:
    """Result of a banded gapped extension."""

    q_start: int
    q_end: int     # exclusive
    s_start: int
    s_end: int     # exclusive
    score: int
    identities: int
    align_len: int
    #: Alignment operations, query-start to query-end: "M" aligned pair,
    #: "D" query residue vs gap, "I" gap vs subject residue.
    ops: str = ""

    @property
    def identity(self) -> float:
        return self.identities / self.align_len if self.align_len else 0.0


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


#: Candidate-chunk bound of the bulk score pass: peak scratch is about
#: ``12 * _BULK_CANDIDATES * (2 * band + 1) * 8`` bytes per DP row.
_BULK_CANDIDATES = 4096

#: Candidate-chunk bound of the bulk traceback pass, which also keeps
#: one packed pointer byte per DP cell until the chunk is walked back:
#: at most ``_BULK_ALIGN_CANDIDATES * rows * (2 * band + 1)`` bytes —
#: 2.2 MB for 350-row protein problems at the default band, a third of
#: the three int8 planes the scalar routine would hold for that many.
_BULK_ALIGN_CANDIDATES = 128

# Packed pointer byte: the H code in the low two bits, then the
# "gap was extended" bits of E and F.
_CODE_MASK, _E_EXT, _F_EXT = 3, 4, 8


class _SweepChunk(NamedTuple):
    """What :func:`_bulk_sweep` yields for one chunk of candidates;
    per-candidate arrays are in the chunk's longest-first order."""

    idx: np.ndarray        # candidate numbers of the chunk
    row_lo: np.ndarray     # first DP row (1-based query index)
    best: np.ndarray       # best score (0 when nothing scores)
    best_i: np.ndarray     # its query row ...
    best_j: np.ndarray     # ... and subject column, both 1-based
    #: Packed pointer bytes (``None`` unless requested): row ``r`` of
    #: the chunk's ``k``-th candidate starts at ``row_base[r] + k * w``.
    ptr: Optional[np.ndarray]
    row_base: Optional[np.ndarray]


def _bulk_sweep(qcat: np.ndarray, scat: np.ndarray,
                q_off: np.ndarray, q_len: np.ndarray,
                s_off: np.ndarray, s_len: np.ndarray,
                diag: np.ndarray, scheme: ScoringScheme, band: int,
                chunk: int, keep_pointers: bool) -> Iterator[_SweepChunk]:
    """The candidate-major row sweep behind both bulk kernels.

    Candidates are processed longest-first in chunks of *chunk* so the
    per-row working set is always a prefix that shrinks as shorter
    candidates finish, and each candidate only sweeps the rows whose
    band overlaps its subject (the same clipping as the scalar
    routine).  Chunks in which no candidate has a row are not yielded.
    With *keep_pointers* every row also records what the scalar routine
    writes to its three pointer matrices, packed into one byte per
    cell.
    """
    w = 2 * band + 1
    go = scheme.gap_open
    ge = scheme.gap_extend
    matrix = scheme.matrix
    barange = np.arange(w, dtype=np.int64)
    slot_ge = ge * barange
    open_cost = go + slot_ge[:-1]
    vector_scan = go > ge
    e_ext_bit = np.uint8(_E_EXT)

    row_lo = np.maximum(1, 1 - diag - band)
    row_hi = np.minimum(q_len, s_len - diag + band)
    n_rows = np.maximum(0, row_hi - row_lo + 1)
    order = np.argsort(-n_rows, kind="stable")

    for lo in range(0, len(diag), chunk):
        idx = order[lo:lo + chunk]
        nr = n_rows[idx]
        max_rows = int(nr[0])
        if max_rows == 0:
            break
        rl = row_lo[idx]
        qo = q_off[idx]
        so = s_off[idx]
        sl = s_len[idx]
        jbase0 = rl + diag[idx] - band      # subject col at (r=0, b=0)
        c_all = len(idx)
        H = np.zeros((c_all, w), dtype=np.int64)
        F = np.full((c_all, w), NEG, dtype=np.int64)
        best = np.zeros(c_all, dtype=np.int64)
        best_i = np.zeros(c_all, dtype=np.int64)
        best_j = np.zeros(c_all, dtype=np.int64)
        # Active prefix of row r: the candidates with more than r rows.
        active = np.searchsorted(-nr, -np.arange(max_rows), side="left")
        ptr = row_base = None
        if keep_pointers:
            row_base = np.zeros(max_rows + 1, dtype=np.int64)
            np.cumsum(active * w, out=row_base[1:])
            ptr = np.empty(int(row_base[-1]), dtype=np.uint8)
            gap_bits = np.zeros((c_all, w), dtype=np.uint8)
        for r, a in enumerate(active.tolist()):
            i_abs = rl[:a] + r
            jb = jbase0[:a] + r
            j = jb[:, None] + barange
            valid = (j >= 1) & (j <= sl[:a, None])
            sj = so[:a, None] + np.clip(j - 1, 0, (sl[:a] - 1)[:, None])
            sub = matrix[qcat[qo[:a] + i_abs - 1][:, None],
                         scat[sj]].astype(np.int64)
            Hp = H[:a]
            Fp = F[:a]
            diag_score = Hp + sub
            F_new = np.full((a, w), NEG, dtype=np.int64)
            np.maximum(Hp[:, 1:] - go, Fp[:, 1:] - ge, out=F_new[:, :-1])
            H_new = np.maximum(diag_score, 0)
            if keep_pointers:
                # Same tie-break order as the scalar routine: DIAG (or
                # STOP at zero), then F, then E, each only on a strict
                # improvement.  F was extended iff it beats opening.
                codes = ptr[row_base[r]:row_base[r + 1]].reshape(a, w)
                np.greater_equal(diag_score, 0, out=codes.view(bool))
                codes[F_new > H_new] = _FROM_F
                bits = gap_bits[:a]
                np.greater(F_new[:, :-1], Hp[:, 1:] - go,
                           out=bits[:, :-1].view(bool))
                bits[:, -1] = go > ge       # NEG - ge vs NEG - go
                bits *= _F_EXT
            np.maximum(H_new, F_new, out=H_new)
            if vector_scan:
                # Closed-form within-row E (same identity as the
                # scalar _e_scan_vectorized, rows stacked); E takes
                # over T's storage.
                T = H_new + slot_ge
                P = np.maximum.accumulate(T, axis=1)
                if keep_pointers:
                    bits[:, 2:] |= (T[:, 1:-1] < P[:, :-2]) * e_ext_bit
                E = np.subtract(P[:, :-1], open_cost, out=T[:, 1:])
                if keep_pointers:
                    codes[:, 1:][E > H_new[:, 1:]] = _FROM_E
                np.maximum(H_new[:, 1:], E, out=H_new[:, 1:])
            else:
                E = np.full(a, NEG, dtype=np.int64)
                for b in range(1, w):
                    e_open = H_new[:, b - 1] - go
                    e_ext = E - ge
                    np.maximum(e_open, e_ext, out=E)
                    if keep_pointers:
                        codes[E > H_new[:, b], b] = _FROM_E
                        bits[:, b] |= (e_ext > e_open) * e_ext_bit
                    np.maximum(H_new[:, b], E, out=H_new[:, b])
            # Mask after the E scan, like the scalar routine; the gap
            # bits are left as computed, as its ptrE / ptrF rows are.
            invalid = ~valid
            H_new[invalid] = 0
            F_new[invalid] = NEG
            if keep_pointers:
                codes[invalid] = _STOP
                codes |= bits
            row_best = H_new.max(axis=1)
            upd = row_best > best[:a]
            if upd.any():
                slot = np.argmax(H_new, axis=1)
                best[:a][upd] = row_best[upd]
                best_i[:a][upd] = i_abs[upd]
                best_j[:a][upd] = (jb + slot)[upd]
            H[:a] = H_new
            F[:a] = F_new
        yield _SweepChunk(idx, rl, best, best_i, best_j, ptr, row_base)


def _as_int64(*arrays) -> List[np.ndarray]:
    return [np.asarray(a, dtype=np.int64) for a in arrays]


def bulk_banded_score(qcat: np.ndarray, scat: np.ndarray,
                      q_off: np.ndarray, q_len: np.ndarray,
                      s_off: np.ndarray, s_len: np.ndarray,
                      diag: np.ndarray, scheme: ScoringScheme,
                      band: int = 24
                      ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Score-only banded affine DP over many candidates at once.

    Candidate ``c`` is the alignment :func:`banded_local_align` would
    compute for ``(qcat[q_off[c]:q_off[c]+q_len[c]],
    scat[s_off[c]:s_off[c]+s_len[c]], diag[c])`` — queries and subjects
    live as slices of flat concatenations (the scan kernel's fragment
    concatenation and the driver's query concatenation), so one 2-D
    gather per DP row scores candidates belonging to different queries,
    strands and subjects together.  Only ``H``/``F`` row states are
    kept — no pointer matrices, which is the bulk of the scalar
    routine's memory traffic — and the recurrences are evaluated in
    the same order with the same int64 arithmetic, so per candidate
    the returned ``(score, q_end, s_end)`` equals the scalar
    alignment's ``(score, q_end, s_end)`` exactly (``0, 0, 0`` when no
    cell scores positive).

    The sweep (:func:`_bulk_sweep`) runs in chunks of
    ``_BULK_CANDIDATES``.
    """
    n_cand = len(diag)
    out_score = np.zeros(n_cand, dtype=np.int64)
    out_qend = np.zeros(n_cand, dtype=np.int64)
    out_send = np.zeros(n_cand, dtype=np.int64)
    for ch in _bulk_sweep(qcat, scat,
                          *_as_int64(q_off, q_len, s_off, s_len, diag),
                          scheme, band, _BULK_CANDIDATES, False):
        pos = ch.best > 0
        out_score[ch.idx[pos]] = ch.best[pos]
        out_qend[ch.idx[pos]] = ch.best_i[pos]
        out_send[ch.idx[pos]] = ch.best_j[pos]
    return out_score, out_qend, out_send


def bulk_banded_align(qcat: np.ndarray, scat: np.ndarray,
                      q_off: np.ndarray, q_len: np.ndarray,
                      s_off: np.ndarray, s_len: np.ndarray,
                      diag: np.ndarray, scheme: ScoringScheme,
                      band: int = 24,
                      identity_qcat: Optional[np.ndarray] = None
                      ) -> List[GappedAlignment]:
    """Banded affine alignments with traceback, many candidates at once.

    Same candidate layout and the same row sweep as
    :func:`bulk_banded_score`, additionally keeping one packed pointer
    byte per DP cell and walking each candidate back, so entry ``c``
    of the result equals — field for field, ``ops`` included — what
    :func:`banded_local_align` returns for that candidate.
    ``identity_qcat`` is the flat counterpart of its ``identity_query``
    (residue letters at the offsets of *qcat*, for PSSM rounds).

    Pointer storage is bounded by sweeping ``_BULK_ALIGN_CANDIDATES``
    candidates at a time; each chunk is walked back before the next is
    swept.
    """
    idcat = qcat if identity_qcat is None else identity_qcat
    q_off, q_len, s_off, s_len, diag = _as_int64(q_off, q_len, s_off,
                                                 s_len, diag)
    w = 2 * band + 1
    out = [GappedAlignment(0, 0, 0, 0, 0, 0, 0) for _ in range(len(diag))]
    for ch in _bulk_sweep(qcat, scat, q_off, q_len, s_off, s_len, diag,
                          scheme, band, _BULK_ALIGN_CANDIDATES, True):
        cells = memoryview(ch.ptr)
        row_base = ch.row_base.tolist()
        per_cand = zip(*(a.tolist() for a in (ch.idx, ch.row_lo, ch.best,
                                              ch.best_i, ch.best_j)))
        for k, (c, row_lo, score, q_end, s_end) in enumerate(per_cand):
            if score <= 0:
                continue
            i, j = q_end, s_end
            b = j - (i + int(diag[c]) - band)
            cand_base = k * w
            # The scalar routine's walk, reading the packed byte.
            m_rows = []
            m_cols = []
            ops_rev = []
            state = "H"
            while i >= row_lo and 0 <= b < w:
                cell = cells[row_base[i - row_lo] + cand_base + b]
                if state == "H":
                    code = cell & _CODE_MASK
                    if code == _STOP:
                        break
                    if code == _DIAG:
                        m_rows.append(i)
                        m_cols.append(j)
                        ops_rev.append("M")
                        i -= 1
                        j -= 1
                    elif code == _FROM_F:
                        state = "F"
                    else:
                        state = "E"
                elif state == "F":
                    ops_rev.append("D")
                    i -= 1
                    b += 1
                    state = "F" if cell & _F_EXT else "H"
                else:
                    ops_rev.append("I")
                    j -= 1
                    b -= 1
                    state = "E" if cell & _E_EXT else "H"
            same = (idcat[np.array(m_rows, dtype=np.int64) + (q_off[c] - 1)]
                    == scat[np.array(m_cols, dtype=np.int64) + (s_off[c] - 1)])
            out[c] = GappedAlignment(
                q_start=i, q_end=q_end, s_start=j, s_end=s_end, score=score,
                identities=int(np.count_nonzero(same)),
                align_len=len(ops_rev), ops="".join(reversed(ops_rev)))
    return out
