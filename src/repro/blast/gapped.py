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
scan loop handles the rest.  The row-stacked sweep takes ``P`` with
one ``np.maximum.accumulate`` along its rows' blocks; the band-major
sweep takes it in log-step doubling passes (``P[b] = max(P[b],
P[b-k])`` for k = 1, 2, 4, ... while ``k < w``), each one
elementwise maximum over a whole block —
exact, because max is associative and idempotent; on a ``(49, 600)``
int16 block (numpy 2.4, one Xeon core) the six passes took 21 µs,
``accumulate`` along the band 107 µs.

Three kernels share the DP:

* :func:`banded_local_align_many` — many (query, subject, diag)
  problems, full affine traceback, in one row sweep:
  :func:`banded_local_align` is its one-problem call.  A DP row of
  every problem of a chunk is one contiguous flat array of ``2 * band
  + 2``-slot blocks, so each recurrence is one ufunc call over the
  whole row, whatever the number of problems.  Rows whose entire band
  falls outside the subject (a prefix and/or suffix of the row range,
  since the band's column window moves one column per row) are never
  computed: an all-invalid row resets the DP state to exactly the
  initial one (H = 0, F = -inf), so clipping them changes nothing but
  the allocation size.  The sweep writes no pointers and takes no
  per-row maximum: it keeps every H and F row, about ten ufunc calls a
  row (F three, H three, the closed-form E four).  After it, per
  problem, one ``max(axis=1)`` finds the first row holding the best
  cell, and the pointers of every row up to it are recomputed from the
  stored rows in a handful of 2-D passes (:func:`_derive_pointers`):
  the pre-E cell ``Hf = max(H_prev + s, 0, F)`` is exact from the
  stored rows, the E update took a cell iff the stored H exceeds it,
  and the E- and F-extended bits are the same comparisons the per-row
  recurrences make.  With ``gap_open <= gap_extend`` the sweep runs
  the E scan slot by slot and the derivation replays it column by
  column over all rows.  The per-row kernel that wrote three pointer
  matrices row by row is the oracle in ``tests/oracle_gapped.py``.
* :func:`bulk_banded_score` — many candidates at once, **score only**
  (no pointer matrices): the same recurrences stacked band-major, so
  each DP row of ``a`` still-active candidates is one contiguous
  ``(band slots, a)`` block and the band shifts (slot b+1 above, slot
  b-1 to the left) are row offsets of it — every ufunc runs inner
  loops ``a`` long, and only the previous row's block, once candidates
  have finished, is read through a strided view.  Each chunk of
  candidates sweeps in the narrowest integer type its static bound
  fits (:func:`_dp_width`: ``rows * max(smax, 0) + gap_open +
  gap_extend * w - min(smin, 0)``, with headroom — int16 for 350-row
  BLOSUM62 problems, int32 or int64 past that), which is exact, not a
  setting; the row-stacked sweep picks its type the same way.  It
  returns per candidate the best score and its end cell, which is all
  the search driver needs to decide which candidates deserve the
  (much more expensive) traceback pass.
* :func:`bulk_banded_align` — the same band-major sweep, additionally
  recording one packed pointer byte per cell, band-major like the DP
  rows, and walking every candidate back: per candidate exactly what
  :func:`banded_local_align_many` returns.  The search driver runs all
  survivors of the score pass through it in one call.

Both layouts walk back with :func:`_walk_back` over the same packed
pointer byte, slot b of row r at ``row_base[r] + row_stride[r] * b``
(slot-major per problem for the row-stacked kernel, so a slot column
has stride 1; the row's active count for the band-major ones).  A
diagonal move keeps the slot, so the walk takes a whole run of them in
one gather of that column.  Which problems reach a kernel at all is
the driver's business: a group of candidates whose best ungapped score
is under the emit bound (``repro.blast.search._emit_bound``) can
report nothing, and is dropped before any gapped work is planned for
it; below ``repro.blast.search._BULK_MIN_CANDIDATES`` problems a batch
takes one row-stacked call, from there the two band-major passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.blast.score import ScoringScheme

NEG = -(10 ** 9)

# Traceback codes for the H matrix.
_STOP, _DIAG, _FROM_F, _FROM_E = 0, 1, 2, 3

# Packed pointer byte: the H code in the low two bits, then the
# "gap was extended" bits of E and F.
_CODE_MASK, _E_EXT, _F_EXT = 3, 4, 8


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
    the actual residues here.  The one-problem call of
    :func:`banded_local_align_many`.
    """
    return banded_local_align_many(
        query, subject, [0], [len(query)], [0], [len(subject)], [diag],
        scheme, band, identity_query)[0]


#: Row-state bound of :func:`banded_local_align_many`: a chunk of
#: problems keeps H, F and the substitution score of every cell it
#: sweeps, plus a validity byte — ``3 * d + 1`` bytes per (row, slot),
#: ``d`` the chunk's DP integer width in bytes — so problems are swept
#: at most ``_SWEEP_BYTES`` of it at a time.  Eight 568-row nt problems
#: at the default band are 1.6 MB in int16.
_SWEEP_BYTES = 1 << 22


def banded_local_align_many(qcat: np.ndarray, scat: np.ndarray,
                            q_off: np.ndarray, q_len: np.ndarray,
                            s_off: np.ndarray, s_len: np.ndarray,
                            diag: np.ndarray, scheme: ScoringScheme,
                            band: int = 24,
                            identity_qcat: Optional[np.ndarray] = None
                            ) -> List[GappedAlignment]:
    """Banded affine local alignments with traceback, many problems in
    one row sweep (module docstring).

    The candidate layout of :func:`bulk_banded_align`: problem ``c``
    aligns ``qcat[q_off[c]:q_off[c]+q_len[c]]`` against
    ``scat[s_off[c]:s_off[c]+s_len[c]]`` around diagonal ``diag[c]``,
    and ``identity_qcat`` holds the residue letters at the offsets of
    *qcat* when it holds PSSM positions.  Entry ``c`` of the result is
    that problem's :class:`GappedAlignment`, whatever else shares the
    sweep.  Problems are swept longest-first, in chunks of at most
    :data:`_SWEEP_BYTES` of row state, each in the integer type
    :func:`_dp_width` picks.
    """
    idcat = qcat if identity_qcat is None else identity_qcat
    q_off, q_len, s_off, s_len, diag = _as_int64(q_off, q_len, s_off,
                                                 s_len, diag)
    w = 2 * band + 1
    W = w + 1
    out = [GappedAlignment(0, 0, 0, 0, 0, 0, 0) for _ in range(len(diag))]
    row_lo = np.maximum(1, 1 - diag - band)
    row_hi = np.minimum(q_len, s_len - diag + band)
    n_rows = np.where((q_len > 0) & (s_len > 0),
                      np.maximum(0, row_hi - row_lo + 1), 0)
    order = np.argsort(-n_rows, kind="stable")
    order = order[n_rows[order] > 0].tolist()
    while order:
        rows = int(n_rows[order[0]])
        dt, neg = _dp_width(rows, scheme, w)
        per_problem = (rows + 1) * W * (3 * dt.itemsize + 1)
        chunk = order[:max(1, _SWEEP_BYTES // per_problem)]
        del order[:len(chunk)]
        _align_chunk(chunk, rows, dt, neg, qcat, scat, idcat, q_off, q_len,
                     s_off, s_len, diag, row_lo, n_rows, scheme, band, out)
    return out


def _align_chunk(chunk: List[int], rows: int, dt: np.dtype, neg: int,
                 qcat: np.ndarray, scat: np.ndarray, idcat: np.ndarray,
                 q_off: np.ndarray, q_len: np.ndarray, s_off: np.ndarray,
                 s_len: np.ndarray, diag: np.ndarray, row_lo: np.ndarray,
                 n_rows: np.ndarray, scheme: ScoringScheme, band: int,
                 out: List[GappedAlignment]) -> None:
    """One chunk of :func:`banded_local_align_many`: sweep *rows* rows
    of every problem in *chunk* at once, then walk each back into
    ``out[c]``.

    Block k of a row is problem ``chunk[k]``; its slot w is the NEG
    sentinel slot w - 1 reads as "slot b+1 of the previous row".  The
    flat moves write into the internal sentinels, so with more than
    one problem every row ends by refilling them.  The E prefix
    maximum runs per block (the ``(problems, w + 1)`` reshape), and a
    block's slot 0 opens its flat E from the previous block at the
    sentinel's magnitude, so no gap crosses a problem boundary.  Every
    problem sweeps *rows* rows; those past its own are swept on
    clipped gathers and never read — its best cell is searched in its
    own rows only.
    """
    w = 2 * band + 1
    W = w + 1
    n_prob = len(chunk)
    n = n_prob * W - 1              # a row's cells but the last sentinel
    go = scheme.gap_open
    ge = scheme.gap_extend
    slot_ge = ge * np.arange(w)
    # A one-slot band (band=0) has no within-row gap: the slot loop is
    # then a no-op, and the closed form needs a second slot.
    vector_scan = go > ge and w > 1

    # Per-row substitution gathers and validity, one block per problem:
    # sweep row t of problem c is DP row row_lo[c] + t.  Rows past the
    # problem's own gather its last query residue and clipped subject
    # columns and are never masked; the sentinel slots stay valid.
    sub = np.zeros((rows, n_prob * W), dtype=dt)
    valid = np.ones((rows, n_prob * W), dtype=bool)
    t_all = np.arange(rows)
    for k, c in enumerate(chunk):
        nr, lo, m, ns = (int(n_rows[c]), int(row_lo[c]), int(q_len[c]),
                         int(s_len[c]))
        cols = t_all[:, None] + (lo + int(diag[c]) - band) + np.arange(w)
        qi = np.minimum(t_all + (lo - 1), m - 1) + int(q_off[c])
        block = slice(k * W, k * W + w)
        valid[:nr, block] = (cols[:nr] >= 1) & (cols[:nr] <= ns)
        sub[:, block] = scheme.matrix[
            qcat[qi][:, None],
            scat[np.clip(cols - 1, 0, ns - 1) + int(s_off[c])].astype(
                np.intp)]
    valid = valid[:, :n]
    masks = {r: ~valid[r]
             for r in np.flatnonzero(~valid.all(axis=1)).tolist()}

    # Row t + 1 of Hs / Fs is sweep row t, row 0 the initial state
    # (H = 0, F = NEG); every block's slot w is the NEG sentinel.
    Hs = np.zeros((rows + 1, n_prob * W), dtype=dt)
    Hs[:, w::W] = neg
    Fs = np.full((rows + 1, n_prob * W), neg, dtype=dt)
    # Constant operands as arrays, tiled per block: a Python-int operand
    # costs a ufunc call about twice an array's.  A block's first slot
    # opens its E from the previous block's sentinel at -neg, so no E
    # it can form beats the H = 0 floor.
    zero = np.zeros(n, dtype=dt)
    go_row = np.full(n, go, dtype=dt)
    ge_row = np.full(n, ge, dtype=dt)
    tilt = np.tile(np.append(slot_ge, 0), n_prob)[:n].astype(dt)
    open_cost = np.tile(np.append(go + slot_ge[:-1], [0, -neg]),
                        n_prob)[:n - 1].astype(dt)
    F_open = np.empty(n, dtype=dt)
    T = np.empty(n_prob * W, dtype=dt)
    P = np.empty(n_prob * W, dtype=dt)
    T_blocks = T.reshape(n_prob, W)
    P_blocks = P.reshape(n_prob, W)
    T_row = T[:n]
    P_head = P[:n - 1]
    E = np.empty(n - 1, dtype=dt)

    # The sweep: scores only, no pointers and no per-row maximum.  Row
    # t reads row t of Hs / Fs and writes row t + 1 (views, one per
    # row; the internal sentinels' views are empty with one problem).
    for r, (H, F, H_tail, up_H, up_F, diag_H, sub_r, H_sent,
            F_sent) in enumerate(zip(
                Hs[1:, :n], Fs[1:, :n], Hs[1:, 1:n], Hs[:-1, 1:n + 1],
                Fs[:-1, 1:n + 1], Hs[:-1, :n], sub[:, :n],
                Hs[1:, w:n:W], Fs[1:, w:n:W])):
        # F: gap in subject, from slot b+1 of the previous row.
        np.subtract(up_H, go_row, out=F_open)
        np.subtract(up_F, ge_row, out=F)
        np.maximum(F, F_open, out=F)
        np.add(diag_H, sub_r, out=H)
        np.maximum(H, zero, out=H)
        np.maximum(H, F, out=H)
        # E: gap in query, within each block (module docstring).
        if vector_scan:
            np.add(H, tilt, out=T_row)
            np.maximum.accumulate(T_blocks, axis=1, out=P_blocks)
            np.subtract(P_head, open_cost, out=E)
            np.maximum(H_tail, E, out=H_tail)
        else:
            h = H.tolist()
            for b0 in range(0, n, W):
                e = neg
                for b in range(b0 + 1, b0 + w):
                    e = max(h[b - 1] - go, e - ge)
                    if e > h[b]:
                        h[b] = e
            H[:] = h
        if r in masks:
            invalid = masks[r]
            H[invalid] = 0
            F[invalid] = neg
        if n_prob > 1:
            H_sent.fill(neg)
            F_sent.fill(neg)

    # Per problem, the first of its own rows holding its best cell, and
    # the first slot holding it there (the per-row kernel kept a cell
    # only on a strict improvement).
    row_best = Hs[1:].reshape(rows, n_prob, W)[:, :, :w].max(axis=2)
    for k, c in enumerate(chunk):
        nr = int(n_rows[c])
        r_best = int(np.argmax(row_best[:nr, k]))
        best = int(row_best[r_best, k])
        if best <= 0:
            continue
        slots = slice(k * W, k * W + w)
        with_sentinel = slice(k * W, k * W + W)
        cells = _derive_pointers(Hs[:r_best + 2, with_sentinel],
                                 Fs[:r_best + 2, with_sentinel],
                                 sub[:r_best + 1, slots],
                                 valid[:r_best + 1, slots],
                                 go, ge, slot_ge, vector_scan)
        lo = int(row_lo[c])
        col0 = int(diag[c]) - band
        q_end = lo + r_best
        b_end = int(np.argmax(Hs[r_best + 1, slots]))
        # Slot-major, so a slot column of the walk is contiguous.
        n_ptr = r_best + 1
        i, j, identities, ops = _walk_back(
            np.ascontiguousarray(cells.T).reshape(-1), np.arange(n_ptr),
            np.full(n_ptr, n_ptr), 0, w, lo, q_end, b_end, col0, idcat,
            int(q_off[c]) - 1, scat, int(s_off[c]) - 1)
        out[c] = GappedAlignment(
            q_start=i, q_end=q_end, s_start=j, s_end=q_end + col0 + b_end,
            score=best, identities=identities, align_len=len(ops), ops=ops)


def _derive_pointers(Hs: np.ndarray, Fs: np.ndarray, sub: np.ndarray,
                     valid: np.ndarray, go: int, ge: int,
                     slot_ge: np.ndarray, vector_scan: bool) -> np.ndarray:
    """Packed pointer bytes (``_CODE_MASK`` / ``_E_EXT`` / ``_F_EXT``)
    of every swept cell, recomputed from the stored H and F rows.

    *Hs* / *Fs* are the sweep's ``(rows + 1, w + 1)`` arrays (row 0 the
    initial state, slot w the NEG column).  The H cell before its E
    update, ``Hf = max(H_prev + sub, 0, F)``, is exact from the stored
    rows on every cell — on an out-of-subject cell the unmasked F was
    at most ``-gap_open``, below ``max(..., 0)`` for the non-negative
    penalties a scheme carries — and the E update took a valid cell iff
    the stored H exceeds it.
    """
    w = Hs.shape[1] - 1
    H_prev = Hs[:-1]
    H = Hs[1:, :w]
    F = Fs[1:, :w]
    diag_score = H_prev[:, :w] + sub
    H0 = np.maximum(diag_score, 0)
    Hf = np.maximum(H0, F)
    # The H code by priority (E over F over the diagonal), as one
    # maximum of the codes' values; out-of-subject cells are _STOP.
    cells = (diag_score >= 0).view(np.uint8)          # _DIAG / _STOP
    np.maximum(cells, (F > H0).view(np.uint8) * np.uint8(_FROM_F), out=cells)
    np.maximum(cells, (H > Hf).view(np.uint8) * np.uint8(_FROM_E), out=cells)
    cells *= valid.view(np.uint8)
    # F was extended iff extending beat opening from slot b+1 above.
    cells |= (Fs[:-1, 1:] - ge > H_prev[:, 1:] - go).view(np.uint8) * \
        np.uint8(_F_EXT)
    if vector_scan:
        # E at b was extended iff the best opening point of the prefix
        # maximum lies before b-1 (never at b = 1).
        T = Hf + slot_ge
        P = np.maximum.accumulate(T, axis=1)
        cells[:, 2:] |= (T[:, 1:-1] < P[:, :-2]).view(np.uint8) * \
            np.uint8(_E_EXT)
    else:
        # The slot loop's recurrence, one column of every row at a time.
        E = np.full(len(Hf), NEG, dtype=np.int64)
        h = Hf[:, 0]
        for b in range(1, w):
            e_open = h - go
            e_ext = E - ge
            cells[:, b] |= (e_ext > e_open).view(np.uint8) * np.uint8(_E_EXT)
            E = np.maximum(e_open, e_ext)
            h = np.maximum(Hf[:, b], E)
    return cells


def _walk_back(cells: np.ndarray, row_base: np.ndarray,
               row_stride: np.ndarray, cand: int, w: int,
               row_lo: int, i: int, b: int, col0: int,
               qseq: np.ndarray, q_base: int, sseq: np.ndarray, s_base: int
               ) -> Tuple[int, int, int, str]:
    """The affine traceback from cell ``(i, b)`` over packed pointer
    bytes: slot b of the problem's row ``r`` is byte ``row_base[r] +
    row_stride[r] * b + cand``, and slot b of row i is subject column
    ``i + col0 + b``.  Returns the start ``(i, j)``, the identities
    among the aligned pairs (query row i is ``qseq[q_base + i]``,
    subject column j ``sseq[s_base + j]``) and the ops string.

    A diagonal move keeps the slot, so a run of them is consumed in one
    step: it ends under the last non-DIAG code of the slot's column
    above it, read in one gather, whose code the walk takes next; the
    run's identities are counted on its query and subject slices.  Gap
    moves are taken one cell at a time.

    Pointer rows exist only for ``[row_lo, ...]``; rows below row_lo
    are all-_STOP in the unclipped DP (fully invalid), so stepping
    under row_lo ends the walk exactly where reading their codes would
    have.  (The walk cannot *consume* ops below row_lo: F is never
    selected there — its values derive from H = 0 minus at least a
    gap-open — and E stays within its row.)
    """
    j = i + col0 + b
    identities = 0
    ops_rev: List[str] = []
    state = "H"
    while i >= row_lo and 0 <= b < w:
        r = i - row_lo
        cell = int(cells[row_base[r] + row_stride[r] * b + cand])
        if state == "H":
            code = cell & _CODE_MASK
            if code == _DIAG:
                # The run, same slot, down to the first non-DIAG code
                # above it, whose move the walk takes next.
                column = cells[row_base[:r] + row_stride[:r] * b + cand] \
                    & _CODE_MASK
                stops = np.flatnonzero(column != _DIAG)
                stop = int(stops[-1]) if len(stops) else -1
                run = r - stop
                identities += int(np.count_nonzero(
                    qseq[q_base + i - run + 1:q_base + i + 1]
                    == sseq[s_base + j - run + 1:s_base + j + 1]))
                ops_rev.append("M" * run)
                i -= run
                j -= run
                if stop < 0:
                    break
                code = int(column[stop])
            if code == _STOP:
                break
            state = "F" if code == _FROM_F else "E"
        elif state == "F":
            # consume one query residue (gap in subject)
            ops_rev.append("D")
            i -= 1
            b += 1
            state = "F" if cell & _F_EXT else "H"
        else:  # state == "E": consume one subject residue (gap in query)
            ops_rev.append("I")
            j -= 1
            b -= 1
            state = "E" if cell & _E_EXT else "H"
    return i, j, identities, "".join(reversed(ops_rev))


#: Candidate-chunk bound of the bulk score pass.  A chunk's scratch is
#: ``13 * d + 8`` bytes per (candidate, band slot) for the row blocks,
#: ``d`` the chunk's DP integer width in bytes (2 for the benchmark's
#: protein problems) and 8 the gather index, plus about 32 bytes per
#: candidate and strip row while ``_STRIP_ROWS + 2 * band`` strip rows
#: are built — at the default band in int16, 6.8 MB and 15 MB.
_BULK_CANDIDATES = 4096

#: Candidate-chunk bound of the bulk traceback pass, which also keeps
#: one packed pointer byte per DP cell until the chunk is walked back:
#: at most ``_BULK_ALIGN_CANDIDATES * rows * (2 * band + 1)`` bytes —
#: 2.2 MB for 350-row protein problems at the default band.
_BULK_ALIGN_CANDIDATES = 128

#: DP rows whose subject strip, validity strip and query-row codes are
#: built at once: the strips hold ``_STRIP_ROWS + 2 * band`` rows, so
#: their size does not grow with the query.
_STRIP_ROWS = 64


def _dp_width(n_rows: int, scheme: ScoringScheme,
              w: int) -> Tuple[np.dtype, int]:
    """The integer type of a chunk's DP and its sentinel, from a static
    bound on what the sweep can form.

    No H, E, F or prefix value of an ``n_rows``-row, ``w``-slot sweep
    exceeds ``n_rows * max(smax, 0) + gap_extend * w`` (one substitution
    per row, a slot offset of ``gap_extend`` per slot), and none falls
    under ``-gap_open - max(-smin, 0)``.  The sentinel sits at
    ``-bound``, ``bound`` the two magnitudes summed plus one, and the
    sweep subtracts at most ``gap_extend`` from it; so a type whose
    maximum holds ``2 * bound`` holds every value.  The narrowest such
    of int16 / int32 / int64: a property of the inputs, not a setting.
    """
    matrix = scheme.matrix
    bound = (n_rows * max(int(matrix.max()), 0) + scheme.gap_open
             + scheme.gap_extend * w + max(-int(matrix.min()), 0) + 1)
    for dtype in (np.int16, np.int32):
        if 2 * bound <= np.iinfo(dtype).max:
            return np.dtype(dtype), -bound
    return np.dtype(np.int64), -bound


class _SweepChunk(NamedTuple):
    """What :func:`_bulk_sweep` yields for one chunk of candidates;
    per-candidate arrays are in the chunk's longest-first order."""

    idx: np.ndarray        # candidate numbers of the chunk
    row_lo: np.ndarray     # first DP row (1-based query index)
    best: np.ndarray       # best score (0 when nothing scores)
    best_i: np.ndarray     # its query row ...
    best_j: np.ndarray     # ... and subject column, both 1-based
    #: Packed pointer bytes (``None`` unless requested), band-major:
    #: slot ``b`` of row ``r`` of the chunk's ``k``-th candidate is byte
    #: ``row_base[r] + b * active[r] + k``.
    ptr: Optional[np.ndarray]
    row_base: Optional[np.ndarray]
    active: np.ndarray     # candidates with a row r, per row r


def _bulk_sweep(qcat: np.ndarray, scat: np.ndarray,
                q_off: np.ndarray, q_len: np.ndarray,
                s_off: np.ndarray, s_len: np.ndarray,
                diag: np.ndarray, scheme: ScoringScheme, band: int,
                chunk: int, keep_pointers: bool) -> Iterator[_SweepChunk]:
    """The band-major row sweep behind both bulk kernels.

    Candidates are processed longest-first in chunks of *chunk* so the
    per-row working set is always a prefix that shrinks as shorter
    candidates finish, and each candidate only sweeps the rows whose
    band overlaps its subject (the same clipping as the scalar
    routine).  A DP row of ``a`` active candidates is one contiguous
    ``(w, a)`` block — slot-major, candidate-minor — so the band shifts
    of the recurrences are row offsets and every ufunc runs long inner
    loops; the chunk's integer type comes from :func:`_dp_width`.
    Chunks in which no candidate has a row are not yielded.  With
    *keep_pointers* every row also records, in the same layout, the
    packed pointer byte the scalar routine derives for each cell after
    its sweep.
    """
    w = 2 * band + 1
    go = scheme.gap_open
    ge = scheme.gap_extend
    n_cols = scheme.matrix.shape[1]
    # A one-slot band has no within-row gap (the slot loop is a no-op).
    vector_scan = go > ge and w > 1
    # Doubling distances of the log-step prefix maximum: after them
    # every slot has seen every slot to its left (w - 1 at most).
    steps = [1 << s for s in range((w - 1).bit_length())]
    slot = np.arange(w, dtype=np.int64)[:, None]

    row_lo = np.maximum(1, 1 - diag - band)
    row_hi = np.minimum(q_len, s_len - diag + band)
    n_rows = np.maximum(0, row_hi - row_lo + 1)
    order = np.argsort(-n_rows, kind="stable")
    q_last = len(qcat) - 1

    def block(buf, a, rows=w):
        """The first ``rows * a`` items of a flat buffer as one
        contiguous ``(rows, a)`` block."""
        return buf[:rows * a].reshape(rows, a)

    for lo in range(0, len(diag), chunk):
        idx = order[lo:lo + chunk]
        nr = n_rows[idx]
        max_rows = int(nr[0])
        if max_rows == 0:
            break
        dt, neg = _dp_width(max_rows, scheme, w)
        mat = scheme.matrix.astype(dt).ravel()
        tilt = (ge * slot).astype(dt)
        open_cost = (go + ge * slot[:-1]).astype(dt)
        rl = row_lo[idx]
        qrow0 = q_off[idx] + rl - 1         # qcat index of row 0
        so = s_off[idx]
        sl = s_len[idx]
        jbase0 = rl + diag[idx] - band      # subject col at (r=0, b=0)
        c_all = len(idx)
        cells = w * c_all
        # Row state, double-buffered; the previous row's block is read
        # through a [:, :a] view (strided only when candidates finished).
        H_bufs = (np.empty(cells, dt), np.empty(cells, dt))
        F_bufs = (np.empty(cells, dt), np.empty(cells, dt))
        Fp = np.full((w, c_all), neg, dt)
        ix_buf = np.empty(cells, np.intp)
        sub_buf = np.empty(cells, dt)
        Fe_buf = np.empty(cells, dt)
        T_buf = np.empty(cells, dt)
        P_bufs = (np.empty(cells, dt), np.empty(cells, dt))
        # Constant operands as arrays: a Python-int operand costs a ufunc
        # call several times an array's.
        zero_buf = np.zeros(cells, dt)
        go_buf = np.full(cells, go, dt)
        ge_buf = np.full(cells, ge, dt)
        Hp = block(zero_buf, c_all)         # the initial state, read-only
        best = np.zeros(c_all, dt)
        best_i = np.zeros(c_all, dtype=np.int64)
        best_j = np.zeros(c_all, dtype=np.int64)
        # Active prefix of row r: the candidates with more than r rows.
        active = np.searchsorted(-nr, -np.arange(max_rows), side="left")
        ptr = row_base = None
        if keep_pointers:
            row_base = np.zeros(max_rows + 1, dtype=np.int64)
            np.cumsum(active * w, out=row_base[1:])
            ptr = np.empty(int(row_base[-1]), dtype=np.uint8)
            bits_buf = np.empty(cells, np.uint8)
            flag_buf = np.empty(cells, np.bool_)
            tmp_buf = np.empty(cells, np.uint8)
        a_prev = -1
        for r, a in enumerate(active.tolist()):
            t = r % _STRIP_ROWS
            if t == 0:
                # Strips for rows [r, r + _STRIP_ROWS): subject codes
                # (clipped into the subject, as the scalar routine
                # gathers them) and validity by strip row r + b,
                # query-row offsets into the flat matrix by row.
                n_strip = min(_STRIP_ROWS, max_rows - r)
                pos = (jbase0[:a] + (r - 1)) + \
                    np.arange(n_strip + w - 1)[:, None]
                valid = (pos >= 0) & (pos < sl[:a])
                np.maximum(pos, 0, out=pos)
                np.minimum(pos, sl[:a] - 1, out=pos)
                pos += so[:a]
                S = np.take(scat, pos).astype(np.intp)
                V = valid.astype(dt)
                Qk = qcat[np.minimum(qrow0[:a] + r + np.arange(n_strip)[
                    :, None], q_last)].astype(np.intp) * n_cols
                # The row gathers clip, so check the codes here.
                if S.max() >= n_cols or Qk.max() >= mat.size:
                    raise IndexError("residue code outside the scoring "
                                     "matrix")
                if keep_pointers:
                    Vu8 = valid.view(np.uint8)
            if a != a_prev:                     # candidates finished
                a_prev = a
                zero = block(zero_buf, a)
                go_blk = block(go_buf, a, w - 1)
                ge_blk = block(ge_buf, a, w - 1)
                Hp = Hp[:, :a]
                Fp = Fp[:, :a]
            H = block(H_bufs[r & 1], a)
            F = block(F_bufs[r & 1], a)
            sub = block(sub_buf, a)
            ix = block(ix_buf, a)
            np.add(S[t:t + w, :a], Qk[t, :a], out=ix)
            np.take(mat, ix, out=sub, mode="clip")
            np.add(Hp, sub, out=H)              # the diagonal move
            if keep_pointers:
                # The H code by priority (E over F over the diagonal,
                # each only on a strict improvement), as one maximum of
                # the codes' values: DIAG, or STOP below zero, first.
                codes = ptr[row_base[r]:row_base[r + 1]].reshape(w, a)
                bits = block(bits_buf, a)
                flag = block(flag_buf, a)
                tmp = block(tmp_buf, a)
                np.greater_equal(H, zero, out=codes.view(np.bool_))
            np.maximum(H, zero, out=H)
            # F: gap in subject, from slot b+1 of the previous row (the
            # last slot has none: the sentinel).
            F_open = F[:-1]
            F_ext = block(Fe_buf, a, w - 1)
            np.subtract(Hp[1:], go_blk, out=F_open)
            np.subtract(Fp[1:], ge_blk, out=F_ext)
            if keep_pointers:
                # F was extended iff extending beat opening.
                np.greater(F_ext, F_open, out=flag[:-1])
                flag[-1] = go > ge      # NEG - ge vs NEG - go
                np.multiply(flag.view(np.uint8), _F_EXT, out=bits)
            np.maximum(F_open, F_ext, out=F_open)
            F[-1] = neg
            if keep_pointers:
                np.greater(F, H, out=flag)
                np.multiply(flag.view(np.uint8), _FROM_F, out=tmp)
                np.maximum(codes, tmp, out=codes)
            np.maximum(H, F, out=H)
            # E: gap in query, within the row (module docstring): the
            # prefix maximum of T in log-step doubling passes, each
            # reading one buffer and writing the other.
            if vector_scan:
                T = block(T_buf, a)
                np.add(H, tilt, out=T)
                P = T
                for n, k in enumerate(steps):
                    nxt = block(P_bufs[n & 1], a)
                    np.maximum(P[k:], P[:-k], out=nxt[k:])
                    nxt[:k] = P[:k]
                    P = nxt
                E = block(sub_buf, a, w - 1)     # sub is spent
                np.subtract(P[:-1], open_cost, out=E)
                if keep_pointers:
                    # E at b was extended iff the best opening point of
                    # the prefix maximum lies before b-1 (never at 1).
                    np.less(T[1:-1], P[:-2], out=flag[2:])
                    np.multiply(flag[2:].view(np.uint8), _E_EXT, out=tmp[2:])
                    np.bitwise_or(bits[2:], tmp[2:], out=bits[2:])
                    np.greater(E, H[1:], out=flag[1:])
                    np.multiply(flag[1:].view(np.uint8), _FROM_E,
                                out=tmp[1:])
                    np.maximum(codes[1:], tmp[1:], out=codes[1:])
                np.maximum(H[1:], E, out=H[1:])
            else:
                E = np.full(a, neg, dt)
                for b in range(1, w):
                    e_open = H[b - 1] - go
                    e_ext = E - ge
                    np.maximum(e_open, e_ext, out=E)
                    if keep_pointers:
                        codes[b][E > H[b]] = _FROM_E
                        bits[b] |= (e_ext > e_open).view(np.uint8) * \
                            np.uint8(_E_EXT)
                    np.maximum(H[b], E, out=H[b])
            # Mask H after the E scan, like the scalar routine.  F is
            # left as computed: an out-of-subject column's F feeds only
            # that column, where it stays at most -gap_open and never
            # beats H; the gap bits are left as the scalar's are.
            np.multiply(H, V[t:t + w, :a], out=H)
            if keep_pointers:
                np.multiply(codes, Vu8[t:t + w, :a], out=codes)
                np.bitwise_or(codes, bits, out=codes)
            row_best = H.max(axis=0)
            upd = np.flatnonzero(row_best > best[:a])
            if len(upd):
                best[upd] = row_best[upd]
                best_i[upd] = rl[upd] + r
                best_j[upd] = jbase0[upd] + r + H[:, upd].argmax(axis=0)
            Hp, Fp = H, F
        yield _SweepChunk(idx, rl, best, best_i, best_j, ptr, row_base,
                          active)


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
    kept, one row at a time, and the recurrences are evaluated in
    the same order, in an integer type that holds every value they can
    form (:func:`_dp_width`), so per candidate the returned ``(score,
    q_end, s_end)`` equals the scalar alignment's ``(score, q_end,
    s_end)`` exactly (``0, 0, 0`` when no cell scores positive).

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
        per_cand = zip(*(a.tolist() for a in (ch.idx, ch.row_lo, ch.best,
                                              ch.best_i, ch.best_j)))
        for k, (c, row_lo, score, q_end, s_end) in enumerate(per_cand):
            if score <= 0:
                continue
            col0 = int(diag[c]) - band
            i, j, identities, ops = _walk_back(
                ch.ptr, ch.row_base, ch.active, k, w, row_lo, q_end,
                s_end - q_end - col0, col0, idcat, int(q_off[c]) - 1, scat,
                int(s_off[c]) - 1)
            out[c] = GappedAlignment(
                q_start=i, q_end=q_end, s_start=j, s_end=s_end, score=score,
                identities=identities, align_len=len(ops), ops=ops)
    return out
