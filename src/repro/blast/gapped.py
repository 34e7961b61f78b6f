"""Banded gapped alignment.

Promising ungapped HSPs are refined with a banded affine-gap local
alignment (Smith–Waterman restricted to a diagonal band around the
HSP's diagonal — the moral equivalent of Gapped BLAST's X-dropoff
gapped extension).  The DP is vectorised across the band and across
problems for each query row; exact affine traceback recovers
endpoints, alignment length, and identity count.

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
``gap_open > gap_extend`` (every standard scheme) and a slot loop
handles the rest.

One row sweep, :func:`_sweep`, runs every DP.  A DP row of a chunk of
``a`` problems is one ``(w + 1, a)`` block — slot-major,
problem-minor, ``w = 2 * band + 1`` — whose last slot row is a NEG
sentinel, so the band shifts (slot b+1 above, slot b-1 to the left)
are row offsets of the block, no gap can cross from one problem into
another, and nothing is refilled.  A row is about ten ufunc calls over
the whole block (F three, H three, E four).  E's prefix maximum
(:func:`_prefix_max`) is one ``np.maximum.accumulate`` along the slots
while the block is narrow (``a * w <= _NARROW_CELLS``) and log-step
doubling passes when it is wide.  Problems are swept longest-first, so
a row's block holds the prefix of them that still has the row.  Rows
whose entire band falls outside the subject (a prefix and/or suffix of
the row range) are never computed: an all-invalid row resets the DP
state to exactly the initial one (H = 0, F = -inf).  Each chunk runs in
the narrowest integer type its static bound fits (:func:`_dp_width`).

The sweep has two modes:

* **score** — :func:`bulk_banded_score`: the rows live in a two-row
  ring, the active prefix shrinks row by row, and per problem the best
  cell is kept as the rows go: the ``(score, q_end, s_end)`` the search
  driver needs to decide which problems deserve a traceback.
* **align** — :func:`banded_local_align_many` (and
  :func:`banded_local_align`, its one-problem call): rows are swept in
  strips, the active prefix shrinking strip by strip, and nothing but
  the scores is written while a strip is swept.  After each strip, its
  stored H and F rows give the packed pointer bytes of all its cells in
  a handful of 3-D passes (:func:`_derive_pointers`) and, per row, each
  problem's best score and the first slot holding it; only the strip's
  last row is kept, above the next strip.  After the chunk, each
  problem's first row holding its best cell is found and the problem is
  walked back (:func:`_walk_back`).  The pointer bytes of a chunk take
  half of ``_SWEEP_BYTES``, the strip being swept and derived the other
  half.

Which problems reach which mode is the driver's business
(``repro.blast.search._finalize_candidates``): a batch whose problems
fit one align chunk is aligned directly; a larger one is scored, and
only the problems whose alignment can still matter are aligned.  Both
modes are exact, and the per-row kernel that wrote three pointer
matrices row by row is the test oracle (``tests/oracle_gapped.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple, Union

import numpy as np

from repro.blast.scankernel import TwoBitResidues
from repro.blast.score import ScoringScheme

NEG = -(10 ** 9)

# Traceback codes for the H matrix.
_STOP, _DIAG, _FROM_F, _FROM_E = 0, 1, 2, 3

# Packed pointer byte: the H code in the low two bits, then the
# "gap was extended" bits of E and F.
_CODE_MASK, _E_EXT, _F_EXT = 3, 4, 8

#: Byte bound of one align-mode chunk: half for what its problems keep
#: until they are walked back (:func:`_align_chunks`), half for the
#: strip being swept and derived (:func:`_align_strip_rows`).  At the
#: default band one chunk holds 62 568-row nt problems (a pool task
#: plans at most 8) or 101 of the benchmark's 350-row protein problems
#: (a query plans 755-863 and keeps 67-113 survivors).
_SWEEP_BYTES = 1 << 22

#: Problem-chunk bound of the score mode.  A chunk's scratch is about
#: ``13 * d + 8`` bytes per (problem, band slot) for the row blocks and
#: 8 the gather index, plus about 32 bytes per problem and strip row
#: while ``_STRIP_ROWS + 2 * band`` strip rows are built — at the
#: default band in int16, 6.8 MB and 15 MB.
_BULK_CANDIDATES = 4096

#: DP rows whose subject strip, validity strip and query-row codes are
#: built at once: the strips hold ``_STRIP_ROWS + 2 * band`` rows, so
#: their size does not grow with the query.
_STRIP_ROWS = 64

#: Largest row block (problems x band slots) whose E prefix maximum is
#: one ``accumulate`` along the slots; wider blocks take the log-step
#: passes.
_NARROW_CELLS = 3072


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


def banded_local_align_many(qcat: np.ndarray,
                            scat: Union[np.ndarray, TwoBitResidues],
                            q_off: np.ndarray, q_len: np.ndarray,
                            s_off: np.ndarray, s_len: np.ndarray,
                            diag: np.ndarray, scheme: ScoringScheme,
                            band: int = 24,
                            identity_qcat: Optional[np.ndarray] = None
                            ) -> List[GappedAlignment]:
    """Banded affine alignments with traceback, many problems in one
    row sweep: the align mode (module docstring).

    Problem ``c`` aligns ``qcat[q_off[c]:q_off[c]+q_len[c]]`` against
    ``scat[s_off[c]:s_off[c]+s_len[c]]`` around diagonal ``diag[c]``,
    and ``identity_qcat`` holds the residue letters at the offsets of
    *qcat* when it holds PSSM positions.  Entry ``c`` of the result is
    that problem's :class:`GappedAlignment`, whatever else shares the
    sweep.  Problems are swept longest-first, in chunks of at most
    :data:`_SWEEP_BYTES`, each in the integer type :func:`_dp_width`
    picks; a chunk's arrays are released before the next is swept.
    """
    idcat = qcat if identity_qcat is None else identity_qcat
    q_off, q_len, s_off, s_len, diag = _as_int64(q_off, q_len, s_off,
                                                 s_len, diag)
    w = 2 * band + 1
    out = [GappedAlignment(0, 0, 0, 0, 0, 0, 0) for _ in range(len(diag))]
    row_lo, n_rows = _dp_rows(q_len, s_len, diag, band)
    for idx in _align_chunks(n_rows, scheme, w):
        ch = _chunk(idx, q_off, s_off, s_len, diag, row_lo, n_rows,
                    scheme, band)
        cells, row_base, row_stride, row_max, row_arg = _sweep(
            ch, qcat, scat, scheme, band, True)
        # Per problem, the first of its own rows holding its best cell,
        # and the first slot holding it there (the per-row kernel kept
        # a cell only on a strict improvement).
        rows, c = row_max.shape
        row_max[np.arange(rows)[:, None] >= ch.n_rows] = 0
        r_best = row_max.argmax(axis=0)
        best = row_max[r_best, np.arange(c)]
        b_end = row_arg[r_best, np.arange(c)].tolist()
        for k in np.flatnonzero(best > 0).tolist():
            cand = int(idx[k])
            lo = int(ch.rl[k])
            col0 = int(diag[cand]) - band
            q_end = lo + int(r_best[k])
            b = b_end[k]
            i, j, identities, ops = _walk_back(
                cells, row_base, row_stride, k, w, lo, q_end, b, col0, idcat,
                int(q_off[cand]) - 1, scat, int(s_off[cand]) - 1)
            out[cand] = GappedAlignment(
                q_start=i, q_end=q_end, s_start=j, s_end=q_end + col0 + b,
                score=int(best[k]), identities=identities,
                align_len=len(ops), ops=ops)
        del cells, row_max, row_arg
    return out


def _derive_pointers(Hs: np.ndarray, Fs: np.ndarray, sub: np.ndarray,
                     valid: np.ndarray, go: int, ge: int,
                     slot_ge: np.ndarray, vector_scan: bool) -> np.ndarray:
    """Packed pointer bytes (``_CODE_MASK`` / ``_E_EXT`` / ``_F_EXT``)
    of ``n`` swept rows of a chunk, recomputed from its stored H and F
    rows.

    *Hs* / *Fs* are ``(n + 1, w + 1, a)``: the row above the first, then
    the ``n`` rows, each with the NEG sentinel as slot w; *sub* and
    *valid* are the rows' ``(n, w, a)`` substitution scores and
    validity, *slot_ge* is ``gap_extend * b`` as a ``(w, 1)`` column of
    the DP integer type.
    The H cell before its E update, ``Hf = max(H_prev + sub, 0, F)``, is
    exact from the stored rows on every cell — on an out-of-subject
    cell F was at most ``-gap_open``, below ``max(..., 0)`` for the
    non-negative penalties a scheme carries — and the E update took a
    valid cell iff the stored H exceeds it.
    """
    w = Hs.shape[1] - 1
    H_prev = Hs[:-1]
    H = Hs[1:, :w]
    F = Fs[1:, :w]
    # One DP-typed buffer holds the diagonal score, then H0 =
    # max(diagonal, 0), then Hf, then T.
    diag_score = H_prev[:, :w] + sub
    # The H code by priority (E over F over the diagonal), as one
    # maximum of the codes' values; out-of-subject cells are _STOP.
    cells = (diag_score >= 0).view(np.uint8)          # _DIAG / _STOP
    H0 = np.maximum(diag_score, 0, out=diag_score)
    np.maximum(cells, (F > H0).view(np.uint8) * np.uint8(_FROM_F), out=cells)
    Hf = np.maximum(H0, F, out=H0)
    np.maximum(cells, (H > Hf).view(np.uint8) * np.uint8(_FROM_E), out=cells)
    cells *= valid.view(np.uint8)
    # F was extended iff extending beat opening from slot b+1 above.
    cells |= (Fs[:-1, 1:] > H_prev[:, 1:] - (go - ge)).view(np.uint8) * \
        np.uint8(_F_EXT)
    if vector_scan:
        # E at b was extended iff the best opening point of the prefix
        # maximum lies before b-1 (never at b = 1).
        T = np.add(Hf, slot_ge, out=Hf)
        # Slots first.  Each pass covers all the strip's rows, so the
        # log-step passes' per-call cost is spread over them and the one
        # accumulate (a strided pass per row and problem) wins only for
        # a few problems: below about 5 at the default band.
        P = np.empty_like(T)
        _prefix_max(T.transpose(1, 0, 2), P.transpose(1, 0, 2),
                    np.empty_like(T).transpose(1, 0, 2),
                    T.shape[2] * w <= _NARROW_CELLS // 12)
        cells[:, 2:] |= (T[:, 1:-1] < P[:, :-2]).view(np.uint8) * \
            np.uint8(_E_EXT)
    else:
        # The slot loop's recurrence, one slot of every row at a time.
        E = np.full(Hf[:, 0].shape, NEG, dtype=np.int64)
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
               qseq: np.ndarray, q_base: int,
               sseq: Union[np.ndarray, TwoBitResidues], s_base: int
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


def _dp_width(n_rows: int, scheme: ScoringScheme,
              w: int) -> Tuple[np.dtype, int]:
    """The integer type of a chunk's DP and its sentinel, from a static
    bound on what the sweep can form.

    No H, E, F or prefix value of an ``n_rows``-row, ``w``-slot sweep
    exceeds ``n_rows * max(smax, 0) + gap_extend * w`` (one substitution
    per row, a slot offset of ``gap_extend`` per slot), and none falls
    under ``-gap_open - max(-smin, 0)``.  The sentinel sits at
    ``-bound``, ``bound`` the two magnitudes summed plus one, and the
    sweep subtracts at most ``gap_open`` from it; so a type whose
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


def _dp_rows(q_len: np.ndarray, s_len: np.ndarray, diag: np.ndarray,
             band: int) -> Tuple[np.ndarray, np.ndarray]:
    """Per problem, the first DP row whose band overlaps the subject
    (1-based query index) and the number of such rows (0 for an empty
    query or subject)."""
    row_lo = np.maximum(1, 1 - diag - band)
    row_hi = np.minimum(q_len, s_len - diag + band)
    n_rows = np.where((q_len > 0) & (s_len > 0),
                      np.maximum(0, row_hi - row_lo + 1), 0)
    return row_lo, n_rows


def _align_chunks(n_rows: np.ndarray, scheme: ScoringScheme,
                  w: int) -> List[np.ndarray]:
    """The align mode's chunks: problems with rows, longest-first, as
    many a chunk as half of :data:`_SWEEP_BYTES` holds (at least one).

    A problem keeps, until it is walked back, one pointer byte per
    (row, slot) and per row its best score and slot (``d + 8`` bytes,
    ``d`` the DP integer width); the strip being swept and derived
    takes the other half (:func:`_align_strip_rows`).
    """
    order = np.argsort(-n_rows, kind="stable")
    order = order[n_rows[order] > 0]
    chunks = []
    lo = 0
    while lo < len(order):
        rows = int(n_rows[order[lo]])
        d = _dp_width(rows, scheme, w)[0].itemsize
        take = max(1, (_SWEEP_BYTES // 2) // (rows * (w + d + 8)))
        chunks.append(order[lo:lo + take])
        lo += take
    return chunks


def _align_strip_rows(w: int, a: int, d: int) -> int:
    """Rows per strip of an align-mode chunk of *a* problems: a strip
    holds its H and F rows and substitution scores, and either its
    gather indices or the pointer derivation's temporaries — at most
    ``6 * d + 8`` bytes per (row, slot, problem) — in half of
    :data:`_SWEEP_BYTES`."""
    return max(1, (_SWEEP_BYTES // 2) // (w * a * (6 * d + 8)))


def fits_one_align_chunk(q_len: np.ndarray, s_len: np.ndarray,
                         diag: np.ndarray, scheme: ScoringScheme,
                         band: int = 24) -> bool:
    """Whether :func:`banded_local_align_many` sweeps these problems as
    one chunk — the search driver's route rule: such a batch is
    aligned directly, a larger one scored first."""
    _row_lo, n_rows = _dp_rows(*_as_int64(q_len, s_len, diag), band)
    return len(_align_chunks(n_rows, scheme, 2 * band + 1)) <= 1


class _Chunk(NamedTuple):
    """One chunk of problems, longest-first, and what the sweep needs
    of it; the per-problem arrays are in the chunk's order."""

    n_rows: np.ndarray     # DP rows swept
    rl: np.ndarray         # first DP row (1-based query index)
    qrow0: np.ndarray      # qcat index of row 0's query residue
    so: np.ndarray         # subject offset in scat
    sl: np.ndarray         # subject length
    jbase0: np.ndarray     # subject column of (row 0, slot 0), 1-based
    dt: np.dtype           # the chunk's DP integer type ...
    neg: int               # ... and its sentinel
    mat: np.ndarray        # the flat scoring matrix in that type
    n_cols: int            # the matrix's columns (subject codes)


def _chunk(idx: np.ndarray, q_off: np.ndarray, s_off: np.ndarray,
           s_len: np.ndarray, diag: np.ndarray, row_lo: np.ndarray,
           n_rows: np.ndarray, scheme: ScoringScheme, band: int) -> _Chunk:
    """The chunk of problems *idx* (longest-first), in the integer type
    its longest problem's rows need."""
    rl = row_lo[idx]
    nr = n_rows[idx]
    dt, neg = _dp_width(int(nr[0]), scheme, 2 * band + 1)
    return _Chunk(nr, rl, q_off[idx] + rl - 1, s_off[idx], s_len[idx],
                  rl + diag[idx] - band, dt, neg,
                  scheme.matrix.astype(dt).ravel(), scheme.matrix.shape[1])


def _strip(ch: _Chunk, qcat: np.ndarray,
           scat: Union[np.ndarray, TwoBitResidues], w: int, r: int, n: int,
           a: int
           ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Codes of rows ``[r, r + n)`` of the chunk's first *a* problems:
    subject codes (clipped into the subject) and validity by strip row
    ``t + b`` (``(n + w - 1, a)``), and each row's query-residue offset
    into the flat matrix (``(n, a)``).  A row past a problem's own
    gathers the last residue of *qcat*; its cells are never read."""
    # Each index array is overwritten by what it gathers.
    S = (ch.jbase0[:a] + (r - 1)) + np.arange(n + w - 1, dtype=np.intp)[
        :, None]
    valid = (S >= 0) & (S < ch.sl[:a])
    np.maximum(S, 0, out=S)
    np.minimum(S, ch.sl[:a] - 1, out=S)
    S += ch.so[:a]
    S[...] = scat.take(S)
    Qk = ch.qrow0[:a] + r + np.arange(n, dtype=np.intp)[:, None]
    np.minimum(Qk, len(qcat) - 1, out=Qk)
    Qk[...] = qcat.take(Qk)
    Qk *= ch.n_cols
    # The gathers clip, so check the codes here.
    if S.max() >= ch.n_cols or Qk.max() >= ch.mat.size:
        raise IndexError("residue code outside the scoring matrix")
    return S, valid, Qk


def _prefix_max(T: np.ndarray, P: np.ndarray, tmp: np.ndarray,
                narrow: bool) -> None:
    """The running maximum of *T* along its first axis, the band slots,
    into *P*: one ``accumulate`` when *narrow*, else log-step doubling
    passes (``P[b] = max(P[b], P[b-k])`` for k = 1, 2, 4, ... while
    ``k < w``), each one elementwise maximum reading one buffer and
    writing the other (*P* or *tmp*, starting where the last pass lands
    in *P*) — exact, because max is associative and idempotent."""
    if narrow:
        np.maximum.accumulate(T, axis=0, out=P)
        return
    w = len(T)
    src, dst = T, (P if (w - 1).bit_length() % 2 else tmp)
    k = 1
    while k < w:
        np.maximum(src[k:], src[:-k], out=dst[k:])
        dst[:k] = src[:k]
        src, dst = dst, (tmp if dst is P else P)
        k *= 2


def _sweep(ch: _Chunk, qcat: np.ndarray,
           scat: Union[np.ndarray, TwoBitResidues], scheme: ScoringScheme,
           band: int, align: bool) -> tuple:
    """The one DP row sweep, over one chunk (module docstring).

    Rows are taken in strips (:func:`_strip`).  A strip's blocks hold
    the problems that still have its first row — the active prefix, the
    chunk being longest-first; a problem whose rows end inside the strip
    runs to its end on clipped gathers, and those cells are never read.
    Score mode keeps the rows in a two-row ring and returns per problem
    the best score (0 when nothing scores) and its 1-based query row and
    subject column.  Align mode stores the strip's rows and after each
    strip derives their packed pointer bytes (:func:`_derive_pointers`)
    and per row each problem's best score and the first slot holding
    it; it returns the pointer bytes (slot b of row r of the chunk's
    k-th problem is byte ``row_base[r] + row_stride[r] * b + k``),
    ``row_base``, ``row_stride`` and the ``(rows, a)`` best scores and
    slots.
    """
    w = 2 * band + 1
    go, ge = scheme.gap_open, scheme.gap_extend
    # A one-slot band has no within-row gap (the slot loop is a no-op).
    vector_scan = go > ge and w > 1
    dt, neg, mat = ch.dt, ch.neg, ch.mat
    c = len(ch.rl)
    rows = int(ch.n_rows[0])
    active = np.searchsorted(-ch.n_rows, -np.arange(rows),
                             side="left").tolist()
    slot_ge = (ge * np.arange(w)).astype(dt)
    # Scratch and constant operands as arrays (a Python-int operand
    # costs a ufunc call several times an array's), cut to a strip's
    # block width.
    bufs = [np.empty(w * c, dt) for _ in range(5)]
    consts = [np.zeros(w * c, dt), np.full(w * c, go, dt),
              np.full(w * c, ge, dt)]
    if align:
        strip = min(rows, _align_strip_rows(w, c, dt.itemsize))
        ptr = np.empty(sum(min(strip, rows - r0) * w * active[r0]
                           for r0 in range(0, rows, strip)), dtype=np.uint8)
        row_base = np.empty(rows, dtype=np.int64)
        row_stride = np.empty(rows, dtype=np.int64)
        row_max = np.zeros((rows, c), dt)
        row_arg = np.zeros((rows, c), dtype=np.intp)
        strip_tb = np.arange(strip)[:, None] + np.arange(w)
        depth = strip + 1
    else:
        strip = _STRIP_ROWS
        best = np.zeros(c, dt)
        best_i = np.zeros(c, dtype=np.int64)
        best_j = np.zeros(c, dtype=np.int64)
        sub = np.empty(w * c, dt)
        ix = np.empty(w * c, np.intp)
        depth = 2
    # The stored rows (the whole strip, or a ring of two), each a
    # contiguous (w + 1, a) block ending in the NEG sentinel slot row;
    # block 0 holds the row above the strip.
    Hst = np.empty((depth, (w + 1) * c), dt)
    Fst = np.empty((depth, (w + 1) * c), dt)
    carry = (np.zeros((w, c), dt), np.full((w, c), neg, dt))
    base = 0
    for r0 in range(0, rows, strip):
        n = min(strip, rows - r0)
        a = active[r0]
        wa = w * a
        S = valid = Qk = V = None       # the last strip's, released first
        S, valid, Qk = _strip(ch, qcat, scat, w, r0, n, a)
        V = valid.astype(dt).reshape(-1)
        # Rows whose band has an out-of-subject cell are masked.
        bad = np.concatenate([[0], np.cumsum(~valid.all(axis=1))])
        masked = (bad[w:] > bad[:n]).tolist()
        # A row's operands are flat views of its (w, a) block — one
        # contiguous run each, whatever a is — and 2-D where the slots
        # matter (the prefix maximum, E, the per-problem best).
        zero, go_row, ge_row, Fe, T, E, P, tmp = [
            buf[:wa] for buf in consts + bufs]
        E = E[:wa - a]
        P_head = P[:wa - a]
        T2, P2, tmp2 = T.reshape(w, a), P.reshape(w, a), tmp.reshape(w, a)
        tilt_row = np.repeat(slot_ge, a)
        open_row = np.repeat(go + slot_ge[:-1], a)
        narrow = wa <= _NARROW_CELLS
        Hb = Hst[:, :(w + 1) * a]
        Fb = Fst[:, :(w + 1) * a]
        Hb3 = Hb.reshape(depth, w + 1, a)
        Fb3 = Fb.reshape(depth, w + 1, a)
        Hb3[0, :w] = carry[0][:, :a]
        Fb3[0, :w] = carry[1][:, :a]
        Hb3[:, w] = neg
        Fb3[:, w] = neg
        if align:
            # The strip's substitution scores, every row at once: slot b
            # of row t reads strip row t + b.
            codes = S[strip_tb[:n]]
            codes += Qk[:, None]
            subs = mat.take(codes, mode="clip")
            del codes
            views = list(zip(Hb[1:, :wa], Fb[1:, :wa], Hb[1:, a:wa],
                             Hb[:-1, :wa], Hb[:-1, a:], Fb[:-1, a:],
                             subs.reshape(n, wa)))
        else:
            sub2 = sub[:wa].reshape(w, a)
            ix2 = ix[:wa].reshape(w, a)
            views = [(Hb[1 - p, :wa], Fb[1 - p, :wa], Hb[1 - p, a:wa],
                      Hb[p, :wa], Hb[p, a:], Fb[p, a:], sub[:wa])
                     for p in (0, 1)] * ((n + 1) // 2)
        for t in range(n):
            H, F, H_tail, Hp, Hp_up, Fp_up, sub_r = views[t]
            if not align:
                np.add(S[t:t + w], Qk[t], out=ix2)
                mat.take(ix2, out=sub2, mode="clip")
            # H: the diagonal move, floored at zero.
            np.add(Hp, sub_r, out=H)
            np.maximum(H, zero, out=H)
            # F: gap in subject, from slot b+1 of the previous row (the
            # sentinel for the last slot).
            np.subtract(Hp_up, go_row, out=F)
            np.subtract(Fp_up, ge_row, out=Fe)
            np.maximum(F, Fe, out=F)
            np.maximum(H, F, out=H)
            # E: gap in query, within the row (module docstring).
            if vector_scan:
                np.add(H, tilt_row, out=T)
                if narrow:
                    np.maximum.accumulate(T2, axis=0, out=P2)
                else:
                    _prefix_max(T2, P2, tmp2, False)
                np.subtract(P_head, open_row, out=E)
                np.maximum(H_tail, E, out=H_tail)
            else:
                H2 = H.reshape(w, a)
                e = np.full(a, neg, dt)
                for b in range(1, w):
                    e_open = H2[b - 1] - go
                    e_ext = e - ge
                    np.maximum(e_open, e_ext, out=e)
                    np.maximum(H2[b], e, out=H2[b])
            # Mask H after the E scan.  F is left as computed: an
            # out-of-subject column's F feeds only that column, where it
            # stays at most -gap_open and never beats H.
            if masked[t]:
                np.multiply(H, V[t * a:(t + w) * a], out=H)
            if not align:
                # Only the problems that have this row.
                r = r0 + t
                a_r = active[r]
                H2 = H.reshape(w, a)
                row_best = H2[:, :a_r].max(axis=0)
                upd = np.flatnonzero(row_best > best[:a_r])
                if len(upd):
                    best[upd] = row_best[upd]
                    best_i[upd] = ch.rl[upd] + r
                    best_j[upd] = ch.jbase0[upd] + r + \
                        H2[:, upd].argmax(axis=0)
        last = n if align else n & 1
        carry = (Hb3[last, :w].copy(), Fb3[last, :w].copy())
        if align:
            # Per row, each problem's first best slot and its score; the
            # strip's pointer bytes.
            Hw = Hb3[1:n + 1, :w]
            arg = Hw.argmax(axis=1)
            row_arg[r0:r0 + n, :a] = arg
            row_max[r0:r0 + n, :a] = np.take_along_axis(
                Hw, arg[:, None], axis=1)[:, 0]
            tb = strip_tb[:n, :, None]
            first = ch.jbase0[:a] + (r0 - 1)
            strip_ptr = _derive_pointers(
                Hb3[:n + 1], Fb3[:n + 1], subs,
                (tb >= -first) & (tb < ch.sl[:a] - first), go, ge,
                slot_ge[:, None], vector_scan)
            ptr[base:base + strip_ptr.size] = strip_ptr.reshape(-1)
            row_base[r0:r0 + n] = base + np.arange(n) * (w * a)
            row_stride[r0:r0 + n] = a
            base += strip_ptr.size
    if align:
        return ptr, row_base, row_stride, row_max, row_arg
    return best, best_i, best_j


def _as_int64(*arrays) -> List[np.ndarray]:
    return [np.asarray(a, dtype=np.int64) for a in arrays]


def bulk_banded_score(qcat: np.ndarray,
                      scat: Union[np.ndarray, TwoBitResidues],
                      q_off: np.ndarray, q_len: np.ndarray,
                      s_off: np.ndarray, s_len: np.ndarray,
                      diag: np.ndarray, scheme: ScoringScheme,
                      band: int = 24
                      ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Score-only banded affine DP over many candidates at once: the
    score mode (module docstring).

    Candidate ``c`` is the alignment :func:`banded_local_align` would
    compute for ``(qcat[q_off[c]:q_off[c]+q_len[c]],
    scat[s_off[c]:s_off[c]+s_len[c]], diag[c])`` — queries and subjects
    live as slices of flat concatenations (the scan kernel's fragment
    concatenation and the driver's query concatenation), so one 2-D
    gather per DP row scores candidates belonging to different queries,
    strands and subjects together.  Per candidate the returned
    ``(score, q_end, s_end)`` equals the alignment's ``(score, q_end,
    s_end)`` exactly (``0, 0, 0`` when no cell scores positive).
    Candidates are swept longest-first in chunks of
    ``_BULK_CANDIDATES``.
    """
    q_off, q_len, s_off, s_len, diag = _as_int64(q_off, q_len, s_off,
                                                 s_len, diag)
    n_cand = len(diag)
    out_score = np.zeros(n_cand, dtype=np.int64)
    out_qend = np.zeros(n_cand, dtype=np.int64)
    out_send = np.zeros(n_cand, dtype=np.int64)
    row_lo, n_rows = _dp_rows(q_len, s_len, diag, band)
    order = np.argsort(-n_rows, kind="stable")
    order = order[n_rows[order] > 0]
    for lo in range(0, len(order), _BULK_CANDIDATES):
        idx = order[lo:lo + _BULK_CANDIDATES]
        ch = _chunk(idx, q_off, s_off, s_len, diag, row_lo, n_rows, scheme,
                    band)
        best, best_i, best_j = _sweep(ch, qcat, scat, scheme, band, False)
        pos = best > 0
        out_score[idx[pos]] = best[pos]
        out_qend[idx[pos]] = best_i[pos]
        out_send[idx[pos]] = best_j[pos]
    return out_score, out_qend, out_send
