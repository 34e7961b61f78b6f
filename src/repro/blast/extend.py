"""Ungapped X-drop extension along a diagonal.

From a seed word the alignment is extended left and right; extension in
a direction stops when the running score falls more than X below the
best score seen in that direction (Altschul et al. 1990): the
per-position substitution scores along the diagonal are
cumulative-summed and the cut-off is found with a running maximum, or,
on the 2-bit route below, the gap under that maximum is an automaton's
state.

:func:`bulk_ungapped_extend` is the one extension kernel the search
driver calls, for every alphabet and seeding rule: all seeds of a batch
— across queries, strands and subjects — are extended together against
the flat query / fragment concatenations, and the driver replays the
per-diagonal coverage dedup (a seed inside an HSP already found on its
diagonal is skipped) from the returned extents.  It has two routes,
picked by one rule, :func:`_xdrop_automaton`, from the inputs as they
are:

* **the 2-bit automaton** — subjects in a 2-bit section
  (:class:`~repro.blast.scankernel.TwoBitResidues`), a match/mismatch
  matrix (what ``NucleotideScore`` builds) and a table within
  :data:`_AUTOMATON_BYTES`: the walk is read off the XOR of the packed
  subject bytes and the query packed at the same lane phase, eight
  positions per table step, and no position is scored;
* **the 1-byte window ladder** — everything else (protein, PSSMs, any
  other matrix, a one-byte section, a huge X-drop): scores a 32-wide
  window, then a 64-wide one for the rows it cannot settle.

Both walk the first 64 positions in bulk; a walk still open after them
(a true alignment) takes the exact per-seed walk, :func:`_best_prefix`.
The single-seed definition both are specified against
(``ungapped_extend``) lives beside the oracle, ``tests/oracle_search.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple, Union

import numpy as np

from repro.blast.profile import current_profile
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
#: seeds drop within 32 positions in either direction.  The 2-bit
#: automaton walks the same 64 positions, 32 a pass.
_BULK_WINDOWS = (32, 64)
#: Row-chunk bound of the 1-byte window ladder: peak scratch is eight
#: to ten ``_BULK_ROWS * window`` temporaries.  Sized by measurement
#: when blastp's ~4 000 two-hit seeds per query started coming through
#: here (nt's ~800 never filled a 4096-row chunk), with the single
#: 64-wide int64 window the ladder replaced: kernel scratch
#: (tracemalloc peak) on benchmark aa query 0, then the ``extend``
#: stage, best of 7-15 runs in ms, for that query / one 568-nt query /
#: a batch of eight against 4 M residues.  The nt columns predate the
#: 2-bit automaton, which nucleotide seeds take now (its own bound is
#: :data:`_AUTOMATON_ROWS`); they still describe the ladder for an nt
#: matrix the automaton does not cover.
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


def _rescan(qcat: np.ndarray, scat: Union[np.ndarray, TwoBitResidues],
            q0: np.ndarray, s0: np.ndarray, avail: np.ndarray, step: int,
            scheme: ScoringScheme, xdrop: int, rows: np.ndarray,
            out_len: np.ndarray, out_score: np.ndarray) -> None:
    """The exact per-seed walk (:func:`_best_prefix`) of *rows*, those
    a bulk route left open, into *out_len* / *out_score*; counted as
    ``seeds_rescanned`` on an active profile."""
    prof = current_profile()
    if prof is not None:
        prof.count("seeds_rescanned", len(rows))
    for i in rows.tolist():
        walk = step * np.arange(int(avail[i]), dtype=np.int64)
        row = scheme.pair_scores(qcat[int(q0[i]) + walk],
                                 scat.take(int(s0[i]) + walk))
        out_len[i], out_score[i] = _best_prefix(row, xdrop)


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
    _rescan(qcat, scat, q0, s0, avail, step, scheme, xdrop, open_rows,
            out_len, out_score)
    return out_len, out_score


# ------------------------------------------- the 2-bit X-drop automaton
#
# Under a match/mismatch matrix an X-drop walk depends only on where
# query and subject differ.  On a 2-bit section both sides are packed
# four positions a byte, so the XOR of a subject byte and a query byte
# packed at the same lane phase compares four positions at once;
# ``_PAIR_MISMATCH`` turns two XOR bytes into one byte of mismatch bits
# (bit 7 the first position), and the walk is a finite automaton that
# reads eight positions a step.
#
# Its state is ``d = runmax - cum`` (0 … xdrop) or STOP = xdrop + 1.  A
# match takes ``d`` to ``max(d - reward, 0)`` — a strict new best when
# ``reward > d``, gaining ``reward - d`` — and a mismatch to ``d +
# penalty``, STOP past xdrop.  Entry ``[d, byte]`` of the table is what
# the byte's eight positions do: the next state (as the index of its
# first entry), one plus the offset of the last strict improvement (0
# if none) and the gain of the best score, packed into one ``int64`` as
# ``next | (offset + 1) << 20 | gain << 24``.  A position past the
# walk's ``avail`` reads as a mismatch (the pad bits): a mismatch never
# improves the best, so nothing past ``avail`` changes length or score,
# and a walk that ends inside a pass is settled by its ``avail``.

#: Entries of one automaton state, one per byte.
_STATE_ENTRIES = 256
#: Byte bound of one automaton table, ``(xdrop + 2) * 256 * 8`` bytes:
#: 256 KiB, so ``xdrop <= 126``.  blastn's default (xdrop 20) makes 44
#: KiB.  Every step reads the table at random, so past the bound it
#: would crowd the gathered rows out of a core's L2 cache, and its build
#: would stop being cheap next to one search; the 1-byte window ladder
#: runs instead.
_AUTOMATON_BYTES = 1 << 18
#: Row-chunk bound of the automaton (right and left walks count
#: apart).  Kernel scratch (tracemalloc peak) on a batch of eight
#: benchmark queries against 4 M residues (6 230 seeds), then the
#: kernel's p50 in ms over 25 interleaved calls per size, one query /
#: the batch (the 1-byte ladder in the same run: 2.68 / 12.2 ms, 1.19
#: MB):
#:
#: ===== ========== ====== ======
#: rows  scratch MB nt x1  nt x8
#: ===== ========== ====== ======
#: 512   0.84       1.34   4.66
#: 1024  0.97       0.92   3.29
#: 2048  1.22       0.72   2.53
#: 4096  1.73       0.73   3.34
#: 8192  2.73       0.69   3.53
#: 16384 3.78       0.70   3.67
#: ===== ========== ====== ======
#:
#: Below 2048 rows the per-pass overhead shows; above it the scratch
#: grows and the time does not fall.  At 2048 the scratch is about the
#: ladder's.
_AUTOMATON_ROWS = 2048


def _mismatch_tables() -> Tuple[np.ndarray, np.ndarray]:
    """``(_PAIR_MISMATCH, _PAIR_MISMATCH_REVERSED)``: the mismatch byte
    of every pair of XOR bytes, indexed by their ``uint16`` view (so by
    memory order, whatever the byte order): the first byte's lanes in
    bits 7…4, the second's in 3…0 — and the same byte bit-reversed,
    for walks that go down the section."""
    x = np.arange(256)
    lanes = np.zeros(256, dtype=np.uint8)
    for lane in range(4):
        lanes |= ((((x >> (6 - 2 * lane)) & 3) != 0) << (3 - lane)
                  ).astype(np.uint8)
    reverse = np.zeros(256, dtype=np.uint8)
    for bit in range(8):
        reverse |= (((x >> bit) & 1) << (7 - bit)).astype(np.uint8)
    pairs = np.arange(1 << 16, dtype=np.uint16).view(np.uint8)
    pair = lanes[pairs[0::2]] << 4 | lanes[pairs[1::2]]
    return pair, reverse[pair]


_PAIR_MISMATCH, _PAIR_MISMATCH_REVERSED = _mismatch_tables()


@lru_cache(maxsize=8)
def _automaton_table(reward: int, penalty: int, xdrop: int) -> np.ndarray:
    """The automaton of ``(reward, -penalty)`` scoring at *xdrop*: a
    read-only ``int64`` array of ``(xdrop + 2) * 256`` entries laid out
    ``[state, byte]`` (the comment above).  All 256 bytes of every
    state walk together, position by position."""
    stop = xdrop + 1
    state = np.repeat(np.arange(stop + 1, dtype=np.int64), 256)
    byte = np.tile(np.arange(256, dtype=np.int64), stop + 1)
    gain = np.zeros_like(state)
    last = np.zeros_like(state)
    for t in range(8):
        match = (state < stop) & (((byte >> (7 - t)) & 1) == 0)
        up = np.where(match, np.maximum(reward - state, 0), 0)
        gain += up
        last[up > 0] = t + 1
        state = np.where(match, np.maximum(state - reward, 0),
                         np.minimum(state + penalty, stop))
    table = state * _STATE_ENTRIES | last << 20 | gain << 24
    table.setflags(write=False)
    return table


def _xdrop_automaton(scat: Union[np.ndarray, TwoBitResidues],
                     scheme: ScoringScheme, xdrop: int
                     ) -> Optional[np.ndarray]:
    """The automaton table :func:`bulk_ungapped_extend` walks, or
    ``None`` when the 1-byte window ladder runs instead.

    There is a table when the subjects are a :class:`TwoBitResidues`
    section, the matrix is 4x4 match/mismatch (one integer reward on
    the diagonal, one penalty off it: what ``NucleotideScore`` builds;
    the gain field holds ``8 * reward``), *xdrop* is a non-negative
    integer and the table fits :data:`_AUTOMATON_BYTES`.  A property of
    the inputs, not a setting (the rule of
    ``QueryBatch._sub_word_table``).
    """
    matrix = scheme.matrix
    if (not isinstance(scat, TwoBitResidues) or matrix.shape != (4, 4)
            or matrix.dtype.kind not in "iu"
            or not isinstance(xdrop, (int, np.integer)) or xdrop < 0):
        return None
    on = np.eye(4, dtype=bool)
    reward, mismatch = int(matrix[0, 0]), int(matrix[0, 1])
    if (reward <= 0 or mismatch >= 0 or (matrix[on] != reward).any()
            or (matrix[~on] != mismatch).any() or reward >= 1 << 36
            or (xdrop + 2) * _STATE_ENTRIES * 8 > _AUTOMATON_BYTES):
        return None
    return _automaton_table(reward, -mismatch, int(xdrop))


# blastn's defaults (NucleotideScore(), xdrop_ungapped 20) are built at
# import, so no search — a pool's or a node's first one included —
# waits for the table; in a forked worker it is already there.
_automaton_table(1, 3, 20)


def _pack_query_phases(qcat: np.ndarray) -> Tuple[np.ndarray, int]:
    """*qcat* packed as a 2-bit section is, once at each lane phase:
    ``(packed, m)``, where byte ``phase * m + k`` holds query positions
    ``4k - phase`` … ``4k - phase + 3``, the first in the top two bits
    (positions outside *qcat* read 0)."""
    m = (len(qcat) + 3) // 4 + 1
    ext = np.zeros((4, 4 * m), dtype=np.uint8)
    for phase in range(4):
        ext[phase, phase:phase + len(qcat)] = qcat
    lanes = ext.reshape(4, m, 4)
    packed = lanes[..., 0] << 6
    packed |= lanes[..., 1] << 4
    packed |= lanes[..., 2] << 2
    packed |= lanes[..., 3]
    return packed.ravel(), m


def _gather_rows(buf: np.ndarray, first: np.ndarray,
                 width: int) -> np.ndarray:
    """``(len(first), width)`` bytes: *width* consecutive bytes of the
    contiguous *buf* from each of *first*, one fancy index over a view
    whose elements are *width*-byte windows.  Bytes outside *buf* read
    some byte of it: only positions past a walk's ``avail`` lie
    there."""
    n_windows = len(buf) - width + 1
    edge = (first < 0) | (first >= n_windows)
    if n_windows <= 0 or edge.all():
        return buf.take(first[:, None] + np.arange(width), mode="clip")
    windows = np.ndarray((n_windows,), np.dtype((np.void, width)),
                         buffer=buf, strides=(1,))
    out = windows[np.where(edge, 0, first)].view(np.uint8)
    out = out.reshape(len(first), width)
    if edge.any():
        rows = np.flatnonzero(edge)
        out[rows] = buf.take(first[rows, None] + np.arange(width),
                             mode="clip")
    return out


#: The pad bits of a pass by the positions it has left (0 … 32): every
#: position past them in the top 32 bits of a pass's word.
_PAD_BITS = np.array([((1 << (32 - left)) - 1) << 32 for left in range(33)],
                     dtype=np.uint64)


def _automaton_pass(table: np.ndarray, qphases: np.ndarray, m: int,
                    packed: np.ndarray, q0: np.ndarray, s0: np.ndarray,
                    avail: np.ndarray, n_right: int, start: int,
                    state: np.ndarray, length: np.ndarray,
                    score: np.ndarray) -> np.ndarray:
    """Walk positions ``start … start + 31`` of rows ``q0`` / ``s0`` —
    the first *n_right* to the right, the rest to the left — in four
    table steps, on from *state* (entry indices: 0 is ``d = 0``),
    *length* and *score*, which it updates in place.  Returns the
    settled rows' mask: those that stopped or ended by the pass's end.

    A right walk gathers the ten bytes from the one holding position
    ``s0 + start``; a left walk the ten up to the one holding ``s0 -
    start``, whose mismatch bytes it reads in reverse order, each
    bit-reversed."""
    first = s0.copy()
    first[:n_right] += start
    first[n_right:] -= start + 36
    shift = first & 3
    shift[n_right:] ^= 3
    j = first >> 2
    delta = s0 - q0
    # Section byte j + 1 and query byte j - (delta >> 2) at phase
    # delta & 3 hold the same four diagonal positions, lane for lane.
    xor = _gather_rows(packed, j + 1, 10)
    xor ^= _gather_rows(qphases, (delta & 3) * m + j - (delta >> 2), 10)
    pairs = xor.view(np.uint16)
    # 40 mismatch bits in walk order, shifted so that bit 63 is the
    # pass's first position; walk byte b is then byte b of the word.
    word = np.zeros((len(q0), 8), dtype=np.uint8)
    word[:n_right, :5] = np.take(_PAIR_MISMATCH, pairs[:n_right])
    word[n_right:, 4::-1] = np.take(_PAIR_MISMATCH_REVERSED,
                                    pairs[n_right:])
    bits = word.view(">u8")[:, 0].astype(np.uint64)
    bits <<= shift.astype(np.uint64)
    bits |= np.take(_PAD_BITS, np.clip(avail - start, 0, 32))
    walk = bits.astype(">u8").view(np.uint8).reshape(len(q0), 8)
    entries = np.empty((4, len(q0)), dtype=np.int64)
    for b in range(4):
        np.take(table, state + walk[:, b], out=entries[b])
        np.bitwise_and(entries[b], (1 << 20) - 1, out=state)
    score += (entries >> 24).sum(axis=0)
    offset = (entries >> 20) & 15
    at = np.where(offset > 0, offset + (start + 8 * np.arange(4))[:, None],
                  0)
    np.maximum(length, at.max(axis=0), out=length)
    return ((state == len(table) - _STATE_ENTRIES)
            | (avail <= start + 32))


def _automaton_extend(table: np.ndarray, qcat: np.ndarray,
                      scat: TwoBitResidues, gq: np.ndarray, gs: np.ndarray,
                      avail_l: np.ndarray, avail_r: np.ndarray,
                      scheme: ScoringScheme, xdrop: int
                      ) -> Tuple[np.ndarray, np.ndarray,
                                 np.ndarray, np.ndarray]:
    """:func:`bulk_ungapped_extend` on the automaton.  Right and left
    walks are rows of one list (rights first).  Passes of 32 positions,
    in chunks of :data:`_AUTOMATON_ROWS` rows, walk the rows still open
    on from where the last pass left them, up to the last window of
    :data:`_BULK_WINDOWS`; the exact per-seed walk takes the rows open
    after it."""
    n = len(gq)
    q0 = np.concatenate([gq, gq - 1])
    s0 = np.concatenate([gs, gs - 1])
    avail = np.concatenate([avail_r, avail_l])
    qphases, m = _pack_query_phases(qcat)
    length = np.zeros(2 * n, dtype=np.int64)
    score = np.zeros(2 * n, dtype=np.int64)
    state = np.zeros(2 * n, dtype=np.int64)
    rows = np.arange(2 * n)
    for start in range(0, _BULK_WINDOWS[-1], 32):
        still_open = [rows[:0]]
        for lo in range(0, len(rows), _AUTOMATON_ROWS):
            part = rows[lo:lo + _AUTOMATON_ROWS]
            st, ln, sc = state[part], length[part], score[part]
            settled = _automaton_pass(
                table, qphases, m, scat.packed, q0[part], s0[part],
                avail[part], int(np.searchsorted(part, n)), start, st, ln,
                sc)
            state[part], length[part], score[part] = st, ln, sc
            still_open.append(part[~settled])
        rows = np.concatenate(still_open)
    for step, part in ((+1, rows[rows < n]), (-1, rows[rows >= n])):
        _rescan(qcat, scat, q0, s0, avail, step, scheme, xdrop, part,
                length, score)
    return length[n:], score[n:], length[:n], score[:n]


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
    ``take``), so one pass extends seeds
    belonging to different queries, strands and subjects together —
    no per-(query, subject) numpy dispatch at all.  ``avail_l`` /
    ``avail_r`` bound each seed's walk to its own sequence, which is
    what keeps sentinels and neighbouring sequences out of the scoring
    window.  When :func:`_xdrop_automaton` has a table the walks run on
    the 2-bit automaton, otherwise on the 1-byte window ladder.

    Per seed the answer — ``(left_len, left_score, right_len,
    right_score)`` — is exactly what the oracle's ``ungapped_extend``
    computes from the equivalent per-sequence slices.
    """
    table = _xdrop_automaton(scat, scheme, xdrop)
    if table is not None:
        return _automaton_extend(table, qcat, scat, gq, gs, avail_l,
                                 avail_r, scheme, xdrop)
    right_len, right_score = _bulk_prefix(qcat, scat, gq, gs, avail_r,
                                          +1, scheme, xdrop)
    left_len, left_score = _bulk_prefix(qcat, scat, gq - 1, gs - 1, avail_l,
                                        -1, scheme, xdrop)
    return left_len, left_score, right_len, right_score
