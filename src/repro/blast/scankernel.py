"""Concatenated-database scan kernel and the ScanCache.

The naive search driver scans the query word index against one subject
sequence at a time: per subject it re-derives rolling word codes, runs
``WordIndex.scan``, and pays Python/numpy dispatch overhead ~1400 times
per query on even a 1 M-base fragment.  For the paper's workload — a
568-char blastn query against the 1.76 M-sequence nt database — that
per-sequence loop *is* the compute half of the reproduction.

This module makes the **fragment**, not the sequence, the unit of the
hot loop (the same contiguous-layout lesson the paper's parallel file
systems apply to I/O: pack once, then operate in bulk):

* :func:`build_scan_structures` lays a fragment's encoded sequences
  out back to back at *flat positions*, one separator slot between
  neighbours, and stores them as one residue section: four residues
  to the byte for nucleotides (the 2-bit database NCBI's formatdb
  writes), one byte per residue otherwise.  That section and its
  per-sequence offsets are all a pack holds: no word code is stored,
  cached or shipped anywhere;
* :class:`TwoBitResidues` is the one reader of a 2-bit section's codes
  at flat positions; a one-byte section is its own reader.  Extension,
  the gapped kernels and :meth:`ScanStructures.subject` read residues
  through :attr:`ScanStructures.scat`, never a one-byte copy;
* :class:`QueryBatch` folds every query orientation's words into one
  table and finds their hits in one pass over the residue section
  itself.  For nucleotide words that pass reads the 2-bit bytes as
  stored, looks up every byte-aligned 8-mer in a 64 KiB table and
  rebuilds full 11-mers only around the survivors — how NCBI blastn
  scans its 2-bit database, and why its default word is 8 + 3.  Other
  alphabets and crowded batches derive dense word codes a chunk at a
  time.  Either way the hits are exactly the per-sequence ones: a
  window that crosses a sequence end is dropped by the same
  ``searchsorted`` that maps a hit to ``(sequence id, offset)``;
* :func:`scan_fragment_batch` groups those hits per (entry, sequence)
  as flat arrays (:class:`HitGroups`) for the seeding stage;
  :func:`scan_fragment` is one index's per-group view of them;
* :class:`ScanCache` keeps the per-fragment structures in a bounded
  LRU keyed by fragment identity, so a stream of queries against the
  same fragments — the warm-cache and query-stream workloads — pays the
  packing cost once per fragment.

The kernel is exact: downstream seeding / extension sees byte-identical
hits (``tests/test_blast_scankernel.py`` holds the property test against
the per-sequence ``WordIndex.scan`` and the mutants that must fail it).
"""

from __future__ import annotations

import itertools
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.blast.kmer import WordIndex
from repro.blast.profile import current_profile

#: Default bounds of the process-wide ScanCache: at most 8 fragments
#: and ~256 MB of cached structures (the residue section — a quarter
#: byte per nucleotide, one byte per amino acid — plus 16 per
#: sequence).
DEFAULT_MAX_ENTRIES = 8
DEFAULT_MAX_BYTES = 256 * 1024 * 1024

#: Fullest a :class:`QueryBatch` 8-mer table may be and still filter.
#: Every stage-1 survivor costs four full-word tests, and the dense
#: scan a crowded batch takes instead costs about what the packed one
#: does with the table half full (4 M residues: 55 ms against 18 / 27 /
#: 45 ms at 0.16 / 0.35 / 0.58).
_MAX_TABLE_DENSITY = 0.5

#: Packed bytes (four residues each) per block of the packed scan, and
#: windows per block of the dense one: the block's temporaries (index
#: widening, keys, the boolean gather result) stay in L2 instead of
#: streaming through DRAM — flat from 2**14 to 2**16.
_SAMPLE_CHUNK = 1 << 15

#: The build's 2-bit fold: a little-endian ``<u4`` holds residues
#: r0…r3 in bytes 0…3; keeping their low 2 bits (the separator, staged
#: as ``base`` = 4, folds to 0) and multiplying lands r0·64 + r1·16 +
#: r2·4 + r3 in the top byte with every other partial product in a
#: 2-bit field of its own below it — no carries.
_LOW2 = np.uint32(0x03030303)
_FOLD = np.uint32(2 ** 30 + 2 ** 20 + 2 ** 10 + 1)

#: Flat positions per block of the build's fold (a multiple of 4): the
#: one-byte staging block and the fold's ``<u4`` temporaries stay in
#: L2 whatever the fragment's size, so a build's peak is the 2-bit
#: section itself.
_FOLD_BLOCK = 1 << 17

#: The alphabet size stored two bits per residue: nucleotides.
TWO_BIT_BASE = 4

#: The four codes of every 2-bit byte value, first residue (the top
#: two bits) first: a contiguous run decodes with one gather.
_UNPACK = ((np.arange(256)[:, None] >> np.array([6, 4, 2, 0])) & 3
           ).astype(np.uint8)

_token_counter = itertools.count(1)


def db_token(db) -> int:
    """The database's scan-cache identity token, assigned on first use.

    Tokens are the process-local half of the key every scan-structure
    consumer shares (the :class:`ScanCache`, the shared-memory pack
    registry of :mod:`repro.exec`): monotonically increasing, so a
    recycled ``id()`` can never alias a dead database.  Falls back to
    ``id(db)`` for objects that refuse attributes.
    """
    token = getattr(db, "_scan_token", None)
    if token is None:
        token = next(_token_counter)
        try:
            db._scan_token = token
        except (AttributeError, TypeError):  # pragma: no cover
            token = id(db)
    return token


class TwoBitResidues:
    """Residue codes of a 2-bit residue section, read at flat positions.

    *packed* is the section as stored: byte ``j + 1`` holds flat
    positions 4j … 4j+3, the first in the top two bits; separator slots
    are 0, and so are byte 0 and the two bytes past the last residue's,
    which the packed scan reads.  *n* is the number of flat positions.

    It answers the two reads a one-byte array answers — ``take`` at
    any positions and a contiguous slice — with the same codes, so the
    extension and gapped kernels read either kind of section through
    one duck type.  A gather costs a byte ``take`` plus a shift per
    position, against one ``take`` on one byte per residue (DESIGN.md
    §5d has the measurements).
    """

    __slots__ = ("packed", "n")

    def __init__(self, packed: np.ndarray, n: int):
        self.packed = packed
        self.n = n

    def __len__(self) -> int:
        return self.n

    def take(self, positions, mode: str = "raise") -> np.ndarray:
        """The codes at *positions* (an integer array of any shape), as
        ``uint8``.  Like a one-byte array's ``take``, a position outside
        ``[0, n)`` raises ``IndexError`` — unless *mode* is ``"clip"``,
        under which it reads some code in 0…3 (not necessarily the edge
        one).  The one caller that gathers past its rows' ends, and pads
        what it read there, is the extension's 1-byte window ladder,
        which meets a 2-bit section only when
        ``extend._xdrop_automaton`` has no table for its matrix and
        X-drop; nucleotide extension otherwise reads :attr:`packed`
        itself, as the scan does."""
        pos = np.asarray(positions)
        if mode != "clip" and pos.size and (pos.min() < 0
                                            or pos.max() >= self.n):
            raise IndexError(f"flat position outside [0, {self.n})")
        byte = self.packed[1:].take(pos >> 2, mode="clip")
        # Lane l of a byte is bits 7-2l and 6-2l: shifting left by 2l
        # (uint8, so the lanes before it fall off) puts it on top.
        lane = pos.astype(np.uint8)
        lane &= 3
        lane <<= 1
        byte <<= lane
        byte >>= 6
        return byte

    def __getitem__(self, key: slice) -> np.ndarray:
        """The codes of a contiguous run of flat positions."""
        if not isinstance(key, slice):
            raise TypeError("a 2-bit section is sliced; gather with take()")
        lo, hi, step = key.indices(self.n)
        if step != 1:
            raise ValueError("a 2-bit section slices with step 1")
        if hi <= lo:
            return np.empty(0, dtype=np.uint8)
        first = lo >> 2
        codes = _UNPACK[self.packed[first + 1:((hi - 1) >> 2) + 2]]
        return codes.reshape(-1)[lo - 4 * first:hi - 4 * first]


@dataclass
class ScanStructures:
    """Cached per-fragment scan artifacts.

    Sequence ``i`` occupies flat positions ``starts[i]`` …
    ``starts[i] + lengths[i] - 1``; one separator slot lies between
    neighbours.  ``residues`` stores those positions' codes: 2 bits
    each for the nucleotide alphabet (``base`` 4, separators 0, laid
    out as :class:`TwoBitResidues` reads it), one byte each otherwise
    (separators ``base``, one above the alphabet).  :attr:`scat` reads
    codes at flat positions, :meth:`subject` one sequence.  Nothing
    derived per residue is kept: the scan reads ``residues``.
    """

    k: int
    base: int
    n_sequences: int
    total_residues: int
    residues: np.ndarray    # uint8, the residue section (above)
    starts: np.ndarray      # int64 (n,), flat start of each sequence
    lengths: np.ndarray     # int64 (n,)

    def __post_init__(self):
        n_flat = self.total_residues + max(self.n_sequences - 1, 0)
        #: The one accessor of residue codes at flat positions: the
        #: one-byte section itself, or a reader of the 2-bit one.
        self.scat = (TwoBitResidues(self.residues, n_flat)
                     if self.base == TWO_BIT_BASE else self.residues)

    @property
    def nbytes(self) -> int:
        """Memory footprint of the cached arrays."""
        return self.residues.nbytes + self.starts.nbytes + self.lengths.nbytes

    def subject(self, sid: int) -> np.ndarray:
        """The codes of sequence *sid* (a view of a one-byte section,
        decoded from a 2-bit one)."""
        lo = int(self.starts[sid])
        return self.scat[lo:lo + int(self.lengths[sid])]

    # The dense definition of "the word at every window", derived on
    # every read.  No scan uses it: it survives because
    # ``perf/harness/layers.py:106`` reads ``structs.codes.nbytes`` and
    # ``structs.code_pos.nbytes`` and only a [benchmark] PR may edit
    # ``perf/``.  ROADMAP item 2(a) drops that line; these two then move
    # into ``tests/test_blast_scankernel.py``, whose oracle they are.
    @property
    def code_pos(self) -> np.ndarray:
        """Flat position of every window lying wholly inside one
        sequence, sequence after sequence."""
        per_seq = np.maximum(self.lengths - (self.k - 1), 0)
        rank0 = np.cumsum(per_seq) - per_seq     # first window's rank
        return (np.arange(int(per_seq.sum()), dtype=np.int64)
                + np.repeat(self.starts - rank0, per_seq))

    @property
    def codes(self) -> np.ndarray:
        """Rolling word code of each :attr:`code_pos` window (Horner)."""
        at = self.code_pos
        digits = self.scat[0:len(self.scat)]
        codes = np.zeros(len(at), dtype=np.int32 if self.base ** self.k
                         < 2 ** 31 else np.int64)
        for j in range(self.k):
            codes *= self.base
            codes += digits[at + j]
        return codes


def build_scan_structures(db, k: int, base: int) -> ScanStructures:
    """Pack one database fragment for bulk scanning.

    *db* is anything with the :class:`~repro.blast.seqdb.SequenceDB`
    access surface (``__len__``, ``lengths``, ``sequence``).  Sequences
    shorter than *k* (including empty ones) hold no window and
    therefore can never produce hits — exactly like the per-sequence
    scan, where their code arrays are empty.  A nucleotide section is
    folded to 2 bits here, once, a block at a time
    (:func:`_two_bit_section`).
    """
    n = len(db)
    lengths = np.asarray(db.lengths() if n else [], dtype=np.int64)
    starts, n_flat = flat_starts(lengths)
    if base == TWO_BIT_BASE:
        residues = _two_bit_section(db, starts.tolist(), lengths.tolist(),
                                    n_flat)
    else:
        residues = np.full(n_flat, base, dtype=np.uint8)
        for i in range(n):
            lo = int(starts[i])
            residues[lo:lo + int(lengths[i])] = db.sequence(i)
    return ScanStructures(k=k, base=base, n_sequences=n,
                          total_residues=int(lengths.sum()),
                          residues=residues, starts=starts, lengths=lengths)


def flat_starts(lengths: np.ndarray) -> Tuple[np.ndarray, int]:
    """Each sequence's first flat position (after every previous
    sequence and one separator slot each), and the flat length."""
    n = len(lengths)
    starts = np.zeros(n, dtype=np.int64)
    if n:
        np.cumsum(lengths[:-1] + 1, out=starts[1:])
    return starts, int(lengths.sum()) + max(n - 1, 0)


def staged_scan_structures(staged: np.ndarray, lengths: np.ndarray,
                           k: int, base: int) -> ScanStructures:
    """Scan structures of a fragment already staged one byte per flat
    position (:func:`flat_starts`, separators ``base``): the same
    structures :func:`build_scan_structures` makes of its sequences.  A
    protein staging is the section; a nucleotide one, padded with
    separators to a multiple of 4, is folded to 2 bits a block at a
    time."""
    lengths = np.asarray(lengths, dtype=np.int64)
    starts, n_flat = flat_starts(lengths)
    if base == TWO_BIT_BASE:
        residues = np.zeros(-(-n_flat // 4) + 3, dtype=np.uint8)
        for lo in range(0, n_flat, _FOLD_BLOCK):
            m = -(-(min(lo + _FOLD_BLOCK, n_flat) - lo) // 4)
            residues[lo // 4 + 1:lo // 4 + 1 + m] = _fold4(
                staged[lo:lo + 4 * m].view("<u4"))
    else:
        residues = staged[:n_flat]
    return ScanStructures(k=k, base=base, n_sequences=len(lengths),
                          total_residues=int(lengths.sum()),
                          residues=residues, starts=starts, lengths=lengths)


def _two_bit_section(db, starts: List[int], lengths: List[int],
                     n_flat: int) -> np.ndarray:
    """*db*'s residues as a 2-bit section (:class:`TwoBitResidues`).

    Flat positions are staged one byte each, :data:`_FOLD_BLOCK` at a
    time — separators staged as 4, which the fold's mask reads as 0 —
    and each block is folded into its quarter of the section, so no
    one-byte copy of the fragment ever exists.
    """
    packed = np.zeros(-(-n_flat // 4) + 3, dtype=np.uint8)
    block = np.empty(_FOLD_BLOCK, dtype=np.uint8)
    i, n = 0, len(starts)
    for lo in range(0, n_flat, _FOLD_BLOCK):
        hi = min(lo + _FOLD_BLOCK, n_flat)
        block.fill(TWO_BIT_BASE)
        if i < n and starts[i] < lo:        # goes on from the last block
            s0, s1 = starts[i], starts[i] + lengths[i]
            block[:min(s1, hi) - lo] = db.sequence(i)[lo - s0:hi - s0]
            i += s1 <= hi
        while i < n and starts[i] + lengths[i] <= hi:
            s0 = starts[i] - lo
            block[s0:s0 + lengths[i]] = db.sequence(i)
            i += 1
        if i < n and lo <= starts[i] < hi:  # goes on in the next block
            block[starts[i] - lo:hi - lo] = \
                db.sequence(i)[:hi - starts[i]]
        m = -(-(hi - lo) // 4)
        packed[lo // 4 + 1:lo // 4 + 1 + m] = _fold4(block[:4 * m].view("<u4"))
    return packed


def _fold4(words: np.ndarray) -> np.ndarray:
    """Each ``<u4`` of four residues as one 2-bit-packed byte value."""
    folded = words & _LOW2
    folded *= _FOLD
    folded >>= 24
    return folded


class HitGroups(NamedTuple):
    """A batch scan's hits, grouped per (entry, subject) and kept flat:
    group ``g`` is entry ``eid[g]`` against subject ``sid[g]``, groups
    in ascending ``(eid, sid)``; hit ``i`` is subject position
    ``spos[i]`` (local) and query position ``qpos[i]`` of group
    ``gid[i]``, hits group-major and in scan order within a group."""

    eid: np.ndarray
    sid: np.ndarray
    gid: np.ndarray
    spos: np.ndarray
    qpos: np.ndarray


def scan_fragment(index: WordIndex, structs: ScanStructures
                  ) -> List[Tuple[int, np.ndarray, np.ndarray]]:
    """Scan a query word index against a packed fragment.

    Returns ``(sid, subject_positions, query_positions)`` triples in
    ascending ``sid`` order, one per sequence with at least one word
    hit; positions are local to the sequence, exactly as the
    per-sequence ``index.scan`` would have produced them.  This is the
    per-group view of :func:`scan_fragment_batch` for a batch of one.
    """
    hits = scan_fragment_batch(QueryBatch([index]), structs)
    cuts = np.flatnonzero(np.diff(hits.gid)) + 1
    return list(zip(hits.sid.tolist(), np.split(hits.spos, cuts),
                    np.split(hits.qpos, cuts)))


class QueryBatch:
    """N query word-indexes packed into one combined lookup structure.

    Scanning index by index pays one full pass over a fragment *per
    query orientation* (the presence-bitmap gather inside
    ``WordIndex.scan`` touches every window).  A batch folds every
    entry's words into one sorted table — ``unique_codes`` with
    ``offsets`` into parallel ``positions``/``eids`` arrays, plus one
    shared presence bitmap — so a single pass serves all N entries and
    every hit comes back tagged with the entry id it belongs to.  The
    pass reads the fragment's residue section itself: the stored 2-bit
    bytes through an 8-mer filter for nucleotide words
    (:meth:`_packed_hits` has the exactness argument,
    :meth:`_sub_word_table` the rule for taking it), dense per-chunk
    codes otherwise (:meth:`_dense_hits`).

    Entries are whatever the caller treats as independent scans; the
    batched search driver uses one entry per (query, orientation).  All
    indexes must share ``(k, base)``.  Within one subject position the
    expanded hits appear entry-major, and within an entry in that
    index's own order — so filtering the combined hit stream down to
    one entry reproduces exactly what ``index.scan`` would have
    returned for it (the byte-identity argument of the batched path).
    """

    def __init__(self, indexes: Sequence[WordIndex]):
        if not indexes:
            raise ValueError("QueryBatch needs at least one index")
        k, base = indexes[0].k, indexes[0].base
        for ix in indexes[1:]:
            if ix.k != k or ix.base != base:
                raise ValueError(
                    f"all indexes in a batch must share (k, base); got "
                    f"({ix.k}, {ix.base}) vs ({k}, {base})")
        self.k = k
        self.base = base
        codes_parts: List[np.ndarray] = []
        pos_parts: List[np.ndarray] = []
        eid_parts: List[np.ndarray] = []
        for eid, ix in enumerate(indexes):
            if ix.n_words == 0:
                continue
            counts = np.diff(ix.offsets)
            # ``positions`` is already stored code-major inside the
            # index; repeating the unique codes by their counts
            # reconstructs the aligned (code, position) pairs.
            codes_parts.append(np.repeat(ix.unique_codes, counts))
            pos_parts.append(ix.positions)
            eid_parts.append(np.full(ix.n_words, eid, dtype=np.int64))
        if codes_parts:
            codes = np.concatenate(codes_parts)
            positions = np.concatenate(pos_parts)
            eids = np.concatenate(eid_parts)
        else:
            codes = np.empty(0, dtype=np.int64)
            positions = np.empty(0, dtype=np.int64)
            eids = np.empty(0, dtype=np.int64)
        # Stable sort keeps, within one code, the entry-major order of
        # the concatenation — and within one entry, the index's own
        # (already code-sorted) position order.
        order = np.argsort(codes, kind="stable")
        codes = codes[order]
        self.positions = positions[order]
        self.eids = eids[order]
        self.unique_codes, starts = np.unique(codes, return_index=True)
        self.offsets = np.append(starts, len(codes)).astype(np.int64)
        space = base ** k
        if 0 < space <= WordIndex._BITMAP_LIMIT:
            self._present = np.zeros(space, dtype=bool)
            self._present[self.unique_codes] = True
        else:
            self._present = None
        self._sub_present = self._sub_word_table()
        # Stage 2 of the packed scan holds residues 4j-4 … 4j+11 in 32
        # bits; the word starting d = 3, 2, 1, 0 places before 4j ends
        # 12 + d - k residues short of the low end.
        self._word_shifts = 2 * (12 - k + np.arange(3, -1, -1))

    def _sub_word_table(self) -> Optional[np.ndarray]:
        """Presence table of every 8-mer the packed scan can meet, or
        ``None`` when this batch takes the dense scan.

        The packed scan looks up byte-aligned 8-mers only.  A word
        starting ``d`` = 0…3 places before an aligned position holds
        that 8-mer at its own offset ``d``, so the table has every
        query word's 8-mers at offsets 0…3.  Prefixes alone would lose
        every word with no successor in the table — the last words of a
        query and of each run a low-complexity mask leaves.

        Packed needs 2-bit symbols, the full-word bitmap, words of 11
        or 12 (a shorter one need not contain an aligned 8-mer, a
        longer one overflows the four bytes stage 2 reads) and a table
        that still filters: one rule, read from the table as built.
        """
        if (self.base != 4 or not 11 <= self.k <= 12
                or self._present is None):
            return None
        table = np.zeros(1 << 16, dtype=bool)
        for offset in range(4):
            table[(self.unique_codes >> 2 * (self.k - 8 - offset))
                  & 0xFFFF] = True
        if np.count_nonzero(table) > _MAX_TABLE_DENSITY * len(table):
            return None
        return table

    @property
    def step(self) -> int:
        """What ``scan_step`` reports: the packed scan looks at every
        4th window, the dense one at every window."""
        return 1 if self._sub_present is None else 4

    def _packed_hits(self, packed: np.ndarray, n_flat: int
                     ) -> Tuple[np.ndarray, np.ndarray, int]:
        """Candidate ``(positions, codes)`` of query words among *n_flat*
        flat positions, ascending, read from their 2-bit section
        *packed* as stored (:class:`TwoBitResidues`).

        Stage 1 looks up every aligned 8-mer — two adjacent bytes — in
        the 64 KiB table; stage 2 rebuilds, by shifts of the four bytes
        around each survivor, the four words that contain its 8-mer and
        tests them in the bitmap.  Nothing is lost: a word inside one
        sequence contains exactly one aligned 8-mer, which is one of
        its own sub-words, so stage 1 keeps it.  Separators and the
        padding read as symbol 0, which can only *add* candidates that
        cross a sequence end; :meth:`scan` drops those.
        """
        # packed[j + 1] holds positions 4j … 4j+3; the zero byte in
        # front and the two past the end keep j-1 … j+2 in range for
        # every j.
        n4 = n_flat // 4
        survivors = []
        for lo in range(0, n4, _SAMPLE_CHUNK):
            n = min(_SAMPLE_CHUNK, n4 - lo)
            pair = packed[lo + 1:lo + n + 2].astype(np.intp)
            key = pair[:-1] << 8
            key |= pair[1:]
            survivors.append(lo + np.nonzero(self._sub_present[key])[0])
        survivors = np.concatenate(survivors)
        mask = 4 ** self.k - 1
        pos_parts, code_parts = [], []
        for lo in range(0, len(survivors), _SAMPLE_CHUNK):
            j = survivors[lo:lo + _SAMPLE_CHUNK]
            span = packed[j].astype(np.intp)
            for i in (1, 2, 3):
                span <<= 8
                span |= packed[j + i]
            codes = ((span[:, None] >> self._word_shifts) & mask).ravel()
            hit = np.nonzero(self._present[codes])[0]
            pos_parts.append(4 * j[hit >> 2] - 3 + (hit & 3))
            code_parts.append(codes[hit])
        empty = np.empty(0, dtype=np.int64)
        return (np.concatenate(pos_parts or [empty]),
                np.concatenate(code_parts or [empty]), 4 * len(survivors))

    def _dense_hits(self, scat: Union[np.ndarray, TwoBitResidues]
                    ) -> Tuple[np.ndarray, np.ndarray, int]:
        """:meth:`_packed_hits` for any alphabet and word size: every
        window's code, derived a chunk at a time from the codes *scat*
        reads (Horner, separators as symbol 0) and tested in the bitmap
        — or, past the bitmap limit, against the sorted word list."""
        k, base, words = self.k, self.base, self.unique_codes
        n_windows = len(scat) - k + 1
        pos_parts, code_parts = [], []
        for lo in range(0, n_windows, _SAMPLE_CHUNK):
            digits = scat[lo:lo + _SAMPLE_CHUNK + k - 1] % base
            n = len(digits) - k + 1
            codes = np.zeros(n, dtype=np.int64)
            for i in range(k):
                codes *= base
                codes += digits[i:i + n]
            if self._present is not None:
                hit = np.nonzero(self._present[codes])[0]
            else:
                at = np.minimum(np.searchsorted(words, codes),
                                len(words) - 1)
                hit = np.nonzero(words[at] == codes)[0]
            pos_parts.append(lo + hit)
            code_parts.append(codes[hit])
        return (np.concatenate(pos_parts), np.concatenate(code_parts),
                n_windows)

    def scan(self, structs: ScanStructures
             ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Find all word hits of every entry in one pass over a fragment.

        Returns ``(sequence_ids, subject_positions, entry_ids,
        query_positions)``, one row per (subject word, matching entry
        word) pair in ascending flat order — the multi-entry,
        multi-sequence form of :meth:`WordIndex.scan`; positions are
        local to their sequence.
        """
        empty = (np.empty(0, dtype=np.int64),) * 4
        scat = structs.scat
        if len(scat) < self.k or len(self.unique_codes) == 0:
            return empty
        if self._sub_present is None:
            pos, codes, tested = self._dense_hits(scat)
        else:
            pos, codes, tested = self._packed_hits(structs.residues,
                                                   len(scat))
        prof = current_profile()
        if prof is not None:
            prof.counters["scan_step"] = self.step
            prof.count("scan_candidates", tested)
        # A candidate is a hit iff its window lies inside the sequence
        # its position maps to; the rest read a separator or the
        # padding as symbol 0.
        sids = np.searchsorted(structs.starts, pos, side="right") - 1
        local = pos - structs.starts[sids]
        real = (pos >= 0) & (local + self.k <= structs.lengths[sids])
        sids, local, codes = sids[real], local[real], codes[real]
        if len(sids) == 0:
            return empty
        uidx = np.searchsorted(self.unique_codes, codes)
        starts = self.offsets[uidx]
        counts = self.offsets[uidx + 1] - starts
        total = int(counts.sum())
        rep_starts = np.repeat(starts, counts)
        within = np.arange(total) - np.repeat(
            np.concatenate([[0], np.cumsum(counts)[:-1]]), counts)
        flat = rep_starts + within
        return (np.repeat(sids, counts), np.repeat(local, counts),
                self.eids[flat], self.positions[flat])


def scan_fragment_batch(batch: QueryBatch, structs: ScanStructures
                        ) -> HitGroups:
    """Scan a whole query batch against a packed fragment in one pass
    and group its hits per (entry, subject), flat (:class:`HitGroups`).

    For every entry the groups are exactly what a batch of that entry's
    index alone (:func:`scan_fragment`) produces.  Within an entry the
    scan runs in ascending flat order, so after one stable sort by entry
    a group starts wherever the entry or the subject changes.  Entry
    ids sort as the narrowest unsigned type that holds them: a stable
    sort of 8- or 16-bit keys is a radix pass, about 7x faster than
    sorting them as int64 (140 k hits of eight queries, 64 M residues).
    """
    sids, local, eids, qpos = batch.scan(structs)
    order = np.argsort(eids.astype(np.min_scalar_type(eids.max(initial=0))),
                       kind="stable")
    e, s = eids[order], sids[order]
    head = np.ones(len(e), dtype=bool)
    head[1:] = (e[1:] != e[:-1]) | (s[1:] != s[:-1])
    heads = np.flatnonzero(head)
    return HitGroups(e[heads], s[heads], np.cumsum(head) - 1, local[order],
                     qpos[order])


class ScanCache:
    """Bounded LRU cache of :class:`ScanStructures`, keyed by fragment.

    The key combines a per-database token (assigned on first use, so a
    recycled ``id()`` can never alias), the database's sequence and
    residue counts plus its mutation version (so adding a sequence
    invalidates stale entries), and the word size / alphabet base.

    Entries are evicted least-recently-used when either bound —
    ``max_entries`` or ``max_bytes`` — is exceeded; the most recent
    entry is always retained, even if it alone exceeds ``max_bytes``.
    """

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES,
                 max_bytes: int = DEFAULT_MAX_BYTES):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        if max_bytes < 1:
            raise ValueError("max_bytes must be >= 1")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._entries: "OrderedDict[tuple, ScanStructures]" = OrderedDict()
        self._finalized: set = set()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    def _db_key(self, db) -> tuple:
        token = db_token(db)
        if token not in self._finalized:
            self._finalized.add(token)
            try:
                weakref.finalize(db, self.evict, token)
            except TypeError:  # pragma: no cover
                pass
        return (token, len(db), db.total_residues,
                getattr(db, "_version", 0))

    def evict(self, token: int) -> int:
        """Explicitly drop every entry built from the database with
        *token*; returns how many entries were dropped.

        This is what the ``weakref`` finalizer of each cached
        database runs; callers may also drop a database early.
        """
        self._finalized.discard(token)
        keys = [k for k in self._entries if k[0][0] == token]
        for key in keys:
            del self._entries[key]
        return len(keys)

    # ------------------------------------------------------------------
    def get(self, db, k: int, base: int) -> ScanStructures:
        """Return the packed structures for *db*, building on miss."""
        key = (self._db_key(db), k, base)
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            return entry
        self.misses += 1
        entry = build_scan_structures(db, k, base)
        self._entries[key] = entry
        self._evict()
        return entry

    def put(self, db, k: int, base: int, structs: ScanStructures) -> None:
        """Seed the cache with externally built structures for *db*.

        Same LRU accounting as a miss.
        """
        key = (self._db_key(db), k, base)
        self._entries[key] = structs
        self._entries.move_to_end(key)
        self._evict()

    def _evict(self) -> None:
        while len(self._entries) > 1 and (
                len(self._entries) > self.max_entries
                or self.total_bytes > self.max_bytes):
            self._entries.popitem(last=False)
            self.evictions += 1

    # ------------------------------------------------------------------
    @property
    def total_bytes(self) -> int:
        return sum(e.nbytes for e in self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> Dict[str, int]:
        """Hit/miss/eviction counters plus current occupancy."""
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions, "entries": len(self._entries),
                "bytes": self.total_bytes}

    def clear(self) -> None:
        """Drop every cached entry (counters are kept)."""
        self._entries.clear()


_DEFAULT_CACHE = ScanCache()


def default_scan_cache() -> ScanCache:
    """The process-wide cache used by :func:`repro.blast.search.search`
    when no explicit cache is passed."""
    return _DEFAULT_CACHE
