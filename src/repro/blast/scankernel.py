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

* :func:`build_scan_structures` concatenates a fragment's encoded
  sequences into one flat array with one-symbol sentinel separators,
  computes rolling word codes for the whole concatenation **once**, and
  masks out every window that spans a sentinel (those windows would
  otherwise manufacture chimeric words across sequence boundaries);
* :func:`scan_fragment` runs a query :class:`~repro.blast.kmer.WordIndex`
  against the cached codes in one shot and maps the hits back to
  ``(sequence id, subject offset)`` groups via ``np.searchsorted`` on
  the per-sequence window counts;
* :class:`QueryBatch` folds every query orientation's words into one
  table and finds their hits in one pass over the codes.  For
  nucleotide words that pass is *strided*: it looks up every 4th
  window's leading 8-mer in a 64 KiB table and tests full 11-mers only
  around the survivors (NCBI blastn's ``stride = W - lut_W + 1``), and
  still returns exactly the dense hit set;
* :class:`ScanCache` keeps the expensive per-fragment artifacts
  (concatenation, offsets table, word codes) in a bounded LRU keyed by
  fragment identity, so a stream of queries against the same fragments
  — the warm-cache and query-stream workloads — pays the packing cost
  once per fragment.

The kernel is exact: for every window that lies inside one sequence the
concatenated code equals the per-sequence code, so downstream seeding /
extension sees byte-identical hits (``tests/test_blast_scankernel.py``
asserts old-vs-new equivalence on randomized databases).
"""

from __future__ import annotations

import itertools
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.blast.kmer import WordIndex
from repro.blast.profile import current_profile

#: Default bounds of the process-wide ScanCache: at most 8 fragments
#: and ~256 MB of cached structures (a 1 M-residue fragment costs
#: 5 bytes/residue: 1 for the concatenation, 4 for the int32 codes).
DEFAULT_MAX_ENTRIES = 8
DEFAULT_MAX_BYTES = 256 * 1024 * 1024

#: Fullest a :class:`QueryBatch` sub-word table may be.  Each stage-1
#: false positive costs ``step`` gathers through the full bitmap, so at
#: 0.2 and step 4 stage 2 does at most 0.2 of the dense gather's work.
_MAX_TABLE_DENSITY = 0.2

#: Sampled codes per stage-1 gather.  The gather's temporaries (the
#: shifted copy, numpy's index widening, the boolean result: 13 bytes
#: per sample) then stay in L2 instead of streaming 13 MB through DRAM
#: on a 4 M-residue fragment — measured 7.5 -> 5.8 ms, flat from 2**14
#: to 2**18.
_SAMPLE_CHUNK = 1 << 15

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


@dataclass
class ScanStructures:
    """Cached per-fragment scan artifacts.

    ``concat`` holds every sequence of the fragment back to back,
    separated by single sentinel symbols (value ``base``, one above the
    alphabet).  ``codes`` are the rolling word codes of every window
    that does **not** span a sentinel, sequence after sequence, so a
    code's rank inside its sequence's run (:attr:`window_ends`) is its
    subject position.  ``starts``/``lengths`` give each sequence's
    slice of ``concat``.
    """

    k: int
    base: int
    n_sequences: int
    total_residues: int
    concat: np.ndarray      # uint8, length sum(lengths) + (n-1) sentinels
    starts: np.ndarray      # int64 (n,), start offset of each sequence
    lengths: np.ndarray     # int64 (n,)
    codes: np.ndarray       # int32 (int64 past 2**31), valid windows only

    @property
    def nbytes(self) -> int:
        """Approximate memory footprint of the cached arrays."""
        return (self.concat.nbytes + self.starts.nbytes +
                self.lengths.nbytes + self.codes.nbytes)

    def subject(self, sid: int) -> np.ndarray:
        """View of sequence *sid* inside the concatenation."""
        lo = int(self.starts[sid])
        return self.concat[lo:lo + int(self.lengths[sid])]

    @property
    def window_ends(self) -> np.ndarray:
        """Exclusive end index in ``codes`` of each sequence's windows
        (a sequence shorter than ``k`` has none and repeats the end
        before it)."""
        return np.cumsum(np.maximum(self.lengths - (self.k - 1), 0))

    @property
    def code_pos(self) -> np.ndarray:
        """Position in ``concat`` of each code's window: derived on
        every read, never stored.  The definition the window-space hit
        mapping of :func:`scan_fragment_batch` is tested against."""
        return _window_positions(self.starts, self.lengths, self.k)


def _window_positions(starts: np.ndarray, lengths: np.ndarray,
                      k: int) -> np.ndarray:
    """Concat position of every window lying wholly inside one sequence.

    The layout says where those are — window w of sequence i sits at
    ``starts[i] + w`` — so the positions are built directly: as an
    offset from the window's rank in the valid list that is one constant
    per sequence, added in place.  One full-length temporary, on
    purpose: these are a pack build's peak heap, and glibc keeps what
    the build frees.
    """
    per_seq = np.maximum(lengths - (k - 1), 0)
    nz = per_seq > 0
    reps = per_seq[nz]
    positions = np.arange(int(reps.sum()), dtype=np.int64)
    positions += np.repeat(starts[nz] - (np.cumsum(reps) - reps), reps)
    return positions


def build_scan_structures(db, k: int, base: int) -> ScanStructures:
    """Pack one database fragment for bulk scanning.

    *db* is anything with the :class:`~repro.blast.seqdb.SequenceDB`
    access surface (``__len__``, ``lengths``, ``sequence``).  Sequences
    shorter than *k* (including empty ones) contribute no valid windows
    and therefore can never produce hits — exactly like the
    per-sequence scan, where their code arrays are empty.
    """
    n = len(db)
    lengths = np.asarray(db.lengths() if n else [], dtype=np.int64)
    # Sequence i starts after all previous sequences plus i sentinels.
    starts = np.zeros(n, dtype=np.int64)
    if n:
        np.cumsum(lengths[:-1] + 1, out=starts[1:])
    total = int(lengths.sum()) if n else 0
    length = total + max(n - 1, 0)

    # Lazy databases expose a bulk loader: one contiguous payload read
    # beats n seek+read round trips when packing a whole fragment.
    preload = getattr(db, "preload_sequences", None)
    if preload is not None:
        preload()

    sentinel = base
    concat = np.full(length, sentinel, dtype=np.uint8)
    for i in range(n):
        lo = int(starts[i])
        concat[lo:lo + int(lengths[i])] = db.sequence(i)

    n_windows = length - k + 1
    if n_windows <= 0:
        codes = np.empty(0, dtype=np.int64)
    else:
        # Rolling codes by Horner evaluation: k passes over the flat
        # array instead of a (n_windows, k) strided matmul.  Sentinel
        # digits are worth ``base``, so the widest intermediate is
        # bounded by (base+1)**k — int32 when that fits (every standard
        # word size), int64 otherwise.
        code_dtype = np.int32 if (base + 1) ** k < 2 ** 31 else np.int64
        codes_full = np.zeros(n_windows, dtype=code_dtype)
        for j in range(k):
            codes_full *= base
            codes_full += concat[j:j + n_windows]
        # A window is valid iff it lies wholly inside one sequence.
        codes = codes_full[_window_positions(starts, lengths, k)]

    return ScanStructures(k=k, base=base, n_sequences=n,
                          total_residues=total, concat=concat,
                          starts=starts, lengths=lengths, codes=codes)


def scan_fragment(index: WordIndex, structs: ScanStructures
                  ) -> List[Tuple[int, np.ndarray, np.ndarray]]:
    """Scan a query word index against a packed fragment.

    Returns ``(sid, subject_positions, query_positions)`` triples in
    ascending ``sid`` order, one per sequence with at least one word
    hit; positions are local to the sequence, exactly as the
    per-sequence ``index.scan`` would have produced them.  This is
    :func:`scan_fragment_batch` for a batch of one.
    """
    return [group[1:] for group in
            scan_fragment_batch(QueryBatch([index]), structs)]


class QueryBatch:
    """N query word-indexes packed into one combined lookup structure.

    The serial driver pays one full pass over a fragment's cached word
    codes *per query orientation* (the presence-bitmap gather inside
    ``WordIndex.scan`` touches every code).  A batch folds every
    entry's words into one sorted table — ``unique_codes`` with
    ``offsets`` into parallel ``positions``/``eids`` arrays, plus one
    shared presence bitmap — so a single pass serves all N entries and
    every hit comes back tagged with the entry id it belongs to.  When
    the alphabet is a power of two the pass samples every ``step``-th
    code through a small sub-word table first and consults the bitmap
    only near the survivors (:meth:`_hit_positions` has the exactness
    argument, :meth:`_choose_step` the rule for ``step``).

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
        self.n_entries = len(indexes)
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
        self.step = self._choose_step()
        self._sub_present = self._sub_word_table(self.step)

    def _choose_step(self) -> int:
        """The scan's sampling step for this batch's words.

        The largest of 4/3/2 that keeps the sub-word table at most a
        fifth full (counting every sub-word as distinct), because each
        stage-1 false positive costs ``step`` full-word tests.  It is a
        function of the query words only.  Non-power-of-two alphabets
        (protein), code spaces without a bitmap and batches too large
        for step 2 get step 1, the dense gather.
        """
        n_unique = len(self.unique_codes)
        if (self._present is None or self.base & (self.base - 1)
                or not n_unique):
            return 1
        for step in (4, 3, 2):
            sub_len = self.k - step + 1
            if sub_len >= 1 and step * n_unique <= _MAX_TABLE_DENSITY * (
                    self.base ** sub_len):
                return step
        return 1

    def _sub_word_table(self, step: int) -> Optional[np.ndarray]:
        """Presence table of the sub-words a step-*step* scan looks up.

        The scan tests only every ``step``-th window, by its leading
        ``k - step + 1`` symbols, so the table holds every sub-word of
        that length at offsets ``0 … step-1`` of every query word: a
        window ``d`` places before a sampled one shares that sub-word
        at its own offset ``d``.  Prefixes alone would lose every word
        with no successor in the table — the last words of a query and
        of each run a low-complexity mask leaves.
        """
        if step == 1:
            return None
        bits = self.base.bit_length() - 1
        table = np.zeros(self.base ** (self.k - step + 1), dtype=bool)
        for offset in range(step):
            table[(self.unique_codes >> bits * (step - 1 - offset))
                  & (len(table) - 1)] = True
        return table

    @property
    def n_words(self) -> int:
        return len(self.positions)

    def _hit_positions(self, subject_codes: np.ndarray,
                       window_ends: np.ndarray) -> np.ndarray:
        """Ascending indices of the subject codes that are query words.

        Exactly ``np.nonzero(self._present[subject_codes])[0]``, found
        in two stages when ``step > 1``.  Stage 1 gathers every
        ``step``-th code's leading sub-word through the small table;
        stage 2 tests the full word, through the bitmap, only at the
        ``step`` windows ending at each stage-1 hit and at the last
        ``step - 1`` windows of every sequence.  Nothing is returned
        that failed the bitmap, and nothing is lost: a hit window has a
        sampled window at most ``step - 1`` places ahead of it, which
        either lies in the same sequence — then it starts with one of
        the hit's sub-words and stage 1 keeps it — or does not, and
        then the hit is one of its sequence's trailing windows.
        """
        step = self.step
        if step == 1:
            hits = np.nonzero(self._present[subject_codes])[0]
            tested = len(subject_codes)
        else:
            lead_shift = (self.base.bit_length() - 1) * (step - 1)
            lead = subject_codes[::step]
            sampled = np.concatenate([
                lo + np.nonzero(self._sub_present[
                    lead[lo:lo + _SAMPLE_CHUNK] >> lead_shift])[0]
                for lo in range(0, len(lead), _SAMPLE_CHUNK)])
            back = np.arange(step - 1, -1, -1, dtype=np.int64)
            near_sample = (sampled * step)[:, None] - back
            # A sequence's windows are contiguous in the code array, so
            # the window ``d`` places before its end is its own unless
            # it has fewer than ``d`` — then it is an earlier sequence's
            # (a harmless extra test) or negative (dropped).
            trailing = window_ends[:, None] - back[:-1]
            cand = np.concatenate([near_sample.ravel(), trailing.ravel()])
            cand = cand[cand >= 0]
            tested = len(cand)
            # Near-sample candidates are ascending and distinct; only
            # the few trailing ones are out of place or repeated, which
            # a stable (run-merging) sort undoes in linear time.
            hits = np.sort(cand[self._present[subject_codes[cand]]],
                           kind="stable")
            first = np.ones(len(hits), dtype=bool)
            first[1:] = hits[1:] != hits[:-1]
            hits = hits[first]
        prof = current_profile()
        if prof is not None:
            prof.counters["scan_step"] = step
            prof.count("scan_candidates", tested)
        return hits

    def scan(self, subject_codes: np.ndarray, window_ends: np.ndarray
             ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Find all word hits of every entry in one subject pass.

        Returns ``(subject_positions, entry_ids, query_positions)``,
        one row per (subject word, matching entry word) pair — the
        multi-entry form of :meth:`WordIndex.scan`.  *subject_codes*
        are the windows of one or more sequences back to back and
        *window_ends* the exclusive end index of each sequence's run
        (``ScanStructures.window_ends``): the strided pass must know
        where a sequence stops.
        """
        empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
                 np.empty(0, dtype=np.int64))
        if len(subject_codes) == 0 or len(self.unique_codes) == 0:
            return empty
        if self._present is not None:
            spos = self._hit_positions(subject_codes, window_ends)
            if len(spos) == 0:
                return empty
            uidx = np.searchsorted(self.unique_codes, subject_codes[spos])
        else:
            idx = np.searchsorted(self.unique_codes, subject_codes)
            idx_clipped = np.minimum(idx, len(self.unique_codes) - 1)
            valid = self.unique_codes[idx_clipped] == subject_codes
            spos = np.nonzero(valid)[0]
            if len(spos) == 0:
                return empty
            uidx = idx_clipped[spos]
        starts = self.offsets[uidx]
        counts = self.offsets[uidx + 1] - starts
        total = int(counts.sum())
        rep_starts = np.repeat(starts, counts)
        within = np.arange(total) - np.repeat(
            np.concatenate([[0], np.cumsum(counts)[:-1]]), counts)
        flat = rep_starts + within
        return (np.repeat(spos, counts), self.eids[flat],
                self.positions[flat])


def scan_fragment_batch(batch: QueryBatch, structs: ScanStructures
                        ) -> List[Tuple[int, int, np.ndarray, np.ndarray]]:
    """Scan a whole query batch against a packed fragment in one pass.

    Returns ``(entry_id, sid, subject_positions, query_positions)``
    groups, entry-major with ascending ``sid`` inside each entry.  For
    every entry the groups are exactly what a batch of that entry's
    index alone (:func:`scan_fragment`) produces — one combined pass
    over the codes, ``searchsorted`` hit-mapping pass, and grouping sort
    serve all N entries instead of N separate traversals.
    """
    from repro.blast.seed import group_hits_by_entry

    ends = structs.window_ends
    cpos, eids, qpos = batch.scan(structs.codes, ends)
    if len(cpos) == 0:
        return []
    # A hit belongs to the first sequence whose run ends past it, and
    # its rank inside that run is its subject position.
    sids = np.searchsorted(ends, cpos, side="right")
    local = cpos - np.concatenate(([0], ends))[sids]
    return group_hits_by_entry(eids, sids, local, qpos)


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

        The ``weakref`` finalizer only covers same-process lifetime: a
        pack attached in a pool worker lives in *that* process, so a
        long-lived parent would otherwise pin entries for children that
        are already dead.  The pool teardown path calls this directly.
        """
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

        The process pool uses this to prime a worker's cache with
        shared-memory-backed packs so the search driver attaches
        zero-copy instead of repacking.  Same LRU accounting as a miss.
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
