"""K-mer word machinery: rolling word codes and the query word index.

BLAST builds a lookup table from the *query*'s words and scans each
database sequence against it (Altschul et al. 1990).  For nucleotide
search the table holds exact w-mers (default w=11); for protein search
it holds the *neighbourhood* of each query word: every w-mer whose
BLOSUM62 score against the query word is at least the threshold T
(default w=3, T=11).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Tuple

import numpy as np

from repro.blast.score import ScoringScheme


def word_codes(encoded: np.ndarray, k: int, base: int) -> np.ndarray:
    """Rolling base-``base`` codes of every k-mer of *encoded*.

    Returns an empty array when the sequence is shorter than k.
    """
    enc = np.asarray(encoded, dtype=np.int64)
    n = len(enc)
    if n < k:
        return np.empty(0, dtype=np.int64)
    powers = base ** np.arange(k - 1, -1, -1, dtype=np.int64)
    windows = np.lib.stride_tricks.sliding_window_view(enc, k)
    return windows @ powers


def dna_word_codes(encoded: np.ndarray, k: int = 11) -> np.ndarray:
    return word_codes(encoded, k, 4)


#: LRU bound on the all-words cache.  Each entry is an
#: ``(n_letters**k, k)`` int array — 25**3 × 3 × 8 B ≈ 375 KB for the
#: standard protein case, but exotic (k, alphabet) pairs grow fast, so
#: the cache holds at most this many entries.
_NEIGHBOR_CACHE_MAX = 4

_NEIGHBOR_CACHE: "OrderedDict[Tuple[int, int], np.ndarray]" = OrderedDict()


def _all_words(k: int, n_letters: int) -> np.ndarray:
    """(n_letters**k, k) array of every possible word, LRU-cached."""
    key = (k, n_letters)
    cached = _NEIGHBOR_CACHE.get(key)
    if cached is None:
        grids = np.meshgrid(*[np.arange(n_letters)] * k, indexing="ij")
        cached = np.stack([g.ravel() for g in grids], axis=1)
        _NEIGHBOR_CACHE[key] = cached
        while len(_NEIGHBOR_CACHE) > _NEIGHBOR_CACHE_MAX:
            _NEIGHBOR_CACHE.popitem(last=False)
    else:
        _NEIGHBOR_CACHE.move_to_end(key)
    return cached


class WordIndex:
    """Lookup table from word code to query positions.

    The search driver folds the indexes of a batch into one
    :class:`~repro.blast.scankernel.QueryBatch` and scans that; the
    one-index, one-subject scan is the oracle's
    (``tests/oracle_search.py::word_index_scan``)."""

    #: Largest code space for which the batch scan keeps a direct
    #: presence bitmap (4**11 = 4 Mi entries = 4 MiB of bools; DNA
    #: w<=11, protein w<=3).
    _BITMAP_LIMIT = 1 << 26

    def __init__(self, codes: np.ndarray, positions: np.ndarray, k: int, base: int):
        """Build from parallel arrays: ``codes[i]`` occurs at query
        position ``positions[i]``.  Prefer the classmethods."""
        order = np.argsort(codes, kind="stable")
        codes = codes[order]
        positions = positions[order]
        self.k = k
        self.base = base
        # Unique codes with offsets into the concatenated positions.
        self.unique_codes, starts = np.unique(codes, return_index=True)
        self.offsets = np.append(starts, len(codes)).astype(np.int64)
        self.positions = positions.astype(np.int64)

    # ------------------------------------------------------------------
    @classmethod
    def for_dna(cls, query: np.ndarray, k: int = 11,
                skip: Optional[np.ndarray] = None) -> "WordIndex":
        """Exact-word index of a DNA query.

        *skip*, when given, is a boolean array over word positions
        (True = do not index, e.g. low-complexity regions masked by
        :func:`repro.blast.filter.dust_mask`)."""
        codes = dna_word_codes(query, k)
        positions = np.arange(len(codes))
        if skip is not None and len(skip) == len(codes):
            keep = ~np.asarray(skip, dtype=bool)
            codes, positions = codes[keep], positions[keep]
        return cls(codes, positions, k, 4)

    @classmethod
    def for_protein(cls, query: np.ndarray, scheme: ScoringScheme,
                    k: int = 3, threshold: int = 11,
                    skip: Optional[np.ndarray] = None) -> "WordIndex":
        """Neighbourhood index of a protein query.

        Every word scoring >= *threshold* against some query word is
        entered at that query position.

        The alphabet size comes from the matrix *columns* (the subject
        axis) so rectangular position-specific matrices (PSI-BLAST
        PSSMs, rows = query positions) work unchanged.
        """
        n_letters = scheme.matrix.shape[1]
        m = len(query) - k + 1
        if m <= 0:
            return cls(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
                       k, n_letters)
        words = _all_words(k, n_letters)                   # (W, k)
        powers = n_letters ** np.arange(k - 1, -1, -1, dtype=np.int64)
        all_codes = words @ powers                         # (W,)
        codes_out = []
        pos_out = []
        for qpos in range(m):
            if skip is not None and qpos < len(skip) and skip[qpos]:
                continue
            qword = query[qpos:qpos + k]
            # score of every candidate word against this query word
            scores = np.zeros(len(words), dtype=np.int64)
            for j in range(k):
                scores += scheme.matrix[qword[j], words[:, j]]
            hits = all_codes[scores >= threshold]
            codes_out.append(hits)
            pos_out.append(np.full(len(hits), qpos, dtype=np.int64))
        codes = np.concatenate(codes_out) if codes_out else np.empty(0, np.int64)
        positions = np.concatenate(pos_out) if pos_out else np.empty(0, np.int64)
        return cls(codes, positions, k, n_letters)

    # ------------------------------------------------------------------
    @property
    def n_words(self) -> int:
        return len(self.positions)

    def __contains__(self, code: int) -> bool:
        i = np.searchsorted(self.unique_codes, code)
        return i < len(self.unique_codes) and self.unique_codes[i] == code

    def query_positions(self, code: int) -> np.ndarray:
        i = np.searchsorted(self.unique_codes, code)
        if i >= len(self.unique_codes) or self.unique_codes[i] != code:
            return np.empty(0, dtype=np.int64)
        return self.positions[self.offsets[i]:self.offsets[i + 1]]
