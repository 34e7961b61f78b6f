"""K-mer word machinery: rolling word codes and the query word index.

BLAST builds a lookup table from the *query*'s words and scans each
database sequence against it (Altschul et al. 1990).  For nucleotide
search the table holds exact w-mers (default w=11); for protein search
it holds the *neighbourhood* of each query word: every w-mer whose
BLOSUM62 (or PSSM) score against the query word is at least the
threshold T (default w=3, T=11).

The neighbourhood is enumerated NCBI-style, as one pruned frontier
over every query position at once: words grow a letter at a time and a
prefix is dropped as soon as the best its remaining letters can score
leaves it under T.  The per-position loop over all ``n_letters**w``
words that this replaced is the test oracle's
(``tests/oracle_search.py::protein_neighbourhood``).
"""

from __future__ import annotations

from typing import Optional

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


def _word_mask(skip: np.ndarray, n_words: int) -> np.ndarray:
    """*skip* as a boolean word mask, refused unless it has one entry
    per word position."""
    skip = np.asarray(skip, dtype=bool)
    if len(skip) != n_words:
        raise ValueError(f"skip mask has {len(skip)} entries for "
                         f"{n_words} word positions")
    return skip


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
        if skip is not None:
            keep = ~_word_mask(skip, len(codes))
            codes, positions = codes[keep], positions[keep]
        return cls(codes, positions, k, 4)

    @classmethod
    def for_protein(cls, query: np.ndarray, scheme: ScoringScheme,
                    k: int = 3, threshold: int = 11,
                    skip: Optional[np.ndarray] = None) -> "WordIndex":
        """Neighbourhood index of a protein query.

        Every word scoring >= *threshold* against some query word is
        entered at that query position.  *skip* is as for
        :meth:`for_dna`.

        The alphabet size comes from the matrix *columns* (the subject
        axis) so rectangular position-specific matrices (PSI-BLAST
        PSSMs, rows = query positions) work unchanged.

        The words grow as one frontier over every unmasked position at
        once, a letter per step, and a prefix survives only while its
        score plus the best its remaining letters can add reaches the
        threshold (DESIGN.md §5i).
        """
        matrix = scheme.matrix
        n_letters = matrix.shape[1]
        m = max(len(query) - k + 1, 0)
        starts = np.arange(m)
        if skip is not None:
            starts = starts[~_word_mask(skip, m)]
        # rows[p, j] is the score of every letter against the query's
        # j-th residue of the word at starts[p]; sums of them are int64.
        rows = matrix[np.asarray(query)[starts[:, None] + np.arange(k)]]
        # need[p, j]: what letters 0..j-1 must score for the word to
        # still reach the threshold with the best letters j..k-1.
        need = np.full((len(starts), k + 1), threshold, dtype=np.int64)
        need[:, :k] -= np.cumsum(rows.max(axis=2)[:, ::-1], axis=1)[:, ::-1]
        word = np.arange(len(starts))
        codes = np.zeros(len(starts), dtype=np.int64)
        scores = np.zeros(len(starts), dtype=np.int64)
        for j in range(k):
            gain = rows[word, j]
            # Row-major nonzero keeps each parent's children in letter
            # order behind its predecessors', so the frontier stays
            # sorted by (position, code).
            parent, letter = np.nonzero(
                gain >= (need[word, j + 1] - scores)[:, None])
            scores = scores[parent] + gain[parent, letter]
            word = word[parent]
            codes = codes[parent] * n_letters + letter
        return cls(codes, starts[word], k, n_letters)

    # ------------------------------------------------------------------
    @property
    def n_words(self) -> int:
        return len(self.positions)

    def __contains__(self, code: int) -> bool:
        i = np.searchsorted(self.unique_codes, code)
        return i < len(self.unique_codes) and self.unique_codes[i] == code
