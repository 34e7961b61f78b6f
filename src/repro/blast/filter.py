"""Low-complexity filtering (NCBI's DUST and SEG equivalents).

Real BLAST masks low-complexity query regions before seeding —
otherwise poly-A runs, microsatellites, and biased protein segments
flood the hit lists with biologically meaningless matches.

* :func:`dust_mask` — nucleotide filter, after Tatusov & Lipman's DUST:
  score 64-base windows by triplet over-representation.
* :func:`seg_mask` — protein filter in the spirit of SEG (Wootton &
  Federhen): Shannon entropy of 12-residue windows.

Masks are boolean arrays (True = masked); :func:`masked_positions` maps
a mask to query word positions the :class:`~repro.blast.kmer.WordIndex`
should skip.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.blast.alphabet import PROTEIN

#: DUST masks a 64-base window (stepping half a window) scoring above
#: 2.0 (random sequence scores ~0.5); SEG a 12-residue one under 2.2 bits.
DUST_WINDOW, DUST_THRESHOLD = 64, 2.0
SEG_WINDOW, SEG_THRESHOLD = 12, 2.2


def dust_score(window: np.ndarray) -> float:
    """DUST score of one encoded-DNA window: sum over triplets of
    c*(c-1)/2, normalised by window length - 3 (larger = lower
    complexity; a homopolymer scores ~ (w-2)(w-3)/2 / (w-3))."""
    w = len(window)
    if w < 4:
        return 0.0
    trip = window[:-2].astype(np.int64) * 16 + window[1:-1] * 4 + window[2:]
    counts = np.bincount(trip, minlength=64)
    raw = float((counts * (counts - 1) // 2).sum())
    return raw / (w - 3)


def dust_mask(encoded: np.ndarray) -> np.ndarray:
    """Boolean mask of low-complexity bases (True = masked).

    Windows whose DUST score exceeds :data:`DUST_THRESHOLD` are masked
    whole; 2.0 leaves random sequence untouched (its expected score is
    ~0.5) while catching homopolymers and short tandem repeats.
    """
    enc = np.asarray(encoded)
    n = len(enc)
    mask = np.zeros(n, dtype=bool)
    if n < 4:
        return mask
    for start in range(0, n, DUST_WINDOW // 2):
        chunk = enc[start:start + DUST_WINDOW]
        if len(chunk) < 4:
            break
        if dust_score(chunk) > DUST_THRESHOLD:
            mask[start:start + len(chunk)] = True
        if start + DUST_WINDOW >= n:
            break
    return mask


def shannon_entropy(window: np.ndarray, n_symbols: int) -> float:
    """Shannon entropy (bits) of a window of symbol codes."""
    counts = np.bincount(window.astype(np.int64), minlength=n_symbols)
    probs = counts[counts > 0] / len(window)
    return float(-(probs * np.log2(probs)).sum())


def seg_mask(encoded: np.ndarray) -> np.ndarray:
    """Boolean mask of low-entropy protein segments (True = masked).

    Random 20-letter protein windows of length 12 have entropy ~3.4
    bits; biased segments (poly-Q, PEST regions) fall below
    :data:`SEG_THRESHOLD`.
    """
    enc = np.asarray(encoded)
    n = len(enc)
    mask = np.zeros(n, dtype=bool)
    if n < SEG_WINDOW:
        return mask
    for start in range(0, n - SEG_WINDOW + 1):
        if shannon_entropy(enc[start:start + SEG_WINDOW],
                           len(PROTEIN)) < SEG_THRESHOLD:
            mask[start:start + SEG_WINDOW] = True
    return mask


def masked_positions(mask: np.ndarray, word_size: int) -> np.ndarray:
    """Word start positions that overlap any masked base.

    A word starting at p covers [p, p+word_size); it is skipped if any
    covered position is masked.
    """
    n = len(mask)
    n_words = n - word_size + 1
    if n_words <= 0:
        return np.zeros(0, dtype=bool)
    windows = np.lib.stride_tricks.sliding_window_view(mask, word_size)
    return windows.any(axis=1)


def apply_query_filter(encoded: np.ndarray, is_protein: bool,
                       word_size: int) -> Tuple[np.ndarray, np.ndarray]:
    """Convenience: (base mask, word-position mask) for a query."""
    mask = seg_mask(encoded) if is_protein else dust_mask(encoded)
    return mask, masked_positions(mask, word_size)
