"""Seed selection from word hits.

Word hits (subject position, query position) pairs are grouped by
diagonal (``subject - query``).  Nucleotide search extends every hit
(one-hit seeding, as in the 1990 BLAST); protein search uses the two-hit
heuristic of Gapped BLAST (Altschul et al. 1997): extension triggers
only when two non-overlapping hits lie on the same diagonal within a
window of A residues.

The search driver calls the grouped forms, over the whole hit stream of
a batch as the scan grouped it (``scankernel.HitGroups``: a group id per
hit, one group per (query orientation, subject)), so no Python runs per
group here.  The single-group definitions they are specified against
(``one_hit_seeds``, ``two_hit_seeds``) live beside the per-sequence
oracle, ``tests/oracle_search.py``, which is their only other caller.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np


def _sorted_hit_keys(gids: np.ndarray, spos: np.ndarray,
                     qpos: np.ndarray, window: int):
    """Each hit as one int64 key, ``(group, diagonal) * stride + spos``,
    sorted: group-major, then by diagonal and subject position.
    ``stride`` is the largest position + 1 + *window*, so two keys
    differ by at most *window* exactly when they are hits of one
    (group, diagonal) that close.  Returns the keys and their decoder
    back to ``(gid, qpos, spos)`` arrays."""
    diag = spos - qpos
    dmin = int(diag.min())
    n_diag = int(diag.max()) - dmin + 1
    stride = int(spos.max()) + 1 + window
    key = np.multiply(gids, n_diag, dtype=np.int64)
    key += diag
    key -= dmin
    pairs = None
    if (int(key.max()) + 1) * stride >= 2 ** 63:
        # The key would not fit: rank the (group, diagonal) pairs —
        # same order, at most one rank per hit.
        pairs, key = np.unique(key, return_inverse=True)
    key *= stride
    key += spos
    key.sort()

    def decode(keys: np.ndarray):
        gd, s = np.divmod(keys, stride)
        if pairs is not None:
            gd = pairs[gd]
        g, d = np.divmod(gd, n_diag)
        return g, s - (d + dmin), s
    return key, decode


def one_hit_seeds_grouped(gids: np.ndarray, spos: np.ndarray,
                          qpos: np.ndarray
                          ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One-hit seeding across many hit groups in one pass: every word
    hit is a seed, deduplicated to the first hit per run of consecutive
    hits on a diagonal (consecutive overlapping word hits would all
    extend to the same HSP).

    *gids* labels each (subject position, query position) hit row with
    its group — one group per (query orientation, subject) pair in the
    batched scan.  One sort of one int64 key per hit
    (:func:`_sorted_hit_keys`) serves every group: with a window of 1 a
    hit continues a run exactly when its key is one more than the
    previous one — same group and diagonal, next subject position.

    Returns ``(gid, qpos, spos)`` seed arrays ordered group-major and,
    within a group, by (diagonal, subject position) — each group's
    slice is element-for-element what the oracle's ``one_hit_seeds``
    returns for that group alone.
    """
    if len(spos) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    key, decode = _sorted_hit_keys(gids, spos, qpos, 1)
    first = np.ones(len(key), dtype=bool)
    first[1:] = np.diff(key) != 1
    return decode(key[first])


def two_hit_seeds_grouped(gids: np.ndarray, spos: np.ndarray,
                          qpos: np.ndarray, word_size: int, window: int = 40
                          ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Two-hit seeding across many hit groups in one pass: the
    *second* hit of a close non-overlapping pair on one diagonal
    becomes the seed (extension then runs through the first).

    Same contract as :func:`one_hit_seeds_grouped` (non-negative
    positions; ``(gid, qpos, spos)`` back group-major, then by
    diagonal and subject position): each group's slice is element for
    element what the oracle's ``two_hit_seeds`` returns for that group
    alone.

    Each hit becomes one sorted int64 key (:func:`_sorted_hit_keys`);
    ``qpos = spos - diagonal`` is recovered for the hits that fire, not
    carried.  Two adjacent keys differ by at most *window* exactly when
    they are hits of one (group, diagonal) that close, so the stored-hit
    scan runs once over the key differences, starting afresh wherever
    one exceeds *window*.  That is exact: the
    stored hit and the last seed are at or before the previous hit, so
    the hit after such a gap is outside the stored hit's window (it
    cannot fire and becomes the stored hit) and past the region the
    last seed claimed, as is every later one.

    By the same argument a hit with **no** neighbour within *window*
    fires nothing and changes nothing, and is dropped before the
    Python loop (63 376 hits → 39 727 for benchmark aa query 0).  A
    hit whose only close neighbour *overlaps* it (closer than
    *word_size*) must stay: it can be the stored hit a later one pairs
    with.  The transient is the key (half a megabyte there) plus one
    list of gaps — well under the scan's own ~5 MB.
    """
    empty = np.empty(0, dtype=np.int64)
    if len(spos) < 2:
        return empty, empty, empty
    key, decode = _sorted_hit_keys(gids, spos, qpos, window)
    near = np.diff(key) <= window
    keep = np.zeros(len(key), dtype=bool)
    keep[1:] = near
    keep[:-1] |= near
    key = key[keep]

    # The oracle's stored-hit scan (``two_hit_seeds``), in distances:
    # *dist* from the stored hit, *since_seed* from the last seed (it
    # claims the window after it; "none yet" reads as a full window ago).
    fired: List[int] = []
    dist, since_seed = 0, window
    for i, gap in enumerate(np.diff(key).tolist(), 1):
        if gap > window:
            dist, since_seed = 0, window
            continue
        dist += gap
        since_seed += gap
        if dist < word_size:
            continue
        if dist <= window and since_seed >= window:
            fired.append(i)
            since_seed = 0
        dist = 0
    return decode(key[fired])
