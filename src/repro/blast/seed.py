"""Seed selection from word hits.

Word hits (subject position, query position) pairs are grouped by
diagonal (``subject - query``).  Nucleotide search extends every hit
(one-hit seeding, as in the 1990 BLAST); protein search uses the two-hit
heuristic of Gapped BLAST (Altschul et al. 1997): extension triggers
only when two non-overlapping hits lie on the same diagonal within a
window of A residues.

The search driver calls the grouped forms, over the whole hit stream of
a batch.  The single-group definitions they are specified against
(``one_hit_seeds``, ``two_hit_seeds``) live beside the per-sequence
oracle, ``tests/oracle_search.py``, which is their only other caller.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np


def group_hits_by_entry(eids: np.ndarray, sids: np.ndarray,
                        spos: np.ndarray, qpos: np.ndarray
                        ) -> List[Tuple[int, int, np.ndarray, np.ndarray]]:
    """Vectorized per-(entry, subject) grouping of batched scan hits.

    The four arrays are parallel rows of a multi-query scan: entry id
    (one per query orientation), subject sequence id, subject-local
    position, query position.  Rows must arrive scan-ordered — within
    one entry, ascending subject position — which is what
    ``QueryBatch.scan`` hit-mapping produces.  One stable sort by entry
    id replaces the per-query Python grouping loop: it preserves each
    entry's scan order (so subject ids stay non-decreasing inside an
    entry and group boundaries are just adjacent differences), and the
    per-group slices come back exactly as the per-query
    ``scan_fragment`` path would have built them.

    Returns ``(entry_id, sid, subject_positions, query_positions)``
    groups, entry-major, ascending ``sid`` within an entry.
    """
    if len(eids) == 0:
        return []
    order = np.argsort(eids, kind="stable")
    e = eids[order]
    s = sids[order]
    sp = spos[order]
    qp = qpos[order]
    cuts = np.nonzero((e[1:] != e[:-1]) | (s[1:] != s[:-1]))[0] + 1
    bounds = np.concatenate([[0], cuts, [len(e)]])
    return [(int(e[bounds[t]]), int(s[bounds[t]]),
             sp[bounds[t]:bounds[t + 1]], qp[bounds[t]:bounds[t + 1]])
            for t in range(len(bounds) - 1)]


def one_hit_seeds_grouped(gids: np.ndarray, spos: np.ndarray,
                          qpos: np.ndarray
                          ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One-hit seeding across many hit groups in one pass: every word
    hit is a seed, deduplicated to the first hit per run of consecutive
    hits on a diagonal (consecutive overlapping word hits would all
    extend to the same HSP).

    *gids* labels each (subject position, query position) hit row with
    its group — one group per (query orientation, subject) pair in the
    batched scan.  A single three-key lexsort replaces the per-group
    sort-and-dedup calls the sequential driver pays per subject: runs
    of consecutive diagonal hits are detected over the whole stream,
    with group boundaries forcing a new run so no run ever spans two
    groups.

    Returns ``(gid, qpos, spos)`` seed arrays ordered group-major and,
    within a group, by (diagonal, subject position) — each group's
    slice is element-for-element what the oracle's ``one_hit_seeds``
    returns for that group alone.
    """
    if len(spos) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    diag = spos - qpos
    order = np.lexsort((spos, diag, gids))
    g = gids[order]
    d = diag[order]
    s = spos[order]
    q = qpos[order]
    new_run = np.empty(len(d), dtype=bool)
    new_run[0] = True
    new_run[1:] = ((g[1:] != g[:-1]) | (d[1:] != d[:-1])
                   | (s[1:] != s[:-1] + 1))
    idx = np.nonzero(new_run)[0]
    return g[idx], q[idx], s[idx]


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

    Each hit becomes one int64 key, ``(group, diagonal) * stride +
    spos``, sorted in place; ``qpos = spos - diagonal`` is recovered
    for the hits that fire, not carried.  ``stride`` is the largest
    position + 1 + *window*, so two adjacent keys differ by at most
    *window* exactly when they are hits of one (group, diagonal) that
    close, and the stored-hit scan runs once over the key differences,
    starting afresh wherever one exceeds *window*.  That is exact: the
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
    gd, s = np.divmod(key[fired], stride)
    if pairs is not None:
        gd = pairs[gd]
    g, d = np.divmod(gd, n_diag)
    return g, s - (d + dmin), s
