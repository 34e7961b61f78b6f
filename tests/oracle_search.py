"""Per-sequence reference search: the oracle for the library's driver.

``repro.blast.search`` has one driver and one candidate pipeline — the
batched concatenated-fragment scan, grouped seeding, the bulk extension
kernel, one plan/replay finalizer; a single query is a batch of one.
This module is the other exact implementation of the same pipeline,
kept with the tests because tests are its only caller: it walks the
database one subject at a time, computes that subject's word codes from
scratch, scans them against each query orientation's own
:class:`~repro.blast.kmer.WordIndex`, and finishes every (orientation,
subject) group on its own with the per-group route that used to live in
the library and moved here verbatim: ``_collect_candidates``
(single-group seeding, then :func:`batched_ungapped_extend`, one
diagonal at a time) and ``_candidates_to_hsps`` (one scalar DP with
traceback per triggered candidate).

It shares no driver code with the library: no scan structures, no
query batching, no grouped seeder, no bulk extension, no plan, no bulk
gapped pass, no ``_finalize_one``.  The single-index / single-seed /
single-group *definitions* the library's batched forms are specified
against are here too, moved verbatim when the driver stopped calling
them: :func:`word_index_scan` (``WordIndex.scan`` without its bitmap
shortcut), :func:`ungapped_extend`, :func:`one_hit_seeds`, :func:`two_hit_seeds`,
and the per-position neighbourhood loop :func:`protein_neighbourhood`
(``WordIndex.for_protein`` before its pruned frontier).
What is still imported from the stages under test is the X-drop prefix
rule ``_best_prefix`` and the ``UngappedHSP`` record
(``tests/test_api_quality.py`` holds the import list to that), plus
the word index's plain constructor and the statistics.  Its gapped
kernel is the per-row one the library's replaced, in
``tests/oracle_gapped.py``.  So
equality of oracle and driver is evidence about scanning, seeding,
extension, gapped alignment and finalizing on every path, two-hit
blastp included.
"""

import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.blast.alphabet import PROTEIN, reverse_complement
from repro.blast.extend import UngappedHSP, _best_prefix
from repro.blast.filter import apply_query_filter
from repro.blast.kmer import WordIndex, dna_word_codes, word_codes
from repro.blast.profile import current_profile
from repro.blast.score import ScoringScheme
from repro.blast.search import (HSP, Hit, SearchParams, SearchResults,
                                resolve_ka)
from repro.blast.seqdb import AA
from repro.blast.stats import KarlinAltschul, effective_search_space

from oracle_gapped import banded_local_align


# ----------------------------------------------------------------------
# The per-stage definitions, verbatim from the library: one index
# against one subject, one group's seeds, one seed's extension.
# ----------------------------------------------------------------------
#: A seed: (query position, subject position).
Seed = Tuple[int, int]

#: Protein seeds pair two word hits on one diagonal at most this far
#: apart (BLAST's two-hit window A).
TWO_HIT_WINDOW = 40


def protein_word_codes(encoded: np.ndarray, k: int = 3) -> np.ndarray:
    return word_codes(encoded, k, len(PROTEIN))


def protein_neighbourhood(query: np.ndarray, matrix: np.ndarray,
                          k: int = 3, threshold: int = 11,
                          skip: Optional[np.ndarray] = None
                          ) -> Tuple[np.ndarray, np.ndarray]:
    """Every word scoring >= *threshold* against some query word, as
    parallel ``(codes, positions)`` arrays in (position, code) order.

    The per-position loop ``WordIndex.for_protein`` ran before its
    pruned frontier, verbatim: at each unmasked query position, score
    all ``n_letters**k`` words with k gathers and keep those that reach
    the threshold.  A *skip* shorter than the word count masks its
    prefix only (the library refuses one of the wrong length)."""
    n_letters = matrix.shape[1]
    m = len(query) - k + 1
    if m <= 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    grids = np.meshgrid(*[np.arange(n_letters)] * k, indexing="ij")
    words = np.stack([g.ravel() for g in grids], axis=1)   # (W, k)
    powers = n_letters ** np.arange(k - 1, -1, -1, dtype=np.int64)
    all_codes = words @ powers                             # (W,)
    codes_out = []
    pos_out = []
    for qpos in range(m):
        if skip is not None and qpos < len(skip) and skip[qpos]:
            continue
        qword = query[qpos:qpos + k]
        # score of every candidate word against this query word
        scores = np.zeros(len(words), dtype=np.int64)
        for j in range(k):
            scores += matrix[qword[j], words[:, j]]
        hits = all_codes[scores >= threshold]
        codes_out.append(hits)
        pos_out.append(np.full(len(hits), qpos, dtype=np.int64))
    codes = np.concatenate(codes_out) if codes_out else np.empty(0, np.int64)
    positions = np.concatenate(pos_out) if pos_out else np.empty(0, np.int64)
    return codes, positions


def protein_word_index(query: np.ndarray, scheme: ScoringScheme,
                       k: int = 3, threshold: int = 11,
                       skip: Optional[np.ndarray] = None) -> WordIndex:
    """The oracle's neighbourhood index: :func:`protein_neighbourhood`'s
    pairs through the plain constructor (base = the matrix's columns)."""
    codes, positions = protein_neighbourhood(query, scheme.matrix, k,
                                             threshold, skip)
    return WordIndex(codes, positions, k, scheme.matrix.shape[1])


def word_index_scan(index: WordIndex, subject_codes: np.ndarray
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """Find all word hits of one query index in one subject.

    Returns (subject_positions, query_positions), one entry per
    (subject word, matching query word) pair.  ``WordIndex.scan`` as it
    left the library, minus its presence-bitmap shortcut: every subject
    word is looked up by binary search, the one branch that is valid
    for every code space.
    """
    if len(subject_codes) == 0 or len(index.unique_codes) == 0:
        return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    idx = np.searchsorted(index.unique_codes, subject_codes)
    idx_clipped = np.minimum(idx, len(index.unique_codes) - 1)
    valid = index.unique_codes[idx_clipped] == subject_codes
    spos = np.nonzero(valid)[0]
    idx_clipped = idx_clipped[spos]
    if len(spos) == 0:
        return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    uidx = idx_clipped
    starts = index.offsets[uidx]
    ends = index.offsets[uidx + 1]
    counts = ends - starts
    total = int(counts.sum())
    # Expand ranges [starts_i, ends_i) into one flat index vector.
    rep_starts = np.repeat(starts, counts)
    within = np.arange(total) - np.repeat(
        np.concatenate([[0], np.cumsum(counts)[:-1]]), counts)
    flat = rep_starts + within
    qpos = index.positions[flat]
    spos_expanded = np.repeat(spos, counts)
    return (spos_expanded, qpos)


def one_hit_seeds(spos: np.ndarray, qpos: np.ndarray) -> List[Seed]:
    """Every word hit is a seed, deduplicated to the first hit per
    run of consecutive hits on a diagonal (consecutive overlapping word
    hits would all extend to the same HSP)."""
    if len(spos) == 0:
        return []
    diag = spos - qpos
    order = np.lexsort((spos, diag))
    d = diag[order]
    s = spos[order]
    q = qpos[order]
    # A hit starts a new run when the diagonal changes or the subject
    # position jumps by more than 1.
    new_run = np.empty(len(d), dtype=bool)
    new_run[0] = True
    new_run[1:] = (d[1:] != d[:-1]) | (s[1:] != s[:-1] + 1)
    idx = np.nonzero(new_run)[0]
    # Bulk-convert: tolist() yields Python ints in one pass, which is
    # measurably cheaper than per-element int() on the scan-kernel hot
    # path (one call per subject with hits).
    return list(zip(q[idx].tolist(), s[idx].tolist()))


def two_hit_seeds(spos: np.ndarray, qpos: np.ndarray, word_size: int,
                  window: int = 40) -> List[Seed]:
    """Two-hit seeding: the *second* hit of a close pair on the same
    diagonal becomes the seed (extension then runs through the first)."""
    if len(spos) < 2:
        return []
    diag = spos - qpos
    order = np.lexsort((spos, diag))
    d = diag[order]
    s = spos[order]
    q = qpos[order]
    # NCBI-style stored-hit scan per diagonal: an overlapping follow-up
    # hit (distance < word_size) leaves the stored hit in place; a hit at
    # distance in [word_size, window] triggers a seed; one farther than
    # the window replaces the stored hit.
    seeds: List[Seed] = []
    cur_diag = None
    stored = -(10 ** 12)     # stored hit position on current diagonal
    fired_until = -(10 ** 12)  # suppress re-triggering inside one region
    for i in range(len(d)):
        if d[i] != cur_diag:
            cur_diag = d[i]
            stored = s[i]
            fired_until = -(10 ** 12)
            continue
        dist = s[i] - stored
        if dist < word_size:
            continue                     # overlaps the stored hit
        if dist <= window:
            if s[i] >= fired_until:
                seeds.append((int(q[i]), int(s[i])))
                fired_until = s[i] + window
            stored = s[i]
        else:
            stored = s[i]                # too far: start a new pair
    return seeds


def ungapped_extend(query: np.ndarray, subject: np.ndarray,
                    qpos: int, spos: int, scheme: ScoringScheme,
                    xdrop: int = 20, word_size: int = 0) -> UngappedHSP:
    """Extend a seed at (qpos, spos) in both directions.

    ``word_size`` only anchors the naming: extension runs from the seed
    *position* outward in both directions, so the seed word itself is
    covered by the right extension.
    """
    # Right extension: positions qpos.., spos.. (inclusive of the seed).
    n_right = min(len(query) - qpos, len(subject) - spos)
    right_scores = scheme.pair_scores(query[qpos:qpos + n_right],
                                      subject[spos:spos + n_right])
    right_len, right_score = _best_prefix(right_scores, xdrop)

    # Left extension: positions qpos-1.., spos-1.. moving backwards.
    n_left = min(qpos, spos)
    if n_left:
        left_scores = scheme.pair_scores(query[qpos - n_left:qpos][::-1],
                                         subject[spos - n_left:spos][::-1])
        left_len, left_score = _best_prefix(left_scores, xdrop)
    else:
        left_len, left_score = 0, 0

    return UngappedHSP(
        q_start=qpos - left_len,
        s_start=spos - left_len,
        length=left_len + right_len,
        score=left_score + right_score,
    )


# ----------------------------------------------------------------------
# The per-group route, verbatim from the library (PR 22 moved it here).
# ----------------------------------------------------------------------
def batched_ungapped_extend(query: np.ndarray, subject: np.ndarray,
                            seeds: Sequence[Tuple[int, int]],
                            scheme: ScoringScheme,
                            xdrop: int = 20,
                            stats: Optional[Dict[str, int]] = None
                            ) -> List[UngappedHSP]:
    """Extend many seeds against one subject, batched per diagonal.

    *seeds* are ``(query position, subject position)`` pairs as produced
    by the seeding functions (grouped by diagonal, ascending subject
    position within a diagonal).  For each diagonal run the full
    diagonal's substitution scores are computed once; every seed on it
    then extends from slices of that array.  Seeds falling inside an
    HSP already extended on their diagonal are filtered out *before*
    paying any extension cost, and only positive-score HSPs are
    returned — the same coverage-dedup rule the per-seed driver
    applied, so extension work stays bounded by accepted diagonal runs
    instead of growing linearly in redundant word hits.

    *stats*, when given, accumulates ``seeds`` (seen) and
    ``seeds_skipped`` (dropped by the covered-run prefilter) counters —
    the profiling hook's view of how much extension the filter saved.
    """
    out: List[UngappedHSP] = []
    covered: Dict[int, int] = {}
    m, n = len(query), len(subject)
    i, n_seeds = 0, len(seeds)
    if stats is not None:
        stats["seeds"] = stats.get("seeds", 0) + n_seeds
    while i < n_seeds:
        qp0, sp0 = seeds[i]
        dg = sp0 - qp0
        j = i
        while j < n_seeds and seeds[j][1] - seeds[j][0] == dg:
            j += 1
        # Substitution scores of the whole diagonal, gathered once.
        q_lo = max(0, -dg)
        q_hi = min(m, n - dg)
        diag_scores = scheme.pair_scores(query[q_lo:q_hi],
                                         subject[q_lo + dg:q_hi + dg])
        for t in range(i, j):
            qp, sp = seeds[t]
            if covered.get(dg, -1) >= sp:
                if stats is not None:
                    stats["seeds_skipped"] = stats.get("seeds_skipped", 0) + 1
                continue
            anchor = qp - q_lo
            right_len, right_score = _best_prefix(diag_scores[anchor:], xdrop)
            left_len, left_score = _best_prefix(diag_scores[:anchor][::-1],
                                                xdrop)
            hsp = UngappedHSP(q_start=qp - left_len, s_start=sp - left_len,
                              length=left_len + right_len,
                              score=left_score + right_score)
            covered[dg] = hsp.s_end
            if hsp.score > 0:
                out.append(hsp)
        i = j
    return out


def _collect_candidates(query: np.ndarray, subject: np.ndarray,
                        spos: np.ndarray, qpos: np.ndarray,
                        scheme: ScoringScheme, params: SearchParams,
                        is_protein: bool) -> List[UngappedHSP]:
    """Steps 2-3 (seeding + ungapped extension) from word hits for one
    orientation/subject pair."""
    prof = current_profile()
    t0 = time.perf_counter() if prof is not None else 0.0
    if is_protein:
        seeds = two_hit_seeds(spos, qpos, params.word_size, TWO_HIT_WINDOW)
    else:
        seeds = one_hit_seeds(spos, qpos)
    if prof is not None:
        prof.add("seed", time.perf_counter() - t0)
    if not seeds:
        return []

    # Ungapped extension, batched per diagonal, with coverage dedup:
    # a seed already inside a previous HSP on its diagonal is skipped.
    t0 = time.perf_counter() if prof is not None else 0.0
    candidates = batched_ungapped_extend(
        query, subject, seeds, scheme, xdrop=params.xdrop_ungapped,
        stats=prof.counters if prof is not None else None)
    if prof is not None:
        prof.add("extend", time.perf_counter() - t0)
    return candidates


def _candidates_to_hsps(query: np.ndarray, subject: np.ndarray,
                        candidates: List[UngappedHSP],
                        scheme: ScoringScheme, params: SearchParams,
                        is_protein: bool, ka: KarlinAltschul,
                        m_eff: int, n_eff: int, strand: int,
                        identity_query: Optional[np.ndarray] = None
                        ) -> List[HSP]:
    """Steps 4-5 (gapped refinement, dedup, E-value filter) from
    ungapped candidates for one orientation/subject pair — the scalar
    reference path (one DP with traceback per triggered candidate)."""
    if not candidates:
        return []
    id_query = query if identity_query is None else identity_query
    prof = current_profile()
    candidates.sort(key=lambda h: -h.score)
    candidates = candidates[:params.max_hsps]

    out: List[HSP] = []
    seen_spans: List[Tuple[int, int]] = []
    for cand in candidates:
        if cand.score >= params.gapped_trigger:
            mid_q = cand.q_start + cand.length // 2
            mid_s = cand.s_start + cand.length // 2
            t0 = time.perf_counter() if prof is not None else 0.0
            aln = banded_local_align(query, subject, mid_s - mid_q,
                                     scheme, band=params.band,
                                     identity_query=identity_query)
            if prof is not None:
                prof.add("gapped", time.perf_counter() - t0)
                prof.count("gapped_trials")
                prof.count("gapped_traceback")
            if aln.score <= 0:
                continue
            q0, q1, s0, s1 = aln.q_start, aln.q_end, aln.s_start, aln.s_end
            score = aln.score
            identities, align_len = aln.identities, aln.align_len
            ops = aln.ops
        else:
            q0, q1 = cand.q_start, cand.q_end
            s0, s1 = cand.s_start, cand.s_end
            score = cand.score
            matches = id_query[q0:q1] == subject[s0:s1]
            identities = int(np.count_nonzero(matches))
            align_len = cand.length
            ops = "M" * align_len
        # Drop duplicates: identical subject spans found via different seeds.
        span = (s0, s1)
        if span in seen_spans:
            continue
        seen_spans.append(span)
        evalue = ka.evalue(score, m_eff, n_eff)
        if evalue > params.evalue_cutoff:
            continue
        out.append(HSP(
            q_start=q0, q_end=q1, s_start=s0, s_end=s1,
            score=score, bit_score=ka.bit_score(score), evalue=evalue,
            identities=identities, align_len=align_len, strand=strand,
            ops=ops,
        ))
    return out


# ----------------------------------------------------------------------
def search_reference(query: np.ndarray, db, scheme,
                     params: Optional[SearchParams] = None, *,
                     query_id: str = "query",
                     ka: Optional[KarlinAltschul] = None,
                     both_strands: bool = True,
                     identity_query: Optional[np.ndarray] = None,
                     effective_space: Optional[Tuple[int, int]] = None
                     ) -> SearchResults:
    """What ``search(query, db, scheme, params, ...)`` must return,
    computed subject by subject."""
    params = params or SearchParams()
    is_protein = db.seqtype == AA
    if ka is None:
        ka = resolve_ka(scheme, params, is_protein)
    m = len(query)
    n_total = db.total_residues
    results = SearchResults(query_id=query_id, query_len=m,
                            db_residues=n_total, db_sequences=len(db))
    if m < params.word_size:
        return results
    if effective_space is not None:
        m_eff, n_eff = effective_space
    elif params.effective_lengths:
        m_eff, n_eff = effective_search_space(ka, m, n_total, len(db))
    else:
        m_eff, n_eff = m, n_total

    def word_skip(oriented: np.ndarray):
        if not params.filter_low_complexity:
            return None
        return apply_query_filter(oriented, is_protein, params.word_size)[1]

    if is_protein:
        codes_of = protein_word_codes
        orientations = [(query, protein_word_index(
            query, scheme, params.word_size, params.neighbor_threshold,
            skip=word_skip(query)), 1)]
    else:
        codes_of = dna_word_codes
        orientations = [(query, WordIndex.for_dna(
            query, params.word_size, skip=word_skip(query)), 1)]
        if both_strands:
            rc = reverse_complement(query)
            orientations.append((rc, WordIndex.for_dna(
                rc, params.word_size, skip=word_skip(rc)), -1))

    for sid in range(len(db)):
        subject = db.sequence(sid)
        codes = codes_of(subject, params.word_size)
        hsps: List[HSP] = []
        for oriented, index, strand in orientations:
            spos, qpos = word_index_scan(index, codes)
            if len(spos) == 0:
                continue
            candidates = _collect_candidates(oriented, subject, spos, qpos,
                                             scheme, params, is_protein)
            hsps.extend(_candidates_to_hsps(
                oriented, subject, candidates, scheme, params, is_protein,
                ka, m_eff, n_eff, strand, identity_query=identity_query))
        if hsps:
            hsps.sort(key=lambda h: (h.evalue, -h.score))
            results.hits.append(Hit(
                subject_id=sid, description=db.description(sid),
                subject_len=len(subject), hsps=hsps[:params.max_hsps],
                fragment_id=db.fragment_id))
    results.sort()
    return results
