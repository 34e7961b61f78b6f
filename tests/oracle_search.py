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

Downstream of the per-subject scan it shares no driver code with the
library: no scan structures, no query batching, no grouped seeder, no
bulk extension, no plan, no bulk gapped pass, no ``_finalize_one``.
What it does import are the single-seed / single-group *definitions*
the library's grouped forms are specified against — ``one_hit_seeds``,
``two_hit_seeds``, ``_best_prefix`` (``tests/test_api_quality.py``
holds the import list to that) — and the scalar gapped kernels.  So
equality of oracle and driver is evidence about seeding, extension and
finalizing on every path, two-hit blastp included.
"""

import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.blast.alphabet import reverse_complement
from repro.blast.extend import UngappedHSP, _best_prefix
from repro.blast.filter import apply_query_filter
from repro.blast.gapped import banded_local_align
from repro.blast.kmer import WordIndex, dna_word_codes, protein_word_codes
from repro.blast.profile import current_profile
from repro.blast.score import ScoringScheme
from repro.blast.search import (HSP, Hit, SearchParams, SearchResults,
                                resolve_ka)
from repro.blast.seed import one_hit_seeds, two_hit_seeds
from repro.blast.seqdb import AA
from repro.blast.stats import KarlinAltschul, effective_search_space
from repro.blast.xdrop import xdrop_gapped_extend


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
    if is_protein and params.two_hit_window > 0:
        seeds = two_hit_seeds(spos, qpos, params.word_size, params.two_hit_window)
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
    n_gapped = 0
    for cand in candidates:
        if params.gapped and cand.score >= params.gapped_trigger:
            if (params.max_gapped_per_subject > 0
                    and n_gapped >= params.max_gapped_per_subject):
                if prof is not None:
                    prof.count("gapped_culled")
                continue
            n_gapped += 1
            mid_q = cand.q_start + cand.length // 2
            mid_s = cand.s_start + cand.length // 2
            t0 = time.perf_counter() if prof is not None else 0.0
            if params.gapped_method == "xdrop":
                aln = xdrop_gapped_extend(query, subject, mid_q, mid_s,
                                          scheme, xdrop=2 * params.band)
            else:
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
        word_codes = protein_word_codes
        orientations = [(query, WordIndex.for_protein(
            query, scheme, params.word_size, params.neighbor_threshold,
            skip=word_skip(query)), 1)]
    else:
        word_codes = dna_word_codes
        orientations = [(query, WordIndex.for_dna(
            query, params.word_size, skip=word_skip(query)), 1)]
        if both_strands:
            rc = reverse_complement(query)
            orientations.append((rc, WordIndex.for_dna(
                rc, params.word_size, skip=word_skip(rc)), -1))

    for sid in range(len(db)):
        subject = db.sequence(sid)
        codes = word_codes(subject, params.word_size)
        hsps: List[HSP] = []
        for oriented, index, strand in orientations:
            spos, qpos = index.scan(codes)
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
