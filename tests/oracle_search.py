"""Per-sequence reference search: the oracle for the library's driver.

``repro.blast.search`` has one driver — the batched concatenated-
fragment scan, where a single query is a batch of one.  This module is
the other exact implementation of the same pipeline, kept with the
tests because tests are its only caller: it walks the database one
subject at a time, computes that subject's word codes from scratch,
scans them against each query orientation's own
:class:`~repro.blast.kmer.WordIndex`, and finishes every (orientation,
subject) group on its own with the library's per-group seeding /
extension (``_collect_candidates``) and scalar gapped refinement
(``_candidates_to_hsps``).  It shares no scan structures, no query
batching, no bulk extension and no bulk gapped pass with the driver,
so equality of the two is evidence about all of those.
"""

from typing import List, Optional, Tuple

import numpy as np

from repro.blast.alphabet import reverse_complement
from repro.blast.filter import apply_query_filter
from repro.blast.kmer import WordIndex, dna_word_codes, protein_word_codes
from repro.blast.search import (HSP, Hit, SearchParams, SearchResults,
                                _candidates_to_hsps, _collect_candidates,
                                resolve_ka)
from repro.blast.seqdb import AA
from repro.blast.stats import KarlinAltschul, effective_search_space


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
