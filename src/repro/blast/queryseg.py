"""Query segmentation — the *other* way to parallelise BLAST.

Section 2.2 of the paper describes two parallelisation approaches:
database segmentation (what mpiBLAST and this repo's
:mod:`repro.parallel` do) and **query segmentation**, where every
worker holds the whole database and searches one piece of the query.
The paper dismisses the latter for large databases ("the first approach
becomes less attractive due to large I/O overhead" — each worker must
read/hold the entire database); the simulator quantifies that in
``benchmarks/bench_ext_queryseg.py``.

This module provides the real-engine half: splitting a query into
overlapping pieces, searching each, and merging results with
coordinates mapped back to the full query.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

from repro.blast.search import SearchResults
from repro.blast.seqdb import SequenceDB


@dataclass(frozen=True)
class QuerySegment:
    """One piece of a segmented query."""

    index: int
    start: int      # offset of the piece in the full query
    text: str


def segment_query(query: str, n_segments: int, overlap: int = 50
                  ) -> List[QuerySegment]:
    """Split *query* into *n_segments* pieces with *overlap* shared
    characters between neighbours (so alignments spanning a boundary are
    found by at least one piece, as long as they are shorter than the
    overlap).
    """
    if n_segments < 1:
        raise ValueError("n_segments must be >= 1")
    if overlap < 0:
        raise ValueError("overlap must be >= 0")
    n = len(query)
    if n_segments > n:
        n_segments = max(1, n)
    base = n // n_segments
    segments: List[QuerySegment] = []
    for i in range(n_segments):
        start = i * base
        end = n if i == n_segments - 1 else (i + 1) * base + overlap
        end = min(end, n)
        segments.append(QuerySegment(i, start, query[start:end]))
    return segments


def merge_segment_results(full_query_len: int,
                          pieces: Sequence[Tuple[QuerySegment, SearchResults]]
                          ) -> SearchResults:
    """Combine per-segment results into full-query results.

    Query coordinates are shifted back to the full query; E-values are
    rescaled to the full query length (E scales linearly in m); HSPs
    found by two overlapping segments are deduplicated by subject span.
    """
    if not pieces:
        raise ValueError("no results to merge")
    first = pieces[0][1]
    merged = SearchResults(
        query_id=first.query_id.split("|seg")[0],
        query_len=full_query_len,
        db_residues=first.db_residues,
        db_sequences=first.db_sequences,
    )
    by_subject: dict = {}
    for segment, results in pieces:
        scale = full_query_len / max(results.query_len, 1)
        for hit in results.hits:
            tgt = by_subject.get(hit.subject_id)
            if tgt is None:
                tgt = type(hit)(subject_id=hit.subject_id,
                                description=hit.description,
                                subject_len=hit.subject_len,
                                hsps=[], fragment_id=hit.fragment_id)
                by_subject[hit.subject_id] = tgt
                merged.hits.append(tgt)
            seen = {(h.s_start, h.s_end, h.strand) for h in tgt.hsps}
            for h in hit.hsps:
                h.q_start += segment.start
                h.q_end += segment.start
                h.evalue *= scale
                key = (h.s_start, h.s_end, h.strand)
                if key not in seen:
                    tgt.hsps.append(h)
                    seen.add(key)
    merged.sort()
    return merged


def search_segmented(program: Callable[..., SearchResults], query: str,
                     db: SequenceDB, n_segments: int, overlap: int = 50
                     ) -> SearchResults:
    """Run *program* (e.g. :func:`repro.blast.blastn`) over a segmented
    query and merge — what a query-segmentation worker pool computes."""
    segments = segment_query(query, n_segments, overlap)
    pieces = []
    for seg in segments:
        res = program(seg.text, db, query_id=f"query|seg{seg.index}")
        pieces.append((seg, res))
    return merge_segment_results(len(query), pieces)
