"""The BLAST search driver.

Pipeline (Altschul et al. 1990/1997):

1. scan the database for the words of the query word index;
2. pick seeds (one-hit for nucleotide, two-hit for protein);
3. ungapped X-drop extension of each seed, deduplicated per diagonal;
4. banded gapped extension of HSPs above the gapped trigger score;
5. Karlin–Altschul E-values; keep hits under the E-value cutoff.

One driver runs every search: a single query is a batch of one.  The
whole database fragment is laid out at flat positions in one residue
section (:mod:`repro.blast.scankernel`: 2 bits per nucleotide; cached
across queries in the :class:`~repro.blast.scankernel.ScanCache`),
every query orientation of the batch is scanned against its bytes in
one shot; its hits stay flat arrays (``scankernel.HitGroups``), and
Python runs per (query, subject) group only for the groups whose best
extension passes the emit bound.

Downstream of the scan there is one candidate pipeline, for every
alphabet and seeding rule: a grouped seeder over the flat hits
(one-hit for nucleotide, two-hit for protein) →
``bulk_ungapped_extend`` → the emit bound (a group whose best
extension cannot be reported goes no further) → the per-diagonal
coverage replay → one plan per group → the gapped DP problems →
:func:`_finalize_one`.  The only routing left is whether a batch's DP
problems are scored before the ones that matter are aligned.  The
per-sequence, per-group implementation the driver is checked against
lives with the tests (``tests/oracle_search.py``) and shares none of it.

Results merge across database fragments by alignment score, which is
exactly what the mpiBLAST master does with worker results.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.blast.alphabet import DNA, PROTEIN, reverse_complement
from repro.blast.extend import UngappedHSP, bulk_ungapped_extend
from repro.blast.gapped import (GappedAlignment, banded_local_align_many,
                                bulk_banded_score, fits_one_align_chunk)
from repro.blast.kmer import WordIndex
from repro.blast.profile import current_profile, profiled
from repro.blast.scankernel import (HitGroups, QueryBatch, ScanCache,
                                    TwoBitResidues, default_scan_cache,
                                    scan_fragment_batch)
from repro.blast.score import ScoringScheme
from repro.blast.seed import (one_hit_seeds_grouped,
                              two_hit_seeds_grouped)
from repro.blast.seqdb import AA, SequenceDB
from repro.blast.stats import (KarlinAltschul, effective_search_space,
                               karlin_altschul_params)

@dataclass(frozen=True)
class SearchParams:
    """Tunable knobs of the search pipeline."""

    #: Word size (11 for blastn, 3 for blastp).
    word_size: int = 11
    #: Neighbourhood threshold T for protein words.
    neighbor_threshold: int = 11
    #: X-drop for ungapped extension.
    xdrop_ungapped: int = 20
    #: Ungapped score needed to attempt gapped extension.
    gapped_trigger: int = 22
    #: Diagonal band half-width for gapped extension.
    band: int = 24
    #: Report cutoff.
    evalue_cutoff: float = 10.0
    #: Keep at most this many HSPs per subject sequence.
    max_hsps: int = 10
    #: Mask low-complexity query regions before seeding (DUST / SEG).
    filter_low_complexity: bool = False
    #: Apply NCBI's length adjustment (edge-effect correction) to the
    #: E-value search space.
    effective_lengths: bool = False


@dataclass
class HSP:
    """One reported high-scoring pair."""

    q_start: int
    q_end: int
    s_start: int
    s_end: int
    score: int
    bit_score: float
    evalue: float
    identities: int
    align_len: int
    #: +1 / -1 (nucleotide minus-strand hits), or frame for translated.
    strand: int = 1
    #: Alignment operations ("M" pair, "D" query-vs-gap, "I" gap-vs-
    #: subject); empty when not tracked.
    ops: str = ""

    @property
    def identity(self) -> float:
        return self.identities / self.align_len if self.align_len else 0.0


@dataclass
class Hit:
    """All HSPs against one database sequence."""

    subject_id: int
    description: str
    subject_len: int
    hsps: List[HSP] = field(default_factory=list)
    #: Which fragment the subject came from (for merged results).
    fragment_id: Optional[int] = None

    @property
    def best_score(self) -> int:
        return max((h.score for h in self.hsps), default=0)

    @property
    def best_evalue(self) -> float:
        return min((h.evalue for h in self.hsps), default=float("inf"))


@dataclass
class SearchResults:
    """Hits for one query against one database (or fragment)."""

    query_id: str
    query_len: int
    db_residues: int
    db_sequences: int
    hits: List[Hit] = field(default_factory=list)

    def sort(self) -> None:
        """Order hits best-first (by E-value, then score)."""
        for hit in self.hits:
            hit.hsps.sort(key=lambda h: (h.evalue, -h.score))
        self.hits.sort(key=lambda h: (h.best_evalue, -h.best_score))

    def best(self) -> Optional[HSP]:
        self.sort()
        return self.hits[0].hsps[0] if self.hits and self.hits[0].hsps else None

    def merge(self, other: "SearchResults") -> "SearchResults":
        """Combine results from another fragment of the same database —
        the master's merge step in parallel BLAST."""
        if other.query_id != self.query_id:
            raise ValueError("cannot merge results for different queries")
        merged = SearchResults(
            query_id=self.query_id,
            query_len=self.query_len,
            db_residues=self.db_residues + other.db_residues,
            db_sequences=self.db_sequences + other.db_sequences,
            hits=self.hits + other.hits,
        )
        # E-values were computed against fragment sizes; rescale to the
        # combined database size (E scales linearly in n).
        for hit in merged.hits:
            src = self if hit in self.hits else other
            if src.db_residues > 0:
                factor = merged.db_residues / src.db_residues
                for h in hit.hsps:
                    h.evalue *= factor
        merged.sort()
        return merged

    def tabular(self, max_hits: int = 0) -> str:
        """Tab-separated output (NCBI outfmt-6 column order):

        query id, subject id, % identity, alignment length, mismatches,
        gap opens, q. start, q. end, s. start, s. end, evalue, bit
        score.  Coordinates are 1-based inclusive, like NCBI's.
        """
        self.sort()
        rows = []
        hits = self.hits if max_hits <= 0 else self.hits[:max_hits]
        for hit in hits:
            sid = (hit.description.split()[0] if hit.description
                   else str(hit.subject_id))
            for h in hit.hsps:
                gap_opens = 0
                prev = ""
                for op in h.ops:
                    if op in "DI" and op != prev:
                        gap_opens += 1
                    prev = op
                gap_cols = h.ops.count("D") + h.ops.count("I")
                mismatches = h.align_len - h.identities - gap_cols
                rows.append("\t".join([
                    self.query_id, sid,
                    f"{100 * h.identity:.3f}", str(h.align_len),
                    str(mismatches), str(gap_opens),
                    str(h.q_start + 1), str(h.q_end),
                    str(h.s_start + 1), str(h.s_end),
                    f"{h.evalue:.2e}", f"{h.bit_score:.1f}",
                ]))
        return "\n".join(rows)

    def report(self, max_hits: int = 25) -> str:
        """Plain-text summary table."""
        self.sort()
        lines = [
            f"Query: {self.query_id} ({self.query_len} letters)",
            f"Database: {self.db_sequences} sequences, {self.db_residues} letters",
            "",
            f"{'Subject':<40s} {'bits':>7s} {'E':>10s} {'ident':>6s}",
        ]
        for hit in self.hits[:max_hits]:
            h = hit.hsps[0]
            desc = hit.description[:40]
            lines.append(
                f"{desc:<40s} {h.bit_score:7.1f} {h.evalue:10.2e} "
                f"{100 * h.identity:5.1f}%")
        return "\n".join(lines)


# ----------------------------------------------------------------------
def merge_fragment_results(by_pack: Dict[str, "SearchResults"],
                           ids_by_name: Dict[str, Sequence[int]], *,
                           query_id: str, query_len: int,
                           db_residues: int, db_sequences: int,
                           fragment_id: Optional[int] = None,
                           keep_fragment_ids: bool = False
                           ) -> "SearchResults":
    """Merge per-fragment results into one whole-database result.

    *by_pack* maps pack name to that fragment's ``SearchResults`` (hits
    carry fragment-local subject ids); *ids_by_name* maps pack name to
    the fragment's global id table (a list, or a pack's int64
    ``source_ids`` section).  Because every worker searched with
    the whole database's Karlin–Altschul parameters and effective
    space (shipped in the job spec), scores and E-values need no
    rescaling here — the merge is pure relabelling plus the serial
    engine's deterministic ordering, which is what makes the parallel
    path byte-identical to a serial scan.

    Hits are mutated in place (subject ids globalized; fragment ids
    overwritten with *fragment_id* unless *keep_fragment_ids*).
    """
    merged = SearchResults(query_id=query_id, query_len=query_len,
                           db_residues=db_residues,
                           db_sequences=db_sequences)
    for pack_name, res in by_pack.items():
        ids = ids_by_name[pack_name]
        for hit in res.hits:
            hit.subject_id = int(ids[hit.subject_id])
            if not keep_fragment_ids:
                hit.fragment_id = fragment_id
            merged.hits.append(hit)
    # Deterministic cross-fragment tie-break: pre-order by global
    # subject id (the order a serial scan appends hits in), then the
    # standard stable result sort.
    merged.hits.sort(key=lambda h: h.subject_id)
    merged.sort()
    return merged


# ----------------------------------------------------------------------
def resolve_ka(scheme: ScoringScheme, params: SearchParams,
               is_protein: bool) -> KarlinAltschul:
    """The Karlin–Altschul parameters :func:`search` uses when none are
    passed explicitly.

    Exposed so the parallel runtime (:mod:`repro.exec`) can compute the
    exact same statistics on the master and ship them to every worker —
    fragment results stay bit-identical to a serial whole-database
    search.  *params* selects nothing (every search has a gapped stage,
    so the gapped table applies); ``perf/harness/layers.py`` passes it,
    so it stays until the benchmark's next edit.
    """
    if is_protein:
        key = f"aa:blosum62:{scheme.gap_open}/{scheme.gap_extend}"
    else:
        match = int(scheme.matrix[0, 0])
        mis = int(scheme.matrix[0, 1])
        key = (f"nt:{'+' if match > 0 else ''}{match}/{mis}:"
               f"{scheme.gap_open}/{scheme.gap_extend}")
    return karlin_altschul_params(scheme.matrix, gapped_key=key)


@dataclass
class _GappedJob:
    """One orientation/subject group's ungapped candidates awaiting
    steps 4-5, plus everything needed to finalize them into HSPs.

    *qi* / *sid* say whose hit the group is; *q_off* / *s_off* locate
    the oriented query and the subject (*s_len* residues) at flat
    positions of the query concatenation and the fragment's residues.
    Finalized HSPs land in *sink*.
    """

    qi: int
    sid: int
    query: np.ndarray
    q_off: int
    s_off: int
    s_len: int
    candidates: List[UngappedHSP]
    m_eff: int
    n_eff: int
    strand: int
    identity_query: Optional[np.ndarray]
    sink: List[HSP] = field(default_factory=list)


#: One group's decision sequence: its candidates best-first, each with
#: the number of the gapped DP problem that refines it (-1: reported as
#: it stands).
_Plan = List[Tuple[UngappedHSP, int]]

#: One gapped DP problem: its group and the diagonal (subject minus
#: query position) its band is centred on.
_Problem = Tuple[_GappedJob, int]


def _finalize_candidates(jobs: List[_GappedJob], qcat: np.ndarray,
                         scat: Union[np.ndarray, TwoBitResidues],
                         scheme: ScoringScheme,
                         params: SearchParams, ka: KarlinAltschul) -> None:
    """Steps 4-5 for every orientation/subject group of a batch.

    *scat* is the fragment's residue accessor
    (:attr:`~repro.blast.scankernel.ScanStructures.scat`).

    One preamble, one replay.  The preamble turns each group's
    candidates into a :data:`_Plan` (best-first, ``max_hsps``) and
    collects the distinct gapped DP problems, one per (group, diagonal):
    the banded alignment depends on the seed only through the diagonal.
    :func:`_finalize_one` replays each plan reading alignments from
    ``alns``, problem number → alignment.

    The route picks which problems the align mode aligns: all of them
    when they fit one of its chunks
    (:func:`~repro.blast.gapped.fits_one_align_chunk`, typical
    blastn), otherwise the score mode scores them all first and only
    those whose alignment can still matter are aligned
    (:func:`_traceback_survivors`), each over its rows up to the best
    one the score pass found: the DP only looks back, and no earlier
    row holds the best score, so the rows after it change nothing the
    alignment reports.  Both modes are exact.
    """
    prof = current_profile()

    plans: List[_Plan] = []
    problems: List[_Problem] = []
    for job in jobs:
        job.candidates.sort(key=lambda h: -h.score)
        memo: Dict[int, int] = {}
        plan: _Plan = []
        for cand in job.candidates[:params.max_hsps]:
            if cand.score < params.gapped_trigger:
                plan.append((cand, -1))
                continue
            diag = cand.s_start - cand.q_start
            ei = memo.get(diag)
            if ei is None:
                ei = memo[diag] = len(problems)
                problems.append((job, diag))
            plan.append((cand, ei))
        plans.append(plan)

    alns: Dict[int, GappedAlignment] = {}
    if problems:
        arrays = _problem_arrays(problems)
        sel: List[int] = list(range(len(problems)))
        if not fits_one_align_chunk(arrays[1], arrays[3], arrays[4], scheme,
                                    params.band):
            t0 = time.perf_counter() if prof is not None else 0.0
            scores, qends, sends = bulk_banded_score(
                qcat, scat, *arrays, scheme, band=params.band)
            if prof is not None:
                prof.add("gapped_bulk", time.perf_counter() - t0)
            survivors: Dict[int, None] = {}     # ordered set of problems
            for job, plan in zip(jobs, plans):
                _traceback_survivors(job, plan, scores, sends, params, ka,
                                     survivors)
            sel = list(survivors)
            arrays[1, sel] = qends[sel]
        t0 = time.perf_counter() if prof is not None else 0.0
        alns = dict(zip(sel, banded_local_align_many(
            qcat, scat, *arrays[:, sel], scheme, band=params.band,
            identity_qcat=_identity_qcat(jobs, qcat))))
        if prof is not None:
            prof.add("gapped", time.perf_counter() - t0)
    if prof is not None and problems:
        # Every triggered candidate either had a pointer-matrix DP run
        # for it or was resolved without one (see repro.blast.profile).
        triggered = sum(ei >= 0 for plan in plans for _cand, ei in plan)
        prof.count("gapped_trials", len(problems))
        prof.count("gapped_traceback", len(alns))
        prof.count("gapped_culled", triggered - len(alns))

    for job, plan in zip(jobs, plans):
        _finalize_one(job, plan, alns, scat, params, ka)


def _problem_arrays(problems: List[_Problem]) -> np.ndarray:
    """The gapped DP problems in the kernels' flat layout: rows
    ``q_off``, ``q_len``, ``s_off``, ``s_len`` and ``diag``."""
    return np.array([(job.q_off, len(job.query), job.s_off,
                      job.s_len, diag) for job, diag in problems],
                    dtype=np.int64).T


def _identity_qcat(jobs: List[_GappedJob],
                   qcat: np.ndarray) -> Optional[np.ndarray]:
    """*qcat* with each PSSM group's query letters at its offsets (the
    kernels' ``identity_qcat``), or ``None`` when no group has any."""
    if all(job.identity_query is None for job in jobs):
        return None
    identity_qcat = qcat.copy()
    for job in jobs:
        if job.identity_query is not None:
            identity_qcat[job.q_off:job.q_off + len(job.query)] = \
                job.identity_query
    return identity_qcat


def _traceback_survivors(job: _GappedJob, plan: _Plan,
                         scores: np.ndarray, sends: np.ndarray,
                         params: SearchParams, ka: KarlinAltschul,
                         survivors: Dict[int, None]) -> None:
    """Add to *survivors* the DP problems of one group whose
    alignment can still matter; the other triggered candidates resolve
    without one (zero score, E-value reject, or a diagonal already
    taken by an earlier candidate)."""
    # Census of the *emittable* candidates' subject end positions.  A
    # span is appended to the dedup list before the E-value check, so
    # a rejected candidate's span can influence output only by
    # deduplicating a later candidate that would otherwise be emitted —
    # which requires an E-value-passing candidate with the *same* span,
    # hence the same subject end.  (Rejected candidates deduplicating
    # each other is invisible: whichever appends first, the span value
    # ends up in the list and none of them is emitted.)  E-values here
    # depend only on scores, all known exactly after pass 1.
    emittable_ends = set()
    for cand, ei in plan:
        if ei < 0:
            score, se = cand.score, cand.s_end
        else:
            score, se = int(scores[ei]), int(sends[ei])
            if score <= 0:
                continue
        if ka.evalue(score, job.m_eff, job.n_eff) <= params.evalue_cutoff:
            emittable_ends.add(se)

    for _cand, ei in plan:
        if ei < 0:
            continue
        score = int(scores[ei])
        # Skipped: zero score, or an E-value reject whose span cannot
        # deduplicate any emittable candidate (the replay would discard
        # it after appending a span that can never change what is
        # rendered).  A diagonal an earlier candidate already sent to
        # traceback is in the set already.
        if score > 0 and (ka.evalue(score, job.m_eff, job.n_eff)
                          <= params.evalue_cutoff
                          or int(sends[ei]) in emittable_ends):
            survivors[ei] = None


def _finalize_one(job: _GappedJob, plan: _Plan,
                  alns: Dict[int, GappedAlignment],
                  scat: Union[np.ndarray, TwoBitResidues],
                  params: SearchParams, ka: KarlinAltschul) -> None:
    """The one candidate loop: replay a group's plan into HSPs, reading
    gapped alignments from *alns* and an ungapped candidate's subject
    residues from *scat*.  A triggered candidate whose DP problem is
    not there was culled; one whose alignment scores nothing is dropped
    before it can claim a span."""
    out = job.sink
    id_query = (job.query if job.identity_query is None
                else job.identity_query)
    seen_spans: List[Tuple[int, int]] = []
    for cand, ei in plan:
        if ei >= 0:
            aln = alns.get(ei)
            if aln is None or aln.score <= 0:
                continue
            q0, q1, s0, s1 = aln.q_start, aln.q_end, aln.s_start, aln.s_end
            score = aln.score
            identities, align_len = aln.identities, aln.align_len
            ops = aln.ops
        else:
            q0, q1 = cand.q_start, cand.q_end
            s0, s1 = cand.s_start, cand.s_end
            score = cand.score
            matches = id_query[q0:q1] == scat[job.s_off + s0:job.s_off + s1]
            identities = int(np.count_nonzero(matches))
            align_len = cand.length
            ops = "M" * align_len
        span = (s0, s1)
        if span in seen_spans:
            continue
        seen_spans.append(span)
        evalue = ka.evalue(score, job.m_eff, job.n_eff)
        if evalue > params.evalue_cutoff:
            continue
        out.append(HSP(
            q_start=q0, q_end=q1, s_start=s0, s_end=s1,
            score=score, bit_score=ka.bit_score(score), evalue=evalue,
            identities=identities, align_len=align_len,
            strand=job.strand, ops=ops,
        ))


def search(query: np.ndarray, db: SequenceDB, scheme: ScoringScheme,
           params: Optional[SearchParams] = None,
           query_id: str = "query",
           ka: Optional[KarlinAltschul] = None,
           both_strands: bool = True,
           identity_query: Optional[np.ndarray] = None,
           scan_cache: Optional[ScanCache] = None,
           effective_space: Optional[Tuple[int, int]] = None) -> SearchResults:
    """Search an encoded *query* against every sequence of *db*.

    A single query is a :func:`search_batch` of one.  For nucleotide
    databases the reverse-complement strand of the query is searched
    too (``both_strands``).

    Scan structures come from the database itself when it provides
    them (a pack-backed db) and otherwise from *scan_cache*, defaulting
    to the process-wide
    :func:`~repro.blast.scankernel.default_scan_cache`.

    *effective_space* overrides the ``(m_eff, n_eff)`` search space the
    E-values are computed against.  The parallel runtime passes the
    *whole* database's space to every fragment search so per-fragment
    E-values — and the cutoff they are filtered by — come out exactly
    as a serial whole-database search would produce them.

    With ``REPRO_PROFILE=1`` in the environment each top-level call
    emits one JSON line of per-stage timings to stderr (see
    :mod:`repro.blast.profile`).
    """
    with profiled("search", query_id=query_id, query_len=len(query)):
        return search_batch([query], db, scheme, params,
                            query_ids=[query_id], ka=ka,
                            both_strands=both_strands,
                            identity_queries=[identity_query],
                            scan_cache=scan_cache,
                            effective_spaces=[effective_space])[0]


def search_batch(queries: Sequence[np.ndarray], db: SequenceDB,
                 scheme: ScoringScheme,
                 params: Optional[SearchParams] = None, *,
                 query_ids: Optional[Sequence[str]] = None,
                 ka: Optional[KarlinAltschul] = None,
                 both_strands: bool = True,
                 identity_queries: Optional[Sequence[Optional[np.ndarray]]] = None,
                 scan_cache: Optional[ScanCache] = None,
                 effective_spaces: Optional[Sequence[Optional[Tuple[int, int]]]]
                 = None) -> List[SearchResults]:
    """Search N queries against *db* in one pass over the fragment.

    Byte-identical to N sequential :func:`search` calls — same hits,
    same HSPs, same ordering — but all query orientations are packed
    into one :class:`~repro.blast.scankernel.QueryBatch` so the
    fragment's bytes are traversed **once** (one filtered pass + one
    hit-mapping ``searchsorted``) instead of once per
    orientation.  Per-(query, subject) seeding and extension then run
    on exactly the hit groups the per-query scan would have produced.

    Per-query arguments (*query_ids*, *identity_queries*,
    *effective_spaces*) are parallel sequences; ``None`` entries take
    the same defaults as :func:`search`.  *ka* is resolved once and
    shared — the parallel runtime ships one set of Karlin–Altschul
    parameters per job batch for the same reason.
    """
    with profiled("search_batch", n_queries=len(queries)):
        prepared = prepare_queries(
            queries, scheme, params, is_protein=db.seqtype == AA,
            db_size=(db.total_residues, len(db)), query_ids=query_ids,
            ka=ka, both_strands=both_strands,
            identity_queries=identity_queries,
            effective_spaces=effective_spaces)
        return prepared.search(db, scan_cache)


@dataclass
class PreparedQueries:
    """A query batch made ready to search any number of fragments of
    one database: what :func:`prepare_queries` builds once, and
    :meth:`search` reads per fragment.

    *entries* has one ``(query index, oriented query, strand)`` per
    query orientation, in (query, +strand-first) order — the order HSPs
    accumulate in when each query is searched alone, which is what
    keeps a batch byte-identical to its queries run one by one.
    *batch* holds their word indexes; *qcat* concatenates the oriented
    queries at *qstarts* (lengths *qlens*), mirroring the fragment
    concatenation, so one pair of flat arrays serves every (entry,
    subject) extension and the bulk gapped pass.
    """

    scheme: ScoringScheme
    params: SearchParams
    ka: KarlinAltschul
    is_protein: bool
    query_ids: Sequence[str]
    query_lens: List[int]
    identity_queries: Sequence[Optional[np.ndarray]]
    spaces: List[Optional[Tuple[int, int]]]
    entries: List[Tuple[int, np.ndarray, int]]
    batch: Optional[QueryBatch]
    qcat: Optional[np.ndarray]
    qstarts: Optional[np.ndarray]
    qlens: Optional[np.ndarray]

    def search(self, db: SequenceDB,
               scan_cache: Optional[ScanCache] = None
               ) -> List[SearchResults]:
        """Search one fragment *db* (the whole database, or one pack of
        it): one scan of its bytes for every orientation, then steps
        2-5.  Results carry *db*'s own size; hits its local subject
        ids."""
        params = self.params
        results = [SearchResults(query_id=qid, query_len=qlen,
                                 db_residues=db.total_residues,
                                 db_sequences=len(db))
                   for qid, qlen in zip(self.query_ids, self.query_lens)]
        if not self.entries:
            return results

        prof = current_profile()
        cache = scan_cache if scan_cache is not None else default_scan_cache()
        base = len(PROTEIN) if self.is_protein else len(DNA)
        t0 = time.perf_counter() if prof is not None else 0.0
        provider = getattr(db, "scan_structures", None)
        structs = provider(params.word_size, base) if provider else None
        if structs is None:
            structs = cache.get(db, params.word_size, base)
        if prof is not None:
            prof.add("pack", time.perf_counter() - t0)

        t0 = time.perf_counter() if prof is not None else 0.0
        hits = scan_fragment_batch(self.batch, structs)
        if prof is not None:
            prof.add("scan", time.perf_counter() - t0)
            prof.count("hit_groups", len(hits.eid))

        jobs = (_bulk_groups_to_jobs(self, hits, structs) if len(hits.eid)
                else [])
        _finalize_candidates(jobs, self.qcat, structs.scat, self.scheme,
                             params, self.ka)
        per_q: Dict[int, Dict[int, List[HSP]]] = {}
        for job in jobs:
            if job.sink:
                per_q.setdefault(job.qi, {}).setdefault(job.sid,
                                                        []).extend(job.sink)
        for qi, per_sid in per_q.items():
            res = results[qi]
            for sid in sorted(per_sid):
                hsps = per_sid[sid]
                hsps.sort(key=lambda h: (h.evalue, -h.score))
                res.hits.append(Hit(
                    subject_id=sid,
                    description=db.description(sid),
                    subject_len=int(structs.lengths[sid]),
                    hsps=hsps[:params.max_hsps],
                    fragment_id=db.fragment_id,
                ))
            res.sort()
        return results


def prepare_queries(queries: Sequence[np.ndarray], scheme: ScoringScheme,
                    params: Optional[SearchParams] = None, *,
                    is_protein: bool, db_size: Tuple[int, int],
                    query_ids: Optional[Sequence[str]] = None,
                    ka: Optional[KarlinAltschul] = None,
                    both_strands: bool = True,
                    identity_queries: Optional[
                        Sequence[Optional[np.ndarray]]] = None,
                    effective_spaces: Optional[
                        Sequence[Optional[Tuple[int, int]]]] = None
                    ) -> PreparedQueries:
    """Everything about a query batch that no fragment changes, built
    once: per-query search spaces, low-complexity masks, one
    :class:`~repro.blast.kmer.WordIndex` per orientation, their
    :class:`~repro.blast.scankernel.QueryBatch`, and the flat query
    concatenation.

    *db_size* is the whole database's ``(residues, sequences)``: the
    default search space of a query without an *effective_spaces*
    entry.  The other arguments are :func:`search_batch`'s.  Queries
    shorter than the word size contribute no entries and keep their
    empty results.
    """
    params = params or SearchParams()
    n_q = len(queries)
    if query_ids is None:
        query_ids = ["query"] * n_q
    if identity_queries is None:
        identity_queries = [None] * n_q
    if effective_spaces is None:
        effective_spaces = [None] * n_q
    if not (len(query_ids) == len(identity_queries)
            == len(effective_spaces) == n_q):
        raise ValueError("per-query argument sequences must match "
                         "len(queries)")
    if ka is None:
        ka = resolve_ka(scheme, params, is_protein)
    n_total, n_seqs = db_size

    def word_skip(oriented: np.ndarray):
        if not params.filter_low_complexity:
            return None
        from repro.blast.filter import apply_query_filter

        _, skip = apply_query_filter(oriented, is_protein, params.word_size)
        return skip

    prof = current_profile()
    t0 = time.perf_counter() if prof is not None else 0.0
    entries: List[Tuple[int, np.ndarray, int]] = []
    indexes: List[WordIndex] = []
    spaces: List[Optional[Tuple[int, int]]] = [None] * n_q
    for qi, q in enumerate(queries):
        if len(q) < params.word_size:
            continue
        if effective_spaces[qi] is not None:
            spaces[qi] = tuple(effective_spaces[qi])
        elif params.effective_lengths:
            spaces[qi] = effective_search_space(ka, len(q), n_total, n_seqs)
        else:
            spaces[qi] = (len(q), n_total)
        if is_protein:
            entries.append((qi, q, 1))
            indexes.append(WordIndex.for_protein(
                q, scheme, params.word_size, params.neighbor_threshold,
                skip=word_skip(q)))
        else:
            entries.append((qi, q, 1))
            indexes.append(WordIndex.for_dna(q, params.word_size,
                                             skip=word_skip(q)))
            if both_strands:
                rc = reverse_complement(q)
                entries.append((qi, rc, -1))
                indexes.append(WordIndex.for_dna(rc, params.word_size,
                                                 skip=word_skip(rc)))
    batch = qcat = qstarts = qlens = None
    if entries:
        batch = QueryBatch(indexes)
        if prof is not None:
            prof.add("index", time.perf_counter() - t0)
        qlens = np.array([len(e[1]) for e in entries], dtype=np.int64)
        qstarts = np.zeros(len(entries), dtype=np.int64)
        np.cumsum(qlens[:-1], out=qstarts[1:])
        qcat = np.concatenate([e[1] for e in entries])
    return PreparedQueries(
        scheme=scheme, params=params, ka=ka, is_protein=is_protein,
        query_ids=query_ids, query_lens=[len(q) for q in queries],
        identity_queries=identity_queries, spaces=spaces, entries=entries,
        batch=batch, qcat=qcat, qstarts=qstarts, qlens=qlens)


#: The two-hit window A: two word hits on one diagonal at most this far
#: apart seed a protein extension.
_TWO_HIT_WINDOW = 40


def _emit_bound(ka: KarlinAltschul, params: SearchParams, m_eff: int,
                n_eff: int) -> int:
    """The smallest ungapped score a candidate needs for its group to
    report anything: ``s*``, the least positive score whose E-value
    passes the cutoff, capped at ``gapped_trigger`` (a triggered
    candidate is reported at its gapped score, which the ungapped one
    does not bound)."""
    bound = ka.min_passing_score(params.evalue_cutoff, m_eff, n_eff)
    return (params.gapped_trigger if bound is None
            else min(bound, params.gapped_trigger))


def _bulk_groups_to_jobs(prepared: PreparedQueries, hits: HitGroups,
                         structs) -> List[_GappedJob]:
    """Steps 2-3 for every hit group of the batch at once.

    The whole hit stream — *hits*, the scan's flat groups — is seeded
    with one grouped sort (two-hit for protein, one-hit for nucleotide)
    and extended with one ``bulk_ungapped_extend`` call against the
    query concatenation (``prepared.qcat`` with per-entry ``qstarts``
    offsets) and the fragment's residues (``structs.scat``).  A group
    whose best extension scores under its query's :func:`_emit_bound`
    is dropped before anything else: the coverage dedup only removes
    seeds, an untriggered candidate is reported at its ungapped score
    and a triggered one needs ``gapped_trigger``, so no candidate of it
    could be reported.  Until here nothing runs per group; the
    per-diagonal coverage dedup is then replayed per remaining group
    from the bulk extents, and each group's surviving candidates become
    one :class:`_GappedJob`, in group order.
    """
    prof = current_profile()
    params, entries = prepared.params, prepared.entries
    spaces, qstarts, qlens = prepared.spaces, prepared.qstarts, prepared.qlens

    t0 = time.perf_counter() if prof is not None else 0.0
    if prepared.is_protein:
        sgid, sqp, ssp = two_hit_seeds_grouped(
            hits.gid, hits.spos, hits.qpos, params.word_size,
            _TWO_HIT_WINDOW)
    else:
        sgid, sqp, ssp = one_hit_seeds_grouped(hits.gid, hits.spos,
                                               hits.qpos)
    if prof is not None:
        prof.add("seed", time.perf_counter() - t0)
        prof.count("seeds", len(sgid))

    t0 = time.perf_counter() if prof is not None else 0.0
    seid = hits.eid[sgid]
    ssid = hits.sid[sgid]
    ll, ls, rl, rs = bulk_ungapped_extend(
        prepared.qcat, structs.scat,
        qstarts[seid] + sqp, structs.starts[ssid] + ssp,
        np.minimum(sqp, ssp),
        np.minimum(qlens[seid] - sqp, structs.lengths[ssid] - ssp),
        prepared.scheme, xdrop=params.xdrop_ungapped)
    if prof is not None:
        prof.add("extend", time.perf_counter() - t0)

    # sgid is group-major, a seeded group's seeds one run of it; only
    # the seeds of groups that pass the emit bound leave numpy.
    first = np.flatnonzero(np.diff(sgid, prepend=-1))
    n_seeds = np.diff(first, append=len(sgid))
    emit_bound = np.array([_emit_bound(prepared.ka, params, *spaces[e[0]])
                           for e in entries], dtype=np.int64)
    passing = (np.maximum.reduceat(ls + rs, first)
               >= emit_bound[hits.eid[sgid[first]]])
    pick = np.repeat(passing, n_seeds)
    sqp_l, ssp_l = sqp[pick].tolist(), ssp[pick].tolist()
    ll_l, ls_l = ll[pick].tolist(), ls[pick].tolist()
    rl_l, rs_l = rl[pick].tolist(), rs[pick].tolist()
    kept, ends = sgid[first[passing]], np.cumsum(n_seeds[passing])
    jobs: List[_GappedJob] = []
    skipped = 0
    for eid, sid, lo, hi in zip(hits.eid[kept].tolist(),
                                hits.sid[kept].tolist(),
                                (ends - n_seeds[passing]).tolist(),
                                ends.tolist()):
        # Replay of the per-diagonal coverage dedup: a seed inside the
        # extent of the previously accepted extension on its diagonal
        # contributes nothing.
        covered: Dict[int, int] = {}
        cands: List[UngappedHSP] = []
        for i in range(lo, hi):
            qp, sp = sqp_l[i], ssp_l[i]
            dg = sp - qp
            if covered.get(dg, -1) >= sp:
                skipped += 1
                continue
            s0 = sp - ll_l[i]
            length = ll_l[i] + rl_l[i]
            covered[dg] = s0 + length
            score = ls_l[i] + rs_l[i]
            if score > 0:
                cands.append(UngappedHSP(q_start=qp - ll_l[i], s_start=s0,
                                         length=length, score=score))
        if not cands:
            continue
        qi, oriented_query, strand = entries[eid]
        m_eff, n_eff = spaces[qi]
        jobs.append(_GappedJob(
            qi=qi, sid=sid, query=oriented_query, q_off=int(qstarts[eid]),
            s_off=int(structs.starts[sid]),
            s_len=int(structs.lengths[sid]), candidates=cands, m_eff=m_eff,
            n_eff=n_eff, strand=strand,
            identity_query=prepared.identity_queries[qi]))
    if prof is not None and skipped:
        prof.count("seeds_skipped", skipped)
    return jobs
