"""PSI-BLAST: position-specific iterated BLAST (Altschul et al. 1997 —
the paper's reference [9]).

Iteration 1 is an ordinary blastp.  Hits below the inclusion E-value
form a multiple alignment against the query, from which a
position-specific scoring matrix (PSSM) is estimated: per-column
residue frequencies blended with background pseudocounts and converted
to log-odds scores.  Later iterations search with the PSSM, which is
what lets PSI-BLAST pull in homologs too distant for BLOSUM62.

Implementation note: the generic pipeline in :mod:`repro.blast.search`
scores pairs as ``matrix[query_code, subject_code]``; PSI-BLAST reuses
it unchanged by passing ``query = [0, 1, ..., m-1]`` (position indices)
with ``matrix = PSSM`` and supplying the real residues separately for
identity counting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

import numpy as np

from repro.blast.alphabet import PROTEIN, encode_protein
from repro.blast.score import BLOSUM62, ProteinScore, ScoringScheme
from repro.blast.search import SearchParams, SearchResults, search
from repro.blast.seqdb import AA, SequenceDB
from repro.blast.stats import karlin_altschul_params, _protein_probs

#: Pseudocount weight (NCBI uses ~10 observations' worth).
PSEUDOCOUNT_WEIGHT = 10.0


@dataclass
class PSSM:
    """A position-specific scoring matrix for one query."""

    #: Integer log-odds scores, shape (query length, alphabet size).
    matrix: np.ndarray
    #: The encoded query the matrix was built for.
    query: np.ndarray
    #: Sequences (aligned residues per column) that went into it.
    n_sequences: int

    @property
    def length(self) -> int:
        return self.matrix.shape[0]

    def scheme(self, gap_open: int = 11, gap_extend: int = 1) -> ScoringScheme:
        """A ScoringScheme whose 'query codes' are positions 0..m-1."""
        m = self.matrix.copy()
        m.setflags(write=False)
        return ScoringScheme(m, gap_open, gap_extend, PROTEIN)


@dataclass
class PsiBlastResult:
    """Outcome of an iterated search."""

    iterations: List[SearchResults] = field(default_factory=list)
    pssm: Optional[PSSM] = None
    converged: bool = False

    @property
    def n_iterations(self) -> int:
        return len(self.iterations)


def _column_observations(query: np.ndarray, db: SequenceDB,
                         results: SearchResults,
                         inclusion_evalue: float
                         ) -> Tuple[np.ndarray, int]:
    """Count aligned residues per (query column, residue) from included
    hits.  Returns (counts matrix, number of included sequences)."""
    m = len(query)
    n_letters = len(PROTEIN)
    counts = np.zeros((m, n_letters), dtype=np.float64)
    included = 0
    for hit in results.hits:
        best = hit.hsps[0] if hit.hsps else None
        if best is None or best.evalue > inclusion_evalue:
            continue
        included += 1
        subject = db.sequence(hit.subject_id)
        for hsp in hit.hsps:
            if hsp.evalue > inclusion_evalue:
                continue
            qi, si = hsp.q_start, hsp.s_start
            ops = hsp.ops or "M" * hsp.align_len
            for op in ops:
                if op == "M":
                    counts[qi, subject[si]] += 1.0
                    qi += 1
                    si += 1
                elif op == "D":
                    qi += 1
                else:
                    si += 1
    return counts, included


def build_pssm(query: np.ndarray, db: SequenceDB, results: SearchResults,
               inclusion_evalue: float = 1e-3) -> PSSM:
    """Estimate a PSSM from the included hits of one search round.

    Per column: observed frequencies blended with background
    pseudocounts, converted to integer log-odds with the BLOSUM62
    ungapped lambda (so PSSM scores live on the same scale as BLOSUM62
    and the usual Karlin–Altschul statistics remain applicable).
    Columns with no aligned observations fall back to the BLOSUM62 row
    of the query residue.
    """
    counts, included = _column_observations(query, db, results,
                                            inclusion_evalue)
    # The query itself always counts as one observation per column.
    for i, aa in enumerate(query):
        counts[i, aa] += 1.0

    probs = _protein_probs()
    lam = karlin_altschul_params(BLOSUM62).lam
    m = len(query)
    pssm = np.zeros((m, len(PROTEIN)), dtype=np.int32)
    for i in range(m):
        n_obs = counts[i].sum()
        freq = counts[i] / n_obs
        alpha = max(n_obs - 1.0, 0.0)
        beta = PSEUDOCOUNT_WEIGHT
        blended = (alpha * freq + beta * probs) / (alpha + beta)
        scores = np.log(np.maximum(blended, 1e-9) / probs) / lam
        pssm[i] = np.rint(scores).astype(np.int32)
    # Fallback for unobserved columns (only the query residue seen and
    # tiny alpha): keep them close to BLOSUM62 behaviour.
    lone = counts.sum(axis=1) <= 1.0
    if lone.any():
        pssm[lone] = BLOSUM62[query[lone]]
    return PSSM(matrix=pssm, query=query.copy(), n_sequences=included)


def _hit_set(results: SearchResults, inclusion_evalue: float) -> Set[int]:
    return {h.subject_id for h in results.hits
            if h.best_evalue <= inclusion_evalue}


def psiblast(query: str, db: SequenceDB, iterations: int = 3,
             inclusion_evalue: float = 1e-3,
             query_id: str = "query") -> PsiBlastResult:
    """Iterated position-specific search.

    Stops early when the included hit set stops changing (convergence,
    as NCBI reports it).
    """
    if db.seqtype != AA:
        raise ValueError("psiblast needs a protein database")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    params = SearchParams(word_size=3, neighbor_threshold=11,
                          xdrop_ungapped=16, gapped_trigger=22)
    enc = encode_protein(query)
    scheme = ProteinScore()
    result = PsiBlastResult()

    round1 = search(enc, db, scheme, params, query_id=f"{query_id}|iter1")
    round1.query_id = query_id
    result.iterations.append(round1)
    prev_set = _hit_set(round1, inclusion_evalue)

    positions = np.arange(len(enc), dtype=np.uint8 if len(enc) < 256
                          else np.int64)
    for it in range(2, iterations + 1):
        pssm = build_pssm(enc, db, result.iterations[-1], inclusion_evalue)
        result.pssm = pssm
        res = search(positions, db, pssm.scheme(scheme.gap_open,
                                                scheme.gap_extend),
                     params, query_id=f"{query_id}|iter{it}",
                     identity_query=enc)
        res.query_id = query_id
        result.iterations.append(res)
        cur_set = _hit_set(res, inclusion_evalue)
        if cur_set == prev_set:
            result.converged = True
            break
        prev_set = cur_set
    return result
