"""Corpora and queries, generated from ``--seed`` and nothing else.

The program under test receives only what is built here — never the
seed or the workload name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.blast.alphabet import decode_protein, encode_dna, encode_protein
from repro.blast.kmer import WordIndex
from repro.blast.programs import program_defaults
from repro.workloads import extract_query, synthetic_aa_db, synthetic_nt_db

#: The paper's operating point is one 568-nt blastn query; 4 M residues
#: is where pool round-trip cost starts to amortise (ROADMAP table) and
#: the packs (~52 MB) still fit a shared 2-core box.
NT_RESIDUES = 4_000_000
NT_QUERY_LEN = 568
NT_QUERIES = 16
#: The gapped-heavy protein population of ``bench_engine.measure_gapped``.
AA_RESIDUES = 40_000
AA_QUERY_LEN = 350
AA_QUERIES = 6
#: The aa queries are picked from the first this-many full-length
#: sequences (see make_aa).
AA_POOL = 24
#: ``--smoke`` corpus size (both alphabets).
SMOKE_RESIDUES = 20_000


@dataclass
class Corpus:
    """One database plus the query population searched against it."""

    kind: str                    # "nt" | "aa"
    db: object                   # SequenceDB
    queries: List[str]           # what blastn()/blastp() receive
    encoded: List[np.ndarray]    # what search()/the pool receive
    #: First word of the description of the sequence each query was cut
    #: from — the subject id its top hit must carry.
    sources: List[str]
    scheme: object
    params: object

    @property
    def query_len(self) -> int:
        return len(self.queries[0])


def _subject_id(db, sid: int) -> str:
    return db.description(sid).split()[0]


def make_nt(seed: int, residues: int = NT_RESIDUES,
            n_queries: int = NT_QUERIES) -> Corpus:
    db = synthetic_nt_db(residues, seed=seed)
    queries = [extract_query(db, NT_QUERY_LEN, seed=seed + 100 + i)
               for i in range(n_queries)]
    # extract_query does not say where it cut; a random 568-mer occurs
    # once, so the sequence containing it is its source.
    texts = [db.sequence_str(i) for i in range(len(db))]
    sources = []
    for q in queries:
        sid = next(i for i, t in enumerate(texts) if q in t)
        sources.append(_subject_id(db, sid))
    scheme, params = program_defaults("blastn")
    return Corpus("nt", db, queries, [encode_dna(q) for q in queries],
                  sources, scheme, params)


def make_aa(seed: int, residues: int = AA_RESIDUES,
            n_queries: int = AA_QUERIES) -> Corpus:
    db = synthetic_aa_db(residues, seed=seed + 7)
    scheme, params = program_defaults("blastp")
    # Full-length (350-residue) prefixes only; every 9th residue is
    # shifted by one so the source is the top hit but never a 100 % one.
    pool = [j for j in range(len(db))
            if len(db.sequence(j)) >= AA_QUERY_LEN][:AA_POOL]
    if len(pool) < n_queries:
        raise ValueError(f"aa corpus of {residues} residues has only "
                         f"{len(pool)} sequences >= {AA_QUERY_LEN}")
    mutated = []
    for j in pool:
        q = db.sequence(j)[:AA_QUERY_LEN].copy()
        q[::9] = (q[::9] + 1) % 20
        mutated.append(q)
    # What a protein search costs follows the size of the query's word
    # neighbourhood (r = 0.8), which swings by +-20 % with composition.
    # Six random queries would make every metric swing with the seed, so
    # take the six of the pool with the most typical neighbourhoods.
    words = [WordIndex.for_protein(q, scheme, params.word_size,
                                   params.neighbor_threshold).n_words
             for q in mutated]
    by_words = sorted(range(len(pool)), key=lambda i: (words[i], i))
    lo = (len(pool) - n_queries) // 2
    picks = sorted(by_words[lo:lo + n_queries])
    queries = [decode_protein(mutated[i]) for i in picks]
    return Corpus("aa", db, queries, [encode_protein(q) for q in queries],
                  [_subject_id(db, pool[i]) for i in picks], scheme, params)


def tiny_nt() -> Corpus:
    """A one-sequence database: a pool search over it is all fixed
    round-trip cost (the intercept), no scan."""
    from repro.blast.seqdb import SequenceDB

    rng = np.random.default_rng(0)
    seq = np.frombuffer(b"ACGT", dtype=np.uint8)[
        rng.integers(0, 4, size=2 * NT_QUERY_LEN)].tobytes().decode()
    db = SequenceDB("nt", name="tiny")
    db.add("tiny0000000 one-sequence database", seq)
    query = seq[100:100 + NT_QUERY_LEN]
    scheme, params = program_defaults("blastn")
    return Corpus("nt", db, [query], [encode_dna(query)], ["tiny0000000"],
                  scheme, params)
