"""The five classic BLAST programs.

====================  ===========  ============  =========================
program               query        database      comparison space
====================  ===========  ============  =========================
blastn                nucleotide   nucleotide    nucleotide (both strands)
blastp                protein      protein       protein
blastx                nucleotide   protein       query translated, 6 frames
tblastn               protein      nucleotide    database translated, 6 frames
tblastx               nucleotide   nucleotide    both translated, 6x6 frames
====================  ===========  ============  =========================

``blastall(program, ...)`` dispatches by name, mirroring NCBI's single
entry point (Section 2.1 of the paper).
"""

from __future__ import annotations

from typing import Optional

from repro.blast.alphabet import encode_dna, encode_protein
from repro.blast.score import NucleotideScore, ProteinScore, ScoringScheme
from repro.blast.search import SearchParams, SearchResults, search
from repro.blast.seqdb import AA, NT, SequenceDB
from repro.blast.translate import six_frames


def _nt_params(params: Optional[SearchParams]) -> SearchParams:
    return params or SearchParams(word_size=11, gapped_trigger=18,
                                  xdrop_ungapped=20)


def _aa_params(params: Optional[SearchParams]) -> SearchParams:
    return params or SearchParams(word_size=3, neighbor_threshold=11,
                                  xdrop_ungapped=16, gapped_trigger=22)


def program_defaults(program: str, params: Optional[SearchParams] = None
                     ) -> tuple:
    """The ``(scheme, params)`` pair a program runs with by default.

    This is the single source of truth the CLI derives its ``-e`` /
    ``-F`` overrides from and its serial and ``--jobs`` paths share
    with the dispatch below, so none of them can drift
    from what ``blastall`` would have used.  The three translated
    programs compare in protein space and take blastp's.
    """
    if program == "blastn":
        return NucleotideScore(), _nt_params(params)
    if program in _PROGRAMS:
        return ProteinScore(), _aa_params(params)
    raise ValueError(f"unknown program {program!r}; "
                     f"choose from {sorted(_PROGRAMS)}")


def blastn(query: str, db: SequenceDB, params: Optional[SearchParams] = None,
           scheme: Optional[ScoringScheme] = None,
           query_id: str = "query") -> SearchResults:
    """Nucleotide query vs nucleotide database."""
    if db.seqtype != NT:
        raise ValueError("blastn needs a nucleotide database")
    return search(encode_dna(query), db, scheme or NucleotideScore(),
                  _nt_params(params), query_id=query_id, both_strands=True)


def blastp(query: str, db: SequenceDB, params: Optional[SearchParams] = None,
           scheme: Optional[ScoringScheme] = None,
           query_id: str = "query") -> SearchResults:
    """Protein query vs protein database."""
    if db.seqtype != AA:
        raise ValueError("blastp needs a protein database")
    return search(encode_protein(query), db, scheme or ProteinScore(),
                  _aa_params(params), query_id=query_id)


def blastx(query: str, db: SequenceDB, params: Optional[SearchParams] = None,
           scheme: Optional[ScoringScheme] = None,
           query_id: str = "query") -> SearchResults:
    """Nucleotide query translated in six frames vs protein database."""
    if db.seqtype != AA:
        raise ValueError("blastx needs a protein database")
    dna = encode_dna(query)
    scheme = scheme or ProteinScore()
    params = _aa_params(params)
    merged: Optional[SearchResults] = None
    for frame, prot in six_frames(dna):
        if len(prot) < params.word_size:
            continue
        res = search(prot, db, scheme, params,
                     query_id=f"{query_id}|frame{frame:+d}")
        for hit in res.hits:
            for h in hit.hsps:
                h.strand = frame
        res.query_id = query_id
        if merged is None:
            merged = res
        else:
            merged.hits.extend(res.hits)
    if merged is None:
        merged = SearchResults(query_id, len(query) // 3,
                               db.total_residues, len(db))
    merged.query_len = len(query)
    merged.sort()
    return merged


def _translated_db(db: SequenceDB) -> SequenceDB:
    """Six-frame translation of a nucleotide database into a protein
    database; frame is recorded in the description."""
    out = SequenceDB(AA, name=f"{db.name}.xlate",
                     fragment_id=db.fragment_id)
    for sid in range(len(db)):
        dna = db.sequence(sid)
        desc = db.description(sid)
        for frame, prot in six_frames(dna):
            if len(prot) == 0:
                continue
            out.add(f"{desc}|frame{frame:+d}", prot)
    return out


def tblastn(query: str, db: SequenceDB, params: Optional[SearchParams] = None,
            scheme: Optional[ScoringScheme] = None,
            query_id: str = "query") -> SearchResults:
    """Protein query vs nucleotide database translated in six frames."""
    if db.seqtype != NT:
        raise ValueError("tblastn needs a nucleotide database")
    xdb = _translated_db(db)
    return search(encode_protein(query), xdb, scheme or ProteinScore(),
                  _aa_params(params), query_id=query_id)


def tblastx(query: str, db: SequenceDB, params: Optional[SearchParams] = None,
            scheme: Optional[ScoringScheme] = None,
            query_id: str = "query") -> SearchResults:
    """Translated nucleotide query vs translated nucleotide database."""
    if db.seqtype != NT:
        raise ValueError("tblastx needs a nucleotide database")
    xdb = _translated_db(db)
    return blastx(query, xdb, params, scheme, query_id=query_id)


_PROGRAMS = {
    "blastn": blastn,
    "blastp": blastp,
    "blastx": blastx,
    "tblastn": tblastn,
    "tblastx": tblastx,
}


def blastall(program: str, query: str, db: SequenceDB,
             params: Optional[SearchParams] = None,
             query_id: str = "query") -> SearchResults:
    """Single dispatch interface over the five programs (like NCBI's
    ``blastall`` binary)."""
    try:
        fn = _PROGRAMS[program]
    except KeyError:
        raise ValueError(f"unknown program {program!r}; "
                         f"choose from {sorted(_PROGRAMS)}") from None
    return fn(query, db, params=params, query_id=query_id)
