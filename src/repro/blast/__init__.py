"""A real BLAST-family sequence-search engine.

This subpackage is *not* simulated: it parses FASTA, formats databases,
builds word indexes, seeds, extends (ungapped X-drop and banded gapped),
and scores alignments with Karlin–Altschul statistics — the same
pipeline structure as NCBI BLAST (Altschul et al. 1990, 1997).  All five
classic programs are provided: blastn, blastp, blastx, tblastn, tblastx.

Quick example::

    from repro.blast import SequenceDB, blastn

    db = SequenceDB.from_fasta_text(\"\"\"
    >seq1
    ACGTACGTACGTACGTACGTACGTACGT
    \"\"\")
    results = blastn("ACGTACGTACGTACGT", db)
    print(results.best().evalue)
"""

from repro.blast.alphabet import (
    DNA,
    PROTEIN,
    decode_dna,
    decode_protein,
    encode_dna,
    encode_protein,
    reverse_complement,
)
from repro.blast.fasta import FastaRecord, parse_fasta, write_fasta
from repro.blast.score import (
    BLOSUM62,
    NucleotideScore,
    ProteinScore,
    ScoringScheme,
)
from repro.blast.stats import KarlinAltschul, karlin_altschul_params
from repro.blast.seqdb import SequenceDB, segment_db
from repro.blast.gapped import (banded_local_align, banded_local_align_many,
                                bulk_banded_score)
from repro.blast.search import Hit, HSP, SearchParams, SearchResults, search
from repro.blast.programs import blastall, blastn, blastp, blastx, tblastn, tblastx
from repro.blast.psiblast import PSSM, PsiBlastResult, build_pssm, psiblast
from repro.blast.queryseg import search_segmented, segment_query
from repro.blast.render import render_hsp, render_results
from repro.blast.filter import dust_mask, seg_mask
from repro.blast.scankernel import (ScanCache, ScanStructures,
                                    build_scan_structures,
                                    default_scan_cache, scan_fragment)
from repro.blast.translate import translate, six_frames
from repro.blast.xmlout import to_xml

__all__ = [
    "BLOSUM62",
    "PSSM",
    "PsiBlastResult",
    "blastall",
    "build_pssm",
    "dust_mask",
    "psiblast",
    "render_hsp",
    "render_results",
    "ScanCache",
    "ScanStructures",
    "build_scan_structures",
    "default_scan_cache",
    "scan_fragment",
    "search_segmented",
    "seg_mask",
    "segment_query",
    "to_xml",
    "DNA",
    "FastaRecord",
    "HSP",
    "Hit",
    "KarlinAltschul",
    "NucleotideScore",
    "PROTEIN",
    "ProteinScore",
    "ScoringScheme",
    "SearchParams",
    "SearchResults",
    "SequenceDB",
    "banded_local_align",
    "banded_local_align_many",
    "blastn",
    "bulk_banded_score",
    "blastp",
    "blastx",
    "decode_dna",
    "decode_protein",
    "encode_dna",
    "encode_protein",
    "karlin_altschul_params",
    "parse_fasta",
    "reverse_complement",
    "search",
    "segment_db",
    "six_frames",
    "tblastn",
    "tblastx",
    "translate",
    "write_fasta",
]
