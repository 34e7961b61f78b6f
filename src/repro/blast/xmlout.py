"""BLAST XML output (the NCBI BlastOutput DTD, abridged).

Era pipelines parsed ``blastall -m 7`` XML; this writer emits the same
element structure for :class:`~repro.blast.search.SearchResults` so
such parsers (BioPython's ``NCBIXML`` among them) have something
familiar to chew on.
"""

from __future__ import annotations

from xml.sax.saxutils import escape

from repro.blast.search import SearchResults


def to_xml(results: SearchResults, program: str = "blastn",
           database: str = "db") -> str:
    """Render results as BlastOutput-style XML."""
    results.sort()
    lines = [
        '<?xml version="1.0"?>',
        "<BlastOutput>",
        f"  <BlastOutput_program>{escape(program)}</BlastOutput_program>",
        f"  <BlastOutput_db>{escape(database)}</BlastOutput_db>",
        f"  <BlastOutput_query-ID>{escape(results.query_id)}</BlastOutput_query-ID>",
        f"  <BlastOutput_query-len>{results.query_len}</BlastOutput_query-len>",
        "  <BlastOutput_iterations>",
        "    <Iteration>",
        "      <Iteration_iter-num>1</Iteration_iter-num>",
        "      <Iteration_hits>",
    ]
    for num, hit in enumerate(results.hits, 1):
        lines += [
            "        <Hit>",
            f"          <Hit_num>{num}</Hit_num>",
            f"          <Hit_id>{escape(hit.description.split()[0] if hit.description else str(hit.subject_id))}</Hit_id>",
            f"          <Hit_def>{escape(hit.description)}</Hit_def>",
            f"          <Hit_len>{hit.subject_len}</Hit_len>",
            "          <Hit_hsps>",
        ]
        for hnum, h in enumerate(hit.hsps, 1):
            # NCBI coordinates are 1-based inclusive; minus-strand
            # nucleotide HSPs swap the query from/to.
            q_from, q_to = h.q_start + 1, h.q_end
            if h.strand == -1:
                q_from, q_to = results.query_len - h.q_start, \
                    results.query_len - h.q_end + 1
            gaps = h.ops.count("D") + h.ops.count("I") if h.ops else 0
            lines += [
                "            <Hsp>",
                f"              <Hsp_num>{hnum}</Hsp_num>",
                f"              <Hsp_bit-score>{h.bit_score:.6g}</Hsp_bit-score>",
                f"              <Hsp_score>{h.score}</Hsp_score>",
                f"              <Hsp_evalue>{h.evalue:.6g}</Hsp_evalue>",
                f"              <Hsp_query-from>{q_from}</Hsp_query-from>",
                f"              <Hsp_query-to>{q_to}</Hsp_query-to>",
                f"              <Hsp_hit-from>{h.s_start + 1}</Hsp_hit-from>",
                f"              <Hsp_hit-to>{h.s_end}</Hsp_hit-to>",
                f"              <Hsp_identity>{h.identities}</Hsp_identity>",
                f"              <Hsp_gaps>{gaps}</Hsp_gaps>",
                f"              <Hsp_align-len>{h.align_len}</Hsp_align-len>",
                "            </Hsp>",
            ]
        lines += [
            "          </Hit_hsps>",
            "        </Hit>",
        ]
    lines += [
        "      </Iteration_hits>",
        "      <Iteration_stat>",
        f"        <Statistics_db-num>{results.db_sequences}</Statistics_db-num>",
        f"        <Statistics_db-len>{results.db_residues}</Statistics_db-len>",
        "      </Iteration_stat>",
        "    </Iteration>",
        "  </BlastOutput_iterations>",
        "</BlastOutput>",
    ]
    return "\n".join(lines) + "\n"
