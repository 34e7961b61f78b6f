"""NCBI-style pairwise alignment rendering.

Turns an :class:`~repro.blast.search.HSP` (with its ``ops`` string)
into the classic three-line blocks::

    Query  1    ACGTACGT-ACGTT  13
                |||| ||| ||| |
    Sbjct  101  ACGTTCGTAACGAT  114

Minus-strand nucleotide HSPs are rendered against the reverse
complement of the query (coordinates shown in plus-strand space, as
NCBI does).
"""

from __future__ import annotations

from typing import List

from repro.blast.alphabet import decode_dna, encode_dna, reverse_complement
from repro.blast.search import HSP, SearchResults
from repro.blast.seqdb import NT, SequenceDB

#: Alignment columns per rendered line, and HSPs rendered per hit.
ALIGN_WIDTH, MAX_HSPS = 60, 3


def _aligned_strings(query: str, subject: str, hsp: HSP):
    """Build the query/match/subject strings from the ops path."""
    ops = hsp.ops or "M" * hsp.align_len
    qi, si = hsp.q_start, hsp.s_start
    q_line: List[str] = []
    m_line: List[str] = []
    s_line: List[str] = []
    for op in ops:
        if op == "M":
            qc, sc = query[qi], subject[si]
            q_line.append(qc)
            s_line.append(sc)
            m_line.append("|" if qc == sc else " ")
            qi += 1
            si += 1
        elif op == "D":          # query residue vs gap
            q_line.append(query[qi])
            s_line.append("-")
            m_line.append(" ")
            qi += 1
        elif op == "I":          # gap vs subject residue
            q_line.append("-")
            s_line.append(subject[si])
            m_line.append(" ")
            si += 1
        else:
            raise ValueError(f"unknown op {op!r}")
    if qi != hsp.q_end or si != hsp.s_end:
        raise ValueError("ops do not span the HSP coordinates")
    return "".join(q_line), "".join(m_line), "".join(s_line)


def render_hsp(query: str, subject: str, hsp: HSP,
               minus_query_len: int = 0) -> str:
    """Render one HSP as wrapped three-line blocks.

    *query* and *subject* must be in the orientation the HSP was found
    in (pass the reverse-complemented query for strand -1 and set
    ``minus_query_len`` to the full query length so coordinates can be
    mapped back to plus-strand space).
    """
    q_str, m_str, s_str = _aligned_strings(query, subject, hsp)
    header = (f" Score = {hsp.bit_score:.1f} bits ({hsp.score}), "
              f"Expect = {hsp.evalue:.2g}\n"
              f" Identities = {hsp.identities}/{hsp.align_len} "
              f"({100 * hsp.identity:.0f}%)"
              + (", Strand = Plus / Minus" if hsp.strand == -1 else ""))
    lines = [header, ""]
    qpos, spos = hsp.q_start, hsp.s_start
    for off in range(0, len(q_str), ALIGN_WIDTH):
        qchunk = q_str[off:off + ALIGN_WIDTH]
        mchunk = m_str[off:off + ALIGN_WIDTH]
        schunk = s_str[off:off + ALIGN_WIDTH]
        q_consumed = len(qchunk) - qchunk.count("-")
        s_consumed = len(schunk) - schunk.count("-")
        if hsp.strand == -1 and minus_query_len:
            # Map RC coordinates to plus-strand, 1-based inclusive.
            disp_q0 = minus_query_len - qpos
            disp_q1 = minus_query_len - (qpos + q_consumed) + 1
        else:
            disp_q0 = qpos + 1
            disp_q1 = qpos + q_consumed
        lines.append(f"Query  {disp_q0:<6d} {qchunk}  {disp_q1}")
        lines.append(f"       {'':<6s} {mchunk}")
        lines.append(f"Sbjct  {spos + 1:<6d} {schunk}  {spos + s_consumed}")
        lines.append("")
        qpos += q_consumed
        spos += s_consumed
    return "\n".join(lines).rstrip()


def render_results(query: str, db: SequenceDB, results: SearchResults,
                   max_hits: int = 10) -> str:
    """Full report: the summary table plus rendered alignments.

    Works for blastn and blastp results (translated programs report
    against translated subjects, which are not rendered here).
    """
    results.sort()
    out = [results.report(max_hits=max_hits), ""]
    is_nt = db.seqtype == NT
    if is_nt:
        q_minus = decode_dna(reverse_complement(encode_dna(query)))
    for hit in results.hits[:max_hits]:
        subject = db.sequence_str(hit.subject_id)
        out.append(f">{hit.description}")
        out.append(f"Length = {hit.subject_len}")
        out.append("")
        for hsp in hit.hsps[:MAX_HSPS]:
            if is_nt and hsp.strand == -1:
                out.append(render_hsp(q_minus, subject, hsp,
                                      minus_query_len=len(query)))
            elif abs(hsp.strand) == 1:
                out.append(render_hsp(query.upper(), subject, hsp))
            else:
                out.append(f" [frame {hsp.strand:+d} alignment: "
                           f"score {hsp.score}, E = {hsp.evalue:.2g}]")
            out.append("")
    return "\n".join(out).rstrip() + "\n"
