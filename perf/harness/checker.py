"""Per-op correctness: every rendered byte against a serial reference,
plus a property that does not depend on either driver."""

from __future__ import annotations

from typing import List, Optional

from repro.blast.scankernel import default_scan_cache
from repro.blast.search import search_batch

from harness.inputs import Corpus


def top_hit_problem(corpus: Corpus, qi: int, text: str) -> Optional[str]:
    """Why *text* cannot be the answer for query *qi*, judged without a
    reference: the sequence the query was cut from must be its top hit;
    an nt query is an exact extract, so that hit spans the whole query
    at 100 % identity, and a mutated aa query never reaches 100 %."""
    first = text.split("\n", 1)[0].split("\t")
    if len(first) != 12:
        return f"query {qi}: no tabular hit line"
    if first[1] != corpus.sources[qi]:
        return (f"query {qi}: top hit {first[1]!r}, expected its source "
                f"{corpus.sources[qi]!r}")
    if corpus.kind == "nt":
        if first[2] != "100.000" or first[3] != str(corpus.query_len):
            return (f"query {qi}: top hit is {first[2]} % over {first[3]} "
                    f"columns, expected 100.000 % over {corpus.query_len}")
    elif first[2] == "100.000":
        return f"query {qi}: a mutated query hit its source at 100 %"
    return None


class Checker:
    """Holds one serial reference per query of a corpus."""

    def __init__(self, corpus: Corpus):
        self.corpus = corpus
        self.references: List[str] = []
        for qi, q in enumerate(corpus.encoded):
            text = search_batch([q], corpus.db, corpus.scheme,
                                corpus.params)[0].tabular()
            problem = top_hit_problem(corpus, qi, text)
            if problem:
                raise RuntimeError(f"unusable reference: {problem}")
            self.references.append(text)
        # The references must not leave warm scan structures behind for
        # the workloads to find.
        default_scan_cache().clear()

    def problem(self, qi: int, text: str) -> Optional[str]:
        """``None`` when *text* is the right answer for query *qi*."""
        if text != self.references[qi]:
            return f"query {qi}: rendered text differs from the reference"
        return top_hit_problem(self.corpus, qi, text)
