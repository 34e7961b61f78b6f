"""Query sampling.

Pedretti et al. (paper ref [13]) observed that ~90 % of biologists'
query sequences are 300–600 characters; the paper fixes a 568-character
nucleotide query extracted from ``ecoli.nt``.
"""

from __future__ import annotations

import numpy as np

from repro.blast.seqdb import SequenceDB

#: The paper's query length (Section 4.1).
PAPER_QUERY_LENGTH = 568

_BASES = np.frombuffer(b"ACGT", dtype=np.uint8)


def sample_query_length(rng: np.random.Generator) -> int:
    """Draw a query length: 90 % uniform in [300, 600], 10 % in a wider
    tail [60, 3000]."""
    if rng.random() < 0.9:
        return int(rng.integers(300, 601))
    return int(rng.integers(60, 3001))


def extract_query(db: SequenceDB, length: int = PAPER_QUERY_LENGTH,
                  seed: int = 0) -> str:
    """Cut a query of *length* bases out of a database sequence (the
    paper extracts its query from ecoli.nt) — guaranteed to have a hit."""
    rng = np.random.default_rng(seed)
    candidates = [i for i in range(len(db)) if len(db.sequence(i)) >= length]
    if not candidates:
        raise ValueError(f"no database sequence is >= {length} bases")
    sid = int(rng.choice(candidates))
    seq = db.sequence_str(sid)
    start = int(rng.integers(0, len(seq) - length + 1))
    return seq[start:start + length]


def synthetic_query(length: int = PAPER_QUERY_LENGTH, seed: int = 0) -> str:
    """A random query of *length* bases (no planted hit)."""
    rng = np.random.default_rng(seed)
    return _BASES[rng.integers(0, 4, size=length)].tobytes().decode()
