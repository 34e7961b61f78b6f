"""Codon translation and six-frame translation (for blastx/tblastn/tblastx)."""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.blast.alphabet import encode_protein, reverse_complement

# Standard genetic code indexed by 16*b0 + 4*b1 + b2 with A=0 C=1 G=2 T=3.
_CODON_TABLE_STR = (
    "KNKN" "TTTT" "RSRS" "IIMI"   # AAx ACx AGx ATx
    "QHQH" "PPPP" "RRRR" "LLLL"   # CAx CCx CGx CTx
    "EDED" "AAAA" "GGGG" "VVVV"   # GAx GCx GGx GTx
    "*Y*Y" "SSSS" "*CWC" "LFLF"   # TAx TCx TGx TTx
)
assert len(_CODON_TABLE_STR) == 64

_CODON_LUT = encode_protein(_CODON_TABLE_STR)


def translate(dna: np.ndarray, frame: int = 0) -> np.ndarray:
    """Translate an encoded DNA array starting at ``frame`` (0, 1, 2).

    Returns encoded protein (stop codons become ``*``).
    """
    if frame not in (0, 1, 2):
        raise ValueError("frame must be 0, 1 or 2")
    d = np.asarray(dna, dtype=np.int64)[frame:]
    n_codons = len(d) // 3
    if n_codons == 0:
        return np.empty(0, dtype=np.uint8)
    d = d[:n_codons * 3].reshape(-1, 3)
    idx = d[:, 0] * 16 + d[:, 1] * 4 + d[:, 2]
    return _CODON_LUT[idx]


def six_frames(dna: np.ndarray) -> List[Tuple[int, np.ndarray]]:
    """All six translation frames.

    Returns [(frame, protein)], frame in {1,2,3,-1,-2,-3} with NCBI
    conventions (negative frames translate the reverse complement).
    """
    out: List[Tuple[int, np.ndarray]] = []
    rc = reverse_complement(dna)
    for f in (0, 1, 2):
        out.append((f + 1, translate(dna, f)))
    for f in (0, 1, 2):
        out.append((-(f + 1), translate(rc, f)))
    return out

