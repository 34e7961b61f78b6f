"""Sequence alphabets and numeric encodings.

DNA is encoded 2 bits per base conceptually (A=0, C=1, G=2, T=3) into
``uint8`` arrays; ambiguity codes (N, R, Y, ...) are mapped to A with a
flag available to callers who care.  Protein uses a 25-letter alphabet
(20 standard residues + B Z X U and ``*``) matching the BLOSUM62 table.
"""

from __future__ import annotations

import numpy as np

DNA = "ACGT"
#: Protein alphabet in BLOSUM62 row order.
PROTEIN = "ARNDCQEGHILKMFPSTWYVBZX*U"

_DNA_LUT = np.full(256, 255, dtype=np.uint8)
for _i, _c in enumerate(DNA):
    _DNA_LUT[ord(_c)] = _i
    _DNA_LUT[ord(_c.lower())] = _i
# IUPAC ambiguity codes fold to A (matching the common "mask to A"
# preprocessing; BLAST itself scores them as mismatches almost always).
for _c in "NRYSWKMBDHVnryswkmbdhv":
    _DNA_LUT[ord(_c)] = 0

_PROT_LUT = np.full(256, 255, dtype=np.uint8)
for _i, _c in enumerate(PROTEIN):
    _PROT_LUT[ord(_c)] = _i
    _PROT_LUT[ord(_c.lower())] = _i
# Rare letters fold to X.
for _c in "JOjo":
    _PROT_LUT[ord(_c)] = PROTEIN.index("X")

_DNA_COMP = np.array([3, 2, 1, 0], dtype=np.uint8)  # A<->T, C<->G

_DNA_CHARS = np.frombuffer(DNA.encode(), dtype=np.uint8)
_PROT_CHARS = np.frombuffer(PROTEIN.encode(), dtype=np.uint8)


class AlphabetError(ValueError):
    """Raised on characters outside the alphabet."""


def encode_dna(seq: str, strict: bool = False) -> np.ndarray:
    """Encode a DNA string to a uint8 array (A=0 C=1 G=2 T=3).

    With ``strict`` any character outside ACGT+IUPAC raises; otherwise
    unknown characters raise too (they are never silently accepted —
    only recognised ambiguity codes fold to A).
    """
    raw = np.frombuffer(seq.encode("ascii", "strict"), dtype=np.uint8)
    out = _DNA_LUT[raw]
    if (out == 255).any():
        bad = chr(raw[int(np.argmax(out == 255))])
        raise AlphabetError(f"invalid DNA character {bad!r}")
    if strict:
        # Re-check: ambiguity codes are not allowed in strict mode.
        ok = np.isin(raw, np.frombuffer(b"ACGTacgt", dtype=np.uint8))
        if not ok.all():
            bad = chr(raw[int(np.argmax(~ok))])
            raise AlphabetError(f"ambiguous DNA character {bad!r} (strict)")
    return out


def decode_dna(encoded: np.ndarray) -> str:
    """Inverse of :func:`encode_dna` (ambiguity folding is lossy)."""
    return _DNA_CHARS[np.asarray(encoded, dtype=np.uint8)].tobytes().decode()


def encode_protein(seq: str) -> np.ndarray:
    """Encode a protein string to BLOSUM62 row indices."""
    raw = np.frombuffer(seq.encode("ascii", "strict"), dtype=np.uint8)
    out = _PROT_LUT[raw]
    if (out == 255).any():
        bad = chr(raw[int(np.argmax(out == 255))])
        raise AlphabetError(f"invalid protein character {bad!r}")
    return out


def decode_protein(encoded: np.ndarray) -> str:
    """Inverse of :func:`encode_protein` (rare-letter folding is lossy)."""
    return _PROT_CHARS[np.asarray(encoded, dtype=np.uint8)].tobytes().decode()


def reverse_complement(encoded: np.ndarray) -> np.ndarray:
    """Reverse-complement an encoded DNA array."""
    return _DNA_COMP[np.asarray(encoded, dtype=np.uint8)][::-1]
