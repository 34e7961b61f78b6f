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


def _table(alphabet: str, folds: str, fold_to: int) -> bytes:
    """A 256-byte :meth:`bytes.translate` table: each letter of
    *alphabet* (either case) to its index, each of *folds* to *fold_to*,
    every other byte to 255."""
    table = bytearray(b"\xff" * 256)
    for i, c in enumerate(alphabet):
        table[ord(c)] = table[ord(c.lower())] = i
    for c in folds:
        table[ord(c)] = fold_to
    return bytes(table)


# IUPAC ambiguity codes fold to A (matching the common "mask to A"
# preprocessing; BLAST itself scores them as mismatches almost always).
_DNA_TABLE = _table(DNA, "NRYSWKMBDHVnryswkmbdhv", 0)
_DNA_STRICT_TABLE = _table(DNA, "", 0)
# Rare letters fold to X.
_PROT_TABLE = _table(PROTEIN, "JOjo", PROTEIN.index("X"))

_DNA_COMP = np.array([3, 2, 1, 0], dtype=np.uint8)  # A<->T, C<->G

_DNA_CHARS = np.frombuffer(DNA.encode(), dtype=np.uint8)
_PROT_CHARS = np.frombuffer(PROTEIN.encode(), dtype=np.uint8)


class AlphabetError(ValueError):
    """Raised on characters outside the alphabet."""


def _codes(seq: str, table: bytes, error: str) -> bytes:
    """*seq* through *table*, one C pass and no index temporary; the
    first character the table has no code for raises *error* naming
    it."""
    codes = seq.encode("ascii").translate(table)
    bad = codes.find(255)
    if bad >= 0:
        raise AlphabetError(error.format(seq[bad]))
    return codes


_TABLES = {DNA: (_DNA_TABLE, "invalid DNA character {!r}"),
           PROTEIN: (_PROT_TABLE, "invalid protein character {!r}")}


def encode_codes(seq: str, alphabet: str) -> bytes:
    """*seq*'s codes in *alphabet* (:data:`DNA` or :data:`PROTEIN`) as
    bytes: what :func:`encode_dna` / :func:`encode_protein` return,
    before they copy it into an array of its own (an array viewing the
    bytes would carry their wrapper, ≈ 370 B a sequence, for as long as
    a database keeps it)."""
    return _codes(seq, *_TABLES[alphabet])


def encode_dna(seq: str, strict: bool = False) -> np.ndarray:
    """Encode a DNA string to a uint8 array (A=0 C=1 G=2 T=3).

    With ``strict`` any character outside ACGT+IUPAC raises; otherwise
    unknown characters raise too (they are never silently accepted —
    only recognised ambiguity codes fold to A).
    """
    out = np.frombuffer(encode_codes(seq, DNA), dtype=np.uint8).copy()
    if strict:
        # Re-check: ambiguity codes are not allowed in strict mode.
        _codes(seq, _DNA_STRICT_TABLE,
               "ambiguous DNA character {!r} (strict)")
    return out


def decode_dna(encoded: np.ndarray) -> str:
    """Inverse of :func:`encode_dna` (ambiguity folding is lossy)."""
    return _DNA_CHARS[np.asarray(encoded, dtype=np.uint8)].tobytes().decode()


def encode_protein(seq: str) -> np.ndarray:
    """Encode a protein string to BLOSUM62 row indices."""
    return np.frombuffer(encode_codes(seq, PROTEIN), dtype=np.uint8).copy()


def decode_protein(encoded: np.ndarray) -> str:
    """Inverse of :func:`encode_protein` (rare-letter folding is lossy)."""
    return _PROT_CHARS[np.asarray(encoded, dtype=np.uint8)].tobytes().decode()


def reverse_complement(encoded: np.ndarray) -> np.ndarray:
    """Reverse-complement an encoded DNA array."""
    return _DNA_COMP[np.asarray(encoded, dtype=np.uint8)][::-1]
