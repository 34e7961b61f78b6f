"""Tests for alphabets and encodings."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blast.alphabet import (
    AlphabetError,
    DNA,
    PROTEIN,
    decode_dna,
    decode_protein,
    encode_dna,
    encode_protein,
    reverse_complement,
)

dna_strings = st.text(alphabet="ACGT", min_size=0, max_size=300)


def test_encode_dna_basic():
    enc = encode_dna("ACGT")
    assert list(enc) == [0, 1, 2, 3]


def test_encode_dna_lowercase():
    assert list(encode_dna("acgt")) == [0, 1, 2, 3]


def test_encode_dna_ambiguity_folds_to_a():
    assert list(encode_dna("NRY")) == [0, 0, 0]


def test_encode_dna_strict_rejects_ambiguity():
    with pytest.raises(AlphabetError):
        encode_dna("ACGN", strict=True)


def test_encode_dna_rejects_garbage():
    with pytest.raises(AlphabetError):
        encode_dna("ACG!")


def test_decode_dna_roundtrip():
    s = "GATTACA"
    assert decode_dna(encode_dna(s)) == s


def test_encode_protein_all_letters():
    enc = encode_protein(PROTEIN)
    assert list(enc) == list(range(len(PROTEIN)))


def test_encode_protein_rare_letters_fold_to_x():
    x = PROTEIN.index("X")
    assert list(encode_protein("JO")) == [x, x]


def test_encode_protein_rejects_digit():
    with pytest.raises(AlphabetError):
        encode_protein("ACD1")


def test_decode_protein_roundtrip():
    s = "MKVLAW"
    assert decode_protein(encode_protein(s)) == s


def test_reverse_complement_known():
    enc = encode_dna("AACGT")
    assert decode_dna(reverse_complement(enc)) == "ACGTT"


@settings(max_examples=100)
@given(dna_strings)
def test_reverse_complement_is_involution(s):
    enc = encode_dna(s)
    assert np.array_equal(reverse_complement(reverse_complement(enc)), enc)


@settings(max_examples=50)
@given(dna_strings)
def test_encode_decode_roundtrip_property(s):
    assert decode_dna(encode_dna(s)) == s
