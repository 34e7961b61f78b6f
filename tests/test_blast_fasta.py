"""Tests for FASTA parsing and writing."""

import pytest

from repro.blast.fasta import (FASTA_WIDTH, FastaRecord, parse_fasta,
                               write_fasta)


def test_parse_single_record():
    recs = parse_fasta(">seq1 a test\nACGT\nACGT\n")
    assert len(recs) == 1
    assert recs[0].description == "seq1 a test"
    assert recs[0].sequence == "ACGTACGT"
    assert recs[0].id == "seq1"
    assert len(recs[0]) == 8


def test_parse_multiple_records():
    recs = parse_fasta(">a\nAC\n>b\nGT\n>c\nTT\n")
    assert [r.id for r in recs] == ["a", "b", "c"]
    assert [r.sequence for r in recs] == ["AC", "GT", "TT"]


def test_parse_uppercases_and_strips():
    recs = parse_fasta(">a\n  ac gt  \n")
    assert recs[0].sequence == "ACGT"


def test_parse_skips_blank_lines():
    recs = parse_fasta("\n>a\nAC\n\nGT\n\n")
    assert recs[0].sequence == "ACGT"


def test_parse_rejects_data_before_header():
    with pytest.raises(ValueError, match="before header"):
        parse_fasta("ACGT\n>a\nAC\n")


def test_parse_rejects_empty_sequence():
    with pytest.raises(ValueError, match="empty sequence"):
        parse_fasta(">a\n>b\nAC\n")


def test_parse_empty_input():
    assert parse_fasta("") == []


def test_write_roundtrip():
    recs = [FastaRecord("a desc", "ACGT" * 30), FastaRecord("b", "TTTT")]
    text = write_fasta(recs)
    back = parse_fasta(text)
    assert back == recs


def test_write_wraps_lines():
    text = write_fasta([FastaRecord("a", "A" * 200)])
    body = [l for l in text.splitlines() if not l.startswith(">")]
    assert max(len(l) for l in body) == FASTA_WIDTH == 70


def test_write_empty():
    assert write_fasta([]) == ""
