"""Tests for FASTA parsing and writing."""

import io
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_fasta import iter_fasta_lines
from repro.blast import fasta
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


# ----------------------------------------------------------------------
# The block reader against the per-line oracle
# ----------------------------------------------------------------------
#: Lowercase and IUPAC letters, spaces (deleted inside a sequence line),
#: tabs and lone CRs (kept inside one, so an encoder error), "ß" (which
#: upper() turns into "SS"), a no-break space (whitespace outside ASCII)
#: and ">" (a header only at a line's start, after its blanks).
_LINE = st.text(alphabet="ACGTacgtNnRy >\t\rß\xa0é*", max_size=10)
_FASTA_LINES = st.lists(
    st.one_of(_LINE, st.builds(lambda pad, d: pad + ">" + d,
                               st.sampled_from(["", "", " ", "\t"]), _LINE)),
    max_size=14)


def _outcome(records):
    """The records read until the reader stops, and the error it
    stopped on (type and message), if any."""
    out = []
    try:
        for rec in records:
            out.append(rec)
    except ValueError as exc:
        return out, (type(exc), str(exc))
    return out, None


@settings(max_examples=400, deadline=None)
@given(lines=_FASTA_LINES, newline=st.sampled_from(["\n", "\r\n", "\r"]),
       final=st.booleans(), block=st.sampled_from([1, 2, 3, 5, 8, 64]))
def test_block_reader_equals_the_per_line_oracle(tmp_path_factory, lines,
                                                 newline, final, block):
    """Same records, same error and message, from text and from a file
    (whose text mode turns CRLF and lone CR into newlines), with blocks
    so small that records and lines straddle them."""
    text = newline.join(lines) + (newline if final and lines else "")
    path = tmp_path_factory.mktemp("fasta") / "in.fasta"
    path.write_bytes(text.encode())
    with mock.patch.object(fasta, "_BLOCK_CHARS", block):
        assert (_outcome(fasta.iter_fasta(text))
                == _outcome(iter_fasta_lines(text)))
        with open(path) as a, open(path) as b:
            assert _outcome(fasta.iter_fasta(a)) == _outcome(iter_fasta_lines(b))


@pytest.mark.parametrize("text, error", [
    ("\n  \nAC\n>a\nAC\n", "line 3: sequence data before header"),
    (">a\nAC\n>b\n \n>c\nG", "empty sequence for 'b'"),
    (">a\nA\tC\n", None),
])
def test_block_reader_edge_cases(text, error):
    with mock.patch.object(fasta, "_BLOCK_CHARS", 2):
        got = _outcome(fasta.iter_fasta(text))
    assert got == _outcome(iter_fasta_lines(text))
    assert (got[1][1] if got[1] else None) == error


def test_block_reader_keeps_oracle_semantics_for_odd_text():
    recs = parse_fasta(" >a x \r\nac gt\r\n\t\n>b\nßs\n")
    assert recs == [FastaRecord("a x", "ACGT"), FastaRecord("b", "SSS")]
    assert parse_fasta(">a\nA\tC\n")[0].sequence == "A\tC"  # the encoder's error


def test_blocks_hold_a_block_plus_the_open_record():
    """The reader reads its source a block at a time and yields each
    record with the block that completes it (the last one at the end)."""
    text = ">a\n" + "ACGT\n" * 100 + ">b\nGG\n"
    reads = []
    handle = io.StringIO(text)
    real = handle.read
    handle.read = lambda n: reads.append(n) or real(n)
    with mock.patch.object(fasta, "_BLOCK_CHARS", 64):
        blocks = list(fasta.iter_fasta_blocks(handle))
    assert set(reads) == {64}
    assert blocks == [(["a"], "ACGT" * 100, [400]), (["b"], "GG", [2])]
