"""Minimal, strict FASTA I/O.

A FASTA source is read in blocks of whole lines, and each block is
stripped line by line, cut at its header lines and uppercased by C
string operations: no Python runs per line.  What a line means is the
per-line reading: a line is stripped of whitespace at both ends; a
blank line is skipped; a line starting with ``>`` is a header, the
rest of it (stripped) the description; any other line is sequence,
uppercased, spaces deleted.  Other whitespace inside a sequence line
(a tab) stays and is the encoder's error.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Iterable, Iterator, List, Optional, TextIO, Tuple, Union

#: Sequence columns per line that :func:`write_fasta` writes.
FASTA_WIDTH = 70

#: Characters one read of a FASTA source asks for.  The reader's text
#: is one block plus the record it is assembling (a line longer than
#: this is read whole, as a per-line reader would).
_BLOCK_CHARS = 1 << 16

#: What a sequence line loses besides its ends: spaces, and the
#: newlines between the lines of a block.
_BLANKS = str.maketrans("", "", " \n")


@dataclass(frozen=True)
class FastaRecord:
    """One FASTA entry."""

    #: Full description line (without the leading ``>``).
    description: str
    #: The sequence, uppercased, whitespace stripped.
    sequence: str

    @property
    def id(self) -> str:
        """First whitespace-delimited token of the description."""
        return self.description.split()[0] if self.description else ""

    def __len__(self) -> int:
        return len(self.sequence)


def _text_blocks(source: Union[str, TextIO]) -> Iterator[str]:
    """*source*'s text in blocks of whole lines, the last one perhaps
    without its newline.  A handle's text is cut at ``"\\n"`` as its
    ``read`` delivers it (a file opened in text mode has translated
    ``"\\r\\n"`` and a lone ``"\\r"`` already)."""
    if isinstance(source, str):
        pieces: Iterable[str] = (source[i:i + _BLOCK_CHARS]
                                 for i in range(0, len(source), _BLOCK_CHARS))
    else:
        pieces = iter(partial(source.read, _BLOCK_CHARS), "")
    held: List[str] = []
    for piece in pieces:
        cut = piece.rfind("\n") + 1
        if not cut:
            held.append(piece)
            continue
        held.append(piece[:cut])
        yield "".join(held)
        held = [piece[cut:]]
    tail = "".join(held)
    if tail:
        yield tail


def _stripped(block: str) -> str:
    """*block* with every line stripped."""
    return "\n".join(map(str.strip, block.split("\n")))


def _cut(block: str) -> Tuple[str, List[str], List[str]]:
    """A stripped *block* cut at its header lines: ``(head, descs,
    bodies)``.  *head* is the text before the first header (the open
    record's continuation) and *bodies* each header's sequence text,
    both with spaces and newlines deleted; *descs* are the headers'
    descriptions."""
    head, *records = ("\n" + block).split("\n>")
    parts = [record.partition("\n") for record in records]
    return (head.translate(_BLANKS), [desc.strip() for desc, _, _ in parts],
            [body.translate(_BLANKS) for _, _, body in parts])


def _finished(descs: List[str], seqs: List[str]):
    """The records *descs* / *seqs* as one ``(descriptions, sequences,
    lengths)`` block, uppercased; an empty sequence raises after the
    block of the records before it."""
    if not descs:
        return
    text = "".join(seqs)
    if text.isascii():
        text = text.upper()
    else:               # "ß".upper() is "SS": lengths after, record by record
        seqs = list(map(str.upper, seqs))
        text = "".join(seqs)
    lengths = list(map(len, seqs))
    if 0 in lengths:
        i = lengths.index(0)
        if i:
            yield descs[:i], text[:sum(lengths[:i])], lengths[:i]
        raise ValueError(f"empty sequence for {descs[i]!r}")
    yield descs, text, lengths


def iter_fasta_blocks(source: Union[str, TextIO]
                      ) -> Iterator[Tuple[List[str], str, List[int]]]:
    """Stream FASTA records a text block at a time.

    *source* is FASTA text or a text handle.  Yields ``(descriptions,
    sequences, lengths)`` for the records each block completes:
    *sequences* is their residues concatenated, *lengths* each record's
    share of it.  Memory holds one block of :data:`_BLOCK_CHARS` plus
    the record being assembled, so a multi-gigabyte FASTA file formats
    in bounded memory (the pack builder in :mod:`repro.exec.diskpack`
    reads through this).  Raises ``ValueError`` on malformed input
    (data before the first header, naming its line; an empty sequence)
    after yielding every record before it.
    """
    desc: Optional[str] = None
    held: List[str] = []        # the open record's sequence so far
    lineno = 0                  # lines before this block, until a header
    for block in _text_blocks(source):
        block = _stripped(block)
        head, descs, bodies = _cut(block)
        if desc is None:
            if head:    # the first line not blank, counted from 1
                first = len(block) - len(block.lstrip("\n"))
                lineno += block.count("\n", 0, first) + 1
                raise ValueError(
                    f"line {lineno}: sequence data before header")
            lineno += block.count("\n")
        held.append(head)
        if not descs:
            continue
        if desc is None:
            yield from _finished(descs[:-1], bodies[:-1])
        else:
            yield from _finished([desc, *descs[:-1]],
                                 ["".join(held), *bodies[:-1]])
        desc, held = descs[-1], [bodies[-1]]
    if desc is not None:
        yield from _finished([desc], ["".join(held)])


def iter_fasta(source: Union[str, TextIO]) -> Iterator[FastaRecord]:
    """Stream FASTA records one at a time (:func:`iter_fasta_blocks`
    cut into records).  Raises ``ValueError`` on malformed input (data
    before the first header, empty sequences)."""
    for descs, text, lengths in iter_fasta_blocks(source):
        yield from map(FastaRecord, descs, split_sequences(text, lengths))


def split_sequences(text: str, lengths: Iterable[int]) -> Iterator[str]:
    """A block's *text* (:func:`iter_fasta_blocks`) cut into its
    records' sequences of *lengths*."""
    at = 0
    for n in lengths:
        yield text[at:at + n]
        at += n


def parse_fasta(source: Union[str, TextIO]) -> List[FastaRecord]:
    """Parse FASTA text (a string or a file-like object).

    Raises ``ValueError`` on malformed input (data before the first
    header, empty sequences).
    """
    return list(iter_fasta(source))


def write_fasta(records: Iterable[FastaRecord]) -> str:
    """Render records as FASTA text, :data:`FASTA_WIDTH` residues a line."""
    out: List[str] = []
    for rec in records:
        out.append(f">{rec.description}")
        seq = rec.sequence
        for i in range(0, len(seq), FASTA_WIDTH):
            out.append(seq[i:i + FASTA_WIDTH])
    return "\n".join(out) + ("\n" if out else "")
