"""Minimal, strict FASTA I/O."""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Iterable, Iterator, List, TextIO, Union

#: Sequence columns per line that :func:`write_fasta` writes.
FASTA_WIDTH = 70


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


def iter_fasta(source: Union[str, TextIO]) -> Iterator[FastaRecord]:
    """Stream FASTA records one at a time.

    Unlike :func:`parse_fasta` this never materialises more than the
    record currently being assembled, so a multi-gigabyte FASTA file
    can be formatted in bounded memory (the streaming pack builder in
    :mod:`repro.exec.diskpack` relies on this).  Raises ``ValueError``
    on malformed input (data before the first header, empty sequences).
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    desc: str | None = None
    chunks: List[str] = []

    def flush() -> FastaRecord:
        seq = "".join(chunks)
        if not seq:
            raise ValueError(f"empty sequence for {desc!r}")
        return FastaRecord(desc, seq)

    for lineno, line in enumerate(source, 1):
        line = line.strip()
        if not line:
            continue
        if line.startswith(">"):
            if desc is not None:
                yield flush()
            desc = line[1:].strip()
            chunks = []
        else:
            if desc is None:
                raise ValueError(f"line {lineno}: sequence data before header")
            chunks.append(line.upper().replace(" ", ""))
    if desc is not None:
        yield flush()


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
