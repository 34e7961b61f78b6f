"""The per-line FASTA reader: the test oracle of
:func:`repro.blast.fasta.iter_fasta`, which reads whole blocks.

One line at a time: stripped at both ends, skipped when blank, a header
when it starts with ``>``, otherwise sequence, uppercased with its
spaces deleted.
"""

from __future__ import annotations

import io
from typing import Iterator, List, TextIO, Union

from repro.blast.fasta import FastaRecord


def iter_fasta_lines(source: Union[str, TextIO]) -> Iterator[FastaRecord]:
    """Records of *source* (text or a text handle), read line by line.
    Raises ``ValueError`` on data before the first header (naming its
    line) and on an empty sequence."""
    if isinstance(source, str):
        source = io.StringIO(source)
    desc = None
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
