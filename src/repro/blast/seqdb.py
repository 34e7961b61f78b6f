"""In-memory sequence databases and their segmentation.

A :class:`SequenceDB` holds encoded sequences with their descriptions,
either nucleotide (``nt``) or protein (``aa``).  It has no on-disk
format of its own: the one on-disk database is the pack store
(:mod:`repro.exec.diskpack`, ``repro packdb build``), and
:meth:`repro.exec.diskpack.PackStore.load_db` reads a store back into a
:class:`SequenceDB`.

:func:`plan_fragments` is mpiBLAST-style database segmentation:
sequences are partitioned into fragments balanced by residue count
(greedy longest-first binning); :func:`segment_db` materializes them,
each fragment being a database in its own right.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

from repro.blast.alphabet import (
    decode_dna,
    decode_protein,
    encode_dna,
    encode_protein,
)
from repro.blast.fasta import parse_fasta

NT = "nt"
AA = "aa"


class SequenceDB:
    """An in-memory sequence database."""

    def __init__(self, seqtype: str = NT, name: str = "db",
                 fragment_id: Optional[int] = None):
        if seqtype not in (NT, AA):
            raise ValueError(f"seqtype must be 'nt' or 'aa', got {seqtype!r}")
        self.seqtype = seqtype
        self.name = name
        self.fragment_id = fragment_id
        self._seqs: List[np.ndarray] = []
        self._descriptions: List[str] = []
        #: When this database is a fragment cut from a parent database,
        #: the parent ordinal of each sequence (``source_ids[i]`` is the
        #: parent id of local sequence ``i``); ``None`` otherwise.  The
        #: parallel runtime uses it to map fragment-local hits back to
        #: whole-database subject ids in the cross-fragment merge.
        self.source_ids: Optional[List[int]] = None
        #: Mutation counter: bumped on every ``add`` so caches keyed on
        #: database identity (the scan-structure cache) can tell a
        #: mutated database from the one they packed.
        self._version = 0
        self._residues = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add(self, description: str, sequence: Union[str, np.ndarray]) -> int:
        """Add a sequence; returns its ordinal id."""
        if isinstance(sequence, str):
            enc = encode_dna(sequence) if self.seqtype == NT else encode_protein(sequence)
        else:
            enc = np.asarray(sequence, dtype=np.uint8)
        if len(enc) == 0:
            raise ValueError("empty sequence")
        self._seqs.append(enc)
        self._descriptions.append(description)
        self._version += 1
        self._residues += len(enc)
        return len(self._seqs) - 1

    @classmethod
    def from_fasta_text(cls, text: str) -> "SequenceDB":
        """A nucleotide database of the records of FASTA *text*."""
        db = cls()
        for rec in parse_fasta(text):
            db.add(rec.description, rec.sequence)
        return db

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._seqs)

    @property
    def n_sequences(self) -> int:
        return len(self._seqs)

    @property
    def total_residues(self) -> int:
        """Running total kept by :meth:`add` (every constructor goes
        through it): the search driver reads this twice per query."""
        return self._residues

    def sequence(self, i: int) -> np.ndarray:
        return self._seqs[i]

    def description(self, i: int) -> str:
        return self._descriptions[i]

    def sequence_str(self, i: int) -> str:
        dec = decode_dna if self.seqtype == NT else decode_protein
        return dec(self._seqs[i])

    def __iter__(self):
        return iter(zip(self._descriptions, self._seqs))

    def lengths(self) -> List[int]:
        return [len(s) for s in self._seqs]

    def subset(self, ids: Sequence[int], name: Optional[str] = None,
               fragment_id: Optional[int] = None) -> "SequenceDB":
        """A new database holding the given sequences, in the given
        order, remembering their parent ids in ``source_ids``."""
        sub = SequenceDB(self.seqtype,
                         name if name is not None else f"{self.name}.sub",
                         fragment_id=fragment_id)
        for i in ids:
            sub.add(self._descriptions[i], self._seqs[i])
        sub.source_ids = [int(i) for i in ids]
        return sub

    def __repr__(self) -> str:  # pragma: no cover
        frag = f" frag={self.fragment_id}" if self.fragment_id is not None else ""
        return (f"<SequenceDB {self.name!r} {self.seqtype} "
                f"n={len(self)} residues={self.total_residues}{frag}>")


def plan_fragments(db, n_fragments: int) -> List[List[int]]:
    """Partition a database's sequence ids into balanced fragments.

    Greedy longest-first binning by residue count: each sequence, longest
    first, goes to the currently lightest fragment.  *db* needs only
    ``__len__`` and ``lengths()``.  Clamps to ``len(db)`` fragments and
    drops nothing: every id lands in exactly one fragment.  This is the
    one binning rule — :func:`segment_db`, the process pool and the pack
    store builder all cut a database through it.
    """
    n = len(db)
    if n_fragments < 1:
        raise ValueError("n_fragments must be >= 1")
    if n == 0:
        return []
    n_fragments = min(n_fragments, n)
    lengths = db.lengths()
    bins: List[List[int]] = [[] for _ in range(n_fragments)]
    loads = [0] * n_fragments
    for i in sorted(range(n), key=lambda i: -lengths[i]):
        target = loads.index(min(loads))
        bins[target].append(i)
        loads[target] += lengths[i]
    return bins


def segment_db(db: SequenceDB, n_fragments: int) -> List[SequenceDB]:
    """mpiBLAST-style database segmentation.

    The fragments of :func:`plan_fragments`, each a database in its own
    right that keeps its parent ids in ``source_ids``."""
    return [db.subset(ids, name=f"{db.name}.{i:03d}", fragment_id=i)
            for i, ids in enumerate(plan_fragments(db, n_fragments))]
