"""Sequence databases: the ``formatdb`` equivalent.

A :class:`SequenceDB` holds encoded sequences with their descriptions,
either nucleotide (``nt``) or protein (``aa``).  It can be written to /
loaded from a three-file on-disk format modelled on NCBI's::

    <name>.nin / .pin   index: magic, type, counts, offset tables
    <name>.nsq / .psq   sequence data (2-bit packed nt, raw aa codes)
    <name>.nhr / .phr   concatenated description strings

:meth:`SequenceDB.load` is the one reader of that format.

:func:`plan_fragments` is mpiBLAST-style database segmentation:
sequences are partitioned into fragments balanced by residue count
(greedy longest-first binning); :func:`segment_db` materializes them,
each fragment being a database in its own right.
"""

from __future__ import annotations

import os
import struct
from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.blast.alphabet import (
    decode_dna,
    decode_protein,
    encode_dna,
    encode_protein,
    pack_2bit,
    unpack_2bit,
)
from repro.blast.fasta import FastaRecord, parse_fasta

MAGIC = b"RPDB"
VERSION = 1

NT = "nt"
AA = "aa"

_EXT = {NT: ("nin", "nsq", "nhr"), AA: ("pin", "psq", "phr")}


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
    def from_records(cls, records: Iterable[FastaRecord], seqtype: str = NT,
                     name: str = "db") -> "SequenceDB":
        db = cls(seqtype, name)
        for rec in records:
            db.add(rec.description, rec.sequence)
        return db

    @classmethod
    def from_fasta_text(cls, text: str, seqtype: str = NT,
                        name: str = "db") -> "SequenceDB":
        return cls.from_records(parse_fasta(text), seqtype, name)

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

    # ------------------------------------------------------------------
    # On-disk format
    # ------------------------------------------------------------------
    def paths(self, directory: str) -> Tuple[str, str, str]:
        idx, seq, hdr = _EXT[self.seqtype]
        base = os.path.join(directory, self.name)
        return (f"{base}.{idx}", f"{base}.{seq}", f"{base}.{hdr}")

    def write(self, directory: str) -> Tuple[str, str, str]:
        """Write the three database files; returns their paths."""
        os.makedirs(directory, exist_ok=True)
        idx_path, seq_path, hdr_path = self.paths(directory)
        seq_blobs: List[bytes] = []
        seq_offsets = [0]
        lengths: List[int] = []
        for enc in self._seqs:
            if self.seqtype == NT:
                blob, n = pack_2bit(enc)
            else:
                blob, n = enc.tobytes(), len(enc)
            seq_blobs.append(blob)
            seq_offsets.append(seq_offsets[-1] + len(blob))
            lengths.append(n)
        hdr_blobs = [d.encode() for d in self._descriptions]
        hdr_offsets = [0]
        for b in hdr_blobs:
            hdr_offsets.append(hdr_offsets[-1] + len(b))

        with open(seq_path, "wb") as f:
            for blob in seq_blobs:
                f.write(blob)
        with open(hdr_path, "wb") as f:
            for blob in hdr_blobs:
                f.write(blob)
        with open(idx_path, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<IBQ", VERSION, 0 if self.seqtype == NT else 1,
                                len(self._seqs)))
            f.write(np.asarray(seq_offsets, dtype="<u8").tobytes())
            f.write(np.asarray(hdr_offsets, dtype="<u8").tobytes())
            f.write(np.asarray(lengths, dtype="<u8").tobytes())
        return idx_path, seq_path, hdr_path

    @classmethod
    def load(cls, directory: str, name: str, seqtype: str = NT) -> "SequenceDB":
        """Load a database previously written with :meth:`write`."""
        db = cls(seqtype, name)
        idx_path, seq_path, hdr_path = db.paths(directory)
        with open(idx_path, "rb") as f:
            magic = f.read(4)
            if magic != MAGIC:
                raise ValueError(f"{idx_path}: bad magic {magic!r}")
            version, type_code, n = struct.unpack("<IBQ", f.read(13))
            if version != VERSION:
                raise ValueError(f"unsupported version {version}")
            if (type_code == 0) != (seqtype == NT):
                raise ValueError("database type mismatch")
            seq_offsets = np.frombuffer(f.read(8 * (n + 1)), dtype="<u8")
            hdr_offsets = np.frombuffer(f.read(8 * (n + 1)), dtype="<u8")
            lengths = np.frombuffer(f.read(8 * n), dtype="<u8")
        with open(seq_path, "rb") as f:
            seq_data = f.read()
        with open(hdr_path, "rb") as f:
            hdr_data = f.read()
        for i in range(n):
            blob = seq_data[seq_offsets[i]:seq_offsets[i + 1]]
            if seqtype == NT:
                enc = unpack_2bit(blob, int(lengths[i]))
            else:
                enc = np.frombuffer(blob, dtype=np.uint8).copy()
            desc = hdr_data[hdr_offsets[i]:hdr_offsets[i + 1]].decode()
            db.add(desc, enc)
        return db

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
