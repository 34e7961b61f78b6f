"""Lazy, on-demand database access (the mmap view).

:meth:`repro.blast.seqdb.SequenceDB.load` slurps everything into
memory; real NCBI BLAST instead maps the files and touches pages on
demand — which is precisely the access pattern the paper traces
(Figure 4).  :class:`LazySequenceDB` reproduces that behaviour in the
real engine: the index loads eagerly (it is small and consulted
constantly), while sequence payloads and descriptions are read from
disk on first access and cached.

It duck-types the :class:`~repro.blast.seqdb.SequenceDB` surface the
search pipeline uses (``seqtype``, ``__len__``, ``total_residues``,
``sequence``, ``description``), so ``blastn(query, LazySequenceDB...)``
just works — and its ``io_stats`` expose how many bytes the search
actually pulled.
"""

from __future__ import annotations

import struct
from typing import Dict, Optional

import numpy as np

from repro.blast.alphabet import unpack_2bit
from repro.blast.seqdb import MAGIC, NT, VERSION, SequenceDB


class LazySequenceDB:
    """A database whose sequence data stays on disk until touched."""

    def __init__(self, directory: str, name: str, seqtype: str = NT):
        if seqtype not in (NT, "aa"):
            raise ValueError(f"seqtype must be 'nt' or 'aa', got {seqtype!r}")
        self.seqtype = seqtype
        self.name = name
        self.fragment_id: Optional[int] = None
        helper = SequenceDB(seqtype, name)
        self._idx_path, self._seq_path, self._hdr_path = \
            helper.paths(directory)

        with open(self._idx_path, "rb") as f:
            magic = f.read(4)
            if magic != MAGIC:
                raise ValueError(f"{self._idx_path}: bad magic {magic!r}")
            version, type_code, n = struct.unpack("<IBQ", f.read(13))
            if version != VERSION:
                raise ValueError(f"unsupported version {version}")
            if (type_code == 0) != (seqtype == NT):
                raise ValueError("database type mismatch")
            self._n = int(n)
            self._seq_offsets = np.frombuffer(f.read(8 * (n + 1)), dtype="<u8")
            self._hdr_offsets = np.frombuffer(f.read(8 * (n + 1)), dtype="<u8")
            self._lengths = np.frombuffer(f.read(8 * n), dtype="<u8")
        self._residues = int(self._lengths.sum())

        self._seq_cache: Dict[int, np.ndarray] = {}
        self._hdr_cache: Dict[int, str] = {}
        self.bytes_read = len(MAGIC) + 13 + 8 * (2 * (self._n + 1) + self._n)
        self.sequence_reads = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._n

    @property
    def n_sequences(self) -> int:
        return self._n

    @property
    def total_residues(self) -> int:
        return self._residues

    def lengths(self):
        return [int(x) for x in self._lengths]

    # ------------------------------------------------------------------
    def sequence(self, i: int) -> np.ndarray:
        seq = self._seq_cache.get(i)
        if seq is None:
            lo, hi = int(self._seq_offsets[i]), int(self._seq_offsets[i + 1])
            with open(self._seq_path, "rb") as f:
                f.seek(lo)
                blob = f.read(hi - lo)
            self.bytes_read += hi - lo
            self.sequence_reads += 1
            if self.seqtype == NT:
                seq = unpack_2bit(blob, int(self._lengths[i]))
            else:
                seq = np.frombuffer(blob, dtype=np.uint8).copy()
            self._seq_cache[i] = seq
        return seq

    def preload_sequences(self) -> int:
        """Read the whole sequence payload in one pass, caching every
        sequence not already cached; returns how many were newly read.

        This is the bulk entry the scan kernel's
        :func:`~repro.blast.scankernel.build_scan_structures` uses when
        packing a fragment: one contiguous read instead of n seek+read
        round trips — the contiguous-access lesson of the paper's I/O
        path, applied to the compute path.  Per-sequence accounting
        (``bytes_read``, ``sequence_reads``) matches what the same
        reads would have cost one at a time.
        """
        missing = [i for i in range(self._n) if i not in self._seq_cache]
        if not missing:
            return 0
        with open(self._seq_path, "rb") as f:
            data = f.read()
        for i in missing:
            lo, hi = int(self._seq_offsets[i]), int(self._seq_offsets[i + 1])
            blob = data[lo:hi]
            if self.seqtype == NT:
                seq = unpack_2bit(blob, int(self._lengths[i]))
            else:
                seq = np.frombuffer(blob, dtype=np.uint8).copy()
            self._seq_cache[i] = seq
            self.bytes_read += hi - lo
            self.sequence_reads += 1
        return len(missing)

    def subset(self, ids, name: Optional[str] = None,
               fragment_id: Optional[int] = None) -> SequenceDB:
        """Materialize the given sequences into an in-memory
        :class:`~repro.blast.seqdb.SequenceDB` fragment (reads each
        payload through the normal lazy path, so ``io_stats`` account
        for it), remembering parent ids in ``source_ids`` — the same
        surface :meth:`SequenceDB.subset` gives the parallel runtime.
        """
        sub = SequenceDB(self.seqtype,
                         name if name is not None else f"{self.name}.sub",
                         fragment_id=fragment_id)
        for i in ids:
            sub.add(self.description(i), self.sequence(i))
        sub.source_ids = [int(i) for i in ids]
        return sub

    def description(self, i: int) -> str:
        desc = self._hdr_cache.get(i)
        if desc is None:
            lo, hi = int(self._hdr_offsets[i]), int(self._hdr_offsets[i + 1])
            with open(self._hdr_path, "rb") as f:
                f.seek(lo)
                desc = f.read(hi - lo).decode()
            self.bytes_read += hi - lo
            self._hdr_cache[i] = desc
        return desc

    def sequence_str(self, i: int) -> str:
        from repro.blast.alphabet import decode_dna, decode_protein

        dec = decode_dna if self.seqtype == NT else decode_protein
        return dec(self.sequence(i))

    def __iter__(self):
        return ((self.description(i), self.sequence(i))
                for i in range(self._n))

    # ------------------------------------------------------------------
    def io_stats(self) -> Dict[str, int]:
        """Bytes pulled from disk so far and sequence-read count."""
        return {"bytes_read": self.bytes_read,
                "sequence_reads": self.sequence_reads}

    def drop_caches(self) -> None:
        """Forget cached payloads (the next accesses re-read)."""
        self._seq_cache.clear()
        self._hdr_cache.clear()

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<LazySequenceDB {self.name!r} {self.seqtype} n={self._n} "
                f"cached={len(self._seq_cache)}>")
