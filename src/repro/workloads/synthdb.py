"""Synthetic sequence databases shaped like NCBI ``nt`` and ``nr``.

The paper's nt snapshot: 1.76 million sequences, 2.7 GB total — a mean
sequence length of ~1530 bases.  Real nt lengths are heavy-tailed; a
log-normal with sigma ≈ 1.1 reproduces the qualitative shape (many
short ESTs, few chromosome-scale monsters).  The protein counterpart
(:func:`synthetic_aa_db`) mirrors nr's ~350-residue mean — protein
searches are the gapped-heavy workload the benchmark suite uses to
exercise the refinement stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.blast.seqdb import SequenceDB

GB = 1_000_000_000


@dataclass(frozen=True)
class DatabaseSpec:
    """Aggregate description of a database, real or virtual.

    ``total_bytes`` is the on-disk footprint the I/O subsystem sees
    (the paper quotes the 2.7 GB raw size, which is what gets copied
    or striped); ``total_residues`` is the search workload.
    """

    n_sequences: int
    total_residues: int
    total_bytes: int
    name: str = "nt"

    @property
    def mean_length(self) -> float:
        return self.total_residues / self.n_sequences

    def scaled(self, factor: float) -> "DatabaseSpec":
        """A proportionally smaller (or larger) database."""
        if factor <= 0:
            raise ValueError("factor must be positive")
        return DatabaseSpec(
            n_sequences=max(1, int(self.n_sequences * factor)),
            total_residues=max(1, int(self.total_residues * factor)),
            total_bytes=max(1, int(self.total_bytes * factor)),
            name=f"{self.name}@{factor:g}",
        )

    def fragment_bytes(self, n_fragments: int) -> List[int]:
        """On-disk size of each of ``n_fragments`` balanced fragments."""
        if n_fragments < 1:
            raise ValueError("n_fragments must be >= 1")
        base, rem = divmod(self.total_bytes, n_fragments)
        return [base + (1 if i < rem else 0) for i in range(n_fragments)]

    def fragment_residues(self, n_fragments: int) -> List[int]:
        base, rem = divmod(self.total_residues, n_fragments)
        return [base + (1 if i < rem else 0) for i in range(n_fragments)]


#: The nt snapshot of the paper (Section 4.1): 1.76 M sequences, 2.7 GB.
NT_DATABASE_SPEC = DatabaseSpec(
    n_sequences=1_760_000,
    total_residues=2_580_000_000,   # ~2.58 G bases in a 2.7 GB FASTA
    total_bytes=2_700_000_000,
    name="nt",
)

_BASES = np.frombuffer(b"ACGT", dtype=np.uint8)


def _sample_lengths(rng: np.random.Generator, n: int, mean: float,
                    sigma: float = 1.1, min_len: int = 60) -> np.ndarray:
    """Log-normal lengths with the requested mean."""
    mu = np.log(mean) - sigma ** 2 / 2
    lengths = rng.lognormal(mu, sigma, size=n).astype(np.int64)
    return np.maximum(lengths, min_len)


def synthetic_nt_db(total_residues: int, seed: int = 0,
                    mean_length: float = 1530.0, name: str = "synth-nt"
                    ) -> SequenceDB:
    """Generate a real, searchable nucleotide database of roughly
    *total_residues* bases."""
    if total_residues < 1:
        raise ValueError("total_residues must be >= 1")
    rng = np.random.default_rng(seed)
    db = SequenceDB("nt", name=name)
    produced = 0
    while produced < total_residues:
        n = int(_sample_lengths(rng, 1, mean_length)[0])
        n = min(n, total_residues - produced) if total_residues - produced >= 60 \
            else total_residues - produced
        n = max(n, 1)
        seq = _BASES[rng.integers(0, 4, size=n)].tobytes().decode()
        db.add(f"synth{len(db):07d} synthetic nt-like sequence", seq)
        produced += n
    return db


_AMINO = np.frombuffer(b"ARNDCQEGHILKMFPSTWYV", dtype=np.uint8)
#: Mean protein length of :func:`synthetic_aa_db` (nr-like).
_AA_MEAN_LENGTH = 350.0


def synthetic_aa_db(total_residues: int, seed: int = 0,
                    name: str = "synth-aa") -> SequenceDB:
    """Generate a real, searchable protein database of roughly
    *total_residues* residues, :data:`_AA_MEAN_LENGTH` residues a
    sequence on average, named *name*.

    Random protein still produces a dense word-hit stream under
    blastp's neighbourhood seeding, so these databases are the
    benchmark suite's gapped-heavy workload.
    """
    if total_residues < 1:
        raise ValueError("total_residues must be >= 1")
    rng = np.random.default_rng(seed)
    db = SequenceDB("aa", name=name)
    produced = 0
    while produced < total_residues:
        n = int(_sample_lengths(rng, 1, _AA_MEAN_LENGTH, sigma=0.45,
                                min_len=40)[0])
        remaining = total_residues - produced
        n = min(n, remaining) if remaining >= 40 else remaining
        n = max(n, 1)
        seq = _AMINO[rng.integers(0, 20, size=n)].tobytes().decode()
        db.add(f"synth{len(db):07d} synthetic nr-like sequence", seq)
        produced += n
    return db


def synthetic_nt_fasta(total_residues: int, seed: int = 0,
                       mean_length: float = 1530.0) -> str:
    """FASTA text form of :func:`synthetic_nt_db`."""
    from repro.blast.fasta import FastaRecord, write_fasta

    db = synthetic_nt_db(total_residues, seed, mean_length)
    records = [FastaRecord(db.description(i), db.sequence_str(i))
               for i in range(len(db))]
    return write_fasta(records)
