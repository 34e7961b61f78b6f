"""The BLAST worker's I/O + compute timeline.

The model translates "blastn searches a database fragment" into a
concrete sequence of application-level operations, fit to the trace
statistics of the paper's Section 4.2 / Figure 4 (8 workers, 8 nt
fragments):

* 18 operations per worker: 16 reads + 2 writes (144 ops total, 89 %
  reads);
* reads span 13 bytes (the index-file magic) to ~220 MB (the first
  sequential pass over a fragment's packed-sequence file, 0.65 x the
  340 MB fragment);
* writes are 50-778-byte temporary-result records (mean ≈ 690 B).

A fragment's on-disk footprint splits into the three formatdb files:
``.nsq`` (packed sequences, 65 %), ``.nhr`` (headers, 30 %), ``.nin``
(index, 5 %).  The compute phases between reads total
``residues / scan_rate`` CPU seconds (see
:class:`repro.core.calibration.BlastCostModel`).

The model is cross-validated against traces collected from the real
engine in ``tests/test_iomodel_validation.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.calibration import BlastCostModel


#: File-size split of a formatted fragment.
NSQ_FRACTION = 0.65
NHR_FRACTION = 0.30
NIN_FRACTION = 0.05

#: Number of mid-scan re-read bursts (hit neighbourhood lookups).
N_RESCAN_READS = 6
#: Number of header-file reads (description fetches for reported hits).
N_HEADER_READS = 4
#: Trailing small sequence re-reads (alignment rendering).
N_TAIL_READS = 2
#: Temporary-result writes per fragment search.
N_RESULT_WRITES = 2


@dataclass(frozen=True)
class FragmentSpec:
    """One unit of work as the I/O layer sees it.

    Under database segmentation each spec is a distinct fragment with
    its own files.  Under query segmentation every worker searches the
    *whole* database, so all specs share ``file_id`` (one set of files)
    while keeping distinct ``fragment_id`` task identities.
    """

    fragment_id: int
    nbytes: int
    residues: int
    file_id: Optional[int] = None

    def file_name(self, ext: str) -> str:
        fid = self.fragment_id if self.file_id is None else self.file_id
        return f"nt.{fid:03d}.{ext}"


@dataclass(frozen=True)
class Step:
    """One element of the worker timeline.

    ``scan`` is a read of ``size`` bytes *interleaved* with ``seconds``
    of compute: the mmap'd first pass over the sequence file, whose
    demand-paged I/O is spread across the scan rather than blocking up
    front.  It is traced as a single application-level read (that is
    what the paper's instrumentation records for an mmap region — the
    220 MB maximum in Figure 4), but executes as alternating
    chunk-read/compute bursts, which is why concurrent workers' striped
    reads mostly do not collide.
    """

    kind: str                 # "read" | "write" | "compute" | "scan"
    path: str = ""
    offset: int = 0
    size: int = 0
    seconds: float = 0.0


#: Target I/O chunk of the scan's demand paging (jittered per chunk).
SCAN_CHUNK = 4 * (1 << 20)


def fragment_files(spec: FragmentSpec) -> Dict[str, int]:
    """File name -> size for one formatted fragment."""
    nsq = max(int(spec.nbytes * NSQ_FRACTION), 64)
    nhr = max(int(spec.nbytes * NHR_FRACTION), 64)
    nin = max(spec.nbytes - nsq - nhr, 64)
    return {
        spec.file_name("nsq"): nsq,
        spec.file_name("nhr"): nhr,
        spec.file_name("nin"): nin,
    }


def fragment_steps(spec: FragmentSpec, cost: "BlastCostModel",
                   rng: Optional[np.random.Generator] = None,
                   warm: bool = False) -> List[Step]:
    """The worker timeline for searching one fragment.

    Deterministic given *rng*; with ``rng=None`` a fragment-seeded
    generator is used so traces are reproducible per fragment.

    *warm* marks a fragment this worker has searched before in the same
    session: compute scales by the cost model's ``warm_compute_factor``
    (the engine's cached scan structures skip the packing cost).  The
    I/O steps are unchanged — payload caching is the OS page cache's
    job, modeled by the file-system layer, not the engine's.
    """
    rng = rng or np.random.default_rng(1000 + spec.fragment_id)
    files = fragment_files(spec)
    nsq_name = spec.file_name("nsq")
    nhr_name = spec.file_name("nhr")
    nin_name = spec.file_name("nin")
    nsq, nhr, nin = files[nsq_name], files[nhr_name], files[nin_name]

    # Fragment content drives search effort: seed/extension density
    # varies across fragments even when residue counts are balanced, so
    # per-fragment compute varies ~10 % — which is also what de-phases
    # the workers' I/O bursts on shared data servers.
    content_factor = float(rng.lognormal(0.0, 0.10))
    total_compute = cost.compute_seconds(spec.residues,
                                         warm=warm) * content_factor
    steps: List[Step] = []

    # 1. Open the index: the 13-byte magic/version probe the paper's
    #    trace shows as its smallest read, then the rest of the index.
    steps.append(Step("read", nin_name, 0, 13))
    first = min(1024, max(nin - 13, 1))
    steps.append(Step("read", nin_name, 13, first))
    rest = nin - 13 - first
    if rest > 0:
        steps.append(Step("read", nin_name, 13 + first, rest))
    steps.append(Step("compute", seconds=cost.setup_cpu))

    # 2+3. The scan: one sequential demand-paged pass over the packed
    #    sequence file (~0.65 x fragment — the trace's maximum read),
    #    interleaved with the bulk of the compute.
    compute_share = 0.75 * total_compute
    scan_compute = 0.6 * compute_share
    steps.append(Step("scan", nsq_name, 0, nsq, seconds=scan_compute))

    #    Re-read bursts of sequence regions between further compute
    #    (word hits pulling in neighbourhoods far from the scan point).
    burst = (compute_share - scan_compute) / N_RESCAN_READS
    for _ in range(N_RESCAN_READS):
        size = int(min(nsq, max(4096, rng.lognormal(np.log(0.02 * nsq + 1), 0.8))))
        offset = int(rng.integers(0, max(nsq - size, 1)))
        steps.append(Step("read", nsq_name, offset, size))
        steps.append(Step("compute", seconds=burst))

    # 4. Fetch hit descriptions from the header file.
    hdr_chunk = nhr // N_HEADER_READS
    remaining_compute = 0.25 * total_compute
    hdr_burst = remaining_compute / max(N_HEADER_READS + N_TAIL_READS, 1)
    pos = 0
    for i in range(N_HEADER_READS):
        size = hdr_chunk if i < N_HEADER_READS - 1 else nhr - pos
        if size <= 0:
            break
        steps.append(Step("read", nhr_name, pos, size))
        pos += size
        steps.append(Step("compute", seconds=hdr_burst))

    # 5. Small trailing sequence re-reads (alignment rendering).
    for _ in range(N_TAIL_READS):
        size = int(min(nsq, max(2048, rng.lognormal(np.log(0.005 * nsq + 1), 0.7))))
        offset = int(rng.integers(0, max(nsq - size, 1)))
        steps.append(Step("read", nsq_name, offset, size))
        steps.append(Step("compute", seconds=hdr_burst))

    # 6. Temporary result/synchronisation writes (50-778 B, mean ~690 B
    #    in the paper's trace).
    for i in range(N_RESULT_WRITES):
        size = int(rng.integers(600, 779)) if i == 0 else int(rng.integers(50, 779))
        steps.append(Step("write", spec.file_name("tmp"), 0, size))

    steps.append(Step("compute", seconds=cost.result_cpu))
    return steps


def steps_summary(steps: List[Step]) -> Dict[str, float]:
    """Totals used by tests and the Figure 4 bench.

    A ``scan`` counts as one application-level read (that is how the
    paper's instrumentation sees an mmap'd pass)."""
    reads = [s for s in steps if s.kind in ("read", "scan")]
    writes = [s for s in steps if s.kind == "write"]
    return {
        "n_reads": len(reads),
        "n_writes": len(writes),
        "read_bytes": sum(s.size for s in reads),
        "write_bytes": sum(s.size for s in writes),
        "max_read": max((s.size for s in reads), default=0),
        "min_read": min((s.size for s in reads), default=0),
        "compute_seconds": sum(s.seconds for s in steps
                               if s.kind in ("compute", "scan")),
    }
