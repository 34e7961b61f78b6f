"""Calibration constants tying the simulation to the paper's testbed.

Hardware constants live in :mod:`repro.cluster.params` (Bonnie/Netperf
figures from Section 4.1).  This module calibrates the *application*
cost model: how fast one PrairieFire node's blastn scans database bytes,
and the fixed costs of the master/worker machinery.

The scan rate is chosen so that the simulated execution times land in
the paper's Figure 5/6 range: a one-worker search of the 2.7 GB nt
takes ~20 minutes (Figure 6 shows ~1200 s-scale times), and I/O is
~10 % of execution time at 2 workers (Section 4.3 quotes 11 %).  The
dual Athlon MP runs the single-threaded search on one CPU while the
second CPU absorbs daemons — matching the paper's ~99 % utilisation
observation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

MB = 1_000_000


@dataclass(frozen=True)
class BlastCostModel:
    """CPU-side costs of parallel BLAST."""

    #: Database bytes searched per CPU-second by blastn with the paper's
    #: 568-character query (one Athlon MP 1800+).
    scan_rate: float = 2.2 * MB
    #: Per-fragment setup CPU (loading index, query prep).
    setup_cpu: float = 2.0
    #: CPU to serialise/emit one worker's result set.
    result_cpu: float = 0.2
    #: Master CPU to merge one worker result into the global list.
    merge_cpu: float = 0.3
    #: Size of the query broadcast to every worker at job start (the
    #: paper's 568-character query plus headers).
    query_msg_bytes: int = 640
    #: Size of a task-assignment message.
    task_msg_bytes: int = 256
    #: Size of a worker-ready / control message.
    control_msg_bytes: int = 64
    #: Size of one worker's result payload sent to the master.
    result_msg_bytes: int = 20_000
    #: Fraction of the scan cost that is independent of query length
    #: (rolling the database through the word lookup).  Governs how
    #: little query segmentation helps: a worker searching 1/w of the
    #: query still pays this share of the full scan.
    query_indep_fraction: float = 0.5
    #: Compute multiplier for a fragment the worker has searched before
    #: in the same service session: the engine's ScanCache keeps the
    #: packed concatenation and word codes, so repeat searches skip the
    #: packing cost.  1.0 (the default) models a cold engine every time
    #: and leaves all single-job experiments untouched.
    warm_compute_factor: float = 1.0

    def compute_seconds(self, residues: int, warm: bool = False) -> float:
        """CPU seconds to search *residues* database bases; *warm*
        applies :attr:`warm_compute_factor` (scan structures cached)."""
        seconds = residues / self.scan_rate
        if warm:
            seconds *= self.warm_compute_factor
        return seconds

    def with_scan_rate(self, rate: float) -> "BlastCostModel":
        return replace(self, scan_rate=rate)

    def with_warm_factor(self, factor: float) -> "BlastCostModel":
        return replace(self, warm_compute_factor=factor)


def default_cost_model() -> BlastCostModel:
    """The PrairieFire-calibrated cost model."""
    return BlastCostModel()
