"""Hedged re-issue vs an injected straggler (real pool, wall clock).

The runtime analog of the paper's hot-spot experiment (Figures 8–9):
one worker is made a straggler by an injected ``slow`` fault, and the
job's wall time is measured with hedging off (the pool waits out the
full stall, as PVFS waits on a hot server) and with hedging on (an
idle worker speculatively re-serves the stuck fragment, as CEFT-PVFS
reads from the mirror group).  The acceptance bar mirrors the paper's
claim: with hedging, the straggler's job completes within 2x the
fault-free wall time; without it, the stall lands in full.

Measured numbers land in ``benchmarks/results/exec_faults.txt`` for
EXPERIMENTS.md to quote.
"""

import time

import numpy as np
import pytest

from repro.blast.score import NucleotideScore
from repro.blast.search import SearchParams
from repro.blast.seqdb import NT, SequenceDB
from repro.exec import ExecPool, Fault, FaultPlan

from conftest import save_report

JOBS = 2
N_FRAGMENTS = 6
TASK_SLEEP = 0.15          # per-task stall so scheduling dominates I/O
STRAGGLER_DELAY = 2.0      # the injected hot-spot stall
HEDGE_AFTER = 0.3          # soft deadline for speculative re-issue


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(11)
    letters = np.array(list("ACGT"))
    db = SequenceDB(NT)
    for i in range(18):
        length = int(rng.integers(150, 400))
        db.add(f"s{i}", "".join(letters[rng.integers(0, 4, length)]))
    query = db.sequence(5)[:200].copy()
    return db, NucleotideScore(), SearchParams(word_size=11), query


def _wall_time(workload, fault_plan, hedge_after):
    db, scheme, params, query = workload
    with ExecPool(jobs=JOBS, fault_plan=fault_plan, task_sleep=TASK_SLEEP,
                  hedge_after=hedge_after) as pool:
        t0 = time.perf_counter()
        pool.search(query, db, scheme, params, n_fragments=N_FRAGMENTS)
        elapsed = time.perf_counter() - t0
        stats = pool.last_stats
    return elapsed, stats


def test_hedged_reissue_beats_straggler(workload):
    straggler = FaultPlan(faults=(Fault("slow", rank=0, task_index=2,
                                        delay=STRAGGLER_DELAY),))
    fault_free, _ = _wall_time(workload, None, hedge_after=100.0)
    unhedged, us = _wall_time(workload, straggler, hedge_after=100.0)
    hedged, hs = _wall_time(workload, straggler, hedge_after=HEDGE_AFTER)

    report = "\n".join([
        "Hedged re-issue vs injected straggler "
        f"(jobs={JOBS}, fragments={N_FRAGMENTS}, "
        f"task_sleep={TASK_SLEEP}s, straggler +{STRAGGLER_DELAY}s)",
        f"{'condition':<22}{'wall time':>12}{'vs fault-free':>15}",
        f"{'fault-free':<22}{fault_free:>11.2f}s{1.0:>14.2f}x",
        f"{'straggler, no hedge':<22}{unhedged:>11.2f}s"
        f"{unhedged / fault_free:>14.2f}x",
        f"{'straggler, hedged':<22}{hedged:>11.2f}s"
        f"{hedged / fault_free:>14.2f}x",
        f"(hedges={hs.hedges}, hedge_wins={hs.hedge_wins}; "
        f"unhedged run hedged {us.hedges} times)",
    ])
    save_report("exec_faults", report)

    # Without hedging the full stall lands in the job's wall time.
    assert unhedged > fault_free + 0.8 * STRAGGLER_DELAY
    assert us.hedges == 0
    # With hedging the straggler is routed around: the acceptance bar
    # (2x fault-free) plus scheduler-tick slack for loaded CI boxes.
    assert hs.hedge_wins >= 1
    assert hedged <= 2.0 * fault_free + 0.25, \
        f"hedged {hedged:.2f}s vs fault-free {fault_free:.2f}s"
    # And it is strictly better than eating the stall.
    assert hedged < unhedged - 0.5 * STRAGGLER_DELAY
