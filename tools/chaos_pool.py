#!/usr/bin/env python3
"""Chaos sweep for the real execution pool.

Runs the hardened :class:`repro.exec.ExecPool` under a battery of
seeded random fault plans (kill / hang / slow / drop-result — see
``repro.exec.faults.random_plan``) and checks, for every seed, the
paper's "keeps serving" contract:

* ``search_many`` output stays **byte-identical** to the serial scan
  engine (degraded serial fallback counts — same bytes by design);
* the pool ends the sweep at **full configured capacity** (respawn
  recovered every injected crash);
* the failure ledger contains **zero anomalies** (events the hardened
  pool must never produce);
* no shared-memory segment survives in /dev/shm: no ``psm_`` one,
  and no ``repro_`` one this sweep's processes made (another process's
  pool running meanwhile is not this sweep's leak).

Any violation prints the offending seed (replay with
``--seed N --verbose``) and the tool exits non-zero, so CI can run it
as a smoke gate::

    PYTHONPATH=src python tools/chaos_pool.py               # 8 seeds
    PYTHONPATH=src python tools/chaos_pool.py --seeds 25
    PYTHONPATH=src python tools/chaos_pool.py --seed 7 --verbose

By default the pool forks its own local workers (node agents on a
``socketpair``, packs attached by shm name).  ``--fleet`` runs the same
contract against two listening :class:`repro.exec.NodeFleet` agents
instead: the pool dials them over TCP, the seeded plans draw from every
fault kind but ``corrupt_pack`` (``disconnect`` too), and every
fragment is mirrored onto both agents so one killed mid-job is served
by its mirror.  Between batches the fleet respawns any dead
agent healthy, so the post-recovery batch also proves reconnect (and
the ship-once pack cache) rather than a lucky survivor::

    PYTHONPATH=src python tools/chaos_pool.py --fleet --seeds 8
"""

import argparse
import dataclasses
import os
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

JOBS = 2
N_NODES = 2
N_FRAGMENTS = 4
N_QUERIES = 3


def shm_segments():
    """Every ``psm_`` segment (the stdlib's anonymous default, which the
    package never creates) and this process tree's ``repro_`` ones."""
    from repro.exec.shm import own_segments

    try:
        psm = [n for n in os.listdir("/dev/shm") if n.startswith("psm_")]
    except FileNotFoundError:  # non-Linux
        psm = []
    return sorted(psm + own_segments())


def dump(results):
    """Byte-level result fingerprint (every HSP field, order, ids)."""
    return (results.query_id, results.query_len, results.db_residues,
            results.db_sequences,
            [(h.subject_id, h.description, h.subject_len, h.fragment_id,
              [dataclasses.astuple(p) for p in h.hsps])
             for h in results.hits])


def build_workload():
    import numpy as np

    from repro.blast.score import NucleotideScore
    from repro.blast.search import SearchParams, search
    from repro.blast.seqdb import NT, SequenceDB

    rng = np.random.default_rng(2024)
    db = SequenceDB(NT)
    letters = np.array(list("ACGT"))
    for i in range(24):
        length = int(rng.integers(100, 300))
        db.add(f"s{i}", "".join(letters[rng.integers(0, 4, length)]))
    scheme = NucleotideScore()
    params = SearchParams(word_size=11)
    queries = [db.sequence(i)[:150].copy() for i in (2, 9, 17)][:N_QUERIES]
    serial = [dump(search(q, db, scheme, params)) for q in queries]
    return db, scheme, params, queries, serial


def run_seed_fleet(seed, workload, verbose=False):
    """One sweep iteration against two listening localhost agents
    (mirrored fragments); returns violation strings."""
    import warnings

    from repro.exec import FAULT_KINDS, ExecPool, random_plan
    from repro.exec.nodes import NodeFleet

    db, scheme, params, queries, serial = workload
    # Every kind but corrupt_pack, which stays out as in the default
    # sweep — a corrupted pack is a *fatal* integrity stop (exit 4) by
    # design, not a survivable fault.  Each agent gets its own plan
    # (rank-blind selectors would fire on both mirrors at once and
    # defeat the survival test).
    kinds = tuple(k for k in FAULT_KINDS if k != "corrupt_pack")
    plans = [random_plan(seed * 2 + i, n_workers=1, kinds=kinds,
                         slow_delay=0.5)
             for i in range(N_NODES)]
    violations = []
    with NodeFleet(N_NODES, plans=plans, task_sleep=0.05) as fleet:
        with ExecPool(jobs=0, nodes=fleet.addresses, replication=2,
                      heartbeat=0.1, hedge_after=0.3,
                      node_timeout=1.0) as pool:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                results = pool.search_many(queries, db, scheme, params,
                                           n_fragments=N_FRAGMENTS)
            got = [dump(r) for r in results]
            if got != serial:
                violations.append("results diverged from the serial engine")
                pool.ledger.record("result_mismatch", detail=f"seed {seed}")
            # Respawn the whole fleet healthy (no plans): unlike a
            # local worker the pool cannot re-fork a listening agent,
            # only re-dial it, so recovery from an agent death is the
            # supervisor's move.  Respawning the survivors too discards
            # any still-armed late fault (a once-fault with a high
            # task_index would otherwise fire *inside* the recovery
            # batch and fail the capacity check by construction).
            for i in range(N_NODES):
                fleet.respawn(i, fault_plan=None)
            second = pool.search_many(queries, db, scheme, params,
                                      n_fragments=N_FRAGMENTS)
            if [dump(r) for r in second] != serial:
                violations.append("post-recovery results diverged")
            live = sum(1 for w in pool._workers if w.alive)
            if live != N_NODES:
                violations.append(
                    f"capacity not restored: {live}/{N_NODES} nodes live")
            anomalies = pool.ledger.anomalies()
            if anomalies:
                violations.append(f"{anomalies} ledger anomaly entries")
            summary = pool.ledger.summary()
            ship = pool.node_ship_stats()
    if verbose:
        for i, plan in enumerate(plans):
            print(f"  node {i} plan: {plan.to_json()}")
        print(f"  ledger: {summary}")
        print(f"  ship: {ship}")
    return violations


def run_seed(seed, workload, verbose=False):
    """One sweep iteration; returns a list of violation strings."""
    import warnings

    from repro.exec import ExecPool, random_plan

    db, scheme, params, queries, serial = workload
    plan = random_plan(seed, n_workers=JOBS)
    violations = []
    with ExecPool(jobs=JOBS, fault_plan=plan, task_sleep=0.05,
                  hedge_after=0.3) as pool:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            results = pool.search_many(queries, db, scheme, params,
                                       n_fragments=N_FRAGMENTS)
        got = [dump(r) for r in results]
        if got != serial:
            violations.append("results diverged from the serial engine")
            pool.ledger.record("result_mismatch", detail=f"seed {seed}")
        # A second, fault-free batch must run at restored capacity.
        second = pool.search_many(queries, db, scheme, params,
                                  n_fragments=N_FRAGMENTS)
        if [dump(r) for r in second] != serial:
            violations.append("post-recovery results diverged")
        live = sum(1 for w in pool._workers if w.alive)
        if live != JOBS:
            violations.append(
                f"capacity not restored: {live}/{JOBS} workers live")
        anomalies = pool.ledger.anomalies()
        if anomalies:
            violations.append(f"{anomalies} ledger anomaly entries")
        summary = pool.ledger.summary()
    if verbose:
        print(f"  plan: {plan.to_json()}")
        print(f"  ledger: {summary}")
    return violations


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=8,
                        help="number of random plans to sweep (default 8)")
    parser.add_argument("--seed", type=int, default=None,
                        help="replay a single seed")
    parser.add_argument("--verbose", action="store_true",
                        help="print each seed's plan and ledger summary")
    parser.add_argument("--fleet", action="store_true",
                        help="sweep two listening localhost agents with "
                             "mirrored fragments and every survivable "
                             "fault kind (default: the pool's own local "
                             "workers)")
    args = parser.parse_args(argv)
    sweep = run_seed_fleet if args.fleet else run_seed

    before = shm_segments()
    workload = build_workload()
    seeds = [args.seed] if args.seed is not None else list(range(args.seeds))
    failed = 0
    for seed in seeds:
        t0 = time.time()
        violations = sweep(seed, workload, verbose=args.verbose)
        status = "ok" if not violations else "FAIL"
        print(f"{status} seed={seed} ({time.time() - t0:.2f}s)")
        for v in violations:
            failed += 1
            print(f"     {v}  [replay: --seed {seed} --verbose]")
    leaked = [s for s in shm_segments() if s not in before]
    if leaked:
        failed += 1
        print(f"FAIL leaked shared-memory segments: {leaked}")
    if failed:
        print(f"{failed} violation(s) across {len(seeds)} seed(s)")
        return 1
    print(f"all {len(seeds)} seed(s) clean: byte-identical results, "
          f"capacity restored, no anomalies, no leaks")
    return 0


if __name__ == "__main__":
    sys.exit(main())
