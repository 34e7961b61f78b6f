"""Microbenchmarks of the real BLAST engine (the non-simulated half).

Not a paper figure — these keep the engine's performance visible and
regression-checked: blastn scan throughput (the concatenated-fragment
kernel), ScanCache warm-over-cold behaviour, pool scaling, protein
search, database formatting, and segmentation.
"""

import dataclasses
import os
import time

import numpy as np
import pytest

from repro.blast import ScanCache, SequenceDB, blastn, blastp, segment_db
from repro.blast.alphabet import encode_dna
from repro.blast.score import NucleotideScore
from repro.blast.search import SearchParams, search
from repro.blast.seqdb import format_db
from repro.workloads import extract_query, synthetic_nt_db


@pytest.fixture(scope="module")
def nt_db():
    return synthetic_nt_db(1_000_000, seed=0)


@pytest.fixture(scope="module")
def aa_db():
    rng = np.random.default_rng(0)
    db = SequenceDB("aa")
    for i in range(300):
        db.add(f"p{i}", "".join(
            rng.choice(list("ARNDCQEGHILKMFPSTWYV"), 350)))
    return db


def test_blastn_scan_throughput(benchmark, nt_db):
    query = extract_query(nt_db, length=568, seed=1)
    result = benchmark(blastn, query, nt_db)
    assert result.hits  # the planted query must be found
    mbps = nt_db.total_residues / benchmark.stats["mean"] / 1e6
    # Regression floor: the concatenated-fragment kernel sustains
    # ~34 MB/s on the dev box where a per-sequence scan manages ~11;
    # 12 MB/s fails anything that slow while leaving headroom for
    # slower CI machines.
    assert mbps > 12.0


def _median_seconds(fn, rounds: int = 3) -> float:
    samples = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    samples.sort()
    return samples[len(samples) // 2]


def test_scan_cache_warm_over_cold(nt_db):
    """Re-querying a cached fragment must skip the packing cost."""
    query = encode_dna(extract_query(nt_db, length=568, seed=1))
    scheme = NucleotideScore()
    params = SearchParams()
    cache = ScanCache()

    def run(clear_first):
        if clear_first:
            cache.clear()
        t0 = time.perf_counter()
        search(query, nt_db, scheme, params, scan_cache=cache)
        return time.perf_counter() - t0

    run(clear_first=True)  # JIT/page warmup, discarded
    cold = sorted(run(clear_first=True) for _ in range(3))[1]
    warm = sorted(run(clear_first=False) for _ in range(3))[1]
    stats = cache.stats()
    assert stats["misses"] >= 4 and stats["hits"] >= 3
    assert cold / warm > 1.2  # packing is a measurable share of cold time


@pytest.mark.skipif((os.cpu_count() or 1) < 4,
                    reason="pool scaling needs at least 4 physical cores")
def test_pool_scaling_four_workers(nt_db):
    """Four pool workers must clearly beat the serial warm kernel on
    the 1M corpus (same machine, same run — machine-portable ratio).

    2.0x at 4 workers: fragment packing is amortized (the pool is
    warm), tasks are overhead-sized fragment ranges, and large results
    ship through the shared-memory arena instead of the pickle pipe —
    half of ideal scaling is the least the design must deliver.
    """
    from repro.exec import ExecPool

    query = encode_dna(extract_query(nt_db, length=568, seed=1))
    scheme = NucleotideScore()
    params = SearchParams()
    cache = ScanCache()

    def run_serial():
        return search(query, nt_db, scheme, params, scan_cache=cache)

    run_serial()  # warm the serial cache
    t_serial = _median_seconds(run_serial)
    with ExecPool(jobs=4) as pool:
        first = pool.search(query, nt_db, scheme, params)  # warm packs
        t_pool = _median_seconds(
            lambda: pool.search(query, nt_db, scheme, params))

    serial = run_serial()
    assert ([(h.subject_id, [dataclasses.astuple(p) for p in h.hsps])
             for h in first.hits] ==
            [(h.subject_id, [dataclasses.astuple(p) for p in h.hsps])
             for h in serial.hits])
    assert t_serial / t_pool > 2.0


def test_blastp_search(benchmark, aa_db):
    query = aa_db.sequence_str(7)[40:160]
    result = benchmark(blastp, query, aa_db)
    assert result.hits
    assert result.hits[0].description == "p7"


def test_format_db_throughput(benchmark):
    from repro.workloads import synthetic_nt_fasta

    fasta = synthetic_nt_fasta(300_000, seed=2)
    db = benchmark(format_db, fasta)
    assert db.total_residues >= 300_000


def test_segmentation_throughput(benchmark, nt_db):
    frags = benchmark(segment_db, nt_db, 8)
    assert len(frags) == 8
    sizes = [f.total_residues for f in frags]
    assert max(sizes) - min(sizes) < max(nt_db.lengths())
