"""A6 — Ablation (engine side): seed word size.

blastn's default word size 11 vs megablast's 28: the classic
sensitivity/speed tradeoff.  Measured on a synthetic database with
planted targets at decreasing identity: larger words scan faster but
stop finding diverged targets once exact runs of `word_size` vanish.
"""

import time

import numpy as np
import pytest
from conftest import save_report

from repro.blast import SequenceDB, SearchParams, blastn
from repro.core.report import format_table

IDENTITIES = (1.0, 0.97, 0.925, 0.90)
WORD_SIZES = (8, 11, 16, 28)


def _build_db(rng):
    """Targets at several identities to one 400-base core + decoys."""
    core = "".join(rng.choice(list("ACGT"), 400))
    db = SequenceDB("nt")
    for ident in IDENTITIES:
        seq = list(core)
        n_mut = round(len(seq) * (1 - ident))
        # Spread mutations evenly so max run length ~ 1/(1-identity).
        if n_mut:
            for pos in np.linspace(3, len(seq) - 4, n_mut).astype(int):
                seq[pos] = {"A": "C", "C": "G", "G": "T",
                            "T": "A"}[seq[pos]]
        db.add(f"target@{ident:.2f}", "".join(seq))
    for i in range(40):
        db.add(f"decoy{i}", "".join(rng.choice(list("ACGT"), 400)))
    return core, db


def _run():
    rng = np.random.default_rng(0)
    core, db = _build_db(rng)
    out = {}
    for w in WORD_SIZES:
        params = SearchParams(word_size=w, gapped_trigger=18)
        t0 = time.perf_counter()
        for _ in range(3):
            res = blastn(core, db, params=params)
        elapsed = (time.perf_counter() - t0) / 3
        found = {hit.description for hit in res.hits
                 if hit.description.startswith("target")}
        out[w] = (found, elapsed)
    return out


def test_ablation_word_size(once):
    results = once(_run)
    rows = []
    for w, (found, _t) in results.items():
        marks = ["x" if f"target@{i:.2f}" in found else "-"
                 for i in IDENTITIES]
        rows.append([w, *marks])
    save_report("ablation_wordsize", format_table(
        "A6: word-size ablation (found targets by identity; x = found)",
        ["word size", *(f"{i:.0%}" for i in IDENTITIES)], rows))
    # Wall-clock time of the real engine varies run to run, so it goes
    # to stdout only: the committed table regenerates byte for byte.
    print(format_table("A6: wall-clock per search (this run)",
                       ["word size", "ms/search"],
                       [[w, round(1000 * t, 1)]
                        for w, (_f, t) in results.items()]))

    # Everybody finds the exact target.
    for w, (found, _t) in results.items():
        assert "target@1.00" in found, w
    # Evenly-spread mutations leave exact runs of ~1/(1-identity) - 1
    # bases, so each word size has a sensitivity floor:
    assert "target@0.90" in results[8][0]       # runs ~9 >= 8
    assert "target@0.93" in results[11][0]      # runs ~12 >= 11
    assert "target@0.90" not in results[11][0]  # runs ~9 < 11
    assert "target@0.93" not in results[28][0]  # nothing for megablast
    assert "target@0.90" not in results[28][0]
    # Bigger words scan no slower (usually faster: fewer hits to extend).
    assert results[28][1] <= results[8][1] * 1.2
