"""Cross-validation of the Figure 4 I/O model against (a) the paper's
published trace statistics and (b) file-level I/O measured from the
real engine in this repository.

The model cannot be validated against NCBI BLAST itself (no network,
no nt database), so two anchors are used:

* the aggregate statistics the paper reports for its own trace
  (Section 4.2): operation mix, size extremes, write-size range;
* the real engine's database loader: reading a formatted fragment from
  disk is dominated by the sequence file, with small index reads first —
  the same structure the model generates.
"""

import io
import os

import numpy as np
import pytest

from repro.blast import SequenceDB, blastn, segment_db
from repro.core.calibration import default_cost_model
from repro.parallel.iomodel import (
    FragmentSpec,
    fragment_files,
    fragment_steps,
    steps_summary,
)
from repro.workloads import extract_query, synthetic_nt_db

MB = 1_000_000


def paper_fragment(i=0):
    return FragmentSpec(i, 337_500_000, 322_500_000)


# ----------------------------------------------------------- paper anchors
def test_paper_trace_aggregates_8_workers():
    """144 ops, 89% reads, reads 13 B..220 MB, writes 50-778 B mean~690."""
    cost = default_cost_model()
    all_reads, all_writes = [], []
    for i in range(8):
        steps = fragment_steps(paper_fragment(i), cost)
        all_reads += [s.size for s in steps if s.kind in ("read", "scan")]
        all_writes += [s.size for s in steps if s.kind == "write"]
    ops = len(all_reads) + len(all_writes)
    assert ops == 144
    assert len(all_reads) / ops == pytest.approx(0.89, abs=0.01)
    assert min(all_reads) == 13
    assert max(all_reads) == pytest.approx(220 * MB, rel=0.01)
    assert len(all_writes) == 16
    assert all(50 <= w <= 778 for w in all_writes)
    mean_w = sum(all_writes) / len(all_writes)
    assert 500 <= mean_w <= 778  # paper: ~690 B


def test_model_total_read_volume_close_to_fragment_size():
    """The worker reads the fragment roughly once, plus modest re-reads."""
    s = steps_summary(fragment_steps(paper_fragment(), default_cost_model()))
    ratio = s["read_bytes"] / paper_fragment().nbytes
    assert 1.0 <= ratio <= 1.4


# ------------------------------------------------------ real-engine anchor
class _CountingReader(io.FileIO):
    """File wrapper recording read sizes."""

    reads = []  # class-level log: [(path-suffix, size)]

    def read(self, size=-1):
        data = super().read(size)
        type(self).reads.append((os.path.basename(self.name), len(data)))
        return data


def _load_with_counting(tmp_path, name):
    import builtins

    _CountingReader.reads = []
    real_open = builtins.open

    def counting_open(path, mode="r", *a, **kw):
        if "b" in mode and "r" in mode and str(path).startswith(str(tmp_path)):
            return _CountingReader(path, "r")
        return real_open(path, mode, *a, **kw)

    builtins.open = counting_open
    try:
        return SequenceDB.load(str(tmp_path), name), list(_CountingReader.reads)
    finally:
        builtins.open = real_open


def test_real_fragment_load_matches_model_structure(tmp_path):
    """Loading a real formatted fragment: sequence-file bytes dominate,
    index metadata is read first in small pieces — the structure the
    model's step timeline encodes."""
    db = synthetic_nt_db(200_000, seed=11)
    frag = segment_db(db, 4)[0]
    frag.write(str(tmp_path))
    loaded, reads = _load_with_counting(tmp_path, frag.name)

    assert len(loaded) == len(frag)
    by_ext = {}
    for name, size in reads:
        by_ext.setdefault(name.rsplit(".", 1)[1], []).append(size)
    # Sequence data dominates the bytes moved.
    assert sum(by_ext["nsq"]) > sum(by_ext["nhr"])
    assert sum(by_ext["nsq"]) > sum(by_ext["nin"])
    # The index is consulted first, starting with a small magic read.
    first_file, first_size = reads[0]
    assert first_file.endswith(".nin")
    assert first_size <= 16
    # Total bytes read ~= on-disk footprint (each file read once).
    total = sum(size for _, size in reads)
    on_disk = sum(os.path.getsize(p) for p in frag.paths(str(tmp_path)))
    assert total == pytest.approx(on_disk, rel=0.01)


def test_real_search_is_read_only(tmp_path):
    """The search path itself issues no database writes (the paper's 11%
    writes are temp-result records, not database mutations)."""
    db = synthetic_nt_db(50_000, seed=12)
    db.write(str(tmp_path))
    before = {p: os.path.getmtime(p) for p in db.paths(str(tmp_path))}
    loaded = SequenceDB.load(str(tmp_path), db.name)
    query = extract_query(loaded, length=300, seed=1)
    res = blastn(query, loaded)
    assert res.hits  # the planted query hits its source
    after = {p: os.path.getmtime(p) for p in db.paths(str(tmp_path))}
    assert before == after
