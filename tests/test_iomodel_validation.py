"""Cross-validation of the Figure 4 I/O model against (a) the paper's
published trace statistics and (b) file-level I/O measured from the
real engine in this repository.

The model cannot be validated against NCBI BLAST itself (no network,
no nt database), so two anchors are used:

* the aggregate statistics the paper reports for its own trace
  (Section 4.2): operation mix, size extremes, write-size range;
* the real engine's database format: opening a fragment pack reads its
  preamble and header first, in small reads, and its bytes are
  dominated by the sequence section — the same structure the model
  generates.
"""

import io
import os

import numpy as np
import pytest

from repro.blast import blastn
from repro.blast.alphabet import encode_dna
from repro.blast.programs import program_defaults
from repro.core.calibration import default_cost_model
from repro.parallel.iomodel import (
    FragmentSpec,
    fragment_files,
    fragment_steps,
    steps_summary,
)
from repro.exec.diskpack import (DiskPack, PackStore, build_pack_store,
                                 search_store)
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

    log = []  # class-level, in order: [("read" | "mmap", bytes)]

    def read(self, size=-1):
        data = super().read(size)
        type(self).log.append(("read", len(data)))
        return data


def _open_with_counting(path):
    """Open one pack file, logging in order each read through ``open``
    and the mapping that follows them."""
    import builtins
    import mmap

    log = _CountingReader.log = []
    real_open, real_mmap = builtins.open, mmap.mmap

    def counting_open(p, mode="r", *a, **kw):
        if str(p) == path and "b" in mode and "r" in mode:
            return _CountingReader(p, "r")
        return real_open(p, mode, *a, **kw)

    def logging_mmap(fileno, length, *a, **kw):
        log.append(("mmap", os.fstat(fileno).st_size))
        return real_mmap(fileno, length, *a, **kw)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(builtins, "open", counting_open)
        mp.setattr(mmap, "mmap", logging_mmap)
        return DiskPack(path), list(log)


def test_real_fragment_load_matches_model_structure(tmp_path):
    """Opening a real fragment pack: the preamble and the header are
    read first, in two small reads, before the file is mapped, and the
    sequence section dominates the pack's bytes — the structure the
    model's step timeline encodes (small index reads, then the pass
    over the sequences)."""
    db = synthetic_nt_db(200_000, seed=11)
    store = build_pack_store(db, str(tmp_path), n_fragments=4)
    path = store.pack_path(store.packs[0])
    pack, log = _open_with_counting(path)
    try:
        sections = {field: int(np.prod(shape)) * np.dtype(dtype).itemsize
                    for field, dtype, shape, _off in pack.spec.arrays}
    finally:
        pack.close()

    assert [kind for kind, _ in log] == ["read", "read", "mmap"]
    (_, preamble), (_, header), (_, mapped) = log
    # The preamble is a fixed 32 bytes; header and preamble together
    # are a sliver of the sequence section.
    assert preamble == 32
    assert preamble + header < sections["concat"] / 20
    # Sequence data dominates the bytes the mapping serves.
    assert sections["concat"] > 2 * sum(
        size for field, size in sections.items() if field != "concat")
    # The mapping is the whole file: the small reads plus the sections
    # (and their 64-byte alignment) are its footprint.
    assert mapped == os.path.getsize(path)
    assert preamble + header + sum(sections.values()) \
        == pytest.approx(mapped, rel=0.01)


def test_real_search_is_read_only(tmp_path):
    """The search path itself issues no database writes (the paper's 11%
    writes are temp-result records, not database mutations): searching
    a store, mapped and read into memory, leaves every file as it was."""
    db = synthetic_nt_db(50_000, seed=12)
    store = build_pack_store(db, str(tmp_path), n_fragments=2)

    def stamps():
        return {name: os.path.getmtime(tmp_path / name)
                for name in sorted(os.listdir(tmp_path))}

    before = stamps()
    query = extract_query(db, length=300, seed=1)
    scheme, params = program_defaults("blastn")
    res = search_store(encode_dna(query), PackStore.open(str(tmp_path)),
                       scheme, params)
    assert res.hits  # the planted query hits its source
    assert blastn(query, store.load_db()).hits
    assert stamps() == before
