"""Tests for the lazy (on-demand) database view."""

import numpy as np
import pytest

from repro.blast import SequenceDB, blastn
from repro.blast.lazydb import LazySequenceDB
from repro.workloads import extract_query, synthetic_nt_db


@pytest.fixture
def on_disk(tmp_path):
    db = synthetic_nt_db(100_000, seed=21, name="lazy")
    db.write(str(tmp_path))
    return db, str(tmp_path)


def test_lazy_metadata_without_payload_io(on_disk):
    db, d = on_disk
    lazy = LazySequenceDB(d, "lazy")
    index_bytes = lazy.bytes_read
    assert len(lazy) == len(db)
    assert lazy.total_residues == db.total_residues
    assert lazy.lengths() == db.lengths()
    # Metadata queries did not touch sequence data.
    assert lazy.bytes_read == index_bytes
    assert lazy.sequence_reads == 0


def test_lazy_sequence_read_on_demand(on_disk):
    db, d = on_disk
    lazy = LazySequenceDB(d, "lazy")
    assert np.array_equal(lazy.sequence(3), db.sequence(3))
    assert lazy.sequence_reads == 1
    # Cached: second access is free.
    lazy.sequence(3)
    assert lazy.sequence_reads == 1
    assert lazy.description(3) == db.description(3)


def test_lazy_matches_eager_everywhere(on_disk):
    db, d = on_disk
    lazy = LazySequenceDB(d, "lazy")
    for i in range(0, len(db), max(len(db) // 7, 1)):
        assert np.array_equal(lazy.sequence(i), db.sequence(i))
        assert lazy.description(i) == db.description(i)
        assert lazy.sequence_str(i) == db.sequence_str(i)


def test_preload_reads_everything_once(on_disk):
    db, d = on_disk
    lazy = LazySequenceDB(d, "lazy")
    lazy.sequence(2)                       # one sequence already cached
    assert lazy.preload_sequences() == len(db) - 1
    assert lazy.sequence_reads == len(db)
    for i in range(len(db)):
        assert np.array_equal(lazy.sequence(i), db.sequence(i))
    assert lazy.sequence_reads == len(db)  # all served from cache
    assert lazy.preload_sequences() == 0   # nothing left to read


def test_lazy_search_equals_eager_search(on_disk):
    db, d = on_disk
    lazy = LazySequenceDB(d, "lazy")
    query = extract_query(db, length=300, seed=2)
    eager = blastn(query, db)
    viadisk = blastn(query, lazy)
    assert eager.best().score == viadisk.best().score
    assert [h.subject_id for h in eager.hits] == \
        [h.subject_id for h in viadisk.hits]
    # The search had to pull the whole sequence file (scan phase).
    assert lazy.sequence_reads == len(db)


def test_drop_caches_forces_reread(on_disk):
    db, d = on_disk
    lazy = LazySequenceDB(d, "lazy")
    lazy.sequence(0)
    lazy.drop_caches()
    lazy.sequence(0)
    assert lazy.sequence_reads == 2


def test_lazy_type_checks(tmp_path, on_disk):
    db, d = on_disk
    with pytest.raises(ValueError):
        LazySequenceDB(d, "lazy", seqtype="rna")
    with pytest.raises((ValueError, OSError)):
        LazySequenceDB(d, "lazy", seqtype="aa")  # wrong type: .pin missing

    junk = tmp_path / "bad.nin"
    junk.write_bytes(b"XXXX" + b"\0" * 40)
    with pytest.raises((ValueError, OSError)):
        LazySequenceDB(str(tmp_path), "bad")


def test_lazy_subset_materializes_fragment_with_source_ids(on_disk):
    db, d = on_disk
    lazy = LazySequenceDB(d, "lazy")
    before = lazy.sequence_reads
    sub = lazy.subset([4, 0, 2], name="frag", fragment_id=1)
    assert sub.source_ids == [4, 0, 2]
    assert sub.fragment_id == 1
    assert len(sub) == 3
    np.testing.assert_array_equal(sub.sequence(0), db.sequence(4))
    np.testing.assert_array_equal(sub.sequence(2), db.sequence(2))
    assert sub.description(1) == db.description(0)
    # Reads went through the accounted lazy path.
    assert lazy.sequence_reads == before + 3


def test_pool_search_over_lazy_db(on_disk):
    import dataclasses

    from repro.blast.alphabet import encode_dna
    from repro.blast.score import NucleotideScore
    from repro.blast.search import SearchParams, search
    from repro.exec import ExecPool
    from repro.workloads import extract_query

    db, d = on_disk
    lazy = LazySequenceDB(d, "lazy")
    query = encode_dna(extract_query(db, length=200, seed=3))
    scheme = NucleotideScore()
    params = SearchParams(word_size=11)

    def dump(res):
        return [(h.subject_id, h.description, h.subject_len,
                 [dataclasses.astuple(p) for p in h.hsps])
                for h in res.hits]

    with ExecPool(jobs=2) as pool:
        par = pool.search(query, lazy, scheme, params, n_fragments=3)
    assert dump(par) == dump(search(query, db, scheme, params))
