"""Tests for the in-memory sequence database and its segmentation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blast.fasta import FastaRecord
from repro.blast.seqdb import SequenceDB, plan_fragments, segment_db

FASTA = """>s1 first
ACGTACGTAC
>s2 second
TTTTGGGGCCCCAAAA
>s3 third
ACACACAC
"""


def test_from_fasta_text():
    db = SequenceDB.from_fasta_text(FASTA)
    assert len(db) == 3
    assert db.n_sequences == 3
    assert db.total_residues == 10 + 16 + 8
    assert db.description(0) == "s1 first"
    assert db.sequence_str(1) == "TTTTGGGGCCCCAAAA"
    assert db.lengths() == [10, 16, 8]


def test_add_rejects_empty():
    db = SequenceDB()
    with pytest.raises(ValueError):
        db.add("x", "")


def test_seqtype_validation():
    with pytest.raises(ValueError):
        SequenceDB("rna")


def test_iteration():
    db = SequenceDB.from_fasta_text(FASTA)
    descs = [d for d, _ in db]
    assert descs == ["s1 first", "s2 second", "s3 third"]


# ---------------------------------------------------------------- segmentation
def test_segment_balances_residues():
    db = SequenceDB()
    rng = np.random.default_rng(0)
    for i in range(40):
        n = int(rng.integers(50, 500))
        db.add(f"s{i}", "".join(rng.choice(list("ACGT"), n)))
    frags = segment_db(db, 4)
    assert len(frags) == 4
    sizes = [f.total_residues for f in frags]
    assert sum(sizes) == db.total_residues
    assert max(sizes) - min(sizes) < 500  # within one max-sequence
    assert sum(len(f) for f in frags) == len(db)
    assert [f.fragment_id for f in frags] == [0, 1, 2, 3]


def test_segment_fragments_map_back_to_the_parent():
    """A fragment keeps its parent ids, so a hit in it names the
    parent's sequence: ``source_ids[j]`` is the parent id of local
    sequence ``j``, and the fragments partition the parent's ids."""
    rng = np.random.default_rng(4)
    db = SequenceDB(name="parent")
    for i in range(17):
        db.add(f"s{i}", "".join(rng.choice(list("ACGT"),
                                           int(rng.integers(20, 90)))))
    frags = segment_db(db, 4)
    assert sorted(i for f in frags for i in f.source_ids) \
        == list(range(len(db)))
    for f in frags:
        assert f.name == f"parent.{f.fragment_id:03d}"
        for j, parent in enumerate(f.source_ids):
            assert f.description(j) == db.description(parent)
            assert np.array_equal(f.sequence(j), db.sequence(parent))


def test_segment_of_an_empty_database_is_no_fragments():
    """``plan_fragments`` clamps the fragment count to the number of
    sequences, so an empty database cuts into no fragments at all (not
    ``n`` empty ones)."""
    assert segment_db(SequenceDB(), 3) == []


def test_segment_preserves_every_sequence_exactly_once():
    db = SequenceDB.from_fasta_text(FASTA)
    frags = segment_db(db, 2)
    descs = sorted(d for f in frags for d, _ in f)
    assert descs == sorted(d for d, _ in db)


def test_segment_more_fragments_than_sequences():
    db = SequenceDB.from_fasta_text(FASTA)
    frags = segment_db(db, 10)
    assert len(frags) == 3  # clamped
    assert all(len(f) == 1 for f in frags)


def test_segment_one_fragment_is_whole_db():
    db = SequenceDB.from_fasta_text(FASTA)
    frags = segment_db(db, 1)
    assert len(frags) == 1
    assert frags[0].total_residues == db.total_residues


def test_segment_validation():
    db = SequenceDB.from_fasta_text(FASTA)
    with pytest.raises(ValueError):
        segment_db(db, 0)


@settings(max_examples=30, deadline=None)
@given(n_seqs=st.integers(1, 30), k=st.integers(1, 8), seed=st.integers(0, 10))
def test_segment_property_conserves_everything(n_seqs, k, seed):
    rng = np.random.default_rng(seed)
    db = SequenceDB()
    for i in range(n_seqs):
        db.add(f"s{i}", "".join(rng.choice(list("ACGT"), int(rng.integers(10, 100)))))
    frags = segment_db(db, k)
    assert sum(f.total_residues for f in frags) == db.total_residues
    assert sum(len(f) for f in frags) == len(db)


def _plan_fragments_loop(lengths, n_fragments):
    """The binning rule as first written, one ``min`` per sequence: the
    oracle of :func:`plan_fragments`' heap."""
    n_fragments = min(n_fragments, len(lengths))
    bins = [[] for _ in range(n_fragments)]
    loads = [0] * n_fragments
    for i in sorted(range(len(lengths)), key=lambda i: -lengths[i]):
        target = loads.index(min(loads))
        bins[target].append(i)
        loads[target] += lengths[i]
    return bins


class _Lengths:
    def __init__(self, lengths):
        self._lengths = lengths

    def __len__(self):
        return len(self._lengths)

    def lengths(self):
        return self._lengths


@settings(max_examples=300, deadline=None)
@given(lengths=st.one_of(
           st.lists(st.integers(1, 40), min_size=1, max_size=60),
           st.lists(st.sampled_from([3, 3, 7]), min_size=1, max_size=60),
           st.lists(st.integers(1, 10 ** 9), min_size=1, max_size=3)),
       k=st.integers(1, 70))
def test_plan_fragments_equals_the_per_sequence_loop(lengths, k):
    """The heap's bins are the loop's, id for id and in order: ties in
    length keep id order, ties in load go to the lowest fragment, more
    fragments than sequences clamp, a single sequence is one bin."""
    assert plan_fragments(_Lengths(lengths), k) \
        == _plan_fragments_loop(lengths, k)
    assert plan_fragments(_Lengths(np.asarray(lengths)), k) \
        == _plan_fragments_loop(lengths, k)


def test_subset_is_what_one_add_per_sequence_leaves():
    db = SequenceDB.from_fasta_text(FASTA)
    sub = db.subset([2, 0], name="sub", fragment_id=5)
    ref = SequenceDB("nt", "ref", fragment_id=5)
    for i in (2, 0):
        ref.add(db.description(i), db.sequence(i))
    assert (sub.name, sub.fragment_id, sub.source_ids) == ("sub", 5, [2, 0])
    assert (sub._version, sub.total_residues, len(sub)) \
        == (ref._version, ref.total_residues, len(ref))
    assert [sub.description(i) for i in range(2)] \
        == [ref.description(i) for i in range(2)]
    assert all(np.array_equal(sub.sequence(i), ref.sequence(i))
               for i in range(2))
    sub.add("more", "ACGT")
    assert len(db) == 3 and sub._version == 3
