"""The on-disk pack format, the repo's one database format: round-trip
fidelity against the in-RAM engine, byte-identity with the shm layout,
mmap cold start through the pool, a per-section corruption matrix,
crash-mid-build atomicity, and the ``packdb`` / ``blastall -d`` CLI
surface."""

import dataclasses
import io
import json
import os
import re
import socket
import struct
import subprocess
import sys
import tempfile
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle_fasta import iter_fasta_lines
from repro.blast import fasta as fasta_module
from repro.blast.alphabet import (DNA, PROTEIN, AlphabetError, encode_dna,
                                  reverse_complement)
from repro.blast.kmer import WordIndex
from repro.blast.scankernel import QueryBatch, build_scan_structures
from repro.blast.score import NucleotideScore, ProteinScore
from repro.blast.search import SearchParams, search, search_batch
from repro.blast.seqdb import AA, NT, SequenceDB, segment_db
from repro.blast.fasta import FastaRecord, iter_fasta
from repro.cli import EXIT_INTEGRITY, main
from repro.exec import ExecPool, FrameConnection
from repro.exec.diskpack import (BUILD_DIR_PREFIX, FORMAT_VERSION, MAGIC,
                                 MANIFEST_NAME, DiskPack, PackFormatError,
                                 PackStore, PackStoreBuilder,
                                 build_pack_store, corrupt_pack_file,
                                 open_pack_count, search_store,
                                 search_store_batch, sweep_build_leftovers,
                                 write_pack)
from repro.exec import diskpack
from repro.exec.nodes import TokenPacks
from repro.exec.shm import (_FIELDS, AttachedPack, PackDB, PackIntegrityError,
                            PackView, ShmRegistry, corrupt_segment,
                            create_pack, own_segments, read_pack_bytes)

NT_LETTERS = np.array(list("ACGT"))
AA_LETTERS = np.array(list("ARNDCQEGHILKMFPSTWYV"))


pytestmark = pytest.mark.usefixtures("no_segment_leaks")


@pytest.fixture(autouse=True)
def no_open_packs():
    yield
    assert open_pack_count() == 0, "test leaked an open DiskPack mapping"


def random_nt_db(rng, n_seqs, min_len=5, max_len=300):
    db = SequenceDB(NT)
    for i in range(n_seqs):
        length = int(rng.integers(min_len, max_len))
        db.add(f"s{i} desc", "".join(NT_LETTERS[rng.integers(0, 4, length)]))
    return db


def random_aa_db(rng, n_seqs, min_len=5, max_len=200):
    db = SequenceDB(AA)
    for i in range(n_seqs):
        length = int(rng.integers(min_len, max_len))
        db.add(f"p{i}", "".join(AA_LETTERS[rng.integers(0, 20, length)]))
    return db


def dump(results):
    """Full byte-level result dump (every HSP field, hit order, ids)."""
    return (results.query_id, results.query_len, results.db_residues,
            results.db_sequences,
            [(h.subject_id, h.description, h.subject_len, h.fragment_id,
              [dataclasses.astuple(p) for p in h.hsps])
             for h in results.hits])


def store_files(directory):
    return sorted(os.listdir(directory))


# ----------------------------------------------------------------------
# Round trip: build → reopen → search, byte-identical to the RAM engine
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n_fragments", [1, 3, 8])
def test_round_trip_nt(tmp_path, n_fragments):
    rng = np.random.default_rng(100 + n_fragments)
    db = random_nt_db(rng, 24)
    store = build_pack_store(db, str(tmp_path / "store"), seqtype=NT,
                             n_fragments=n_fragments)
    assert len(store) == len(db)
    assert store.total_residues == db.total_residues
    assert len(store.packs) == min(n_fragments, len(db))
    params = SearchParams(word_size=11)
    scheme = NucleotideScore()
    for qi in (0, 7, 19):
        q = db.sequence(qi)[:150].copy()
        got = search_store(q, store, scheme, params, query_id=f"q{qi}")
        want = search(q, db, scheme, params, query_id=f"q{qi}")
        assert dump(got) == dump(want)
    # A fresh process would re-open from the manifest: same answer.
    reopened = PackStore.open(str(tmp_path / "store"))
    q = db.sequence(7)[:150].copy()
    assert dump(search_store(q, reopened, scheme, params, query_id="q7")) \
        == dump(search(q, db, scheme, params, query_id="q7"))
    assert store.verify() == len(store.packs)
    assert open_pack_count() == 0


def test_round_trip_protein(tmp_path):
    rng = np.random.default_rng(7)
    db = random_aa_db(rng, 16)
    store = build_pack_store(db, str(tmp_path / "store"), seqtype=AA,
                             n_fragments=3)
    params = SearchParams(word_size=3, neighbor_threshold=11)
    scheme = ProteinScore()
    for qi in (0, 5, 11):
        q = db.sequence(qi)[:90].copy()
        got = search_store(q, store, scheme, params, query_id=f"q{qi}",
                           both_strands=False)
        want = search(q, db, scheme, params, query_id=f"q{qi}",
                      both_strands=False)
        assert dump(got) == dump(want)


def test_round_trip_property_random_corpora(tmp_path):
    """Seeded property loop: random corpora of both residue types, all
    queries byte-identical between the mmapped store and the in-RAM
    database."""
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        for seqtype in (NT, AA):
            if seqtype == NT:
                db = random_nt_db(rng, int(rng.integers(3, 20)))
                params = SearchParams(word_size=11)
                scheme = NucleotideScore()
            else:
                db = random_aa_db(rng, int(rng.integers(3, 15)))
                params = SearchParams(word_size=3, neighbor_threshold=11)
                scheme = ProteinScore()
            d = str(tmp_path / f"s{seed}-{seqtype}")
            store = build_pack_store(
                db, d, seqtype=seqtype,
                n_fragments=int(rng.integers(1, 6)),
                word_size=params.word_size)
            qi = int(rng.integers(0, len(db)))
            q = db.sequence(qi)[:120].copy()
            got = search_store(q, store, scheme, params, query_id="q")
            want = search(q, db, scheme, params, query_id="q")
            assert dump(got) == dump(want), (seed, seqtype)


@pytest.fixture
def count_query_batches(monkeypatch):
    """The sizes of the ``QueryBatch`` objects the driver constructs."""
    import repro.blast.scankernel as scankernel_mod
    search_mod = sys.modules["repro.blast.search"]
    built = []

    class Counted(scankernel_mod.QueryBatch):
        def __init__(self, indexes):
            built.append(len(indexes))
            super().__init__(indexes)

    monkeypatch.setattr(search_mod, "QueryBatch", Counted)
    return built


@pytest.mark.parametrize("seqtype", [NT, AA])
@pytest.mark.parametrize("n_fragments", [1, 3, 8])
def test_store_search_prepares_its_queries_once(tmp_path, seqtype,
                                                n_fragments,
                                                count_query_batches):
    """A store search is one search: however many packs the store has,
    its queries' word indexes go into one ``QueryBatch``, built once
    (one entry per query orientation), and every query renders what an
    in-RAM ``search_batch`` renders — a query shorter than the word
    size included, which has no entry and no hits."""
    rng = np.random.default_rng(300 + n_fragments)
    if seqtype == NT:
        db = random_nt_db(rng, 24, min_len=60)
        params = SearchParams(word_size=11)
        scheme, strands = NucleotideScore(), 2
    else:
        db = random_aa_db(rng, 24, min_len=40)
        params = SearchParams(word_size=3, neighbor_threshold=11)
        scheme, strands = ProteinScore(), 1
    store = build_pack_store(db, str(tmp_path / "store"), seqtype=seqtype,
                             n_fragments=n_fragments,
                             word_size=params.word_size)
    assert len(store.packs) == n_fragments
    queries = [db.sequence(3)[:120].copy(),
               db.sequence(0)[:params.word_size - 1].copy(),
               db.sequence(len(db) - 2)[10:].copy()]
    ids = ["long", "short", "tail"]
    got = search_store_batch(queries, store, scheme, params, query_ids=ids,
                             both_strands=seqtype == NT)
    assert count_query_batches == [2 * strands]
    want = search_batch(queries, db, scheme, params, query_ids=ids,
                        both_strands=seqtype == NT)
    assert [dump(r) for r in got] == [dump(r) for r in want]
    assert got[1].hits == [] and got[0].hits and got[2].hits


def test_empty_and_single_sequence_stores(tmp_path):
    empty = build_pack_store([], str(tmp_path / "empty"), seqtype=NT,
                             n_fragments=3)
    assert len(empty) == 0 and empty.total_residues == 0
    from repro.blast.alphabet import encode_dna
    q = encode_dna("ACGTACGTACGTACGT")
    r = search_store(q, empty, NucleotideScore(), SearchParams(word_size=11))
    assert r.hits == [] and r.db_sequences == 0

    db = SequenceDB(NT)
    db.add("only one", "ACGTACGTACGTACGTACGTACGT")
    one = build_pack_store(db, str(tmp_path / "one"), seqtype=NT,
                           n_fragments=4)
    assert len(one.packs) == 1, "empty fragments must be skipped"
    got = search_store(db.sequence(0), one, NucleotideScore(),
                       SearchParams(word_size=11), query_id="q")
    want = search(db.sequence(0), db, NucleotideScore(),
                  SearchParams(word_size=11), query_id="q")
    assert dump(got) == dump(want)


def test_builder_source_ids_cover_corpus(tmp_path):
    rng = np.random.default_rng(17)
    db = random_nt_db(rng, 21)
    store = build_pack_store(db, str(tmp_path / "store"), seqtype=NT,
                             n_fragments=5)
    seen = []
    for pack in store.open_packs():
        seen.extend(pack.spec.source_ids)
        pack.close()
    assert sorted(seen) == list(range(len(db)))


@pytest.mark.parametrize("seqtype", [NT, AA])
def test_load_db_reads_the_store_back_in_source_order(tmp_path, seqtype):
    """``PackStore.load_db`` is the one reader of a store into RAM: the
    records come back in the order they were added, whatever packs they
    were cut into, under the store's name and alphabet."""
    rng = np.random.default_rng(61)
    db = random_nt_db(rng, 25) if seqtype == NT else random_aa_db(rng, 25)
    store = build_pack_store(db, str(tmp_path), seqtype=seqtype,
                             name="mini", n_fragments=3)
    back = store.load_db()
    assert (back.name, back.seqtype, len(back)) == ("mini", seqtype, len(db))
    assert back.total_residues == db.total_residues
    for i in range(len(db)):
        assert back.description(i) == db.description(i)
        assert np.array_equal(back.sequence(i), db.sequence(i))
    assert open_pack_count() == 0


@pytest.mark.parametrize("n_fragments", [1, 3, 8])
def test_store_has_the_fragments_segment_db_cuts(tmp_path, n_fragments):
    """One binning rule: a store built from a database, in memory or
    streamed from FASTA, holds exactly the fragments ``segment_db`` (and
    through it the pool) cuts from that database — same ids in the same
    order, same bytes, same descriptions."""
    from repro.blast.alphabet import decode_dna
    rng = np.random.default_rng(300 + n_fragments)
    db = random_nt_db(rng, 30)
    fasta = tmp_path / "db.fasta"
    fasta.write_text("".join(f">{db.description(i)}\n"
                             f"{decode_dna(db.sequence(i))}\n"
                             for i in range(len(db))))
    frags = segment_db(db, n_fragments)
    for tag, source in (("ram", db), ("fasta", str(fasta))):
        store = build_pack_store(source, str(tmp_path / tag), seqtype=NT,
                                 n_fragments=n_fragments)
        assert [e.total_residues for e in store.packs] \
            == [f.total_residues for f in frags]
        packs = store.open_packs()
        try:
            assert [list(p.spec.source_ids) for p in packs] \
                == [f.source_ids for f in frags]
            for pack, frag in zip(packs, frags):
                pdb = PackDB(pack)
                assert [pdb.description(i) for i in range(len(pdb))] \
                    == [frag.description(i) for i in range(len(frag))]
                for i in range(len(frag)):
                    assert np.array_equal(pdb.sequence(i),
                                          frag.sequence(i))
                del pdb
        finally:
            for pack in packs:
                pack.close()


def test_streaming_build_from_fasta_file(tmp_path):
    rng = np.random.default_rng(23)
    db = random_nt_db(rng, 12)
    fasta = tmp_path / "db.fasta"
    from repro.blast.alphabet import decode_dna
    with open(fasta, "w") as f:
        for i in range(len(db)):
            f.write(f">{db.description(i)}\n{decode_dna(db.sequence(i))}\n")
    store = build_pack_store(str(fasta), str(tmp_path / "store"),
                             seqtype=NT, n_fragments=3)
    q = db.sequence(4)[:100].copy()
    params = SearchParams(word_size=11)
    assert dump(search_store(q, store, NucleotideScore(), params,
                             query_id="q")) \
        == dump(search(q, db, NucleotideScore(), params, query_id="q"))


# ----------------------------------------------------------------------
# The block builder: a store from FASTA is the store of its records
# ----------------------------------------------------------------------
def _pin_store_id(monkeypatch, store_id="ab" * 8):
    """Every build names its store *store_id* (and its spool directory
    alike), so two builds compare byte for byte."""
    monkeypatch.setattr(diskpack.secrets, "token_hex",
                        lambda n: store_id if n == 8 else "cd" * n)


def _store_bytes(directory):
    return {name: (Path(directory) / name).read_bytes()
            for name in store_files(directory)}


def _messy_fasta(rng, seqtype, n, newline="\n"):
    """*n* records of mixed case (IUPAC / rare letters included) wrapped
    at random widths, with blank lines, spaces inside and around the
    sequence lines and headers of trailing blanks."""
    letters = list("ACGTacgtNnRYkm" if seqtype == NT
                   else "ARNDCQEGHILKMFPSTWYVarndcXBZJO*")
    lines = []
    for i in range(n):
        lines.append(f">r{i} some description{' ' * int(rng.integers(0, 3))}")
        seq = "".join(rng.choice(letters, int(rng.integers(1, 400))))
        at = 0
        while at < len(seq):
            width = int(rng.integers(1, 90))
            lines.append(" " * int(rng.integers(0, 2)) + seq[at:at + width])
            if rng.random() < 0.1:
                lines.append(" " * int(rng.integers(0, 3)))
            at += width
    return newline.join(lines) + newline


@pytest.mark.parametrize("seqtype", [NT, AA])
@pytest.mark.parametrize("n_fragments", [1, 3, 4])
def test_fasta_and_database_sources_build_the_same_store(
        tmp_path, monkeypatch, seqtype, n_fragments):
    """The block builder — text blocks cut and encoded whole, a spool
    written a block per write, each fragment gathered with a few large
    reads — writes the bytes a per-record build of the same records
    writes: the database source, read by the per-line oracle."""
    _pin_store_id(monkeypatch)
    text = _messy_fasta(np.random.default_rng(70 + n_fragments), seqtype, 60)
    fasta = tmp_path / "db.fasta"
    fasta.write_text(text)
    db = SequenceDB(seqtype)
    for rec in iter_fasta_lines(text):
        db.add(rec.description, rec.sequence)
    kw = dict(seqtype=seqtype, n_fragments=n_fragments)
    build_pack_store(db, str(tmp_path / "ram"), **kw)
    build_pack_store(str(fasta), str(tmp_path / "fasta"), **kw)
    want = _store_bytes(tmp_path / "ram")
    assert len(want) == n_fragments + 1
    assert _store_bytes(tmp_path / "fasta") == want
    # Tiny blocks: records straddle text blocks.
    monkeypatch.setattr(fasta_module, "_BLOCK_CHARS", 37)
    with open(fasta) as f:
        build_pack_store(f, str(tmp_path / "small"), **kw)
    assert _store_bytes(tmp_path / "small") == want


def test_crlf_fasta_builds_the_lf_store(tmp_path, monkeypatch):
    _pin_store_id(monkeypatch)
    text = _messy_fasta(np.random.default_rng(5), NT, 40)
    for tag, newline in (("lf", "\n"), ("crlf", "\r\n"), ("cr", "\r")):
        (tmp_path / f"{tag}.fasta").write_bytes(
            text.replace("\n", newline).encode())
        build_pack_store(str(tmp_path / f"{tag}.fasta"), str(tmp_path / tag),
                         seqtype=NT, n_fragments=3)
    assert (_store_bytes(tmp_path / "crlf") == _store_bytes(tmp_path / "cr")
            == _store_bytes(tmp_path / "lf"))


def test_building_the_golden_fasta_writes_the_golden_store(tmp_path,
                                                           monkeypatch):
    """``golden_store`` was written by ``build_pack_store`` when the
    format version last changed; the block builder, given its store id,
    writes the same pack and manifest byte for byte."""
    golden = os.path.join(GOLDEN, "golden_store")
    _pin_store_id(monkeypatch, PackStore.open(golden).store_id)
    build_pack_store(os.path.join(GOLDEN, "golden.fasta"),
                     str(tmp_path / "again"), name="golden", n_fragments=1)
    assert _store_bytes(tmp_path / "again") == _store_bytes(golden)


@pytest.mark.parametrize("letter, error", [
    ("x", AlphabetError), ("\u00e9", UnicodeEncodeError)])
def test_a_bad_residue_fails_the_build_as_its_record_would(tmp_path, letter,
                                                           error):
    """The block is encoded whole, yet the error names what encoding the
    offending record alone names (the uppercased letter, its position in
    that record), and the build leaves no store."""
    text = ">a\nACGT\n>b\nAC\nGT" + letter + "AC\n>c\nGG\n"
    with pytest.raises(error) as want:
        encode_dna(iter_fasta_lines(text).__next__() and
                   list(iter_fasta_lines(text))[1].sequence)
    with pytest.raises(error) as got:
        build_pack_store(io.StringIO(text), str(tmp_path / "s"))
    assert str(got.value) == str(want.value)
    assert store_files(tmp_path / "s") == []


def test_finalize_holds_one_fragment_at_a_time(tmp_path, monkeypatch):
    """Each fragment's staging is dropped before the next one is
    gathered, so the build's memory is one fragment whatever the
    count."""
    staged = []
    real = diskpack._gather

    def spy(f, src, sizes, dst, out):
        if isinstance(out, np.ndarray):
            assert all(ref() is None for ref in staged), \
                "two fragments staged at once"
            staged.append(weakref.ref(out))
        return real(f, src, sizes, dst, out)

    monkeypatch.setattr(diskpack, "_gather", spy)
    db = random_nt_db(np.random.default_rng(8), 40)
    build_pack_store(db, str(tmp_path / "s"), n_fragments=4)
    assert len(staged) == 4


#: The tracemalloc peak of ``build_pack_store`` from the 4 M-residue
#: corpus FASTA into 4 fragments, as the per-line, per-record builder
#: this one replaced measured it (numpy 2.4, Python 3.11).
_PER_RECORD_BUILD_PEAK = 2.16e6


def test_build_peak_memory_stays_one_fragment(tmp_path):
    """Blocks stay small and nothing per residue is wider than a byte:
    the build's traced peak at the benchmark's corpus size is at most
    1.5x the per-record builder's (one fragment staged, one block of
    text)."""
    from repro.workloads.synthdb import synthetic_nt_db
    db = synthetic_nt_db(4_000_000, seed=1)
    fasta = tmp_path / "c.fasta"
    with open(fasta, "w") as f:
        for i in range(len(db)):
            f.write(f">{db.description(i)}\n{db.sequence_str(i)}\n")
    del db
    tracemalloc.start()
    try:
        build_pack_store(str(fasta), str(tmp_path / "s"), n_fragments=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * _PER_RECORD_BUILD_PEAK, peak


# ----------------------------------------------------------------------
# Format stability: a store written by an earlier commit stays readable
# ----------------------------------------------------------------------
GOLDEN = os.path.join(os.path.dirname(__file__), "data")


def _golden_records():
    with open(os.path.join(GOLDEN, "golden.fasta")) as f:
        return list(iter_fasta(f))


def test_golden_store_opens_verifies_and_searches():
    """``tests/data/golden_store`` was written by ``build_pack_store``
    (from ``golden.fasta``) at the commit that made the format version
    5; it must open, verify, report the identity recorded then and
    render the search bytes recorded for the version-1 store."""
    with open(os.path.join(GOLDEN, "golden_store.expected.json")) as f:
        expected = json.load(f)
    (tag, store_id), version, fragment_id = expected["identity"]
    store = PackStore.open(os.path.join(GOLDEN, "golden_store"))
    assert store.verify() == 1
    (pack,) = store.open_packs()
    records = _golden_records()
    try:
        assert pack.identity == ((tag, store_id), version, fragment_id)
        assert sorted(pack.spec.source_ids) == list(range(len(records)))
        pdb = PackDB(pack)
        for i, gid in enumerate(pack.spec.source_ids):
            assert pdb.description(i) == records[gid].description
            assert np.array_equal(pdb.sequence(i),
                                  encode_dna(records[gid].sequence))
        del pdb
    finally:
        pack.close()
    got = search_store(encode_dna(expected["query"]), store,
                       NucleotideScore(), SearchParams(word_size=11),
                       query_id="gq")
    assert got.tabular() == expected["tabular"]


def test_write_pack_is_byte_identical_to_the_golden_pack(tmp_path):
    """``write_pack`` on the golden inputs reproduces the golden file
    bit for bit: header key order, number formatting, padding and the
    data region are all part of the committed format.  The records go in
    in the order the store's binning put them in its one pack."""
    store = PackStore.open(os.path.join(GOLDEN, "golden_store"))
    (pack,) = store.open_packs()
    order = list(pack.spec.source_ids)
    pack.close()
    records = _golden_records()
    db = SequenceDB(NT)
    for gid in order:
        db.add(records[gid].description, records[gid].sequence)
    path = str(tmp_path / "again.rpk")
    write_pack(path, build_scan_structures(db, store.k, store.base),
               [db.description(i) for i in range(len(db))], seqtype=NT,
               store_id=store.store_id, version=0, fragment_id=0,
               source_ids=order)
    with open(path, "rb") as ours, \
            open(store.pack_path(store.packs[0]), "rb") as golden:
        assert ours.read() == golden.read()


def _assert_refused_before_any_search(old, version, capsys, tmp_path):
    said = (rf"version {version} .*reads version {FORMAT_VERSION}.*"
            r"repro packdb build")
    with pytest.raises(PackFormatError, match=said):
        PackStore.open(old)
    with pytest.raises(PackFormatError, match=said):
        DiskPack(os.path.join(old, "golden.000.rpk"))
    query = tmp_path / "q.fasta"
    query.write_text(">gq\nCCGGTCATCACAACATTCGCCAGATACAGC\n")
    assert main(["blastn", "-d", old, "-i", str(query)]) == EXIT_INTEGRITY
    out, err = capsys.readouterr()
    assert out == "" and re.search(said, err)


def test_version_1_golden_store_is_refused_before_any_search(capsys,
                                                              tmp_path):
    """One format, one reader: a store an earlier format version wrote
    is refused on every way in — typed, naming both versions and the
    rebuild command — and never half-read."""
    _assert_refused_before_any_search(
        os.path.join(GOLDEN, "golden_store_v1"), 1, capsys, tmp_path)


def test_version_2_golden_store_is_refused_before_any_search(capsys,
                                                              tmp_path):
    """The store with a word-code section, kept from the commit before
    format 3, gets the same refusal."""
    _assert_refused_before_any_search(
        os.path.join(GOLDEN, "golden_store_v2"), 2, capsys, tmp_path)


def test_version_3_golden_store_is_refused_before_any_search(capsys,
                                                              tmp_path):
    """The store with one byte per nucleotide, kept from the commit
    before format 4, gets the same refusal."""
    _assert_refused_before_any_search(
        os.path.join(GOLDEN, "golden_store_v3"), 3, capsys, tmp_path)


def test_version_4_golden_store_is_refused_before_any_search(capsys,
                                                              tmp_path):
    """The store whose header lists every sequence's global id, kept
    from the commit before format 5, gets the same refusal."""
    _assert_refused_before_any_search(
        os.path.join(GOLDEN, "golden_store_v4"), 4, capsys, tmp_path)


# ----------------------------------------------------------------------
# One pack on three carriers: shm, disk, wire — same bytes, one spec
# ----------------------------------------------------------------------
def _records(letters):
    return st.lists(st.tuples(st.text(max_size=12),
                              st.text(alphabet=letters, min_size=1,
                                      max_size=60)),
                    min_size=1, max_size=5)


class _AlwaysCorrupt:
    """An injector whose ``corrupt_pack`` fault always fires."""

    def on_attach(self, fragment_id):
        return object()


def _through_the_wire(spec):
    """Ship *spec*'s pack the way ``NodeClient.ship`` does and return
    the ``publish`` message a node's holder is handed."""
    ours, theirs = socket.socketpair()
    master = FrameConnection(ours, name="master")
    node = FrameConnection(theirs, name="node")
    try:
        master.send(("publish", spec, read_pack_bytes(spec)))
        return node.recv()
    finally:
        master.close()
        node.close()


@settings(max_examples=25, deadline=None)
@given(case=st.one_of(
    st.tuples(st.just(NT), _records("ACGT")),
    st.tuples(st.just(AA), _records("".join(AA_LETTERS)))))
@example(case=(NT, [("", "ACGTACGTACGTACG")]))      # zero-length hdr_blob
@example(case=(AA, [("", "MKV"), ("only", "A")]))
def test_disk_layout_matches_shm_layout(case):
    """The whole point of the format: a shm segment, a pack file's data
    region and the bytes a node receives are the same bytes under the
    same descriptor — same sections, offsets and CRCs, only ``name`` /
    ``offset`` / ``cache_token`` say where the pack lives — so a store
    is mapped as it lies and shipping is one memcpy, no re-encode; and
    the one corruption locator damages checksummed payload on every
    carrier."""
    seqtype, records = case
    k, base = (11, len(DNA)) if seqtype == NT else (3, len(PROTEIN))
    db = SequenceDB(seqtype)
    for desc, seq in records:
        db.add(desc, seq)
    structs = build_scan_structures(db, k, base)
    descriptions = [d for d, _s in records]

    def portable(spec):
        return dataclasses.replace(spec, name="", cache_token=(), offset=0)

    registry = ShmRegistry()
    holder, faulty = TokenPacks("prop"), TokenPacks("prop-faulty")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "frag.rpk")
        write_pack(path, structs, descriptions, seqtype=seqtype,
                   store_id="sid", version=0, fragment_id=0,
                   source_ids=range(len(db)))
        spec = create_pack(structs, descriptions, seqtype, ("tok", 0, 0),
                           fragment_id=0, registry=registry)
        try:
            msg = _through_the_wire(spec)
            holder.verbs["publish"](msg, None)
            landed = holder._store[spec.cache_token][0].spec
            # A node maps a pack it holds once: the page a task touches
            # through a second mapping is resident a second time.
            with open("/proc/self/maps") as maps:
                assert maps.read().count(landed.name) == 1
            with DiskPack(path) as pack:
                assert [f for f, _ in pack.spec.checksums] == list(_FIELDS)
                assert portable(pack.spec) == portable(spec) \
                    == portable(msg[1]) == portable(landed)
                assert landed.cache_token == spec.cache_token
                assert landed.name != spec.name
                assert bytes(pack.data) == read_pack_bytes(spec) \
                    == msg[2] == read_pack_bytes(landed)
                pdb = PackDB(pack)
                for i, (desc, seq) in enumerate(records):
                    assert pdb.description(i) == desc
                    assert len(pdb.sequence(i)) == len(seq)

            # The locator: every flipped byte is inside the field it
            # names, i.e. on bytes some CRC32 covers.
            damaged = bytearray(msg[2])
            with PackView(spec, damaged) as view:
                field = view.corrupt()
            off, nbytes = next(
                (o, int(np.prod(shape)) * np.dtype(dtype).itemsize)
                for f, dtype, shape, o in spec.arrays if f == field)
            flipped = [i for i, (x, y) in enumerate(zip(damaged, msg[2]))
                       if x != y]
            assert flipped and off <= flipped[0] \
                and flipped[-1] < off + nbytes
            # ... and on each carrier the damage is a typed error.
            assert corrupt_segment(spec) == field
            with pytest.raises(PackIntegrityError, match=field):
                AttachedPack(spec)
            assert corrupt_pack_file(path) == field
            with pytest.raises(PackIntegrityError, match=field):
                DiskPack(path)
            with pytest.raises(PackIntegrityError, match=field):
                faulty.verbs["publish"](msg, _AlwaysCorrupt())
            assert not faulty.held_tokens()
        finally:
            holder.close()
            faulty.close()
            registry.release(spec.name)


#: FASTA residues as found in the wild: IUPAC codes (encoded as A) and
#: lowercase next to the four bases.
_FASTA_NT = "ACGTacgtNRYSWKMBDHVnrywkmbdhv"


@st.composite
def _two_bit_case(draw):
    """``(sequences, query text)``: 0-40 sequences of 0-37 residues, so
    every length mod 4, empty and one-residue sequences all occur and a
    sequence starts at every byte lane; the query holds a few of them
    whole between random flanks, so their first and last windows are
    hits."""
    seqs = draw(st.lists(st.text(alphabet=_FASTA_NT, max_size=37),
                         max_size=40))
    picks = draw(st.lists(st.integers(0, max(len(seqs) - 1, 0)),
                          max_size=3)) if seqs else []
    flank = st.text(alphabet="ACGT", min_size=8, max_size=20)
    query = draw(flank) + "".join(seqs[i] + draw(flank) for i in picks)
    return seqs, query


def _assert_reads_the_one_byte_layout(structs, encoded, query):
    """*structs* reads back *encoded* (the one-byte codes of each
    record) at every flat position and per subject, and its scan finds
    the dense ``codes`` / ``code_pos`` definition's hits at word sizes
    11 and 12 (the packed scan) and 7 and 16 (the dense one)."""
    flat = np.zeros(len(structs.scat), dtype=np.uint8)
    for i, seq in enumerate(encoded):
        assert np.array_equal(structs.subject(i), seq)
        flat[structs.starts[i]:structs.starts[i] + len(seq)] = seq
    assert np.array_equal(structs.scat.take(np.arange(len(flat))), flat)
    assert np.array_equal(structs.scat[0:len(flat)], flat)
    for k in (11, 12, 7, 16):
        probe = dataclasses.replace(structs, k=k)
        batch = QueryBatch([WordIndex.for_dna(query, k),
                            WordIndex.for_dna(reverse_complement(query), k)])
        assert batch.step == (4 if k in (11, 12) else 1)
        sids, local, _eids, _qpos = batch.scan(probe)
        dense = probe.code_pos[np.isin(probe.codes, batch.unique_codes)]
        assert np.array_equal(np.unique(structs.starts[sids] + local),
                              dense)


@settings(max_examples=60, deadline=None)
@given(case=_two_bit_case())
@example(case=([], "ACGTACGTACGTACGTAC"))                      # no records
@example(case=(["C", "", "nacgtRYacgtacgtAC"], "ACGTACGTACGTACGT"))
def test_two_bit_layout_reads_back_on_every_carrier(case):
    """A nucleotide pack stores 2 bits per residue, and every carrier
    reads back what one byte per residue held: built in RAM, written to
    and mapped from an ``.rpk`` file, published to shm and attached, and
    shipped to a node as a payload and republished there.  The records
    come from FASTA; an empty one, which FASTA cannot hold, is added
    raw."""
    seqs, query_text = case
    fasta = "".join(f">r{i} {s}\n{s}\n" for i, s in enumerate(seqs) if s)
    parsed = iter(iter_fasta(io.StringIO(fasta)))
    records = [next(parsed) if s else FastaRecord(f"r{i}", "")
               for i, s in enumerate(seqs)]
    encoded = [encode_dna(r.sequence) for r in records]
    db = SequenceDB(NT)
    for rec, seq in zip(records, encoded):
        db._seqs.append(seq)
        db._descriptions.append(rec.description)
        db._residues += len(seq)
    query = encode_dna(query_text)
    structs = build_scan_structures(db, 11, len(DNA))
    n_flat = db.total_residues + max(len(db) - 1, 0)
    assert len(structs.residues) == -(-n_flat // 4) + 3
    _assert_reads_the_one_byte_layout(structs, encoded, query)

    descriptions = [r.description for r in records]
    registry = ShmRegistry()
    holder = TokenPacks("layout")
    spec = create_pack(structs, descriptions, NT, ("layout", 0, 0),
                       fragment_id=0, registry=registry)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "frag.rpk")
            write_pack(path, structs, descriptions, seqtype=NT,
                       store_id="sid", version=0, fragment_id=0,
                       source_ids=range(len(db)))
            with DiskPack(path) as pack:
                _assert_reads_the_one_byte_layout(pack.structs, encoded,
                                                  query)
        with AttachedPack(spec) as pack:
            _assert_reads_the_one_byte_layout(pack.structs, encoded, query)
        holder.verbs["publish"](_through_the_wire(spec), None)
        (shipped, _pdb), = holder._store.values()
        _assert_reads_the_one_byte_layout(shipped.structs, encoded, query)
    finally:
        holder.close()
        registry.release(spec.name)


def test_diskpack_feeds_scan_engine_directly(tmp_path):
    """PackDB over a mapping is a first-class scan database: the search
    engine consumes its pre-built structures without touching the
    ScanCache."""
    rng = np.random.default_rng(31)
    db = random_nt_db(rng, 8)
    structs = build_scan_structures(db, 11, 4)
    descriptions = [db.description(i) for i in range(len(db))]
    path = str(tmp_path / "frag.rpk")
    write_pack(path, structs, descriptions, seqtype=NT, store_id="sid",
               version=0, fragment_id=0, source_ids=range(len(db)))
    params = SearchParams(word_size=11)
    q = db.sequence(2)[:100].copy()
    with DiskPack(path) as pack:
        pdb = PackDB(pack)
        assert pdb.scan_structures(11, 4) is pack.structs
        assert pdb.scan_structures(28, 4) is pack.structs   # any k
        assert pdb.scan_structures(11, len(PROTEIN)) is None
        got = search(q, pdb, NucleotideScore(), params, query_id="q")
        del pdb
    want = search(q, db, NucleotideScore(), params, query_id="q")

    def no_frag(d):
        head, hits = d[:4], d[4]
        return head, [(s, desc, sl, [h for h in hsps])
                      for s, desc, sl, _frag, hsps in hits]
    # The PackDB path tags hits with its fragment id; everything else
    # — ids, order, scores, alignments — must be byte-identical.
    assert no_frag(dump(got)) == no_frag(dump(want))


# ----------------------------------------------------------------------
# Pool cold start from disk
# ----------------------------------------------------------------------
def test_pool_cold_start_matches_serial(tmp_path):
    rng = np.random.default_rng(41)
    db = random_nt_db(rng, 18)
    store = build_pack_store(db, str(tmp_path / "store"), seqtype=NT,
                             n_fragments=4)
    params = SearchParams(word_size=11)
    scheme = NucleotideScore()
    queries = [db.sequence(i)[:120].copy() for i in (1, 9)]
    with ExecPool(jobs=2) as pool:
        for qi, q in enumerate(queries):
            par = pool.search(q, store, scheme, params, query_id=f"q{qi}")
            ser = search(q, db, scheme, params, query_id=f"q{qi}")
            assert dump(par) == dump(ser)
        assert open_pack_count() == 0, \
            "cold start must close every mapping once it is verified"


def test_store_backed_pool_publishes_no_segment(tmp_path):
    """Local agents map the store's files where they lie: while a
    store-backed pool is open after a search, this process tree holds
    no shared-memory pack, and the agents hold the files mapped."""
    rng = np.random.default_rng(44)
    db = random_nt_db(rng, 16)
    store = build_pack_store(db, str(tmp_path / "store"), seqtype=NT,
                             n_fragments=3)
    q = db.sequence(5)[:100].copy()
    params = SearchParams(word_size=11)
    with ExecPool(jobs=2) as pool:
        got = pool.search(q, store, NucleotideScore(), params, query_id="q")
        assert own_segments() == []
        for pid in pool.worker_pids().values():
            with open(f"/proc/{pid}/maps") as maps:
                mapped = maps.read()
            assert all(store.pack_path(e) in mapped for e in store.packs)
    want = search(q, db, NucleotideScore(), params, query_id="q")
    assert dump(got) == dump(want)


def test_pack_corrupted_between_open_and_map_is_refused(tmp_path):
    """The master verifies every pack before its first task, and each
    agent verifies its own mapping: a file damaged after the master's
    open and before the agents map it fails the run with a typed
    integrity error, and no result comes back."""
    rng = np.random.default_rng(45)
    db = random_nt_db(rng, 12)
    store = build_pack_store(db, str(tmp_path / "store"), seqtype=NT,
                             n_fragments=3)
    q = db.sequence(2)[:90].copy()
    with ExecPool(jobs=2) as pool:
        install = pool._install_prepared

        def damage_then_install(key, specs, ids):
            corrupt_pack_file(specs[1].name, "residues")
            return install(key, specs, ids)

        pool._install_prepared = damage_then_install
        with pytest.raises(PackIntegrityError, match="residues"):
            pool.search(q, store, NucleotideScore(),
                        SearchParams(word_size=11))
    assert open_pack_count() == 0


def test_torn_mapping_fault_leaves_the_store_intact(tmp_path):
    """The ``corrupt_pack`` fault scribbles an agent's own copy-on-write
    view of a store file: the run fails typed, and the store on disk
    still verifies and serves."""
    from repro.exec.faults import Fault, FaultPlan

    rng = np.random.default_rng(46)
    db = random_nt_db(rng, 12)
    store = build_pack_store(db, str(tmp_path / "store"), seqtype=NT,
                             n_fragments=2)
    q = db.sequence(4)[:90].copy()
    params = SearchParams(word_size=11)
    plan = FaultPlan(faults=(Fault(kind="corrupt_pack", fragment=1),))
    with ExecPool(jobs=2, fault_plan=plan) as pool:
        with pytest.raises(PackIntegrityError):
            pool.search(q, store, NucleotideScore(), params)
    assert store.verify() == 2
    assert dump(search_store(q, store, NucleotideScore(), params)) == \
        dump(search(q, db, NucleotideScore(), params))


def test_store_rebuilt_between_searches_is_mapped_again(tmp_path):
    """A store rebuilt in place reuses its pack files' paths, which name
    the packs on the agents: the second search maps the new files and
    serves their records, and the replaced store's handle is refused,
    never answered from the new bytes."""
    rng = np.random.default_rng(47)
    first, second = random_nt_db(rng, 14), random_nt_db(rng, 14)
    directory = str(tmp_path / "store")
    params = SearchParams(word_size=11)
    scheme = NucleotideScore()
    q = second.sequence(6)[:100].copy()
    with ExecPool(jobs=2) as pool:
        old = build_pack_store(first, directory, seqtype=NT, n_fragments=3)
        assert dump(pool.search(q, old, scheme, params)) == \
            dump(search(q, first, scheme, params))
        new = build_pack_store(second, directory, seqtype=NT, n_fragments=3)
        assert new._scan_token != old._scan_token
        got = pool.search(q, new, scheme, params)
        assert got.hits
        assert dump(got) == dump(search(q, second, scheme, params))
        assert len(pool._prepared) == 1
        with pytest.raises(PackIntegrityError, match="identity"):
            pool.search(q, old, scheme, params)
        assert dump(pool.search(q, new, scheme, params)) == dump(got)


def test_degraded_pool_opens_each_pack_once_for_the_batch(tmp_path,
                                                          monkeypatch):
    """The serial rescue over a store is one batch: the store is opened
    (and CRC-verified) once for all the queries, not once per query."""
    rng = np.random.default_rng(42)
    db = random_nt_db(rng, 18)
    store = build_pack_store(db, str(tmp_path / "store"), seqtype=NT,
                             n_fragments=3)
    params = SearchParams(word_size=11)
    scheme = NucleotideScore()
    queries = [db.sequence(i)[:120].copy() for i in (1, 9, 14)]
    qids = [f"q{i}" for i in range(3)]
    opened = []
    real_init = DiskPack.__init__

    def counting_init(self, path, *args, **kwargs):
        opened.append(os.path.basename(path))
        real_init(self, path, *args, **kwargs)

    monkeypatch.setattr(DiskPack, "__init__", counting_init)
    # No listener on this port: the pool collapses at start and the
    # whole batch is served by the serial rescue.
    s = socket.socket()
    s.bind(("127.0.0.1", 0))
    addr = s.getsockname()[:2]
    s.close()
    monkeypatch.setattr("repro.exec.pool._NODE_CONNECT_ATTEMPTS", 1)
    pool = ExecPool(jobs=0, nodes=[addr])
    try:
        with pytest.warns(RuntimeWarning):
            got = pool.search_many(queries, store, scheme, params,
                                   query_ids=qids)
        assert pool.last_stats.fallback
    finally:
        pool.close()
    assert sorted(opened) == sorted(e.file for e in store.packs)
    for q, qid, res in zip(queries, qids, got):
        assert dump(res) == dump(search(q, db, scheme, params, query_id=qid))
        assert res.tabular() == search(q, db, scheme, params,
                                       query_id=qid).tabular()


def test_one_store_serves_every_word_size(tmp_path):
    """A pack is ``residues`` + ``starts`` + ``lengths``: nothing in it
    depends on the word size it was built at, so a store built at 11
    answers 7, 11 and 28 (TUTORIAL §5's megablast recipe) like the
    in-RAM database — serially and through the pool, which publishes
    the packs once for all three."""
    rng = np.random.default_rng(43)
    db = random_nt_db(rng, 10)
    store = build_pack_store(db, str(tmp_path / "store"), seqtype=NT,
                             n_fragments=2, word_size=11)
    assert store.k == 11
    scheme = NucleotideScore()
    q = max((db.sequence(i) for i in range(len(db))), key=len)[:120].copy()
    with ExecPool(jobs=1) as pool:
        for k in (7, 11, 28):
            params = SearchParams(word_size=k)
            want = search(q, db, scheme, params)
            assert want.hits
            assert dump(search_store(q, store, scheme, params)) == dump(want)
            assert dump(pool.search(q, store, scheme, params)) == dump(want)
        assert len(pool._prepared) == 1


def test_protein_store_refuses_a_nucleotide_search(tmp_path, capsys):
    """The alphabet still matters: the CLI refuses on ``seqtype``
    (usage error), the pool on ``base``."""
    rng = np.random.default_rng(44)
    db = random_aa_db(rng, 6)
    store = build_pack_store(db, str(tmp_path / "store"), seqtype=AA,
                             n_fragments=2)
    query = tmp_path / "q.fasta"
    query.write_text(">q\n" + "ACGT" * 20 + "\n")
    assert main(["blastn", "-d", store.directory, "-i", str(query)]) == 2
    assert "needs a nt pack store" in capsys.readouterr().err
    with ExecPool(jobs=1) as pool:
        with pytest.raises(ValueError, match="base"):
            pool._prepare(store, 11, len(DNA), None)


# ----------------------------------------------------------------------
# Format negotiation and truncation
# ----------------------------------------------------------------------
def one_pack_file(tmp_path, seed=3, n=8):
    rng = np.random.default_rng(seed)
    db = random_nt_db(rng, n)
    store = build_pack_store(db, str(tmp_path / "store"), seqtype=NT,
                             n_fragments=1)
    return store.pack_path(store.packs[0]), db, store


def test_bad_magic_rejected(tmp_path):
    path, _db, _store = one_pack_file(tmp_path)
    corrupt_pack_file(path, "preamble")
    with pytest.raises(PackFormatError, match="magic"):
        DiskPack(path)
    assert open_pack_count() == 0


def test_unsupported_format_version_rejected(tmp_path):
    path, _db, _store = one_pack_file(tmp_path)
    with open(path, "r+b") as f:
        f.seek(len(MAGIC))
        f.write(struct.pack("<I", FORMAT_VERSION + 1))
    with pytest.raises(PackFormatError, match="version"):
        DiskPack(path)


@pytest.mark.parametrize("keep", [4, 20, 200])
def test_truncated_file_rejected(tmp_path, keep):
    """Cut the file inside the preamble, the header, and the data
    region; every cut is detected before any view is handed out."""
    path, _db, _store = one_pack_file(tmp_path)
    data = open(path, "rb").read()
    open(path, "wb").write(data[:keep])
    with pytest.raises(PackIntegrityError):
        DiskPack(path)
    open(path, "wb").write(data[:-100])
    with pytest.raises(PackIntegrityError, match="truncated"):
        DiskPack(path)


# ----------------------------------------------------------------------
# Corruption matrix: every section, typed error, never a wrong answer
# ----------------------------------------------------------------------
@pytest.mark.parametrize("field", list(_FIELDS) + ["preamble", "header"])
def test_corruption_detected_per_section(tmp_path, field):
    path, _db, store = one_pack_file(tmp_path, seed=9, n=10)
    corrupt_pack_file(path, field)
    with pytest.raises(PackIntegrityError):
        DiskPack(path)
    # The store-level surfaces refuse too — verify, serial search, pool.
    with pytest.raises(PackIntegrityError):
        store.verify()
    from repro.blast.alphabet import encode_dna
    q = encode_dna("ACGTACGTACGTACGTACGT")
    with pytest.raises(PackIntegrityError):
        search_store(q, store, NucleotideScore(), SearchParams(word_size=11))
    assert open_pack_count() == 0


def test_pool_refuses_corrupt_store_before_any_result(tmp_path):
    rng = np.random.default_rng(51)
    db = random_nt_db(rng, 10)
    store = build_pack_store(db, str(tmp_path / "store"), seqtype=NT,
                             n_fragments=3)
    corrupt_pack_file(store.pack_path(store.packs[1]))
    q = db.sequence(0)[:80].copy()
    with ExecPool(jobs=2) as pool:
        with pytest.raises(PackIntegrityError):
            pool.search(q, store, NucleotideScore(), SearchParams(word_size=11))
    assert open_pack_count() == 0


def test_swapped_pack_files_rejected(tmp_path):
    """Two structurally valid packs in each other's places: each file's
    recorded identity disagrees with the manifest entry naming it."""
    rng = np.random.default_rng(53)
    db = random_nt_db(rng, 14)
    store = build_pack_store(db, str(tmp_path / "store"), seqtype=NT,
                             n_fragments=2)
    a = store.pack_path(store.packs[0])
    b = store.pack_path(store.packs[1])
    tmp = a + ".swap"
    os.rename(a, tmp)
    os.rename(b, a)
    os.rename(tmp, b)
    with pytest.raises(PackIntegrityError, match="identity"):
        store.open_packs()
    assert open_pack_count() == 0


def test_manifest_missing_bad_json_and_future_version(tmp_path):
    with pytest.raises(PackFormatError, match="manifest"):
        PackStore.open(str(tmp_path))
    manifest = tmp_path / MANIFEST_NAME
    manifest.write_text("{not json")
    with pytest.raises(PackFormatError, match="unreadable"):
        PackStore.open(str(tmp_path))
    manifest.write_text(json.dumps({"format_version": FORMAT_VERSION + 7}))
    with pytest.raises(PackFormatError, match="version"):
        PackStore.open(str(tmp_path))


# ----------------------------------------------------------------------
# Crash mid-build: atomicity of the commit protocol
# ----------------------------------------------------------------------
_BUILD_SCRIPT = """\
import sys
import numpy as np
from repro.blast.seqdb import NT, SequenceDB
from repro.exec.diskpack import build_pack_store

rng = np.random.default_rng(61)
letters = np.array(list("ACGT"))
db = SequenceDB(NT)
for i in range(16):
    n = int(rng.integers(30, 200))
    db.add(f"s{i}", "".join(letters[rng.integers(0, 4, n)]))
build_pack_store(db, sys.argv[1], seqtype=NT, n_fragments=3)
print("committed")
"""


def _run_build(directory, env_extra=None):
    env = dict(os.environ, PYTHONPATH="src")
    env.update(env_extra or {})
    return subprocess.run(
        [sys.executable, "-c", _BUILD_SCRIPT, directory],
        env=env, cwd=os.path.dirname(os.path.dirname(__file__)) or ".",
        capture_output=True, text=True)


@pytest.mark.parametrize("env_extra,desc", [
    ({"REPRO_DISKPACK_CRASH_AFTER_SECTIONS": "3"}, "mid-section-write"),
    ({"REPRO_DISKPACK_CRASH_BEFORE_MANIFEST": "1"}, "before-manifest"),
])
def test_crash_mid_build_leaves_no_readable_pack(tmp_path, env_extra, desc):
    d = str(tmp_path / "store")
    proc = _run_build(d, env_extra)
    assert proc.returncode == 86, (desc, proc.stdout, proc.stderr)
    # Nothing committed: no manifest, and no finished .rpk a reader
    # would trust without one.
    assert not os.path.exists(os.path.join(d, MANIFEST_NAME))
    with pytest.raises(PackFormatError, match="manifest"):
        PackStore.open(d)
    # A clean rebuild over the wreckage succeeds and sweeps it.
    proc = _run_build(d)
    assert proc.returncode == 0, proc.stderr
    assert "committed" in proc.stdout
    leftovers = [f for f in store_files(d)
                 if f.startswith(BUILD_DIR_PREFIX) or f.endswith(".tmp")]
    assert leftovers == []
    store = PackStore.open(d)
    assert store.verify() == len(store.packs)
    assert len(store) == 16


def test_builder_abort_on_exception_cleans_spools(tmp_path):
    d = str(tmp_path / "store")
    with pytest.raises(RuntimeError):
        with PackStoreBuilder(d, seqtype=NT, n_fragments=2) as b:
            b.add("s0", "ACGTACGTACGTACGT")
            raise RuntimeError("caller blew up mid-build")
    assert not os.path.exists(os.path.join(d, MANIFEST_NAME))
    assert [f for f in store_files(d) if f.startswith(BUILD_DIR_PREFIX)] == []
    assert sweep_build_leftovers(d) == []


# ----------------------------------------------------------------------
# CLI: packdb build / info / verify and blastall -d
# ----------------------------------------------------------------------
@pytest.fixture
def cli_corpus(tmp_path):
    rng = np.random.default_rng(0)
    target = "".join(rng.choice(list("ACGT"), 500))
    fasta = tmp_path / "seqs.fasta"
    fasta.write_text(f">s1 target\n{target}\n>s2 decoy\n"
                     + "".join(rng.choice(list("ACGT"), 400)) + "\n")
    query = tmp_path / "query.fasta"
    query.write_text(f">q1\n{target[100:250]}\n")
    return str(fasta), str(query), str(tmp_path)


def test_cli_packdb_build_info_verify(cli_corpus, capsys):
    fasta, _query, d = cli_corpus
    out_dir = os.path.join(d, "store")
    assert main(["packdb", "build", "-i", fasta, "-o", out_dir,
                 "--fragments", "2"]) == 0
    out = capsys.readouterr().out
    assert "2 sequences" in out
    assert main(["packdb", "info", out_dir]) == 0
    out = capsys.readouterr().out
    assert "fragment" in out.lower()
    assert main(["packdb", "verify", out_dir]) == 0
    capsys.readouterr()
    # The input is FASTA, and it is required.
    with pytest.raises(SystemExit):
        main(["packdb", "build", "-o", out_dir + "2"])
    capsys.readouterr()


def test_cli_packdb_verify_exit_code_on_corruption(cli_corpus, capsys):
    fasta, _query, d = cli_corpus
    out_dir = os.path.join(d, "store")
    main(["packdb", "build", "-i", fasta, "-o", out_dir,
          "--fragments", "1"])
    capsys.readouterr()
    store = PackStore.open(out_dir)
    corrupt_pack_file(store.pack_path(store.packs[0]))
    assert main(["packdb", "verify", out_dir]) == EXIT_INTEGRITY
    # ``info`` reads the manifest only; checking the bytes is ``verify``.
    assert main(["packdb", "info", out_dir]) == 0
    with pytest.raises(SystemExit):
        main(["packdb", "info", out_dir, "--verify"])
    capsys.readouterr()


def test_cli_blastall_store_matches_ram_path(cli_corpus, capsys):
    """``-d`` prints what the library's in-RAM search of the same
    records prints, serially and on two workers."""
    from repro.blast.programs import blastall, program_defaults

    fasta, query, d = cli_corpus
    out_dir = os.path.join(d, "store")
    main(["packdb", "build", "-i", fasta, "-o", out_dir,
          "--fragments", "2"])
    capsys.readouterr()
    with open(fasta) as f:
        db = SequenceDB.from_fasta_text(f.read())
    with open(query) as f:
        rec = next(iter_fasta(f))
    ram = blastall("blastn", rec.sequence, db,
                   params=program_defaults("blastn")[1],
                   query_id=rec.id).report(max_hits=25) + "\n\n"
    assert main(["blastall", "-p", "blastn", "-d", out_dir,
                 "-i", query]) == 0
    disk = capsys.readouterr().out
    assert main(["blastall", "-p", "blastn", "-d", out_dir,
                 "-i", query, "--jobs", "2"]) == 0
    disk_par = capsys.readouterr().out
    assert "s1 target" in ram
    assert disk == ram
    assert disk_par == ram


def test_cli_blastall_store_usage_and_integrity(cli_corpus, capsys):
    fasta, query, d = cli_corpus
    out_dir = os.path.join(d, "store")
    main(["packdb", "build", "-i", fasta, "-o", out_dir,
          "--fragments", "1"])
    capsys.readouterr()
    # The store is nt here; a protein program is a usage error.
    for program in ("blastp", "blastx"):
        assert main(["blastall", "-p", program, "-d", out_dir,
                     "-i", query]) == 2
    assert main(["psiblast", "-d", out_dir, "-i", query]) == 2
    capsys.readouterr()
    store = PackStore.open(out_dir)
    corrupt_pack_file(store.pack_path(store.packs[0]))
    for argv in (["blastall", "-p", "blastn"], ["blastall", "-p", "tblastx"],
                 ["blastn", "-a"], ["blastn", "--jobs", "2"]):
        assert main(argv + ["-d", out_dir, "-i", query]) == EXIT_INTEGRITY
        assert "pack integrity failure" in capsys.readouterr().err
    capsys.readouterr()
    assert open_pack_count() == 0
