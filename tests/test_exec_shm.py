"""Shared-memory fragment packs: layout round trip, PackDB surface,
registry lifetime discipline, and the /dev/shm leak invariant."""

import dataclasses
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.blast.alphabet import encode_dna
from repro.blast.scankernel import ScanCache, build_scan_structures, db_token
from repro.blast.search import SearchParams, search
from repro.blast.score import NucleotideScore
from repro.blast.seqdb import AA, NT, SequenceDB
from repro.exec.shm import (_ALIGN, _FIELDS, NAME_PREFIX, AttachedPack,
                            PackDB, PackIntegrityError, PackSpec,
                            ShmRegistry, corrupt_segment, create_pack,
                            default_registry, pack_fragment, pack_layout)

from conftest import own_segments

NT_LETTERS = np.array(list("ACGT"))
AA_LETTERS = np.array(list("ARNDCQEGHILKMFPSTWYV"))


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


pytestmark = pytest.mark.usefixtures("no_segment_leaks")


def test_pack_roundtrip_preserves_structures_and_headers():
    rng = np.random.default_rng(0)
    db = random_nt_db(rng, 20)
    registry = ShmRegistry()
    structs = build_scan_structures(db, 11, 4)
    spec = create_pack(structs, [db.description(i) for i in range(len(db))],
                       NT, cache_token=("t", 0, 0), fragment_id=0,
                       registry=registry)
    assert spec.name.startswith(NAME_PREFIX + "_")
    pack = AttachedPack(spec)
    try:
        for field in ("concat", "starts", "lengths"):
            np.testing.assert_array_equal(getattr(pack.structs, field),
                                          getattr(structs, field))
        pdb = PackDB(pack)
        assert len(pdb) == len(db)
        assert pdb.total_residues == db.total_residues
        assert pdb.lengths() == db.lengths()
        for i in range(len(db)):
            assert pdb.description(i) == db.description(i)
            np.testing.assert_array_equal(pdb.sequence(i), db.sequence(i))
        # Cached description path returns the same object.
        assert pdb.description(3) is pdb.description(3)
        assert list(pdb)[2][0] == db.description(2)
    finally:
        pack.close()
        assert registry.release(spec.name)


@pytest.mark.parametrize("make_db,k,base", [(random_nt_db, 11, 4),
                                            (random_aa_db, 3, 20)])
def test_a_pack_holds_nothing_derived_per_residue(make_db, k, base):
    """The invariant, not the number: a pack is the residues, the
    sentinels between them, three 8-byte entries per sequence (+ 1),
    the descriptions, and padding — so an array derived per residue
    (word codes, window positions) cannot come back unnoticed."""
    db = make_db(np.random.default_rng(21), 40)
    descriptions = [db.description(i) for i in range(len(db))]
    spec, _arrays = pack_layout(
        build_scan_structures(db, k, base), descriptions, name="",
        cache_token=(), seqtype=db.seqtype, fragment_id=0,
        source_ids=range(len(db)))
    assert spec.size <= (db.total_residues + len(db) - 1
                         + 8 * (3 * len(db) + 1)
                         + sum(len(d.encode()) for d in descriptions)
                         + len(_FIELDS) * (_ALIGN - 1))


def test_registry_unmap_drops_the_mapping_not_the_segment():
    def mapped(name):
        with open("/proc/self/maps") as f:
            return name in f.read()

    rng = np.random.default_rng(7)
    registry = ShmRegistry()
    spec = pack_fragment(random_nt_db(rng, 20), 11, 4,
                         cache_token=("t", 0, 0), registry=registry)
    try:
        assert mapped(spec.name)
        registry.unmap(spec.name)
        assert not mapped(spec.name) and spec.name in own_segments()
        with AttachedPack(spec):            # still there, still intact
            assert mapped(spec.name)
    finally:
        assert registry.release(spec.name)  # ... and still ours to unlink
    assert spec.name not in own_segments()


def test_packdb_serves_scan_search_identically():
    rng = np.random.default_rng(1)
    db = random_nt_db(rng, 25)
    query = db.sequence(4)[:90].copy()
    scheme = NucleotideScore()
    params = SearchParams(word_size=11)
    registry = ShmRegistry()
    spec = pack_fragment(db, 11, 4, cache_token=(db_token(db), 0, 0),
                         registry=registry)
    pack = AttachedPack(spec)
    try:
        pdb = PackDB(pack)
        cache = ScanCache()
        cache.put(pdb, 11, 4, pack.structs)
        got = search(query, pdb, scheme, params, scan_cache=cache)
        want = search(query, db, scheme, params)
        assert [h.subject_id for h in got.hits] == \
               [h.subject_id for h in want.hits]
        assert [h.description for h in got.hits] == \
               [h.description for h in want.hits]
    finally:
        pack.close()
        registry.release(spec.name)


def test_pack_fragment_records_source_ids():
    rng = np.random.default_rng(2)
    db = random_nt_db(rng, 12)
    sub = db.subset([7, 2, 9], name="frag", fragment_id=5)
    assert sub.source_ids == [7, 2, 9]
    assert sub.fragment_id == 5
    np.testing.assert_array_equal(sub.sequence(1), db.sequence(2))
    registry = ShmRegistry()
    spec = pack_fragment(sub, 11, 4, cache_token=("t", 0, 5),
                         registry=registry)
    try:
        assert spec.source_ids == (7, 2, 9)
        assert spec.fragment_id == 5
        assert spec.n_sequences == 3
    finally:
        registry.release(spec.name)


def test_protein_pack_roundtrip():
    rng = np.random.default_rng(3)
    db = random_aa_db(rng, 15)
    registry = ShmRegistry()
    spec = pack_fragment(db, 3, 20, cache_token=("p", 0, 0),
                         registry=registry)
    pack = AttachedPack(spec)
    try:
        pdb = PackDB(pack)
        assert pdb.seqtype == AA
        for i in range(len(db)):
            np.testing.assert_array_equal(pdb.sequence(i), db.sequence(i))
    finally:
        pack.close()
        registry.release(spec.name)


def test_registry_release_is_idempotent_and_unlinks():
    rng = np.random.default_rng(4)
    db = random_nt_db(rng, 5)
    registry = ShmRegistry()
    spec = pack_fragment(db, 11, 4, cache_token=("r", 0, 0),
                         registry=registry)
    assert spec.name in registry.names()
    assert os.path.exists(f"/dev/shm/{spec.name}")
    assert registry.release(spec.name) is True
    assert not os.path.exists(f"/dev/shm/{spec.name}")
    assert registry.release(spec.name) is False
    assert len(registry) == 0


def test_registry_release_all():
    rng = np.random.default_rng(5)
    db = random_nt_db(rng, 5)
    registry = ShmRegistry()
    for frag in range(3):
        pack_fragment(db, 11, 4, cache_token=("ra", 0, frag),
                      registry=registry)
    assert len(registry) == 3
    assert registry.release_all() == 3
    assert registry.release_all() == 0
    assert len(registry) == 0


def test_attach_after_unlink_fails():
    rng = np.random.default_rng(6)
    db = random_nt_db(rng, 4)
    registry = ShmRegistry()
    spec = pack_fragment(db, 11, 4, cache_token=("u", 0, 0),
                         registry=registry)
    registry.release(spec.name)
    with pytest.raises(FileNotFoundError):
        AttachedPack(spec)


def test_default_registry_is_per_process():
    reg = default_registry()
    assert default_registry() is reg
    assert reg._pid == os.getpid()


def test_pack_spec_carries_checksums_and_attach_verifies():
    rng = np.random.default_rng(7)
    db = random_nt_db(rng, 10)
    registry = ShmRegistry()
    spec = pack_fragment(db, 11, 4, cache_token=("crc", 0, 0),
                         registry=registry)
    try:
        assert spec.checksums, "publish must record per-field CRCs"
        fields = [f for f, _crc in spec.checksums]
        assert "concat" in fields and "starts" in fields
        pack = AttachedPack(spec)          # verifies on attach
        pack.verify()                      # and is re-verifiable
        pack.close()
    finally:
        registry.release(spec.name)


def test_spec_missing_a_checksum_fails_verification():
    """A spec that records no CRC32 for some field must not pass a
    verifying attach having verified less than the whole pack."""
    rng = np.random.default_rng(17)
    db = random_nt_db(rng, 6)
    registry = ShmRegistry()
    spec = pack_fragment(db, 11, 4, cache_token=("crc", 0, 3),
                         registry=registry)
    try:
        for keep in (spec.checksums[:-1], spec.checksums[1:], ()):
            short = dataclasses.replace(spec, checksums=keep)
            with pytest.raises(PackIntegrityError, match="none recorded"):
                AttachedPack(short)
            pack = AttachedPack(short, verify=False)
            with pytest.raises(PackIntegrityError):
                pack.verify()
            pack.close()
        with pytest.raises(TypeError):      # the field is required
            PackSpec(**{k: v for k, v in vars(spec).items()
                        if k != "checksums"})
    finally:
        registry.release(spec.name)


def test_corrupt_segment_fails_attach_with_typed_error():
    rng = np.random.default_rng(8)
    db = random_nt_db(rng, 10, min_len=50, max_len=200)
    registry = ShmRegistry()
    spec = pack_fragment(db, 11, 4, cache_token=("crc", 0, 1),
                         registry=registry)
    try:
        field = corrupt_segment(spec)
        with pytest.raises(PackIntegrityError, match="CRC32 mismatch"):
            AttachedPack(spec)
        # The error names the damaged field and the segment.
        with pytest.raises(PackIntegrityError, match=field):
            AttachedPack(spec)
        # An unverified attach still maps (forensics / tooling path)
        # and flags the damage when asked.
        pack = AttachedPack(spec, verify=False)
        with pytest.raises(PackIntegrityError):
            pack.verify()
        pack.close()
    finally:
        registry.release(spec.name)


def test_corrupt_segment_named_field():
    rng = np.random.default_rng(9)
    db = random_nt_db(rng, 8, min_len=50, max_len=200)
    registry = ShmRegistry()
    spec = pack_fragment(db, 11, 4, cache_token=("crc", 0, 2),
                         registry=registry)
    try:
        assert corrupt_segment(spec, field="starts") == "starts"
        with pytest.raises(PackIntegrityError, match="starts"):
            AttachedPack(spec)
    finally:
        registry.release(spec.name)


def test_empty_descriptions_and_single_sequence():
    db = SequenceDB(NT)
    db.add("", encode_dna("ACGTACGTACGTACG"))
    registry = ShmRegistry()
    spec = pack_fragment(db, 11, 4, cache_token=("e", 0, 0),
                         registry=registry)
    pack = AttachedPack(spec)
    try:
        pdb = PackDB(pack)
        assert pdb.description(0) == ""
        assert len(pdb) == 1
    finally:
        pack.close()
        registry.release(spec.name)


# A pool in a process that is not this one's descendant: the child
# starts it in a grandchild and exits, so the grandchild is re-parented
# away from this process.  The grandchild prints its pid and its
# segments once its packs are published, and keeps them until its
# stdin closes.
_FOREIGN_POOL = r"""
import os, subprocess, sys
if sys.argv[1] == "child":
    subprocess.Popen([sys.executable, "-c", sys.argv[2], "pool"])
    os._exit(0)
from repro.blast.score import NucleotideScore
from repro.blast.search import SearchParams
from repro.exec import ExecPool
from repro.workloads import synthetic_nt_db
db = synthetic_nt_db(20000, seed=2)
with ExecPool(jobs=2) as pool:
    pool.search(db.sequence(0)[:200].copy(), db, NucleotideScore(),
                SearchParams(word_size=11))
    mine = [n for n in os.listdir("/dev/shm")
            if n.startswith(f"repro_{os.getpid()}_")]
    print(os.getpid(), *mine, flush=True)
    sys.stdin.read()
"""


def test_leak_fixture_counts_this_process_tree_only():
    """``no_segment_leaks`` (tests/conftest.py) fails a test that leaves
    a segment of its own behind, and ignores the segments a live pool in
    another process holds meanwhile."""
    before = own_segments()
    registry = ShmRegistry()
    spec = pack_fragment(random_nt_db(np.random.default_rng(9), 10), 11, 4,
                         cache_token=("t", 0, 0), registry=registry)
    try:
        assert own_segments() == sorted(before + [spec.name])
    finally:
        registry.release_all()
    assert own_segments() == before

    child = subprocess.Popen(
        [sys.executable, "-c", _FOREIGN_POOL, "child", _FOREIGN_POOL],
        env=dict(os.environ, PYTHONPATH="src"),
        cwd=os.path.dirname(os.path.dirname(__file__)) or ".",
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    assert child.wait(timeout=60) == 0
    pid, *names = child.stdout.readline().split() or ["0"]
    try:
        assert names and all(os.path.exists(f"/dev/shm/{n}") for n in names)
        assert own_segments() == before
    finally:
        child.stdin.close()             # the grandchild closes its pool
        child.stdout.close()
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline and [
                n for n in os.listdir("/dev/shm")
                if n.startswith(f"repro_{pid}_")]:
            time.sleep(0.05)
    assert not [n for n in os.listdir("/dev/shm")
                if n.startswith(f"repro_{pid}_")]
