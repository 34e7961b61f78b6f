"""The concatenated-fragment scan kernel and its cache.

Covers exact equivalence of the library's search driver with the
per-sequence reference in ``tests/oracle_search.py`` (nt and protein,
both strands, randomized databases), the sentinel masking that keeps
windows from spanning sequence boundaries, degenerate databases
(short/empty/single sequences), the bounded LRU ScanCache, the batched
ungapped extension, and the vectorised within-row E scan of the gapped
aligner.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.blast import (ScanCache, SequenceDB, build_scan_structures,
                         default_scan_cache, scan_fragment)
from repro.blast.alphabet import (encode_dna, encode_protein,
                                  reverse_complement)
from repro.blast.kmer import WordIndex, word_codes
from repro.blast.score import BLOSUM62, NucleotideScore, ProteinScore
from repro.blast.search import SearchParams, search
from repro.blast.seqdb import AA, NT

from oracle_search import (batched_ungapped_extend, search_reference,
                           ungapped_extend, word_index_scan)

NT_LETTERS = np.array(list("ACGT"))
AA_LETTERS = np.array(list("ARNDCQEGHILKMFPSTWYV"))


def random_nt_db(rng, n_seqs, min_len=5, max_len=400):
    db = SequenceDB(NT)
    for i in range(n_seqs):
        length = int(rng.integers(min_len, max_len))
        db.add(f"s{i}", "".join(NT_LETTERS[rng.integers(0, 4, length)]))
    return db


def random_aa_db(rng, n_seqs, min_len=5, max_len=200):
    db = SequenceDB(AA)
    for i in range(n_seqs):
        length = int(rng.integers(min_len, max_len))
        db.add(f"p{i}", "".join(AA_LETTERS[rng.integers(0, 20, length)]))
    return db


def dump(results):
    return [(h.subject_id, h.subject_len,
             [dataclasses.astuple(p) for p in h.hsps])
            for h in results.hits]


# ---------------------------------------------------------------- structures

def test_structures_layout_and_codes_match_per_sequence():
    rng = np.random.default_rng(0)
    db = random_nt_db(rng, 17, min_len=3, max_len=120)
    k = 11
    structs = build_scan_structures(db, k, base=4)

    assert structs.n_sequences == len(db)
    assert structs.total_residues == db.total_residues
    # Layout: every sequence is recoverable from its slice, and the gap
    # between consecutive sequences is exactly one separator slot, which
    # the 2-bit section stores as 0 behind one zero byte and ahead of
    # two more.
    for i in range(len(db)):
        assert np.array_equal(structs.subject(i), db.sequence(i))
    starts, lengths = structs.starts, structs.lengths
    assert np.array_equal(starts[1:], starts[:-1] + lengths[:-1] + 1)
    n_flat = len(structs.scat)
    assert n_flat == structs.total_residues + len(db) - 1
    assert len(structs.residues) == -(-n_flat // 4) + 3
    assert not structs.scat.take(starts[1:] - 1).any()
    assert structs.residues[0] == 0 and not structs.residues[-2:].any()

    # The concatenated codes at each valid position equal the
    # per-sequence rolling codes at the corresponding local position.
    per_seq = {}
    for i in range(len(db)):
        per_seq[i] = word_codes(db.sequence(i), k, 4)
    starts = structs.starts
    for code, gpos in zip(structs.codes, structs.code_pos):
        sid = int(np.searchsorted(starts, gpos, side="right")) - 1
        local = int(gpos - starts[sid])
        assert per_seq[sid][local] == code
    # ... and every per-sequence window is present: counts match.
    assert len(structs.codes) == sum(len(v) for v in per_seq.values())


def test_sentinel_spanning_windows_produce_no_hits():
    # Two runs of A's that abut across the sentinel: a query word longer
    # than either sequence must not match the chimeric join.
    db = SequenceDB(NT)
    db.add("a", "AAAAA")
    db.add("b", "AAAAAA")
    structs = build_scan_structures(db, k=11, base=4)
    assert len(structs.codes) == 0  # no sequence has an 11-mer window

    index = WordIndex.for_dna(encode_dna("A" * 11), k=11)
    assert scan_fragment(index, structs) == []

    # Whole-pipeline view: no hits either.
    res = search(encode_dna("A" * 11), db, NucleotideScore(),
                 SearchParams(), scan_cache=ScanCache())
    assert res.hits == []


def test_short_empty_and_single_sequences():
    db = SequenceDB(NT)
    db.add("tiny", "ACG")                      # shorter than the word size
    db.add("hit", "ACGTACGTACGTACGTACGT")
    db._seqs.append(np.empty(0, dtype=np.uint8))   # empty payload
    db._descriptions.append("empty")
    db._version += 1
    structs = build_scan_structures(db, k=11, base=4)
    assert structs.n_sequences == 3
    assert np.array_equal(structs.lengths, [3, 20, 0])
    # Only the 20-mer contributes windows.
    assert len(structs.codes) == 10

    query = encode_dna("ACGTACGTACGTACGT")
    res_scan = search(query, db, NucleotideScore(), SearchParams(),
                      scan_cache=ScanCache())
    res_loop = search_reference(query, db, NucleotideScore(), SearchParams())
    assert dump(res_scan) == dump(res_loop)
    assert [h.subject_id for h in res_scan.hits] == [1]


def test_single_sequence_fragment_and_empty_db():
    db = SequenceDB(NT)
    db.add("only", "ACGTACGTACGTACGTACGTACGT")
    structs = build_scan_structures(db, k=11, base=4)
    assert len(structs.scat) == 24                      # no separators
    per = word_codes(db.sequence(0), 11, 4)
    assert np.array_equal(structs.codes, per)
    assert np.array_equal(structs.code_pos, np.arange(len(per)))

    empty = SequenceDB(NT)
    structs = build_scan_structures(empty, k=11, base=4)
    assert structs.n_sequences == 0
    assert len(structs.codes) == 0
    index = WordIndex.for_dna(encode_dna("ACGTACGTACGT"), k=11)
    assert scan_fragment(index, structs) == []


def test_scan_fragment_matches_per_sequence_scan():
    rng = np.random.default_rng(7)
    db = random_nt_db(rng, 40)
    k = 11
    query = encode_dna("".join(NT_LETTERS[rng.integers(0, 4, 120)]))
    index = WordIndex.for_dna(query, k)
    structs = build_scan_structures(db, k, base=4)

    got = {sid: (spos, qpos)
           for sid, spos, qpos in scan_fragment(index, structs)}
    for sid in range(len(db)):
        codes = word_codes(db.sequence(sid), k, 4)
        spos, qpos = word_index_scan(index, codes)
        if len(spos) == 0:
            assert sid not in got
        else:
            g_spos, g_qpos = got.pop(sid)
            assert np.array_equal(g_spos, spos)
            assert np.array_equal(g_qpos, qpos)
    assert got == {}  # no spurious subjects


# --------------------------- the packed scan reads the residue section

K = 11


def _rand_nt(rng, n):
    return rng.integers(0, 4, n).astype(np.uint8)


def _add_raw(db, seq):
    """Append past ``add``'s empty-sequence check."""
    db._seqs.append(np.asarray(seq, dtype=np.uint8))
    db._descriptions.append(f"s{len(db)}")
    db._version += 1
    db._residues += len(seq)


def _oracle_groups(indexes, db):
    """What ``scan_fragment_batch`` must return, from the per-sequence
    dense ``WordIndex.scan`` — no code shared with ``QueryBatch``."""
    k, base = indexes[0].k, indexes[0].base
    groups = []
    for eid, index in enumerate(indexes):
        for sid in range(len(db)):
            spos, qpos = word_index_scan(
                index, word_codes(db.sequence(sid), k, base))
            if len(spos):
                groups.append((eid, sid, spos.tolist(), qpos.tolist()))
    return groups


def _groups(batch, structs):
    """``scan_fragment_batch``'s flat form regrouped into one ``(eid,
    sid, spos, qpos)`` tuple per group, the oracle's shape: group ``g``
    is every hit row whose ``gid`` is ``g``, in row order."""
    from repro.blast.scankernel import scan_fragment_batch

    hits = scan_fragment_batch(batch, structs)
    for column in hits:
        assert column.dtype == np.int64
    assert len(hits.eid) == len(hits.sid)
    assert len(hits.gid) == len(hits.spos) == len(hits.qpos)
    return [(eid, sid, hits.spos[hits.gid == g].tolist(),
             hits.qpos[hits.gid == g].tolist())
            for g, (eid, sid) in enumerate(zip(hits.eid.tolist(),
                                               hits.sid.tolist()))]


def _prefilter_case(seed, n_queries):
    """A corpus built to lose or invent hits under every wrong packed
    scan, and the word indexes (both strands) of *n_queries* queries.

    Query 0 has words planted in the first and in the last three
    windows of sequences, query 1 occurs only by its *last* word and
    query 2 (indexed under a skip mask, as DUST would) only by the word
    just before the masked run — words no other query word continues.
    Each plant is repeated behind 0-3 extra residues, so every one
    meets every alignment to the 4-residue packing, and a sentinel at
    every byte lane.  Two neighbours end and start with the halves of a
    query-0 word whose middle residue is A: read through the sentinel
    (symbol 0 once masked) that is a word, and only the bounds filter
    knows it is not.
    """
    rng = np.random.default_rng(seed)
    queries = [_rand_nt(rng, 568) for _ in range(max(n_queries, 3))]
    q0, q_last, q_dust = queries[:3]
    q0[305] = 0
    skip = np.zeros(len(q_dust) - K + 1, dtype=bool)
    skip[200:260] = True
    db = SequenceDB(NT)

    _add_raw(db, np.concatenate([q0[:K + 1], _rand_nt(rng, 150),
                                 q0[100:140], _rand_nt(rng, 80)]))
    _add_raw(db, [])                                   # empty
    _add_raw(db, _rand_nt(rng, 5))                     # shorter than k
    for extra in range(4):                             # 1-4 windows
        _add_raw(db, q0[330:330 + K + extra] if extra == 1
                 else _rand_nt(rng, K + extra))
    _add_raw(db, np.concatenate([_rand_nt(rng, 30), q0[300:305]]))
    _add_raw(db, np.concatenate([q0[306:300 + K], _rand_nt(rng, 30)]))
    for shift in range(4):
        _add_raw(db, np.concatenate([_rand_nt(rng, 40 + shift),
                                     q0[400:400 + K + 2]]))
        _add_raw(db, np.concatenate([q0[500:500 + K + 2],
                                     _rand_nt(rng, 40 + shift)]))
        _add_raw(db, np.concatenate([_rand_nt(rng, 40 + shift),
                                     q_last[-K:], _rand_nt(rng, 30)]))
        _add_raw(db, np.concatenate([_rand_nt(rng, 50 + shift),
                                     q_dust[199:199 + K],
                                     _rand_nt(rng, 30)]))
    _add_raw(db, [])
    _add_raw(db, np.concatenate([_rand_nt(rng, 41), q0[20:20 + K + 2]]))

    indexes = []
    for q in queries[:n_queries]:
        mask = skip if q is q_dust else None
        indexes.append(WordIndex.for_dna(q, K, skip=mask))
        indexes.append(WordIndex.for_dna(reverse_complement(q), K,
                                         skip=None if mask is None
                                         else mask[::-1]))
    return db, indexes


def _force_dense(batch):
    batch._sub_present = None
    return batch


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("n_queries,chunk", [(1, 4), (8, 3), (32, 2)])
def test_strided_scan_returns_the_dense_hit_set(seed, n_queries, chunk,
                                                monkeypatch):
    """Batch size x block size x corpus seed: the packed scan, at the
    default block and at blocks of *chunk* packed bytes (so block edges
    fall everywhere), and the dense fallback all return the oracle's
    groups; the hit positions are the dense ``codes`` definition's."""
    from repro.blast import scankernel
    from repro.blast.scankernel import _MAX_TABLE_DENSITY, QueryBatch

    db, indexes = _prefilter_case(seed, max(n_queries, 3))
    structs = build_scan_structures(db, K, 4)
    # The planted queries are always in the batch, whatever its size.
    indexes = indexes if n_queries > 1 else indexes[:6]
    batch = QueryBatch(indexes)
    assert batch.step == 4
    fill = np.count_nonzero(batch._sub_present) / len(batch._sub_present)
    assert fill <= _MAX_TABLE_DENSITY
    if n_queries == 8:
        # Consecutive words share sub-words: 16 strands x 558 words x 4
        # offsets would be 54 % of the table were they all distinct.
        assert fill < 0.2

    want = _oracle_groups(indexes, db)
    # The corpus does hold what the docstring promises: query-0 hits in
    # first and in last windows, at every alignment to the packing.
    firsts = {int(structs.starts[sid]) % 4
              for eid, sid, spos, _q in want if eid == 0 and spos[0] == 0}
    lasts = {int(structs.starts[sid] + spos[-1]) % 4
             for eid, sid, spos, _q in want
             if eid == 0 and spos[-1] == structs.lengths[sid] - K}
    assert firsts == lasts == {0, 1, 2, 3}
    assert _groups(batch, structs) == want
    sids, local, _eids, _qpos = batch.scan(structs)
    dense = np.nonzero(batch._present[structs.codes])[0]
    assert np.array_equal(np.unique(structs.starts[sids] + local),
                          structs.code_pos[dense])
    monkeypatch.setattr(scankernel, "_SAMPLE_CHUNK", chunk)
    assert _groups(batch, structs) == want
    assert _groups(_force_dense(batch), structs) == want
    monkeypatch.undo()
    assert _groups(batch, structs) == want     # dense, default block


# -------------------------------------------- exactness, as a property

@st.composite
def _scan_case(draw):
    """``(seqtype, sequences, source, query, skip)``: up to six
    sequences of 0-40 symbols (empty ones, ones shorter than the word
    size, possibly all of them), a query that contains sequence
    ``source`` whole — so a subject's first and last windows, the
    windows next to a separator and (``source`` 0) a window at flat
    position 0 are among the hits — and a run of query words to mask."""
    seqtype = draw(st.sampled_from([NT, AA]))
    symbol = st.integers(0, 3 if seqtype == NT else 19)
    seqs = draw(st.lists(st.lists(symbol, max_size=40), min_size=1,
                         max_size=6))
    source = draw(st.integers(0, len(seqs) - 1))
    flank = st.lists(symbol, max_size=5)
    query = draw(flank) + seqs[source] + draw(flank)
    skip = draw(st.tuples(st.integers(0, 12), st.integers(0, 6)))
    return seqtype, seqs, source, query, skip


def _tail(extra):
    seq = [0, 1, 2, 3] * 4 + [1] * extra
    return NT, [seq], 0, seq, (0, 0)


@settings(max_examples=200, deadline=None)
@given(case=_scan_case())
@example(case=_tail(0))                     # one sequence, len % 4 == 0
@example(case=_tail(1))
@example(case=_tail(2))
@example(case=_tail(3))
@example(case=(NT, [[2]], 0, [2] * 12, (0, 0)))                # one residue
@example(case=(NT, [[0] * 10, [], [1] * 3], 0, [0] * 12, (0, 0)))   # all < k
@example(case=(NT, [[3], [0] * 5, [0] * 6, [0] * 11], 3, [0] * 11, (0, 0)))
@example(case=(NT, [[1, 2] * 8], 0, [1, 2] * 8, (2, 3)))       # masked words
@example(case=(AA, [[], [6, 6, 6], [], [6, 6, 6, 6]], 3, [6] * 4, (0, 0)))
def test_packed_scan_matches_per_sequence_oracle(case):
    """``scan_fragment_batch`` — packed for nt, dense for protein, and
    dense forced on nt — returns the groups of the per-sequence dense
    ``WordIndex.scan`` the oracle runs, element for element."""
    from repro.blast.scankernel import QueryBatch

    seqtype, seqs, source, query, (skip_at, skip_n) = case
    query = np.asarray(query, dtype=np.uint8)
    db = SequenceDB(seqtype)
    for seq in seqs:
        _add_raw(db, seq)
    if seqtype == NT:
        skip = np.zeros(max(len(query) - K + 1, 0), dtype=bool)
        skip[skip_at:skip_at + skip_n] = True
        indexes = [WordIndex.for_dna(query, K, skip=skip),
                   WordIndex.for_dna(reverse_complement(query), K,
                                     skip=skip[::-1])]
    else:
        indexes = [WordIndex.for_protein(query, ProteinScore())]
    k, base = indexes[0].k, indexes[0].base
    structs = build_scan_structures(db, k, base)
    batch = QueryBatch(indexes)
    assert batch.step == (4 if seqtype == NT else 1)
    want = _oracle_groups(indexes, db)
    assert _groups(batch, structs) == want
    assert _groups(_force_dense(batch), structs) == want
    if seqtype == NT and len(seqs[source]) >= k and skip_n == 0:
        spos = next(g[2] for g in want if g[:2] == (0, source))
        assert spos[0] == 0 and spos[-1] == len(seqs[source]) - k


# ------------------------------------- the flat groups at their edges

def _grouping_case(name):
    """``(db, indexes)`` for one edge of the flat grouping.  Fillers are
    ``ACGT`` repeats, which hold no word of the random queries (nor of
    their reverse complements) and no 11-mer of ``G`` or ``C`` runs."""
    rng = np.random.default_rng(11)
    q = _rand_nt(rng, 60)
    db = SequenceDB(NT)
    for _ in range(3):
        _add_raw(db, [0, 1, 2, 3] * 10)

    def strands(query, skip=None):
        return [WordIndex.for_dna(query, K, skip=skip),
                WordIndex.for_dna(reverse_complement(query), K,
                                  skip=None if skip is None else skip[::-1])]
    if name == "no_hits":
        return db, strands(np.full(20, 2, dtype=np.uint8))
    if name == "single_hit":
        _add_raw(db, q[40:40 + K])
        return db, strands(q)
    _add_raw(db, np.concatenate([q[5:30], [0, 1, 2, 3] * 5, q[30:55]]))
    if name == "no_words":
        # A query shorter than k and a fully masked one: entries that
        # hold no word, before and between ones that do.
        return db, (strands(q[:K - 1]) + strands(q)
                    + strands(q, np.ones(len(q) - K + 1, dtype=bool))
                    + strands(q[10:50].copy()))
    if name == "last_sequence_only":
        return db, strands(q)
    assert name == "identical_queries"
    return db, strands(q) + strands(q.copy())


@pytest.mark.parametrize("name", ["no_hits", "no_words", "single_hit",
                                  "last_sequence_only",
                                  "identical_queries"])
def test_flat_groups_at_the_edges(name):
    """The flat groups regroup to the per-sequence oracle's groups on
    the packed and the dense scan, at each edge the grouping has: no
    hit at all, entries without words, one hit, hits only in the last
    sequence, and two identical queries (their entries' groups equal
    group for group)."""
    from repro.blast.scankernel import QueryBatch

    db, indexes = _grouping_case(name)
    structs = build_scan_structures(db, K, 4)
    want = _oracle_groups(indexes, db)
    assert _groups(QueryBatch(indexes), structs) == want
    assert _groups(_force_dense(QueryBatch(indexes)), structs) == want
    last = len(db) - 1
    if name == "no_hits":
        assert want == []
    elif name == "no_words":
        assert [eid for eid, *_ in want] == [2, 6]
    elif name == "single_hit":
        assert want == [(0, last, [0], [40])]
    elif name == "last_sequence_only":
        assert want and {sid for _e, sid, *_ in want} == {last}
    else:
        assert [g[1:] for g in want if g[0] in (0, 1)] == [
            g[1:] for g in want if g[0] in (2, 3)] != []


@st.composite
def _grouping_batch(draw):
    """Up to eight sequences of 0-60 bases and one to four queries, each
    a piece of one of them between random flanks (so hits are common,
    repeats across entries too) or, if short, a query with no words."""
    base = st.integers(0, 3)
    seqs = draw(st.lists(st.lists(base, max_size=60), min_size=1,
                         max_size=8))
    queries = []
    for _ in range(draw(st.integers(1, 4))):
        src = seqs[draw(st.integers(0, len(seqs) - 1))]
        lo = draw(st.integers(0, len(src)))
        hi = draw(st.integers(lo, len(src)))
        flank = st.lists(base, max_size=6)
        queries.append(draw(flank) + src[lo:hi] + draw(flank))
    return seqs, queries


@settings(max_examples=150, deadline=None)
@given(case=_grouping_batch())
def test_flat_groups_are_ordered_and_keep_scan_order(case):
    """Group keys ``(eid, sid)`` strictly increase, hits are group-major,
    every group has a hit, and each group's rows are the scan's own
    rows of that (entry, subject), in the order the scan returned
    them."""
    from repro.blast.scankernel import QueryBatch, scan_fragment_batch

    seqs, queries = case
    db = SequenceDB(NT)
    for seq in seqs:
        _add_raw(db, seq)
    indexes = [WordIndex.for_dna(np.asarray(q, dtype=np.uint8), K)
               for q in queries]
    structs = build_scan_structures(db, K, 4)
    batch = QueryBatch(indexes)
    hits = scan_fragment_batch(batch, structs)
    keys = list(zip(hits.eid.tolist(), hits.sid.tolist()))
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert np.array_equal(np.unique(hits.gid), np.arange(len(keys)))
    assert np.all(np.diff(hits.gid) >= 0)
    sids, spos, eids, qpos = batch.scan(structs)
    for g, (eid, sid) in enumerate(keys):
        mine = (eids == eid) & (sids == sid)
        assert np.array_equal(hits.spos[hits.gid == g], spos[mine])
        assert np.array_equal(hits.qpos[hits.gid == g], qpos[mine])
    assert len(hits.gid) == len(sids)


def _no_sentinel_mask(batch, db, monkeypatch):
    from repro.blast import scankernel
    monkeypatch.setattr(scankernel, "_LOW2", np.uint32(0xFFFFFFFF))
    return build_scan_structures(db, K, 4)


def _no_bounds_filter(batch, db, monkeypatch):
    structs = build_scan_structures(db, K, 4)
    return dataclasses.replace(structs, lengths=np.full_like(
        structs.lengths, len(structs.scat)))


def _prefix_only_table(batch, db, monkeypatch):
    batch._sub_present = np.zeros_like(batch._sub_present)
    batch._sub_present[(batch.unique_codes >> 2 * (K - 8)) & 0xFFFF] = True
    return build_scan_structures(db, K, 4)


def _shifted_words(batch, db, monkeypatch):
    batch._word_shifts = batch._word_shifts + 2
    return build_scan_structures(db, K, 4)


@pytest.mark.parametrize("mutant,invents", [
    pytest.param(_no_sentinel_mask, False, id="no_sentinel_mask"),
    pytest.param(_no_bounds_filter, True, id="no_bounds_filter"),
    pytest.param(_prefix_only_table, False, id="prefix_only_table"),
    pytest.param(_shifted_words, False, id="shifted_words")])
def test_strided_scan_mutants_lose_hits(mutant, invents, monkeypatch):
    """The corpus above is sharp enough to catch the ways a packed scan
    goes wrong: each named mutant loses real hits, and the one without
    the bounds filter keeps them all but invents a word that reads
    through a sentinel."""
    from repro.blast.scankernel import QueryBatch

    db, indexes = _prefilter_case(1, 3)
    structs = build_scan_structures(db, K, 4)
    batch = QueryBatch(indexes)

    def rows(groups):
        return {(eid, sid, s, q) for eid, sid, spos, qpos in groups
                for s, q in zip(spos, qpos)}

    want = rows(_oracle_groups(indexes, db))
    assert rows(_groups(batch, structs)) == want
    got = rows(_groups(batch, mutant(batch, db, monkeypatch)))
    if invents:
        assert got > want
    else:
        assert want - got


def test_step_is_one_for_protein_and_for_crowded_batches():
    from repro.blast.scankernel import _MAX_TABLE_DENSITY, QueryBatch

    rng = np.random.default_rng(4)
    db = random_aa_db(rng, 12)
    queries = [encode_protein("".join(AA_LETTERS[rng.integers(0, 20, 60)]))
               for _ in range(2)]
    indexes = [WordIndex.for_protein(q, ProteinScore(), 3, 11)
               for q in queries]
    batch = QueryBatch(indexes)
    assert batch.step == 1 and batch._sub_present is None
    structs = build_scan_structures(db, 3, 20)
    assert _groups(batch, structs) == _oracle_groups(indexes, db)

    # The rule is read from the table as built: one strand of a 568-mer
    # puts ~560 distinct 8-mers in it, so it passes half full at about
    # eighty of them.
    def nt_batch(n, k=K, length=568):
        return QueryBatch([WordIndex.for_dna(_rand_nt(rng, length), k)
                           for _ in range(n)])
    assert nt_batch(40).step == 4
    crowded = nt_batch(200)
    assert crowded.step == 1 and crowded._sub_present is None
    assert nt_batch(1, k=10, length=80).step == 1   # may hold no aligned 8-mer
    assert _MAX_TABLE_DENSITY < 1

    # Word size 12 is packed too: same four bytes, one shift less.
    db, _ = _prefilter_case(5, 3)
    indexes = [WordIndex.for_dna(db.sequence(i)[-60:], 12) for i in (0, 9, 12)]
    batch = QueryBatch(indexes)
    assert batch.step == 4
    structs = build_scan_structures(db, 12, 4)
    want = _oracle_groups(indexes, db)
    assert want and _groups(batch, structs) == want
    assert _groups(_force_dense(batch), structs) == want


def test_scan_reports_step_and_candidates_to_the_profile():
    from repro.blast.profile import profiled

    db, indexes = _prefilter_case(2, 3)
    query = np.concatenate([db.sequence(0)[120:220]])
    with profiled("t", enabled=True, emit=False) as prof:
        search(query, db, NucleotideScore(), SearchParams(),
               scan_cache=ScanCache())
    structs = build_scan_structures(db, K, 4)
    assert prof.counters["scan_step"] == 4
    assert 0 < prof.counters["scan_candidates"] < len(structs.codes) // 2


# ------------------------------------------------------------- equivalence

def test_engines_equivalent_randomized_nt_both_strands():
    rng = np.random.default_rng(123)
    for trial in range(5):
        db = random_nt_db(rng, 30, min_len=8, max_len=500)
        # Plant a (mutated) copy of part of the query so both strands
        # and the gapped path are exercised.
        query_arr = NT_LETTERS[rng.integers(0, 4, 150)]
        planted = "".join(query_arr[20:120])
        db.add("planted", planted)
        query = encode_dna("".join(query_arr))
        params = SearchParams()
        r_scan = search(query, db, NucleotideScore(), params,
                        scan_cache=ScanCache())
        r_loop = search_reference(query, db, NucleotideScore(), params)
        assert dump(r_scan) == dump(r_loop)
        assert any(h.description == "planted" for h in r_scan.hits)


def test_engines_equivalent_randomized_protein():
    rng = np.random.default_rng(321)
    for trial in range(3):
        db = random_aa_db(rng, 25)
        seq = AA_LETTERS[rng.integers(0, 20, 90)]
        db.add("planted", "".join(seq[10:70]))
        query = encode_protein("".join(seq))
        params = SearchParams(word_size=3, neighbor_threshold=11,
                              xdrop_ungapped=16, gapped_trigger=22)
        r_scan = search(query, db, ProteinScore(), params,
                        scan_cache=ScanCache())
        r_loop = search_reference(query, db, ProteinScore(), params)
        assert dump(r_scan) == dump(r_loop)
        assert any(h.description == "planted" for h in r_scan.hits)


# ----------------------------------------------------------------- the cache

def test_scan_cache_hits_and_mutation_invalidation():
    rng = np.random.default_rng(5)
    db = random_nt_db(rng, 6, min_len=30, max_len=60)
    cache = ScanCache()
    s1 = cache.get(db, 11, 4)
    s2 = cache.get(db, 11, 4)
    assert s1 is s2
    assert cache.stats()["hits"] == 1 and cache.stats()["misses"] == 1

    # A different word size is a different entry.
    cache.get(db, 7, 4)
    assert cache.stats()["misses"] == 2

    # Mutation bumps the db version: stale structures are not reused.
    db.add("new", "ACGTACGTACGTACGTACGTACGT")
    s3 = cache.get(db, 11, 4)
    assert s3 is not s1
    assert s3.n_sequences == len(db)


def test_scan_cache_lru_entry_bound():
    rng = np.random.default_rng(6)
    dbs = [random_nt_db(rng, 3, min_len=20, max_len=40) for _ in range(5)]
    cache = ScanCache(max_entries=2)
    for db in dbs:
        cache.get(db, 11, 4)
    assert len(cache) == 2
    assert cache.stats()["evictions"] == 3
    # Least-recently-used went first: the two newest survive.
    assert cache.get(dbs[-1], 11, 4) is not None
    assert cache.stats()["hits"] == 1
    cache.get(dbs[0], 11, 4)           # evicted → a fresh miss
    assert cache.stats()["misses"] == 6


def test_scan_cache_byte_bound_keeps_most_recent():
    rng = np.random.default_rng(8)
    dbs = [random_nt_db(rng, 4, min_len=200, max_len=300) for _ in range(3)]
    cache = ScanCache(max_bytes=1)       # every entry exceeds the bound
    for db in dbs:
        cache.get(db, 11, 4)
        assert len(cache) == 1           # most recent always retained
    assert cache.stats()["evictions"] == 2
    assert cache.total_bytes > 1

    with pytest.raises(ValueError):
        ScanCache(max_entries=0)
    with pytest.raises(ValueError):
        ScanCache(max_bytes=0)

    cache.clear()
    assert len(cache) == 0 and cache.total_bytes == 0


def test_default_scan_cache_is_shared_and_used_by_search():
    cache = default_scan_cache()
    assert default_scan_cache() is cache
    db = SequenceDB(NT)
    db.add("s", "ACGTACGTACGTACGTACGTACGT")
    before = cache.stats()["misses"]
    search(encode_dna("ACGTACGTACGT"), db, NucleotideScore(),
           SearchParams())
    assert cache.stats()["misses"] > before


# ------------------------------------------------------- batched extension

def test_batched_extension_matches_per_seed_reference():
    rng = np.random.default_rng(11)
    scheme = NucleotideScore()
    for trial in range(10):
        query = rng.integers(0, 4, 80).astype(np.uint8)
        subject = rng.integers(0, 4, 120).astype(np.uint8)
        # Seeds in the order the seeding functions emit them: grouped by
        # diagonal, ascending subject position within a diagonal.
        raw = sorted(
            {(int(q), int(s))
             for q, s in zip(rng.integers(0, 70, 12), rng.integers(0, 110, 12))},
            key=lambda t: (t[1] - t[0], t[1]))
        got = batched_ungapped_extend(query, subject, raw, scheme, xdrop=20)

        covered = {}
        expect = []
        for qp, sp in raw:
            dg = sp - qp
            if covered.get(dg, -1) >= sp:
                continue
            hsp = ungapped_extend(query, subject, qp, sp, scheme, xdrop=20)
            covered[dg] = hsp.s_end
            if hsp.score > 0:
                expect.append(hsp)
        assert got == expect


def test_chunked_best_prefix_matches_full_pass():
    from repro.blast.extend import _CHUNK, _best_prefix
    rng = np.random.default_rng(13)
    for trial in range(30):
        n = int(rng.integers(1, 4 * _CHUNK))
        scores = rng.integers(-3, 3, n)
        cum = np.cumsum(scores)
        runmax = np.maximum.accumulate(np.maximum(cum, 0))
        dropped = runmax - cum > 5
        stop = int(np.argmax(dropped)) if dropped.any() else n
        if stop == 0:
            expect = (0, 0)
        else:
            best = int(np.argmax(cum[:stop]))
            expect = (0, 0) if cum[best] <= 0 else (best + 1, int(cum[best]))
        assert _best_prefix(scores, 5) == expect
    assert _best_prefix(np.empty(0, dtype=np.int64), 5) == (0, 0)


# ------------------------------------------------ vectorised gapped E scan

def test_vectorized_e_scan_matches_loop():
    from oracle_gapped import _e_scan_loop, _e_scan_vectorized
    rng = np.random.default_rng(17)
    w = 49
    for go, ge in ((5, 2), (11, 1), (3, 2)):
        slot_ge = ge * np.arange(w)
        open_cost = go + slot_ge[:-1]
        scratch = (np.empty(w, dtype=np.int64), np.empty(w, dtype=np.int64))
        for trial in range(20):
            H0 = rng.integers(-10, 40, w).astype(np.int64)
            codes0 = rng.integers(0, 2, w).astype(np.int8)

            H_l, codes_l = H0.copy(), codes0.copy()
            pe_l = np.zeros(w, dtype=np.int8)
            E_l = _e_scan_loop(H_l, codes_l, pe_l, go, ge)

            H_v, codes_v = H0.copy(), codes0.copy()
            pe_v = np.zeros(w, dtype=np.int8)
            E_v = _e_scan_vectorized(H_v, codes_v, pe_v, go, ge,
                                     slot_ge, open_cost, scratch)
            assert np.array_equal(E_l, E_v)
            assert np.array_equal(H_l, H_v)
            assert np.array_equal(codes_l, codes_v)
            assert np.array_equal(pe_l, pe_v)


def test_gap_open_not_above_extend_still_works_end_to_end():
    # gap_open <= gap_extend forces the reference scan-loop path of the
    # banded aligner; driver and reference must still agree.
    rng = np.random.default_rng(19)
    db = random_nt_db(rng, 10, min_len=30, max_len=120)
    seq = NT_LETTERS[rng.integers(0, 4, 100)]
    db.add("planted", "".join(seq[5:95]))
    query = encode_dna("".join(seq))
    scheme = NucleotideScore(gap_open=1, gap_extend=2)
    params = SearchParams()
    r_scan = search(query, db, scheme, params, scan_cache=ScanCache())
    r_loop = search_reference(query, db, scheme, params)
    assert dump(r_scan) == dump(r_loop)
    assert r_scan.hits


# ------------------------------------------------- explicit token eviction

def test_scan_cache_explicit_evict_by_token():
    from repro.blast.scankernel import db_token

    rng = np.random.default_rng(9)
    db1 = random_nt_db(rng, 4, min_len=30, max_len=60)
    db2 = random_nt_db(rng, 4, min_len=30, max_len=60)
    cache = ScanCache()
    cache.get(db1, 11, 4)
    cache.get(db1, 7, 4)          # second word size, same database
    cache.get(db2, 11, 4)
    assert len(cache) == 3

    assert cache.evict(db_token(db1)) == 2
    assert len(cache) == 1        # db2's entry is untouched
    assert cache.evict(db_token(db1)) == 0
    assert cache.get(db2, 11, 4) is not None
    assert cache.stats()["hits"] == 1

    # Unknown tokens are a no-op.
    assert cache.evict(999999) == 0


def test_scan_cache_evicts_entries_when_db_is_garbage_collected():
    import gc

    rng = np.random.default_rng(10)
    cache = ScanCache()
    db = random_nt_db(rng, 3, min_len=20, max_len=40)
    cache.get(db, 11, 4)
    assert len(cache) == 1
    del db
    gc.collect()
    assert len(cache) == 0


def test_scan_cache_forgets_the_tokens_it_evicts():
    """A long-lived cache that sees many short-lived databases keeps
    nothing per database once each is gone — entries or tokens."""
    import gc

    from repro.blast.scankernel import db_token

    rng = np.random.default_rng(14)
    cache = ScanCache()
    for _ in range(20):
        cache.get(random_nt_db(rng, 2, min_len=20, max_len=30), 11, 4)
        gc.collect()
    assert len(cache) == 0 and cache._finalized == set()
    # An explicit evict forgets too, and the database can come back.
    db = random_nt_db(rng, 2, min_len=20, max_len=30)
    cache.get(db, 11, 4)
    assert cache._finalized == {db_token(db)}
    assert cache.evict(db_token(db)) == 1 and cache._finalized == set()
    cache.get(db, 11, 4)
    del db
    gc.collect()
    assert len(cache) == 0 and cache._finalized == set()


def test_scan_cache_put_seeds_external_structures():
    rng = np.random.default_rng(11)
    db = random_nt_db(rng, 5, min_len=30, max_len=60)
    structs = build_scan_structures(db, 11, 4)
    cache = ScanCache()
    cache.put(db, 11, 4, structs)
    # A primed entry is an exact hit: no rebuild, the same object back.
    assert cache.get(db, 11, 4) is structs
    assert cache.stats() == {"hits": 1, "misses": 0, "evictions": 0,
                             "entries": 1, "bytes": structs.nbytes}
    # put participates in the LRU bound like any other entry.
    small = ScanCache(max_entries=1)
    small.put(db, 11, 4, structs)
    other = random_nt_db(rng, 3, min_len=20, max_len=40)
    small.put(other, 11, 4, build_scan_structures(other, 11, 4))
    assert len(small) == 1
    assert small.stats()["evictions"] == 1


def test_db_token_is_stable_and_unique():
    from repro.blast.scankernel import db_token

    rng = np.random.default_rng(12)
    db1 = random_nt_db(rng, 2, min_len=20, max_len=30)
    db2 = random_nt_db(rng, 2, min_len=20, max_len=30)
    t1 = db_token(db1)
    assert db_token(db1) == t1
    assert db_token(db2) != t1
