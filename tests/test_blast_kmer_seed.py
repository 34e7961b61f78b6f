"""Tests for word codes, the word index, and seed selection."""

import inspect

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.blast.alphabet import encode_dna, encode_protein
from repro.blast.kmer import WordIndex, dna_word_codes, word_codes
from repro.blast.score import BLOSUM62, ProteinScore, ScoringScheme
from repro.blast import seed as seed_mod
from repro.blast.seed import one_hit_seeds_grouped, two_hit_seeds_grouped

from oracle_search import (one_hit_seeds, protein_word_codes,
                           protein_word_index, two_hit_seeds,
                           word_index_scan)


def positions_of(index: WordIndex, code: int) -> list:
    """The query positions *index* holds for *code*, read off its
    ``unique_codes`` / ``offsets`` / ``positions`` arrays."""
    i = int(np.searchsorted(index.unique_codes, code))
    if i == len(index.unique_codes) or index.unique_codes[i] != code:
        return []
    return index.positions[index.offsets[i]:index.offsets[i + 1]].tolist()


def assert_same_index(a: WordIndex, b: WordIndex) -> None:
    for name in ("unique_codes", "offsets", "positions"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_word_codes_basic():
    enc = encode_dna("ACGT")
    codes = dna_word_codes(enc, k=2)
    # AC=0*4+1, CG=1*4+2, GT=2*4+3
    assert list(codes) == [1, 6, 11]


def test_word_codes_short_sequence():
    assert len(dna_word_codes(encode_dna("AC"), k=11)) == 0


def test_word_codes_exact_length():
    enc = encode_dna("ACGTACGTACG")  # 11 bases
    assert len(dna_word_codes(enc, k=11)) == 1


@settings(max_examples=50)
@given(st.text(alphabet="ACGT", min_size=12, max_size=100))
def test_word_codes_window_count(s):
    enc = encode_dna(s)
    assert len(dna_word_codes(enc, 11)) == len(s) - 10


def test_dna_index_finds_exact_words():
    q = encode_dna("ACGTACGTACGT")
    idx = WordIndex.for_dna(q, k=11)
    subj = encode_dna("TTTTACGTACGTACGTTTTT")
    spos, qpos = word_index_scan(idx, dna_word_codes(subj, 11))
    assert len(spos) > 0
    # Every reported pair has matching words.
    for s, qq in zip(spos, qpos):
        assert np.array_equal(subj[s:s + 11], q[qq:qq + 11])


def test_dna_index_no_hits_in_unrelated_subject():
    q = encode_dna("A" * 20)
    idx = WordIndex.for_dna(q, k=11)
    subj = encode_dna("C" * 50)
    spos, qpos = word_index_scan(idx, dna_word_codes(subj, 11))
    assert len(spos) == 0


def test_index_contains_and_positions():
    q = encode_dna("ACGTACGTACGTA")  # words at 0,1,2
    idx = WordIndex.for_dna(q, k=11)
    codes = dna_word_codes(q, 11)
    assert int(codes[0]) in idx
    assert positions_of(idx, int(codes[0])) == [0]
    assert idx.n_words == 3


def test_index_repeated_words_report_all_positions():
    q = encode_dna("ACGTACGTACGTACGT")  # repeats: word at 0 == word at 4
    idx = WordIndex.for_dna(q, k=4)
    code = int(dna_word_codes(q[:4], 4)[0])
    assert positions_of(idx, code) == [0, 4, 8, 12]


def test_protein_neighborhood_includes_exact_word():
    scheme = ProteinScore()
    q = encode_protein("WWW")
    idx = WordIndex.for_protein(q, scheme, k=3, threshold=11)
    codes = protein_word_codes(q, 3)
    assert int(codes[0]) in idx


def test_protein_neighborhood_includes_similar_words():
    scheme = ProteinScore()
    q = encode_protein("WWWW")
    idx = WordIndex.for_protein(q, scheme, k=3, threshold=11)
    # WWF scores 11+11-? W/F = 1 -> 11+11+1 = 23 >= 11: in neighbourhood.
    similar = encode_protein("WWF")
    code = int(protein_word_codes(similar, 3)[0])
    assert code in idx


def test_protein_neighborhood_excludes_dissimilar_words():
    scheme = ProteinScore()
    q = encode_protein("WWW")
    idx = WordIndex.for_protein(q, scheme, k=3, threshold=11)
    diss = encode_protein("PPP")  # W vs P = -4 each: score -12
    code = int(protein_word_codes(diss, 3)[0])
    assert code not in idx


# ------------------------------------------- the neighbourhood frontier
def _matrix(rng, rows, cols, scale, dtype=np.int64):
    m = rng.integers(-scale, scale + 1, size=(rows, cols)).astype(dtype)
    m.setflags(write=False)
    return ScoringScheme(m, 11, 1, "")


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_frontier_equals_the_per_position_loop(data):
    """The library's pruned frontier and the oracle's loop over every
    word build the same index, array for array: rectangular matrices
    (rows indexed by query letter or position), every k from 1 to 4,
    thresholds from unreachable to always met, scores past int16, and
    queries shorter than k."""
    rows = data.draw(st.integers(1, 60), label="rows")
    cols = data.draw(st.integers(2, 25), label="cols")
    k = data.draw(st.integers(1, 4), label="k")
    scale = data.draw(st.sampled_from([1, 4, 20, 20_000, 10**9]),
                      label="scale")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    scheme = _matrix(rng, rows, cols, scale)
    # The oracle scores all cols**k words per position: keep it small.
    longest = max(k - 1, min(60, 2_000_000 // cols ** k + k - 1))
    n = data.draw(st.integers(0, longest), label="query length")
    query = rng.integers(0, rows, size=n)
    reach = k * scale
    threshold = data.draw(st.integers(-reach - 1, reach + 1), label="T")
    index = WordIndex.for_protein(query, scheme, k, threshold)
    assert_same_index(index, protein_word_index(query, scheme, k, threshold))
    if threshold <= -reach:
        assert index.n_words == max(n - k + 1, 0) * cols ** k
    if threshold > reach:
        assert index.n_words == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 40), st.integers(1, 3), st.integers(-3, 3),
       st.integers(0, 2**32 - 1))
def test_frontier_honours_a_skip_mask_of_the_word_count(n, k, delta, seed):
    """A mask with one entry per word drops exactly the words the loop
    drops; one shorter or longer than the word count is refused (the
    oracle, like the old loop, would mask a short one's prefix)."""
    rng = np.random.default_rng(seed)
    query = rng.integers(0, 20, size=n)
    n_words = max(n - k + 1, 0)
    skip = rng.random(max(n_words + delta, 0)) < 0.3
    scheme = ProteinScore()
    if len(skip) != n_words:
        with pytest.raises(ValueError, match="skip mask"):
            WordIndex.for_protein(query, scheme, k, 11, skip=skip)
        return
    assert_same_index(WordIndex.for_protein(query, scheme, k, 11, skip=skip),
                      protein_word_index(query, scheme, k, 11, skip=skip))


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32])
def test_frontier_sums_past_the_matrix_dtype(dtype):
    """The frontier gathers scores in the matrix's own integer type and
    sums them in int64: a matrix filled to its type's edge, whose
    k-letter sums do not fit that type, builds the loop's index."""
    rng = np.random.default_rng(3)
    edge = int(np.iinfo(dtype).max)
    scheme = _matrix(rng, 12, 5, edge, dtype)
    query = rng.integers(0, 12, size=16)
    for t in (edge * 2, edge, 0, -edge):
        assert_same_index(WordIndex.for_protein(query, scheme, 4, t),
                          protein_word_index(query, scheme, 4, t))


def test_frontier_on_the_standard_matrix_and_a_pssm():
    """BLOSUM62 on a real-sized query, and a PSSM whose rows are the
    query's positions (the PSI-BLAST shape), with and without a mask."""
    rng = np.random.default_rng(7)
    query = rng.integers(0, 20, size=300)
    blosum = ProteinScore()
    pssm = ScoringScheme(BLOSUM62[query] + rng.integers(-2, 3, size=(300, 25)),
                         11, 1, "")
    skip = rng.random(298) < 0.2
    for scheme, q in ((blosum, query), (pssm, np.arange(300))):
        for mask in (None, skip):
            index = WordIndex.for_protein(q, scheme, 3, 11, skip=mask)
            assert index.n_words > 0
            assert_same_index(index,
                              protein_word_index(q, scheme, 3, 11, skip=mask))


@pytest.mark.parametrize("build, query", [
    (lambda q, skip: WordIndex.for_dna(q, 11, skip=skip),
     encode_dna("ACGTACGTACGTACGT")),
    (lambda q, skip: WordIndex.for_protein(q, ProteinScore(), 3, 11,
                                           skip=skip),
     encode_protein("WWWWWWWW")),
], ids=["for_dna", "for_protein"])
def test_skip_mask_of_the_wrong_length_is_refused(build, query):
    """Both builders take a mask only with one entry per word position
    (six here; the driver passes ``filter.masked_positions`` of the same
    query): neither ignores nor half-applies one of another length."""
    assert build(query, np.zeros(6, dtype=bool)).n_words > 0
    for wrong in (0, 5, 7):
        with pytest.raises(ValueError, match="skip mask"):
            build(query, np.zeros(wrong, dtype=bool))


def test_scan_empty_inputs():
    q = encode_dna("ACGTACGTACGT")
    idx = WordIndex.for_dna(q, k=11)
    spos, qpos = word_index_scan(idx, np.empty(0, dtype=np.int64))
    assert len(spos) == 0 and len(qpos) == 0


# ---------------------------------------------------------------- seeds
def test_one_hit_seeds_dedupes_runs():
    # Hits at consecutive subject positions on one diagonal = one seed.
    spos = np.array([10, 11, 12, 30])
    qpos = np.array([0, 1, 2, 20])  # diagonals: 10,10,10,10
    seeds = one_hit_seeds(spos, qpos)
    assert seeds == [(0, 10), (20, 30)]


def test_one_hit_seeds_different_diagonals_kept():
    spos = np.array([10, 10])
    qpos = np.array([0, 5])
    seeds = one_hit_seeds(spos, qpos)
    assert len(seeds) == 2


def test_one_hit_seeds_empty():
    assert one_hit_seeds(np.array([]), np.array([])) == []


def test_two_hit_requires_nonoverlapping_pair():
    w = 3
    # Two hits 2 apart (overlapping): no seed.
    seeds = two_hit_seeds(np.array([10, 12]), np.array([0, 2]), w)
    assert seeds == []
    # Two hits 5 apart on one diagonal: seed at the second.
    seeds = two_hit_seeds(np.array([10, 15]), np.array([0, 5]), w)
    assert seeds == [(5, 15)]


def test_two_hit_window_limit():
    w = 3
    seeds = two_hit_seeds(np.array([10, 100]), np.array([0, 90]), w, window=40)
    assert seeds == []


def test_two_hit_dense_run_triggers():
    """An exact long match produces hits at every position (distance 1);
    the stored-hit rule must still fire once the span reaches word_size."""
    n = 20
    spos = np.arange(n) + 50
    qpos = np.arange(n)
    seeds = two_hit_seeds(spos, qpos, word_size=3, window=40)
    assert len(seeds) >= 1
    assert seeds[0] == (3, 53)


def test_two_hit_different_diagonals_never_pair():
    seeds = two_hit_seeds(np.array([10, 20]), np.array([0, 5]), 3)
    assert seeds == []


# ------------------------------------------------- grouped two-hit seeds
# A case is (word_size, window, n_groups, hits); a hit is (group,
# subject position, query position).  Groups with no hit at all are
# legal (the driver's groups always have one; the seeder must not care).
def _track(group, diag, *spos):
    return [(group, s, s - diag) for s in spos]


#: Named streams, one per rule of the stored-hit scan.  All use word
#: size 3 and window 40 and put the same diagonal values in several
#: groups, so nothing but the group label keeps their hits apart.
_STREAMS = {
    # Group 0 ends high on diagonal 0 and group 1 starts low on it:
    # neighbours in key order, with nothing but the label between them.
    "group_change": _track(0, 0, 50) + _track(1, 0, 3, 9),
    "diagonal_change": _track(0, 0, 50) + _track(0, 1, 3),
    # 2 overlaps the stored hit 0 and must not displace it: 4 is then
    # a non-overlapping second hit.  0 has no neighbour but 2.
    "overlap_keeps_stored": _track(0, 0, 0, 2, 4) + _track(1, 0, 0, 2),
    "overlap_then_far": _track(0, 0, 0, 2, 42) + _track(1, 0, 2, 42),
    "pair_at_word_size": _track(0, 5, 10, 13) + _track(1, 5, 10, 12),
    "pair_at_window": _track(0, 0, 0, 40) + _track(1, 0, 0, 41)
    + _track(2, 0, 0, 39),
    # 3 fires and claims [3, 43): 23 becomes the stored hit without
    # firing, and the next hit fires at 43 or later only.
    "refire_inside": _track(0, 0, 0, 3, 23, 42),
    "refire_at_edge": _track(0, 0, 0, 3, 23, 43) + _track(1, 0, 0, 3, 23, 44),
    # After a seed the *seed* is the stored hit: 43 pairs with 3.
    "stored_advances": _track(0, 0, 0, 3, 43) + _track(1, 0, 0, 3, 44),
    "lonely_hits": _track(0, 0, 7) + _track(2, 0, 100) + _track(2, 1, 0, 90),
}


def _check_grouped(seeder, word_size, window, n_groups, hits):
    """*seeder*'s result, cut at the group labels, is two_hit_seeds of
    each group on its own — same seeds, same order — and group-major."""
    g, s, q = (np.array(col, dtype=np.int64) for col in
               (zip(*hits) if hits else ((), (), ())))
    sg, sq, ss = seeder(g, s, q, word_size, window)
    want = [(gi, qp, sp) for gi in range(n_groups)
            for qp, sp in two_hit_seeds(s[g == gi], q[g == gi],
                                        word_size, window)]
    assert list(zip(sg.tolist(), sq.tolist(), ss.tolist())) == want
    assert sg.dtype == sq.dtype == ss.dtype == np.int64


@st.composite
def _hit_streams(draw):
    w = draw(st.sampled_from([1, 3, 4]))
    window = draw(st.sampled_from([w + 1, 9, 40]))
    # Gaps around every threshold of the scan, and anything between.
    gap = (st.sampled_from([0, 1, w - 1, w, w + 1, window - w, window - 1,
                            window, window + 1, window + w, 2 * window + 1])
           | st.integers(0, window + 2))
    n_groups = draw(st.integers(1, 4))
    tracks = draw(st.lists(
        st.tuples(st.integers(0, n_groups - 1), st.integers(-2, 2),
                  st.integers(0, 3), st.lists(gap, max_size=8)),
        max_size=8))
    hits = []
    for group, diag, start, gaps in tracks:
        pos = max(start, diag)
        for step in [0] + gaps:
            pos += step
            hits.append((group, pos, pos - diag))
    return w, window, n_groups, draw(st.permutations(hits))


def _named_streams_as_examples(test):
    for hits in _STREAMS.values():
        test = example((3, 40, 3, hits))(test)
    return test


@_named_streams_as_examples
@settings(max_examples=300, deadline=None)
@given(_hit_streams())
def test_two_hit_seeds_grouped_is_two_hit_seeds_per_group(case):
    _check_grouped(two_hit_seeds_grouped, *case)


def _check_one_hit_grouped(seeder, hits):
    """:func:`_check_grouped` for one-hit seeds: *seeder*'s result, cut
    at the group labels, is one_hit_seeds of each group on its own."""
    g, s, q = (np.array(col, dtype=np.int64) for col in
               (zip(*hits) if hits else ((), (), ())))
    sg, sq, ss = seeder(g, s, q)
    want = [(gi, qp, sp) for gi in np.unique(g).tolist()
            for qp, sp in one_hit_seeds(s[g == gi], q[g == gi])]
    assert list(zip(sg.tolist(), sq.tolist(), ss.tolist())) == want
    assert sg.dtype == sq.dtype == ss.dtype == np.int64


@_named_streams_as_examples
@settings(max_examples=300, deadline=None)
@given(_hit_streams())
def test_one_hit_seeds_grouped_is_one_hit_seeds_per_group(case):
    _check_one_hit_grouped(one_hit_seeds_grouped, case[3])


def test_one_hit_runs_stop_where_the_next_key_is_one_more():
    """A run never crosses a diagonal, even where the next key is one
    more: the last position of one diagonal next to position 0 of the
    following one.  Keys without the stride's spare slot merge them."""
    edge = _track(0, -1, 49, 50) + _track(0, 0, 0, 1) + _track(1, -1, 0)
    _check_one_hit_grouped(one_hit_seeds_grouped, edge)
    too_narrow = _mutated(one_hit_seeds_grouped,
                          "_sorted_hit_keys(gids, spos, qpos, 1)",
                          "_sorted_hit_keys(gids, spos, qpos, 0)")
    with pytest.raises(AssertionError):
        _check_one_hit_grouped(too_narrow, edge)


def _mutated(fn, old, new):
    """*fn* recompiled with one source fragment replaced — in its own
    source or in the key builder it calls, recompiled beside it."""
    sources = [inspect.getsource(f)
               for f in (seed_mod._sorted_hit_keys, fn)]
    assert sum(src.count(old) for src in sources) == 1, old
    namespace = dict(vars(inspect.getmodule(fn)))
    for src in sources:
        exec(src.replace(old, new), namespace)
    return namespace[fn.__name__]


def test_two_hit_seeds_grouped_ranks_keys_that_do_not_fit():
    """When (groups x diagonals x positions) passes 2**63 the (group,
    diagonal) pairs are ranked first; the answer does not change."""
    far = 2 ** 21
    hits = (_track(0, 0, 5, 9, far, far + 3) + _track(0, -far, 0, 4)
            + _track(far, 0, 5, 9) + _track(far, 1, 1) + _track(2, far, far))
    g, s, q = (np.array(col, dtype=np.int64) for col in zip(*hits))
    sg, sq, ss = two_hit_seeds_grouped(g, s, q, 3, 40)
    assert list(zip(sg.tolist(), sq.tolist(), ss.tolist())) == [
        (0, far + 4, 4), (0, 9, 9), (0, far + 3, far + 3), (far, 9, 9)]
    unranked = _mutated(two_hit_seeds_grouped,
                        "pairs, key = np.unique(key, return_inverse=True)",
                        "raise OverflowError")
    with pytest.raises(OverflowError):
        unranked(g, s, q, 3, 40)
    assert len(unranked(np.minimum(g, 3), s, q, 3, 40)[0]) == 4   # fits
    # One-hit seeds take the same keys: ranked, each group's runs
    # still collapse to their first hit.
    _check_one_hit_grouped(one_hit_seeds_grouped, hits)


@pytest.mark.parametrize("old,new,killed_by", [
    pytest.param("stride = int(spos.max()) + 1 + window",
                 "stride = int(spos.max()) + 1",
                 ["group_change", "diagonal_change"],
                 id="no_reset_at_group_change"),
    pytest.param("if dist <= window and since_seed >= window:",
                 "if dist < window and since_seed >= window:",
                 ["pair_at_window"], id="window_exclusive"),
    pytest.param("near = np.diff(key) <= window",
                 "near = (np.diff(key) <= window) "
                 "& (np.diff(key) >= word_size)",
                 ["overlap_keeps_stored", "overlap_then_far"],
                 id="prefilter_drops_overlapped_stored_hit"),
    pytest.param("            since_seed = 0\n        dist = 0\n",
                 "            since_seed = 0\n            continue\n"
                 "        dist = 0\n",
                 ["stored_advances"], id="stored_not_advanced_after_fire"),
    pytest.param("since_seed >= window:", "since_seed > window:",
                 ["refire_at_edge"], id="claimed_region_inclusive"),
    pytest.param("if dist < word_size:", "if dist <= word_size:",
                 ["pair_at_word_size"], id="overlap_inclusive")])
def test_two_hit_seeds_grouped_mutants_fail(old, new, killed_by):
    """The named streams are sharp enough: each way the grouped scan
    can go wrong fails the streams written for that rule."""
    mutant = _mutated(two_hit_seeds_grouped, old, new)
    for name in killed_by:
        with pytest.raises(AssertionError):
            _check_grouped(mutant, 3, 40, 3, _STREAMS[name])
