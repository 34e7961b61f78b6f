"""Integration tests for the search driver and the five programs."""

import numpy as np
import pytest

from repro.blast import (
    SequenceDB,
    SearchParams,
    blastn,
    blastp,
    blastx,
    tblastn,
    tblastx,
)
from repro.blast.programs import blastall
from repro.blast.seqdb import segment_db
from repro.blast.translate import six_frames, translate
from repro.blast.alphabet import encode_dna, decode_protein, reverse_complement


def rand_dna(rng, n):
    return "".join(rng.choice(list("ACGT"), n))


def rand_prot(rng, n):
    return "".join(rng.choice(list("ARNDCQEGHILKMFPSTWYV"), n))


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def nt_db(rng):
    target = rand_dna(rng, 800)
    db = SequenceDB.from_fasta_text(
        f">target the real one\n{target}\n"
        + "".join(f">decoy{i}\n{rand_dna(rng, 600)}\n" for i in range(6)))
    return db, target


def test_blastn_finds_exact_substring(nt_db):
    db, target = nt_db
    res = blastn(target[200:320], db)
    assert res.hits
    assert res.hits[0].description.startswith("target")
    best = res.best()
    assert best.identity == 1.0
    assert best.s_start == 200 and best.s_end == 320
    assert best.evalue < 1e-20
    assert best.strand == 1


def test_blastn_finds_reverse_complement(nt_db):
    db, target = nt_db
    from repro.blast.alphabet import decode_dna
    rc_query = decode_dna(reverse_complement(encode_dna(target[200:320])))
    res = blastn(rc_query, db)
    assert res.hits
    assert res.hits[0].description.startswith("target")
    assert res.best().strand == -1


def test_blastn_tolerates_mutations(nt_db, rng):
    db, target = nt_db
    q = list(target[100:300])
    # 5% point mutations
    for i in rng.choice(len(q), size=10, replace=False):
        q[i] = rng.choice([c for c in "ACGT" if c != q[i]])
    res = blastn("".join(q), db)
    assert res.hits
    assert res.hits[0].description.startswith("target")
    assert res.best().identity > 0.9


def test_blastn_handles_indel(nt_db):
    db, target = nt_db
    q = target[100:200] + "GG" + target[200:300]
    res = blastn(q, db)
    assert res.hits
    best = res.best()
    assert best.identity > 0.95
    assert best.align_len >= 200


def test_blastn_no_hits_for_unrelated_query(rng):
    db = SequenceDB.from_fasta_text(f">a\n{'AC' * 200}\n")
    res = blastn("G" * 100 + "T" * 11, db,
                 params=SearchParams(evalue_cutoff=1e-5))
    assert not res.hits


def test_blastn_short_query_returns_empty(nt_db):
    db, _ = nt_db
    res = blastn("ACGTA", db)  # shorter than word size
    assert not res.hits


def test_wrong_db_type_raises(nt_db):
    db, _ = nt_db
    with pytest.raises(ValueError):
        blastp("MKV", db)
    aa = SequenceDB("aa")
    aa.add("p", "MKVLAW" * 10)
    with pytest.raises(ValueError):
        blastn("ACGT" * 10, aa)
    with pytest.raises(ValueError):
        tblastn("MKV", aa)
    with pytest.raises(ValueError):
        tblastx("ACGT", aa)
    with pytest.raises(ValueError):
        blastx("ACGT", db)


def test_results_sorted_best_first(nt_db, rng):
    db, target = nt_db
    # Query = exact chunk + a mutated chunk of a decoy to create 2 hits.
    res = blastn(target[0:150], db)
    if len(res.hits) > 1:
        evs = [h.best_evalue for h in res.hits]
        assert evs == sorted(evs)


def test_merge_combines_fragments(nt_db):
    db, target = nt_db
    query = target[100:280]
    frags = segment_db(db, 3)
    partials = [blastn(query, f) for f in frags]
    merged = partials[0]
    for p in partials[1:]:
        merged = merged.merge(p)
    whole = blastn(query, db)
    assert merged.db_residues == whole.db_residues
    assert merged.hits[0].description == whole.hits[0].description
    assert merged.best().score == whole.best().score
    # Merged E-value is rescaled to the full database size.
    assert merged.best().evalue == pytest.approx(whole.best().evalue, rel=0.01)


def test_merge_rejects_different_queries(nt_db):
    db, target = nt_db
    a = blastn(target[:100], db, query_id="q")
    b = blastn(target[:100], db)
    b.query_id = "other"
    with pytest.raises(ValueError):
        a.merge(b)


def test_report_renders(nt_db):
    db, target = nt_db
    res = blastn(target[:100], db)
    text = res.report()
    assert "Query:" in text
    assert "target" in text


def test_blastall_dispatch(nt_db):
    db, target = nt_db
    res = blastall("blastn", target[:100], db)
    assert res.hits
    with pytest.raises(ValueError):
        blastall("megablast", target[:100], db)


# ---------------------------------------------------------------- translated
CODON = {aa: c for aa, c in zip(
    "KNTRSIMQHPLEDAGV*YCWF",
    ["AAA", "AAC", "ACA", "AGA", "AGC", "ATA", "ATG", "CAA", "CAC", "CCA",
     "CTA", "GAA", "GAC", "GCA", "GGA", "GTA", "TAA", "TAC", "TGC", "TGG",
     "TTC"])}


def encode_gene(prot: str) -> str:
    return "".join(CODON[a] for a in prot)


def test_translate_known_codons():
    assert decode_protein(translate(encode_dna("ATGAAATAA"))) == "MK*"


def test_translate_frames():
    dna = encode_dna("TATGAAA")
    assert decode_protein(translate(dna, 1)) == "MK"


def test_translate_validation():
    with pytest.raises(ValueError):
        translate(encode_dna("ACGT"), frame=3)


def test_six_frames_count_and_lengths(rng):
    dna = encode_dna(rand_dna(rng, 31))
    frames = six_frames(dna)
    assert [f for f, _ in frames] == [1, 2, 3, -1, -2, -3]
    for f, prot in frames:
        off = abs(f) - 1
        assert len(prot) == (31 - off) // 3


def test_blastp_pipeline(rng):
    target = rand_prot(rng, 250)
    db = SequenceDB("aa")
    db.add("t target", target)
    db.add("d decoy", rand_prot(rng, 250))
    res = blastp(target[60:140], db)
    assert res.hits[0].description.startswith("t")
    assert res.best().identities == 80


def test_blastx_finds_coding_query(rng):
    prot = rand_prot(rng, 150)
    db = SequenceDB("aa")
    db.add("t target", prot)
    db.add("d decoy", rand_prot(rng, 150))
    res = blastx(encode_gene(prot[30:90]), db)
    assert res.hits
    assert res.hits[0].description.startswith("t")
    assert res.best().strand == 1


def test_tblastn_finds_gene_on_reverse_strand(rng):
    from repro.blast.alphabet import decode_dna
    prot = rand_prot(rng, 120)
    gene = encode_gene(prot)
    rc = decode_dna(reverse_complement(encode_dna(gene)))
    db = SequenceDB.from_fasta_text(
        f">g gene on minus strand\n{rand_dna(rng, 50)}{rc}{rand_dna(rng, 40)}\n"
        f">x decoy\n{rand_dna(rng, 400)}\n")
    res = tblastn(prot[10:90], db)
    assert res.hits
    assert res.hits[0].description.startswith("g")
    # Frame is one of the reverse frames.
    assert "frame-" in res.hits[0].description


def test_tblastx_end_to_end(rng):
    prot = rand_prot(rng, 120)
    gene = encode_gene(prot)
    db = SequenceDB.from_fasta_text(
        f">g gene\n{rand_dna(rng, 33)}{gene}{rand_dna(rng, 21)}\n"
        f">x decoy\n{rand_dna(rng, 400)}\n")
    res = tblastx(gene[60:240], db)
    assert res.hits
    assert res.hits[0].description.startswith("g")
