"""Tests for PSI-BLAST (position-specific iterated search)."""

import numpy as np
import pytest

from repro.blast import SequenceDB, blastp
from repro.blast.alphabet import PROTEIN, encode_protein
from repro.blast.psiblast import (
    PSSM,
    PsiBlastResult,
    build_pssm,
    psiblast,
)
from repro.blast.score import BLOSUM62

AAs = "ARNDCQEGHILKMFPSTWYV"


@pytest.fixture
def family():
    """A protein family with conserved motif columns, one distant
    homolog recognisable mainly through them, and decoys."""
    rng = np.random.default_rng(11)

    def rand_prot(n):
        return "".join(rng.choice(list(AAs), n))

    L = 200
    ancestor = rand_prot(L)
    conserved = rng.random(L) < 0.45

    def member(identity_at_variable):
        out = []
        for i, aa in enumerate(ancestor):
            if conserved[i] or rng.random() < identity_at_variable:
                out.append(aa)
            else:
                out.append(rng.choice([a for a in AAs if a != aa]))
        return "".join(out)

    db = SequenceDB("aa")
    for i in range(6):
        db.add(f"fam{i} close family member", member(0.5))
    db.add("distant remote homolog", member(0.02))
    for i in range(30):
        db.add(f"decoy{i}", rand_prot(L))
    return ancestor, db, conserved


def test_psiblast_requires_protein_db():
    nt = SequenceDB("nt")
    nt.add("x", "ACGT" * 20)
    with pytest.raises(ValueError):
        psiblast("MKVLAW", nt)
    aa = SequenceDB("aa")
    aa.add("p", "MKVLAW" * 5)
    with pytest.raises(ValueError):
        psiblast("MKVLAW", aa, iterations=0)


def test_iteration_one_is_plain_blastp(family):
    ancestor, db, _ = family
    res = psiblast(ancestor, db, iterations=1)
    plain = blastp(ancestor, db)
    assert res.n_iterations == 1
    assert {h.subject_id for h in res.iterations[-1].hits} == \
        {h.subject_id for h in plain.hits}


def test_pssm_improves_distant_homolog(family):
    """The headline PSI-BLAST behaviour: the remote homolog scores far
    better once the family profile is learned."""
    ancestor, db, _ = family
    res = psiblast(ancestor, db, iterations=3, inclusion_evalue=1e-3)
    assert res.n_iterations >= 2

    def distant_e(r):
        hits = [h for h in r.hits if h.description.startswith("distant")]
        return hits[0].best_evalue if hits else float("inf")

    e1 = distant_e(res.iterations[0])
    e2 = distant_e(res.iterations[1])
    assert e2 < e1 / 1e10


def test_psiblast_converges(family):
    ancestor, db, _ = family
    res = psiblast(ancestor, db, iterations=6, inclusion_evalue=1e-3)
    assert res.converged
    assert res.n_iterations < 6  # stopped early


def test_pssm_structure(family):
    ancestor, db, _ = family
    first = blastp(ancestor, db)
    pssm = build_pssm(encode_protein(ancestor), db, first,
                      inclusion_evalue=1e-3)
    assert pssm.length == len(ancestor)
    assert pssm.matrix.shape == (len(ancestor), len(PROTEIN))
    assert pssm.n_sequences >= 6  # the family got included
    scheme = pssm.scheme()
    assert scheme.matrix.shape == (len(ancestor), len(PROTEIN))


def test_pssm_boosts_conserved_columns(family):
    """Columns conserved across the family get a higher self-score than
    BLOSUM62 gives; variable columns do not explode."""
    ancestor, db, conserved = family
    enc = encode_protein(ancestor)
    first = blastp(ancestor, db)
    pssm = build_pssm(enc, db, first, inclusion_evalue=1e-3)
    self_scores = pssm.matrix[np.arange(len(enc)), enc]
    blosum_scores = BLOSUM62[enc, enc]
    gain = self_scores.astype(int) - blosum_scores.astype(int)
    assert gain[conserved].mean() > gain[~conserved].mean()
    assert gain[conserved].mean() > 0


def test_pssm_no_hits_falls_back_to_blosum():
    """With nothing included, the PSSM reduces to BLOSUM62 rows."""
    db = SequenceDB("aa")
    rng = np.random.default_rng(0)
    db.add("d", "".join(rng.choice(list(AAs), 150)))
    query = "".join(rng.choice(list(AAs), 80))
    first = blastp(query, db)
    enc = encode_protein(query)
    pssm = build_pssm(enc, db, first, inclusion_evalue=1e-30)
    assert np.array_equal(pssm.matrix, BLOSUM62[enc])


def test_psiblast_does_not_drag_in_decoys(family):
    ancestor, db, _ = family
    res = psiblast(ancestor, db, iterations=3, inclusion_evalue=1e-3)
    sig = [h.description for h in res.iterations[-1].hits
           if h.best_evalue < 1e-6]
    assert not any(d.startswith("decoy") for d in sig)
    assert sum(d.startswith("fam") for d in sig) == 6


def test_cli_psiblast_matches_the_committed_golden(tmp_path, capsys):
    """``repro psiblast -j 3`` prints, byte for byte, what the engine
    printed before its neighbourhood index became a pruned frontier.
    The corpus is a family whose members drift from the query one step
    at a time, so rounds 2 and 3 search with PSSMs and each round
    includes new members."""
    from pathlib import Path

    from repro.cli import main

    data = Path(__file__).parent / "data"
    assert main(["formatdb", "-p", "-i", str(data / "psiblast_db.fasta"),
                 "-d", str(tmp_path), "-n", "psi"]) == 0
    capsys.readouterr()
    assert main(["psiblast", "-d", str(tmp_path / "psi"),
                 "-i", str(data / "psiblast_query.fasta"), "-j", "3"]) == 0
    out = capsys.readouterr().out
    assert "--- iteration 3 ---" in out
    assert out.encode() == (data / "psiblast_j3.expected").read_bytes()
