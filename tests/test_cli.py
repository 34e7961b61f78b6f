"""Tests for the command-line interface."""

import os

import pytest

from repro.cli import main


@pytest.fixture
def fasta_file(tmp_path):
    import numpy as np

    rng = np.random.default_rng(0)
    target = "".join(rng.choice(list("ACGT"), 500))
    path = tmp_path / "seqs.fasta"
    path.write_text(f">s1 target\n{target}\n>s2 decoy\n"
                    + "".join(rng.choice(list("ACGT"), 400)) + "\n")
    query = tmp_path / "query.fasta"
    query.write_text(f">q1\n{target[100:250]}\n")
    return str(path), str(query), str(tmp_path)


def test_formatdb_and_blastall(fasta_file, capsys):
    fasta, query, d = fasta_file
    assert main(["formatdb", "-i", fasta, "-d", d, "-n", "mini"]) == 0
    out = capsys.readouterr().out
    assert "formatted 2 sequences" in out

    assert main(["blastall", "-p", "blastn", "-d", f"{d}/mini",
                 "-i", query]) == 0
    out = capsys.readouterr().out
    assert "s1 target" in out


def test_blastall_with_alignments(fasta_file, capsys):
    fasta, query, d = fasta_file
    main(["formatdb", "-i", fasta, "-d", d, "-n", "mini"])
    capsys.readouterr()
    assert main(["blastall", "-p", "blastn", "-d", f"{d}/mini",
                 "-i", query, "-a"]) == 0
    out = capsys.readouterr().out
    assert "Query  1" in out
    assert "Sbjct" in out


def test_blastall_evalue_and_filter_flags(fasta_file, capsys):
    fasta, query, d = fasta_file
    main(["formatdb", "-i", fasta, "-d", d, "-n", "mini"])
    capsys.readouterr()
    assert main(["blastall", "-p", "blastn", "-d", f"{d}/mini",
                 "-i", query, "-e", "1e-10", "-F"]) == 0
    out = capsys.readouterr().out
    assert "s1 target" in out


def test_segmentdb(fasta_file, capsys):
    fasta, query, d = fasta_file
    main(["formatdb", "-i", fasta, "-d", d, "-n", "mini"])
    outdir = os.path.join(d, "frags")
    assert main(["segmentdb", "-d", f"{d}/mini", "-o", outdir,
                 "-n", "2"]) == 0
    out = capsys.readouterr().out
    assert "fragment 0" in out and "fragment 1" in out
    assert os.path.exists(os.path.join(outdir, "mini.000.nin"))


def test_synthdb(tmp_path, capsys):
    assert main(["synthdb", "-o", str(tmp_path), "-n", "syn",
                 "--residues", "20000"]) == 0
    out = capsys.readouterr().out
    assert "synthetic sequences" in out
    assert os.path.exists(tmp_path / "syn.nin")


def test_experiment_command(capsys):
    assert main(["experiment", "--variant", "pvfs", "--workers", "2",
                 "--servers", "2", "--scale", "0.02", "--trace"]) == 0
    out = capsys.readouterr().out
    assert "execution time" in out
    assert "I/O operations" in out  # trace summary


def test_experiment_queryseg_flag(capsys):
    assert main(["experiment", "--variant", "pvfs", "--workers", "2",
                 "--servers", "2", "--scale", "0.02", "--queryseg"]) == 0
    out = capsys.readouterr().out
    assert "execution time" in out


def test_experiment_original_reports_copy_time(capsys):
    assert main(["experiment", "--variant", "original", "--workers", "2",
                 "--scale", "0.02"]) == 0
    out = capsys.readouterr().out
    assert "copy time" in out


def test_reproduce_command(capsys):
    assert main(["reproduce", "--figure", "T1", "--scale", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "Bonnie" in out


def test_blastall_tabular_output(fasta_file, capsys):
    fasta, query, d = fasta_file
    main(["formatdb", "-i", fasta, "-d", d, "-n", "mini"])
    capsys.readouterr()
    assert main(["blastall", "-p", "blastn", "-d", f"{d}/mini",
                 "-i", query, "-m", "tabular"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert any(line.count("\t") == 11 for line in out)


def test_blastall_xml_output(fasta_file, capsys):
    import xml.etree.ElementTree as ET

    fasta, query, d = fasta_file
    main(["formatdb", "-i", fasta, "-d", d, "-n", "mini"])
    capsys.readouterr()
    assert main(["blastall", "-p", "blastn", "-d", f"{d}/mini",
                 "-i", query, "-m", "xml"]) == 0
    out = capsys.readouterr().out
    root = ET.fromstring(out.strip())
    assert root.tag == "BlastOutput"


@pytest.mark.parametrize("previous", [None, "0"])
def test_blastn_profile_flag_is_scoped_to_its_command(fasta_file, capsys,
                                                      monkeypatch, previous):
    """``--profile`` emits one JSON line per top-level search on stderr
    and changes nothing on stdout; the switch it flips is back as it
    was afterwards, so the next in-process command is silent."""
    import json

    from repro.blast.profile import PROFILE_ENV

    if previous is None:
        monkeypatch.delenv(PROFILE_ENV, raising=False)
    else:
        monkeypatch.setenv(PROFILE_ENV, previous)
    fasta, query, d = fasta_file
    main(["formatdb", "-i", fasta, "-d", d, "-n", "mini"])
    capsys.readouterr()
    argv = ["blastn", "-d", f"{d}/mini", "-i", query, "-m", "tabular"]
    assert main(argv) == 0
    plain = capsys.readouterr()
    assert plain.out and plain.err == ""

    assert main(argv + ["--profile"]) == 0
    flagged = capsys.readouterr()
    assert flagged.out == plain.out
    lines = flagged.err.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["profile"] == "search_batch" and "scan" in record["stages"]
    assert os.environ.get(PROFILE_ENV) == previous

    assert main(argv) == 0
    after = capsys.readouterr()
    assert after.out == plain.out and after.err == ""


def test_psiblast_command(tmp_path, capsys):
    import numpy as np

    rng = np.random.default_rng(0)
    aas = "ARNDCQEGHILKMFPSTWYV"
    prot = "".join(rng.choice(list(aas), 200))
    fasta = tmp_path / "prots.fasta"
    fasta.write_text(f">p1 target\n{prot}\n>p2 decoy\n"
                     + "".join(rng.choice(list(aas), 200)) + "\n")
    main(["formatdb", "-i", str(fasta), "-d", str(tmp_path), "-n",
          "prot", "-p"])
    query = tmp_path / "q.fasta"
    query.write_text(f">q\n{prot[40:160]}\n")
    capsys.readouterr()
    assert main(["psiblast", "-d", f"{tmp_path}/prot",
                 "-i", str(query), "-j", "2"]) == 0
    out = capsys.readouterr().out
    assert "iteration 1" in out
    assert "p1" in out


def test_blastn_jobs_output_identical_to_serial(fasta_file, capsys):
    fasta, query, d = fasta_file
    main(["formatdb", "-i", fasta, "-d", d, "-n", "mini"])
    capsys.readouterr()
    assert main(["blastall", "-p", "blastn", "-d", f"{d}/mini",
                 "-i", query, "-m", "tabular"]) == 0
    serial = capsys.readouterr().out
    assert main(["blastn", "-d", f"{d}/mini", "-i", query,
                 "-m", "tabular", "--jobs", "2"]) == 0
    parallel = capsys.readouterr().out
    assert parallel == serial
    assert main(["blastall", "-p", "blastn", "-d", f"{d}/mini",
                 "-i", query, "-m", "tabular", "--jobs", "2",
                 "--fragments", "3"]) == 0
    assert capsys.readouterr().out == serial


def test_fragments_outside_a_pool_is_refused(fasta_file, capsys):
    """``--fragments`` sizes the pool's cut of a ``-d`` database; where
    nothing cuts it (a serial run, or a store whose fragments were fixed
    at build time) it is a usage error, not a silently ignored flag."""
    fasta, query, d = fasta_file
    store = os.path.join(d, "store")
    main(["formatdb", "-i", fasta, "-d", d, "-n", "mini"])
    main(["packdb", "build", "-i", fasta, "-o", store, "--fragments", "2"])
    capsys.readouterr()
    for argv in (["-d", f"{d}/mini", "--fragments", "8"],
                 ["-d", f"{d}/mini", "--jobs", "1", "--fragments", "8"],
                 ["--db-pack", store, "--jobs", "2", "--fragments", "8"]):
        assert main(["blastn", "-i", query, "-m", "tabular"] + argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("# --fragments")
        assert len(captured.err.splitlines()) == 1


def test_blastall_jobs_falls_back_for_translated_programs(fasta_file, capsys):
    fasta, query, d = fasta_file
    main(["formatdb", "-i", fasta, "-d", d, "-n", "mini"])
    capsys.readouterr()
    assert main(["blastall", "-p", "tblastx", "-d", f"{d}/mini",
                 "-i", query, "--jobs", "2"]) == 0
    captured = capsys.readouterr()
    assert "--jobs applies to blastn/blastp only" in captured.err


# ----------------------------------------------------------------------
# Parallel-run exit codes (fault plans injected via the env hook so
# the CLI code path under test is exactly what users run)
# ----------------------------------------------------------------------
def test_blastn_jobs_corrupt_pack_exit_code(fasta_file, capsys, monkeypatch):
    from repro.cli import EXIT_INTEGRITY

    fasta, query, d = fasta_file
    main(["formatdb", "-i", fasta, "-d", d, "-n", "mini"])
    capsys.readouterr()
    monkeypatch.setenv("REPRO_EXEC_FAULT_PLAN",
                       '[{"kind": "corrupt_pack", "rank": 0}]')
    assert main(["blastn", "-d", f"{d}/mini", "-i", query,
                 "--jobs", "2"]) == EXIT_INTEGRITY
    captured = capsys.readouterr()
    assert "pack integrity failure" in captured.err
    assert "CRC32" in captured.err


def test_blastn_jobs_pool_failure_exit_code(fasta_file, capsys, monkeypatch):
    from repro.cli import EXIT_POOL_FAILURE

    fasta, query, d = fasta_file
    main(["formatdb", "-i", fasta, "-d", d, "-n", "mini"])
    capsys.readouterr()
    monkeypatch.setenv("REPRO_EXEC_FAULT_PLAN", '[{"kind": "kill"}]')
    assert main(["blastn", "-d", f"{d}/mini", "-i", query, "--jobs", "2",
                 "--no-respawn", "--no-fallback"]) == EXIT_POOL_FAILURE
    captured = capsys.readouterr()
    assert "pool failure" in captured.err


def test_blastn_jobs_degraded_exit_code(fasta_file, capsys, monkeypatch):
    from repro.cli import EXIT_DEGRADED

    fasta, query, d = fasta_file
    main(["formatdb", "-i", fasta, "-d", d, "-n", "mini"])
    capsys.readouterr()
    assert main(["blastn", "-d", f"{d}/mini", "-i", query,
                 "-m", "tabular"]) == 0
    serial = capsys.readouterr().out
    monkeypatch.setenv("REPRO_EXEC_FAULT_PLAN", '[{"kind": "kill"}]')
    assert main(["blastn", "-d", f"{d}/mini", "-i", query, "-m", "tabular",
                 "--jobs", "2", "--no-respawn"]) == EXIT_DEGRADED
    captured = capsys.readouterr()
    # Degraded, but the answer itself is byte-identical.
    assert captured.out == serial
    assert "degraded" in captured.err


def test_blastn_and_blastall_options_differ_only_by_program():
    import argparse

    from repro.cli import build_parser

    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    blastall, blastn = ([tuple(a.option_strings) for a in
                         sub.choices[name]._actions]
                        for name in ("blastall", "blastn"))
    assert len(blastn) == 20 and ("-j", "--jobs") in blastn
    assert blastall == blastn[:1] + [("-p", "--program")] + blastn[1:]


def _evalue_flag_case(program, tmp_path):
    """A database and a query on which the program's own defaults
    matter: for blastn a base is deleted every 20, so every ungapped
    segment scores 19 — above blastn's gapped trigger (18), below the
    class default (22); for blastp every third residue is substituted,
    which leaves extensions that ``xdrop_ungapped`` 16 and 20 end
    differently.  Both have hits between E = 1e-5 and the default 10."""
    import numpy as np

    if program == "blastn":
        rng = np.random.default_rng(3)
        seqs = ["".join(rng.choice(list("ACGT"), 600)) for _ in range(2)]
        query = "".join(seqs[0][i:i + 19] for i in range(100, 400, 20))
        # ... and a 16-mer of it in the other sequence: a weak hit.
        seqs[1] = seqs[1][:300] + query[:16] + seqs[1][316:]
    else:
        aas = "ARNDCQEGHILKMFPSTWYV"
        rng = np.random.default_rng(2)
        seqs = ["".join(rng.choice(list(aas), 300)) for _ in range(8)]
        residues = list(seqs[0][20:220])
        residues[::3] = [aas[(aas.index(r) + 1) % 20] for r in residues[::3]]
        query = "".join(residues)
    fasta = tmp_path / "db.fasta"
    fasta.write_text("".join(f">s{i} seq\n{s}\n" for i, s in enumerate(seqs)))
    qfile = tmp_path / "q.fasta"
    qfile.write_text(f">q\n{query}\n")
    main(["formatdb", "-i", str(fasta), "-d", str(tmp_path), "-n", "db"]
         + (["-p"] if program == "blastp" else []))
    return ["blastall", "-p", program, "-d", f"{tmp_path}/db",
            "-i", str(qfile), "-m", "tabular"]


@pytest.mark.parametrize("program", ["blastn", "blastp"])
def test_blastall_evalue_flag_keeps_program_defaults(program, tmp_path,
                                                     capsys):
    """``-e`` / ``-F`` override the *program's* parameters: stating the
    default cutoff changes nothing, a stricter one only removes rows.
    (Until PR 22 any ``-e`` silently swapped in the class defaults —
    another gapped trigger for blastn, another ungapped X-drop for the
    protein programs — and these two inputs rendered different hits.)"""
    argv = _evalue_flag_case(program, tmp_path)
    capsys.readouterr()
    assert main(argv) == 0
    plain = capsys.readouterr().out
    assert len(plain.splitlines()) > 1
    assert main(argv + ["-e", "10"]) == 0
    assert capsys.readouterr().out == plain
    assert main(argv + ["-e", "1e-5"]) == 0
    strict = capsys.readouterr().out.splitlines()
    assert 0 < len(strict) < len(plain.splitlines())
    assert set(strict) <= set(plain.splitlines())


def test_program_defaults_cover_every_program():
    """One source for all five: the translated programs compare in
    protein space and run with blastp's parameters."""
    from repro.blast.programs import program_defaults

    aa = program_defaults("blastp")[1]
    assert (aa.word_size, aa.xdrop_ungapped) == (3, 16)
    assert program_defaults("blastn")[1].gapped_trigger == 18
    for program in ("blastx", "tblastn", "tblastx"):
        assert program_defaults(program)[1] == aa
    with pytest.raises(ValueError, match="unknown program"):
        program_defaults("blastz")
