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


def test_packdb_build_and_blastall(fasta_file, capsys):
    fasta, query, d = fasta_file
    assert main(["packdb", "build", "-i", fasta, "-o", f"{d}/mini"]) == 0
    out = capsys.readouterr().out
    assert "2 sequences" in out

    assert main(["blastall", "-p", "blastn", "-d", f"{d}/mini",
                 "-i", query]) == 0
    out = capsys.readouterr().out
    assert "s1 target" in out


def test_blastall_with_alignments(fasta_file, capsys):
    fasta, query, d = fasta_file
    main(["packdb", "build", "-i", fasta, "-o", f"{d}/mini"])
    capsys.readouterr()
    assert main(["blastall", "-p", "blastn", "-d", f"{d}/mini",
                 "-i", query, "-a"]) == 0
    out = capsys.readouterr().out
    assert "Query  1" in out
    assert "Sbjct" in out


def test_blastall_evalue_and_filter_flags(fasta_file, capsys):
    fasta, query, d = fasta_file
    main(["packdb", "build", "-i", fasta, "-o", f"{d}/mini"])
    capsys.readouterr()
    assert main(["blastall", "-p", "blastn", "-d", f"{d}/mini",
                 "-i", query, "-e", "1e-10", "-F"]) == 0
    out = capsys.readouterr().out
    assert "s1 target" in out


def test_synthdb(tmp_path, capsys):
    assert main(["synthdb", "-o", str(tmp_path), "-n", "syn",
                 "--residues", "20000"]) == 0
    out = capsys.readouterr().out
    assert "synthetic sequences" in out
    from repro.exec.diskpack import PackStore

    store = PackStore.open(str(tmp_path))
    assert (store.name, store.seqtype, store.total_residues) \
        == ("syn", "nt", 20000)


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
    main(["packdb", "build", "-i", fasta, "-o", f"{d}/mini"])
    capsys.readouterr()
    assert main(["blastall", "-p", "blastn", "-d", f"{d}/mini",
                 "-i", query, "-m", "tabular"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert any(line.count("\t") == 11 for line in out)


def test_blastall_xml_output(fasta_file, capsys):
    import xml.etree.ElementTree as ET

    fasta, query, d = fasta_file
    main(["packdb", "build", "-i", fasta, "-o", f"{d}/mini"])
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
    main(["packdb", "build", "-i", fasta, "-o", f"{d}/mini"])
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
    assert record["profile"] == "search_store_batch" \
        and "scan" in record["stages"]
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
    main(["packdb", "build", "-p", "-i", str(fasta),
          "-o", f"{tmp_path}/prot"])
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
    main(["packdb", "build", "-i", fasta, "-o", f"{d}/mini"])
    capsys.readouterr()
    assert main(["blastall", "-p", "blastn", "-d", f"{d}/mini",
                 "-i", query, "-m", "tabular"]) == 0
    serial = capsys.readouterr().out
    assert main(["blastn", "-d", f"{d}/mini", "-i", query,
                 "-m", "tabular", "--jobs", "2"]) == 0
    parallel = capsys.readouterr().out
    assert parallel == serial
    # Fewer packs than workers: a store of one pack on two.
    main(["packdb", "build", "-i", fasta, "-o", f"{d}/one",
          "--fragments", "1"])
    capsys.readouterr()
    assert main(["blastall", "-p", "blastn", "-d", f"{d}/one",
                 "-i", query, "-m", "tabular", "--jobs", "2"]) == 0
    assert capsys.readouterr().out == serial


@pytest.mark.parametrize("jobs", [None, "2"], ids=["serial", "jobs2"])
@pytest.mark.parametrize("fmt", ["tabular", "report"])
def test_blastn_batch_matches_the_committed_golden(fmt, jobs, tmp_path,
                                                   capsys):
    """A blastn batch whose gapped problems all take the scalar route
    prints, byte for byte, what the engine printed while that route
    still aligned one problem per call.  The five queries are extracts
    of ``blastn_batch_db.fasta`` with 5-7 % substitutions and 1-3 short
    indels each (two reverse-complemented, one split by a 60-base
    insertion into two diagonals of one subject, one over a segment two
    other subjects carry diverged copies of): one batch plans 20 gapped
    DP problems, many of them crossing gaps.  The report prints every
    alignment (``-a``), so the traceback's ops are compared too.  A
    serial run searches a store of one pack, a ``--jobs 2`` run one of
    two: the fragments the pool cut from the same database."""
    from pathlib import Path

    data = Path(__file__).parent / "data"
    assert main(["packdb", "build", "-i", str(data / "blastn_batch_db.fasta"),
                 "-o", str(tmp_path / "bb"),
                 "--fragments", "1" if jobs is None else "2"]) == 0
    capsys.readouterr()
    argv = ["blastn", "-d", str(tmp_path / "bb"),
            "-i", str(data / "blastn_batch_query.fasta"), "-m", fmt]
    if fmt == "report":
        argv.append("-a")
    if jobs is not None:
        argv += ["--jobs", jobs]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.encode() == (data / f"blastn_batch_{fmt}.expected").read_bytes()
    if fmt == "tabular":
        rows = [line.split("\t") for line in out.splitlines() if line]
        assert sum(int(row[5]) > 0 for row in rows) >= 8


@pytest.mark.parametrize("jobs", [None, "2"], ids=["serial", "jobs2"])
@pytest.mark.parametrize("fmt", ["tabular", "report"])
def test_blastp_batch_matches_the_committed_golden(fmt, jobs, tmp_path,
                                                   capsys):
    """A blastp batch prints, byte for byte, what the engine printed
    while its gapped problems still ran on separate kernels (the
    row-stacked one below 64 problems, two band-major passes from
    there).  The database holds two families of four mutated copies
    (10-35 % substitutions, up to two short indels) of a random
    ancestor, four short unrelated sequences and one of 1900 unknown
    residues; the four queries are mutated extracts of the ancestors
    with two short indels each.  Serially the batch plans 176 gapped
    problems, more than one align chunk holds, so it is scored first
    and only its survivors are aligned; at ``--jobs 2`` the pack with
    the unknown residues plans 16, which fit one chunk and are aligned
    directly (a serial run searches a store of one pack, a ``--jobs 2``
    run one of two).  The report prints every alignment (``-a``)."""
    from pathlib import Path

    data = Path(__file__).parent / "data"
    assert main(["packdb", "build", "-p",
                 "-i", str(data / "blastp_batch_db.fasta"),
                 "-o", str(tmp_path / "bp"),
                 "--fragments", "1" if jobs is None else "2"]) == 0
    capsys.readouterr()
    argv = ["blastall", "-p", "blastp", "-d", str(tmp_path / "bp"),
            "-i", str(data / "blastp_batch_query.fasta"), "-m", fmt]
    if fmt == "report":
        argv.append("-a")
    if jobs is not None:
        argv += ["--jobs", jobs]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.encode() == (data / f"blastp_batch_{fmt}.expected").read_bytes()
    if fmt == "tabular":
        rows = [line.split("\t") for line in out.splitlines() if line]
        assert sum(int(row[5]) > 0 for row in rows) >= 10


def test_blastp_batch_golden_takes_both_gapped_routes():
    """The blastp golden's batch is scored first as a whole, and aligned
    directly in the pool's lighter pack (what the pool's workers run
    per pack, replayed in-process)."""
    import importlib
    from pathlib import Path

    from repro.blast.alphabet import encode_protein
    from repro.blast.fasta import parse_fasta
    from repro.blast.programs import program_defaults
    from repro.blast.search import search_batch
    from repro.blast.seqdb import SequenceDB, segment_db

    search_mod = importlib.import_module("repro.blast.search")
    data = Path(__file__).parent / "data"
    db = SequenceDB("aa")
    for rec in parse_fasta((data / "blastp_batch_db.fasta").read_text()):
        db.add(rec.description, rec.sequence)
    queries = [encode_protein(rec.sequence) for rec in parse_fasta(
        (data / "blastp_batch_query.fasta").read_text())]
    scheme, params = program_defaults("blastp")
    routes = []
    real = search_mod.fits_one_align_chunk

    def spy(q_len, *args, **kwargs):
        routes.append((len(q_len), real(q_len, *args, **kwargs)))
        return routes[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search_mod, "fits_one_align_chunk", spy)
        search_batch(queries, db, scheme, params, both_strands=False)
        for fragment in segment_db(db, 2):
            search_batch(queries, fragment, scheme, params,
                         both_strands=False)
    assert routes[0] == (176, False)
    assert sorted(fits for _n, fits in routes[1:]) == [False, True]


@pytest.mark.parametrize("program", ["blastn", "tblastx", "psiblast"])
def test_d_refuses_a_path_that_holds_no_store(program, fasta_file, capsys):
    """``-d`` opens a pack store directory and nothing else: a path of
    the retired three-file format (``DIR/NAME`` beside ``NAME.nin`` /
    ``.nsq`` / ``.nhr``), a directory without a manifest and a missing
    path are each refused in one line naming the build command — exit
    2, nothing on stdout, no traceback."""
    _fasta, query, d = fasta_file
    for ext in ("nin", "nsq", "nhr"):
        with open(os.path.join(d, f"mini.{ext}"), "wb") as f:
            f.write(b"RPDB")
    argv = ["blastall", "-p", program] if program == "tblastx" else [program]
    for path in (f"{d}/mini", d, f"{d}/absent"):
        assert main(argv + ["-d", path, "-i", query]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"# -d {path}: not a pack store; build one "
                                f"with `repro packdb build -i FASTA -o "
                                f"DIR`\n")


def test_fragments_outside_a_pool_is_refused(fasta_file, capsys):
    """A store's packs are fixed when it is built (``packdb build
    --fragments``): a search takes no ``--fragments``, so the flag is
    refused while the arguments are parsed, not silently ignored."""
    _fasta, query, d = fasta_file
    for argv in (["blastn"], ["blastall", "-p", "blastn"]):
        with pytest.raises(SystemExit) as exited:
            main(argv + ["-d", d, "-i", query, "--jobs", "2",
                         "--fragments", "8"])
        assert exited.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1].endswith(
            "error: unrecognized arguments: --fragments 8")


_BLASTN = ["blastn", "-d", "db", "-i", "query.fasta"]


@pytest.mark.parametrize("argv,error", [
    pytest.param(["packdb", "build", "-i", "seqs.fasta", "-o", "store",
                  "--fragments", "-3"],
                 "repro packdb build: error: argument --fragments: must be "
                 ">= 1, got -3", id="fragments-negative"),
    pytest.param(_BLASTN + ["--jobs", "-1", "--nodes", "127.0.0.1:9"],
                 "repro blastn: error: argument -j/--jobs: must be >= 0, "
                 "got -1", id="jobs-negative"),
    pytest.param(_BLASTN + ["--nodes", "127.0.0.1:9", "--replication", "0"],
                 "repro blastn: error: argument --replication: must be >= 1, "
                 "got 0", id="replication-zero"),
    pytest.param(["packdb", "build", "-o", "store", "--fragments", "0"],
                 "repro packdb build: error: argument --fragments: must be "
                 ">= 1, got 0", id="packdb-fragments-zero"),
    pytest.param(["synthdb", "-o", "store", "--residues", "0"],
                 "repro synthdb: error: argument --residues: must be >= 1, "
                 "got 0", id="synthdb-residues-zero"),
    pytest.param(["psiblast", "-d", "db", "-i", "query.fasta", "-j", "-1"],
                 "repro psiblast: error: argument -j/--iterations: must be "
                 ">= 1, got -1", id="psiblast-iterations-negative"),
])
def test_out_of_range_counts_and_deadlines_are_usage_errors(argv, error,
                                                            capsys):
    """A fragment, residue, iteration or worker count or a deadline out
    of range is refused while the arguments are parsed (exit 2, one line
    naming the flag), before any file is read: not a ``ValueError``
    traceback, a silently ignored ``--fragments 0``, or a zero deadline
    that kills every task into the serial fallback."""
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == error


def test_blastall_jobs_falls_back_for_translated_programs(fasta_file, capsys):
    fasta, query, d = fasta_file
    main(["packdb", "build", "-i", fasta, "-o", f"{d}/mini"])
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
    main(["packdb", "build", "-i", fasta, "-o", f"{d}/mini"])
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
    main(["packdb", "build", "-i", fasta, "-o", f"{d}/mini"])
    capsys.readouterr()
    monkeypatch.setenv("REPRO_EXEC_FAULT_PLAN", '[{"kind": "kill"}]')
    assert main(["blastn", "-d", f"{d}/mini", "-i", query, "--jobs", "2",
                 "--no-respawn", "--no-fallback"]) == EXIT_POOL_FAILURE
    captured = capsys.readouterr()
    assert "pool failure" in captured.err


def test_blastn_jobs_degraded_exit_code(fasta_file, capsys, monkeypatch):
    from repro.cli import EXIT_DEGRADED

    fasta, query, d = fasta_file
    main(["packdb", "build", "-i", fasta, "-o", f"{d}/mini"])
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
    assert len(blastn) == 13 and ("-j", "--jobs") in blastn
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
    main(["packdb", "build", "-i", str(fasta), "-o", f"{tmp_path}/db"]
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
