"""Self-test of the benchmark harness (not part of tier-1's testpaths):

    PYTHONPATH=src python -m pytest -q perf/tests

``--smoke`` runs use 20 k-residue corpora and one block of three ops, so
the whole file takes about a minute.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

PERF = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERF)
sys.path.insert(0, PERF)
sys.path.insert(0, os.path.join(ROOT, "src"))

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_py(*args, cwd=ROOT, script=os.path.join(PERF, "run.py")):
    return subprocess.run([sys.executable, script, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One untraced and two traced smoke runs over all six workloads."""
    out = tmp_path_factory.mktemp("perf")
    docs, walls = {}, {}
    for tag, trace in (("e2e", "0"), ("traced", "1"), ("traced2", "1")):
        path = str(out / f"{tag}.json")
        t0 = time.perf_counter()
        proc = run_py("--smoke", "--seed", "1", "--trace", trace,
                      "--out", path)
        walls[tag] = time.perf_counter() - t0
        assert proc.returncode == 0, proc.stderr[-2000:]
        with open(path) as f:
            docs[tag] = json.load(f)
        docs[tag + ".last"] = json.loads(proc.stdout.splitlines()[-1])
    docs["walls"] = walls
    docs["dir"] = out
    return docs


def test_smoke_runs_everything_quickly_and_cleanly(smoke):
    # All six workloads plus the traced run, in well under a minute.
    assert smoke["walls"]["traced"] < 30
    for tag in ("e2e", "traced"):
        assert smoke[tag]["leaks"] == []
        assert list(smoke[tag]["workloads"]) == WORKLOADS
        for w in smoke[tag]["workloads"].values():
            assert w["correct"] and w["failed"] == 0 and w["attempted"] >= 3
        assert smoke[tag + ".last"]["correct"]
        assert smoke[tag + ".last"]["failed"] == 0


def test_emitted_names_are_exactly_the_specs(smoke):
    for tag, group in (("e2e", "end_to_end"), ("traced", "per_layer")):
        want = [m["name"] for m in SPEC[group]]
        units = {m["name"]: m["unit"] for m in SPEC[group]}
        for w in smoke[tag]["workloads"].values():
            assert list(w["metrics"]) == want
            for name, m in w["metrics"].items():
                assert re.fullmatch(r"[A-Za-z0-9_.-]+", name)
                assert m["unit"] == units[name]
                assert isinstance(m["value"], float)
    names = [m["name"] for g in ("end_to_end", "per_layer") for m in SPEC[g]]
    assert len(names) == len(set(names))
    for w in smoke["e2e"]["workloads"].values():
        for m in w["metrics"].values():
            assert m["value"] > 0          # end-to-end metrics are never 0


def test_counts_repeat_exactly_across_runs(smoke):
    # Everything that counts work or bytes.  The pool's own counters are
    # left out: its planner sizes tasks from the scan rate it observes,
    # and heartbeat losses depend on timing, not on the inputs.
    exact = [m["name"] for m in SPEC["per_layer"]
             if m["unit"] in ("count", "bytes")
             and not m["name"].startswith(("driver.", "pool."))
             and m["name"] not in ("nodes.reconnects",
                                   "nodes.heartbeat_losses")]
    assert sum(n.startswith("search.") for n in exact) == 8
    a = smoke["traced"]["workloads"][WORKLOADS[0]]["metrics"]
    b = smoke["traced2"]["workloads"][WORKLOADS[0]]["metrics"]
    for name in exact:
        assert a[name]["value"] == b[name]["value"], name


def test_healthy_run_has_no_recovery_actions(smoke):
    m = smoke["traced"]["workloads"][WORKLOADS[0]]["metrics"]
    for name in ("pool.requeues", "pool.respawns", "pool.fallbacks",
                 "nodes.reship_bytes", "driver.leaks"):
        assert m[name]["value"] == 0, name
    shadow = m["pool.shadow_critical_path_ms"]["value"]
    assert (shadow + m["pool.unattributed_ms"]["value"]
            == pytest.approx(m["pool.search_ms"]["value"]))


def test_span_files_nest_and_add_up(smoke):
    out = os.path.join(PERF, "out")
    for name in WORKLOADS + ["shadow.pool"]:
        with open(os.path.join(out, f"trace-{name}.jsonl")) as f:
            spans = [json.loads(line) for line in f]
        assert spans
        ids = {s["id"] for s in spans}
        by_op = {}
        for s in spans:
            assert s["workload"] == name
            assert s["parent"] in ids or (s["parent"] is None
                                          and s["name"] == "op")
            by_op.setdefault(s["op"], []).append(s)
        for op_spans in by_op.values():
            root = [s for s in op_spans if s["parent"] is None]
            assert len(root) == 1
            total = sum(s["self_ms"] for s in op_spans)
            assert total == pytest.approx(root[0]["dur_ms"], rel=0.05)


def test_one_flipped_reference_byte_is_a_failed_op(tmp_path):
    from harness import inputs
    from harness.checker import Checker
    from harness.runner import LeakWatch, WorkloadRun
    from harness.workloads import NtSingleSerial

    corpus = inputs.make_nt(1, residues=inputs.SMOKE_RESIDUES)
    checker = Checker(corpus)
    good = checker.references[0]
    run = WorkloadRun(NtSingleSerial(corpus, str(tmp_path)), checker,
                      LeakWatch(str(tmp_path)))
    run.run_block(budget_s=1.0, max_ops=2)
    assert run.failed == 0 and run.attempted >= 3

    flipped = bytearray(good.encode())
    flipped[len(flipped) // 2] ^= 0x01
    checker.references[0] = flipped.decode()
    assert checker.problem(0, good) is not None
    run = WorkloadRun(NtSingleSerial(corpus, str(tmp_path)), checker,
                      LeakWatch(str(tmp_path)))
    run.run_block(budget_s=1.0, max_ops=2)
    assert run.failed == 1              # query 0 is the block's first op
    assert "differs from the reference" in run.failures[0]


def test_wrong_top_hit_is_caught_without_a_reference():
    from harness import inputs
    from harness.checker import top_hit_problem

    corpus = inputs.make_nt(1, residues=inputs.SMOKE_RESIDUES, n_queries=2)
    line = "\t".join(["query", corpus.sources[0], "100.000", "568", "0", "0",
                      "1", "568", "1", "568", "0.0", "1050.0"])
    assert top_hit_problem(corpus, 0, line) is None
    assert top_hit_problem(corpus, 0, line.replace("100.000", "99.800"))
    assert top_hit_problem(corpus, 0, line.replace(corpus.sources[0], "x"))
    assert top_hit_problem(corpus, 0, "")


@pytest.mark.parametrize("trace,group", [("0", "end_to_end"),
                                         ("1", "per_layer")])
def test_driver_contract_for_one_workload(trace, group):
    proc = run_py("--smoke", "--workload", "nt_store_restart", "--seed", "3",
                  "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = json.loads(proc.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= 1
    assert list(last["metrics"]) == [m["name"] for m in SPEC[group]]
    for m in last["metrics"].values():
        assert set(m) == {"value", "unit"}


def test_no_process_outlives_the_run():
    # In a process of its own (stop_children reaps every child of its
    # caller): the resource tracker the pool starts ends by itself once
    # its pipe is closed, an orphaned grandchild is adopted and killed.
    code = (
        "import os, subprocess, sys\n"
        f"sys.path.insert(0, {PERF!r})\n"
        "from multiprocessing import resource_tracker\n"
        "from harness.runner import _children, adopt_orphans, stop_children\n"
        "adopt_orphans()\n"
        "resource_tracker.ensure_running()\n"
        "tracker = resource_tracker._resource_tracker._pid\n"
        "subprocess.run(['sh', '-c', 'sleep 60 & echo $!'])\n"
        "assert tracker in _children()\n"
        "print(tracker, stop_children(grace_s=0.2), _children())\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    sleeper, report = proc.stdout.splitlines()
    tracker, rest = report.split(" ", 1)
    assert rest == f"[{sleeper}] []"
    assert not os.path.exists(f"/proc/{tracker}")
    assert not os.path.exists(f"/proc/{sleeper}")


def test_fails_without_the_program_under_test(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(PERF, tmp_path / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__",
                                                  ".pytest_cache"))
    proc = run_py("--workload", "nt_single_serial", "--seed", "1",
                  "--seconds", "1", "--trace", "0", cwd=str(tmp_path),
                  script=str(tmp_path / "perf" / "run.py"))
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_compare_verdicts(smoke, tmp_path):
    a_path = str(smoke["dir"] / "e2e.json")
    assert run_py("--compare", a_path, a_path).returncode == 0

    doc = json.loads(json.dumps(smoke["e2e"]))
    w = doc["workloads"]["nt_single_pool2"]
    w["metrics"]["latency_ms_p50"]["value"] *= 2
    for blk in w["blocks"]:
        blk["latency_ms_p50"] *= 2
    slow = str(tmp_path / "slow.json")
    with open(slow, "w") as f:
        json.dump(doc, f)
    proc = run_py("--compare", a_path, slow)
    assert proc.returncode == 1
    rows = [r for r in proc.stdout.splitlines() if "latency_ms_p50" in r]
    assert [r.split()[-1] for r in rows].count("worse") == 1
    assert run_py("--compare", slow, a_path).returncode == 0   # B is better

    doc = json.loads(json.dumps(smoke["e2e"]))
    doc["workloads"]["aa_gapped_serial"]["failed"] = 1
    broken = str(tmp_path / "broken.json")
    with open(broken, "w") as f:
        json.dump(doc, f)
    proc = run_py("--compare", a_path, broken)
    assert proc.returncode == 1 and "failed ops rose" in proc.stdout


def test_compare_reports_noise_as_unresolved():
    from harness.compare import verdict

    # Quiet runs: the medians decide.
    assert verdict(100, 108, [99, 100, 101], [107, 108, 109],
                   "lower", 0.10) == "same"
    assert verdict(100, 120, [99, 100, 101], [119, 120, 121],
                   "lower", 0.10) == "worse"
    assert verdict(10, 8, [10, 10, 10], [8, 8, 8], "higher", 0.10) == "worse"
    # Block spread wider than the bound and overlapping: cannot tell.
    assert verdict(100, 120, [80, 100, 125], [95, 120, 140],
                   "lower", 0.10) == "unresolved"
    # ... unless every block of B reads better than every block of A,
    assert verdict(100, 60, [80, 100, 125], [55, 60, 70],
                   "lower", 0.10) == "same"
    # ... or worse, and by more than the bound.
    assert verdict(100, 200, [80, 100, 125], [180, 200, 230],
                   "lower", 0.10) == "worse"
