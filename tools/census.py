#!/usr/bin/env python
"""Census of the library surface: what under ``src/repro`` does no
entry point reach?

One AST walk, no imports of the code it reads.  The **roots** are the
things somebody runs — ``repro.cli`` and every ``.py`` under ``perf/``,
``benchmarks/``, ``examples/`` and ``tools/``; tests are not roots, so
a module only its own test imports is listed.  From the roots the walk
follows *uses*, not imports: an ``import`` statement only binds a name,
and a binding reaches its target when live code mentions the name.  A
package ``__init__`` that re-exports ``search_segmented`` therefore
keeps ``queryseg.py`` alive only if somebody imports that name from the
package and uses it.  (In a root file the import itself counts as the
use.)

Units of liveness are a module's top-level functions, classes and
assignments, and each method of a class separately: a method is live
when its class is and its name occurs as an attribute (or a
``getattr`` literal) anywhere in live code — name-based, so it
under-reports rather than over-reports.  The exception is a method
named like one of ``list``'s (``append``, ``count``, ``clear``, …),
which every list in live code would keep alive: it is live only
through a :data:`CALLED_BY` line naming who calls it.

Reported, each with its allowlist reason or ``UNLISTED``:

* modules no root reaches;
* public top-level names and public methods no root reaches;
* ``SearchParams`` fields no root, library caller or doc sets to a
  non-default value;
* ``ExecPool`` keywords no root passes, in an ``ExecPool(...)`` call or
  through the CLI flag DESIGN.md's knob table pairs the keyword with;
* CLI flags no root, doc, workflow or Makefile spells.  The knob table
  names every pool flag, so it does not count as spelling one;
* defaulted parameters of live functions, methods and hand-written
  ``__init__`` s (``ExecPool.__init__`` and ``SearchParams`` have the
  passes above) that no root, live library code or doc passes a value
  other than the default, written ``module.function(param)``.  A call
  passes by keyword, by position, or through a ``**d`` whose keys the
  caller spells (a dict display, ``dict(k=…)``, ``d[k] = v``); an
  explicit default literal passes nothing.  A doc passes in a fenced
  code block, a workflow's ``python - <<'EOF'`` heredoc, or an inline
  call span that has a keyword.  Calls resolve as Python binds names:
  the caller's scopes, then its module's definitions and imports; a
  method through the class of what it is called on — ``self``,
  ``cls``, ``super()``, a class, or a value whose class an annotation
  names (a parameter's, a return's, a class field's, a ``self.x``
  assignment's), overriding subclasses included.  A function handed on
  as a value (a verb table, a callback) counts as passed everything, so
  the pass under-reports too.  A call or value it cannot resolve
  (``args.filter``, ``servers[3].fail``) may reach every function of
  that name: what it passes is printed as *unknown*, neither a finding
  nor passed.  A default nothing overrides is a constant; a finding
  stays only with a reason naming who needs the parameter (a test
  seam, ``perf/``, an item of the ROADMAP).

A second pass drops ``perf/`` from the roots: what only the benchmark
reaches — names, and parameters only ``perf/`` passes — is the
deletion list of the ``[benchmark]`` PR that may edit ``perf/``
(ROADMAP 2(a)), printed as its own table with the reason each entry is
still there.  A :data:`CALLED_BY` line whose caller is under ``perf/``
does not count in that pass.

``tests/test_census.py`` requires findings == :data:`ALLOWLIST` keys
and the second table == :data:`PERF_ONLY` keys, both ways, so the
lists can only shrink.  Usage::

    PYTHONPATH=src python tools/census.py     # table; exit 1 on a diff
"""

from __future__ import annotations

import ast
import pathlib
import re
import sys
import textwrap
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

REPO = pathlib.Path(__file__).resolve().parent.parent
ROOT_MODULES = ("repro.cli",)
ROOT_DIRS = ("perf", "benchmarks", "examples", "tools")
#: Where an option may be "set": prose and workflows beside the roots.
DOC_GLOBS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/*.md",
             "perf/README.md", ".github/workflows/*.yml", "Makefile")

_AUDIT = ("the simulator's drain / consistency audit (repro.sim.check): "
          "safety tooling that tests, REPRO_STRICT_INVARIANTS=1 runs and "
          "the verify recipe's assert_drained() call; no root does")
_SIM_STAT = ("read-only statistic of a simulator component that only "
             "tests read; simulator half of ROADMAP 9")
_SIM_API = ("simulator modelling surface no root calls; simulator half "
            "of ROADMAP 9")
_TEST_HOOK = ("fault-injection / leak-check hook of the pack store: "
              "tests/test_diskpack.py and tests/test_exec_pool.py assert "
              "through it that no mapping or build directory outlives a "
              "test")

_ONE_QUERY = ("the one-query spelling of a batch call takes the batch's "
              "keywords; tests (test_query_batch.py, test_exec_pool.py, "
              "test_diskpack.py, test_blast_scankernel.py) run single-"
              "strand, fixed-space and own-cache searches through it")
_SCHEMES = ("tests/test_blast_extend_gapped.py and test_blast_gapped_bulk.py "
            "draw random nucleotide schemes to hold the kernels to the "
            "oracle off the blastn default")
_LRU = ("tests/test_blast_scankernel.py shrinks the scan cache's bounds to "
        "watch it evict")
_FAKE_CLOCK = ("seam of the fake-clock backoff tests in tests/test_exec_net.py"
               ": they inject sleep / rng / connect and pin the schedule "
               "with their own base, jitter off and a high cap")
_PLANNER = ("plan_task_ranges is reached by perf/ alone (PERF_ONLY) and "
            "leaves whole with its caller in the [benchmark] PR, ROADMAP "
            "2(a); reshaping it first would edit perf/'s call")
_TRACER = ("records a simulated run's I/O trace (the paper's Fig. 4); only "
           "tests record one until ROADMAP 1(d) replays it")
_SIM_PARAM = ("simulator modelling parameter that only its tests vary "
              "(fs, sim and workloads tests); simulator half of ROADMAP "
              "9(d), after item 16")
_PARALLEL = ("parameter of the simulated master loop, which ROADMAP 16 "
             "rewrites onto the real pump; it goes or stays with that loop")

#: Finding → why it stays.  An entry whose finding is gone fails the
#: test just like a finding with no entry.
ALLOWLIST: Dict[str, str] = {
    # -- modules -------------------------------------------------------
    "repro.trace.replay": "ROADMAP 1(d): replaying a real run's trace "
    "into the simulated cluster is what closes the simulator loop",
    # -- the search library and the runtime ----------------------------
    "repro.exec.diskpack.build_roots": _TEST_HOOK,
    "repro.exec.diskpack.corrupt_pack_file": _TEST_HOOK,
    "repro.exec.diskpack.open_pack_count": _TEST_HOOK,
    "repro.exec.shm.corrupt_segment": "fault hook: tests/test_exec_shm.py "
    "and tests/test_diskpack.py tear a published segment through it; an "
    "agent's corrupt_pack fault scribbles its own mapping instead",
    # -- the simulator --------------------------------------------------
    "repro.cluster.cpu.CPU.drain_errors": _AUDIT,
    "repro.cluster.cpu.CPU.invariant_errors": _AUDIT,
    "repro.cluster.disk.Disk.drain_errors": _AUDIT,
    "repro.cluster.disk.Disk.invariant_errors": _AUDIT,
    "repro.cluster.network.NIC.drain_errors": _AUDIT,
    "repro.cluster.network.NIC.invariant_errors": _AUDIT,
    "repro.sim.check.InvariantMonitor.assert_consistent": _AUDIT,
    "repro.sim.check.InvariantMonitor.assert_drained": _AUDIT,
    "repro.sim.check.InvariantMonitor.audit": _AUDIT,
    "repro.sim.check.InvariantMonitor.drain_audit": _AUDIT,
    "repro.sim.engine.Simulator.peek": _AUDIT,
    "repro.sim.resources.Resource.drain_errors": _AUDIT,
    "repro.sim.resources.Resource.invariant_errors": _AUDIT,
    "repro.sim.resources.Store.drain_errors": _AUDIT,
    "repro.sim.resources.Store.invariant_errors": _AUDIT,
    "repro.cluster.cpu.CPU.active_tasks": _SIM_STAT,
    "repro.cluster.cpu.CPU.utilization": _SIM_STAT,
    "repro.cluster.memory.PageCache.cached_bytes": _SIM_STAT,
    "repro.cluster.memory.PageCache.hit_ratio": _SIM_STAT,
    "repro.fs.ceft.CEFT.group_size": _SIM_STAT,
    "repro.fs.striping.StripeLayout.server_bytes": _SIM_STAT,
    "repro.parallel.master.JobResult.compute_time_max": _SIM_STAT,
    "repro.parallel.master.JobResult.io_time_max": _SIM_STAT,
    "repro.parallel.mpi.Messenger.pending": _SIM_STAT,
    "repro.sim.events.Event.ok": _SIM_STAT,
    "repro.sim.fuzz.FuzzReport.ok": _SIM_STAT,
    "repro.sim.monitor.Monitor.count": _SIM_STAT,
    "repro.sim.monitor.Monitor.series": _SIM_STAT,
    "repro.sim.monitor.Monitor.stddev": _SIM_STAT,
    "repro.sim.monitor.Monitor.variance": _SIM_STAT,
    "repro.sim.monitor.TimeWeightedMonitor.busy_fraction": _SIM_STAT,
    "repro.sim.monitor.TimeWeightedMonitor.time_average": _SIM_STAT,
    "repro.trace.record.TraceRecord.duration": _SIM_STAT,
    "repro.workloads.synthdb.DatabaseSpec.mean_length": _SIM_STAT,
    "repro.cluster.network.Network.message_time": _SIM_API,
    "repro.cluster.node.Node.compute": _SIM_API,
    "repro.core.calibration.BlastCostModel.with_scan_rate": _SIM_API,
    "repro.core.calibration.BlastCostModel.with_warm_factor": _SIM_API,
    "repro.core.metrics.amdahl_time": _SIM_API,
    "repro.core.metrics.efficiency": _SIM_API,
    "repro.core.metrics.io_fraction": _SIM_API,
    "repro.core.metrics.speedup": _SIM_API,
    "repro.core.report.format_comparison": _SIM_API,
    "repro.fs.ceft.CEFT.fail_server": _SIM_API,
    "repro.parallel.iomodel.steps_summary": _SIM_API,
    "repro.sim.engine.Simulator.event": _SIM_API,
    "repro.sim.resources.Container": _SIM_API,
    "repro.sim.resources.ContainerOp": _SIM_API,
    "repro.sim.resources.PriorityResource": _SIM_API,
    "repro.workloads.queries.sample_query_length": _SIM_API,
    "repro.workloads.queries.synthetic_query": _SIM_API,
    "repro.workloads.synthdb.synthetic_nt_fasta": _SIM_API,
    "repro.trace.collector.TraceCollector.clear": "empties a simulated "
    "run's I/O trace; only tests/test_trace.py calls it, simulator half "
    "of ROADMAP 9",
    # -- options nobody sets ---------------------------------------------
    "SearchParams.max_hsps": "bounds candidates and reported HSPs per "
    "subject (NCBI's default behaviour); a constant unless a workload "
    "needs another value — making it one is a driver edit for a "
    "[benchmark]-checked PR",
    "SearchParams.neighbor_threshold": "blastp's T, NCBI -f; "
    "tests/test_blast_psiblast.py and the word-index tests vary it",
    "ExecPool respawn": "reached only through --no-respawn, which "
    "tests/test_cli.py uses to reach exits 3 and 5 (a pool that cannot "
    "recover)",
    "cli --no-respawn": "tests/test_cli.py reaches exits 3 and 5 through "
    "it: with respawn on, a killed worker is replaced and the run "
    "recovers",
    "cli --inclusion-evalue": "psiblast's -h (NCBI); library callers pass "
    "inclusion_evalue= directly, nothing scripts the flag",
    "cli --word-size": "packdb build: recorded in the manifest and read "
    "by no search (a pack serves every word size); leaves with the next "
    "format bump, ROADMAP 7(e)",
    "cli --max-sessions": "CLI spelling of NodeAgent.serve(max_sessions=), "
    "which tests/test_exec_net.py drives: an agent that exits by itself",
    "cli --node-id": "CLI spelling of NodeAgent(node_id=): stable agent "
    "identity across restarts (reconnect-adopt, DESIGN.md §5k)",
    "cli --placement": "the paper's dedicated-vs-colocated I/O servers "
    "(§4.4) from the command line; benchmarks set it through "
    "ExperimentConfig instead",
    "cli --queryseg": "the paper's other parallelisation (§2.2) from "
    "the command line (tests/test_cli.py); benchmarks set it through "
    "ExperimentConfig",
    # -- parameters only tests pass --------------------------------------
    "repro.blast.search.search(both_strands)": _ONE_QUERY,
    "repro.blast.search.search(effective_space)": _ONE_QUERY,
    "repro.blast.search.search(ka)": _ONE_QUERY,
    "repro.blast.search.search(scan_cache)": _ONE_QUERY,
    "repro.exec.pool.ExecPool.search(both_strands)": _ONE_QUERY,
    "repro.exec.pool.ExecPool.search(keep_fragment_ids)": _ONE_QUERY,
    "repro.exec.pool.ExecPool.search(query_id)": _ONE_QUERY,
    "repro.exec.diskpack.search_store(both_strands)": _ONE_QUERY,
    "repro.exec.diskpack.search_store(query_id)": _ONE_QUERY,
    "repro.blast.gapped.banded_local_align(identity_query)": "the PSSM "
    "case of the one-problem kernel call: tests/test_blast_extend_gapped.py"
    " holds position-index queries with residue identities to the oracle "
    "through it",
    "repro.blast.score.NucleotideScore(match)": _SCHEMES,
    "repro.blast.score.NucleotideScore(mismatch)": _SCHEMES,
    "repro.blast.score.NucleotideScore(gap_open)": _SCHEMES,
    "repro.blast.score.NucleotideScore(gap_extend)": _SCHEMES,
    "repro.blast.scankernel.ScanCache(max_entries)": _LRU,
    "repro.blast.scankernel.ScanCache(max_bytes)": _LRU,
    "repro.exec.net.connect_backoff(sleep)": _FAKE_CLOCK,
    "repro.exec.net.connect_backoff(rng)": _FAKE_CLOCK,
    "repro.exec.net.connect_backoff(connect)": _FAKE_CLOCK,
    "repro.exec.net.connect_backoff(jitter)": _FAKE_CLOCK,
    "repro.exec.net.connect_backoff(max_delay)": _FAKE_CLOCK,
    "repro.exec.net.connect_backoff(base_delay)": _FAKE_CLOCK,
    "repro.exec.schedule.plan_query_batches(max_batch)": "the batch cap "
    "the shape property in tests/test_query_batch.py sweeps; the pool "
    "always cuts at DEFAULT_MAX_QUERY_BATCH",
    "repro.exec.schedule.plan_task_ranges(granularity)": _PLANNER,
    "repro.exec.schedule.plan_task_ranges(overhead_s)": _PLANNER,
    "repro.exec.schedule.plan_task_ranges(scan_rate)": _PLANNER,
    "repro.exec.shm.PackView.corrupt(field)": "fault hook: "
    "tests/test_exec_shm.py tears a named section to see the CRC name it",
    "repro.fs.ceft.CEFT(tracer)": _TRACER,
    "repro.fs.localfs.LocalFS(tracer)": _TRACER,
    "repro.fs.nfs.NFS(tracer)": _TRACER,
    "repro.fs.pvfs.PVFS(tracer)": _TRACER,
    "repro.trace.collector.TraceCollector(enabled)": _TRACER,
    "repro.fs.ceft.CEFT.populate(mirrored)": _SIM_PARAM,
    "repro.fs.ceft.CEFTClient.create(mirrored)": _SIM_PARAM,
    "repro.fs.ceft.CEFTClient.create(size)": _SIM_PARAM,
    "repro.fs.localfs.LocalFS.write(sync)": _SIM_PARAM,
    "repro.fs.dataserver.DataServer(use_cache)": _SIM_PARAM,
    "repro.sim.engine.Simulator(start)": _SIM_PARAM,
    "repro.sim.engine.Simulator(strict)": _SIM_PARAM,
    "repro.sim.engine.StopProcess(value)": _SIM_PARAM,
    "repro.sim.resources.Resource(capacity)": _SIM_PARAM,
    "repro.sim.resources.Resource.request(priority)": _SIM_PARAM,
    "repro.sim.fuzz.ScheduleFuzzer.run(raise_on_divergence)": "tests/"
    "test_schedule_fuzz.py collects every divergent seed instead of "
    "stopping at the first; tools/fuzz_schedules.py stops",
    "repro.sim.events.Timeout(value)": _SIM_PARAM,
    "repro.sim.process.Process.cancel(cause)": _SIM_PARAM,
    "repro.workloads.synthdb.synthetic_nt_db(mean_length)": _SIM_PARAM,
    "repro.parallel.iomodel.fragment_steps(rng)": _PARALLEL,
    "repro.parallel.mpiblast.run_parallel_blast(degraded_mode)": _PARALLEL,
    "repro.parallel.mpiblast.run_query_stream(time_limit)": _PARALLEL,
}

_WIRE = ("the shm / codec result wire no runtime path uses since PR 24 "
         "(a result is one pickle); perf/harness/layers.py still times it")
_DENSE = ("the dense per-residue definition the scan no longer stores, "
          "derived on read; only perf/harness/layers.py's slope check "
          "reads it")

_AA_SHAPE = ("stays: synthetic_aa_db's protein length shape (sigma 0.45, "
             "at least 40 residues); perf/ is the only root that builds "
             "the protein corpus")

#: Names only ``perf/`` reaches → why they are still in ``src/``.  The
#: benchmark's paths are frozen for ordinary PRs, so these wait for the
#: ``[benchmark]`` PR of ROADMAP 2(a), which deletes them with their
#: callers.
PERF_ONLY: Dict[str, str] = {
    # -- to delete -------------------------------------------------------
    "repro.exec.results.decode_result_pairs": _WIRE,
    "repro.exec.results.encode_result_pairs": _WIRE,
    "repro.exec.results.estimate_payload_size": _WIRE,
    "repro.exec.shm.ArenaSpec": _WIRE,
    "repro.exec.shm.ResultArena": _WIRE,
    "repro.blast.scankernel.ScanStructures.code_pos": _DENSE,
    "repro.blast.scankernel.ScanStructures.codes": _DENSE,
    "repro.exec.schedule.plan_task_ranges": "the runtime builds one task "
    "per pack; perf/harness/layers.py's shadow pool still plans with it",
    "repro.exec.nodes.execute_task(cache)": "perf/harness/layers.py's "
    "shadow pool hands execute_task its own ScanCache; node agents use "
    "the process-wide one",
    "repro.blast.scankernel.ScanCache.clear": "perf/harness empties "
    "default_scan_cache() so every block starts cold; no runtime path "
    "empties the cache (its CALLED_BY line names perf/)",
    # -- to keep: the benchmark is their only caller among the roots ---
    "repro.blast.gapped.banded_local_align": "stays: the one-problem "
    "call of banded_local_align_many (repro.blast exports it, and the "
    "kernel tests hold it to the oracle); the driver aligns a batch's "
    "problems in one many-call, gapped.traceback_ms_per_pair times it",
    "repro.blast.fasta.write_fasta": "stays: the library's FASTA writer "
    "(round-tripped by the fasta tests); the store workload writes its "
    "corpus with it",
    "repro.blast.scankernel.scan_fragment": "stays while perf/ reads "
    "it: the per-group view of scan_fragment_batch for one index, which "
    "perf/harness/layers.py times and counts hits from; it leaves with "
    "ROADMAP 2(a)",
    "repro.exec.diskpack.search_store": "stays: the documented one-query "
    "spelling of search_store_batch (README, TUTORIAL); nt_store_restart "
    "is it",
    "repro.exec.pool.ExecPool.worker_pids": "stays: the fault-injection "
    "hook the chaos tests signal workers through; the benchmark reads "
    "peak RSS of the same pids",
    "repro.workloads.synthdb.synthetic_aa_db": "stays: the protein corpus "
    "generator behind aa_gapped_serial and the blastp tests",
    "repro.workloads.synthdb._sample_lengths(sigma)": _AA_SHAPE,
    "repro.workloads.synthdb._sample_lengths(min_len)": _AA_SHAPE,
}

#: Methods named like one of ``list``'s (see :data:`_LIST_NAMES`) that
#: live code does call → the caller.  Such a method is live only
#: through its line here; a method that leaves takes its line with it.
#: A line whose caller starts ``perf/`` is a benchmark caller: the
#: perf-less pass drops it, so the method shows in :data:`PERF_ONLY`.
CALLED_BY: Dict[str, str] = {
    "repro.blast.profile.StageProfile.count": "repro.blast.search and "
    "repro.blast.scankernel count seeds, DP problems and scan candidates "
    "on the active profile (prof.count)",
    "repro.blast.scankernel.ScanCache.clear": "perf/harness (workloads.py, "
    "checker.py, layers.py) empties default_scan_cache() so every block "
    "starts cold",
    "repro.blast.search.SearchResults.sort": "merge_fragment_results, "
    "render.render_results and xmlout.to_xml put every result in "
    "report order",
    "repro.cluster.memory.PageCache.insert": "repro.fs.localfs and "
    "repro.fs.dataserver fill a node's page cache on every simulated read",
    "repro.sim.resources.Resource.count": "repro.cluster.network reads "
    "nic.tx.count / rx.count to drive the link-busy monitors",
}

_MODULE_UNIT = "<module>"
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
#: A method named like one of ``list``'s is not live by name: every
#: ``xs.append(x)`` would otherwise keep each ``append`` alive.
_LIST_NAMES = frozenset(n for n in dir(list) if not n.startswith("_"))


class Module:
    """One parsed source file: its import bindings and liveness units."""

    def __init__(self, name: str, tree: ast.Module, is_package: bool):
        self.name = name
        self.tree = tree
        self.is_package = is_package
        #: bound name → [(module, attribute or None)]
        self.imports: Dict[str, List[Tuple[str, Optional[str]]]] = {}
        #: unit name ("f", "C", "C.m", "<module>") → its AST nodes
        self.units: Dict[str, List[ast.AST]] = {_MODULE_UNIT: []}
        #: the units that are functions, classes or methods (an API,
        #: where a top-level assignment is a constant or a table)
        self.defs: Set[str] = set()
        for node in ast.walk(tree):
            self._bind(node)
        for stmt in tree.body:
            self._add_unit(stmt)

    def _bind(self, node: ast.AST) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    self.imports.setdefault(alias.asname, []).append(
                        (alias.name, None))
                else:   # ``import a.b.c`` binds ``a``
                    top = alias.name.split(".")[0]
                    self.imports.setdefault(top, []).append((top, None))
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = self.name.split(".")
                keep = len(parts) - node.level + (1 if self.is_package else 0)
                base = ".".join(parts[:keep] + ([base] if base else []))
            for alias in node.names:
                self.imports.setdefault(alias.asname or alias.name,
                                        []).append((base, alias.name))

    def _add_unit(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            return
        if isinstance(stmt, _FUNCTIONS):
            self.units.setdefault(stmt.name, []).append(stmt)
            self.defs.add(stmt.name)
        elif isinstance(stmt, ast.ClassDef):
            head = self.units.setdefault(stmt.name, [])
            self.defs.add(stmt.name)
            head.extend(stmt.decorator_list + stmt.bases)
            for sub in stmt.body:
                if isinstance(sub, _FUNCTIONS) and not _dunder(sub.name):
                    method = f"{stmt.name}.{sub.name}"
                    self.units.setdefault(method, []).append(sub)
                    self.defs.add(method)
                else:
                    head.append(sub)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) \
                else [stmt.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            for name in names:
                self.units.setdefault(name, []).append(stmt)
            if not names:
                self.units[_MODULE_UNIT].append(stmt)
        else:
            self.units[_MODULE_UNIT].append(stmt)

    def methods(self, cls: str) -> Iterator[str]:
        prefix = cls + "."
        return (u for u in self.units if u.startswith(prefix))


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def load_package(src: pathlib.Path, package: str = "repro"
                 ) -> Dict[str, Module]:
    """Every module of *package* under *src*, parsed."""
    modules = {}
    for path in sorted((src / package).rglob("*.py")):
        rel = path.relative_to(src).with_suffix("")
        parts = list(rel.parts)
        is_package = parts[-1] == "__init__"
        if is_package:
            parts.pop()
        name = ".".join(parts)
        modules[name] = Module(name, ast.parse(path.read_text()), is_package)
    return modules


class Census:
    """Liveness fixpoint over *modules* from a set of roots."""

    def __init__(self, modules: Dict[str, Module],
                 called_by: Iterable[str] = ()):
        self.modules = modules
        self.called_by = set(called_by)
        self.live: Set[Tuple[str, str]] = set()
        self.used_attrs: Set[str] = set()
        #: the parsed root files, for the parameter pass
        self.root_trees: List[ast.Module] = []
        self._todo: List[Tuple[Module, List[ast.AST]]] = []

    # -- marking ---------------------------------------------------------
    def reach_module(self, name: str) -> None:
        """Importing ``a.b.c`` runs ``a``, ``a.b`` and ``a.b.c``."""
        parts = name.split(".")
        for i in range(1, len(parts) + 1):
            self._mark(".".join(parts[:i]), _MODULE_UNIT)

    def _mark(self, modname: str, unit: str) -> None:
        mod = self.modules.get(modname)
        if mod is None or unit not in mod.units \
                or (modname, unit) in self.live:
            return
        self.live.add((modname, unit))
        self._todo.append((mod, mod.units[unit]))

    def reach(self, modname: str, attr: Optional[str],
              _seen: Optional[set] = None) -> None:
        """Live code mentioned the binding ``(modname, attr)``."""
        if modname not in self.modules:
            return
        if attr is None:
            self.reach_module(modname)
            return
        sub = f"{modname}.{attr}"
        if sub in self.modules:
            self.reach_module(sub)
            return
        self.reach_module(modname)
        mod = self.modules[modname]
        if attr in mod.units:
            self._mark(modname, attr)
        seen = _seen if _seen is not None else set()
        if (modname, attr) in seen:
            return
        seen.add((modname, attr))
        for target in mod.imports.get(attr, ()):     # a re-export
            self.reach(*target, _seen=seen)

    # -- scanning --------------------------------------------------------
    def _denotes(self, mod: Module, node: ast.AST) -> List[str]:
        """Module names the expression *node* can denote, marking
        everything it mentions on the way."""
        if isinstance(node, ast.Name):
            found = []
            if node.id in mod.units:
                self._mark(mod.name, node.id)
            for target, attr in mod.imports.get(node.id, ()):
                self.reach(target, attr)
                name = target if attr is None else f"{target}.{attr}"
                if name in self.modules:
                    found.append(name)
            return found
        if isinstance(node, ast.Attribute):
            self.used_attrs.add(node.attr)
            found = []
            for base in self._denotes(mod, node.value):
                self.reach(base, node.attr)
                if f"{base}.{node.attr}" in self.modules:
                    found.append(f"{base}.{node.attr}")
            return found
        return []

    def _scan(self, mod: Module, nodes: Iterable[ast.AST]) -> None:
        for root in nodes:
            for node in ast.walk(root):
                if isinstance(node, (ast.Name, ast.Attribute)):
                    self._denotes(mod, node)
                elif (isinstance(node, ast.Call)
                      and getattr(node.func, "id", None)
                      in ("getattr", "hasattr", "setattr")
                      and len(node.args) >= 2
                      and isinstance(node.args[1], ast.Constant)
                      and isinstance(node.args[1].value, str)):
                    self.used_attrs.add(node.args[1].value)

    def add_root_module(self, name: str) -> None:
        """A library module somebody runs (``repro.cli``): every unit
        of it is live, and its imports count as uses."""
        mod = self.modules[name]
        self.reach_module(name)
        for unit in mod.units:
            self._mark(name, unit)
        self._use_imports(mod)

    def add_root_file(self, tree: ast.Module) -> None:
        """A script outside the package: everything in it is live."""
        mod = Module("", tree, False)
        self.root_trees.append(tree)
        self._todo.append((mod, [tree]))
        self._use_imports(mod)

    def _use_imports(self, mod: Module) -> None:
        for targets in mod.imports.values():
            for target in targets:
                self.reach(*target)

    def run(self) -> None:
        while True:
            while self._todo:
                mod, nodes = self._todo.pop()
                self._scan(mod, nodes)
            before = len(self.live)
            for modname, unit in sorted(self.live):
                for method in self.modules[modname].methods(unit):
                    name = method.split(".", 1)[1]
                    if name in self.used_attrs and (
                            name not in _LIST_NAMES
                            or f"{modname}.{method}" in self.called_by):
                        self._mark(modname, method)
            if len(self.live) == before:
                return

    # -- reading ---------------------------------------------------------
    def unreached_modules(self) -> List[str]:
        return sorted(name for name, mod in self.modules.items()
                      if (name, _MODULE_UNIT) not in self.live)

    def unreached_names(self) -> List[str]:
        """Public top-level names and public methods of reached modules
        that no live code mentions."""
        dead = set(self.unreached_modules())
        out = []
        for name, mod in self.modules.items():
            if name in dead:
                continue
            for unit in sorted(mod.defs):
                if (name, unit) in self.live:
                    continue
                cls, _, member = unit.rpartition(".")
                if (member.startswith("_") or cls.startswith("_")
                        or _dunder(member)):
                    continue
                if cls and (name, cls) not in self.live:
                    continue        # the class itself is the finding
                out.append(f"{name}.{unit}")
        return sorted(out)


# ----------------------------------------------------------------------
def root_files(repo: pathlib.Path,
               dirs: Iterable[str] = ROOT_DIRS) -> List[pathlib.Path]:
    return [path for d in dirs
            for path in sorted((repo / d).rglob("*.py"))
            if "out" not in path.relative_to(repo).parts[1:-1]]


def reachability(repo: pathlib.Path, package: str = "repro",
                 root_modules: Iterable[str] = ROOT_MODULES,
                 root_dirs: Iterable[str] = ROOT_DIRS,
                 called_by: Iterable[str] = CALLED_BY) -> Census:
    census = Census(load_package(repo / "src", package), called_by)
    for name in root_modules:
        census.add_root_module(name)
    for path in root_files(repo, root_dirs):
        census.add_root_file(ast.parse(path.read_text()))
    census.run()
    return census


#: DESIGN.md §5e's knob table pairs each pool keyword with its CLI
#: flag; it names every flag, so it is no evidence that anybody sets one.
_KNOB_TABLE = re.compile(
    r"<!-- knob-table:begin -->\n(.*?)<!-- knob-table:end -->", re.S)


def _doc_text(repo: pathlib.Path) -> str:
    """The docs, workflows and Makefile, the knob table cut out."""
    return _KNOB_TABLE.sub("", "\n".join(
        path.read_text() for glob in DOC_GLOBS
        for path in sorted(repo.glob(glob))))


def unset_search_params(repo: pathlib.Path) -> List[str]:
    """``SearchParams`` fields that nothing outside the tests sets to a
    value other than the default: no keyword in a root or under
    ``src/`` (any call keyword of that name counts, so this
    under-reports), no ``field=`` in a doc's code block."""
    tree = ast.parse((repo / "src/repro/blast/search.py").read_text())
    cls = next(n for n in tree.body
               if isinstance(n, ast.ClassDef) and n.name == "SearchParams")
    defaults = {s.target.id: ast.dump(s.value) for s in cls.body
                if isinstance(s, ast.AnnAssign) and s.value is not None}
    files = sorted((repo / "src").rglob("*.py")) + root_files(repo)
    set_somewhere = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                for kw in node.keywords:
                    if kw.arg in defaults and \
                            ast.dump(kw.value) != defaults[kw.arg]:
                        set_somewhere.add(kw.arg)
    # In a doc, only an example sets an option; prose describes it.
    examples = "\n".join(re.findall(r"```.*?```", _doc_text(repo), re.S))
    for field in defaults:
        if re.search(rf"\b{field}\s*=", examples):
            set_somewhere.add(field)
    return sorted(f"SearchParams.{f}" for f in defaults
                  if f not in set_somewhere)


def _spelling_text(repo: pathlib.Path) -> str:
    """Where a flag counts as spelled: roots, docs, workflows and the
    Makefile (``cli.py``'s own text and this file's do not count)."""
    return _doc_text(repo) + "\n".join(
        path.read_text() for path in root_files(repo)
        if path != pathlib.Path(__file__).resolve())


def _spelled(flag: str, text: str) -> bool:
    return re.search(rf"(?<![\w-]){re.escape(flag)}(?![\w-])",
                     text) is not None


def unused_cli_flags(repo: pathlib.Path) -> List[str]:
    """Options of ``repro.cli`` none of whose spellings (``-e`` or
    ``--evalue``) is written as a word in a root, doc, workflow or
    Makefile."""
    tree = ast.parse((repo / "src/repro/cli.py").read_text())
    text = _spelling_text(repo)
    unused = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and \
                getattr(node.func, "attr", None) == "add_argument":
            spellings = [a.value for a in node.args
                         if isinstance(a, ast.Constant)
                         and str(a.value).startswith("-")]
            if spellings and not any(_spelled(s, text) for s in spellings):
                unused.add(f"cli {spellings[-1]}")
    return sorted(unused)


def _pool_keywords_by_flag(repo: pathlib.Path) -> Dict[str, Set[str]]:
    """Each ``cli.py`` flag → the ``ExecPool`` keywords the handlers of
    the commands defining it pass.  A command is a parser a function
    of ``cli.py`` builds (``X = ….add_parser(…)``), with the flags
    added to it there or by the helpers it is handed to, and its
    handler ``X.set_defaults(fn=…)``; a handler passes what it and the
    ``cli.py`` functions it calls name in an ``ExecPool(...)`` call or
    assign into a dict the call spreads."""
    tree = ast.parse((repo / "src/repro/cli.py").read_text())
    funcs = {n.name: n for n in tree.body if isinstance(n, _FUNCTIONS)}

    def called(fn) -> Set[str]:
        return {n.func.id for n in ast.walk(fn) if isinstance(n, ast.Call)
                and isinstance(n.func, ast.Name) and n.func.id in funcs}

    def closure(name: str) -> Set[str]:
        seen, todo = set(), [name]
        while todo:
            f = todo.pop()
            if f in funcs and f not in seen:
                seen.add(f)
                todo.extend(called(funcs[f]))
        return seen

    def passes(name: str) -> Set[str]:
        kws: Set[str] = set()
        for f in closure(name):
            spread = set()
            for n in ast.walk(funcs[f]):
                if isinstance(n, ast.Call) and "ExecPool" in (
                        getattr(n.func, "id", None),
                        getattr(n.func, "attr", None)):
                    kws.update(k.arg for k in n.keywords if k.arg)
                    spread.update(k.value.id for k in n.keywords
                                  if k.arg is None
                                  and isinstance(k.value, ast.Name))
            for n in ast.walk(funcs[f]):
                if isinstance(n, ast.Subscript) and isinstance(
                        n.ctx, ast.Store) and getattr(
                        n.value, "id", None) in spread and isinstance(
                        n.slice, ast.Constant):
                    kws.add(n.slice.value)
        return kws

    def flags(nodes) -> Set[str]:
        calls = [n for n in nodes if isinstance(n, ast.Call)
                 and getattr(n.func, "attr", None) == "add_argument"]
        return {a.value for n in calls for a in n.args
                if isinstance(a, ast.Constant)
                and str(a.value).startswith("--")}

    by_flag: Dict[str, Set[str]] = {}
    for fn in funcs.values():
        records: List[list] = []            # [flags, handler] per command
        commands: Dict[str, list] = {}      # parser variable -> its record
        for stmt in fn.body:
            if isinstance(stmt, ast.Assign) and isinstance(
                    stmt.value, ast.Call) and getattr(
                    stmt.value.func, "attr", None) == "add_parser":
                for t in stmt.targets:
                    if isinstance(t, ast.Name):
                        commands[t.id] = [set(), None]
                        records.append(commands[t.id])
                continue
            for n in ast.walk(stmt):
                if not isinstance(n, ast.Call):
                    continue
                attr = getattr(n.func, "attr", None)
                owner = getattr(getattr(n.func, "value", None), "id", None)
                if owner in commands and attr == "add_argument":
                    commands[owner][0] |= flags([n])
                elif owner in commands and attr == "set_defaults":
                    commands[owner][1] = next(
                        (k.value.id for k in n.keywords if k.arg == "fn"
                         and isinstance(k.value, ast.Name)), None)
                elif isinstance(n.func, ast.Name) and n.func.id in funcs:
                    for a in n.args:
                        if getattr(a, "id", None) in commands:
                            commands[a.id][0] |= flags(
                                node for f in closure(n.func.id)
                                for node in ast.walk(funcs[f]))
        for cmd_flags, handler in records:
            if handler is not None:
                for flag in cmd_flags:
                    by_flag.setdefault(flag, set()).update(passes(handler))
    return by_flag


def unpassed_pool_keywords(repo: pathlib.Path) -> List[str]:
    """``ExecPool`` keywords no root passes: none names it in an
    ``ExecPool(...)`` call, and no root, doc, workflow or Makefile
    spells a CLI flag the knob table pairs it with that a command
    passing the keyword defines (the CLI is reached through its flags,
    so ``cli.py``'s own call does not count, and a flag of the same
    spelling on another command passes nothing)."""
    tree = ast.parse((repo / "src/repro/exec/pool.py").read_text())
    cls = next(n for n in tree.body
               if isinstance(n, ast.ClassDef) and n.name == "ExecPool")
    init = next(n for n in cls.body
                if isinstance(n, _FUNCTIONS) and n.name == "__init__")
    keywords = [a.arg for a in init.args.args[1:] + init.args.kwonlyargs]
    passed = set()
    for path in root_files(repo):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and "ExecPool" in (
                    getattr(node.func, "id", None),
                    getattr(node.func, "attr", None)):
                passed.update(kw.arg for kw in node.keywords)
    text = _spelling_text(repo)
    by_flag = _pool_keywords_by_flag(repo)
    table = _KNOB_TABLE.search((repo / "DESIGN.md").read_text())
    for row in (table.group(1).splitlines() if table else ()):
        cells = row.split("|")
        if len(cells) <= 2:
            continue
        keyword = cells[1].strip().strip("`")
        if any(_spelled(flag, text) and keyword in by_flag.get(flag, ())
               for flag in re.findall(r"--[\w-]+", cells[2])):
            passed.add(keyword)
    return sorted(f"ExecPool {kw}" for kw in keywords if kw not in passed)


# -- the parameter pass ------------------------------------------------

#: Functions whose parameters another pass audits.
_OWN_PASS = frozenset({"repro.exec.pool.ExecPool.__init__"})

#: What an expression denotes: ``(kind, name)`` with kind ``module``,
#: ``function`` (a function, or a method called through its class),
#: ``bound`` (a method called through an instance), ``class``,
#: ``instance`` (of a package class) or ``super`` (the bases of a class,
#: seen through ``super()``).  A resolution is a set of these — empty
#: for what is not the package's (a builtin, numpy, a literal) — or
#: ``None`` when the pass cannot tell.
_Sym = Tuple[str, str]
_Found = Optional[Set[_Sym]]


class _Def:
    """One function or method of the package: its positional parameters
    (``self`` / ``cls`` included), each defaulted parameter's default,
    and how a call binds its first parameter (*kind*: ``function``,
    ``method``, ``static``, ``class`` or ``property``)."""

    def __init__(self, name: str, fn: ast.AST, kind: str, scope: "_Scope"):
        self.name = name
        self.node = fn
        self.kind = kind
        self.scope = scope                  # where its annotations resolve
        args = fn.args
        self.positional = [a.arg for a in args.posonlyargs + args.args]
        pos = self.positional[len(self.positional) - len(args.defaults):]
        self.defaults = {p: ast.dump(d) for p, d in zip(pos, args.defaults)}
        self.defaults.update(
            (a.arg, ast.dump(d)) for a, d in zip(args.kwonlyargs,
                                                 args.kw_defaults)
            if d is not None)

    def params(self, bound: bool) -> List[str]:
        """The parameters a call's positional arguments fill."""
        if self.kind == "class" or bound and self.kind != "static":
            return self.positional[1:]
        return self.positional

    def label(self, param: str) -> str:
        return f"{self.name.replace('.__init__', '')}({param})"


def _kind(fn: ast.AST) -> str:
    """How a method binds its first parameter."""
    decos = {getattr(d, "id", None) for d in fn.decorator_list}
    for deco, kind in (("staticmethod", "static"), ("classmethod", "class"),
                       ("property", "property")):
        if deco in decos:
            return kind
    return "method"


class _Scope:
    """The names a function (or a module: *fn* ``None``) binds, each to
    what binds it — ``arg`` (a parameter), ``def`` (a nested ``def`` or
    ``class``), ``annotation``, ``value`` (an assigned expression) or
    ``unknown`` (a loop target, an unpacking).  *cls* is the package
    class whose method *fn* is; in a *doc* snippet a name nothing binds
    is the package's function or class of that name."""

    def __init__(self, mod: Module, fn: Optional[ast.AST] = None,
                 parent: Optional["_Scope"] = None, cls: Optional[str] = None,
                 doc: bool = False):
        self.mod, self.fn, self.parent = mod, fn, parent
        self.cls, self.doc = cls, doc
        self.binds: Dict[str, List[Tuple[str, Optional[ast.AST]]]] = {}
        if fn is None:
            todo: List[ast.AST] = list(mod.tree.body)
        else:
            args = fn.args
            for a in args.posonlyargs + args.args + args.kwonlyargs + [
                    args.vararg, args.kwarg]:
                if a is not None:
                    self._bind(a.arg, "arg", a)
            todo = list(fn.body) if isinstance(fn.body, list) else [fn.body]
        named: Set[int] = set()
        while todo:
            node = todo.pop()
            if isinstance(node, _FUNCTIONS + (ast.ClassDef,)):
                self._bind(node.name, "def", node)
                continue                    # a scope of its own
            if isinstance(node, ast.Lambda):
                continue
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                assign = isinstance(node, ast.Assign)
                for t in node.targets if assign else [node.target]:
                    if isinstance(t, ast.Name):
                        named.add(id(t))
                        self._bind(t.id, *(("value", node.value) if assign
                                           else ("annotation",
                                                 node.annotation)))
            elif isinstance(node, ast.Name) and isinstance(
                    node.ctx, ast.Store) and id(node) not in named:
                self._bind(node.id, "unknown", None)
            todo.extend(ast.iter_child_nodes(node))

    def _bind(self, name: str, kind: str, node: Optional[ast.AST]) -> None:
        self.binds.setdefault(name, []).append((kind, node))


def _not_values(tree: ast.AST) -> Set[int]:
    """Ids of the sub-expressions of *tree* that name a callable
    without handing it on: a callee, an attribute's base, a type test,
    an exception clause, a base class, a decorator, an annotation."""
    skip: Set[int] = set()

    def whole(node):
        if node is not None:
            skip.update(id(n) for n in ast.walk(node))

    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            skip.add(id(node.func))
            if getattr(node.func, "id", None) in ("isinstance", "issubclass") \
                    and len(node.args) == 2:
                whole(node.args[1])
        elif isinstance(node, ast.Attribute):
            skip.add(id(node.value))
        elif isinstance(node, ast.ExceptHandler):
            whole(node.type)
        elif isinstance(node, ast.ClassDef):
            for base in node.bases + node.decorator_list:
                whole(base)
        elif isinstance(node, _FUNCTIONS):
            whole(node.returns)
            for deco in node.decorator_list:
                skip.add(id(deco))
        elif isinstance(node, ast.arg):
            whole(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            whole(node.annotation)
    return skip


class ParameterPass:
    """Which defaulted parameters of the package's functions does some
    caller pass a non-default value?  A call resolves the way Python
    binds names: through the caller's own scopes, then its module's
    definitions and imports (re-exports followed), a method through the
    class of what it is called on — ``self``, ``cls``, ``super()``, a
    class, or a value whose class an annotation names (a parameter's, a
    return annotation, a class-body field, a ``self.x`` assignment) —
    overriding subclasses included.  A function handed on as a value
    counts as passed everything.  A call or value the pass cannot
    resolve (``args.filter``, ``servers[3].fail``) is unknown: it may
    speak to every function of that name, whose parameters it passes are
    reported as :meth:`unknown`, neither passed nor unpassed."""

    def __init__(self, modules: Dict[str, Module],
                 live: Optional[Set[Tuple[str, str]]] = None):
        self.modules = modules
        self.defs: Dict[str, _Def] = {}
        self.audited: Set[str] = set()
        #: class → (node, module scope, own methods by name)
        self.classes: Dict[str, Tuple[ast.ClassDef, _Scope, Dict[str, str]]] = {}
        self.bases: Dict[str, List[str]] = {}
        self.subclasses: Dict[str, List[str]] = {}
        #: a top-level function's or class's bare name → it (docs call
        #: the package's functions without importing them)
        self.top: Dict[str, Set[_Sym]] = {}
        self.named: Dict[str, List[_Def]] = {}
        self.scopes = {name: _Scope(mod) for name, mod in modules.items()}
        self._fn_scopes: Dict[int, _Scope] = {}
        self._qual: Dict[int, str] = {}
        self._cls_of: Dict[int, str] = {}
        self._memo: Dict[Tuple, _Found] = {}
        self.passed: Set[Tuple[str, str]] = set()
        self.maybe: Set[Tuple[str, str]] = set()
        self.everything: Set[str] = set()
        self.maybe_everything: Set[str] = set()
        for modname, mod in modules.items():
            scope = self.scopes[modname]
            for stmt in mod.tree.body:
                if isinstance(stmt, ast.ClassDef):
                    self._add_class(modname, stmt, scope, live)
                elif isinstance(stmt, _FUNCTIONS):
                    qual = f"{modname}.{stmt.name}"
                    self._add(qual, stmt, "function", scope, live is None
                              or (modname, stmt.name) in live)
                    self.top.setdefault(stmt.name, set()).add(
                        ("function", qual))
        for qual, (node, scope, _) in self.classes.items():
            self.bases[qual] = [name for base in node.bases
                                for kind, name in self._value(base, scope)
                                or () if kind == "class"]
            for base in self.bases[qual]:
                self.subclasses.setdefault(base, []).append(qual)

    def _add(self, name: str, fn: ast.AST, kind: str, scope: _Scope,
             audited: bool) -> None:
        d = self.defs[name] = _Def(name, fn, kind, scope)
        self._qual[id(fn)] = name
        if audited and name not in _OWN_PASS:
            self.audited.add(name)
        if not _dunder(fn.name):
            self.named.setdefault(fn.name, []).append(d)
        todo = list(ast.iter_child_nodes(fn))
        while todo:                       # nested functions, one level
            sub = todo.pop()
            if isinstance(sub, _FUNCTIONS):
                self._add(f"{name}.{sub.name}", sub, "function", scope,
                          audited)
            else:
                todo.extend(ast.iter_child_nodes(sub))

    def _add_class(self, modname: str, cls: ast.ClassDef, scope: _Scope,
                   live: Optional[Set[Tuple[str, str]]]) -> None:
        qual = f"{modname}.{cls.name}"
        self._qual[id(cls)] = qual
        self.top.setdefault(cls.name, set()).add(("class", qual))
        methods: Dict[str, str] = {}
        for sub in cls.body:
            if isinstance(sub, _FUNCTIONS):
                unit = cls.name if _dunder(sub.name) \
                    else f"{cls.name}.{sub.name}"
                methods[sub.name] = f"{qual}.{sub.name}"
                self._cls_of[id(sub)] = qual
                self._add(methods[sub.name], sub, _kind(sub), scope,
                          live is None or (modname, unit) in live)
        self.classes[qual] = (cls, scope, methods)

    # -- classes ---------------------------------------------------------
    def _mro(self, cls: str) -> List[str]:
        out, todo = [], [cls]
        while todo:
            c = todo.pop(0)
            if c not in out:
                out.append(c)
                todo.extend(self.bases.get(c, ()))
        return out

    def _method(self, cls: str, attr: str, inherited: bool = False
                ) -> Optional[str]:
        for c in self._mro(cls)[1 if inherited else 0:]:
            if attr in self.classes[c][2]:
                return self.classes[c][2][attr]
        return None

    def _overrides(self, cls: str, attr: str) -> List[str]:
        out, todo, seen = [], list(self.subclasses.get(cls, ())), set()
        while todo:
            c = todo.pop()
            if c not in seen:
                seen.add(c)
                if attr in self.classes[c][2]:
                    out.append(self.classes[c][2][attr])
                todo.extend(self.subclasses.get(c, ()))
        return out

    def _init(self, cls: str) -> Optional[_Def]:
        init = self._method(cls, "__init__")
        return self.defs[init] if init else None

    # -- resolution ------------------------------------------------------
    @staticmethod
    def _union(found: Iterable[_Found]) -> _Found:
        out: Set[_Sym] = set()
        for syms in found:
            if syms is None:
                return None
            out |= syms
        return out

    def _scope(self, fn: ast.AST, parent: _Scope) -> _Scope:
        if id(fn) not in self._fn_scopes:
            self._fn_scopes[id(fn)] = _Scope(
                parent.mod, fn, parent, self._cls_of.get(id(fn)), parent.doc)
        return self._fn_scopes[id(fn)]

    def _cached(self, key: Tuple, compute) -> _Found:
        """*compute()* once per *key*; a key met again while it is being
        computed (a name bound to an expression that uses it) is
        unknown."""
        if key not in self._memo:
            self._memo[key] = None
            self._memo[key] = compute()
        return self._memo[key]

    def _name(self, name: str, scope: _Scope) -> _Found:
        s = scope
        while name not in s.binds and s.parent is not None:
            s = s.parent
        if name in s.binds:
            return self._union(self._cached(
                ("bind", id(s), name, i),
                lambda kind=kind, node=node: self._binding(kind, node, s))
                for i, (kind, node) in enumerate(s.binds[name]))
        if name in s.mod.imports:
            return self._union(self._import(*target)
                               for target in s.mod.imports[name])
        return set(self.top.get(name, ())) if s.doc else set()

    def _binding(self, kind: str, node: Optional[ast.AST], scope: _Scope
                 ) -> _Found:
        if kind == "arg":
            args = scope.fn.args
            if scope.cls and node is (args.posonlyargs + args.args)[0]:
                how = self.defs[self._qual[id(scope.fn)]].kind
                if how in ("method", "property"):
                    return {("instance", scope.cls)}
                if how == "class":
                    return {("class", scope.cls)}
            return None if node.annotation is None \
                else self._annotation(node.annotation, scope)
        if kind == "def":
            qual = self._qual.get(id(node))
            return set() if qual is None else {
                ("class" if isinstance(node, ast.ClassDef) else "function",
                 qual)}
        if kind == "annotation":
            return self._annotation(node, scope)
        if kind == "value":
            return self._value(node, scope)
        return None

    def _import(self, target: str, attr: Optional[str]) -> _Found:
        if attr is None:
            return {("module", target)} if target in self.modules else set()
        return self._member(("module", target), attr)

    def _member(self, sym: _Sym, attr: str) -> _Found:
        kind, name = sym
        if kind == "module":
            if f"{name}.{attr}" in self.modules:
                return {("module", f"{name}.{attr}")}
            if name not in self.modules:
                return set()
            return self._cached(("member", name, attr), lambda: self._name(
                attr, self.scopes[name]))
        if kind == "super":
            method = self._method(name, attr, inherited=True)
            return {("bound", method)} if method else set()
        if kind not in ("class", "instance"):
            return set()                    # an attribute of a function
        method = self._method(name, attr)
        if method is None:
            return self._cached(("field", kind, name, attr),
                                lambda: self._field(kind, name, attr))
        if kind == "class":
            return {("function", method)}
        if self.defs[method].kind == "property":
            return self._returns(self.defs[method])
        return {("bound", m) for m in [method] + self._overrides(name, attr)}

    def _field(self, kind: str, cls: str, attr: str) -> _Found:
        """What a data attribute of class *cls* (or of its instances)
        holds: a class-body field's annotation or value, and for an
        instance every ``self.attr = …`` its methods write."""
        found: List[_Found] = []
        for c in self._mro(cls):
            node, scope, methods = self.classes[c]
            for stmt in node.body:
                targets = stmt.targets if isinstance(stmt, ast.Assign) else \
                    [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
                if any(getattr(t, "id", None) == attr for t in targets):
                    found.append(self._value(stmt.value, scope)
                                 if isinstance(stmt, ast.Assign)
                                 else self._annotation(stmt.annotation, scope))
            for method in methods.values() if kind == "instance" else ():
                d = self.defs[method]
                if d.kind != "method" or not d.positional:
                    continue
                for stmt in ast.walk(d.node):
                    if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                        continue
                    assign = isinstance(stmt, ast.Assign)
                    if any(isinstance(t, ast.Attribute) and t.attr == attr
                           and getattr(t.value, "id", None) == d.positional[0]
                           for t in (stmt.targets if assign
                                     else [stmt.target])):
                        inner = self._scope(d.node, scope)
                        found.append(self._value(stmt.value, inner) if assign
                                     else self._annotation(stmt.annotation,
                                                           inner))
        return self._union(found) if found else None

    def _returns(self, d: _Def) -> _Found:
        returns = d.node.returns
        return None if returns is None else self._annotation(returns, d.scope)

    def _annotation(self, node: ast.AST, scope: _Scope) -> _Found:
        """The instances an annotation admits."""
        if isinstance(node, ast.Constant):
            if not isinstance(node.value, str):
                return set()                # None
            try:
                node = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return None
            return self._annotation(node, scope)
        if isinstance(node, ast.BinOp):     # X | None
            return self._union([self._annotation(node.left, scope),
                                self._annotation(node.right, scope)])
        if isinstance(node, ast.Subscript):
            head = getattr(node.value, "id", None) \
                or getattr(node.value, "attr", None)
            if head == "Optional":
                return self._annotation(node.slice, scope)
            if head == "Union" and isinstance(node.slice, ast.Tuple):
                return self._union(self._annotation(e, scope)
                                   for e in node.slice.elts)
            return set()                    # a container, not an instance
        if isinstance(node, (ast.Name, ast.Attribute)):
            syms = self._value(node, scope)
            return None if syms is None else {
                ("instance", name) for kind, name in syms if kind == "class"}
        return None

    def _value(self, node: ast.AST, scope: _Scope) -> _Found:
        """What the expression *node* evaluates to."""
        if isinstance(node, ast.Name):
            return self._name(node.id, scope)
        if isinstance(node, ast.Attribute):
            base = self._value(node.value, scope)
            return None if base is None else self._union(
                self._member(sym, node.attr) for sym in sorted(base))
        if isinstance(node, ast.Call):
            if getattr(node.func, "id", None) == "super" and scope.cls:
                return {("super", scope.cls)}
            callee = self._value(node.func, scope)
            return None if callee is None else self._union(
                self._result(sym) for sym in sorted(callee))
        if isinstance(node, ast.BoolOp):
            return self._union(self._value(v, scope) for v in node.values)
        if isinstance(node, ast.IfExp):
            return self._union([self._value(node.body, scope),
                                self._value(node.orelse, scope)])
        if isinstance(node, (ast.Constant, ast.JoinedStr, ast.List,
                             ast.Tuple, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp, ast.GeneratorExp,
                             ast.Compare, ast.UnaryOp, ast.BinOp,
                             ast.Lambda)):
            return set()
        return None                         # a subscript, an await, …

    def _result(self, sym: _Sym) -> _Found:
        """What calling *sym* returns."""
        kind, name = sym
        if kind == "class":
            return {("instance", name)}
        if kind in ("function", "bound"):
            return self._returns(self.defs[name])
        return set()

    # -- callers ---------------------------------------------------------
    def scan(self, nodes: Iterable[ast.AST], scope: _Scope,
             skip: Set[int] = frozenset()) -> None:
        """Record what the calls in *nodes* (code of *scope*) pass;
        the nodes in *skip* hand nothing on."""
        for tree in nodes:
            self._walk(tree, scope, _not_values(tree) | skip)

    def _walk(self, node: ast.AST, scope: _Scope, skip: Set[int]) -> None:
        if isinstance(node, _FUNCTIONS + (ast.Lambda,)):
            args = node.args
            for sub in args.defaults + [d for d in args.kw_defaults if d] \
                    + getattr(node, "decorator_list", []):
                self._walk(sub, scope, skip)
            inner = self._scope(node, scope)
            for stmt in node.body if isinstance(node.body, list) \
                    else [node.body]:
                self._walk(stmt, inner, skip)
            return
        if isinstance(node, ast.Call):
            self._call(node, scope)
        elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(
                node.ctx, ast.Load) and id(node) not in skip:
            self._hand_on(node, scope)
        for child in ast.iter_child_nodes(node):
            self._walk(child, scope, skip)

    def _by_name(self, name: Optional[str]) -> List[_Def]:
        """What a call of *name* the pass cannot resolve may reach."""
        inits = [self._init(cls) for kind, cls in self.top.get(name, ())
                 if kind == "class"]
        return self.named.get(name, []) + [d for d in inits if d]

    def _hand_on(self, node: ast.AST, scope: _Scope) -> None:
        syms = self._value(node, scope)
        if syms is None:
            if isinstance(node, ast.Attribute):
                self.maybe_everything.update(
                    d.name for d in self._by_name(node.attr))
            return
        for kind, name in syms:
            if kind in ("function", "bound"):
                self.everything.add(name)
            elif kind == "class" and self._init(name):
                self.everything.add(self._init(name).name)

    def _call(self, call: ast.Call, scope: _Scope) -> None:
        syms = self._value(call.func, scope)
        if syms is None:
            name = getattr(call.func, "attr", getattr(call.func, "id", None))
            self._bind(call, [(d, True) for d in self._by_name(name)],
                       scope, self.maybe)
            return
        targets = []
        for kind, name in sorted(syms):
            if kind == "class" and self._init(name):
                targets.append((self._init(name), True))
            elif kind in ("function", "bound"):
                targets.append((self.defs[name], kind == "bound"))
        self._bind(call, targets, scope, self.passed)

    def _bind(self, call: ast.Call, targets: List[Tuple[_Def, bool]],
              scope: _Scope, into: Set[Tuple[str, str]]) -> None:
        for d, bound in targets:
            params = d.params(bound)
            for i, arg in enumerate(call.args):
                if isinstance(arg, ast.Starred):
                    into.update((d.name, p) for p in params[i:])
                    break
                if i < len(params):
                    self._pass(d, params[i], arg, into)
            for kw in call.keywords:
                if kw.arg is not None:
                    self._pass(d, kw.arg, kw.value, into)
                    continue
                keys = _dict_keys(kw.value, scope.fn)
                if keys is None:        # keys unknown: all of them
                    into.update((d.name, p) for p in d.defaults)
                else:
                    for key, value in keys:
                        self._pass(d, key, value, into)

    @staticmethod
    def _pass(d: _Def, param: str, value: ast.AST,
              into: Set[Tuple[str, str]]) -> None:
        if param in d.defaults and ast.dump(value) != d.defaults[param]:
            into.add((d.name, param))

    # -- reading ---------------------------------------------------------
    def _report(self, unknown: bool) -> List[str]:
        out = []
        for name in self.audited:
            d = self.defs[name]
            for p in d.defaults:
                if (name, p) in self.passed or name in self.everything:
                    continue
                if unknown == ((name, p) in self.maybe
                               or name in self.maybe_everything):
                    out.append(d.label(p))
        return sorted(out)

    def unpassed(self) -> List[str]:
        """Parameters no call passes."""
        return self._report(unknown=False)

    def unknown(self) -> List[str]:
        """Parameters only calls the pass cannot resolve may pass."""
        return self._report(unknown=True)


def _dict_keys(expr: ast.AST, fn: Optional[ast.AST]
               ) -> Optional[List[Tuple[str, ast.AST]]]:
    """The ``(key, value)`` pairs a ``**expr`` spreads, when the code
    spells them: a dict display, or a local name every binding of which
    is a dict display or ``dict(k=…)``, grown by ``d[k] = v`` or
    ``d.update(k=…)``.  ``None`` when they cannot be read."""
    def literal(node):
        if isinstance(node, ast.Dict):
            if not all(isinstance(k, ast.Constant) and isinstance(k.value, str)
                       for k in node.keys):
                return None
            return [(k.value, v) for k, v in zip(node.keys, node.values)]
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) \
                == "dict" and not node.args:
            return [(kw.arg, kw.value) for kw in node.keywords
                    if kw.arg is not None] \
                if all(kw.arg for kw in node.keywords) else None
        return None

    found = literal(expr)
    if found is not None or not isinstance(expr, ast.Name) or fn is None:
        return found
    name, pairs, bound = expr.id, [], False
    if name in {a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg)}:
        return None
    for node in ast.walk(fn):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for t in targets:
                if isinstance(t, ast.Name) and t.id == name:
                    got = literal(node.value) if node.value else None
                    if got is None:
                        return None
                    pairs.extend(got)
                    bound = True
                elif isinstance(t, ast.Subscript) and \
                        getattr(t.value, "id", None) == name:
                    if not (isinstance(t.slice, ast.Constant)
                            and isinstance(t.slice.value, str)):
                        return None
                    pairs.append((t.slice.value, node.value))
        elif isinstance(node, (ast.For, ast.comprehension, ast.withitem,
                               ast.NamedExpr)):
            target = getattr(node, "target", None) \
                or getattr(node, "optional_vars", None)
            if target is not None and any(
                    getattr(n, "id", None) == name for n in ast.walk(target)):
                return None
        elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute) and node.func.attr == "update" \
                and getattr(node.func.value, "id", None) == name:
            for arg in node.args:
                got = literal(arg)
                if got is None:
                    return None
                pairs.extend(got)
            pairs.extend((kw.arg, kw.value) for kw in node.keywords)
    return pairs if bound else None


#: A script a shell feeds Python on stdin, as the workflows write their
#: inline steps: ``python - <<'EOF'`` … ``EOF``.
_HEREDOC = re.compile(r"python[\w.]*[ \t]+-[ \t]*<<-?[ \t]*(['\"]?)(\w+)\1"
                      r"[^\n]*\n(.*?)\n[ \t]*\2[ \t]*$", re.S | re.M)


def _doc_trees(repo: pathlib.Path) -> List[ast.AST]:
    """The Python a doc writes: each fenced block, each ``python -``
    heredoc, and each inline code span that parses as a call with a
    keyword (prose writes ``Cluster(sim)`` to name a parameter, not to
    pass one)."""
    text = _doc_text(repo)
    trees = []
    for block in re.findall(r"```[\w-]*\n(.*?)```", text, re.S) \
            + [body for _, _, body in _HEREDOC.findall(text)] \
            + re.findall(r"(?<!`)`([^`\n]+\(.*?=.*?\))`(?!`)", text):
        try:
            trees.append(ast.parse(textwrap.dedent(block)))
        except SyntaxError:
            continue
    return trees


def parameter_pass(census: Census, repo: pathlib.Path) -> ParameterPass:
    """The parameter pass over *census*'s live functions, fed by live
    library code, the roots and the docs."""
    audit = ParameterPass(census.modules, census.live)
    for modname, unit in sorted(census.live):
        mod = census.modules[modname]
        bases = {id(n) for stmt in mod.tree.body
                 if isinstance(stmt, ast.ClassDef) and stmt.name == unit
                 for base in stmt.bases for n in ast.walk(base)}
        audit.scan(mod.units[unit], audit.scopes[modname], bases)
    for tree in census.root_trees:
        audit.scan([tree], _Scope(Module("", tree, False)))
    for tree in _doc_trees(repo):
        audit.scan([tree], _Scope(Module("", tree, False), doc=True))
    return audit


def unpassed_parameters(census: Census, repo: pathlib.Path) -> List[str]:
    """Defaulted parameters of *census*'s live functions that no root,
    live library code or doc passes a value other than the default."""
    return parameter_pass(census, repo).unpassed()


def _unreached(census: Census) -> List[str]:
    return census.unreached_modules() + census.unreached_names()


def findings(repo: pathlib.Path = REPO) -> List[str]:
    census = reachability(repo)
    return (_unreached(census) + unset_search_params(repo)
            + unpassed_pool_keywords(repo) + unused_cli_flags(repo)
            + unpassed_parameters(census, repo))


def _runtime_called_by() -> List[str]:
    """:data:`CALLED_BY` lines whose caller is not under ``perf/``."""
    return [name for name, who in CALLED_BY.items()
            if not who.startswith("perf/")]


def perf_only(repo: pathlib.Path = REPO) -> List[str]:
    """Names that ``perf/`` is the only root to reach: the unreached
    set with ``perf/`` taken off the roots, minus the one with it on."""
    with_perf = reachability(repo)
    without = reachability(
        repo, root_dirs=[d for d in ROOT_DIRS if d != "perf"],
        called_by=_runtime_called_by())
    only = (set(_unreached(without))
            | set(unpassed_parameters(without, repo))) \
        - set(_unreached(with_perf)) \
        - set(unpassed_parameters(with_perf, repo))
    # A module counts name by name: what is deleted is its API.
    for name in only & set(without.modules):
        only.remove(name)
        only.update(f"{name}.{unit}" for unit in without.modules[name].defs
                    if "." not in unit and not unit.startswith("_"))
    return sorted(only)


def _table(title: str, found: List[str], listed: Dict[str, str]) -> bool:
    """Print one table; ``True`` when it matches its committed list."""
    width = max(map(len, found + list(listed)), default=0)
    for name in found:
        print(f"{name:<{width}}  {listed.get(name, 'UNLISTED')}")
    stale = sorted(set(listed) - set(found))
    for name in stale:
        print(f"{name:<{width}}  STALE: no longer a finding, drop the entry")
    unlisted = [n for n in found if n not in listed]
    print(f"# {title}: {len(found)} finding(s), {len(unlisted)} unlisted, "
          f"{len(stale)} stale")
    return not (unlisted or stale)


def stale_called_by(repo: pathlib.Path = REPO) -> List[str]:
    """:data:`CALLED_BY` lines that name no list-named method."""
    modules = load_package(repo / "src")
    defined = {f"{name}.{unit}" for name, mod in modules.items()
               for unit in mod.defs}
    return sorted(name for name in CALLED_BY if name not in defined
                  or name.rpartition(".")[2] not in _LIST_NAMES)


def _is_parameter(name: str) -> bool:
    return name.endswith(")")


def main() -> int:
    census = reachability(REPO)
    audit = parameter_pass(census, REPO)
    found = (_unreached(census) + unset_search_params(REPO)
             + unpassed_pool_keywords(REPO) + unused_cli_flags(REPO)
             + audit.unpassed())
    ok = True
    for title, kind in (("no entry point reaches", False),
                        ("parameters nothing passes", True)):
        ok &= _table(title, [f for f in found if _is_parameter(f) == kind],
                     {k: v for k, v in ALLOWLIST.items()
                      if _is_parameter(k) == kind})
        print()
    unknown = audit.unknown()
    for name in unknown:
        print(f"{name}  unknown: only a call the pass cannot resolve "
              f"may pass it")
    print(f"# parameters only unresolved calls may pass: {len(unknown)} "
          f"(not findings)\n")
    for name in stale_called_by():
        print(f"{name}  STALE: no such list-named method, drop its "
              f"CALLED_BY line")
        ok = False
    ok &= _table("only perf/ reaches", perf_only(), PERF_ONLY)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
