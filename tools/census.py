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
  names every pool flag, so it does not count as spelling one.

A second pass drops ``perf/`` from the roots: what only the benchmark
reaches is the deletion list of the ``[benchmark]`` PR that may edit
``perf/`` (ROADMAP 2(a)), printed as its own table with the reason each
name is still there.

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
    "cli --task-timeout": "the workaround for a task longer than the "
    "adaptive hard deadline until ROADMAP 13 decides the deadline rule "
    "(and with it this flag's row)",
    "cli --max-hits": "output bound every render takes (NCBI -v / -b); "
    "nothing scripts a value other than the default — constant "
    "candidate for the next census PR",
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
}

_WIRE = ("the shm / codec result wire no runtime path uses since PR 24 "
         "(a result is one pickle); perf/harness/layers.py still times it")
_DENSE = ("the dense per-residue definition the scan no longer stores, "
          "derived on read; only perf/harness/layers.py's slope check "
          "reads it")

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
    # -- to keep: the benchmark is their only caller among the roots ---
    "repro.blast.gapped.banded_local_align": "stays: the one-problem "
    "call of banded_local_align_many (repro.blast exports it, and the "
    "kernel tests hold it to the oracle); the driver aligns a batch's "
    "problems in one many-call, gapped.traceback_ms_per_pair times it",
    "repro.blast.fasta.write_fasta": "stays: the library's FASTA writer "
    "(round-tripped by the fasta tests); the store workload writes its "
    "corpus with it",
    "repro.blast.scankernel.scan_fragment": "stays while the scan layer "
    "is timed per index: scan_fragment_batch of one, which the "
    "scankernel tests compare the batch scan against",
    "repro.exec.diskpack.search_store": "stays: the documented one-query "
    "spelling of search_store_batch (README, TUTORIAL); nt_store_restart "
    "is it",
    "repro.exec.pool.ExecPool.worker_pids": "stays: the fault-injection "
    "hook the chaos tests signal workers through; the benchmark reads "
    "peak RSS of the same pids",
    "repro.workloads.synthdb.synthetic_aa_db": "stays: the protein corpus "
    "generator behind aa_gapped_serial and the blastp tests",
}

#: Methods named like one of ``list``'s (see :data:`_LIST_NAMES`) that
#: live code does call → the caller.  Such a method is live only
#: through its line here; a method that leaves takes its line with it.
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


def unpassed_pool_keywords(repo: pathlib.Path) -> List[str]:
    """``ExecPool`` keywords no root passes: none names it in an
    ``ExecPool(...)`` call, and no root, doc, workflow or Makefile
    spells the CLI flag the knob table pairs it with (the CLI is
    reached through its flags, so ``cli.py``'s own call does not
    count)."""
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
    table = _KNOB_TABLE.search((repo / "DESIGN.md").read_text())
    for row in (table.group(1).splitlines() if table else ()):
        cells = row.split("|")
        if len(cells) > 2 and any(_spelled(flag, text) for flag in
                                  re.findall(r"--[\w-]+", cells[2])):
            passed.add(cells[1].strip().strip("`"))
    return sorted(f"ExecPool {kw}" for kw in keywords if kw not in passed)


def _unreached(census: Census) -> List[str]:
    return census.unreached_modules() + census.unreached_names()


def findings(repo: pathlib.Path = REPO) -> List[str]:
    return (_unreached(reachability(repo)) + unset_search_params(repo)
            + unpassed_pool_keywords(repo) + unused_cli_flags(repo))


def perf_only(repo: pathlib.Path = REPO) -> List[str]:
    """Names that ``perf/`` is the only root to reach: the unreached
    set with ``perf/`` taken off the roots, minus the one with it on."""
    without = reachability(
        repo, root_dirs=[d for d in ROOT_DIRS if d != "perf"])
    only = set(_unreached(without)) - set(_unreached(reachability(repo)))
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


def main() -> int:
    ok = _table("no entry point reaches", findings(), ALLOWLIST)
    for name in stale_called_by():
        print(f"{name}  STALE: no such list-named method, drop its "
              f"CALLED_BY line")
        ok = False
    print()
    ok &= _table("only perf/ reaches", perf_only(), PERF_ONLY)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
