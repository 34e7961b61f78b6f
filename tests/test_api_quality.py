"""Meta-tests: public-API hygiene.

Every module has a docstring; every public class and function exported
from a package ``__init__`` is documented; ``__all__`` lists resolve.
The search library keeps one candidate pipeline, one gapped algorithm
and its oracle its distance; the runtime keeps one result wire, one
transport, one database reader and binning rule, and one task shape
(the last seven tests, read off the syntax trees and signatures).
"""

import ast
import dataclasses
import importlib
import inspect
import pathlib
import pkgutil

import pytest

import repro

MODULES = [m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")]
PACKAGES = ["repro", "repro.sim", "repro.cluster", "repro.fs", "repro.blast",
            "repro.parallel", "repro.workloads", "repro.trace", "repro.core"]


@pytest.mark.parametrize("name", MODULES)
def test_every_module_has_docstring(name):
    mod = importlib.import_module(name)
    assert mod.__doc__ and mod.__doc__.strip(), f"{name} lacks a docstring"


@pytest.mark.parametrize("pkg", PACKAGES)
def test_all_exports_resolve(pkg):
    mod = importlib.import_module(pkg)
    for sym in getattr(mod, "__all__", []):
        assert hasattr(mod, sym), f"{pkg}.__all__ lists missing {sym!r}"


@pytest.mark.parametrize("pkg", PACKAGES)
def test_exported_callables_are_documented(pkg):
    mod = importlib.import_module(pkg)
    undocumented = []
    for sym in getattr(mod, "__all__", []):
        obj = getattr(mod, sym, None)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if not (obj.__doc__ and obj.__doc__.strip()):
                undocumented.append(sym)
    assert not undocumented, f"{pkg}: undocumented exports {undocumented}"


def test_no_module_shadowing():
    """Exported names never silently shadow submodules."""
    import repro.blast
    import repro.core

    assert callable(repro.blast.search) or inspect.ismodule(repro.blast.search)


# ----------------------------------------------------------------------
# One candidate pipeline (PR 22), held in place structurally
# ----------------------------------------------------------------------
ROOT = pathlib.Path(__file__).resolve().parent.parent


def _src_trees():
    return {path.relative_to(ROOT).as_posix(): ast.parse(path.read_text())
            for path in sorted((ROOT / "src").rglob("*.py"))}


def _call_sites(trees, name):
    """``file:function`` of every call of *name* (bare or as an
    attribute) in *trees*."""
    sites = []
    for rel, tree in trees.items():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and name in (
                        getattr(node.func, "id", None),
                        getattr(node.func, "attr", None)):
                    sites.append(f"{rel}:{fn.name}")
    return sites


def test_search_library_has_one_candidate_pipeline():
    """A second route cannot come back unnoticed: the bulk extension
    kernel and the candidate loop have one call site each, the span
    dedup list one home, and what moved to the oracle — the per-group
    route, the single-seed / single-group definitions, the one-index
    scan — is defined nowhere in the library."""
    trees = _src_trees()
    assert _call_sites(trees, "bulk_ungapped_extend") == [
        "src/repro/blast/search.py:_bulk_groups_to_jobs"]
    assert _call_sites(trees, "_finalize_one") == [
        "src/repro/blast/search.py:_finalize_candidates"]
    assigned, defined = [], set()
    for rel, tree in trees.items():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defined.add(fn.name)
            if any(isinstance(node, ast.Name) and node.id == "seen_spans"
                   and isinstance(node.ctx, ast.Store)
                   for node in ast.walk(fn)):
                assigned.append(f"{rel}:{fn.name}")
    assert assigned == ["src/repro/blast/search.py:_finalize_one"]
    assert not defined & {"_collect_candidates", "_candidates_to_hsps",
                          "batched_ungapped_extend", "ungapped_extend",
                          "one_hit_seeds", "two_hit_seeds"}
    word_index = next(node for node in ast.walk(
        trees["src/repro/blast/kmer.py"])
        if isinstance(node, ast.ClassDef) and node.name == "WordIndex")
    assert "scan" not in {fn.name for fn in word_index.body
                          if isinstance(fn, ast.FunctionDef)}


def test_search_library_has_one_gapped_algorithm():
    """The banded DP is the one gapped algorithm, and one row sweep runs
    it: ``SearchParams`` has no method switch, no module or function of
    the X-drop gapped extension exists in the library or the oracle,
    ``repro.blast.gapped`` has exactly one function with a DP row loop
    (a loop whose body makes the recurrence's ``np.add`` /
    ``np.subtract`` / ``np.maximum`` calls), ``bulk_banded_align`` is
    not exported, and each mode of the sweep has one library call site
    — the align mode's entry point the candidate finalizer (and its own
    one-problem spelling, which nothing in the library calls), the score
    mode's the finalizer alone."""
    import repro.blast
    from repro.blast.search import SearchParams

    assert "gapped_method" not in {f.name for f in
                                   dataclasses.fields(SearchParams)}
    assert not (ROOT / "src" / "repro" / "blast" / "xdrop.py").exists()
    trees = _src_trees()
    trees["tests/oracle_search.py"] = ast.parse(
        (ROOT / "tests" / "oracle_search.py").read_text())
    defined = {node.name for tree in trees.values()
               for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert "xdrop_gapped_extend" not in defined
    del trees["tests/oracle_search.py"]

    def row_loop(loop):
        called = {node.func.attr for node in ast.walk(loop)
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)}
        return {"add", "subtract", "maximum"} <= called

    gapped = trees["src/repro/blast/gapped.py"]
    sweeps = [fn.name for fn in ast.walk(gapped)
              if isinstance(fn, ast.FunctionDef)
              and any(isinstance(loop, (ast.For, ast.While)) and row_loop(loop)
                      for loop in ast.walk(fn))]
    assert sweeps == ["_sweep"]
    assert "bulk_banded_align" not in repro.blast.__all__
    assert _call_sites(trees, "_sweep") == [
        "src/repro/blast/gapped.py:banded_local_align_many",
        "src/repro/blast/gapped.py:bulk_banded_score"]
    assert _call_sites(trees, "banded_local_align_many") == [
        "src/repro/blast/gapped.py:banded_local_align",
        "src/repro/blast/search.py:_finalize_candidates"]
    assert _call_sites(trees, "banded_local_align") == []
    assert _call_sites(trees, "bulk_banded_score") == [
        "src/repro/blast/search.py:_finalize_candidates"]


def test_oracle_imports_no_driver_internals():
    """``tests/oracle_search.py`` is evidence about the driver only
    while it shares no code with it: from ``extend`` it imports the
    ``UngappedHSP`` record and ``_best_prefix`` — the single-sequence
    X-drop rule the bulk kernel is specified against — from ``seed``
    nothing, from ``search`` the result types and ``resolve_ka``.  Its
    gapped kernel is the per-row one in ``tests/oracle_gapped.py``,
    which takes nothing from ``repro.blast.gapped`` but the
    ``GappedAlignment`` record."""
    trees = {name: ast.parse((ROOT / "tests" / name).read_text())
             for name in ("oracle_search.py", "oracle_gapped.py")}
    imported = sorted(
        f"{node.module}.{alias.name}" for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and node.module in ("repro.blast.search", "repro.blast.extend",
                            "repro.blast.seed", "repro.blast.gapped",
                            "oracle_gapped")
        for alias in node.names)
    assert imported == [
        "oracle_gapped.banded_local_align",
        "repro.blast.extend.UngappedHSP", "repro.blast.extend._best_prefix",
        "repro.blast.gapped.GappedAlignment",
        "repro.blast.search.HSP", "repro.blast.search.Hit",
        "repro.blast.search.SearchParams", "repro.blast.search.SearchResults",
        "repro.blast.search.resolve_ka"]
    # Nor the modules whole, which would hide attribute use.
    whole = [alias.name for tree in trees.values()
             for node in ast.walk(tree)
             if isinstance(node, ast.Import) for alias in node.names
             if alias.name.startswith("repro")]
    assert whole == []
    # Its protein index is its own neighbourhood loop through the plain
    # ``WordIndex`` constructor, never the library's pruned frontier.
    builders = [node.func.attr for tree in trees.values()
                for node in ast.walk(tree)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "for_protein"]
    assert builders == []


def test_result_wire_is_off_every_runtime_path():
    """A result is one pickle in the ``result`` message (DESIGN.md
    §5g): under ``src/repro/exec/`` no code outside the defining
    modules names the arena or the RRES codec — only the package
    ``__init__`` re-exports them, for ``perf/harness/layers.py`` — and
    neither end of the protocol holds a payload tag to switch on."""
    retired = {"ResultArena": "shm.py", "ArenaSpec": "shm.py",
               "encode_result_pairs": "results.py",
               "decode_result_pairs": "results.py",
               "estimate_payload_size": "results.py"}
    trees = {rel.rsplit("/", 1)[1]: tree
             for rel, tree in _src_trees().items()
             if rel.startswith("src/repro/exec/")}
    mentions = set()
    for file, tree in trees.items():
        for node in ast.walk(tree):
            names = [getattr(node, "id", None), getattr(node, "attr", None)]
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name for alias in node.names]
            mentions.update((file, name) for name in names
                            if name in retired and retired[name] != file)
    assert {file for file, _name in mentions} == {"__init__.py"}
    tags = [(file, node.value) for file in ("pool.py", "nodes.py")
            for node in ast.walk(trees[file])
            if isinstance(node, ast.Constant)
            and node.value in ("arena", "blob", "inline")]
    assert tags == []


def test_every_worker_is_an_agent_on_one_transport():
    """One transport (DESIGN.md §5e): a local worker is a node agent on
    a socketpair, so nothing under ``src/repro/exec/`` opens a
    ``multiprocessing`` pipe, the worker loop is entered from the
    agent's session alone, and the pipe worker's pieces are defined
    nowhere."""
    trees = _src_trees()
    assert not [rel for rel in trees if rel.startswith("src/repro/exec/")
                and "Pipe(" in (ROOT / rel).read_text()]
    assert _call_sites(trees, "serve_tasks") == [
        "src/repro/exec/nodes.py:_session"]
    defined = {node.name for tree in trees.values()
               for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert not defined & {"_worker_main", "_PipeSlot", "NamedPacks",
                          "PoolConfig"}


def test_one_reader_and_one_binning_rule():
    """The pack store is the one on-disk database and
    ``PackStore.load_db`` its one reader into RAM: ``SequenceDB`` has
    no file format of its own (no ``write`` / ``load`` / ``paths``, no
    magic or version), no lazy view of a database exists, the scan
    kernel asks no database for a preload hook, and the CLI alone calls
    the reader.  Fragmenting a database has one binning rule: the
    greedy lightest-bin step is written in ``plan_fragments``, which
    ``segment_db`` and the store builder call and through
    ``segment_db`` the pool, and nowhere else, so every store holds
    ``segment_db``'s fragments."""
    from repro.blast import seqdb

    assert not (ROOT / "src" / "repro" / "blast" / "lazydb.py").exists()
    assert not {"write", "load", "paths"} & set(vars(seqdb.SequenceDB))
    assert not {"MAGIC", "VERSION", "_EXT"} & set(vars(seqdb))
    trees = _src_trees()
    defined = {node.name: rel for rel, tree in trees.items()
               for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert not set(defined) & {"LazySequenceDB", "preload_sequences",
                               "_SpoolDB", "pack_2bit", "unpack_2bit"}
    assert not [rel for rel in trees
                if "preload_sequences" in (ROOT / rel).read_text()]
    assert defined["load_db"] == "src/repro/exec/diskpack.py"
    assert sorted(_call_sites(trees, "load_db")) == [
        "src/repro/cli.py:_blastall", "src/repro/cli.py:cmd_psiblast"]
    assert defined["plan_fragments"] == "src/repro/blast/seqdb.py"
    assert sorted(_call_sites(trees, "plan_fragments")) == [
        "src/repro/blast/seqdb.py:segment_db",
        "src/repro/exec/diskpack.py:fragments"]
    assert "src/repro/exec/pool.py:_prepare" in _call_sites(trees,
                                                            "segment_db")

    def is_min(node):
        return (isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "min")

    # Either spelling of "the lightest bin": loads.index(min(loads)) or
    # min(bins, key=load).
    lightest = {f"{rel}:{fn.name}" for rel, tree in trees.items()
                for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                for node in ast.walk(fn)
                if (isinstance(node, ast.Call)
                    and getattr(node.func, "attr", None) == "index"
                    and node.args and is_min(node.args[0]))
                or (is_min(node)
                    and any(kw.arg == "key" for kw in node.keywords))}
    assert lightest == {"src/repro/blast/seqdb.py:plan_fragments"}


def test_pool_has_one_task_shape():
    """A pool task is one pack for one query batch (DESIGN.md §5g): no
    keyword sizes tasks any other way, and under ``src/repro/exec/`` no
    code outside ``schedule.py`` names the range planner or the
    scan-rate feedback that fed it — only the package ``__init__``
    re-exports the planner, for ``perf/harness/layers.py``."""
    from repro.exec import ExecPool

    init = inspect.signature(ExecPool.__init__).parameters
    assert not {"task_granularity", "query_batch"} & set(init)
    assert "query_batch" not in inspect.signature(
        ExecPool.search_many).parameters
    retired = {"plan_task_ranges", "DEFAULT_SCAN_RATE", "_rate_ema",
               "_pack_residues"}
    mentions = set()
    for rel, tree in _src_trees().items():
        if not rel.startswith("src/repro/exec/") \
                or rel.endswith("/schedule.py"):
            continue
        for node in ast.walk(tree):
            names = [getattr(node, "id", None), getattr(node, "attr", None)]
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name for alias in node.names]
            mentions.update((rel.rsplit("/", 1)[1], name) for name in names
                            if name in retired)
    assert mentions == {("__init__.py", "plan_task_ranges"),
                        ("__init__.py", "DEFAULT_SCAN_RATE")}
