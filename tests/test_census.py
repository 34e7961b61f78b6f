"""The library surface cannot grow dead code silently: what
``tools/census.py`` finds unreachable from the entry points (``repro.cli``,
``perf/``, ``benchmarks/``, ``examples/``, ``tools/``) must be exactly
its allowlist, every entry of which says why it stays — so the list can
only shrink (the ``test_knob_inventory.py`` pattern).  A second pass
without ``perf/`` pins the names only the benchmark keeps alive.  The
walk itself, the ``ExecPool`` keyword pass, the knob table's exclusion
from flag spellings, the rule for methods named like ``list``'s and the
parameter pass's call resolution are checked on synthetic package
trees."""

import importlib.util
import pathlib
import textwrap

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load_census():
    spec = importlib.util.spec_from_file_location(
        "census", ROOT / "tools" / "census.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


census = _load_census()


def test_findings_are_exactly_the_allowlist():
    found = census.findings(ROOT)
    unlisted = [name for name in found if name not in census.ALLOWLIST]
    assert not unlisted, (
        "nothing under the entry points reaches these: delete them, move "
        f"them beside the tests, or allowlist them with a reason: {unlisted}")
    stale = sorted(set(census.ALLOWLIST) - set(found))
    assert not stale, f"no longer findings, drop the entries: {stale}"


def test_every_allowlist_entry_states_a_reason():
    for name, reason in {**census.ALLOWLIST, **census.PERF_ONLY,
                         **census.CALLED_BY}.items():
        assert len(reason.split()) >= 5, f"{name}: {reason!r} is not a reason"


def test_perf_only_names_are_exactly_the_committed_list():
    """What only ``perf/`` reaches is the ``[benchmark]`` PR's deletion
    list: a name that joins it (a runtime path stopped calling it) or
    leaves it (deleted, or called again) must be written down."""
    found = census.perf_only(ROOT)
    assert found == sorted(census.PERF_ONLY)
    # The result wire left the runtime in PR 24; the dense scan
    # definition in PR 20 / 21.
    assert {"repro.exec.shm.ResultArena", "repro.exec.shm.ArenaSpec",
            "repro.exec.results.encode_result_pairs",
            "repro.exec.results.decode_result_pairs",
            "repro.exec.results.estimate_payload_size",
            "repro.blast.scankernel.ScanStructures.code_pos",
            "repro.blast.scankernel.ScanStructures.codes"} <= set(found)
    # A method whose CALLED_BY caller is under perf/ counts only with
    # perf/ among the roots.
    assert census.CALLED_BY["repro.blast.scankernel.ScanCache.clear"] \
        .startswith("perf/")
    assert "repro.blast.scankernel.ScanCache.clear" in found


def _write_tree(root, files):
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))


def test_walk_on_a_synthetic_tree(tmp_path):
    """A module imported only by its package ``__init__`` and its own
    test is reported; one imported *by name* through the re-export is
    not; a use inside dead code reaches nothing; methods are live by
    name."""
    _write_tree(tmp_path, {
        "src/pkg/__init__.py": """
            from pkg.dead import dead_fn
            from pkg.live import live_fn, Thing
            from pkg.chained import helper
            __all__ = ["dead_fn", "live_fn", "Thing", "helper"]
            """,
        "src/pkg/dead.py": """
            from pkg.only_dead_uses import leaf
            def dead_fn():
                return leaf()
            """,
        "src/pkg/only_dead_uses.py": """
            def leaf():
                return 1
            """,
        "src/pkg/live.py": """
            from pkg.chained import helper
            def live_fn():
                return helper()
            def unused_fn():
                return 0
            def _private_unused():
                return 0
            class Record:
                x: int = 0
            class Thing:
                def __init__(self):
                    self.x = 1
                def used(self):
                    return self.x
                def unused(self):
                    return -self.x
            """,
        "src/pkg/chained.py": """
            def helper():
                return 2
            """,
        "src/pkg/cli.py": """
            def main():
                import pkg.lazy
                return pkg.lazy.run()
            """,
        "src/pkg/lazy.py": """
            def run():
                return 3
            """,
        "examples/run.py": """
            from pkg import live_fn, Thing
            print(live_fn(), Thing().used())
            """,
        "tests/test_dead.py": """
            from pkg.dead import dead_fn
            def test_dead():
                assert dead_fn() == 1
            """,
    })
    walk = census.reachability(tmp_path, package="pkg",
                               root_modules=("pkg.cli",))
    assert walk.unreached_modules() == ["pkg.dead", "pkg.only_dead_uses"]
    assert walk.unreached_names() == [
        "pkg.live.Record", "pkg.live.Thing.unused", "pkg.live.unused_fn"]


def test_called_by_names_only_list_named_methods():
    assert census.stale_called_by(ROOT) == []


def _pool_tree(tmp_path, table_rows, cli_flags, roots, other_flags=()):
    """A ``repro`` tree with an ``ExecPool`` of three keywords, a CLI
    whose ``search`` command defines *cli_flags* and passes ``jobs`` and
    ``join_timeout`` and whose ``other`` command defines *other_flags*
    and passes nothing, DESIGN.md's knob table of *table_rows* and the
    root scripts *roots*; a test passes ``max_retries`` too."""
    def add(flags):
        return "".join(f"    p.add_argument({flag!r})\n" for flag in flags)
    _write_tree(tmp_path, {
        "src/repro/__init__.py": "",
        "src/repro/cli.py": "import argparse\n"
                            "from repro.exec.pool import ExecPool\n"
                            "def _pool(args):\n"
                            "    kw = {}\n"
                            "    kw['join_timeout'] = args.join_timeout\n"
                            "    return ExecPool(jobs=args.jobs, **kw)\n"
                            "def cmd_search(args):\n"
                            "    return _pool(args)\n"
                            "def cmd_other(args):\n"
                            "    return 0\n"
                            "def build_parser():\n"
                            "    parser = argparse.ArgumentParser()\n"
                            "    sub = parser.add_subparsers()\n"
                            "    p = sub.add_parser('search')\n"
                            + add(cli_flags)
                            + "    p.set_defaults(fn=cmd_search)\n"
                              "    p = sub.add_parser('other')\n"
                            + add(other_flags)
                            + "    p.set_defaults(fn=cmd_other)\n"
                              "    return parser\n",
        "src/repro/blast/search.py": """
            class SearchParams:
                word_size: int = 11
            """,
        "src/repro/exec/pool.py": """
            class ExecPool:
                def __init__(self, jobs=None, *, max_retries=2,
                             join_timeout=2.0):
                    self.jobs = jobs
            """,
        "DESIGN.md": "<!-- knob-table:begin -->\n"
                     "| keyword | CLI flag / env | default | who |\n"
                     "|---|---|---|---|\n"
                     + "".join(f"| `{kw}` | {flag} | x | y |\n"
                               for kw, flag in table_rows)
                     + "<!-- knob-table:end -->\n",
        "tests/test_pool.py": """
            from repro.exec.pool import ExecPool
            ExecPool(jobs=1, max_retries=0)
            """,
        **roots,
    })


def test_a_pool_keyword_only_a_test_passes_is_reported(tmp_path):
    """A keyword counts as passed when a root names it in an
    ``ExecPool(...)`` call or spells the flag the knob table pairs it
    with; a test passing it does not count."""
    _pool_tree(tmp_path, [("jobs", "`--jobs`"), ("max_retries", "—"),
                          ("join_timeout", "`--join-timeout`")],
               ["--jobs", "--join-timeout"],
               {"tools/run.py": """
                    from repro.exec.pool import ExecPool
                    ExecPool(jobs=2)
                    """,
                "README.md": "Close faster with `--join-timeout 0.5`.\n"})
    assert census.unpassed_pool_keywords(tmp_path) == [
        "ExecPool max_retries"]
    (tmp_path / "README.md").write_text("")
    assert census.unpassed_pool_keywords(tmp_path) == [
        "ExecPool join_timeout", "ExecPool max_retries"]


def test_a_flag_only_another_command_defines_passes_nothing(tmp_path):
    """The knob table pairs ``join_timeout`` with ``--join-timeout``,
    and a doc spells it, but only a command whose handler builds no
    pool defines a flag of that spelling: the keyword is unpassed."""
    _pool_tree(tmp_path, [("jobs", "`--jobs`"), ("max_retries", "—"),
                          ("join_timeout", "`--join-timeout`")],
               ["--jobs"],
               {"README.md": "Run `--jobs 2`; close faster with "
                             "`--join-timeout 0.5`.\n"},
               other_flags=["--join-timeout"])
    assert census.unpassed_pool_keywords(tmp_path) == [
        "ExecPool join_timeout", "ExecPool max_retries"]


def test_a_flag_spelled_only_in_the_knob_table_is_reported(tmp_path):
    _pool_tree(tmp_path, [("jobs", "`--jobs`"),
                          ("join_timeout", "`--join-timeout`")],
               ["--jobs", "--join-timeout"],
               {"Makefile": "run:\n\trepro blastn --jobs 2\n"})
    assert census.unused_cli_flags(tmp_path) == ["cli --join-timeout"]


def test_a_method_named_like_a_list_method_is_not_live_by_name(tmp_path):
    """Every ``xs.append(x)`` names ``append``: a ``PackStore.append``
    nobody calls is still reported, and stays live only through a
    ``CALLED_BY`` line."""
    _write_tree(tmp_path, {
        "src/pkg/__init__.py": "",
        "src/pkg/store.py": """
            class PackStore:
                def open(self):
                    return self
                def append(self, records):
                    return len(records)
            """,
        "examples/run.py": """
            from pkg.store import PackStore
            found = []
            found.append(PackStore().open())
            """,
    })
    walk = census.reachability(tmp_path, package="pkg", root_modules=())
    assert walk.unreached_names() == ["pkg.store.PackStore.append"]
    walk = census.reachability(tmp_path, package="pkg", root_modules=(),
                               called_by=["pkg.store.PackStore.append"])
    assert walk.unreached_names() == []


def _unpassed(tmp_path, library, root):
    """The parameter pass over package ``pkg`` (*library*, one module)
    and one root script."""
    _write_tree(tmp_path, {"src/pkg/__init__.py": "",
                           "src/pkg/lib.py": library,
                           "examples/run.py": root})
    walk = census.reachability(tmp_path, package="pkg", root_modules=())
    return census.unpassed_parameters(walk, tmp_path)


_LIB = """
    def search(query, width=60, limit=10, strands=2):
        return query, width, limit, strands
    """


def test_a_keyword_or_positional_value_passes_a_parameter(tmp_path):
    assert _unpassed(tmp_path, _LIB, """
        from pkg.lib import search
        search("q", 80)
        search("q", limit=5)
        """) == ["pkg.lib.search(strands)"]


def test_an_explicit_default_does_not_pass_a_parameter(tmp_path):
    assert _unpassed(tmp_path, _LIB, """
        from pkg.lib import search
        search("q", 60, limit=10, strands=1)
        """) == ["pkg.lib.search(limit)", "pkg.lib.search(width)"]


def test_a_spread_dict_passes_the_keys_its_caller_assigns(tmp_path):
    """``**kw`` passes what the caller writes into ``kw`` — a display,
    ``dict(...)``, ``kw[k] = v`` — and nothing else; a dict the caller
    cannot spell (here a parameter) passes everything."""
    assert _unpassed(tmp_path, _LIB, """
        from pkg.lib import search
        def main(flag):
            kw = {"width": 72}
            if flag:
                kw["limit"] = 3
            return search("q", **kw)
        main(True)
        """) == ["pkg.lib.search(strands)"]
    assert _unpassed(tmp_path, _LIB, """
        from pkg.lib import search
        def main(**kw):
            return search("q", **kw)
        main()
        """) == []


def test_a_function_handed_on_as_a_value_passes_everything(tmp_path):
    """A verb table stores the function and calls it through a name the
    pass cannot follow: every parameter counts as passed.  A local
    variable, or a package class's member, that merely shares its name
    is not the function."""
    assert _unpassed(tmp_path, _LIB, """
        from pkg.lib import search
        VERBS = {"search": search}
        VERBS["search"]("q")
        """) == []
    assert _unpassed(tmp_path, _LIB, """
        from pkg.lib import search
        def main(search=None):
            return search
        main()
        """) == ["pkg.lib.search(limit)", "pkg.lib.search(strands)",
                 "pkg.lib.search(width)"]
    assert _unpassed(tmp_path, _LIB + """
    class Mode:
        search = "search"
    """, """
        from pkg.lib import Mode
        print(Mode.search)
        """) == ["pkg.lib.search(limit)", "pkg.lib.search(strands)",
                 "pkg.lib.search(width)"]


def test_super_init_passes_the_base_class_init(tmp_path):
    """``super().__init__(...)`` speaks to the bases' ``__init__``; a
    call of a subclass without its own ``__init__`` to the base's.
    Naming a class as a base hands nothing on."""
    assert _unpassed(tmp_path, """
        class Slot:
            def __init__(self, rank, heartbeat=0.2, timeout=1.0, retries=3):
                self.rank = rank
        class Local(Slot):
            def __init__(self, rank, pid=None):
                super().__init__(rank, heartbeat=0.5)
                self.pid = pid
        class Remote(Slot):
            pass
        """, """
        from pkg.lib import Local, Remote
        Local(0)
        Remote(1, 0.2, timeout=3.0)
        """) == ["pkg.lib.Local(pid)", "pkg.lib.Slot(retries)"]


def test_a_workflow_heredoc_passes_a_parameter(tmp_path):
    """A workflow's inline ``python - <<'EOF'`` script is a caller like
    a doc's code block."""
    (tmp_path / ".github/workflows").mkdir(parents=True)
    (tmp_path / ".github/workflows/ci.yml").write_text(textwrap.dedent("""
        jobs:
          smoke:
            steps:
              - run: |
                  python - <<'EOF' > /tmp/out.txt
                  from pkg.lib import search
                  search("q", strands=1)
                  EOF
                  cmp /tmp/out.txt /tmp/want.txt
        """))
    assert _unpassed(tmp_path, _LIB, """
        from pkg.lib import search
        search("q", limit=5)
        """) == ["pkg.lib.search(width)"]


_POOL_LIB = """
    class Pool:
        def search(self, query, width=60, limit=10):
            return query, width, limit
    class Store:
        def search(self, query, width=60, limit=10):
            return query, width, limit
    def open_pool() -> "Pool":
        return Pool()
    """


def test_a_method_call_resolves_through_annotations(tmp_path):
    """``x.search(...)`` speaks to the class an annotation gives ``x``
    (a parameter's, a return annotation), not to every ``search``."""
    assert _unpassed(tmp_path, _POOL_LIB, """
        from pkg.lib import Pool, Store, open_pool
        def run(pool: Pool):
            return pool.search("q", width=80)
        run(Pool())
        open_pool().search("q", limit=5)
        Store().search("q")
        """) == ["pkg.lib.Store.search(limit)", "pkg.lib.Store.search(width)"]


def test_an_unresolved_call_is_unknown_not_passed(tmp_path):
    """A call on a value of no known class may reach every method of
    that name: what it passes is reported as unknown, neither passed
    nor unpassed."""
    _write_tree(tmp_path, {"src/pkg/__init__.py": "",
                           "src/pkg/lib.py": _POOL_LIB,
                           "examples/run.py": """
                               from pkg.lib import Pool, Store
                               def run(backend):
                                   return backend.search("q", width=80)
                               run(Pool())
                               run(Store())
                               """})
    walk = census.reachability(tmp_path, package="pkg", root_modules=())
    audit = census.parameter_pass(walk, tmp_path)
    assert audit.unknown() == ["pkg.lib.Pool.search(width)",
                               "pkg.lib.Store.search(width)"]
    assert audit.unpassed() == ["pkg.lib.Pool.search(limit)",
                                "pkg.lib.Store.search(limit)"]
