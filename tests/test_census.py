"""The library surface cannot grow dead code silently: what
``tools/census.py`` finds unreachable from the entry points (``repro.cli``,
``perf/``, ``benchmarks/``, ``examples/``, ``tools/``) must be exactly
its allowlist, every entry of which says why it stays — so the list can
only shrink (the ``test_knob_inventory.py`` pattern).  A second pass
without ``perf/`` pins the names only the benchmark keeps alive.  The
walk itself, the ``ExecPool`` keyword pass, the knob table's exclusion
from flag spellings and the rule for methods named like ``list``'s are
checked on synthetic package trees."""

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


def _pool_tree(tmp_path, table_rows, cli_flags, roots):
    """A ``repro`` tree with an ``ExecPool`` of three keywords, a CLI
    with *cli_flags*, DESIGN.md's knob table of *table_rows* and the
    root scripts *roots*; a test passes ``max_retries`` too."""
    flags = "".join(f"    p.add_argument({flag!r})\n" for flag in cli_flags)
    _write_tree(tmp_path, {
        "src/repro/__init__.py": "",
        "src/repro/cli.py": "import argparse\n"
                            "def build_parser():\n"
                            "    p = argparse.ArgumentParser()\n"
                            + flags + "    return p\n",
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
