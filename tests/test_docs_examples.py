"""The documentation's code must run — every python block in
docs/TUTORIAL.md and the README quickstart snippets is executed — and
what it cites must exist: files, tests, and the benchmark's metric and
workload names."""

import contextlib
import fnmatch
import glob
import importlib
import io
import json
import os
import re

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")


def _blocks(path):
    with open(os.path.join(ROOT, path)) as f:
        text = f.read()
    return re.findall(r"```python\n(.*?)```", text, re.S)


def test_tutorial_blocks_execute():
    blocks = _blocks("docs/TUTORIAL.md")
    assert len(blocks) >= 4
    env = {}
    for i, code in enumerate(blocks):
        with contextlib.redirect_stdout(io.StringIO()):
            exec(compile(code, f"<tutorial-{i}>", "exec"), env)


def test_readme_blocks_execute():
    blocks = _blocks("README.md")
    python_blocks = [b for b in blocks if "import" in b]
    assert python_blocks
    for i, code in enumerate(python_blocks):
        env = {}
        with contextlib.redirect_stdout(io.StringIO()):
            exec(compile(code, f"<readme-{i}>", "exec"), env)


# -- what the docs cite ------------------------------------------------
DOCS = ["README.md", "DESIGN.md", "EXPERIMENTS.md"] + sorted(
    os.path.relpath(p, ROOT)
    for p in glob.glob(os.path.join(ROOT, "docs", "*.md")))
#: ``tests/test_x.py`` or ``tests/test_x.py::test_name``, with its
#: directory or (``bench_*.py`` / ``test_*.py``) without.  A ``*`` or a
#: ``<placeholder>`` ends the match: the directory must still exist.
CITED = re.compile(
    r"(?<![\w/.-])((?:tools|benchmarks|tests|src)/[\w./-]*[\w/]"
    r"|(?:bench|test)_\w+\.py)(?:::(\w+))?")
BACKTICKED = re.compile(r"`([^`\n]+)`")


@pytest.mark.parametrize("doc", DOCS)
def test_cited_files_and_tests_exist(doc):
    with open(os.path.join(ROOT, doc)) as f:
        text = f.read()
    missing = []
    for path, name in CITED.findall(text):
        if "/" not in path:
            path = ("benchmarks/" if path.startswith("bench") else "tests/") \
                + path
        if not os.path.exists(os.path.join(ROOT, path)):
            missing.append(path)
        elif name:
            with open(os.path.join(ROOT, path)) as f:
                if not re.search(rf"^\s*(?:def|class) {name}\b", f.read(),
                                 re.M):
                    missing.append(f"{path}::{name}")
    assert not missing, f"{doc} cites what the repo does not have"


def _is_library_name(layer, rest):
    """``shm.pack_layout`` is code, not a metric: the layers are named
    after the library modules they time."""
    for pkg in ("repro.exec", "repro.blast"):
        try:
            module = importlib.import_module(f"{pkg}.{layer}")
        except ImportError:
            continue
        return hasattr(module, rest.split(".")[0])
    return False


@pytest.mark.parametrize("doc", DOCS)
def test_cited_benchmark_names_are_in_benchmark_json(doc):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = {m["name"] for m in bench["per_layer"]}
    workloads = {w["name"] for w in bench["workloads"]}
    layers = "|".join(sorted({m.split(".")[0] for m in metrics}))
    alphabets = "|".join(sorted({w.split("_")[0] for w in workloads}))
    with open(os.path.join(ROOT, doc)) as f:
        tokens = set(BACKTICKED.findall(f.read()))
    unknown = []
    for tok in sorted(tokens):
        m = re.fullmatch(rf"({layers})\.([\w.*]+)", tok)
        if m and not tok.endswith(".py") \
                and not _is_library_name(m.group(1), m.group(2)):
            if not fnmatch.filter(metrics, tok):
                unknown.append(tok)
        elif re.fullmatch(rf"({alphabets})_[a-z0-9]+_[a-z0-9]+", tok) \
                and tok not in workloads:
            unknown.append(tok)
    assert not unknown, f"{doc} names what BENCHMARK.json does not list"


def test_design_pack_field_table_matches_the_layout():
    """DESIGN.md §5h's field table is the code's: names and order are
    ``shm._FIELDS``, dtypes what ``pack_layout`` emits for an nt pack."""
    import numpy as np

    from repro.blast.scankernel import build_scan_structures
    from repro.blast.seqdb import NT, SequenceDB
    from repro.exec.shm import _FIELDS, pack_layout

    with open(os.path.join(ROOT, "DESIGN.md")) as f:
        tables = re.findall(
            r"<!-- pack-fields:begin -->\n(.*?)<!-- pack-fields:end -->",
            f.read(), flags=re.S)
    assert len(tables) == 1, "DESIGN.md must have exactly one field table"
    rows = [[cell.strip().strip("`") for cell in line.split("|")[1:3]]
            for line in tables[0].splitlines()[2:]]
    db = SequenceDB(NT)
    db.add("one", "ACGTACGTACGTACGT")
    spec, _arrays = pack_layout(
        build_scan_structures(db, 11, 4), ["one"], name="",
        cache_token=(), seqtype=NT, fragment_id=0, source_ids=[0])
    assert [field for field, _dtype in rows] == list(_FIELDS)
    assert rows == [[field, np.dtype(dtype).name]
                    for field, dtype, _shape, _off in spec.arrays]
