"""The settable surface cannot grow silently: DESIGN.md's knob table
(§5e) is checked against the code in both directions — every
``REPRO_*`` environment variable named under ``src/`` is in the table
and vice versa, the table's keyword column is exactly
``ExecPool.__init__``'s keywords, and each keyword is described in the
class docstring."""

import inspect
import pathlib
import re

from repro.exec import ExecPool

ROOT = pathlib.Path(__file__).resolve().parent.parent
ENV_NAME = re.compile(r"\bREPRO_[A-Z_]+\b")


def knob_table():
    text = (ROOT / "DESIGN.md").read_text()
    tables = re.findall(
        r"<!-- knob-table:begin -->\n(.*?)<!-- knob-table:end -->", text,
        flags=re.S)
    assert len(tables) == 1, "DESIGN.md must have exactly one knob table"
    return tables[0]


def pool_keywords():
    params = inspect.signature(ExecPool.__init__).parameters
    return [name for name in params if name != "self"]


def test_env_variables_match_the_design_table():
    in_src = set()
    for path in (ROOT / "src").rglob("*.py"):
        in_src.update(ENV_NAME.findall(path.read_text()))
    assert in_src == set(ENV_NAME.findall(knob_table()))
    # Outside the table DESIGN.md may only *mention* listed variables.
    design = set(ENV_NAME.findall((ROOT / "DESIGN.md").read_text()))
    assert design <= in_src
    assert {n for n in in_src if n.startswith("REPRO_EXEC_")} == \
        {"REPRO_EXEC_FAULT_PLAN"}


def test_pool_keywords_match_the_design_table_and_docstring():
    keywords = pool_keywords()
    rows = [line.split("|")[1].strip()
            for line in knob_table().splitlines()[2:]]
    assert [r.strip("`") for r in rows if r.startswith("`")] == keywords
    doc = inspect.getdoc(ExecPool)
    missing = [kw for kw in keywords if f"``{kw}``" not in doc]
    assert not missing, f"ExecPool docstring does not describe {missing}"
