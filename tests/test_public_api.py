"""The public surface: every exported name resolves, once, the count is pinned,
and the README lists exactly these names."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import pochex

# Pinned so that adding or removing a public name shows up in the diff.
PUBLIC_NAMES = 62

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def test_every_exported_name_resolves_once():
    assert len(pochex.__all__) == len(set(pochex.__all__))
    missing = [name for name in pochex.__all__ if not hasattr(pochex, name)]
    assert missing == []


def test_public_name_count_is_pinned():
    assert len(pochex.__all__) == PUBLIC_NAMES


def _misfiled(table):
    """The (module, name) pairs of a name table whose module does not define the
    name at its top level; a name it only imports loads that module for nothing."""
    misfiled = []
    for module, names in table.items():
        source = (ROOT / "src" / "pochex" / f"{module}.py").read_text(encoding="utf-8")
        defined = set()
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(t.id for t in targets if isinstance(t, ast.Name))
        misfiled += [(module, name) for name in names.split() if name not in defined]
    return misfiled


def test_name_table_files_each_name_under_its_defining_module():
    assert _misfiled(pochex._NAMES) == []
    assert list(pochex._NAMES) == sorted(pochex._NAMES)
    # hyper_expand imports LinearParam from pochhammer but does not define it.
    moved = {**pochex._NAMES, "hyper_expand": pochex._NAMES["hyper_expand"] + " LinearParam"}
    assert _misfiled(moved) == [("hyper_expand", "LinearParam")]


@pytest.mark.parametrize(
    "name",
    ["series_compose", "series_elementary", "series_pow", "NonzeroConstantTerm",
     "RELATION_COVERAGE", "IN_SCOPE_TAGS"],
)
def test_reference_only_names_are_gone(name):
    # verify's reference series are private to it, and the coverage catalog is
    # test data (tests/relation_catalog.py).
    for module in (pochex, pochex.series, pochex.errors, pochex.verify):
        assert not hasattr(module, name), (module.__name__, name)


def test_readme_lists_the_public_api():
    # The "## Library" section's `- `pochex.<module>`: `name`, ...` lines,
    # one per defining module.
    library = README.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    groups = re.findall(r"^- `pochex\.(\w+)`: (.+)$", library, re.MULTILINE)
    listed = [name for _, names in groups for name in re.findall(r"`(\w+)`", names)]
    assert sorted(listed) == sorted(pochex.__all__)
    for module, names in groups:
        # import_module, since the package's `pochhammer` is the function.
        owner = importlib.import_module(f"pochex.{module}")
        for name in re.findall(r"`(\w+)`", names):
            value = getattr(owner, name)
            # A class or function names its module; a constant must live there.
            assert getattr(value, "__module__", owner.__name__) == owner.__name__, (module, name)
