"""The public surface: every exported name resolves, once, the count is pinned,
and the README lists exactly these names."""

import ast
import importlib
import re
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import pochex

# Pinned so that adding or removing a public name shows up in the diff.
PUBLIC_NAMES = 55

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


@pytest.mark.parametrize(
    "name",
    ["identity_eval", "genfun_check", "default_grid", "DEFAULT_GENFUN_ORDER", "decompose_single",
     "ZeroSlope", "double_factorial"],
)
def test_second_entry_points_and_unused_names_are_gone(name):
    # run_relation checks a relation at one point or over a grid, and
    # decompose_multi decomposes a single factor pair too; F5 computes its own
    # double factorials.
    assert name not in pochex.__all__
    assert name not in dir(pochex)
    with pytest.raises(AttributeError, match=f"has no attribute {name!r}"):
        getattr(pochex, name)


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


def _module_state():
    """The names bound in each loaded pochex module, and the repr of each
    module-level dict, list and set ('__builtins__' is Python's, not ours)."""
    names, containers = {}, {}
    for module_name, module in sorted(sys.modules.items()):
        if module_name != "pochex" and not module_name.startswith("pochex."):
            continue
        names[module_name] = set(vars(module))
        for attr, value in vars(module).items():
            if attr != "__builtins__" and isinstance(value, (dict, list, set)):
                containers[module_name, attr] = repr(value)
    return names, containers


def test_public_calls_leave_no_module_state():
    # A sweep of public calls leaves every module-level container of every
    # pochex module as it found it: no call keeps a cache.  Every module is
    # loaded first, so the sweep loads none.  The package's own namespace is
    # left out of the name check: its PEP 562 __getattr__ binds each public
    # name on first use, and a submodule import binds the submodule there, by
    # design and at most once per name in __all__ or _NAMES; the containers it
    # holds (_NAMES, _MODULE, __all__) are still compared.
    for module in ("cli", *pochex._NAMES):
        importlib.import_module(f"pochex.{module}")
    names, containers = _module_state()
    for a in (1, 2, 5, 13, 211):
        for n in (0, 7, 45):
            pochex.gen_bernoulli_poly(n, a, F(-5, 3))
    for example in pochex.CLOSED_EXAMPLES:
        extra = {"delta": F(1, 3)} if example in ("F6", "F6_alt", "F7") else None
        pochex.expand_closed(example, 3, 8, extra)
    assert all(summary.passed for summary in pochex.verify_all())
    for method in pochex.PochMethod:
        pochex.poch_deriv(F(7, 3), 40, 3, method)
    for method in pochex.RecipMethod:
        pochex.recip_poch_deriv(F(-23, 5), 40, 3, method)
    after_names, after_containers = _module_state()
    del names["pochex"], after_names["pochex"]
    assert after_names == names
    assert after_containers == containers


def long_lines(directory):
    """Every line over 100 characters in the .py files of `directory`, as path:line."""
    return [
        f"{path.relative_to(ROOT)}:{lineno}"
        for path in sorted(directory.glob("*.py"))
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > 100
    ]


def test_src_lines_are_at_most_100_characters():
    # The source's line limit, checked here since no linter runs in tier-1.
    assert long_lines(ROOT / "src" / "pochex") == []


def test_test_lines_are_at_most_100_characters():
    assert long_lines(ROOT / "tests") == []
