"""The public surface: every exported name resolves, once, the count is pinned,
and the README lists exactly these names."""

import importlib
import re
from pathlib import Path

import pytest

import pochex

# Pinned so that adding or removing a public name shows up in the diff.
PUBLIC_NAMES = 62

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_every_exported_name_resolves_once():
    assert len(pochex.__all__) == len(set(pochex.__all__))
    missing = [name for name in pochex.__all__ if not hasattr(pochex, name)]
    assert missing == []


def test_public_name_count_is_pinned():
    assert len(pochex.__all__) == PUBLIC_NAMES


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
