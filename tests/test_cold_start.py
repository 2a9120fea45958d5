"""What a fresh interpreter loads and sees.

`import pochex` loads the core; `hyper_expand`, `partial_fractions`, `specfile`
and `verify` load on first use.  Each case runs in its own interpreter, since
in this process other test modules have already imported everything.
"""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from pochex.cli import main

ROOT = Path(__file__).resolve().parents[1]
DEFERRED = ("hyper_expand", "partial_fractions", "specfile", "verify")
# `dataclasses` and the library modules it loads: none is needed by the core.
HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def fresh(code: str, *argv: str) -> str:
    """The stdout of `code` run by a new interpreter that imports pochex from src/."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return done.stdout


# -- the package namespace ------------------------------------------------------------


def test_import_loads_the_core_only():
    code = "import sys, pochex; print(*sorted(m for m in sys.modules if m.startswith('pochex')))"
    core = ("combinatorics", "duals", "errors", "pochhammer", "series")
    assert fresh(code).split() == ["pochex", *(f"pochex.{m}" for m in core)]


def test_import_loads_no_dataclasses():
    # Neither after `import pochex` nor once every module of the package is loaded.
    code = f"""
import importlib, sys, pochex
print(*[m for m in {HEAVY!r} if m in sys.modules])
for module in pochex._NAMES:
    importlib.import_module(f"pochex.{{module}}")
print(*[m for m in {HEAVY!r} if m in sys.modules])
"""
    assert fresh(code).splitlines() == ["", ""]


@pytest.mark.parametrize(
    "module, name",
    [("hyper_expand", "expand_closed"), ("partial_fractions", "decompose_multi"),
     ("specfile", "parse_spec_text"), ("verify", "verify_all")],
)
def test_deferred_module_resolves_as_a_package_attribute(module, name):
    code = f"import pochex; print(pochex.{module}.{name}.__module__)"
    assert fresh(code) == f"pochex.{module}\n"


def test_fresh_namespace():
    code = """
import json, pochex
star = {}
exec("from pochex import *", star)
listed = set(pochex.__all__) <= set(dir(pochex))
import pochex.hyper_expand, pochex.partial_fractions, pochex.specfile, pochex.verify
try:
    pochex.no_such_name
    unknown = None
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps({
    "star": sorted(set(star) - {"__builtins__"}),
    "listed": listed,
    "pochhammer_is_function": callable(pochex.pochhammer) and pochex.pochhammer(2, 3) == 24,
    "unknown": unknown,
}))
"""
    result = json.loads(fresh(code))
    import pochex

    assert result == {
        "star": sorted(pochex.__all__),
        "listed": True,
        "pochhammer_is_function": True,
        "unknown": "module 'pochex' has no attribute 'no_such_name'",
    }


# -- what each command loads -----------------------------------------------------------

_LOADED = """
import sys
from pochex.cli import main
main(sys.argv[1:])
print(" ".join(sorted(sys.modules)))
"""


@pytest.mark.parametrize(
    "argv, deferred_loaded",
    [
        ("poch --alpha 1 -m 1 -k 0", []),
        ("recip --beta 1/2 -m 2 -k 1", []),
        ("recip --laurent -n 1 -b 1 -m 3 --order 2", []),
        ("quotient --num 1 1 -m 1 --den 2 1 -n 1 -k 1", ["partial_fractions"]),
    ],
    ids=["poch", "recip", "recip-laurent", "quotient"],
)
def test_command_loads_only_what_it_runs(argv, deferred_loaded):
    loaded = fresh(_LOADED, *argv.split()).splitlines()[-1].split()
    assert [m for m in DEFERRED if f"pochex.{m}" in loaded] == deferred_loaded


@pytest.mark.parametrize(
    "argv",
    ["poch --alpha 1 -m 1 -k 0", "recip --beta 1/2 -m 2 -k 1",
     "recip --laurent -n 1 -b 1 -m 3 --order 2", "expand --closed F5", "tables",
     "pf --spec {quotient}", "quotient --num 1 1 -m 1 --den 2 1 -n 1 -k 1", "verify --id A9"],
    ids=["poch", "recip", "recip-laurent", "expand-closed", "tables", "pf", "quotient", "verify"],
)
def test_poch_and_recip_load_no_dataclasses(argv, tmp_path):
    # Every command, not only poch and recip: no record is a dataclass.
    quotient = tmp_path / "quotient.txt"
    quotient.write_text("[denominator]\npoch = 1 1 : 1\npoch = 2 1 : 1\n")
    loaded = fresh(_LOADED, *argv.format(quotient=quotient).split()).splitlines()[-1].split()
    assert [m for m in HEAVY if m in loaded] == []


# -- the README lines of the commands whose imports are deferred ------------------------

README = (ROOT / "README.md").read_text(encoding="utf-8")
# `pochex <command> ...` lines that read no file, with their `# -> output` if documented.
DEFERRED_LINES = re.findall(
    r"^pochex ((?:quotient|expand --closed|tables|verify)[^#\n]*?)\s*(?:# (?:-> (.+))?.*)?$",
    README, re.MULTILINE,
)

_RUN_ALL = """
import contextlib, io, json, sys
from pochex.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        results.append([main(argv), out.getvalue()])
print(json.dumps(results))
"""


def test_readme_lines_of_deferred_commands_in_one_fresh_interpreter(capsys):
    commands = [command.split()[0] for command, _ in DEFERRED_LINES]
    assert sorted(set(commands)) == ["expand", "quotient", "tables", "verify"]
    argvs = [shlex.split(command) for command, _ in DEFERRED_LINES]
    results = json.loads(fresh(_RUN_ALL, json.dumps(argvs)))
    for (command, documented), argv, (code, out) in zip(DEFERRED_LINES, argvs, results):
        assert code == 0, command
        if documented:
            assert out == documented + "\n", command
        # The same as in this process, where every module was loaded up front.
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr().out == out, command
