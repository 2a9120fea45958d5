"""README CLI examples: every documented output is what `pochex` prints."""

import re
import shlex
from pathlib import Path

import pytest

from pochex.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
# The README's example files, which its `--spec` lines read from the working directory.
README_FILES = {
    name: re.search(rf"^```\n({head}.*?)```", README, re.M | re.S)[1]
    for name, head in [("myseries.spec", r"\[function\]\n"), ("quotient.txt", r"\[numerator\]\n")]
}

# `pochex <args>   # -> <stdout>` lines inside the README's code blocks.
ONE_LINERS = re.findall(r"^pochex (.+?)\s+# -> (.+)$", README, re.MULTILINE)

# The `recip --laurent` line and the code block that shows what it prints.
LAURENT = re.search(
    r"^pochex (recip --laurent[^\n]*)\n```\n.*?\n```\n(.*?)```", README, re.MULTILINE | re.DOTALL
)


def test_readme_examples_are_found():
    assert len(ONE_LINERS) >= 4
    assert LAURENT is not None


@pytest.fixture
def readme_files(tmp_path, monkeypatch):
    """Run in a directory that holds the README's example files."""
    monkeypatch.chdir(tmp_path)
    for name, text in README_FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")


@pytest.mark.parametrize("command, expected", ONE_LINERS, ids=[c for c, _ in ONE_LINERS])
def test_readme_one_liner(capsys, readme_files, command, expected):
    assert main(shlex.split(command)) == 0
    assert capsys.readouterr().out == expected + "\n"


def test_readme_laurent_block(capsys):
    command, block = LAURENT.groups()
    assert main(shlex.split(command)) == 0
    assert capsys.readouterr().out == block
