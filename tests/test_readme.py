"""The library examples in README.md run as written, and the ``bounds``
example prints the rows shown under it."""

import re
import shlex
from pathlib import Path

import pytest

from partialrom.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_python_block_runs(index):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})


def test_bounds_example_prints_the_rows_shown(capsys):
    command, shown = re.search(
        r"^```sh\n(partialrom bounds .*?)^```\n\n```\n(.*?)^\.\.\.\n```",
        README.read_text(), flags=re.M | re.S,
    ).groups()
    assert main(shlex.split(command.replace("\\\n", " "))[1:]) == 0
    rows = shown.splitlines()
    assert len(rows) == 5 and capsys.readouterr().out.splitlines()[: len(rows)] == rows
