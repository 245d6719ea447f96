"""The examples in README.md stay true: every ```python block runs, and
every `sixfold ...` command line of a ```sh block parses (none is run)."""

import re
import shlex
from pathlib import Path

import pytest

from sixfold.cli import build_parser

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.M | re.S)


PYTHON_BLOCKS = _blocks("python")
COMMANDS = [
    shlex.split(line, comments=True)
    for block in _blocks("sh")
    for line in block.splitlines()
    if line.startswith("sixfold ")
]


def test_readme_has_python_and_sh_examples():
    assert len(PYTHON_BLOCKS) >= 2 and len(COMMANDS) >= 10


@pytest.mark.parametrize("source", PYTHON_BLOCKS, ids=[f"block-{i}" for i in range(len(PYTHON_BLOCKS))])
def test_readme_python_block_runs(source):
    exec(compile(source, "README.md", "exec"), {})


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_readme_command_line_parses(argv):
    build_parser().parse_args(argv[1:])
