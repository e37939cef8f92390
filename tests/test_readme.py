"""Every command line and Python example in the README runs as written.

Command lines go through cli.main in-process, with any --out directory
moved into a temporary directory; Python blocks run in a temporary working
directory, so the files they write land there.
"""
import re
import shlex
from pathlib import Path

import pytest

from dgmodeq.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
COMMANDS = [line for line in README.splitlines() if line.startswith("dgmodeq ")]
BLOCKS = re.findall(r"^```python\n(.*?)^```", README, flags=re.MULTILINE | re.DOTALL)


def test_examples_found():
    # an empty match would parametrize the examples away silently
    assert COMMANDS and BLOCKS


@pytest.mark.parametrize("line", COMMANDS, ids=lambda line: line.split()[1])
def test_readme_command_runs(line, tmp_path, capsys):
    argv = shlex.split(line, comments=True)[1:]
    if "--out" in argv:
        argv[argv.index("--out") + 1] = str(tmp_path)
    assert main(argv) == 0, capsys.readouterr()


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(block, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {"__name__": "readme"})
