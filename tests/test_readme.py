"""The README's library quick start and command-line examples run against the package as it is."""

import re
import shlex
from pathlib import Path

from circulant3 import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_start_runs():
    # a renamed function, field or parameter in the library shows here as
    # an error, instead of as a stale example in the docs
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        re.DOTALL | re.MULTILINE)
    assert blocks, "README has no python block"
    exec(compile(blocks[0], f"{README.name} quick start", "exec"), {})


def test_readme_command_line_examples_exit_0(tmp_path, monkeypatch):
    # each line of the shell block of circulant3 commands, run in a
    # temporary directory so that the --out files land there
    block = re.search(r"^```\n((?:circulant3 .*\n)+)```$", README.read_text(encoding="utf-8"),
                      re.MULTILINE)
    assert block, "README has no block of circulant3 commands"
    lines = block.group(1).splitlines()
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert cli.main(shlex.split(line)[1:]) == 0, line
