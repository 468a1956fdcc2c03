"""The README's examples run as written, so that no entry point or command
it documents can be dropped or renamed without this failing."""

import ast
import io
import re
import shlex
import types
from pathlib import Path

import pytest

import trigvee
from trigvee.cli import main

from corpus import B2_SYMBOLIC

README = Path(__file__).parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")


def section(title):
    return TEXT.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def library_block():
    block = re.search(r"```python\n(.*?)```", section("Library entry points"), re.S)
    assert block is not None
    return block.group(1)


def test_library_entry_points_block_runs():
    exec(compile(library_block(), "README.md", "exec"), {})


def test_package_exports_exactly_the_library_block():
    """The package's public names (not modules, not `_`-prefixed) are the
    names the library block imports from it; every other name is imported
    from its own module."""
    imported = {
        alias.name
        for node in ast.walk(ast.parse(library_block()))
        if isinstance(node, ast.ImportFrom) and node.module == "trigvee"
        for alias in node.names
    }
    public = {
        name
        for name, value in vars(trigvee).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(imported) == 12
    assert public == imported


# the CLI section's first block is the sample file, its second the commands
CLI_BLOCKS = re.findall(r"```\n(.*?)```", section("CLI"), re.S)
COMMANDS = [line for line in CLI_BLOCKS[1].splitlines() if line.startswith("vee ")]


@pytest.mark.parametrize("command", COMMANDS, ids=[c.split("#")[0].strip() for c in COMMANDS])
def test_cli_block_line_exits_0(command, tmp_path, monkeypatch, capsys):
    """Each `vee` line, run in-process on the sample file as `a2.vee` and the
    symbolic B2 as `sys.vee`; a pipe feeds one command's output to the next."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a2.vee").write_text(CLI_BLOCKS[0])
    (tmp_path / "sys.vee").write_text(B2_SYMBOLIC)
    for stage in command.split("|"):
        argv = shlex.split(stage, comments=True)
        assert argv[0] == "vee"
        assert main(argv[1:]) == 0, stage
        monkeypatch.setattr("sys.stdin", io.StringIO(capsys.readouterr().out))
