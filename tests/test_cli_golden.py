"""Golden stdout and exit codes of the exact CLI commands.

`tests/data/cli_golden.txt` holds one block per command: the command line
after `$ vee `, its stdout, and `exit N`.  Every output is an exact rational
verdict, so it does not depend on the platform: every search here ends in
the exact stage.  The float commands (`wdvv`, `cms`) and the descent search
are pinned bit for bit by the frozen reference tests instead.  To regenerate
the file after an intended output change, run
`PYTHONPATH=src python tests/test_cli_golden.py` and review the diff.
"""

import io
import re
from contextlib import redirect_stderr, redirect_stdout
from itertools import count
from pathlib import Path

import pytest

from trigvee.catalog import catalog_list
from trigvee.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_golden.txt"

# catalog entries exported with every multiplicity replaced by ?cK
SYMBOLIC = ("B3", "B4", "TenVector", "G2timesScaledA2")

B2_SYMBOLIC = (
    "dim 2\nvector 1 0 mult ?c1\nvector 0 1 mult ?c2\nvector 1 1 mult ?cp\nvector 1 -1 mult ?cm\n"
)

COMMANDS = [
    f"{command} {name}.vee"
    for name, _ in catalog_list()
    for command in ("check", "series", "lambda --report-kv")
] + [
    "check b2fail.vee",
    "series b2fail.vee",
    "constraints b2sym.vee",
    "family b2sym.vee --set c1=t --set c2=t",
    "search b2sym.vee --fix cp",
] + [f"search --report-kv {name}sym.vee" for name in SYMBOLIC] + [
    "catalog list",
] + [f"catalog show {name}" for name, _ in catalog_list()] + [
    "catalog show A2 --param cc=-1/2",
    "catalog show B3 --param cl=-1/4",
    "catalog show B2 --param c2=2",
    "catalog show TenVector --param scale=1/12",
    "catalog show Prop5 --param t=2 --param s=1",
    "catalog show Prop4 --param c1=5",
    "catalog export B2 --param c1=3/2 --param c2=3/2 --param cp=2 --param cm=5",
]


def export(*args: str) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["catalog", "export", *args]) == 0
    return out.getvalue()


def write_inputs(directory: Path) -> None:
    """The 13 catalog exports as NAME.vee, the symbolic B2 as b2sym.vee, the
    symbolic exports of SYMBOLIC as NAMEsym.vee, and B2 at c2 = 2, which is
    not a vee-system, as b2fail.vee: its `check` and `series` blocks pin the
    `series failure:` lines."""
    for name, _ in catalog_list():
        text = export(name)
        (directory / f"{name}.vee").write_text(text)
        if name in SYMBOLIC:
            k = count(1)
            symbolic = re.sub(r" mult \S+", lambda _: f" mult ?c{next(k)}", text)
            (directory / f"{name}sym.vee").write_text(symbolic)
    (directory / "b2sym.vee").write_text(B2_SYMBOLIC)
    (directory / "b2fail.vee").write_text(export("B2", "--param", "c2=2"))


def run(command: str, directory: Path) -> str:
    """The golden block of one command: its line, its stdout, its exit code."""
    argv = [str(directory / a) if a.endswith(".vee") else a for a in command.split()]
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv)
    return f"$ vee {command}\n{out.getvalue()}exit {code}\n"


def golden_blocks() -> dict[str, str]:
    blocks = {}
    for chunk in GOLDEN.read_text().split("$ vee ")[1:]:
        blocks[chunk.split("\n", 1)[0]] = "$ vee " + chunk
    return blocks


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    write_inputs(directory)
    return directory


def test_golden_file_lists_every_command():
    assert list(golden_blocks()) == COMMANDS


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_output_matches_golden(command, inputs):
    assert run(command, inputs) == golden_blocks()[command]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp))
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text("".join(run(c, Path(tmp)) for c in COMMANDS))
