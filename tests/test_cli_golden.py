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

from corpus import B2_SYMBOLIC

GOLDEN = Path(__file__).parent / "data" / "cli_golden.txt"

# catalog entries exported with every multiplicity replaced by ?cK
SYMBOLIC = ("B3", "B4", "TenVector", "G2timesScaledA2")

# Prop5's covectors, whose cleared integer rows generate a proper sublattice
# of Z^2, so that a Hermite basis of their span gives them other integer
# coordinates: at multiplicities 1, 5, 1, 3, 3, 1, 2 (not a vee-system) and
# with symbolic multiplicities.  No output may depend on those coordinates.
PROP5_VECTORS = ("1 0", "0 1", "0 2", "1/2 1/2", "1/2 -1/2", "1/2 3/2", "1/2 -3/2")
PROP5_FAIL = "dim 2\n" + "".join(
    f"vector {v} mult {c}\n" for v, c in zip(PROP5_VECTORS, (1, 5, 1, 3, 3, 1, 2))
)
PROP5_SYMBOLIC = "dim 2\n" + "".join(
    f"vector {v} mult ?c{k}\n" for k, v in enumerate(PROP5_VECTORS, 1)
)

# four covectors whose cleared rows generate a proper sublattice of Z^2 too
SKEW = "dim 2\nvector 1/3 2/5 mult 1\nvector 1 -1 mult 1\nvector 3/2 0 mult 1\nvector 0 7/3 mult 1\n"

COMMANDS = [
    f"{command} {name}.vee"
    for name, _ in catalog_list()
    for command in ("check", "series", "lambda --report-kv")
] + [
    "check b2fail.vee",
    "series b2fail.vee",
    "check prop5fail.vee",
    "series --report-kv prop5fail.vee",
    "check skew.vee",
    "series skew.vee",
    "constraints b2sym.vee",
    "family b2sym.vee --set c1=t --set c2=t",
    # every image constant (the family's variable is the placeholder _t), then
    # images that name another symbol of the file
    "family b2sym.vee --set c1=1 --set c2=1 --set cp=2 --set cm=3",
    "family b2sym.vee --set c1=cp --set c2=cm --report-kv",
    # failing families: images with a denominator, then two symbols sharing one
    "family b2sym.vee --set c1=1/(t+1) --set c2=2/(t+1) --set cp=t",
    "family B3sym.vee --set c4=t/(t+1) --set c6=t/(t+1) --set c1=1 --set c2=1 --set c3=2"
    " --set c5=1 --set c7=1 --set c8=1 --set c9=1",
    "constraints B3sym.vee",
    "search b2sym.vee --fix cp",
    "constraints prop5sym.vee",
    "search --report-kv prop5sym.vee",
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
    "catalog export B2 --report-kv --param c1=3/2 --param c2=3/2 --param cp=2 --param cm=5",
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
    `series failure:` lines.  Also PROP5_FAIL, PROP5_SYMBOLIC and SKEW as
    prop5fail.vee, prop5sym.vee and skew.vee."""
    for name, _ in catalog_list():
        text = export(name)
        (directory / f"{name}.vee").write_text(text)
        if name in SYMBOLIC:
            k = count(1)
            symbolic = re.sub(r" mult \S+", lambda _: f" mult ?c{next(k)}", text)
            (directory / f"{name}sym.vee").write_text(symbolic)
    (directory / "b2sym.vee").write_text(B2_SYMBOLIC)
    (directory / "b2fail.vee").write_text(export("B2", "--param", "c2=2"))
    (directory / "prop5fail.vee").write_text(PROP5_FAIL)
    (directory / "prop5sym.vee").write_text(PROP5_SYMBOLIC)
    (directory / "skew.vee").write_text(SKEW)


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
