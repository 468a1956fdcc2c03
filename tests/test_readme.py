"""The README's library example runs as written, so that no entry point it
documents can be dropped or renamed without this failing."""

import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_library_entry_points_block_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library entry points\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block is not None
    exec(compile(block.group(1), "README.md", "exec"), {})
