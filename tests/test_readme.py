"""The README's library example runs against the current API."""

import re
from pathlib import Path

_README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    section = _README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md (## Library)", "exec"), {})
