"""The README's self-contained Python examples run as written.

Each section named here opens with a complete program.  The later snippets
(durability, fault injection, lint pragmas) are excerpts that continue an
earlier example, so they are not run.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[2] / "README.md"

RUNNABLE_SECTIONS = ["Quickstart", "API", "The counter registry", "The batch API"]


def first_python_block(section: str) -> str:
    text = README.read_text()
    body = re.search(rf"^## {re.escape(section)}\n(.*?)(?=^## |\Z)", text, re.S | re.M)
    assert body, f"README has no section {section!r}"
    block = re.search(r"```python\n(.*?)```", body.group(1), re.S)
    assert block, f"README section {section!r} has no Python example"
    return block.group(1)


@pytest.mark.parametrize("section", RUNNABLE_SECTIONS)
def test_readme_example_runs(section, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the API example writes a checkpoint file
    code = compile(first_python_block(section), f"README.md ({section})", "exec")
    exec(code, {"__name__": "__main__"})
