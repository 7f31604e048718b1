"""README.md's Python examples run as written."""
from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks(text: str) -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", text, flags=re.MULTILINE | re.DOTALL)


def test_readme_python_examples_run_in_order() -> None:
    # Later blocks use names the earlier ones define, so all share one namespace.
    blocks = python_blocks(README.read_text())
    assert len(blocks) >= 2
    namespace: dict = {"__name__": "readme"}
    for i, block in enumerate(blocks):
        exec(compile(block, f"{README.name} python block {i + 1}", "exec"), namespace)
