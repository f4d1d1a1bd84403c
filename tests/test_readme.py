"""The README's library examples run as written."""

import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def test_readme_python_blocks_run_in_order(monkeypatch):
    # the blocks run from the repo root, in order, in one namespace: a later
    # block may use what an earlier one defined
    blocks = re.findall(r"^```python\n(.*?)^```", (REPO_ROOT / "README.md").read_text(), re.M | re.S)
    assert len(blocks) >= 2
    monkeypatch.chdir(REPO_ROOT)
    namespace = {"__name__": "readme"}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)
