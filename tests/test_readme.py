"""The README's library examples run as written, and it names every export."""

import re
from pathlib import Path

import e3sim

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


def test_readme_names_every_export():
    # a name counts where it stands as code: in a fenced block or a `span`
    text = (REPO_ROOT / "README.md").read_text()
    fence = re.compile(r"^```[^\n]*\n(.*?)^```", re.M | re.S)
    code = "\n".join(fence.findall(text) + re.findall(r"`([^`\n]+)`", fence.sub("", text)))
    assert [name for name in e3sim.__all__ if not re.search(rf"\b{re.escape(name)}\b", code)] == []
