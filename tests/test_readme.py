"""The README's library examples run as written, and it names every export;
the exports resolve from their home modules."""

import importlib
import re
from pathlib import Path

import pytest

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


def test_every_export_is_its_home_modules_object():
    for name, home in e3sim._HOME.items():
        assert getattr(e3sim, name) is getattr(importlib.import_module(f"e3sim.{home}"), name), name
    assert set(dir(e3sim)) >= set(e3sim.__all__)


def test_star_import_binds_every_export():
    namespace = {}
    exec("from e3sim import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(e3sim.__all__)


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="^module 'e3sim' has no attribute 'no_such_name'$"):
        e3sim.no_such_name
    assert not hasattr(e3sim, "no_such_name")


def test_an_export_whose_home_fails_to_import_raises_that_error(monkeypatch):
    # an ImportError is not turned into "no attribute"
    monkeypatch.setitem(e3sim._HOME, "ghost", "no_such_module")
    with pytest.raises(ModuleNotFoundError, match="e3sim.no_such_module"):
        e3sim.ghost
