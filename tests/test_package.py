"""The package namespace: every public name is resolved on first use."""

from __future__ import annotations

import importlib
import subprocess
import sys

import pytest

import authgraph


def test_each_name_is_its_defining_modules_object():
    listed = [name for names in authgraph._EXPORTS.values() for name in names]
    assert sorted(listed) == authgraph.__all__  # each name from one module only
    for module_name, names in authgraph._EXPORTS.items():
        module = importlib.import_module(f"authgraph.{module_name}")
        for name in names:
            assert getattr(authgraph, name) is getattr(module, name), (module_name, name)


def test_dir_lists_every_public_name():
    assert set(authgraph.__all__) <= set(dir(authgraph))


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from authgraph import *", namespace)
    for name in authgraph.__all__:
        assert namespace[name] is getattr(authgraph, name), name


@pytest.mark.parametrize("name", ["no_such_name", "reachable_plain", "FORMAT_VERSION"])
def test_a_name_outside_the_table_is_an_attribute_error(name):
    # `reachable_plain` and `FORMAT_VERSION` are public in their modules,
    # not in the package.
    with pytest.raises(AttributeError, match=f"^module 'authgraph' has no attribute '{name}'$"):
        getattr(authgraph, name)


def test_readme_library_example_runs(fixtures_dir):
    # The "Library use" section's example, run as a script in a fresh
    # interpreter with every warning an error; its asserts are its checks.
    readme = (fixtures_dir.parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    assert "undo_negative(state" in block
    proc = subprocess.run([sys.executable, "-W", "error", "-c", block], capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
