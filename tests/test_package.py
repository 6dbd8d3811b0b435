"""The package namespace: every public name is resolved on first use."""

from __future__ import annotations

import importlib

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
