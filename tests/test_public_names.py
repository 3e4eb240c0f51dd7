"""No module of the package binds one of its own functions under two public
names.  Tracing tools wrap a module's functions by identity, so under an
alias one name would record its spans and its size observations under the
other's."""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import types

import pytest

import routedcircuits

MODULES = [routedcircuits] + [
    importlib.import_module(f"routedcircuits.{info.name}")
    for info in pkgutil.iter_modules(routedcircuits.__path__)
]


def aliases(module) -> list[list[str]]:
    """The public names of each function defined in ``module`` that has more than one."""
    names: dict = {}
    for name, obj in vars(module).items():
        if not name.startswith("_") and inspect.isfunction(obj):
            if obj.__module__ == module.__name__:
                names.setdefault(obj, []).append(name)
    return [group for group in names.values() if len(group) > 1]


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_each_function_has_one_public_name(module):
    assert aliases(module) == []


def test_an_alias_is_found():
    module = types.ModuleType("aliased")
    exec("def compose(): pass\ncp_compose = compose\n_private = compose", vars(module))
    assert aliases(module) == [["compose", "cp_compose"]]
