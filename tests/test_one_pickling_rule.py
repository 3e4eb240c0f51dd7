"""Every value of the package pickles and copies by one rule, written once
in ``frozen.Record``: call the class again with its ``_fields`` in order
(``test_plain_values`` checks the pickle round trip of each).
Only ``iodag.Partition``, whose slots hold derived blocks rather than its
constructor's arguments, keeps a rebuild of its own.  A Record whose
``_fields`` drifted from its constructor's parameters would pickle into a
wrong value without any error, so the two are pinned equal here."""

from __future__ import annotations

import ast
import copy
import importlib
import inspect
import pathlib

import pytest

from routedcircuits.frozen import Frozen, Record

from test_plain_values import CASES, built

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "routedcircuits"
MODULES = sorted(path.stem for path in SRC.glob("*.py") if not path.stem.startswith("__"))
OWN_REBUILD = {("frozen", "Record"), ("iodag", "Partition")}


def frozen_classes() -> list[type]:
    """Every class of the package built on ``Frozen``, in module order."""
    found = []
    for name in MODULES:
        module = importlib.import_module(f"routedcircuits.{name}")
        for value in vars(module).values():
            if inspect.isclass(value) and value.__module__ == module.__name__:
                if issubclass(value, Frozen) and value is not Frozen:
                    found.append(value)
    return found


def test_only_record_and_partition_write_a_rebuild():
    owners = set()
    for path in sorted(SRC.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, ast.FunctionDef):
                    names = [node.name]
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
                else:
                    continue
                if "__reduce__" in names or "__reduce_ex__" in names:
                    owners.add((path.stem, cls.name))
    assert owners == OWN_REBUILD


def test_every_value_is_a_record_of_its_constructor_parameters():
    classes = frozen_classes()
    assert set(CASES) <= set(classes)
    for cls in classes:
        if (cls.__module__.rsplit(".", 1)[1], cls.__name__) in OWN_REBUILD:
            continue
        assert issubclass(cls, Record), cls.__name__
        assert cls._fields == tuple(inspect.signature(cls).parameters), cls.__name__


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
@pytest.mark.parametrize("how", [copy.copy, copy.deepcopy], ids=["copy", "deepcopy"])
def test_a_copy_is_an_equal_value(cls, how):
    value, _ = built(cls)
    twin = how(value)
    assert type(twin) is cls and twin == value and repr(twin) == repr(value)
