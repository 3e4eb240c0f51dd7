"""The package's immutable values are plain classes that behave as the
frozen dataclasses they replace: each is built from positional or keyword
arguments with the same defaults, compares, hashes (or refuses to) and
prints as before, refuses assignment and deletion of any attribute, and
survives a pickle round trip; no module applies ``dataclasses.dataclass``."""

from __future__ import annotations

import ast
import inspect
import pathlib
import pickle

import numpy as np
import pytest

from routedcircuits.circuits import (
    AccessibleSpace,
    Box,
    CircuitReport,
    InterfaceCheck,
    RoutedCircuit,
    Slice,
)
from routedcircuits.io import CircuitDocument
from routedcircuits.iodag import (
    IODAG,
    Corelation,
    ImproperMatchReport,
    IndexFamily,
    Interpretation,
    IONode,
    LintReport,
    LintViolation,
    MatchWitness,
    Partition,
)
from routedcircuits.relations import CPRelation, IndexSet, Relation
from routedcircuits.routed_cpms import RoutedCPM
from routedcircuits.routed_maps import RoutedMap
from routedcircuits.spaces import PartitionedSpace, SectorRange

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "routedcircuits"

AB = IndexSet(["a", "b"])
SPACE = PartitionedSpace(AB, (1, 2))
SPACE_REPR = "PartitionedSpace('a':1, 'b':2)"
MAP = RoutedMap.identity(SPACE)
MAP_REPR = f"RoutedMap({SPACE_REPR} -> {SPACE_REPR}, route weight 2)"
BOX = Box(("x",), ("y",), MAP)
BOX_REPR = f"Box(inputs=('x',), outputs=('y',), op={MAP_REPR})"
CIRCUIT_REPR = (
    f"RoutedCircuit(wires=mappingproxy({{'x': {SPACE_REPR}, 'y': {SPACE_REPR}}}), "
    f"boxes=mappingproxy({{'f': {BOX_REPR}}}), input_wires=('x',), output_wires=('y',), "
    "mode='pure')"
)
CIRCUIT = RoutedCircuit({"x": SPACE, "y": SPACE}, {"f": BOX}, ("x",), ("y",))
FAMILY = IndexFamily({"k": 2})
CHECK = InterfaceCheck(1, ("f",), ("g",), True)
CHECK_REPR = (
    "InterfaceCheck(position=1, upstream=('f',), downstream=('g',), passed=True, "
    "escaped_inputs=(), escaped_outputs=())"
)
WITNESS = MatchWitness("created", frozenset({("out", "k")}), ("k", "l"))
WITNESS_REPR = "MatchWitness(kind='created', block=frozenset({('out', 'k')}), pair=('k', 'l'))"
VIOLATION = LintViolation("multiple-starting-points", ("k",), ("m", "n"))
VIOLATION_REPR = (
    "LintViolation(rule='multiple-starting-points', class_names=('k',), nodes=('m', 'n'))"
)
UNHASHABLE = None

#: class -> (fields in constructor order, positional arguments, keyword
#: defaults, repr, the tuple it hashes as or UNHASHABLE)
CASES = {
    IndexSet: (["labels"], (["a", "b"],), {}, "IndexSet(['a', 'b'])", ("a", "b")),
    Relation: (
        ["domain", "codomain", "matrix"],
        (AB, AB, np.eye(2, dtype=bool)),
        {},
        "Relation(['a', 'b'] -> ['a', 'b'], [[1, 0], [0, 1]])",
        UNHASHABLE,
    ),
    CPRelation: (
        ["base_domain", "base_codomain", "matrix"],
        (AB, AB, np.ones((2, 2, 2, 2), dtype=bool)),
        {},
        "CPRelation(['a', 'b'] -> ['a', 'b'], weight=16)",
        UNHASHABLE,
    ),
    SectorRange: (
        ["label", "offset", "dim"], ("a", 0, 2), {},
        "SectorRange(label='a', offset=0, dim=2)", ("a", 0, 2),
    ),
    PartitionedSpace: (
        ["sector_labels", "sector_dims"], (AB, (1, 2)), {}, SPACE_REPR, (AB, (1, 2)),
    ),
    RoutedMap: (
        ["route", "matrix", "domain", "codomain", "tolerance"],
        (Relation.identity(AB), np.eye(3), SPACE, SPACE),
        {"tolerance": 1e-9},
        MAP_REPR,
        UNHASHABLE,
    ),
    RoutedCPM: (
        ["route", "kraus", "domain", "codomain", "tolerance"],
        (CPRelation(AB, AB, np.ones((2, 2, 2, 2), dtype=bool)), [np.eye(3)], SPACE, SPACE),
        {"tolerance": 1e-9},
        f"RoutedCPM({SPACE_REPR} -> {SPACE_REPR}, 1 Kraus operators)",
        UNHASHABLE,
    ),
    Box: (["inputs", "outputs", "op"], (["x"], ["y"], MAP), {}, BOX_REPR, UNHASHABLE),
    Slice: (["wires"], (["x", "y"],), {}, "Slice(wires=('x', 'y'))", (("x", "y"),)),
    RoutedCircuit: (
        ["wires", "boxes", "input_wires", "output_wires", "mode"],
        ({"x": SPACE, "y": SPACE}, {"f": BOX}, ("x",), ("y",)),
        {"mode": "pure"},
        CIRCUIT_REPR,
        UNHASHABLE,
    ),
    InterfaceCheck: (
        ["position", "upstream", "downstream", "passed", "escaped_inputs", "escaped_outputs"],
        (1, ("f",), ("g",), True),
        {"escaped_inputs": (), "escaped_outputs": ()},
        CHECK_REPR,
        (1, ("f",), ("g",), True, (), ()),
    ),
    CircuitReport: (
        ["mode", "interfaces"], ("isometry", (CHECK,)), {},
        f"CircuitReport(mode='isometry', interfaces=({CHECK_REPR},))", ("isometry", (CHECK,)),
    ),
    AccessibleSpace: (
        ["wires", "tuples", "sector_dims"], (("x",), (("a",),), (1,)), {},
        "AccessibleSpace(wires=('x',), tuples=(('a',),), sector_dims=(1,))",
        (("x",), (("a",),), (1,)),
    ),
    CircuitDocument: (
        ["format_version", "kind", "payload", "interpretation", "metadata"],
        ("1", "circuit", CIRCUIT),
        {"interpretation": None, "metadata": {}},
        f"CircuitDocument(format_version='1', kind='circuit', payload={CIRCUIT_REPR}, "
        "interpretation=None, metadata={})",
        UNHASHABLE,
    ),
    IndexFamily: (["lengths"], ({"k": 2},), {}, "IndexFamily(k:2)", UNHASHABLE),
    Corelation: (
        ["domain", "codomain", "partition"],
        (FAMILY, FAMILY, Partition([("in", "k"), ("out", "k")], [[("in", "k"), ("out", "k")]])),
        {},
        "Corelation(IndexFamily(k:2) -> IndexFamily(k:2), Partition({('in', 'k'), ('out', 'k')}))",
        UNHASHABLE,
    ),
    MatchWitness: (
        ["kind", "block", "pair"], ("created", frozenset({("out", "k")}), ("k", "l")), {},
        WITNESS_REPR, ("created", frozenset({("out", "k")}), ("k", "l")),
    ),
    ImproperMatchReport: (
        ["created_witnesses", "deleted_witnesses"], ((WITNESS,), ()), {},
        f"ImproperMatchReport(created_witnesses=({WITNESS_REPR},), deleted_witnesses=())",
        ((WITNESS,), ()),
    ),
    IONode: (
        ["inputs", "outputs"], (["i"], ["o"]), {}, "IONode(inputs=('i',), outputs=('o',))",
        (("i",), ("o",)),
    ),
    IODAG: (
        ["inputs", "outputs", "inner_edges", "nodes", "placement", "equivalence", "empty_nodes"],
        (
            ("i",), ("o",), (), {"n": IONode(["i"], ["o"])}, {"k": "i", "l": "o"},
            Partition(["k", "l"], [["k", "l"]]),
        ),
        {"empty_nodes": frozenset()},
        "IODAG(1 nodes, 2 wires, 2 indices)",
        UNHASHABLE,
    ),
    LintViolation: (
        ["rule", "class_names", "nodes"], ("multiple-starting-points", ("k",), ("m", "n")),
        {}, VIOLATION_REPR, ("multiple-starting-points", ("k",), ("m", "n")),
    ),
    LintReport: (
        ["mode", "violations"], ("iso", (VIOLATION,)), {},
        f"LintReport(mode='iso', violations=({VIOLATION_REPR},))", ("iso", (VIOLATION,)),
    ),
    Interpretation: (
        ["lengths", "spaces", "morphs"], ({"k": 2}, {"i": SPACE}, {}), {},
        f"Interpretation(lengths=mappingproxy({{'k': 2}}), spaces=mappingproxy({{'i': "
        f"{SPACE_REPR}}}), morphs=mappingproxy({{}}))",
        UNHASHABLE,
    ),
}


def built(cls) -> tuple:
    """The case's value built positionally, and built by keyword with every
    default spelled out."""
    names, args, defaults, _, _ = CASES[cls]
    return cls(*args), cls(**dict(zip(names, args)), **defaults)


def test_every_former_dataclass_is_covered():
    assert len(CASES) == 23


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
def test_signature(cls):
    names, args, defaults, _, _ = CASES[cls]
    parameters = inspect.signature(cls).parameters
    assert list(parameters) == names
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in parameters.values())
    required = [name for name, p in parameters.items() if p.default is p.empty]
    assert required == names[: len(args)]
    for name, value in defaults.items():
        if name != "metadata":  # a fresh dict per document
            assert parameters[name].default == value


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
def test_construction_equality_and_repr(cls):
    positional, keyword = built(cls)
    assert type(positional) is cls and type(keyword) is cls
    assert positional == keyword and not positional != keyword
    assert positional != object()
    assert repr(positional) == repr(keyword) == CASES[cls][3]


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
def test_hash(cls):
    positional, keyword = built(cls)
    expected = CASES[cls][4]
    if expected is UNHASHABLE:
        with pytest.raises(TypeError):
            hash(positional)
    else:
        assert hash(positional) == hash(keyword) == hash(expected)


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
def test_assignment_and_deletion_raise(cls):
    value, _ = built(cls)
    field = CASES[cls][0][0]
    before = repr(value)
    for name in (field, "unrelated"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == before


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
def test_pickle_round_trip(cls):
    value, _ = built(cls)
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is cls and copy == value and repr(copy) == repr(value)


def test_a_document_gets_a_fresh_metadata_dict():
    first, second = (CircuitDocument("1", "circuit", CIRCUIT) for _ in range(2))
    assert first.metadata == {} and first.metadata is not second.metadata


def test_no_module_applies_the_dataclass_decorator():
    """Decorating a class generates its methods through ``exec`` when the
    module is imported, which a command-line start pays for every time."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                assert "dataclasses" not in [alias.name for alias in node.names], path.name
            if isinstance(node, ast.ImportFrom):
                assert node.module != "dataclasses", path.name
            if isinstance(node, ast.ClassDef):
                decorators = [ast.unparse(d) for d in node.decorator_list]
                assert not any("dataclass" in d for d in decorators), (path.name, node.name)
