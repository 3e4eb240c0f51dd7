"""Argument errors that only a library caller can reach (an unknown mode, a
declaration made twice, interfaces that do not match), which no
command-line test meets.  Each case checks the exact error class and
message."""

from __future__ import annotations

import numpy as np
import pytest

from routedcircuits.circuits import (
    CircuitBuilder,
    RoutedCircuit,
    Slice,
    accessible_space,
    check_circuit,
)
from routedcircuits.errors import (
    IncompatibleRestrictions,
    InterfaceMismatch,
    InvariantViolation,
    LengthMismatch,
    ShapeMismatch,
)
from routedcircuits.iodag import (
    IODAG,
    Corelation,
    IndexFamily,
    Interpretation,
    IONode,
    Partition,
    compose_corelations,
    explain_improper,
    interpret,
    lint,
    node_route,
    nonforgetting_compose,
    product_corelations,
    seq_compose_iodag,
    wire_space,
)
from routedcircuits.relations import IndexSet
from routedcircuits.routed_maps import RoutedMap, checked_compose
from routedcircuits.spaces import PartitionedSpace

AB = IndexSet(["a", "b"])
SPACE = PartitionedSpace(AB, (1, 2))
MAP = RoutedMap.identity(SPACE)
CIRCUIT = CircuitBuilder().wire("x", SPACE).wire("y", SPACE).inputs("x").outputs("y")
CIRCUIT = CIRCUIT.box("f", ["x"], ["y"], MAP).build()

#: one node from wire 'i' to wire 'o', whose two indices are one class
GRAPH = IODAG(
    ("i",), ("o",), (), {"n": IONode(["i"], ["o"])}, {"k": "i", "l": "o"},
    Partition(["k", "l"], [["k", "l"]]),
)
LENGTHS = {"k": 2, "l": 2}
SPACES = {wire: wire_space(GRAPH, wire, LENGTHS) for wire in GRAPH.wire_ids}
ROUTE = node_route(GRAPH, "n", Interpretation(LENGTHS, SPACES, {}))
MORPHS = {"n": RoutedMap(ROUTE, np.eye(2), SPACES["i"], SPACES["o"])}

K, L = IndexFamily({"k": 2}), IndexFamily({"l": 2})
TO_L = Corelation.from_pairs(K, L, [[("in", "k"), ("out", "l")]])


def interpreted(mode="iso", lengths=LENGTHS, spaces=SPACES, morphs=MORPHS):
    return interpret(GRAPH, Interpretation(lengths, spaces, morphs), mode)


def graph(placement=GRAPH.placement, empty_nodes=frozenset()):
    """``GRAPH`` with its placement or its empty nodes replaced."""
    equivalence = Partition(placement, [list(placement)])
    return IODAG(("i",), ("o",), (), GRAPH.nodes, placement, equivalence, empty_nodes)


#: id -> (call, error class, message)
CASES = {
    "interpret-mode": (lambda: interpreted("mono"), ValueError, "unknown mode 'mono'"),
    "interpret-no-length": (
        lambda: interpreted(lengths={"k": 2}), InvariantViolation, "no length for index 'l'",
    ),
    "interpret-lengths-differ": (
        lambda: interpreted(lengths={"k": 2, "l": 3}),
        LengthMismatch,
        "lengths differ on matched indices ['k', 'l']",
    ),
    "interpret-no-space": (
        lambda: interpreted(spaces={"i": SPACES["i"]}),
        InvariantViolation,
        "no space for wire 'o'",
    ),
    "interpret-wrong-labels": (
        lambda: interpreted(spaces={**SPACES, "o": PartitionedSpace.trivial(2)}),
        InvariantViolation,
        "wire 'o' must carry sector labels ((0,), (1,)), got ('*',)",
    ),
    "interpret-no-morphism": (
        lambda: interpreted(morphs={}), InvariantViolation, "no morphism for node 'n'",
    ),
    "lint-mode": (lambda: lint(GRAPH, "mono"), ValueError, "unknown mode 'mono'"),
    "check_circuit-mode": (
        lambda: check_circuit(CIRCUIT, "mono"), ValueError, "unknown mode 'mono'",
    ),
    "accessible_space-algorithm": (
        lambda: accessible_space(CIRCUIT, Slice(["x"]), "guess"),
        ValueError,
        "unknown algorithm 'guess'",
    ),
    "builder-wire-twice": (
        lambda: CircuitBuilder().wire("x", SPACE).wire("x", SPACE),
        InvariantViolation,
        "wire 'x' declared twice",
    ),
    "builder-box-twice": (
        lambda: CircuitBuilder().box("f", ["x"], ["y"], MAP).box("f", ["y"], ["z"], MAP),
        InvariantViolation,
        "box 'f' declared twice",
    ),
    "circuit-mode": (
        lambda: RoutedCircuit({}, {}, (), (), "mixed"),
        InvariantViolation,
        "unknown circuit mode 'mixed'",
    ),
    "routed-map-stack": (
        lambda: RoutedMap(MAP.route, MAP.kraus_stack, SPACE, SPACE),
        ShapeMismatch,
        "a routed map needs a matrix, got shape (1, 3, 3)",
    ),
    "relabel-domain": (
        lambda: MAP.relabel(domain=PartitionedSpace(AB, (2, 1))),
        ShapeMismatch,
        "relabelled domain changes sector dimensions",
    ),
    "relabel-codomain": (
        lambda: MAP.relabel(codomain=PartitionedSpace(AB, (2, 1))),
        ShapeMismatch,
        "relabelled codomain changes sector dimensions",
    ),
    "checked_compose-mode": (
        lambda: checked_compose(MAP, MAP, "mono"), ValueError, "unknown mode 'mono'",
    ),
    "compose_corelations-interface": (
        lambda: compose_corelations(TO_L, TO_L),
        InterfaceMismatch,
        "cannot compose corelations: IndexFamily(l:2) != IndexFamily(k:2)",
    ),
    "explain_improper-interface": (
        lambda: explain_improper(TO_L, TO_L),
        InterfaceMismatch,
        "cannot compose corelations: IndexFamily(l:2) != IndexFamily(k:2)",
    ),
    "product_corelations-shared-names": (
        lambda: product_corelations(TO_L, Corelation.identity(K)),
        InvariantViolation,
        "parallel corelations share names ['k']",
    ),
    "corelation-universe": (
        lambda: Corelation(K, L, Partition([("in", "k")])),
        InvariantViolation,
        "corelation partition universe does not match the tagged families",
    ),
    "nonforgetting_compose-shared": (
        lambda: nonforgetting_compose(Partition(["a", "b"]), Partition(["b", "c"]), ["a"]),
        IncompatibleRestrictions,
        "shared set is not part of both universes",
    ),
    "seq_compose_iodag-wires": (
        lambda: seq_compose_iodag(GRAPH, GRAPH),
        InterfaceMismatch,
        "interface wires differ: ['i', 'o'] not shared by both graphs",
    ),
    "iodag-unknown-wire": (
        lambda: graph(placement={"k": "i", "l": "p"}),
        InvariantViolation,
        "index 'l' placed on unknown wire 'p'",
    ),
    "iodag-empty-node-unknown": (
        lambda: graph(empty_nodes={"m"}),
        InvariantViolation,
        "empty node 'm' is not a node",
    ),
    "iodag-empty-node-wires": (
        lambda: IODAG(
            ("i",), ("o", "p"), (), {"m": IONode(["i"], ["o", "p"])}, {}, Partition([]), {"m"}
        ),
        InvariantViolation,
        "empty node 'm' must have exactly one input and one output wire",
    ),
}


def test_the_graph_interprets():
    assert interpreted().domain == SPACES["i"]


@pytest.mark.parametrize("case", CASES)
def test_argument_error(case):
    call, error, message = CASES[case]
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error and str(caught.value) == message
