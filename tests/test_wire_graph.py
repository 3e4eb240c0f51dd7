"""The one structural check under circuits and indexed graphs: each rule
on both graph kinds, the topological check of an explicit box order, and
the one caller of the Kahn pass that a graph derives its layers from."""

from __future__ import annotations

import ast
import pathlib

import numpy as np
import pytest

from routedcircuits.circuits import Box, RoutedCircuit, evaluate
from routedcircuits.errors import InvariantViolation
from routedcircuits.iodag import IODAG, IONode, Partition
from routedcircuits.relations import Relation
from routedcircuits.routed_maps import RoutedMap
from routedcircuits.spaces import PartitionedSpace, tensor_many

SPACE = PartitionedSpace.trivial(2)
SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "routedcircuits"


def as_circuit(inputs, outputs, edges, nodes) -> RoutedCircuit:
    """A pure circuit of the graph, every wire declared with one space and
    every box a zero map of the right type."""
    boxes = {}
    for box_id, (ins, outs) in nodes.items():
        domain, codomain = (tensor_many([SPACE] * len(w)) for w in (ins, outs))
        route = Relation.full(domain.sector_labels, codomain.sector_labels)
        zero = np.zeros((codomain.total_dim, domain.total_dim))
        boxes[box_id] = Box(ins, outs, RoutedMap(route, zero, domain, codomain))
    wires = dict.fromkeys([*inputs, *edges, *outputs], SPACE)
    return RoutedCircuit(wires, boxes, inputs, outputs)


def as_iodag(inputs, outputs, edges, nodes) -> IODAG:
    """An indexed graph of the graph, with no indices."""
    return IODAG(
        inputs=inputs, outputs=outputs, inner_edges=edges,
        nodes={node_id: IONode(*ends) for node_id, ends in nodes.items()},
        placement={}, equivalence=Partition([]),
    )


# inputs, outputs, inner edges, nodes (id: (inputs, outputs)); the wire
# and the node (or None) a rejection names; whether a circuit accepts it
RULES = {
    "input listed twice": (("a", "a"), ("b",), (), {"n": (("a",), ("b",))}, "a", None, False),
    "output listed twice": (("a",), ("b", "b"), (), {"n": (("a",), ("b",))}, "b", None, False),
    "two producers": (
        ("a",), ("b",), (), {"n1": (("a",), ("b",)), "n2": ((), ("b",))}, "b", "n2", False
    ),
    "two consumers": (
        ("a",), ("b", "c"), (), {"n1": (("a",), ("b",)), "n2": (("a",), ("c",))}, "a", "n2",
        False,
    ),
    "input produced by a node": (
        ("a",), ("b",), (), {"n1": (("a",), ("b",)), "n2": ((), ("a",))}, "a", "n2", False
    ),
    "output consumed by a node": (
        ("a",), ("b",), (), {"n1": (("a",), ("b",)), "n2": (("b",), ())}, "b", "n2", False
    ),
    "no producer": (("a",), ("b",), ("c",), {"n": (("a", "c"), ("b",))}, "c", None, False),
    "no consumer": (("a",), ("b",), ("c",), {"n": (("a",), ("b", "c"))}, "c", None, False),
    "undeclared wire": (("a",), ("b",), (), {"n": (("a",), ("b", "x"))}, "x", "n", False),
    "cycle": (
        (), (), ("a", "b"), {"n1": (("a",), ("b",)), "n2": (("b",), ("a",))}, "a", "n1", False
    ),
    "input that is an output": (("a",), ("a",), (), {}, "a", None, True),
}


@pytest.mark.parametrize("build", [as_circuit, as_iodag], ids=["circuit", "iodag"])
@pytest.mark.parametrize("rule", list(RULES))
def test_structural_rule(rule, build):
    inputs, outputs, edges, nodes, wire, node, circuit_accepts = RULES[rule]
    if build is as_circuit and circuit_accepts:
        circuit = build(inputs, outputs, edges, nodes)
        assert circuit.producer_of(wire) is None and circuit.consumer_of(wire) is None
        return
    with pytest.raises(InvariantViolation) as err:
        build(inputs, outputs, edges, nodes)
    assert type(err.value) is InvariantViolation
    assert repr(wire) in str(err.value)
    if node is not None:
        assert repr(node) in str(err.value)


def test_cycle_names_every_node_and_wire_on_it():
    inputs, outputs, edges, nodes, *_ = RULES["cycle"]
    for build in (as_circuit, as_iodag):
        with pytest.raises(InvariantViolation, match="nodes 'n1', 'n2' wait on wires 'a', 'b'"):
            build(inputs, outputs, edges, nodes)


@pytest.mark.parametrize("side", ["input", "output"])
def test_circuit_boundary_wire_must_be_declared(side):
    """An indexed graph declares its boundary wires by listing them; a
    circuit declares a wire by giving it a space."""
    inputs, outputs = ("a", "x"), ("b",)
    if side == "output":
        inputs, outputs = ("a",), ("b", "x")
    boxes = {"n": Box(["a"], ["b"], RoutedMap.identity(SPACE))}
    wires = {"a": SPACE, "b": SPACE}
    with pytest.raises(InvariantViolation, match=f"{side} boundary uses undeclared wire 'x'"):
        RoutedCircuit(wires, boxes, inputs, outputs)


def test_indexed_graph_wire_ids_are_pairwise_distinct():
    with pytest.raises(InvariantViolation, match="wire 'a' is listed twice"):
        as_iodag(("a",), ("b",), ("a",), {"n": (("a",), ("b",))})


def test_both_kinds_store_the_same_ends_and_layers():
    graph = (
        ("a", "b"), ("e",), ("c", "d"),
        {"n1": (("a",), ("c",)), "n2": (("b",), ("d",)), "n3": (("c", "d"), ("e",))},
    )
    circuit, g = as_circuit(*graph), as_iodag(*graph)
    assert circuit._layers == g._layers == (("n1", "n2"), ("n3",))
    for wire in "abcde":
        assert circuit.producer_of(wire) == g.producer_of(wire)
        assert circuit.consumer_of(wire) == g.consumer_of(wire)


@pytest.mark.parametrize(
    "order, box, producer, wire",
    [
        (["alice", "encode", "bob", "decode"], "alice", "encode", "A"),
        (["encode", "decode", "alice", "bob"], "decode", "alice", "A2"),
        (["encode", "alice", "decode", "bob"], "decode", "bob", "B2"),
        (["bob", "alice", "encode", "decode"], "bob", "encode", "B"),
    ],
)
def test_evaluate_rejects_a_box_before_the_producer_of_its_input(
    two_trajectory, order, box, producer, wire
):
    circuit, _ = two_trajectory
    with pytest.raises(InvariantViolation, match="not topological") as err:
        evaluate(circuit, box_order=order)
    for name in (box, producer, wire):
        assert repr(name) in str(err.value)


@pytest.mark.parametrize(
    "order", [["encode", "alice", "bob"], ["encode", "alice", "alice", "decode"]]
)
def test_evaluate_rejects_an_order_that_is_no_enumeration(two_trajectory, order):
    circuit, _ = two_trajectory
    with pytest.raises(InvariantViolation, match="exactly once"):
        evaluate(circuit, box_order=order)


def test_only_the_wire_graph_runs_the_kahn_pass():
    """A graph's layers come from one Kahn pass, in ``_wire_graph``, and no
    other module imports it."""
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function in ast.walk(tree):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(function):
                called = getattr(node, "func", None)
                if getattr(called, "id", getattr(called, "attr", None)) == "_kahn_layers":
                    callers.add((path.stem, function.name))
        imported = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
        assert "_kahn_layers" not in imported, path.name
    assert callers == {("wiregraph", "_wire_graph")}
