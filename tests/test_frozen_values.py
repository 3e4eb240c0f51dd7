"""Frozen values expose read-only mappings: a mapping handed to a
constructor is copied, and the stored copy rejects assignment.  A
partition rejects every attempt to change it."""

from __future__ import annotations

import pytest

from routedcircuits import CircuitBuilder, PartitionedSpace, Relation, RoutedMap
from routedcircuits.circuits import evaluate
from routedcircuits.iodag import (
    IODAG,
    Corelation,
    IndexFamily,
    Interpretation,
    IONode,
    Partition,
    bar,
)

from conftest import make_two_trajectory_circuit


def test_index_family_lengths_are_read_only():
    lengths = {"b": 3, "a": 2}
    family = IndexFamily(lengths)
    with pytest.raises(TypeError):
        family.lengths["a"] = 0
    lengths["a"] = 5
    assert family.names == ("a", "b")
    assert family.length("a") == 2
    assert len(family.value_labels()) == 6


def test_circuit_wires_and_boxes_are_read_only(rng):
    circuit, _ = make_two_trajectory_circuit(rng)
    before = evaluate(circuit)
    with pytest.raises(TypeError):
        circuit.wires["x"] = PartitionedSpace.trivial(5)
    with pytest.raises(TypeError):
        circuit.boxes["x"] = circuit.boxes[next(iter(circuit.boxes))]
    assert evaluate(circuit) == before


def test_builder_stays_separate_from_its_circuit():
    builder = CircuitBuilder().wire("a", PartitionedSpace.trivial(2)).inputs("a").outputs("a")
    circuit = builder.build()
    builder.wire("b", PartitionedSpace.trivial(3))
    assert list(circuit.wires) == ["a"]


def test_iodag_nodes_and_placement_are_read_only():
    placement = {"k": "m"}
    g = IODAG(
        inputs=("i",),
        outputs=("o",),
        inner_edges=("m",),
        nodes={"u": IONode(("i",), ("m",)), "v": IONode(("m",), ("o",))},
        placement=placement,
        equivalence=Partition.discrete(["k"]),
    )
    with pytest.raises(TypeError):
        g.nodes["w"] = IONode((), ())
    with pytest.raises(TypeError):
        g.placement["k"] = "i"
    placement["k"] = "i"
    assert g.indices_on("m") == ("k",)


def test_interpretation_mappings_are_read_only():
    space = PartitionedSpace.trivial(2)
    lengths, spaces = {"k": 2}, {"w": space}
    interp = Interpretation(lengths, spaces, {})
    with pytest.raises(TypeError):
        interp.lengths["k"] = 5
    with pytest.raises(TypeError):
        interp.spaces["v"] = space
    with pytest.raises(TypeError):
        interp.morphs["u"] = RoutedMap.identity(space)
    lengths["k"] = 5
    spaces["v"] = space
    assert dict(interp.lengths) == {"k": 2}
    assert list(interp.spaces) == ["w"]


def test_partition_cannot_be_changed_after_construction():
    dom = IndexFamily({"a": 2})
    cod = IndexFamily({"b": 2})
    matching = Corelation.from_pairs(dom, cod)
    before = bar(matching)
    assert before == Relation.full(dom.index_set(), cod.index_set())
    part = matching.partition
    attempts = [
        lambda: part.union(("in", "a"), ("out", "b")),
        lambda: setattr(part, "_blocks", (frozenset({("in", "a"), ("out", "b")}),)),
        lambda: setattr(part, "_index", {("in", "a"): 0, ("out", "b"): 0}),
        lambda: setattr(part, "extra", 1),
        lambda: delattr(part, "_index"),
    ]
    for attempt in attempts:
        with pytest.raises(AttributeError):
            attempt()
        assert bar(matching) == before
    assert not part.related(("in", "a"), ("out", "b"))
