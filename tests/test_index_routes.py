"""``node_route`` and ``preprocessing_map`` are read off ``bar``; on random
one-node indexed graphs, against a decoding of every pair of tensor labels
into index values."""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from routedcircuits.iodag import (
    IODAG,
    Interpretation,
    IONode,
    Partition,
    node_route,
    preprocessing_map,
    wire_space,
)
from routedcircuits.spaces import subset_projector, tensor_many


def values(g: IODAG, wires, label) -> dict:
    """The index values a tensor label of ``wires``' spaces carries."""
    components = label if len(wires) > 1 else (label,) if wires else ()
    return {
        name: value
        for wire, component in zip(wires, components)
        for name, value in zip(g.indices_on(wire), component if g.indices_on(wire) else ())
    }


def matched(g: IODAG, assignment: dict) -> bool:
    """Whether every class of the graph's equivalence takes one value."""
    return all(
        len({assignment[name] for name in block if name in assignment}) <= 1
        for block in g.equivalence.blocks()
    )


def one_node_graph(inputs, outputs, placement, blocks, lengths, dims):
    """A graph of one node "n" from ``inputs`` to ``outputs``, with every
    wire space of sector dimension ``dims``."""
    g = IODAG(
        inputs=inputs,
        outputs=outputs,
        inner_edges=(),
        nodes={"n": IONode(inputs, outputs)},
        placement=placement,
        equivalence=Partition.from_blocks(blocks),
    )
    spaces = {w: wire_space(g, w, lengths, dims) for w in inputs + outputs}
    return g, Interpretation(lengths, spaces, {})


@st.composite
def graphs(draw):
    """A graph of one node, its index lengths (equal on classes) and wire spaces."""
    inputs = tuple(f"i{j}" for j in range(draw(st.integers(0, 3))))
    outputs = tuple(f"o{j}" for j in range(draw(st.integers(0, 3))))
    wires = inputs + outputs
    names = [f"k{j}" for j in range(draw(st.integers(0, 5)))] if wires else []
    placement = {name: draw(st.sampled_from(wires)) for name in names}
    classes = [draw(st.integers(0, 2)) for _ in names]
    blocks = [[n for n, c in zip(names, classes) if c == tag] for tag in set(classes)]
    class_length = [draw(st.integers(1, 3)) for _ in range(3)]
    lengths = {name: class_length[c] for name, c in zip(names, classes)}
    return one_node_graph(inputs, outputs, placement, blocks, lengths, draw(st.integers(1, 2)))


#: names on one wire out of sorted order across wires: k2 sorts after k1
#: but sits on the first wire
UNSORTED = one_node_graph(
    ("i0", "i1"), (), {"k0": "i0", "k1": "i1", "k2": "i0"}, [["k0", "k1"], ["k2"]],
    {"k0": 2, "k1": 2, "k2": 2}, 1,
)


@settings(max_examples=150, deadline=None)
@given(graphs())
@example(UNSORTED)
def test_node_route_against_decoded_labels(case):
    g, interp = case
    route = node_route(g, "n", interp)
    node = g.nodes["n"]
    domain, codomain = (
        tensor_many([interp.spaces[w] for w in wires]).sector_labels
        for wires in (node.inputs, node.outputs)
    )
    assert (route.domain, route.codomain) == (domain, codomain)
    expected = [
        [matched(g, {**values(g, node.inputs, k), **values(g, node.outputs, l)}) for l in codomain]
        for k in domain
    ]
    assert route.matrix.tolist() == expected


@settings(max_examples=150, deadline=None)
@given(graphs())
@example(UNSORTED)
def test_preprocessing_map_against_decoded_labels(case):
    g, interp = case
    pre = preprocessing_map(g, interp)
    space = tensor_many([interp.spaces[w] for w in g.inputs])
    kept = [label for label in space.sector_labels if matched(g, values(g, g.inputs, label))]
    assert pre.route.pairs() == [(label, label) for label in kept]
    assert np.array_equal(pre.matrix, subset_projector(space, kept))
    assert (pre.domain, pre.codomain) == (space, space)
