"""The per-wire name index of indexed graphs and the rewrites read through
it (lookups, ``lint``, ``normalize`` and the renaming of ``seq_compose_iodag``
and ``par_compose_iodag``), each against the placement-scanning reference
in ``iodag_oracle``, on random valid graphs with chains of inner empty
nodes and boundary strands."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from routedcircuits.iodag import (
    IODAG,
    IONode,
    Partition,
    lint,
    normalize,
    par_compose_iodag,
    seq_compose_iodag,
)

import iodag_oracle


@st.composite
def graphs(draw, upstream: IODAG | None = None):
    """A valid indexed graph whose ids follow one scheme ('n0', 'w0_1',
    'w0_1.0', ...), so that two draws clash.  Inputs left unconsumed become
    boundary strands, and chains of one or two empty nodes are spliced into
    some wires.  With ``upstream`` the graph takes that graph's outputs, with
    their names and classes, as its inputs."""
    taken: set[str] = set()
    names: dict[str, list[str]] = {}  # wire -> its names, wires in the order made
    label: dict[str, object] = {}  # name -> its class tag, or ('copy', name)

    def fresh(base: str) -> str:
        while base in taken:
            base += "'"
        taken.add(base)
        return base

    def wire(base: str, copied: str | None = None) -> str:
        """A new wire with up to two names, or with one copy of each name of
        ``copied`` in that name's class, paired in a drawn order: an empty
        node between the two wires may then cross classes."""
        made = fresh(base)
        count = draw(st.integers(0, 2)) if copied is None else len(names[copied])
        names[made] = [fresh(f"{made}.{j}") for j in range(count)]
        originals = () if copied is None else draw(st.permutations(names[copied]))
        for original, name in zip(originals, names[made]):
            label[name] = ("copy", original)
        return made

    if upstream is None:
        inputs = [wire(f"i{k}") for k in range(draw(st.integers(0, 3)))]
    else:
        inputs = [fresh(w) for w in upstream.outputs]
        for w in inputs:
            names[w] = [fresh(n) for n in upstream.indices_on(w)]
            label.update((n, "up:" + upstream.equivalence.find(n)) for n in names[w])
    nodes: dict[str, IONode] = {}
    empty: set[str] = set()
    unconsumed = list(inputs)
    for k in range(draw(st.integers(0, 4))):
        consumed = (
            draw(st.lists(st.sampled_from(unconsumed), unique=True, max_size=2))
            if unconsumed
            else []
        )
        produced = [wire(f"w{k}_{j}") for j in range(draw(st.integers(0, 2)))]
        unconsumed = [w for w in unconsumed if w not in consumed] + produced
        nodes[fresh(f"n{k}")] = IONode(consumed, produced)
    outputs = []
    for w in unconsumed:
        if w in inputs:  # a boundary strand
            node_id = fresh(f"e{w}")
            outputs.append(wire(f"{w}~out", copied=w))
            nodes[node_id] = IONode([w], [outputs[-1]])
            empty.add(node_id)
        else:
            outputs.append(w)
    for w in draw(st.lists(st.sampled_from(list(names)), unique=True)) if names else []:
        consumer = next((n for n, node in nodes.items() if w in node.inputs), None)
        last = w
        for depth in range(draw(st.integers(1, 2))):
            node_id = fresh(f"e{w}~{depth}")
            nxt = wire(f"{w}~{depth}", copied=last)
            nodes[node_id] = IONode([last], [nxt])
            empty.add(node_id)
            last = nxt
        if consumer is None:
            outputs[outputs.index(w)] = last
        else:
            spec = nodes[consumer]
            nodes[consumer] = IONode([last if x == w else x for x in spec.inputs], spec.outputs)

    tags = sorted({t for t in label.values() if isinstance(t, str)} | {"a", "b", "c"})
    classes: dict[str, list[str]] = {}
    for ns in names.values():
        for name in ns:
            if name not in label:
                label[name] = draw(st.sampled_from(tags))
            tag = label[name]
            while isinstance(tag, tuple):
                tag = label[tag[1]]
            classes.setdefault(tag, []).append(name)
    return IODAG(
        inputs=inputs,
        outputs=outputs,
        inner_edges=[w for w in names if w not in inputs and w not in outputs],
        nodes=nodes,
        placement={name: w for w, ns in names.items() for name in ns},
        equivalence=Partition.from_blocks(classes.values()),
        empty_nodes=empty,
    )


def fields(g: IODAG) -> tuple:
    """Every field of a graph, with its entries in the order it holds them."""
    nodes, placement = tuple(g.nodes.items()), tuple(g.placement.items())
    return g.inputs, g.outputs, g.inner_edges, nodes, placement, g.equivalence, g.empty_nodes


def lookups(g: IODAG) -> tuple:
    wires = (*g.wire_ids, "no such wire")
    return (
        [g.indices_on(w) for w in wires],
        [(g.incoming_indices(n), g.outgoing_indices(n)) for n in g.nodes],
        g.input_index_names(),
        g.output_index_names(),
    )


def reference_lookups(g: IODAG) -> tuple:
    oracle, wires = iodag_oracle, (*g.wire_ids, "no such wire")
    return (
        [oracle.indices_on(g, w) for w in wires],
        [(oracle.incoming_indices(g, n), oracle.outgoing_indices(g, n)) for n in g.nodes],
        oracle.input_index_names(g),
        oracle.output_index_names(g),
    )


def assert_matches_references(g: IODAG) -> None:
    assert lookups(g) == reference_lookups(g)
    for mode in ("iso", "uni"):
        assert lint(g, mode) == iodag_oracle.lint(g, mode)
    reduced = normalize(g)
    assert fields(reduced) == fields(iodag_oracle.normalize(g))
    assert lookups(reduced) == reference_lookups(reduced)


@settings(max_examples=150, deadline=None)
@given(graphs())
def test_lookups_lint_and_normalisation_match_the_references(g):
    assert_matches_references(g)


@settings(max_examples=100, deadline=None)
@given(graphs().flatmap(lambda g: graphs(upstream=g).map(lambda h: (g, h))))
def test_compositions_on_clashing_ids_match_the_references(pair):
    g, h = pair
    merged = seq_compose_iodag(h, g)
    assert fields(merged) == fields(iodag_oracle.seq_compose_iodag(h, g))
    assert_matches_references(merged)
    twice = par_compose_iodag(g, g)  # holds 'x' and 'x#2', so beside g its 'x' becomes 'x#3'
    for first, second in ((g, h), (h, g), (g, twice), (twice, h)):
        side_by_side = par_compose_iodag(first, second)
        assert fields(side_by_side) == fields(iodag_oracle.par_compose_iodag(first, second))
        assert_matches_references(side_by_side)
