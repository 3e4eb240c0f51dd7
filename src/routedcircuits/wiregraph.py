"""Open DAGs of wires, shared by routed circuits and indexed graphs.

A circuit and an indexed graph are both nodes joined by named wires, each
wire with one producer (a node or the input boundary) and one consumer (a
node or the output boundary).  This module checks such a graph, derives
its Kahn layers, walks its open wires layer by layer and renders it in
Graphviz; it imports neither layer, so each loads without the other.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import InvariantViolation


class _WireGraph:
    """What a circuit and an indexed graph share: an open DAG of wires, whose
    ends and Kahn layers :func:`_wire_graph` checks and derives once."""

    def producer_of(self, wire: str) -> str | None:
        """Node producing a wire, or None at the input boundary."""
        return self._producers.get(wire)

    def consumer_of(self, wire: str) -> str | None:
        """Node consuming a wire, or None at the output boundary."""
        return self._consumers.get(wire)


def _wire_graph(
    inputs: Sequence[str], outputs: Sequence[str], nodes: Mapping, wires: Iterable[str]
) -> tuple[dict, dict, tuple]:
    """Check an open DAG of wires; return its wire-to-producer and
    wire-to-consumer maps (None at the boundary) and its Kahn layers (see
    :func:`_kahn_layers`) as tuples.

    ``nodes`` maps ids to objects with ``inputs`` and ``outputs`` wire
    tuples, and ``wires`` holds the declared wire ids.  Every declared wire
    has one producer, a node or the input boundary, and one consumer, a
    node or the output boundary; it may run from one boundary to the other.
    """
    wires = dict.fromkeys(wires)  # in their order, for the first missing end
    ends: tuple[dict, dict] = ({}, {})  # producers, consumers

    def name(side: int, node: str | None) -> str:
        return f"the {('input', 'output')[side]} boundary" if node is None else f"node {node!r}"

    def claim(side: int, wire: str, node: str | None) -> None:
        if wire not in wires:
            raise InvariantViolation(f"{name(side, node)} uses undeclared wire {wire!r}")
        if wire in ends[side]:
            first, second = name(side, ends[side][wire]), name(side, node)
            twice = f"is listed twice by {first}" if first == second else (
                f"has two {('producers', 'consumers')[side]}: {first} and {second}"
            )
            raise InvariantViolation(f"wire {wire!r} {twice}")
        ends[side][wire] = node

    for side, boundary in enumerate((inputs, outputs)):
        for wire in boundary:
            claim(side, wire, None)
    for node_id, node in nodes.items():
        for side, touched in enumerate((node.outputs, node.inputs)):
            for wire in touched:
                claim(side, wire, node_id)
    for side, end in enumerate(("producer", "consumer")):
        for wire in wires:
            if wire not in ends[side]:
                raise InvariantViolation(f"wire {wire!r} has no {end}")
    layers = tuple(map(tuple, _kahn_layers(inputs, nodes)))
    stuck = sorted(set(nodes).difference(*layers))
    if stuck:
        waiting = sorted(w for w, node in ends[1].items() if node in stuck and ends[0][w] in stuck)
        raise InvariantViolation(
            f"the graph has a cycle: nodes {', '.join(map(repr, stuck))} wait on wires "
            f"{', '.join(map(repr, waiting))}, which only they produce"
        )
    return *ends, layers


def _kahn_layers(sources: Iterable[str], nodes: Mapping) -> list[list[str]]:
    """Group the nodes of a wire graph into sequential layers.

    ``nodes`` maps ids to objects with ``inputs`` and ``outputs`` wire
    tuples.  A layer holds, sorted by id, every node whose input wires are
    all available; nodes on a cycle are never placed.
    """
    available = set(sources)
    pending = dict(nodes)
    layers: list[list[str]] = []
    while pending:
        ready = sorted(n for n, node in pending.items() if set(node.inputs) <= available)
        if not ready:
            break
        layers.append(ready)
        for node_id in ready:
            node = pending.pop(node_id)
            available |= set(node.outputs)
            available -= set(node.inputs)
    return layers


class _Step(NamedTuple):
    """One layer of a foliation, with the wires around it."""

    layer: list[str]
    inputs: list[str]  # wires the layer consumes, then the passthrough wires
    outputs: list[str]  # wires the layer produces, then the passthrough wires
    passthrough: list[str]  # open wires the layer does not touch, in frontier order


def _walk(sources: Sequence[str], nodes: Mapping, layers: list[list[str]]) -> Iterator[_Step]:
    """Follow the open wires of a wire graph through its layers."""
    frontier = list(sources)
    for layer in layers:
        consumed = [w for n in layer for w in nodes[n].inputs]
        passthrough = [w for w in frontier if w not in consumed]
        outputs = [w for n in layer for w in nodes[n].outputs] + passthrough
        yield _Step(layer, consumed + passthrough, outputs, passthrough)
        frontier = outputs


# -- export --------------------------------------------------------------


def _dot_quoted(text: str, markup: str = "") -> str:
    """``text`` as a DOT quoted string, with its ``\\`` and ``"`` escaped,
    followed by ``markup`` (such as a ``\\n`` line break) as it is."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + markup + '"'


def _dot_graph(name: str, graph, inputs, outputs, nodes: dict, wires: dict) -> str:
    """Graphviz text of ``graph`` (a circuit or an indexed graph), drawn
    bottom to top: a point per input and output wire, the nodes (id: DOT
    attributes), and the wires (id: label) as edges from their producer (or
    input point) to their consumer (or output point).  The point of wire
    ``w`` is named ``in:w`` or ``out:w``, unless a node id takes that name:
    then it takes the first free suffix ``#2``, ``#3``, ..."""
    points = {f"in:{w}": w for w in inputs} | {f"out:{w}": w for w in outputs}
    taken = set(nodes) | set(points)
    names = {}
    for point in points:
        free, k = point, 2
        while point in nodes and free in taken:
            free, k = f"{point}#{k}", k + 1
        names[point] = free
        taken.add(free)
    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    for point, wire in points.items():
        lines.append(f"  {_dot_quoted(names[point])} [shape=point, xlabel={_dot_quoted(wire)}];")
    lines += [f"  {_dot_quoted(node)} [{attributes}];" for node, attributes in nodes.items()]
    for wire, label in wires.items():
        producer, consumer = graph.producer_of(wire), graph.consumer_of(wire)
        src = names["in:" + wire] if producer is None else producer
        dst = names["out:" + wire] if consumer is None else consumer
        lines.append(f"  {_dot_quoted(src)} -> {_dot_quoted(dst)} [label={_dot_quoted(label)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
