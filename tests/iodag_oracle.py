"""The name lookups, linting, normalisation and renaming of indexed graphs
as they were written before each graph indexed its names per wire, kept
as the test oracles of ``iodag``; the layer-by-layer corelation fold,
kept as the test oracle of ``iodag.total_corelation``; and the
interpretation as the node circuit composed pairwise after the
input-matching projector, kept as the test oracle of ``iodag.interpret``.

Every lookup scans the whole placement; ``lint`` scans every node once per
class; ``normalize`` removes one empty node per pass with hand-kept loop
state; ``avoid_collisions`` renames wires, nodes and names in three loops
of its own.  They share only the graph types, ``Partition`` and the
corelation algebra with ``iodag``.
"""

from __future__ import annotations

from typing import Mapping

from routedcircuits import iodag, routed_maps
from routedcircuits import relations as rel
from routedcircuits.circuits import CircuitBuilder, evaluate
from routedcircuits.errors import InterfaceMismatch
from routedcircuits.iodag import (
    IODAG,
    Corelation,
    Interpretation,
    IONode,
    LintReport,
    LintViolation,
    Partition,
    _layer_corelations,
    bar,
    nonforgetting_compose,
    preprocessing,
)
from routedcircuits.routed_maps import RoutedMap


# -- lookups ---------------------------------------------------------------


def indices_on(g: IODAG, wire: str) -> tuple[str, ...]:
    return tuple(sorted(n for n, w in g.placement.items() if w == wire))


def incoming_indices(g: IODAG, node: str) -> tuple[str, ...]:
    return tuple(n for wire in g.nodes[node].inputs for n in indices_on(g, wire))


def outgoing_indices(g: IODAG, node: str) -> tuple[str, ...]:
    return tuple(n for wire in g.nodes[node].outputs for n in indices_on(g, wire))


def input_index_names(g: IODAG) -> tuple[str, ...]:
    return tuple(n for wire in g.inputs for n in indices_on(g, wire))


def output_index_names(g: IODAG) -> tuple[str, ...]:
    return tuple(n for wire in g.outputs for n in indices_on(g, wire))


# -- normalisation and linting ----------------------------------------------


def normalize(g: IODAG) -> IODAG:
    current = g
    while True:
        candidate = None
        for node_id in sorted(current.empty_nodes):
            node = current.nodes[node_id]
            a, b = node.inputs[0], node.outputs[0]
            if a in current.inputs and b in current.outputs:
                continue
            candidate = (node_id, a, b)
            break
        if candidate is None:
            return current
        node_id, a, b = candidate
        keep, drop = (a, b) if (a in current.inputs or b not in current.outputs) else (b, a)
        dropped_names = set(indices_on(current, drop))
        keep_placement = {
            name: (keep if wire == drop else wire)
            for name, wire in current.placement.items()
            if name not in dropped_names
        }
        new_equivalence = current.equivalence.restrict(set(keep_placement))
        nodes = {}
        for other_id, other in current.nodes.items():
            if other_id == node_id:
                continue
            nodes[other_id] = IONode(
                tuple(keep if w == drop else w for w in other.inputs),
                tuple(keep if w == drop else w for w in other.outputs),
            )
        current = IODAG(
            inputs=current.inputs,
            outputs=tuple(keep if w == drop else w for w in current.outputs),
            inner_edges=tuple(w for w in current.inner_edges if w not in (drop, keep))
            + ((keep,) if keep in current.inner_edges else ()),
            nodes=nodes,
            placement=keep_placement,
            equivalence=new_equivalence,
            empty_nodes=current.empty_nodes - {node_id},
        )


def lint(g: IODAG, mode: str) -> LintReport:
    if mode not in ("iso", "uni"):
        raise ValueError(f"unknown mode {mode!r}")
    g = normalize(g)
    input_names = set(input_index_names(g))
    output_names = set(output_index_names(g))
    violations: list[LintViolation] = []
    for block in g.equivalence.blocks():
        class_names = tuple(sorted(block))
        starting = []
        ending = []
        for node_id in sorted(g.nodes):
            incoming = set(incoming_indices(g, node_id)) & block
            outgoing = set(outgoing_indices(g, node_id)) & block
            if outgoing and not incoming:
                starting.append(node_id)
            if incoming and not outgoing:
                ending.append(node_id)
        if len(starting) > 1:
            violations.append(
                LintViolation("multiple-starting-points", class_names, tuple(starting))
            )
        if starting and block & input_names:
            violations.append(
                LintViolation("starting-point-for-input-index", class_names, tuple(starting))
            )
        if mode == "uni":
            if len(ending) > 1:
                violations.append(
                    LintViolation("multiple-endpoints", class_names, tuple(ending))
                )
            if ending and block & output_names:
                violations.append(
                    LintViolation("endpoint-for-output-index", class_names, tuple(ending))
                )
    return LintReport(mode=mode, violations=tuple(violations))


# -- composition ---------------------------------------------------------------


def _fresh_name(base: str, taken: set[str]) -> str:
    if base not in taken:
        return base
    n = 2
    while f"{base}#{n}" in taken:
        n += 1
    return f"{base}#{n}"


def _relabel(g: IODAG, wire_map: dict, node_map: dict, name_map: dict) -> IODAG:
    def w(x):
        return wire_map.get(x, x)

    def n(x):
        return node_map.get(x, x)

    def i(x):
        return name_map.get(x, x)

    placement = {i(name): w(wire) for name, wire in g.placement.items()}
    return IODAG(
        inputs=tuple(w(x) for x in g.inputs),
        outputs=tuple(w(x) for x in g.outputs),
        inner_edges=tuple(w(x) for x in g.inner_edges),
        nodes={
            n(node_id): IONode(tuple(w(x) for x in node.inputs), tuple(w(x) for x in node.outputs))
            for node_id, node in g.nodes.items()
        },
        placement=placement,
        equivalence=Partition(placement, (map(i, block) for block in g.equivalence.blocks())),
        empty_nodes=frozenset(n(x) for x in g.empty_nodes),
    )


def avoid_collisions(
    second: IODAG, first: IODAG, protected_wires: set[str], protected_names: set[str]
) -> IODAG:
    wire_taken = set(first.wire_ids) | set(second.wire_ids)
    node_taken = set(first.nodes) | set(second.nodes)
    name_taken = set(first.placement) | set(second.placement)
    wire_map = {}
    for wire in second.wire_ids:
        if wire in protected_wires:
            continue
        if wire in set(first.wire_ids):
            wire_map[wire] = _fresh_name(wire, wire_taken)
            wire_taken.add(wire_map[wire])
    node_map = {}
    for node_id in second.nodes:
        if node_id in first.nodes:
            node_map[node_id] = _fresh_name(node_id, node_taken)
            node_taken.add(node_map[node_id])
    name_map = {}
    for name in second.placement:
        if name in protected_names:
            continue
        if name in set(first.placement):
            name_map[name] = _fresh_name(name, name_taken)
            name_taken.add(name_map[name])
    if not (wire_map or node_map or name_map):
        return second
    return _relabel(second, wire_map, node_map, name_map)


def seq_compose_iodag(second: IODAG, first: IODAG) -> IODAG:
    if set(first.outputs) != set(second.inputs):
        missing = sorted(set(first.outputs) ^ set(second.inputs))
        raise InterfaceMismatch(
            f"interface wires differ: {missing!r} not shared by both graphs"
        )
    interface = set(first.outputs)
    first_names = {n for n, w in first.placement.items() if w in interface}
    second_names = {n for n, w in second.placement.items() if w in interface}
    if first_names != second_names or any(
        first.placement[n] != second.placement[n] for n in first_names
    ):
        raise InterfaceMismatch(
            "interface index placements differ: "
            f"{sorted(first_names)!r} (upstream) vs {sorted(second_names)!r} (downstream)"
        )
    if first.equivalence.restrict(first_names) != second.equivalence.restrict(second_names):
        up = first.equivalence.restrict(first_names).blocks()
        down = second.equivalence.restrict(second_names).blocks()
        raise InterfaceMismatch(
            f"interface index classes differ: {up!r} (upstream) vs {down!r} (downstream)"
        )
    second = avoid_collisions(second, first, interface, first_names)
    placement = {**first.placement, **second.placement}
    equivalence = nonforgetting_compose(
        first.equivalence, second.equivalence, first_names
    )
    return IODAG(
        inputs=first.inputs,
        outputs=second.outputs,
        inner_edges=first.inner_edges + tuple(first.outputs) + second.inner_edges,
        nodes={**first.nodes, **second.nodes},
        placement=placement,
        equivalence=equivalence,
        empty_nodes=first.empty_nodes | second.empty_nodes,
    )


def par_compose_iodag(first: IODAG, second: IODAG) -> IODAG:
    second = avoid_collisions(second, first, set(), set())
    placement = {**first.placement, **second.placement}
    return IODAG(
        inputs=first.inputs + second.inputs,
        outputs=first.outputs + second.outputs,
        inner_edges=first.inner_edges + second.inner_edges,
        nodes={**first.nodes, **second.nodes},
        placement=placement,
        equivalence=Partition(
            placement, first.equivalence.blocks() + second.equivalence.blocks()
        ),
        empty_nodes=first.empty_nodes | second.empty_nodes,
    )


# -- the layer-by-layer corelation fold ---------------------------------------


def compose_corelations_by_layers(
    g: IODAG, lengths: Mapping[str, int] | None = None, mode: str = "iso"
) -> tuple[Corelation, list[bool]]:
    """Fold the node corelations along the graph, pre-composing the
    input-matching corelation, and gate every sequential step.

    Returns the folded corelation (equal to :func:`iodag.total_corelation`
    for a well-indexed graph) and the per-step gate verdicts at the bar level.
    """
    g = iodag.normalize(g)
    total = preprocessing(g, lengths)  # the fold of a graph without layers
    gates: list[bool] = []
    proper = rel.is_proper_for_isometries if mode == "iso" else rel.is_proper_for_unitaries
    for _, layer_corelation, upstream, total in _layer_corelations(g, lengths):
        gates.append(proper(bar(upstream), bar(layer_corelation)))
    return total, gates


# -- interpretation by pairwise composition -----------------------------------


def interpret_pairwise(g: IODAG, interp: Interpretation) -> RoutedMap:
    """An interpretation of a lint-passing graph read as two engines: the
    circuit of the node maps and of the empty nodes' matching projectors on
    the graph as given, evaluated, then composed pairwise after the
    input-matching projector."""
    builder = CircuitBuilder(mode="pure")
    for wire in g.wire_ids:
        builder.wire(wire, interp.spaces[wire])
    builder.inputs(*g.inputs).outputs(*g.outputs)
    for node_id, node in g.nodes.items():
        if node_id in g.empty_nodes:
            (a,), (b,) = node.inputs, node.outputs
            route = iodag.node_route(g, node_id, interp)
            morph = iodag._matching_projector(route, interp.spaces[a], interp.spaces[b], node_id)
        else:
            morph = interp.morphs[node_id]
        builder.box(node_id, node.inputs, node.outputs, morph)
    return routed_maps.compose(evaluate(builder.build()), iodag.preprocessing_map(g, interp))
