"""The padded properness gate, kept as the test oracle of ``circuits.check_circuit``.

Each foliation layer's route is the Kronecker product of its box routes
and identity relations on the wires it passes through, and the running
composite is reordered between layers by a dense permutation route, so
every interface relation is built whole.  It shares only the foliation
(``_foliation_layers`` and ``_walk``) and the report types with the
elimination in ``circuits``; the permutation routes come from
``layered_oracle``.
"""

from __future__ import annotations

from functools import reduce

from routedcircuits import relations as rel
from routedcircuits.circuits import (
    CircuitReport,
    InterfaceCheck,
    RoutedCircuit,
    _box_route,
    _foliation_layers,
    _interface_space,
    _walk,
)
from routedcircuits.errors import InvariantViolation
from routedcircuits.relations import Relation

from layered_oracle import permutation_route


def _layer_route(circuit: RoutedCircuit, step) -> Relation:
    parts = [_box_route(circuit, b) for b in step.layer]
    parts += [Relation.identity(circuit.wires[w].sector_labels) for w in step.passthrough]
    return Relation(
        _interface_space(circuit, step.inputs).sector_labels,
        _interface_space(circuit, step.outputs).sector_labels,
        reduce(rel.product, parts).matrix,
    )


def check_circuit_padded(circuit: RoutedCircuit, mode: str) -> CircuitReport:
    """Gate every sequential interface of the deterministic foliation."""
    if mode not in ("isometry", "unitary", "channel"):
        raise ValueError(f"unknown mode {mode!r}")
    if (mode == "channel") != (circuit.mode == "cpm"):
        raise InvariantViolation(
            f"mode {mode!r} does not apply to a {circuit.mode!r} circuit"
        )
    acc_route: Relation | None = None
    acc_boxes: tuple[str, ...] = ()
    checks: list[InterfaceCheck] = []
    layers = _foliation_layers(circuit)
    frontier = list(circuit.input_wires)
    for position, step in enumerate(_walk(circuit.input_wires, circuit.boxes, layers)):
        layer_route = _layer_route(circuit, step)
        if acc_route is None:
            acc_route = layer_route
        else:
            if step.inputs != frontier:
                permutation = permutation_route(circuit, frontier, step.inputs)
                acc_route = rel.compose(permutation, acc_route)
            escaped_in, escaped_out = rel.escaped(acc_route, layer_route)
            if mode != "unitary":
                escaped_out = ()
            checks.append(
                InterfaceCheck(
                    position=position,
                    upstream=acc_boxes,
                    downstream=tuple(step.layer),
                    passed=not escaped_in and not escaped_out,
                    escaped_inputs=escaped_in,
                    escaped_outputs=escaped_out,
                )
            )
            acc_route = rel.compose(layer_route, acc_route)
        acc_boxes += tuple(step.layer)
        frontier = step.outputs
    return CircuitReport(mode=mode, interfaces=tuple(checks))
