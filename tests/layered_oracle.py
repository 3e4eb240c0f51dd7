"""The layered evaluation engine, kept as the test oracle of ``circuits.evaluate``.

Each foliation layer is tensored with identity maps on the wires it passes
through and relabelled to wire form, wires are reordered between layers by
dense permutation maps, and the layers are composed as routed maps (or
routed CP maps), so every intermediate is built and checked.  It shares
only the foliation (``_foliation_layers`` and ``_walk``) with the
per-wire contraction in ``circuits``.
"""

from __future__ import annotations

import math
from functools import reduce
from typing import Sequence

import numpy as np

from routedcircuits import routed_cpms, routed_maps
from routedcircuits.circuits import _foliation_layers, _interface_space, _walk
from routedcircuits.relations import Relation
from routedcircuits.routed_cpms import RoutedCPM, lift_pure
from routedcircuits.routed_maps import RoutedMap
from routedcircuits.spaces import kron_to_canonical, tensor_many


def _op_type(circuit):
    return RoutedMap if circuit.mode == "pure" else RoutedCPM


def transposition(sizes: Sequence[int], positions: Sequence[int]) -> np.ndarray:
    """For each row-major index of an array of shape ``sizes`` with axis
    ``positions[i]`` moved to place ``i``, the row-major index it had before."""
    return np.arange(math.prod(sizes)).reshape(sizes).transpose(positions).ravel()


def permutation_route(circuit, current: Sequence[str], target: Sequence[str]) -> Relation:
    spaces = [circuit.wires[w] for w in current]
    positions = [current.index(w) for w in target]
    domain = tensor_many(spaces).sector_labels
    codomain = tensor_many([spaces[p] for p in positions]).sector_labels
    matrix = np.zeros((domain.size, codomain.size), dtype=bool)
    source = transposition([s.sector_labels.size for s in spaces], positions)
    matrix[source, np.arange(codomain.size)] = True
    return Relation(domain, codomain, matrix)


def permutation_map(circuit, current: Sequence[str], target: Sequence[str]):
    spaces = [circuit.wires[w] for w in current]
    positions = [current.index(w) for w in target]
    permuted = [spaces[p] for p in positions]
    domain = tensor_many(spaces)
    codomain = tensor_many(permuted)
    matrix = np.zeros((codomain.total_dim, domain.total_dim), dtype=complex)
    source = transposition([s.total_dim for s in spaces], positions)
    matrix[kron_to_canonical(*permuted), kron_to_canonical(*spaces)[source]] = 1.0
    pure = RoutedMap(permutation_route(circuit, current, target), matrix, domain, codomain)
    return pure if circuit.mode == "pure" else lift_pure(pure)


def layer_op(circuit, step):
    """Tensor the layer's boxes with identities, relabelled to wire form."""
    factors = [circuit.boxes[b].op for b in step.layer]
    factors += [_op_type(circuit).identity(circuit.wires[w]) for w in step.passthrough]
    return reduce(_op_type(circuit).tensor, factors).relabel(
        _interface_space(circuit, step.inputs), _interface_space(circuit, step.outputs)
    )


def evaluate_layered(circuit, box_order: Sequence[str] | None = None):
    """Compose the circuit layer by layer into one routed map (or CP map)."""
    acc = None
    compose = routed_maps.compose if circuit.mode == "pure" else routed_cpms.compose

    def absorb(op) -> None:
        nonlocal acc
        acc = op if acc is None else compose(op, acc)

    frontier = list(circuit.input_wires)
    for step in _walk(circuit.input_wires, circuit.boxes, _foliation_layers(circuit, box_order)):
        if step.inputs != frontier:
            absorb(permutation_map(circuit, frontier, step.inputs))
        absorb(layer_op(circuit, step))
        frontier = step.outputs
    if frontier != list(circuit.output_wires):
        absorb(permutation_map(circuit, frontier, circuit.output_wires))
    if acc is None:
        return _op_type(circuit).identity(_interface_space(circuit, circuit.input_wires))
    return acc
