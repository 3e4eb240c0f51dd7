"""Shared fixtures: the worked-example circuits and random circuit
generators, and the environment of a child interpreter."""

from __future__ import annotations

import math
import os

import numpy as np
import pytest

from routedcircuits import (
    CircuitBuilder,
    PartitionedSpace,
    Relation,
    RoutedMap,
    check_circuit,
    lift_pure,
    tensor,
    tensor_many,
)
from routedcircuits import routed_maps as rmap
from routedcircuits.sampling import (
    random_block_diagonal_unitary,
    random_decohered_cpm,
    random_practical_isometry,
    random_practical_unitary,
    random_relation,
    random_space,
)


#: this checkout's package sources
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def child_env(**extra: str) -> dict:
    """This process's environment, with ``extra`` set and this checkout's
    sources first on ``PYTHONPATH``, so that a child interpreter imports
    the package under test."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def make_two_trajectory_parts(rng):
    """Spaces and maps of the one-particle-in-two-lines circuit (d = 2)."""
    message = PartitionedSpace.trivial(2)
    control = PartitionedSpace.trivial(2)
    line = PartitionedSpace.from_dims([0, 1], [1, 2])
    mc = tensor(message, control)
    ab = tensor(line, line)
    omega = Relation.from_pairs(
        mc.sector_labels, ab.sector_labels, [(("*", "*"), (0, 1)), (("*", "*"), (1, 0))]
    )
    matrix = np.zeros((9, 4), dtype=complex)
    for m in range(2):
        matrix[ab.sector_range((1, 0)).offset + m, 2 * m + 0] = 1.0
        matrix[ab.sector_range((0, 1)).offset + m, 2 * m + 1] = 1.0
    encode = RoutedMap(omega, matrix, mc, ab)
    alice = random_block_diagonal_unitary(line, rng)
    bob = random_block_diagonal_unitary(line, rng)
    return {
        "message": message,
        "control": control,
        "line": line,
        "mc": mc,
        "ab": ab,
        "omega": omega,
        "encode": encode,
        "alice": alice,
        "bob": bob,
        "decode": rmap.dagger(encode),
    }


def make_two_trajectory_circuit(rng):
    parts = make_two_trajectory_parts(rng)
    builder = CircuitBuilder("pure")
    for wire, space in [
        ("M", parts["message"]), ("C", parts["control"]),
        ("A", parts["line"]), ("B", parts["line"]),
        ("A2", parts["line"]), ("B2", parts["line"]),
        ("M2", parts["message"]), ("C2", parts["control"]),
    ]:
        builder.wire(wire, space)
    builder.inputs("M", "C").outputs("M2", "C2")
    builder.box("encode", ["M", "C"], ["A", "B"], parts["encode"])
    builder.box("alice", ["A"], ["A2"], parts["alice"])
    builder.box("bob", ["B"], ["B2"], parts["bob"])
    builder.box("decode", ["A2", "B2"], ["M2", "C2"], parts["decode"])
    return builder.build(), parts


@pytest.fixture
def two_trajectory(rng):
    return make_two_trajectory_circuit(rng)


def sample_routed_map(domain, codomain, rng, density=0.6):
    """A random routed map with a random (nonzero) route."""
    from routedcircuits.sampling import random_matrix_following

    while True:
        route = random_relation(domain.sector_labels, codomain.sector_labels, rng, density)
        if route.matrix.any():
            break
    return RoutedMap(route, random_matrix_following(route, domain, codomain, rng), domain, codomain)


def sample_practical_isometry(rng, max_sectors=3, max_dim=2, density=0.6):
    """Sample (route, spaces, practical isometry) by rejection."""
    while True:
        domain = random_space(rng, max_sectors, max_dim)
        codomain = random_space(rng, max_sectors, max_dim)
        route = random_relation(domain.sector_labels, codomain.sector_labels, rng, density)
        candidate = random_practical_isometry(route, domain, codomain, rng)
        if candidate is not None and route.matrix.any():
            return candidate


def random_circuit(rng, n_boxes=5, mode="pure", max_open=3):
    """A connected random circuit of route-following practical isometries.

    The number of simultaneously open wires is capped so interface tensors
    stay small; box codomains are resampled until the route admits a
    practical isometry.
    """
    from routedcircuits.sampling import random_matrix_following, random_practical_isometry

    builder = CircuitBuilder(mode)
    counter = [0]

    def new_wire(space):
        counter[0] += 1
        wire_id = f"w{counter[0]}"
        builder.wire(wire_id, space)
        return wire_id

    spaces = {}
    open_wires = []
    for _ in range(2):
        space = random_space(rng, max_sectors=2, max_dim=2)
        wire = new_wire(space)
        spaces[wire] = space
        open_wires.append(wire)
    inputs = list(open_wires)
    for b in range(n_boxes):
        k = int(rng.integers(1, min(2, len(open_wires)) + 1))
        picked = list(rng.choice(len(open_wires), size=k, replace=False))
        in_wires = [open_wires[i] for i in sorted(picked)]
        for wire in in_wires:
            open_wires.remove(wire)
        domain = tensor_many([spaces[w] for w in in_wires])
        n_out = 1 if len(open_wires) >= max_open - 1 else int(rng.integers(1, 3))
        while True:
            out_spaces = [random_space(rng, max_sectors=2, max_dim=2) for _ in range(n_out)]
            codomain = tensor_many(out_spaces)
            route = random_relation(domain.sector_labels, codomain.sector_labels, rng, 0.7)
            if not route.matrix.any():
                continue
            op = random_practical_isometry(route, domain, codomain, rng)
            if op is not None:
                break
        out_wires = []
        for space in out_spaces:
            wire = new_wire(space)
            spaces[wire] = space
            out_wires.append(wire)
        if mode == "cpm":
            from routedcircuits.routed_cpms import lift_pure

            builder.box(f"b{b}", in_wires, out_wires, lift_pure(op))
        else:
            builder.box(f"b{b}", in_wires, out_wires, op)
        open_wires.extend(out_wires)
    builder.inputs(*inputs).outputs(*open_wires)
    return builder.build()


#: the largest Kraus count, and operator stack in entries, of a gated channel circuit
MAX_KRAUS, MAX_STACK = 4096, 1 << 18


def gated_box(rng, gate, domain, codomain):
    """A box map on a random route of density 0.5 for a circuit gated as
    ``gate``, or None when the dimensions admit none: a practical isometry
    or unitary ('isometry'), a practical unitary ('unitary'), or a channel
    that is a lifted practical isometry or a practically trace-preserving
    decohered map of three operators per block ('channel')."""
    route = random_relation(domain.sector_labels, codomain.sector_labels, rng, 0.5)
    if gate == "unitary":
        return random_practical_unitary(route, domain, codomain, rng)
    if gate == "isometry":
        sampler = (random_practical_isometry, random_practical_unitary)[int(rng.integers(2))]
        return sampler(route, domain, codomain, rng)
    if rng.integers(2):
        op = random_practical_isometry(route, domain, codomain, rng)
        return None if op is None else lift_pure(op)
    try:
        return random_decohered_cpm(route, domain, codomain, rng, 3, True)
    except ValueError:  # a sector its blocks cannot cover
        return None


def random_box_dag(rng, gate):
    """A random circuit of 2-4 boxes from :func:`gated_box` on 1-3 input
    wires, each wire of 1-3 sectors of dimension 1-2, with at most three
    wires open at once; None when a box finds no map."""
    builder = CircuitBuilder("cpm" if gate == "channel" else "pure")
    spaces = {}

    def wire(space):
        wire_id = f"w{len(spaces)}"
        spaces[wire_id] = space
        builder.wire(wire_id, space)
        return wire_id

    open_wires = [wire(random_space(rng)) for _ in range(int(rng.integers(1, 4)))]
    builder.inputs(*open_wires)
    for b in range(int(rng.integers(2, 5))):
        k = int(rng.integers(1, min(2, len(open_wires)) + 1))
        picked = rng.choice(len(open_wires), size=k, replace=False)
        inputs = [open_wires[i] for i in sorted(picked)]
        open_wires = [w for w in open_wires if w not in inputs]
        domain = tensor_many([spaces[w] for w in inputs])
        n_out = 1 if len(open_wires) >= 2 else int(rng.integers(1, 3))
        for _ in range(20):
            outputs = [random_space(rng) for _ in range(n_out)]
            op = gated_box(rng, gate, domain, tensor_many(outputs))
            if op is not None:
                break
        else:
            return None
        outputs = [wire(space) for space in outputs]
        builder.box(f"b{b}", inputs, outputs, op)
        open_wires += outputs
    return builder.outputs(*open_wires).build()


def gated_circuit(rng, gate):
    """A circuit of :func:`random_box_dag` that passes ``check_circuit(circuit,
    gate)``, drawn again until one does.  A channel circuit's evaluation
    stays within MAX_KRAUS operators and MAX_STACK entries: a larger draw
    is skipped."""
    while True:
        circuit = random_box_dag(rng, gate)
        if circuit is None:
            continue
        count = math.prod(len(box.op.kraus_stack) for box in circuit.boxes.values())
        ends = (circuit.input_wires, circuit.output_wires)
        entries = count * math.prod(circuit.wires[w].total_dim for ws in ends for w in ws)
        if count <= MAX_KRAUS and entries <= MAX_STACK and check_circuit(circuit, gate).passed:
            return circuit
