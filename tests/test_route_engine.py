"""The route networks of ``circuits``, all summed by the planned
elimination: ``check_circuit`` against the padded gate kept in
``gate_oracle``, and the memory the contracted route takes."""

from __future__ import annotations

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from routedcircuits import CircuitBuilder
from routedcircuits.circuits import _run, check_circuit
from routedcircuits.relations import Relation
from routedcircuits.routed_cpms import lift_pure
from routedcircuits.routed_maps import RoutedMap
from routedcircuits.sampling import random_matrix_following
from routedcircuits.spaces import PartitionedSpace, tensor_many

from gate_oracle import check_circuit_padded
from test_contraction import circuits
from test_elimination import sliced_circuits


def _assert_gates_agree(circuit, mode) -> None:
    assert check_circuit(circuit, mode) == check_circuit_padded(circuit, mode)


class TestGateMatchesThePaddedGate:
    """Random circuits with passthrough wires, reordered interfaces,
    states, effects and routes of every density, empty ones included."""

    @settings(max_examples=300, deadline=None)
    @given(sliced_circuits("pure"), st.sampled_from(["isometry", "unitary"]))
    def test_pure(self, drawn, mode):
        _assert_gates_agree(drawn[0], mode)

    @settings(max_examples=150, deadline=None)
    @given(sliced_circuits("cpm"))
    def test_channel(self, drawn):
        _assert_gates_agree(drawn[0], "channel")

    @settings(max_examples=100, deadline=None)
    @given(circuits("pure"), st.sampled_from(["isometry", "unitary"]))
    def test_pure_with_reordered_boundaries(self, drawn, mode):
        _assert_gates_agree(drawn[0], mode)

    @settings(max_examples=50, deadline=None)
    @given(circuits("cpm"))
    def test_channel_with_reordered_boundaries(self, drawn):
        _assert_gates_agree(drawn[0], "channel")


def test_improper_interfaces_are_reported_alike():
    """Box s0 sends sector 0 of line a into both sectors of d, and s1 reads
    d only from sector 0, so sector 1 of d escapes.  s1 takes d from behind
    b in the open wires, and p passes through: the checked interface is
    reordered."""
    rng = np.random.default_rng(5)
    space = PartitionedSpace.from_dims([0, 1], [1, 1])
    pair = tensor_many([space, space])
    labels = space.sector_labels
    split = Relation.from_pairs(labels, pair.sector_labels, [(0, (0, 0)), (0, (0, 1))])
    keep = Relation.from_pairs(labels, labels, [(0, 0)])
    s0 = RoutedMap(split, random_matrix_following(split, space, pair, rng), space, pair)
    s1 = RoutedMap(keep, random_matrix_following(keep, space, space, rng), space, space)
    for mode, gate in (("pure", "unitary"), ("pure", "isometry"), ("cpm", "channel")):
        builder = CircuitBuilder(mode)
        for wire in ("a", "b", "c", "d", "p"):
            builder.wire(wire, space)
        ops = (s0, s1) if mode == "pure" else (lift_pure(s0), lift_pure(s1))
        builder.box("s0", ["a"], ["b", "d"], ops[0]).box("s1", ["d"], ["c"], ops[1])
        circuit = builder.inputs("p", "a").outputs("c", "b", "p").build()
        report = check_circuit(circuit, gate)
        assert report == check_circuit_padded(circuit, gate)
        (interface,) = report.interfaces
        assert not interface.passed
        assert interface.escaped_inputs == ((1, 0, 0), (1, 0, 1))


def test_contracted_route_holds_little_beyond_its_result():
    """Six two-sector input wires, one of them through a box, as a CPM
    circuit: the coherence route, four axes of 64, takes 16.7 MB.  The
    contraction peaks at no more than four times that; a dense identity on
    the sources, built first, once took thirteen."""
    space = PartitionedSpace.from_dims([0, 1], [1, 1])
    labels = space.sector_labels
    identity = lift_pure(RoutedMap(Relation.identity(labels), np.eye(2), space, space))
    lines = [f"x{j}" for j in range(6)]
    builder = CircuitBuilder("cpm").wire("y", space)
    for wire in lines:
        builder.wire(wire, space)
    builder.box("u", ["x0"], ["y"], identity)
    circuit = builder.inputs(*lines).outputs("y", *lines[1:]).build()
    tracemalloc.start()
    try:
        route = _run(circuit, "coherence", lines, ["u"], ["y", *lines[1:]])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert route.shape == (64,) * 4
    assert peak <= 4 * route.nbytes
    diagonal = np.einsum("kkll->kl", route)
    assert np.array_equal(diagonal, np.eye(64, dtype=bool))
