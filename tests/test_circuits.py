"""Circuit DAGs: evaluation, foliation independence, gating, slices."""

from __future__ import annotations

import importlib.util
import os

import numpy as np
import pytest

from routedcircuits import circuits
from routedcircuits import routed_maps as rmap
from routedcircuits.circuits import (
    CircuitBuilder,
    Slice,
    accessible_space,
    check_circuit,
    circuit_to_dot,
    evaluate,
    formal_space,
)
from routedcircuits.errors import InvalidSlice, InvariantViolation, TypeMismatch
from routedcircuits.io import load_bundled
from routedcircuits.relations import Relation
from routedcircuits.routed_maps import RoutedMap, is_practical_unitary, tensor_map
from routedcircuits.sampling import random_block_diagonal_unitary, random_practical_isometry
from routedcircuits.spaces import PartitionedSpace, subset_projector, tensor

from conftest import make_two_trajectory_circuit, random_circuit


class TestEvaluate:
    def test_single_box(self, rng):
        space = PartitionedSpace.from_dims([0, 1], [1, 2])
        u = random_block_diagonal_unitary(space, rng)
        builder = CircuitBuilder("pure")
        builder.wire("in", space).wire("out", space)
        builder.inputs("in").outputs("out")
        builder.box("u", ["in"], ["out"], u)
        result = evaluate(builder.build())
        assert np.allclose(result.matrix, u.matrix)
        assert result.route == u.route

    def test_two_trajectories_is_practical_unitary(self, two_trajectory):
        circuit, parts = two_trajectory
        result = evaluate(circuit)
        assert is_practical_unitary(result)
        manual = rmap.compose(
            parts["decode"],
            rmap.compose(tensor_map(parts["alice"], parts["bob"]), parts["encode"]),
        )
        assert np.allclose(result.matrix, manual.matrix, atol=1e-12)

    def test_foliation_independence_on_fixture(self, two_trajectory):
        circuit, _ = two_trajectory
        one = evaluate(circuit, box_order=["encode", "alice", "bob", "decode"])
        two = evaluate(circuit, box_order=["encode", "bob", "alice", "decode"])
        assert np.abs(one.matrix - two.matrix).max() < 1e-12

    def test_foliation_independence_on_random_circuits(self, rng):
        for trial in range(5):
            circuit = random_circuit(rng, n_boxes=5)
            layers = sorted(circuit.boxes)
            first = evaluate(circuit, box_order=layers)
            alt = _alternative_topological_order(circuit, layers)
            second = evaluate(circuit, box_order=alt)
            assert np.abs(first.matrix - second.matrix).max() < 1e-12

    def test_foliation_independence_cpm(self, rng):
        for trial in range(3):
            circuit = random_circuit(rng, n_boxes=4, mode="cpm")
            layers = sorted(circuit.boxes)
            alt = _alternative_topological_order(circuit, layers)
            first = evaluate(circuit, box_order=layers)
            second = evaluate(circuit, box_order=alt)
            assert np.abs(first.choi() - second.choi()).max() < 1e-12

    def test_output_permutation(self, rng):
        space = PartitionedSpace.trivial(2)
        builder = CircuitBuilder("pure")
        builder.wire("a", space).wire("b", space)
        builder.inputs("a", "b").outputs("b", "a")
        result = evaluate(builder.build())
        swap = np.zeros((4, 4))
        for i in range(2):
            for j in range(2):
                swap[j * 2 + i, i * 2 + j] = 1.0
        assert np.allclose(result.matrix, swap)

    def test_rejects_non_topological_order(self, two_trajectory):
        circuit, _ = two_trajectory
        with pytest.raises(InvariantViolation):
            evaluate(circuit, box_order=["alice", "encode", "bob", "decode"])

    def test_state_preparation_box(self, rng):
        # a box with no input wires: the circuit prepares a state on a
        # fresh wire next to a pass-through wire
        carried = PartitionedSpace.trivial(2)
        prepared = PartitionedSpace.from_dims([0, 1], [1, 1])
        vec = rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1))
        vec /= np.linalg.norm(vec)
        prep = RoutedMap(
            Relation.full(PartitionedSpace.trivial().sector_labels, prepared.sector_labels),
            vec,
            PartitionedSpace.trivial(),
            prepared,
        )
        builder = CircuitBuilder("pure")
        builder.wire("carry", carried).wire("carry2", carried).wire("fresh", prepared)
        builder.inputs("carry").outputs("carry2", "fresh")
        builder.box("noop", ["carry"], ["carry2"], RoutedMap.identity(carried))
        builder.box("prep", [], ["fresh"], prep)
        result = evaluate(builder.build())
        assert result.matrix.shape == (4, 2)
        state = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        out = result.matrix @ state
        # canonical coordinates are sector-major: the fresh wire's sector
        # label (its whole coordinate here) varies slowest
        assert np.allclose(out.reshape(2, 2), np.outer(vec.ravel(), state))

    def test_mid_circuit_wire_reordering(self, two_trajectory, rng):
        # same pipeline, but the decoder consumes its wires in swapped order;
        # the evaluator must insert the reordering map
        circuit, parts = two_trajectory
        line = parts["line"]
        ba = tensor(line, line)

        # swap map from B (x) A ordering back to A (x) B ordering
        order = []
        for (b, a) in ba.sector_labels:
            src = ba.sector_range((b, a))
            for bo in range(line.dim_of(b)):
                for ao in range(line.dim_of(a)):
                    order.append(
                        (
                            parts["ab"].sector_range((a, b)).offset
                            + ao * line.dim_of(b)
                            + bo,
                            src.offset + bo * line.dim_of(a) + ao,
                        )
                    )
        swap_matrix = np.zeros((9, 9), dtype=complex)
        for row, col in order:
            swap_matrix[row, col] = 1.0
        swap_route = Relation.from_pairs(
            ba.sector_labels, parts["ab"].sector_labels,
            [((b, a), (a, b)) for (b, a) in ba.sector_labels],
        )
        swap = RoutedMap(swap_route, swap_matrix, ba, parts["ab"])
        decode_swapped = rmap.compose(parts["decode"], swap)

        builder = CircuitBuilder("pure")
        for wire, space in [
            ("M", parts["message"]), ("C", parts["control"]),
            ("A", line), ("B", line), ("A2", line), ("B2", line),
            ("M2", parts["message"]), ("C2", parts["control"]),
        ]:
            builder.wire(wire, space)
        builder.inputs("M", "C").outputs("M2", "C2")
        builder.box("encode", ["M", "C"], ["A", "B"], parts["encode"])
        builder.box("alice", ["A"], ["A2"], parts["alice"])
        builder.box("bob", ["B"], ["B2"], parts["bob"])
        builder.box("decode", ["B2", "A2"], ["M2", "C2"], decode_swapped)
        rewired = builder.build()
        assert np.allclose(
            evaluate(rewired).matrix, evaluate(circuit).matrix, atol=1e-12
        )

    def test_channel_interface_failure_reported(self, rng):
        from routedcircuits.routed_cpms import lift_pure

        start = PartitionedSpace.trivial(1)
        mid = PartitionedSpace.from_dims([0, 1], [1, 1])
        end = PartitionedSpace.trivial(1)
        lam = Relation.full(start.sector_labels, mid.sector_labels)
        spread = random_practical_isometry(lam, start, mid, rng)
        sigma = Relation(mid.sector_labels, end.sector_labels, np.array([[1], [0]], bool))
        collapse = RoutedMap(sigma, np.array([[1.0, 0.0]]), mid, end)
        builder = CircuitBuilder("cpm")
        builder.wire("a", start).wire("m", mid).wire("z", end)
        builder.inputs("a").outputs("z")
        builder.box("spread", ["a"], ["m"], lift_pure(spread))
        builder.box("collapse", ["m"], ["z"], lift_pure(collapse))
        report = check_circuit(builder.build(), "channel")
        assert not report.passed
        failing = [c for c in report.interfaces if not c.passed]
        assert failing[0].escaped_inputs == (1,)

    def test_effect_only_circuit(self, rng):
        # no circuit inputs at all: a preparation feeding an effect
        space = PartitionedSpace.trivial(2)
        vec = np.array([[1.0], [0.0]])
        prep = RoutedMap(
            Relation.full(PartitionedSpace.trivial().sector_labels, space.sector_labels),
            vec,
            PartitionedSpace.trivial(),
            space,
        )
        effect = RoutedMap(
            Relation.full(space.sector_labels, PartitionedSpace.trivial().sector_labels),
            vec.conj().T,
            space,
            PartitionedSpace.trivial(),
        )
        builder = CircuitBuilder("pure")
        builder.wire("w", space)
        builder.box("prep", [], ["w"], prep)
        builder.box("measure", ["w"], [], effect)
        result = evaluate(builder.build())
        assert result.matrix.shape == (1, 1)
        assert np.isclose(result.matrix[0, 0], 1.0)


def _alternative_topological_order(circuit, order):
    """Another valid order: schedule greedily preferring reverse name order."""
    available = set(circuit.input_wires)
    pending = dict(circuit.boxes)
    out = []
    while pending:
        ready = [b for b, box in pending.items() if set(box.inputs) <= available]
        pick = sorted(ready)[-1]
        out.append(pick)
        available |= set(pending[pick].outputs)
        del pending[pick]
    return out


class TestValidation:
    def test_wire_space_mismatch(self, rng):
        space = PartitionedSpace.from_dims([0, 1], [1, 2])
        other = PartitionedSpace.from_dims([0, 1], [2, 1])
        u = random_block_diagonal_unitary(space, rng)
        builder = CircuitBuilder("pure")
        builder.wire("in", space).wire("out", other)
        builder.inputs("in").outputs("out")
        builder.box("u", ["in"], ["out"], u)
        with pytest.raises(TypeMismatch):
            builder.build()

    def test_dangling_wire(self, rng):
        space = PartitionedSpace.trivial(2)
        builder = CircuitBuilder("pure")
        builder.wire("a", space)
        builder.inputs("a")
        with pytest.raises(InvariantViolation):
            builder.build()

    def test_mode_and_map_type_must_agree(self, rng):
        space = PartitionedSpace.trivial(2)
        u = RoutedMap.identity(space)
        builder = CircuitBuilder("cpm")
        builder.wire("a", space).wire("b", space)
        builder.inputs("a").outputs("b")
        builder.box("u", ["a"], ["b"], u)
        with pytest.raises(InvariantViolation):
            builder.build()


class TestCheckCircuit:
    def test_two_trajectories_unitary_gates_pass(self, two_trajectory):
        circuit, _ = two_trajectory
        report = check_circuit(circuit, "unitary")
        assert report.passed
        assert len(report.interfaces) == 2

    def test_three_trajectories_channel_gates_pass(self):
        circuit = load_bundled("three_trajectories.json").payload
        report = check_circuit(circuit, "channel")
        assert report.passed

    def test_improper_interface_reported(self, rng):
        # a box creating a superposition of sectors feeding a box defined
        # on a single sector only
        start = PartitionedSpace.trivial(1)
        mid = PartitionedSpace.from_dims([0, 1], [1, 1])
        end = PartitionedSpace.trivial(1)
        lam = Relation.full(start.sector_labels, mid.sector_labels)
        spread = random_practical_isometry(lam, start, mid, rng)
        sigma = Relation(mid.sector_labels, end.sector_labels, np.array([[1], [0]], bool))
        collapse = RoutedMap(sigma, np.array([[1.0, 0.0]]), mid, end)
        builder = CircuitBuilder("pure")
        builder.wire("a", start).wire("m", mid).wire("z", end)
        builder.inputs("a").outputs("z")
        builder.box("spread", ["a"], ["m"], spread)
        builder.box("collapse", ["m"], ["z"], collapse)
        report = check_circuit(builder.build(), "isometry")
        assert not report.passed
        failing = [c for c in report.interfaces if not c.passed]
        assert failing and failing[0].escaped_inputs == (1,)

    def test_mode_circuit_compatibility(self, two_trajectory):
        circuit, _ = two_trajectory
        with pytest.raises(InvariantViolation):
            check_circuit(circuit, "channel")

    @pytest.mark.parametrize(
        "name",
        ["two_trajectories.json", "three_trajectories.json", "copy_discard.json",
         "TrajectoriesPure", "TrajectoriesCPM"],
    )
    def test_passing_gates_build_no_interface_space(self, name, monkeypatch):
        """Labels are only needed to name escaping sectors, so gating a
        circuit whose every interface passes tensors no wire spaces: the
        bundled circuit documents, and the circuits of the trajectory
        benchmarks."""
        if name.endswith(".json"):
            circuit = load_bundled(name).payload
            gate = "channel" if circuit.mode == "cpm" else "unitary"
        else:
            workload = getattr(_benchmark_workloads(), name)(seed=1)
            workload.setup()
            circuit, gate = workload.circuit, workload.gate
        expected = check_circuit(circuit, gate)
        assert expected.passed

        def refuse(spaces):
            raise AssertionError("an interface space was built")

        monkeypatch.setattr(circuits, "tensor_many", refuse)
        assert check_circuit(circuit, gate) == expected


def _benchmark_workloads():
    """The module of the benchmark workloads, loaded from its file."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.path.join(root, "benchmarks", "workloads.py")
    spec = importlib.util.spec_from_file_location("benchmark_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestSlices:
    def test_formal_space_single_wire(self, two_trajectory):
        circuit, parts = two_trajectory
        assert formal_space(circuit, Slice(["A"])) == parts["line"]

    def test_formal_space_of_pair(self, two_trajectory):
        circuit, _ = two_trajectory
        space = formal_space(circuit, Slice(["A", "B"]))
        assert space.sector_dims == (1, 2, 2, 4)

    def test_antichain_enforced(self, two_trajectory):
        circuit, _ = two_trajectory
        with pytest.raises(InvalidSlice):
            formal_space(circuit, Slice(["A", "A2"]))

    def test_unknown_wire(self, two_trajectory):
        circuit, _ = two_trajectory
        with pytest.raises(InvalidSlice):
            formal_space(circuit, Slice(["A", "nope"]))

    def test_repeated_wire(self):
        with pytest.raises(InvalidSlice):
            Slice(["A", "A"])


class TestAccessibleSpace:
    def test_two_trajectories_slice(self, two_trajectory):
        circuit, _ = two_trajectory
        result = accessible_space(circuit, Slice(["A", "B"]))
        assert set(result.tuples) == {(0, 1), (1, 0)}
        assert result.total_dim == 4

    def test_middle_layer_alone_is_formal(self, two_trajectory):
        _, parts = two_trajectory
        builder = CircuitBuilder("pure")
        builder.wire("A", parts["line"]).wire("B", parts["line"])
        builder.wire("A2", parts["line"]).wire("B2", parts["line"])
        builder.inputs("A", "B").outputs("A2", "B2")
        builder.box("alice", ["A"], ["A2"], parts["alice"])
        builder.box("bob", ["B"], ["B2"], parts["bob"])
        circuit = builder.build()
        result = accessible_space(circuit, Slice(["A", "B"]))
        assert set(result.tuples) == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_three_trajectories_slice(self):
        circuit = load_bundled("three_trajectories.json").payload
        result = accessible_space(circuit, Slice(["A", "B", "Cq"]))
        assert set(result.tuples) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}

    def test_algorithms_agree_on_fixture(self, two_trajectory):
        circuit, _ = two_trajectory
        for wires in (["A", "B"], ["A"], ["A2", "B2"], ["M", "C"]):
            recipe = accessible_space(circuit, Slice(wires), algorithm="recipe")
            oracle = accessible_space(circuit, Slice(wires), algorithm="insertion")
            assert recipe.tuples == oracle.tuples

    def test_algorithms_agree_on_random_circuits(self, rng):
        for _ in range(5):
            circuit = random_circuit(rng, n_boxes=4)
            wires = list(circuit.output_wires)[:2]
            recipe = accessible_space(circuit, Slice(wires), algorithm="recipe")
            oracle = accessible_space(circuit, Slice(wires), algorithm="insertion")
            assert recipe.tuples == oracle.tuples

    def test_accessible_subset_of_formal(self, rng):
        for _ in range(5):
            circuit = random_circuit(rng, n_boxes=3)
            wires = list(circuit.output_wires)[:2]
            result = accessible_space(circuit, Slice(wires))
            formal = formal_space(circuit, Slice(wires))
            formal_tuples = {
                label if len(wires) > 1 else (label,)
                for label in formal.sector_labels
            }
            assert set(result.tuples) <= formal_tuples

    def test_extension_never_enlarges(self, two_trajectory, rng):
        _, parts = two_trajectory
        # middle layer alone vs the full circuit: the slice's accessible
        # set shrinks when the encoder and decoder are adjoined
        builder = CircuitBuilder("pure")
        builder.wire("A", parts["line"]).wire("B", parts["line"])
        builder.wire("A2", parts["line"]).wire("B2", parts["line"])
        builder.inputs("A", "B").outputs("A2", "B2")
        builder.box("alice", ["A"], ["A2"], parts["alice"])
        builder.box("bob", ["B"], ["B2"], parts["bob"])
        sub = accessible_space(builder.build(), Slice(["A", "B"]))
        full_circuit, _ = make_two_trajectory_circuit(rng)
        full = accessible_space(full_circuit, Slice(["A", "B"]))
        assert set(full.tuples) <= set(sub.tuples)

    def test_reachable_states_lie_in_accessible_space(self, two_trajectory, rng):
        circuit, parts = two_trajectory
        result = accessible_space(circuit, Slice(["A", "B"]))
        allowed = subset_projector(parts["ab"], list(result.tuples))
        for _ in range(10):
            state = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            state /= np.linalg.norm(state)
            reached = parts["encode"].matrix @ state
            assert np.linalg.norm(allowed @ reached - reached) < 1e-12

    def test_cpm_slice_uses_diagonals(self):
        circuit = load_bundled("copy_discard.json").payload
        result = accessible_space(circuit, Slice(["B", "Cc"]))
        assert set(result.tuples) == {(0, 0), (1, 1)}


class TestDotExport:
    def test_deterministic_digraph(self, two_trajectory):
        circuit, _ = two_trajectory
        text = circuit_to_dot(circuit)
        assert text.startswith("digraph")
        assert '"encode"' in text and 'label="A (1+2)"' in text
        assert text == circuit_to_dot(circuit)

    def test_bundled_rendering(self):
        text = circuit_to_dot(load_bundled("copy_discard.json").payload)
        assert text.splitlines() == [
            "digraph routed_circuit {",
            "  rankdir=BT;",
            '  "in:X" [shape=point, xlabel="X"];',
            '  "out:Cc" [shape=point, xlabel="Cc"];',
            r'  "copy" [shape=box, label="copy\nroute 2/4"];',
            r'  "dropB" [shape=box, label="dropB\nroute 2/2"];',
            '  "copy" -> "dropB" [label="B (1+1)"];',
            '  "copy" -> "out:Cc" [label="Cc (1+1)"];',
            '  "in:X" -> "copy" [label="X (2)"];',
            "}",
        ]
        assert text.endswith("}\n")

    def test_quotes_and_backslashes_are_escaped_and_an_empty_box_id_is_a_node(self):
        space = PartitionedSpace.trivial(1)
        builder = CircuitBuilder("pure").wire('a"b', space).wire("c\\d", space)
        builder.box("", ['a"b'], ["c\\d"], RoutedMap.identity(space))
        circuit = builder.inputs('a"b').outputs("c\\d").build()
        assert circuit_to_dot(circuit).splitlines()[2:] == [
            r'  "in:a\"b" [shape=point, xlabel="a\"b"];',
            r'  "out:c\\d" [shape=point, xlabel="c\\d"];',
            r'  "" [shape=box, label="\nroute 1/1"];',
            r'  "in:a\"b" -> "" [label="a\"b (1)"];',
            r'  "" -> "out:c\\d" [label="c\\d (1)"];',
            "}",
        ]

    def test_points_avoid_box_ids(self):
        """An input point whose name a box id takes gets the first free
        ``#k`` suffix, so the wire runs from a point of its own into the box."""
        space = PartitionedSpace.trivial(1)
        builder = CircuitBuilder("pure").wire("a", space).wire("a#2", space).wire("b", space)
        builder.box("in:a", ["a"], ["b"], RoutedMap.identity(space))
        circuit = builder.inputs("a", "a#2").outputs("b", "a#2").build()
        assert circuit_to_dot(circuit).splitlines()[2:] == [
            '  "in:a#3" [shape=point, xlabel="a"];',
            '  "in:a#2" [shape=point, xlabel="a#2"];',
            '  "out:b" [shape=point, xlabel="b"];',
            '  "out:a#2" [shape=point, xlabel="a#2"];',
            r'  "in:a" [shape=box, label="in:a\nroute 1/1"];',
            '  "in:a#3" -> "in:a" [label="a (1)"];',
            '  "in:a#2" -> "out:a#2" [label="a#2 (1)"];',
            '  "in:a" -> "out:b" [label="b (1)"];',
            "}",
        ]
