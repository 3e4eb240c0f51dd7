"""A contraction step whose product outgrows its operands sums only its live
coordinates, those where both operand matrices are nonzero.  Networks with
exact zeros planted on summed labels against ``np.einsum``, with and
without a workspace to the bit; gated channel circuits against the layered
engine; a step with no live coordinate; and where the rule fires on the
superposed-trajectory circuits: the last step of the three-line channel
keeps 6 of its 27 coordinates, and no step of a pure circuit skips any."""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
from hypothesis import Phase, event, find, given, settings
from hypothesis import strategies as st

from routedcircuits import CircuitBuilder, PartitionedSpace, Relation, RoutedMap
from routedcircuits.circuits import (
    _contraction_plan,
    _foliation_layers,
    _run_contraction,
    _tables,
    _walk,
    _workspace,
    evaluate,
)
from routedcircuits.io import load_bundled
from routedcircuits.routed_cpms import lift_pure
from routedcircuits.routed_maps import dagger
from routedcircuits.sampling import (
    random_block_diagonal_unitary,
    random_decohered_cpm,
    random_sector_preserving_channel,
)
from routedcircuits.spaces import tensor_many

from conftest import gated_circuit
from layered_oracle import evaluate_layered
from test_contraction import MAX_NETWORK, draw_tables, networks, operators
from test_workspace import operator_program


def inner_dims(plan, tables, workspace=None):
    """The run of ``plan`` and the summed dimension of each of its steps as
    ``np.dot`` was given it."""
    with mock.patch.object(np, "dot", wraps=np.dot) as dot:
        result = _run_contraction(plan, tables, workspace)
    return result, [call.args[0].shape[1] for call in dot.call_args_list]


def planned_inner(plan) -> list[int]:
    return [shape_a[1] for _, _, _, _, shape_a, _, _ in plan.steps]


def outgrowing(plan) -> int:
    """The steps whose product is larger than their two operands together."""
    return sum(
        rows * columns > (rows + columns) * inner
        for _, _, _, _, (rows, inner), (_, columns), _ in plan.steps
    )


# -- drawn networks ---------------------------------------------------------------


@st.composite
def planted_networks(draw):
    """A network of ``test_contraction.networks`` without its labels of size
    1 (a workspace assumes none), with complex tables, and exact zeros
    planted on one of the two tables of each summed label, on none, some
    or all of its coordinates."""
    signatures, opened, sizes, rng = draw(networks())
    signatures = [[x for x in s if sizes[x] > 1] for s in signatures]
    opened = [x for x in opened if sizes[x] > 1]
    tables = draw_tables(signatures, sizes, rng, boolean=False)
    for label in sorted({x for s in signatures for x in s}):
        holders = [slot for slot, s in enumerate(signatures) if label in s]
        if len(holders) < 2:
            continue
        share = draw(st.sampled_from([0.0, 0.5, 1.0]))
        slot = holders[int(rng.integers(2))]
        index = [slice(None)] * len(signatures[slot])
        index[signatures[slot].index(label)] = rng.random(sizes[label]) < share
        tables[slot][tuple(index)] = 0
    return signatures, opened, sizes, tables


def einsum_reference(signatures, opened, plan, tables):
    """``np.einsum`` of the network, the plan's batch labels merged into one
    leading axis when there are any."""
    spec = ",".join("".join(s) for s in signatures) + "->" + "".join(plan.batch + opened)
    want = np.einsum(spec, *tables)
    return want.reshape(-1, *want.shape[len(plan.batch) :]) if plan.batch else want


def layout(plan, tables):
    """A workspace for C-ordered ``tables``."""
    return _workspace(plan, [(range(t.ndim), t.dtype, t.shape) for t in tables])


def skipped(network) -> list[tuple[int, int]]:
    """(kept, planned) summed dimension of each step that skips coordinates."""
    signatures, opened, sizes, tables = network
    plan = _contraction_plan(signatures, opened, sizes)
    _, inner = inner_dims(plan, tables)
    return [(k, n) for k, n in zip(inner, planned_inner(plan)) if k < n]


@settings(max_examples=300, deadline=None)
@given(planted_networks())
def test_skipping_dead_coordinates_matches_einsum(network):
    """Within the rounding bound of ``test_complex_matches_einsum``, and
    entries whose every term is zero are exact zeros; the run with a
    workspace keeps the same coordinates and gives the same bits."""
    signatures, opened, sizes, tables = network
    plan = _contraction_plan(signatures, opened, sizes)
    got, inner = inner_dims(plan, tables)
    planned, inner_planned = inner_dims(plan, tables, layout(plan, tables))
    assert inner_planned == inner
    assert planned.shape == got.shape and planned.tobytes() == got.tobytes()
    kept = sum(k < n for k, n in zip(inner, planned_inner(plan)))
    event(f"steps that skip coordinates: {min(kept, 2)}")
    want = einsum_reference(signatures, opened, plan, tables)
    assert got.shape == want.shape
    bound = 2 * (MAX_NETWORK + 8) * np.finfo(float).eps
    scale = einsum_reference(signatures, opened, plan, [np.abs(t) for t in tables])
    assert np.all(np.abs(got - want) <= bound * scale)


def test_the_draw_reaches_skipped_and_empty_steps():
    """Some drawn network has a step that keeps some of its coordinates,
    and some a step that keeps none."""
    settings_ = settings(max_examples=2000, database=None, phases=[Phase.generate])
    assert find(planted_networks(), lambda n: any(k for k, _ in skipped(n)), settings=settings_)
    assert find(planted_networks(), lambda n: any(k == 0 for k, _ in skipped(n)), settings=settings_)


def test_a_step_with_no_live_coordinate_writes_exact_zeros():
    """The left matrix's nonzero columns meet the right's zero rows and the
    other way round: the step sums no coordinate and writes zeros over what
    the workspace held from a run of nonzero tables."""
    rng = np.random.default_rng(5)
    signatures, sizes = [["a", "x"], ["x", "b"]], {"a": 8, "x": 3, "b": 8}
    plan = _contraction_plan(signatures, ["a", "b"], sizes)
    full = draw_tables(signatures, sizes, rng, boolean=False)
    dead = [table.copy() for table in full]
    dead[0][:, 0] = 0
    dead[1][1:] = 0
    workspace = layout(plan, full)
    held, inner = inner_dims(plan, full, workspace)
    assert inner == [3] and np.abs(held).min() > 0
    for space in (None, workspace):
        got, inner = inner_dims(plan, dead, space)
        assert inner == [0]
        assert got.shape == (8, 8) and not got.any()


# -- circuits ---------------------------------------------------------------------

SEEDS = st.integers(0, 2**32 - 1)


def largest_interface(circuit) -> int:
    """The largest dimension of an interface the layered engine composes over."""
    steps = _walk(circuit.input_wires, circuit.boxes, _foliation_layers(circuit, None))
    fronts = [step.inputs for step in steps] + [circuit.output_wires]
    return max(math.prod(circuit.wires[w].total_dim for w in front) for front in fronts)


@settings(max_examples=100, deadline=None)
@given(SEEDS)
def test_gated_channel_circuits_match_the_layered_engine(seed):
    """Routes and spaces exactly, entries within ``4 (n + 1) D eps S`` as in
    ``test_contraction.assert_matches_layered``, with ``D`` the largest
    interface of the circuit."""
    circuit = gated_circuit(np.random.default_rng(seed), "channel")
    new, old = evaluate(circuit), evaluate_layered(circuit)
    assert new.route == old.route
    assert new.domain == old.domain and new.codomain == old.codomain
    got, want = operators(new), operators(old)
    assert got.shape == want.shape
    scale = math.prod(
        float(np.linalg.norm(operators(box.op), axis=(1, 2)).max())
        for box in circuit.boxes.values()
    )
    bound = 4 * (len(circuit.boxes) + 1) * largest_interface(circuit) * np.finfo(float).eps
    assert float(np.abs(got - want).max(initial=0.0)) <= bound * scale


def trajectories(mode: str, lines: int, layers: int, rng):
    """A two-dimensional message and a control of ``lines`` values encoded
    into one particle on ``lines`` lines (each a vacuum sector of dimension
    1 and a message sector of dimension 2), ``layers`` boxes on each line,
    then decoded.  The encoding follows the one-particle route.  Pure
    lines carry block-diagonal unitaries; channel lines alternate a
    two-operator sector-preserving channel and a dephasing channel."""
    message, control = PartitionedSpace.trivial(2), PartitionedSpace.trivial(lines)
    line = PartitionedSpace.from_dims([0, 1], [1, 2])
    register, joint = tensor_many([message, control]), tensor_many([line] * lines)
    (start,) = register.sector_labels.labels
    particles = [tuple(int(k == j) for k in range(lines)) for j in range(lines)]
    route = Relation.from_pairs(
        register.sector_labels, joint.sector_labels, [(start, p) for p in particles]
    )
    matrix = np.zeros((joint.total_dim, register.total_dim), dtype=complex)
    for j, particle in enumerate(particles):
        offset = joint.sector_range(particle).offset
        matrix[offset + np.arange(2), np.arange(2) * lines + j] = 1.0
    encode = RoutedMap(route, matrix, register, joint)
    decode = dagger(encode)
    if mode == "cpm":
        encode, decode = lift_pure(encode), lift_pure(decode)
    builder = CircuitBuilder(mode).wire("M", message).wire("C", control)
    builder.wire("M2", message).wire("C2", control)
    ends = [[f"L{j}_{t}" for j in range(lines)] for t in (0, layers)]
    builder.box("encode", ["M", "C"], ends[0], encode)
    builder.box("decode", ends[1], ["M2", "C2"], decode)
    identity = Relation.identity(line.sector_labels)
    for j in range(lines):
        builder.wire(f"L{j}_0", line)
        for t in range(layers):
            if mode == "pure":
                op = random_block_diagonal_unitary(line, rng)
            elif t % 2 == 0:
                op = random_sector_preserving_channel(line, rng, count=2)
            else:
                op = random_decohered_cpm(
                    identity, line, line, rng, ops_per_block=1, trace_preserving=True
                )
            builder.wire(f"L{j}_{t + 1}", line)
            builder.box(f"u{j}_{t}", [f"L{j}_{t}"], [f"L{j}_{t + 1}"], op)
    return builder.inputs("M", "C").outputs("M2", "C2").build()


def operator_steps(circuit):
    """The operator plan of ``evaluate`` on ``circuit`` and the summed
    dimension of each step as ``np.dot`` was given it."""
    program, order = operator_program(circuit)
    _, inner = inner_dims(program.plan, _tables(circuit, program, order), program.workspace)
    return program.plan, inner


def test_the_three_line_channel_keeps_the_one_particle_coordinates():
    """7 of the 13 steps outgrow their operands; the last sums the 27
    coordinates of the three lines, of which the 6 of one particle are
    live, and every other step keeps all of its coordinates."""
    circuit = trajectories("cpm", 3, 4, np.random.default_rng(1))
    plan, inner = operator_steps(circuit)
    assert len(plan.steps) == 13 and outgrowing(plan) == 7
    assert planned_inner(plan)[-1] == 27 and inner[-1] == 6
    assert inner[:-1] == planned_inner(plan)[:-1]


def test_no_step_of_a_pure_trajectory_circuit_skips_a_coordinate():
    """No step of the bundled two-line circuit or of a six-line one
    outgrows its operands, and each sums every coordinate of its plan."""
    two = load_bundled("two_trajectories.json").payload
    six = trajectories("pure", 6, 3, np.random.default_rng(1))
    for circuit in (two, six):
        plan, inner = operator_steps(circuit)
        assert outgrowing(plan) == 0
        assert inner == planned_inner(plan)
    assert len(plan.steps) == 19  # the six-line circuit's
