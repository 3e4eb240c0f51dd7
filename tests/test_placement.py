"""The last step of an operator program puts only its live block into the
result, through per-row and per-column shares compiled with the program.
The stack against the two-step gather, byte for byte, and against the
dense last product gathered the same way, within rounding and with exact
zeros where every term is zero: on drawn circuits of both modes, the rare
shapes, gated channel circuits, programs without a step, and circuits
whose interfaces have several wires of two sectors, so that the canonical
order is not the Kronecker one and the output wires split across the
last product's rows and columns.  Then the memory: no compiled array has
the result's size, the workspace has no region for the last product, and
a warm four-line channel peaks near its result."""

from __future__ import annotations

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, example, find, given, settings
from hypothesis import strategies as st

import test_handover
from routedcircuits import CircuitBuilder, PartitionedSpace, circuits
from routedcircuits.circuits import _foliation_layers, _program, _run, _tables, evaluate
from routedcircuits.sampling import random_block_diagonal_unitary, random_sector_preserving_channel
from routedcircuits.spaces import kron_to_canonical, tensor_many

from conftest import gated_circuit
from test_contraction import circuits as random_circuits
from test_contraction import random_box, rare_circuits
from test_handover import LINE, two_step_gather
from test_live_coordinates import trajectories
from test_workspace import operator_program


def dense_run(magnitudes: bool):
    """A contraction runner that writes the last product whole: each step
    as ``_run_contraction`` runs it, so every intermediate is the same to
    the bit, and the last one multiplied in full.  With ``magnitudes``, the
    last product is that of the operands' absolute values."""

    def run(plan, tables):
        slots = list(tables) or [np.ones(())]
        for index, (a, b, order_a, order_b, shape_a, shape_b, shape) in enumerate(plan.steps, 1):
            left = slots[a].transpose(order_a).reshape(shape_a)
            right = slots[b].transpose(order_b).reshape(shape_b)
            (rows, inner), columns = shape_a, shape_b[1]
            if rows * columns > (rows + columns) * inner:
                live = left.any(0) & right.any(1)
                if not live.all():
                    left, right = left.compress(live, 1), right.compress(live, 0)
            if magnitudes and index == len(plan.steps):
                left, right = np.abs(left), np.abs(right)
            slots.append(np.dot(left, right).reshape(shape))
        last = np.abs(slots[-1]) if magnitudes and not plan.steps else slots[-1]
        return last.transpose(plan.result)

    return run


def stack_args(circuit, box_order=None):
    layers = _foliation_layers(circuit, box_order)
    order = [box_id for layer in layers for box_id in reversed(layer)]
    return circuit.input_wires, order, circuit.output_wires


def dense_gather(circuit, args, magnitudes: bool) -> np.ndarray:
    """``two_step_gather`` of the dense last product."""
    with mock.patch.object(test_handover, "_run_contraction", dense_run(magnitudes)):
        return two_step_gather(circuit, *args).astype(complex)


def assert_placed(circuit, box_order=None) -> None:
    """The stack is the two-step gather's to the byte, read-only and its own
    array; it is the dense one's within ``2 (inner + 8) eps |A||B|``, for
    the last step's summed dimension and operands, and exactly zero where
    every term is."""
    args = stack_args(circuit, box_order)
    got = _run(circuit, "operators", *args)
    want = two_step_gather(circuit, *args)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert got.base is None and not got.flags.writeable
    steps = _program(circuit, "operators", *args).plan.steps
    inner = steps[-1][4][1] if steps else 0
    dense, scale = (dense_gather(circuit, args, magnitudes) for magnitudes in (False, True))
    got = got.astype(complex)
    assert np.all(np.abs(got - dense) <= 2 * (inner + 8) * np.finfo(float).eps * scale)
    assert not got[scale == 0].any()


@st.composite
def split_interfaces(draw):
    """Two or three input wires of two sectors each (of dimensions 1 or 2),
    a box on each, then a box across the first two, and the output wires
    in a drawn order; pure or CPM, up to two Kraus operators a box."""
    mode = draw(st.sampled_from(["pure", "cpm"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = draw(st.integers(2, 3))

    def line():
        return PartitionedSpace.from_dims([0, 1], [draw(st.integers(1, 2)) for _ in range(2)])

    builder, spaces = CircuitBuilder(mode), {}
    for j in range(count):
        spaces[f"x{j}"], spaces[f"y{j}"] = line(), line()
        builder.box(f"u{j}", [f"x{j}"], [f"y{j}"],
                    random_box(mode, spaces[f"x{j}"], spaces[f"y{j}"], rng, draw, 2))
    ends = ["y0", "y1"], ["z0", "z1"]
    spaces.update(z0=line(), z1=line())
    domain, codomain = (tensor_many([spaces[w] for w in wires]) for wires in ends)
    builder.box("m", *ends, random_box(mode, domain, codomain, rng, draw, 2))
    for wire, space in spaces.items():
        builder.wire(wire, space)
    outputs = ["z0", "z1"] + [f"y{j}" for j in range(2, count)]
    builder.inputs(*(f"x{j}" for j in range(count)))
    return builder.outputs(*draw(st.permutations(outputs))).build()


def splits_its_outputs(circuit) -> bool:
    """The canonical output order is not the Kronecker one, and the output
    wires lie on both the rows and the columns of the last product, whose
    placement then applies an order when it runs."""
    program = _program(circuit, "operators", *stack_args(circuit))
    order = kron_to_canonical(*(circuit.wires[w] for w in circuit.output_wires))
    targets = {(w, 0) for w in circuit.output_wires}
    rows, columns = program.plan.sides
    split = bool(targets & set(rows)) and bool(targets & set(columns))
    assert split <= bool(program.placement.split)
    return split and not np.array_equal(order, np.arange(order.size))


class TestAgainstTwoStepAndDense:
    @settings(max_examples=100, deadline=None)
    @given(random_circuits("pure"))
    @example(rare_circuits("pure")[0])
    @example(rare_circuits("pure")[1])
    def test_pure(self, drawn):
        circuit, order = drawn
        assert_placed(circuit)
        assert_placed(circuit, order)

    @settings(max_examples=100, deadline=None)
    @given(random_circuits("cpm"))
    @example(rare_circuits("cpm")[0])
    @example(rare_circuits("cpm")[1])
    def test_cpm(self, drawn):
        circuit, order = drawn
        assert_placed(circuit)
        assert_placed(circuit, order)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_gated_channel_circuits(self, seed):
        assert_placed(gated_circuit(np.random.default_rng(seed), "channel"))

    @settings(max_examples=100, deadline=None)
    @given(split_interfaces())
    def test_split_interfaces(self, circuit):
        assert_placed(circuit)

    @pytest.mark.parametrize("mode", ["pure", "cpm"])
    def test_plans_without_steps(self, mode, rng):
        """One box, one identity or no table: the lone table is put as one row."""
        if mode == "pure":
            op = random_block_diagonal_unitary(LINE, rng)
        else:
            op = random_sector_preserving_channel(LINE, rng, count=3)
        builder = CircuitBuilder(mode).wire("in", LINE).wire("out", LINE)
        single = builder.inputs("in").outputs("out").box("u", ["in"], ["out"], op).build()
        through = CircuitBuilder(mode).wire("a", LINE).inputs("a").outputs("a").build()
        for circuit in (single, through, rare_circuits(mode)[0][0]):
            program = _program(circuit, "operators", *stack_args(circuit))
            assert not program.plan.steps and program.plan.sides[0] == ()
            assert_placed(circuit)


def test_the_draw_splits_the_outputs():
    """Some drawn circuit has permuted outputs on both sides of its last product."""
    settings_ = settings(max_examples=500, database=None, phases=[Phase.generate])
    assert find(split_interfaces(), splits_its_outputs, settings=settings_)


# -- memory --------------------------------------------------------------------------


def arrays_in(value):
    """Every array held in ``value``, through tuples at any depth."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from arrays_in(item)


def test_no_compiled_array_has_the_results_size():
    """The three-line channel, 4,096 operators of 6 x 6 (147,456 entries):
    after a warm evaluation its program holds no array of more than 1,536
    entries (the index it replaced had the result's), and its workspace
    has no bytes for the last product, a 96 x 1,536 matrix: 1.42 MB in all,
    against 3.06 MB with it."""
    circuit = trajectories("cpm", 3, 4, np.random.default_rng(1))
    evaluate(circuit)
    stack = evaluate(circuit).kraus_stack
    program, _ = operator_program(circuit)
    assert max(array.size for array in arrays_in(program)) <= 1536 < stack.size
    start, end, dtype, (rows, columns) = program.workspace.steps[-1][2]
    assert start == end
    assert program.workspace.nbytes < rows * columns * dtype.itemsize


def test_the_warm_four_line_channel_peaks_near_its_result():
    """65,536 operators of 8 x 8 (64 MiB): the workspace (10.5 MiB) is under
    the cap, so a thread keeps it, and a warm evaluation peaks under the
    result, the box tables gathered into Kronecker bases, the workspace and
    2 MiB (64.4 MiB here).  Writing the last product whole took a 69 MiB
    workspace, over the cap, and peaked at 133 MiB."""
    circuit = trajectories("cpm", 4, 4, np.random.default_rng(1))
    evaluate(circuit)
    program, order = operator_program(circuit)
    assert program.workspace.nbytes <= circuits._WORKSPACE_CAP
    tables = _tables(circuit, program, order)
    ops = [circuit.boxes[b].op for b in order]
    gathered = sum(
        t.nbytes for t, op in zip(tables, ops) if not np.shares_memory(t, op.kraus_stack)
    )
    tracemalloc.start()
    try:
        stack = evaluate(circuit).kraus_stack
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stack.shape == (65536, 8, 8)
    assert peak < stack.nbytes + gathered + program.workspace.nbytes + (2 << 20)
