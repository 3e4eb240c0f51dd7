"""The workspace of an operator program: every product and copied load of
a contraction written into one buffer per thread, laid out when the
program is compiled.  Results against the contraction without one, bit
for bit; the loads it copies against those ``reshape`` copies; the
regions a step uses never overlap; threads at once; the memory of a warm
evaluation and of its certification; and the cap above which a thread
keeps no buffer."""

from __future__ import annotations

import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings

from routedcircuits import CircuitBuilder, PartitionedSpace, circuits
from routedcircuits.circuits import (
    _foliation_layers,
    _program,
    _run_contraction,
    _tables,
    evaluate,
)
from routedcircuits.routed_cpms import is_practically_trace_preserving

from conftest import random_circuit
from test_contraction import circuits as random_circuits
from test_contraction import rare_circuits
from test_handover import channel_chain


def operator_program(circuit, box_order=None):
    layers = _foliation_layers(circuit, box_order)
    order = [box_id for layer in layers for box_id in reversed(layer)]
    program = _program(circuit, "operators", circuit.input_wires, order, circuit.output_wires)
    return program, order


def without_workspace(circuit, box_order=None) -> np.ndarray:
    """The operator stack of ``evaluate`` by the contraction without a
    workspace, each product and load in an array of its own."""
    program, order = operator_program(circuit, box_order)
    result = _run_contraction(program.plan, _tables(circuit, program, order))
    return result.reshape(-1)[program.take]


def apart(regions) -> bool:
    spans = sorted(region[:2] for region in regions)
    return all(end <= start for (_, end), (start, _) in zip(spans, spans[1:]))


def assert_regions_apart(program) -> None:
    """A step's copies lie apart from each other and from every product
    still held; its product lies apart from its copies and from every
    product held, but for the ones its copies read, which are read first.
    Every region lies inside the workspace."""
    first = len(program.signatures)  # the slot of the first product
    held: dict = {}  # slot -> region of a product no step has read yet
    for index, ((a, b, *_), (at_a, at_b, at)) in enumerate(
        zip(program.plan.steps, program.workspace.steps)
    ):
        copies = [region for region in (at_a, at_b) if region is not None]
        assert apart([*held.values(), *copies])
        copied = {slot for slot, region in ((a, at_a), (b, at_b)) if region is not None}
        assert apart([*(r for s, r in held.items() if s not in copied), *copies, at])
        held.pop(a, None)
        held.pop(b, None)
        held[first + index] = at
    regions = [r for step in program.workspace.steps for r in step if r is not None]
    assert all(end <= program.workspace.nbytes for _, end, _, _ in regions)


def assert_copies_are_reshape_copies(circuit, program, order) -> None:
    """The workspace copies exactly the loads that ``reshape`` copies."""
    slots = _tables(circuit, program, order)
    for (a, b, order_a, order_b, shape_a, shape_b, shape), (at_a, at_b, _) in zip(
        program.plan.steps, program.workspace.steps
    ):
        loads = []
        for slot, axes, matrix, region in ((a, order_a, shape_a, at_a), (b, order_b, shape_b, at_b)):
            view = slots[slot].transpose(axes)
            loads.append(view.reshape(matrix))
            assert np.shares_memory(loads[-1], view) == (region is None)
        slots.append(np.dot(*loads).reshape(shape))


def assert_workspace_is_exact(circuit, box_order=None) -> None:
    program, order = operator_program(circuit, box_order)
    assert_regions_apart(program)
    assert_copies_are_reshape_copies(circuit, program, order)
    got = evaluate(circuit, box_order).kraus_stack
    want = without_workspace(circuit, box_order).astype(complex)  # no table: the real 1
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert not np.shares_memory(got, circuits._arenas.buffer)


class TestAgainstNoWorkspace:
    @settings(max_examples=150, deadline=None)
    @given(random_circuits("pure"))
    @example(rare_circuits("pure")[0])
    @example(rare_circuits("pure")[1])
    def test_pure(self, drawn):
        circuit, order = drawn
        assert_workspace_is_exact(circuit)
        assert_workspace_is_exact(circuit, order)

    @settings(max_examples=150, deadline=None)
    @given(random_circuits("cpm"))
    @example(rare_circuits("cpm")[0])
    @example(rare_circuits("cpm")[1])
    def test_cpm(self, drawn):
        circuit, order = drawn
        assert_workspace_is_exact(circuit)
        assert_workspace_is_exact(circuit, order)


def test_identity_tables_alone_multiply_as_booleans():
    """Three wires through a circuit without boxes: their boolean identity
    tables are joined by outer products, written into the workspace as
    booleans."""
    line = PartitionedSpace.from_dims([0, 1], [1, 2])
    for mode in ("pure", "cpm"):
        builder = CircuitBuilder(mode).wire("a", line).wire("b", line).wire("c", line)
        circuit = builder.inputs("a", "b", "c").outputs("c", "a", "b").build()
        program, _ = operator_program(circuit)
        assert [step[2][2] for step in program.workspace.steps] == [np.dtype(bool)] * 2
        assert_workspace_is_exact(circuit)


def test_threads_at_once():
    """Four threads, more than the cores, evaluate circuits of one shape,
    so of one program, at once, each in its own workspace, switching often:
    every result is its serial result to the bit."""
    chains = [channel_chain(boxes=4, count=3, seed=seed) for seed in range(4)]
    assert len({chain._shape for chain in chains}) == 1
    serial = [evaluate(chain).kraus_stack.tobytes() for chain in chains]
    assert len(set(serial)) == len(serial)
    start, mismatches = threading.Barrier(len(chains)), []

    def run(chain, want):
        start.wait(timeout=60)
        mismatches.append(sum(evaluate(chain).kraus_stack.tobytes() != want for _ in range(50)))

    threads = [threading.Thread(target=run, args=pair) for pair in zip(chains, serial)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == [0] * len(chains)


def test_warm_evaluation_allocates_about_its_result():
    """A chain of 1,024 operators of 6 x 6: a warm evaluation writes its
    products into the thread's workspace, kept from the first call, and
    gathers the last one into the one array it returns.  With a new array
    per product, it peaked at 2.00 times the result."""
    circuit = channel_chain(boxes=5, count=4)
    evaluate(circuit)
    tracemalloc.start()
    try:
        op = evaluate(circuit)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert op.kraus_stack.shape == (1024, 6, 6)
    assert peak < 1.5 * op.kraus_stack.nbytes


def test_certification_copies_no_operator():
    """``Σ K†K`` of the same chain is read off one real product of the
    stack with itself; a conjugate copy of the stack took 1.00 times it."""
    op = evaluate(channel_chain(boxes=5, count=4))
    tracemalloc.start()
    try:
        assert is_practically_trace_preserving(op)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * op.kraus_stack.nbytes


@pytest.mark.parametrize("mode", ["pure", "cpm"])
def test_nothing_returned_shares_the_workspace(mode):
    drawn = [(random_circuit(np.random.default_rng(seed), mode=mode), None) for seed in range(5)]
    for circuit, order in drawn + rare_circuits(mode) + [(channel_chain(3, 2), None)]:
        op = evaluate(circuit, order)
        assert not np.shares_memory(op.kraus_stack, circuits._arenas.buffer)


def in_new_thread(call):
    """``call()`` in a thread of its own: its result and the workspace the
    thread keeps afterwards, if any."""
    out = []

    def run():
        value = call()
        out.append((value, getattr(circuits._arenas, "buffer", None)))

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    (pair,) = out
    return pair


def test_a_thread_keeps_its_planned_workspace_up_to_the_cap(monkeypatch):
    """Under the cap a thread keeps a workspace of the program's planned
    bytes; over it, the workspace lives for the call only, and the result
    is the same to the bit."""
    circuit = channel_chain(boxes=3, count=2)
    planned, _ = operator_program(circuit)
    assert planned.workspace.nbytes > 0
    stack, kept = in_new_thread(lambda: evaluate(circuit).kraus_stack)
    assert kept.nbytes == planned.workspace.nbytes
    monkeypatch.setattr(circuits, "_WORKSPACE_CAP", planned.workspace.nbytes - 1)
    over, kept = in_new_thread(lambda: evaluate(circuit).kraus_stack)
    assert kept is None
    assert over.tobytes() == stack.tobytes()
