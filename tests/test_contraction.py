"""The planned contraction in ``circuits.evaluate`` against the layered
engine kept in ``layered_oracle``, the planner against ``np.einsum``, and
the wide circuit the layered engine could not evaluate in reasonable time."""

from __future__ import annotations

import math
import string
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from routedcircuits import CircuitBuilder
from routedcircuits.circuits import _contraction_plan, _run_contraction, evaluate
from routedcircuits.errors import RouteViolation
from routedcircuits.relations import Relation
from routedcircuits.routed_cpms import RoutedCPM, lift_pure
from routedcircuits.routed_maps import DEFAULT_TOLERANCE, RoutedMap
from routedcircuits.sampling import (
    random_block_diagonal_unitary,
    random_coherent_cpm,
    random_decohered_cpm,
    random_matrix_following,
    random_relation,
    random_sector_preserving_channel,
    random_space,
)
from routedcircuits.spaces import PartitionedSpace, tensor_many

from layered_oracle import evaluate_layered

#: largest interface dimension the generator builds; the layered engine
#: checks the Choi matrix of every lifted layer, quartic in it
MAX_INTERFACE = {"pure": 64, "cpm": 16}
MAX_KRAUS = 64


def random_box(mode: str, domain, codomain, rng, draw, max_kraus: int):
    """A box map with a nonzero route, a tolerance below, at or above the
    default (the result's tolerance is the largest box tolerance) and at
    most ``max_kraus`` Kraus operators."""
    while True:
        route = random_relation(domain.sector_labels, codomain.sector_labels, rng, 0.7)
        if route.matrix.any():
            break
    tolerance = draw(st.sampled_from([1e-12, DEFAULT_TOLERANCE, 1e-6]))
    if mode == "pure":
        matrix = random_matrix_following(route, domain, codomain, rng)
        return RoutedMap(route, matrix, domain, codomain, tolerance)
    op = None
    if draw(st.booleans()):
        op = random_decohered_cpm(route, domain, codomain, rng, ops_per_block=1)
    if op is None or len(op.kraus) > max_kraus:
        count = draw(st.integers(1, min(2, max_kraus)))
        op = random_coherent_cpm(route, domain, codomain, rng, count=count)
    return RoutedCPM(op.route, op.kraus_stack, domain, codomain, tolerance)


@st.composite
def circuits(draw, mode: str):
    """A random circuit and a random topological order of its boxes.

    Boxes take zero to two open wires, in any order (so wires cross), and
    make zero to two; the wires no box takes pass through, and the circuit
    lists its inputs and outputs in random orders.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spaces: dict[str, PartitionedSpace] = {}

    def dim(wires) -> int:
        return math.prod(spaces[w].total_dim for w in wires)

    def sample_spaces(count: int, others) -> list[PartitionedSpace]:
        while True:
            drawn = [random_space(rng, max_sectors=2, max_dim=2) for _ in range(count)]
            if dim(others) * math.prod(s.total_dim for s in drawn) <= MAX_INTERFACE[mode]:
                return drawn

    def new_wires(drawn) -> list[str]:
        names = [f"w{len(spaces) + i}" for i in range(len(drawn))]
        spaces.update(zip(names, drawn))
        return names

    inputs = new_wires(sample_spaces(draw(st.integers(0, 3)), []))
    frontier = list(inputs)
    boxes = {}
    kraus = 1  # the result's Kraus count, kept small for the layered engine
    for b in range(draw(st.integers(0, 5))):
        taken = draw(st.permutations(frontier))[: draw(st.integers(0, min(2, len(frontier))))]
        frontier = [w for w in frontier if w not in taken]
        made = new_wires(sample_spaces(draw(st.integers(0, 2)), frontier))
        domain = tensor_many([spaces[w] for w in taken])
        codomain = tensor_many([spaces[w] for w in made])
        op = random_box(mode, domain, codomain, rng, draw, MAX_KRAUS // kraus)
        kraus *= 1 if mode == "pure" else len(op.kraus)
        boxes[f"b{b}"] = (taken, made, op)
        frontier += made

    builder = CircuitBuilder(mode)
    for wire, space in spaces.items():
        builder.wire(wire, space)
    for box_id, (taken, made, op) in boxes.items():
        builder.box(box_id, taken, made, op)
    builder.inputs(*draw(st.permutations(inputs))).outputs(*draw(st.permutations(frontier)))

    available, order = set(inputs), []
    while len(order) < len(boxes):
        ready = [b for b in boxes if b not in order and set(boxes[b][0]) <= available]
        box_id = draw(st.sampled_from(ready))
        available = (available - set(boxes[box_id][0])) | set(boxes[box_id][1])
        order.append(box_id)
    return builder.build(), order


def operators(op) -> np.ndarray:
    return op.matrix[None] if isinstance(op, RoutedMap) else op.kraus_stack


def assert_matches_layered(circuit, box_order=None) -> None:
    """Routes, spaces and Kraus count and order exactly; the tolerance is
    the largest box tolerance, where the layered engine also takes the
    default of the identities and permutations it builds; entries
    within ``4 (n + 1) D eps S``, for ``n`` boxes on interfaces of dimension
    at most ``D``, where ``S`` is the product over the boxes of their
    largest operator Frobenius norm, a bound on every entry of the
    elementwise-absolute product.  Each engine rounds a product of ``n + 1``
    factors with inner dimension at most ``D`` within half of that; the
    identities and permutations the layered engine adds are exact."""
    new = evaluate(circuit, box_order)
    old = evaluate_layered(circuit, box_order)
    assert type(new) is type(old)
    assert new.route == old.route
    assert new.domain == old.domain and new.codomain == old.codomain
    tolerances = [box.op.tolerance for box in circuit.boxes.values()]
    assert new.tolerance == max(tolerances, default=DEFAULT_TOLERANCE)
    assert old.tolerance in (new.tolerance, max(new.tolerance, DEFAULT_TOLERANCE))
    got, want = operators(new), operators(old)
    assert got.shape == want.shape
    scale = math.prod(
        float(np.linalg.norm(operators(box.op), axis=(1, 2)).max())
        for box in circuit.boxes.values()
    )
    bound = 4 * (len(circuit.boxes) + 1) * MAX_INTERFACE[circuit.mode] * np.finfo(float).eps
    assert float(np.abs(got - want).max(initial=0.0)) <= bound * scale


def rare_circuits(mode: str) -> list:
    """Shapes the draw reaches only now and then, each with a box order.

    A box-less circuit whose wires all have dimension 1 gives both networks
    no table at all.  In the other, a wire both an input and an output (an
    identity table) lies beside a line of two boxes and an effect, each of
    two Kraus operators in CPM mode.
    """
    rng = np.random.default_rng(12)
    trivial = PartitionedSpace.trivial()
    empty = CircuitBuilder(mode).wire("a", trivial).wire("b", trivial)
    line = PartitionedSpace.from_dims([0, 1], [1, 1])
    through = PartitionedSpace.from_dims([0, 1], [1, 2])
    builder = CircuitBuilder(mode).wire("t", through).wire("e", line).wire("f", trivial)
    route = Relation.full(line.sector_labels, trivial.sector_labels)
    effect = random_coherent_cpm(route, line, trivial, rng, count=2)
    if mode == "pure":
        effect = RoutedMap(route, effect.kraus[0], line, trivial)
    builder.box("end", ["e"], ["f"], effect)
    for t in range(2):
        builder.wire(f"x{t}", line)
        if mode == "pure":
            op = random_block_diagonal_unitary(line, rng)
        else:
            op = random_sector_preserving_channel(line, rng, count=2)
        builder.box(f"u{t}", [f"x{t}"], [f"x{t + 1}"], op)
    builder.wire("x2", line).inputs("t", "e", "x0").outputs("f", "x2", "t")
    return [
        (empty.inputs("a", "b").outputs("b", "a").build(), []),
        (builder.build(), ["u0", "end", "u1"]),
    ]


class TestAgainstLayeredEngine:
    @settings(max_examples=300, deadline=None)
    @given(circuits("pure"))
    @example(rare_circuits("pure")[0])
    @example(rare_circuits("pure")[1])
    def test_pure(self, drawn):
        circuit, order = drawn
        assert_matches_layered(circuit)
        assert_matches_layered(circuit, order)

    @settings(max_examples=200, deadline=None)
    @given(circuits("cpm"))
    @example(rare_circuits("cpm")[0])
    @example(rare_circuits("cpm")[1])
    def test_cpm(self, drawn):
        circuit, order = drawn
        assert_matches_layered(circuit)
        assert_matches_layered(circuit, order)

    def test_empty_circuits(self):
        space = PartitionedSpace.from_dims([0, 1], [1, 2])
        other = PartitionedSpace.trivial(2)
        for mode in ("pure", "cpm"):
            builder = CircuitBuilder(mode).wire("a", space).wire("b", other)
            assert_matches_layered(builder.inputs("a", "b").outputs("b", "a").build())
            assert_matches_layered(CircuitBuilder(mode).build())
            builder = CircuitBuilder(mode).wire("a", space)
            assert_matches_layered(builder.inputs("a").outputs("a").build())


def test_more_open_wires_than_array_axes():
    """Wires of one sector and dimension 1 take no axis: with seventy of
    them crossing beside a state on two real wires (past numpy's 64 axes,
    where the layered engine fails), the result is that of the circuit
    without them."""
    rng = np.random.default_rng(70)
    space = PartitionedSpace.from_dims([0, 1], [1, 2])
    trivial = PartitionedSpace.trivial()
    route = Relation.full(trivial.sector_labels, tensor_many([space, space]).sector_labels)
    flags = [f"f{i}" for i in range(70)]
    for mode in ("pure", "cpm"):
        op = random_coherent_cpm(route, trivial, tensor_many([space, space]), rng, count=2)
        if mode == "pure":
            op = RoutedMap(route, op.kraus[0], op.domain, op.codomain)
        results = []
        for extra in ([], flags):
            builder = CircuitBuilder(mode).wire("a", space).wire("b", space)
            for wire in extra:
                builder.wire(wire, trivial)
            builder.box("prep", [], ["a", "b"], op)
            builder.inputs(*extra).outputs("b", *reversed(extra), "a")
            results.append(evaluate(builder.build()))
        bare, flagged = results
        assert np.array_equal(operators(flagged), operators(bare))
        assert np.array_equal(flagged.route.matrix, bare.route.matrix)
        assert flagged.codomain.sector_dims == bare.codomain.sector_dims


def test_wide_input_memory():
    """Ten two-dimensional input wires, each ending in an effect: a
    1 x 1024 result (16 KB) from boxes of two entries.  Evaluating it
    never holds 2 MB; a dense identity over the whole input interface
    took 40 MB."""
    space, unit = PartitionedSpace.trivial(2), PartitionedSpace.trivial()
    route = Relation.full(space.sector_labels, unit.sector_labels)
    effect = RoutedMap(route, np.ones((1, 2), dtype=complex), space, unit)
    builder = CircuitBuilder("pure")
    for i in range(10):
        builder.wire(f"a{i}", space).wire(f"e{i}", unit)
        builder.box(f"x{i}", [f"a{i}"], [f"e{i}"], effect)
    builder.inputs(*(f"a{i}" for i in range(10))).outputs(*(f"e{i}" for i in range(10)))
    circuit = builder.build()
    tracemalloc.start()
    try:
        result = evaluate(circuit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(result.matrix, np.ones((1, 1024)))
    assert peak < 2 * 2**20


def test_wide_diagonal_circuit():
    """Nine wires of two dimension-1 sectors, three layers of random
    sector-preserving unitaries: a 512 x 512 diagonal, whose entries are the
    products of each wire's phases (the layered engine took minutes)."""
    rng = np.random.default_rng(9)
    wires, layers = 9, 3
    space = PartitionedSpace.from_dims([0, 1], [1, 1])
    builder = CircuitBuilder("pure")
    phases = []
    for j in range(wires):
        for t in range(layers + 1):
            builder.wire(f"w{j}_{t}", space)
        line = np.ones(2, dtype=complex)
        for t in range(layers):
            u = random_block_diagonal_unitary(space, rng)
            builder.box(f"u{j}_{t}", [f"w{j}_{t}"], [f"w{j}_{t + 1}"], u)
            line = line * np.diag(u.matrix)
        phases.append(line)
    builder.inputs(*(f"w{j}_0" for j in range(wires)))
    builder.outputs(*(f"w{j}_{layers}" for j in range(wires)))
    result = evaluate(builder.build())
    # dimension-1 sectors: canonical coordinates are the row-major bits
    expected = reduce(np.kron, phases)
    assert result.matrix.shape == (2**wires, 2**wires)
    # each entry multiplies wires * layers phases, each product within 2 eps
    bound = 2 * wires * layers * np.finfo(float).eps
    assert np.abs(result.matrix - np.diag(expected)).max() <= bound
    assert result.route == Relation.identity(result.domain.sector_labels)


@pytest.mark.parametrize("mode", ["pure", "cpm"])
def test_accumulated_weight_names_the_boxes(mode):
    """Two boxes each accepted with forbidden weight 0.9e-12 at tolerance
    1e-12 compose to weight 1.8e-12: the rejection names both boxes, says
    that the weight accumulated over them and keeps the excess."""
    space = PartitionedSpace.from_dims([0, 1], [1, 1])
    matrix = np.array([[1.0, 0.0], [0.9e-12, 1.0]], dtype=complex)
    op = RoutedMap(Relation.identity(space.sector_labels), matrix, space, space, 1e-12)
    if mode == "cpm":
        op = lift_pure(op)
    builder = CircuitBuilder(mode).wire("a0", space).wire("a1", space).wire("a2", space)
    builder.box("u", ["a0"], ["a1"], op).box("v", ["a1"], ["a2"], op)
    with pytest.raises(RouteViolation) as err:
        evaluate(builder.inputs("a0").outputs("a2").build())
    message = str(err.value)
    assert "'u'" in message and "'v'" in message and "accumulated" in message
    assert "1.8" in message and "1.0e-12" in message


def test_tolerance_below_the_default():
    """Boxes checked at 1e-12 on one wire, beside a passthrough wire the
    circuit also reorders.  With exact boxes the circuit evaluates, checked
    at 1e-12, where the layered engine's identities and permutations raised
    its tolerance to the default.  Boxes that each carry forbidden weight
    just under 1e-12 compose to about twice that: the result is rejected
    at the largest box tolerance, where the layered engine accepted it."""
    space = PartitionedSpace.from_dims([0, 1], [1, 1])
    route = Relation.identity(space.sector_labels)
    for noise, rejected in ((0.0, False), (0.9e-12, True)):
        matrix = np.array([[1.0, 0.0], [noise, 1.0]], dtype=complex)
        op = RoutedMap(route, matrix, space, space, 1e-12)
        builder = CircuitBuilder("pure").wire("a0", space).wire("a1", space).wire("a2", space)
        builder.wire("b", PartitionedSpace.trivial(2))
        builder.box("u", ["a0"], ["a1"], op).box("v", ["a1"], ["a2"], op)
        circuit = builder.inputs("a0", "b").outputs("b", "a2").build()
        old = evaluate_layered(circuit)
        assert old.tolerance == DEFAULT_TOLERANCE
        if rejected:
            with pytest.raises(RouteViolation, match="1.8"):
                evaluate(circuit)
            continue
        new = evaluate(circuit)
        assert new.tolerance == 1e-12
        assert new.route == old.route and np.array_equal(new.matrix, old.matrix)


# -- the planner --------------------------------------------------------------

#: product of every label size of a drawn network, a bound on every
#: intermediate and on the reference's loop
MAX_NETWORK = 2**12


@st.composite
def networks(draw):
    """A random network of at most 52 labels (``np.einsum``'s letters) on
    one to eight tables, 0-d tables among them.  A label is summed (on two
    tables), open or a batch label (on one table, at most one batch label
    per table); the open labels sit on the first table alone or anywhere,
    and are asked for in a random order."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = draw(st.integers(1, 8))
    on_first = draw(st.booleans())
    signatures: list[list[str]] = [[] for _ in range(count)]
    sizes, opened, batched = {}, [], set()
    budget = MAX_NETWORK
    for label in string.ascii_letters[: draw(st.integers(0, 52))]:
        size = draw(st.sampled_from([1, 1, 2, 3]))
        if size > budget:
            size = 1
        budget //= size
        kind = draw(st.sampled_from(["summed", "open", "batch"]))
        if kind == "summed" and count > 1:
            holders = rng.choice(count, size=2, replace=False).tolist()
        elif kind == "batch" and len(batched) < count:
            holders = [int(rng.choice(sorted(set(range(count)) - batched)))]
            batched.update(holders)
        else:
            holders = [0 if on_first else int(rng.integers(count))]
            opened.append(label)
        for slot in holders:
            signatures[slot].insert(int(rng.integers(len(signatures[slot]) + 1)), label)
        sizes[label] = size
    opened = draw(st.permutations(opened))
    return signatures, opened, sizes, rng


def draw_tables(signatures, sizes, rng, boolean: bool) -> list[np.ndarray]:
    tables = []
    for signature in signatures:
        shape = [sizes[label] for label in signature]
        if boolean:
            tables.append((rng.random(shape) < 0.6).astype(np.float32))
        else:
            tables.append(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return tables


class TestPlanner:
    def reference(self, signatures, opened, plan, tables):
        """``np.einsum`` of the network, with the batch labels in the plan's
        order merged into one leading axis when there are any."""
        spec = ",".join("".join(s) for s in signatures) + "->" + "".join(plan.batch + opened)
        want = np.einsum(spec, *tables)
        return want.reshape(-1, *want.shape[len(plan.batch) :]) if plan.batch else want

    @settings(max_examples=300, deadline=None)
    @given(networks())
    def test_complex_matches_einsum(self, network):
        signatures, opened, sizes, rng = network
        plan = _contraction_plan(signatures, opened, sizes)
        batch = {l for s in signatures for l in s if sum(l in t for t in signatures) == 1}
        assert set(plan.batch) == batch - set(opened)
        tables = draw_tables(signatures, sizes, rng, boolean=False)
        got = _run_contraction(plan, tables)
        want = self.reference(signatures, opened, plan, tables)
        assert got.shape == want.shape
        # every entry sums at most MAX_NETWORK products of at most 8 factors
        bound = 2 * (MAX_NETWORK + 8) * np.finfo(float).eps
        scale = self.reference(signatures, opened, plan, [np.abs(t) for t in tables])
        assert np.all(np.abs(got - want) <= bound * scale)

    def test_ties_go_to_the_lowest_tables(self):
        """Both neighbouring pairs give 8 entries: tables 0 and 1 go first,
        into table 4; the part left disconnected joins last, the lower
        table's batch label outermost."""
        signatures = [["a", "x"], ["b", "x", "y"], ["c", "y"], ["z"]]
        sizes = dict.fromkeys("abcxyz", 2)
        plan = _contraction_plan(signatures, ["c", "a"], sizes)
        assert [step[:2] for step in plan.steps] == [(0, 1), (2, 4), (3, 5)]
        assert plan.batch == ["z", "b"]
        assert plan == _contraction_plan(signatures, ["c", "a"], sizes)

    def test_smallest_result_first(self):
        """Tables 1 and 2 sum out the large label: a result of 4 entries,
        against 8 for tables 0 and 1, which touch fewer entries in all."""
        signatures = [["a", "x"], ["x", "y"], ["y", "c"]]
        sizes = {"a": 1, "x": 2, "y": 8, "c": 2}
        plan = _contraction_plan(signatures, ["a", "c"], sizes)
        assert [step[:2] for step in plan.steps] == [(1, 2), (0, 3)]


def test_cpm_trajectories_intermediates(monkeypatch):
    """A message and a control register encoded onto three lines, each line
    through four 2-Kraus channels, and decoded: 4,096 Kraus operators of
    size 6 x 6.  No intermediate of the planned contraction is larger than
    the result; a box-by-box walk held 4.5 times that."""
    rng = np.random.default_rng(3)
    lines, layers = 3, 4
    message, control = PartitionedSpace.trivial(2), PartitionedSpace.trivial(lines)
    line = PartitionedSpace.from_dims([0, 1], [1, 2])
    register = tensor_many([message, control])
    joint = tensor_many([line] * lines)
    builder = CircuitBuilder("cpm").wire("M", message).wire("C", control)
    builder.wire("M2", message).wire("C2", control)
    for end, (domain, codomain) in enumerate(((register, joint), (joint, register))):
        route = Relation.full(domain.sector_labels, codomain.sector_labels)
        op = random_coherent_cpm(route, domain, codomain, rng, count=1)
        ends = [f"L{j}_{end * layers}" for j in range(lines)]
        wires = (["M", "C"], ends) if end == 0 else (ends, ["M2", "C2"])
        builder.box(f"end{end}", *wires, op)
    for j in range(lines):
        builder.wire(f"L{j}_0", line)
        for t in range(layers):
            builder.wire(f"L{j}_{t + 1}", line)
            op = random_sector_preserving_channel(line, rng, count=2)
            builder.box(f"u{j}_{t}", [f"L{j}_{t}"], [f"L{j}_{t + 1}"], op)
    circuit = builder.inputs("M", "C").outputs("M2", "C2").build()

    plans = []

    def recording(*args):
        plans.append(_contraction_plan(*args))
        return plans[-1]

    monkeypatch.setattr("routedcircuits.circuits._contraction_plan", recording)
    result = evaluate(circuit)
    kraus, d_out, d_in = result.kraus_stack.shape
    assert kraus == 2 ** (lines * layers) and d_out == d_in == 6
    (plan,) = [p for p in plans if p.batch]
    largest = max(math.prod(shape) for *_, shape in plan.steps)
    assert largest <= kraus * d_out * d_in
