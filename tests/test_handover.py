"""How an evaluated operator stack reaches its routed CP map: the one
compiled gather against the two-step gather it replaced, the rule by
which a routed map or CP map keeps a given array without a copy, the
coordinate norms of the CP bound, the C order of every stored array, and
the memory of a warm CPM evaluation, of composing two channels or two
maps, and of an adjoint."""

from __future__ import annotations

import copy
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from routedcircuits import CircuitBuilder, PartitionedSpace, Relation, RoutedMap
from routedcircuits import circuits
from routedcircuits import relations as rel
from routedcircuits import routed_maps as rmap
from routedcircuits.circuits import (
    _contraction_plan,
    _foliation_layers,
    _network,
    _program,
    _run,
    _run_contraction,
    _tables,
    evaluate,
)
from routedcircuits.errors import InvariantViolation, RouteViolation, ShapeMismatch
from routedcircuits.routed_cpms import (
    RoutedCPM,
    _choi_block_bound,
    _choi_block_excess,
    dagger_cpm,
    discard,
    lift_pure,
)
from routedcircuits.sampling import (
    random_block_diagonal_unitary,
    random_coherent_cpm,
    random_matrix_following,
    random_relation,
    random_sector_preserving_channel,
)
from routedcircuits.spaces import kron_to_canonical

from test_contraction import circuits as random_circuits
from test_contraction import rare_circuits
from test_cp_bound import ROUNDING, cp_maps

LINE = PartitionedSpace.from_dims([0, 1], [1, 2])


def two_step_gather(circuit, sources, box_ids, targets) -> np.ndarray:
    """The operator stack by the gather the compiled index replaced: the
    plan's own result order, then one gather of whole operators (the last
    box's index outermost) and of entries (into the canonical bases)."""
    dims, boxes = dict(circuit._shape.wires), dict(circuit._shape.boxes)
    signatures, keep, sizes = _network(dims, sources, [boxes[b] for b in box_ids], targets, 1, sum)
    plan = _contraction_plan(signatures, keep, sizes)
    program = _program(circuit, "operators", sources, box_ids, targets)
    result = _run_contraction(plan, _tables(circuit, program, box_ids))

    def to_kron(wires):
        spaces = (PartitionedSpace.from_dims(range(len(dims[w])), dims[w]) for w in wires)
        return kron_to_canonical(*spaces)

    kraus = np.arange(math.prod(sizes[x] for x in plan.batch))
    kraus = kraus.reshape([sizes[x] for x in plan.batch])
    order = kraus.transpose([plan.batch.index(x) for x in sorted(plan.batch, reverse=True)])
    count_in, count_out = (math.prod(sizes[w] for w in wires) for wires in (sources, targets))
    entry = np.argsort(to_kron(targets))[:, None] + count_out * np.argsort(to_kron(sources))
    take = order.reshape(-1, 1), entry.reshape(1, -1)
    return result.reshape(kraus.size, -1)[take].reshape(kraus.size, count_out, count_in)


def assert_one_gather_is_two_step(circuit, box_order=None) -> None:
    layers = _foliation_layers(circuit, box_order)
    order = [box_id for layer in layers for box_id in reversed(layer)]
    args = circuit.input_wires, order, circuit.output_wires
    got, want = _run(circuit, "operators", *args), two_step_gather(circuit, *args)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert got.base is None and not got.flags.writeable


class TestOneGather:
    @settings(max_examples=150, deadline=None)
    @given(random_circuits("pure"))
    @example(rare_circuits("pure")[0])
    @example(rare_circuits("pure")[1])
    def test_pure(self, drawn):
        circuit, order = drawn
        assert_one_gather_is_two_step(circuit)
        assert_one_gather_is_two_step(circuit, order)

    @settings(max_examples=150, deadline=None)
    @given(random_circuits("cpm"))
    @example(rare_circuits("cpm")[0])
    @example(rare_circuits("cpm")[1])
    def test_cpm(self, drawn):
        circuit, order = drawn
        assert_one_gather_is_two_step(circuit)
        assert_one_gather_is_two_step(circuit, order)

    @pytest.mark.parametrize("mode", ["pure", "cpm"])
    def test_plans_without_steps(self, mode, rng):
        """One box, one identity or no table at all: the last slot is a
        table, not a product; a box's table is a transposed view."""
        if mode == "pure":
            op = random_block_diagonal_unitary(LINE, rng)
        else:
            op = random_sector_preserving_channel(LINE, rng, count=3)
        builder = CircuitBuilder(mode).wire("in", LINE).wire("out", LINE)
        single = builder.inputs("in").outputs("out").box("u", ["in"], ["out"], op).build()
        through = CircuitBuilder(mode).wire("a", LINE).inputs("a").outputs("a").build()
        for circuit in (single, through, rare_circuits(mode)[0][0]):
            program = _program(circuit, "operators", circuit.input_wires, sorted(circuit.boxes),
                               circuit.output_wires)
            assert not program.plan.steps
            assert_one_gather_is_two_step(circuit)
        assert np.array_equal(evaluate(single).kraus_stack, op.kraus_stack)


def channel_parts(rng):
    channel = random_sector_preserving_channel(LINE, rng, count=3)
    return channel.route, channel.kraus_stack


def read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


class TestAdoption:
    @pytest.mark.parametrize(
        "make",
        [
            np.array,
            lambda stack: read_only(np.asfortranarray(stack)),
            lambda stack: read_only(np.array(stack).transpose(0, 2, 1).copy().transpose(0, 2, 1)),
        ],
        ids=["writeable", "fortran order", "transposed"],
    )
    def test_a_stack_not_kept_as_it_is_is_copied(self, make, rng):
        route, stack = channel_parts(rng)
        given_ = make(stack)
        channel = RoutedCPM(route, given_, LINE, LINE)
        assert not np.shares_memory(channel.kraus_stack, given_)
        assert np.array_equal(channel.kraus_stack, stack)
        assert channel.kraus_stack.flags.c_contiguous

    def test_a_read_only_view_of_a_writeable_array_is_copied(self, rng):
        route, stack = channel_parts(rng)
        base = np.array(stack)
        channel = RoutedCPM(route, read_only(base[:]), LINE, LINE)
        base[...] = 0
        assert np.array_equal(channel.kraus_stack, stack)

    def test_a_real_stack_is_copied_to_complex(self):
        route = rel.full_coherence(Relation.identity(LINE.sector_labels))
        given_ = read_only(np.eye(3)[None].copy())
        channel = RoutedCPM(route, given_, LINE, LINE)
        assert channel.kraus_stack.dtype == complex
        assert np.array_equal(channel.kraus_stack, given_)

    def test_an_owned_read_only_c_stack_is_kept(self, rng):
        route, stack = channel_parts(rng)
        given_ = read_only(np.array(stack))
        channel = RoutedCPM(route, given_, LINE, LINE)
        assert channel.kraus_stack is given_
        assert all(np.shares_memory(k, given_) and not k.flags.writeable for k in channel.kraus)

    def test_a_kept_stack_is_still_checked(self, rng):
        """Numbers, shape, typing and route are checked on a stack kept as
        it is, as on a copied one."""
        route, _ = channel_parts(rng)
        full = rel.full_coherence(Relation.full(LINE.sector_labels, LINE.sector_labels))
        mixing = read_only(np.ones((2, 3, 3), dtype=complex))
        assert RoutedCPM(full, mixing, LINE, LINE).kraus_stack is mixing
        with pytest.raises(RouteViolation):
            RoutedCPM(route, mixing, LINE, LINE)
        with pytest.raises(InvariantViolation):
            RoutedCPM(full, read_only(np.full((1, 3, 3), np.nan, dtype=complex)), LINE, LINE)
        for shape in [(3, 3), (0, 3, 3), (1, 2, 3)]:
            with pytest.raises(ShapeMismatch):
                RoutedCPM(full, read_only(np.ones(shape, dtype=complex)), LINE, LINE)

    def test_a_map_keeps_only_what_nothing_can_write(self, rng):
        """The rule of routed CP maps, for a routed map's matrix: an owned
        read-only C matrix, or the matrix of a read-only one-operator stack,
        is kept; a read-only view of a writeable array, or of part of a
        larger array, is copied."""
        op = random_block_diagonal_unitary(LINE, rng)
        matrix = read_only(np.array(op.matrix))
        assert RoutedMap(op.route, matrix, LINE, LINE).matrix is matrix
        stack = read_only(np.array(op.kraus_stack))
        assert RoutedMap.from_stack(op.route, stack, LINE, LINE).matrix.base is stack
        base = np.array(op.matrix)
        routed = RoutedMap(op.route, read_only(base[:]), LINE, LINE)
        base[...] = 0
        assert np.array_equal(routed.matrix, op.matrix)
        two = read_only(np.stack([op.matrix, op.matrix]))
        assert not np.shares_memory(RoutedMap(op.route, two[0], LINE, LINE).matrix, two)

    def test_evaluate_hands_its_pure_stack_over(self, monkeypatch, rng):
        op = random_block_diagonal_unitary(LINE, rng)
        builder = CircuitBuilder("pure").wire("a", LINE).wire("b", LINE).wire("c", LINE)
        builder.box("u", ["a"], ["b"], op).box("v", ["b"], ["c"], op)
        circuit = builder.inputs("a").outputs("c").build()
        made = []

        def record(circuit, kind, *args):
            result = _run(circuit, kind, *args)
            if kind == "operators":
                made.append(result)
            return result

        monkeypatch.setattr(circuits, "_run", record)
        result = evaluate(circuit)
        assert result.matrix.base is made[0] and not result.matrix.flags.writeable

    def test_evaluate_hands_its_stack_over(self, monkeypatch):
        circuit = channel_chain(boxes=3, count=2)
        made = []

        def record(circuit, kind, *args):
            result = _run(circuit, kind, *args)
            if kind == "operators":
                made.append(result)
            return result

        monkeypatch.setattr(circuits, "_run", record)
        stack = evaluate(circuit).kraus_stack
        assert stack is made[0]
        assert stack.base is None and not stack.flags.writeable


def norm_bound(stack, route, domain, codomain) -> float:
    """The CP bound with its coordinate norms from ``np.linalg.norm``, as
    it was first written."""
    norms = np.linalg.norm(stack, axis=0)
    top = np.maximum.reduceat(norms, codomain.sector_offsets, axis=0)
    top = np.maximum.reduceat(top, domain.sector_offsets, axis=1).T
    pairs = top[:, None, :, None] * top[None, :, None, :]
    return float(pairs.max(where=~route.matrix, initial=0.0))


LAYOUTS = {
    "c": lambda stack: stack,
    "fortran": np.asfortranarray,
    "transposed": lambda stack: stack.transpose(0, 2, 1).copy().transpose(0, 2, 1),
}


@settings(max_examples=200, deadline=None)
@given(cp_maps(), st.sampled_from(sorted(LAYOUTS)))
def test_bound_matches_the_norm_formula(drawn, layout):
    stack, route, domain, codomain = drawn
    stack = LAYOUTS[layout](stack)
    bound = _choi_block_bound(stack, route, domain, codomain)
    reference = norm_bound(stack, route, domain, codomain)
    assert bound == pytest.approx(reference, rel=ROUNDING, abs=0.0)
    excess = _choi_block_excess(stack, route, domain, codomain)
    assert bound >= excess * (1 - ROUNDING)
    if len(stack) == 1:
        assert bound == pytest.approx(excess, rel=ROUNDING, abs=0.0)


def stored_arrays(op) -> list[np.ndarray]:
    arrays = [op.kraus_stack, *getattr(op, "kraus", ())]
    return arrays + ([op.matrix] if isinstance(op, RoutedMap) else [])


def test_every_stored_array_is_c_contiguous(rng):
    """Daggers store conjugate transposes, and a Fortran-ordered matrix
    stays one under ``np.array``'s default order: both are stored in C
    order, so a Choi matrix or Gram reshape of them is a view."""
    codomain = PartitionedSpace.from_dims(["a", "b"], [2, 2])
    route = random_relation(LINE.sector_labels, codomain.sector_labels, rng, 0.7)
    matrix = np.asfortranarray(random_matrix_following(route, LINE, codomain, rng))
    routed = RoutedMap(route, matrix, LINE, codomain)
    channel = random_coherent_cpm(route, LINE, codomain, rng, count=3)
    relabelled = PartitionedSpace.from_dims(["c", "d"], [2, 2])
    values = [
        routed,
        rmap.dagger(routed),
        lift_pure(rmap.dagger(routed)),
        routed.relabel(codomain=relabelled),
        channel,
        dagger_cpm(channel),
        dagger_cpm(channel).relabel(domain=relabelled),
        rmap.compose(dagger_cpm(channel), channel),
        channel.tensor(dagger_cpm(channel)),
        copy.deepcopy(dagger_cpm(channel)),
        discard(LINE),
        RoutedCPM.identity(LINE),
        evaluate(channel_chain(boxes=3, count=2)),
    ]
    for value in values:
        for array in stored_arrays(value):
            assert array.flags.c_contiguous, value


def channel_chain(boxes: int, count: int, seed: int = 3):
    """A line of ``boxes`` channels of ``count`` operators each on a wire
    of sectors of dimensions 1 and 5, drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    line = PartitionedSpace.from_dims([0, 1], [1, 5])
    builder = CircuitBuilder("cpm")
    for t in range(boxes + 1):
        builder.wire(f"x{t}", line)
    for t in range(boxes):
        op = random_sector_preserving_channel(line, rng, count=count)
        builder.box(f"u{t}", [f"x{t}"], [f"x{t + 1}"], op)
    return builder.inputs("x0").outputs(f"x{boxes}").build()


def test_warm_cpm_evaluation_allocates_under_three_result_stacks():
    """A chain of 1,024 operators of 6 x 6: a warm evaluation holds the
    last product and the stack gathered from it, and copies neither again.
    The two-step gather, with a copy in the routed CP map, took 3.24 times
    the result."""
    circuit = channel_chain(boxes=5, count=4)
    evaluate(circuit)
    tracemalloc.start()
    try:
        op = evaluate(circuit)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert op.kraus_stack.shape == (1024, 6, 6)
    assert peak < 3 * op.kraus_stack.nbytes


def test_channel_composition_writes_its_product_once():
    """Two channels of 64 operators on a line of dimension 6: the pairwise
    products are written straight into the composite's read-only stack,
    which its routed CP map keeps.  Writing them into a fresh array that
    the constructor copied took 2.24 times the result."""
    rng = np.random.default_rng(5)
    line = PartitionedSpace.from_dims([0, 1], [1, 5])
    first, second = (random_sector_preserving_channel(line, rng, count=64) for _ in range(2))
    rmap.compose(second, first)
    tracemalloc.start()
    try:
        op = rmap.compose(second, first)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    pairs = second.kraus_stack[:, None] @ first.kraus_stack[None]
    assert np.array_equal(op.kraus_stack, pairs.reshape(4096, 6, 6))
    assert peak < 1.5 * op.kraus_stack.nbytes


def test_map_composition_writes_its_product_once():
    """Two maps on a line of dimension 512: the product is written straight
    into the composite's read-only one-operator stack, which the map keeps;
    beside it the route check holds one real array of the entries'
    magnitudes.  Copying the product again into a new matrix took 2.5
    times the result."""
    line = PartitionedSpace.from_dims([0, 1], [256, 256])
    first, second = (random_block_diagonal_unitary(line, np.random.default_rng(s)) for s in (6, 7))
    tracemalloc.start()
    try:
        op = rmap.compose(second, first)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(op.matrix, second.matrix @ first.matrix)
    assert peak < 2 * op.matrix.nbytes


@pytest.mark.parametrize(
    "make, bound",
    [(RoutedMap.identity, 2.0), (RoutedCPM.identity, 2.5)],
    ids=["map", "channel"],
)
def test_an_adjoint_is_written_once(make, bound):
    """The adjoint of a map or channel on a two-sector space of dimension
    512 is written once, into the stack it keeps; beside it the route check
    holds one real array of the entries' magnitudes (a map) or two of the
    coordinate norms (a channel).  Conjugating, then copying the transpose
    into C order, peaked at 2.5 and 3 times the result."""
    op = make(PartitionedSpace.from_dims([0, 1], [256, 256]))
    tracemalloc.start()
    try:
        adjoint = rmap.dagger(op)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(adjoint.kraus_stack, op.kraus_stack.conj().transpose(0, 2, 1))
    assert peak < bound * adjoint.kraus_stack.nbytes
