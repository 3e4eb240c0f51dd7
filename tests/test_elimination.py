"""The planned elimination behind ``accessible_space`` against the
variable-by-variable elimination kept in ``elimination_oracle``, and the
two accessible-space algorithms against each other."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from routedcircuits import CircuitBuilder
from routedcircuits.circuits import Slice, _elimination_plan, _run_plan, accessible_space
from routedcircuits.relations import Relation
from routedcircuits.routed_cpms import lift_pure
from routedcircuits.routed_maps import RoutedMap
from routedcircuits.sampling import random_matrix_following, random_relation, random_space
from routedcircuits.spaces import PartitionedSpace, tensor_many

from elimination_oracle import _eliminate

DENSITIES = (0.0, 0.3, 0.7, 1.0)
#: empty routes are rarer in circuits, where one empties every slice
BOX_DENSITIES = (0.0, 0.3, 0.3, 0.5, 0.5, 0.7, 1.0)


@st.composite
def factor_graphs(draw):
    """Boolean tables over 0-7 variables of sizes 1-3: 0-d tables,
    repeated signatures, disconnected components and all-False tables, with
    ``keep`` empty, partial, or naming a variable no table touches."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # names in a random order, so that sorted order is not first appearance
    names = draw(st.permutations("abcdefgz"))
    variables = list(names[: draw(st.integers(0, 7))])
    untouched = names[7]
    sizes = {v: draw(st.integers(1, 3)) for v in [*variables, untouched]}
    factors = []
    for _ in range(draw(st.integers(0, 6))):
        if factors and draw(st.integers(0, 3)) == 0:
            signature = draw(st.sampled_from([vars_ for vars_, _ in factors]))
        elif variables:
            signature = tuple(
                draw(st.lists(st.sampled_from(variables), unique=True, max_size=4))
            )
        else:
            signature = ()
        density = draw(st.sampled_from(DENSITIES))
        factors.append((signature, rng.random([sizes[v] for v in signature]) < density))
    pool = variables + [untouched] if draw(st.booleans()) else variables
    keep = tuple(draw(st.lists(st.sampled_from(pool), unique=True)) if pool else ())
    return factors, keep, sizes


@settings(max_examples=400, deadline=None)
@given(factor_graphs())
def test_plan_equals_the_oracle(graph):
    factors, keep, sizes = graph
    plan = _elimination_plan([vars_ for vars_, _ in factors], keep, sizes)
    got = np.asarray(_run_plan(plan, [table for _, table in factors]))
    want = np.asarray(_eliminate(factors, keep, sizes))
    assert got.dtype == want.dtype == bool
    assert got.shape == want.shape == tuple(sizes[v] for v in keep)
    assert np.array_equal(got, want)


# -- the two accessible-space algorithms -------------------------------------


def _random_box(mode, domain, codomain, rng, density):
    """A box whose route has the given density, and is empty only at 0."""
    while True:
        route = random_relation(domain.sector_labels, codomain.sector_labels, rng, density)
        if route.matrix.any() or not density:
            break
    op = RoutedMap(route, random_matrix_following(route, domain, codomain, rng), domain, codomain)
    return op if mode == "pure" else lift_pure(op)


@st.composite
def sliced_circuits(draw, mode: str):
    """A random circuit with routes of every density, empty ones included,
    and a random antichain of its wires.

    Boxes take zero to two open wires and make zero to two, so states,
    effects and disconnected parts occur.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spaces: dict[str, PartitionedSpace] = {}

    def new_wires(count: int) -> list[str]:
        names = [f"w{len(spaces) + i}" for i in range(count)]
        for name in names:
            spaces[name] = random_space(rng, max_sectors=3, max_dim=1)
        return names

    inputs = new_wires(draw(st.integers(0, 3)))
    frontier = list(inputs)
    builder = CircuitBuilder(mode)
    boxes = []
    for b in range(draw(st.integers(0, 6))):
        taken = draw(st.permutations(frontier))[: draw(st.integers(0, min(2, len(frontier))))]
        frontier = [w for w in frontier if w not in taken]
        made = new_wires(draw(st.integers(0, 2)))
        domain = tensor_many([spaces[w] for w in taken])
        codomain = tensor_many([spaces[w] for w in made])
        density = draw(st.sampled_from(BOX_DENSITIES))
        boxes.append((f"b{b}", taken, made, _random_box(mode, domain, codomain, rng, density)))
        frontier += made
    for wire, space in spaces.items():
        builder.wire(wire, space)
    for box_id, taken, made, op in boxes:
        builder.box(box_id, taken, made, op)
    circuit = builder.inputs(*inputs).outputs(*frontier).build()

    cut: list[str] = []
    for wire in draw(st.permutations(list(spaces)))[: draw(st.integers(1, 4))]:
        above = circuit.wire_ancestors(wire)
        if not above & set(cut) and not any(wire in circuit.wire_ancestors(w) for w in cut):
            cut.append(wire)
    return circuit, Slice(cut)


def _assert_algorithms_agree(circuit, cut) -> None:
    recipe = accessible_space(circuit, cut, algorithm="recipe")
    insertion = accessible_space(circuit, cut, algorithm="insertion")
    assert recipe == insertion


class TestAlgorithmsAgree:
    @settings(max_examples=300, deadline=None)
    @given(sliced_circuits("pure"))
    def test_pure(self, drawn):
        _assert_algorithms_agree(*drawn)

    @settings(max_examples=150, deadline=None)
    @given(sliced_circuits("cpm"))
    def test_cpm(self, drawn):
        _assert_algorithms_agree(*drawn)


def _line_with_a_vanishing_part(mode: str):
    """A0 -a0-> A1 -a1-> A2 with identity routes, beside a separate
    B0 -z-> B1 whose route and matrix are zero."""
    space = PartitionedSpace.from_dims([0, 1], [1, 1])
    identity = RoutedMap(Relation.identity(space.sector_labels), np.eye(2), space, space)
    zero = RoutedMap(
        Relation.zero(space.sector_labels, space.sector_labels), np.zeros((2, 2)), space, space
    )
    if mode == "cpm":
        identity, zero = lift_pure(identity), lift_pure(zero)
    builder = CircuitBuilder(mode)
    for wire in ("A0", "A1", "A2", "B0", "B1"):
        builder.wire(wire, space)
    builder.box("a0", ["A0"], ["A1"], identity).box("a1", ["A1"], ["A2"], identity)
    builder.box("z", ["B0"], ["B1"], zero)
    return builder.inputs("A0", "B0").outputs("A2", "B1").build()


def test_a_vanishing_part_off_the_slice_empties_it():
    """Zero on any part of the circuit makes every slice inaccessible, also
    when that part does not touch the slice: the recipe, which once
    contracted only the routes connected to the slice, agrees."""
    for mode in ("pure", "cpm"):
        circuit = _line_with_a_vanishing_part(mode)
        for algorithm in ("recipe", "insertion"):
            result = accessible_space(circuit, Slice(["A1"]), algorithm=algorithm)
            assert result.tuples == ()
            assert result.total_dim == 0


def test_more_wires_than_einsum_subscripts():
    """Sixty lines of two dimension-1 sectors, one box each (a flip of the
    sectors on even lines, the identity on odd ones), and before them one
    box on lines 0 and 1 that passes only equal sectors: 122 wires, more
    than the 52 subscripts of ``np.einsum``.

    By hand: lines 0 and 1 enter their boxes in equal sectors, line 0 is
    flipped and line 1 kept, so after the boxes they are in different
    sectors; line 59 is free.
    """
    space = PartitionedSpace.from_dims([0, 1], [1, 1])
    pair = tensor_many([space, space])
    labels = space.sector_labels
    flips = Relation.from_pairs(labels, labels, [(0, 1), (1, 0)])
    flip = RoutedMap(flips, np.eye(2)[::-1], space, space)
    keep = RoutedMap(Relation.identity(labels), np.eye(2), space, space)
    pairs = [((0, 0), (0, 0)), ((1, 1), (1, 1))]
    equals = Relation.from_pairs(pair.sector_labels, pair.sector_labels, pairs)
    equal = RoutedMap(equals, np.diag([1.0, 0.0, 0.0, 1.0]), pair, pair)
    builder = CircuitBuilder("pure")
    for j in range(60):
        builder.wire(f"X{j}_0", space).wire(f"X{j}_1", space)
    builder.wire("Y0", space).wire("Y1", space)
    builder.box("e", ["X0_0", "X1_0"], ["Y0", "Y1"], equal)
    for j in range(60):
        before = f"Y{j}" if j < 2 else f"X{j}_0"
        builder.box(f"u{j}", [before], [f"X{j}_1"], flip if j % 2 == 0 else keep)
    builder.inputs(*(f"X{j}_0" for j in range(60)))
    circuit = builder.outputs(*(f"X{j}_1" for j in range(60))).build()
    assert len(circuit.wires) == 122
    cut = Slice(["X0_1", "X1_1", "X59_1"])
    for algorithm in ("recipe", "insertion"):
        result = accessible_space(circuit, cut, algorithm=algorithm)
        assert result.tuples == ((0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1))
        assert result.sector_dims == (1, 1, 1, 1)
    upstream = accessible_space(circuit, Slice(["Y0", "Y1", "X2_0"]))
    assert upstream.tuples == ((0, 0, 0), (0, 0, 1), (1, 1, 0), (1, 1, 1))
