"""The two bounds that clear a routed CP map before any Choi matrix is
built, Cauchy–Schwarz and each operator's block maxima, against the exact
check they stand in front of."""

from __future__ import annotations

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routedcircuits import CircuitBuilder
from routedcircuits import relations as rel
from routedcircuits.circuits import _contracted
from routedcircuits.errors import RouteViolation
from routedcircuits.relations import CPRelation, Relation
from routedcircuits.routed_cpms import (
    RoutedCPM,
    _choi_block_bound,
    _choi_block_excess,
    _operator_block_bound,
    lift_pure,
    tensor_cpm,
)
from routedcircuits.routed_maps import DEFAULT_TOLERANCE, _forbidden_block_excess
from routedcircuits.sampling import random_decohered_cpm
from routedcircuits.spaces import PartitionedSpace

from test_sector_layout import block_weighted, bool_array, cp_route, map_excess_by_blocks, spaces

#: the bound and the exact excess round differently, by a few units in the
#: last place, even where they are equal
ROUNDING = 8 * np.finfo(float).eps
#: tolerances as multiples of the exact excess, on both sides of it and of
#: its double (the bound clears a map at half the tolerance)
NEAR = (0.5, 0.999, 1.0, 1.001, 1.999, 2.0, 2.001, 4.0)


@st.composite
def cp_maps(draw):
    """Operators whose sector blocks each have a drawn scale (zero, below,
    near and above the default tolerance) under a drawn route."""
    domain, codomain = draw(spaces(max_dim=2)), draw(spaces(max_dim=2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    route = cp_route(lambda shape: bool_array(draw, shape), domain, codomain)
    count = draw(st.integers(1, 4))
    stack = np.array([block_weighted(draw, rng, domain, codomain) for _ in range(count)])
    return stack, route, domain, codomain


@settings(max_examples=300, deadline=None)
@given(cp_maps())
def test_bound_is_never_below_the_excess(drawn):
    stack, route, domain, codomain = drawn
    bound, excess = _choi_block_bound(*drawn), _choi_block_excess(*drawn)
    assert bound >= excess * (1 - ROUNDING)
    if len(stack) == 1:
        assert bound == pytest.approx(excess, rel=ROUNDING, abs=0.0)


@settings(max_examples=300, deadline=None)
@given(cp_maps(), st.sampled_from(NEAR), st.sampled_from([0.0, 1e-12, DEFAULT_TOLERANCE]))
def test_verdict_is_the_exact_verdict(drawn, near, floor):
    """The tolerance sits on or next to the exact excess, or its double;
    when the excess is zero, it is zero or small."""
    stack, route, domain, codomain = drawn
    excess = _choi_block_excess(*drawn)
    tolerance = excess * near if excess else floor
    if excess <= tolerance:
        RoutedCPM(route, stack, domain, codomain, tolerance)
    else:
        with pytest.raises(RouteViolation, match=re.escape(f"weight {excess:.3e} ")):
            RoutedCPM(route, stack, domain, codomain, tolerance)


@settings(max_examples=300, deadline=None)
@given(cp_maps(), st.booleans(), st.sampled_from([0.0, 1e-12, DEFAULT_TOLERANCE]))
def test_a_route_that_forbids_nothing_is_not_checked(drawn, everything, tolerance):
    """A route that allows every coherence (or, plain, every block) returns
    before any check: the bounds and the exact excess are all zero on it,
    so the verdict and the map excess are theirs.  On other routes the
    verdict is still that of the bounds, then the exact check."""
    stack, route, domain, codomain = drawn
    if everything:
        route = CPRelation(route.domain, route.codomain, np.ones_like(route.matrix))
    drawn = stack, route, domain, codomain
    bounds = _choi_block_bound(*drawn), _operator_block_bound(*drawn)
    excess = _choi_block_excess(*drawn)
    if everything:
        assert bounds == (0.0, 0.0) and excess == 0.0
    if min(bounds) <= tolerance / 2 or excess <= tolerance:
        RoutedCPM(route, stack, domain, codomain, tolerance)
    else:
        with pytest.raises(RouteViolation, match=re.escape(f"weight {excess:.3e} ")):
            RoutedCPM(route, stack, domain, codomain, tolerance)
    plain = rel.diagonal(route)
    for matrix in stack:
        map_excess = map_excess_by_blocks(matrix, plain, domain, codomain)
        assert _forbidden_block_excess(matrix, plain, domain, codomain) == map_excess
        assert map_excess == 0.0 or not everything


def test_lifting_a_wide_permutation_builds_no_choi_matrix():
    """A reordering of four wires of dimension 3, 4, 4 and 4: its Choi
    matrix would have 192^4 entries (20 GiB), while the operator has
    192^2."""
    three = PartitionedSpace.from_dims([0, 1], [1, 2])
    four = PartitionedSpace.from_dims([0, 1], [1, 3])
    builder = CircuitBuilder("pure").wire("w0", three)
    for wire in ("w1", "w3", "w4"):
        builder.wire(wire, four)
    wires = ["w0", "w1", "w3", "w4"]
    circuit = builder.inputs(*wires).outputs(*wires).build()
    pure = _contracted(circuit, wires, (), ["w3", "w0", "w4", "w1"])
    assert pure.matrix.shape == (192, 192)
    tracemalloc.start()
    try:
        lifted = lift_pure(pure)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert np.array_equal(lifted.kraus_stack[0], pure.matrix)


def test_a_decohered_channel_is_decided_exactly(rng):
    """Operators on single blocks cancel every forbidden coherence, which
    the bound cannot see: the exact check clears the channel, and rejects
    it, with its exact excess, once a small coherent operator joins."""
    space = PartitionedSpace.from_dims([0, 1], [1, 2])
    connectivity = Relation.identity(space.sector_labels)
    channel = random_decohered_cpm(connectivity, space, space, rng, ops_per_block=2)
    args = channel.route, channel.domain, channel.codomain
    assert _choi_block_bound(channel.kraus_stack, *args) > DEFAULT_TOLERANCE
    assert _choi_block_excess(channel.kraus_stack, *args) == 0.0
    RoutedCPM(channel.route, channel.kraus_stack, space, space)

    stack = np.concatenate([channel.kraus_stack, 1e-2 * np.eye(3)[None]])
    excess = _choi_block_excess(stack, *args)
    assert excess == pytest.approx(1e-4)
    with pytest.raises(RouteViolation, match=re.escape(f"weight {excess:.3e} ")):
        RoutedCPM(channel.route, stack, space, space)


@settings(max_examples=300, deadline=None)
@given(cp_maps())
def test_operator_bound_is_never_below_the_excess(drawn):
    stack, route, domain, codomain = drawn
    bound, excess = _operator_block_bound(*drawn), _choi_block_excess(*drawn)
    assert bound >= excess * (1 - ROUNDING)
    if len(stack) == 1:
        assert bound == pytest.approx(excess, rel=ROUNDING, abs=0.0)


def test_a_product_of_decohering_channels_builds_no_choi_matrix(rng):
    """Each operator of a product of decohering channels stays on one block:
    the Cauchy–Schwarz bound cannot clear it, each operator's block maxima
    can.  Its Choi matrix would take 6.25 MB, the product's operators 40 kB.
    A layer of such channels, tensored whole, once asked for 57.7 GiB."""
    space = PartitionedSpace.from_dims([0, 1], [2, 3])
    connectivity = Relation.identity(space.sector_labels)
    channel = random_decohered_cpm(connectivity, space, space, rng, ops_per_block=1)
    tracemalloc.start()
    try:
        product = tensor_cpm(channel, channel)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    args = product.kraus_stack, product.route, product.domain, product.codomain
    assert _choi_block_bound(*args) > DEFAULT_TOLERANCE
    assert _operator_block_bound(*args) == 0.0
    assert peak < 2**20
