"""One pairwise algebra for routed maps and routed CP maps: a routed map is
read as a one-operator Kraus stack.  On random pure maps, ``compose``,
``tensor_map``, ``dagger`` and ``relabel`` against the matrix formulas they
replaced, bit for bit, and each against its counterpart on the lifted
channels, exactly."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routedcircuits import relations as rel
from routedcircuits.errors import DomainMismatch
from routedcircuits.relations import IndexSet, Relation
from routedcircuits.routed_cpms import RoutedCPM, lift_pure
from routedcircuits.routed_maps import RoutedMap, compose, dagger, tensor_map
from routedcircuits.sampling import random_matrix_following, random_relation, random_space
from routedcircuits.spaces import PartitionedSpace, tensor_matrix


def random_map(rng, domain, codomain, adjoint: bool) -> RoutedMap:
    """A random routed map; with ``adjoint``, the adjoint of one, whose
    matrix is stored in column-major order."""
    if adjoint:
        domain, codomain = codomain, domain
    route = random_relation(domain.sector_labels, codomain.sector_labels, rng, 0.7)
    op = RoutedMap(route, random_matrix_following(route, domain, codomain, rng), domain, codomain)
    return dagger(op) if adjoint else op


def spaces(rng, count: int):
    return [random_space(rng, max_sectors=3, max_dim=3) for _ in range(count)]


seeds = st.integers(0, 2**32 - 1)


@settings(max_examples=60, deadline=None)
@given(seeds, st.booleans(), st.booleans())
def test_compose(seed, first_adjoint, second_adjoint):
    rng = np.random.default_rng(seed)
    a, b, c = spaces(rng, 3)
    f = random_map(rng, a, b, first_adjoint)
    g = random_map(rng, b, c, second_adjoint)
    composed = compose(g, f)
    assert type(composed) is RoutedMap
    assert np.array_equal(composed.matrix, g.matrix @ f.matrix)
    assert composed.route == rel.compose(g.route, f.route)
    assert lift_pure(composed) == compose(lift_pure(g), lift_pure(f))


@settings(max_examples=60, deadline=None)
@given(seeds, st.booleans())
def test_tensor(seed, adjoint):
    rng = np.random.default_rng(seed)
    a, b, c, d = spaces(rng, 4)
    left, right = random_map(rng, a, b, adjoint), random_map(rng, c, d, False)
    product = tensor_map(left, right)
    expected = tensor_matrix(left.matrix, right.matrix, a, c, b, d)
    assert np.array_equal(product.matrix, expected)
    assert product.route == rel.product(left.route, right.route)
    assert product == left.tensor(right)
    assert lift_pure(product) == tensor_map(lift_pure(left), lift_pure(right))
    assert lift_pure(product) == lift_pure(left).tensor(lift_pure(right))


@settings(max_examples=60, deadline=None)
@given(seeds, st.booleans())
def test_dagger(seed, adjoint):
    rng = np.random.default_rng(seed)
    a, b = spaces(rng, 2)
    op = random_map(rng, a, b, adjoint)
    adjoint_map = dagger(op)
    assert np.array_equal(adjoint_map.matrix, op.matrix.conj().T)
    assert adjoint_map.route == rel.transpose(op.route)
    assert lift_pure(adjoint_map) == dagger(lift_pure(op))


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_relabel(seed):
    rng = np.random.default_rng(seed)
    a, b = spaces(rng, 2)
    op = random_map(rng, a, b, False)
    labels = IndexSet(f"x{i}" for i in range(a.sector_labels.size))
    renamed = PartitionedSpace(labels, a.sector_dims)
    moved = op.relabel(domain=renamed)
    assert np.array_equal(moved.matrix, op.matrix)
    assert moved.route == Relation(renamed.sector_labels, b.sector_labels, op.route.matrix)
    assert (moved.domain, moved.codomain) == (renamed, b)
    assert lift_pure(moved) == lift_pure(op).relabel(domain=renamed)


def test_kraus_stack_is_a_read_only_view_of_the_matrix():
    rng = np.random.default_rng(5)
    a, b = spaces(rng, 2)
    op = random_map(rng, a, b, False)
    assert op.kraus_stack.shape == (1, b.total_dim, a.total_dim)
    assert np.shares_memory(op.kraus_stack, op.matrix)
    assert np.array_equal(op.kraus_stack[0], op.matrix)
    assert not op.kraus_stack.flags.writeable
    with pytest.raises(ValueError):
        op.kraus_stack[0, 0, 0] = 1.0


def test_a_map_never_equals_its_channel():
    space = PartitionedSpace.from_dims([0, 1], [1, 2])
    op = RoutedMap.identity(space)
    channel = lift_pure(op)
    assert isinstance(channel, RoutedCPM)
    assert (op == channel) is False and (channel == op) is False
    assert op == RoutedMap.identity(space) and channel == lift_pure(op)


def test_domain_mismatch_names_the_kind():
    small, large = (PartitionedSpace.trivial(d) for d in (1, 2))
    f, g = RoutedMap.identity(small), RoutedMap.identity(large)
    with pytest.raises(DomainMismatch, match="cannot compose maps"):
        compose(g, f)
    with pytest.raises(DomainMismatch, match="cannot compose channels"):
        compose(lift_pure(g), lift_pure(f))
