"""Routed CP maps keep their Kraus operators as one stacked array; every
whole-stack computation against the per-operator loop it replaced."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routedcircuits import relations as rel
from routedcircuits.errors import ShapeMismatch
from routedcircuits.routed_cpms import (
    RoutedCPM,
    apply_channel,
    compose,
    is_practically_trace_preserving,
    kraus_follow_diagonal,
    tensor_cpm,
)
from routedcircuits.routed_maps import follows
from routedcircuits.sampling import (
    random_coherent_cpm,
    random_density,
    random_relation,
    random_space,
)
from routedcircuits.spaces import subset_projector, tensor_matrix

EPS = np.finfo(float).eps


def random_channel(seed: int, count: int) -> RoutedCPM:
    rng = np.random.default_rng(seed)
    domain = random_space(rng, max_sectors=3, max_dim=2)
    codomain = random_space(rng, max_sectors=3, max_dim=2)
    route = random_relation(domain.sector_labels, codomain.sector_labels, rng, 0.7)
    return random_coherent_cpm(route, domain, codomain, rng, count)


def gram_by_operators(channel: RoutedCPM) -> np.ndarray:
    return sum(k.conj().T @ k for k in channel.kraus)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.floats(0.2, 3.0))
def test_trace_preservation_verdict_follows_the_per_operator_gram(seed, count, factor):
    """The verdict flips exactly where the per-operator Gram matrix puts it:
    just above and just below the deviation it gives."""
    channel = random_channel(seed, count)
    scaled = RoutedCPM(
        channel.route, channel.kraus_stack * factor, channel.domain, channel.codomain
    )
    p = subset_projector(
        scaled.domain, rel.practical_input_set(rel.diagonal(scaled.route))
    )
    deviation = float(np.abs(p @ gram_by_operators(scaled) @ p - p).max(initial=0.0))
    if deviation < 1e-6:
        return
    assert is_practically_trace_preserving(scaled, tol=deviation * (1 + 1e-9))
    assert not is_practically_trace_preserving(scaled, tol=deviation * (1 - 1e-9))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8))
def test_apply_channel_matches_the_per_operator_sum(seed, count):
    channel = random_channel(seed, count)
    rho = random_density(channel.domain.total_dim, np.random.default_rng(seed))
    want = sum(k @ rho @ k.conj().T for k in channel.kraus)
    # every entry sums count * d_in^2 products of entries at most 1 in size
    d = channel.domain.total_dim
    scale = float(np.abs(channel.kraus_stack).max()) ** 2
    bound = 4 * count * d * d * EPS * scale
    assert np.abs(channel.apply(rho) - want).max() <= bound
    assert np.abs(apply_channel(list(channel.kraus), rho) - want).max() <= bound


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.sampled_from([0.0, 1e-12, 1e-6, 1.0]))
def test_stacked_route_check_is_every_operator_check(seed, count, noise):
    """``follows`` on a stack holds exactly when it holds for each operator,
    here with noise of several sizes on a few entries of some operators."""
    channel = random_channel(seed, count)
    rng = np.random.default_rng(seed)
    stack = channel.kraus_stack.copy()
    hits = rng.integers(0, stack.size, size=int(rng.integers(0, 3)))
    stack.reshape(-1)[hits] += noise
    diag = rel.diagonal(channel.route)
    spaces = (channel.domain, channel.codomain)
    assert follows(stack, diag, *spaces) == all(follows(k, diag, *spaces) for k in stack)
    assert kraus_follow_diagonal(channel)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 3))
def test_compose_and_tensor_keep_the_operator_order(seed, count_a, count_b):
    """Stacked products against the pairwise loops: ``second``'s (or
    ``left``'s) operator index outermost."""
    rng = np.random.default_rng(seed)
    first = random_channel(seed, count_a)
    route = random_relation(first.codomain.sector_labels, first.codomain.sector_labels, rng, 0.7)
    second = random_coherent_cpm(route, first.codomain, first.codomain, rng, count_b)
    composed = compose(second, first)
    pairs = np.array([l @ k for l in second.kraus for k in first.kraus])
    d = first.codomain.total_dim
    scale = float(np.abs(first.kraus_stack).max() * np.abs(second.kraus_stack).max())
    assert composed.kraus_stack.shape == pairs.shape
    assert np.abs(composed.kraus_stack - pairs).max() <= 4 * d * EPS * scale

    product = tensor_cpm(first, second)
    spaces = (first.domain, second.domain, first.codomain, second.codomain)
    pairs = np.array([tensor_matrix(a, b, *spaces) for a in first.kraus for b in second.kraus])
    assert np.array_equal(product.kraus_stack, pairs)


def test_kraus_are_read_only_views_of_a_private_stack():
    channel = random_channel(3, 3)
    given_stack = np.array(channel.kraus_stack)
    copy = RoutedCPM(channel.route, given_stack, channel.domain, channel.codomain)
    given_stack[:] = 0
    assert np.array_equal(copy.kraus_stack, channel.kraus_stack)
    assert isinstance(copy.kraus, np.ndarray) and len(copy.kraus) == 3
    for i, k in enumerate(copy.kraus):
        assert np.shares_memory(k, copy.kraus_stack) and not k.flags.writeable
        assert np.array_equal(k, copy.kraus_stack[i])
    with pytest.raises(ValueError):
        copy.kraus_stack[0, 0, 0] = 1.0


def test_operators_of_different_shapes_are_rejected():
    channel = random_channel(4, 1)
    operator = channel.kraus[0]
    spaces = (channel.domain, channel.codomain)
    with pytest.raises(ShapeMismatch):
        RoutedCPM(channel.route, (operator, operator[:, :-1]), *spaces)
    with pytest.raises(ShapeMismatch):
        RoutedCPM(channel.route, (), *spaces)
    with pytest.raises(ShapeMismatch):
        RoutedCPM(channel.route, operator, *spaces)
