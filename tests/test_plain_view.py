"""One plain view of every route: a plain route is its own, a coherence
route's is its diagonal.  On random maps and channels, the one
certification and the one gate, which read that view, against the
per-kind formulas they replaced."""

from __future__ import annotations

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from routedcircuits import relations as rel
from routedcircuits.routed_cpms import is_practically_trace_preserving, lift_pure
from routedcircuits.routed_maps import RoutedMap, is_practical_isometry
from routedcircuits.sampling import (
    random_coherent_cpm,
    random_decohered_cpm,
    random_matrix_following,
    random_practical_isometry,
    random_relation,
    random_sector_preserving_channel,
    random_space,
)
from routedcircuits.spaces import subset_projector

seeds = st.integers(0, 2**32 - 1)
tolerances = st.sampled_from([None, 1e-6, 0.5, 2.0])


def map_deviation(m: RoutedMap) -> float:
    """The map formula: ``p M† M p`` against ``p``."""
    p = subset_projector(m.domain, rel.practical_input_set(m.route))
    return float(np.abs(p @ m.matrix.conj().T @ m.matrix @ p - p).max(initial=0.0))


def channel_deviation(channel) -> float:
    """The channel formula: ``p (Σ K†K) p`` against ``p``, on the diagonal's
    practical input space."""
    p = subset_projector(channel.domain, rel.practical_input_set(rel.diagonal(channel.route)))
    flat = channel.kraus_stack.reshape(-1, channel.domain.total_dim)
    return float(np.abs(p @ (flat.conj().T @ flat) @ p - p).max(initial=0.0))


def verdict(deviation: float, op, tol) -> bool:
    tol = op.tolerance if tol is None else tol
    assume(abs(deviation - tol) > 1e-12)
    return deviation <= tol


def random_map(rng, isometry: bool) -> RoutedMap:
    domain, codomain = (random_space(rng, max_sectors=3, max_dim=3) for _ in range(2))
    route = random_relation(domain.sector_labels, codomain.sector_labels, rng, 0.6)
    if isometry:
        op = random_practical_isometry(route, domain, codomain, rng)
        assume(op is not None)
        return op
    matrix = random_matrix_following(route, domain, codomain, rng)
    return RoutedMap(route, matrix, domain, codomain)


@settings(max_examples=80, deadline=None)
@given(seeds, st.booleans(), tolerances)
def test_a_map_and_its_lift_certify_alike(seed, isometry, tol):
    m = random_map(np.random.default_rng(seed), isometry)
    expected = verdict(map_deviation(m), m, tol)
    assert is_practical_isometry(m, tol) == expected
    assert is_practical_isometry(lift_pure(m), tol) == expected


@settings(max_examples=80, deadline=None)
@given(seeds, st.sampled_from(["coherent", "decohered", "trace preserving", "sectors"]), tolerances)
def test_a_channel_certifies_by_the_channel_formula(seed, kind, tol):
    rng = np.random.default_rng(seed)
    domain, codomain = (random_space(rng, max_sectors=3, max_dim=2) for _ in range(2))
    connectivity = random_relation(domain.sector_labels, codomain.sector_labels, rng, 0.6)
    if kind == "coherent":
        channel = random_coherent_cpm(connectivity, domain, codomain, rng)
    elif kind == "sectors":
        channel = random_sector_preserving_channel(domain, rng)
    else:
        channel = random_decohered_cpm(
            connectivity, domain, codomain, rng, trace_preserving=kind == "trace preserving"
        )
    expected = verdict(channel_deviation(channel), channel, tol)
    assert is_practically_trace_preserving(channel, tol) == expected


@settings(max_examples=80, deadline=None)
@given(seeds)
def test_the_gate_reads_plain_views(seed):
    rng = np.random.default_rng(seed)
    a, b, c = (random_space(rng, max_sectors=4).sector_labels for _ in range(3))
    first, second = random_relation(a, b, rng), random_relation(b, c, rng)
    for route in (first, second):
        assert rel.diagonal(route) is route
        assert rel.diagonal_view(route) is route.matrix
    expected = rel.escaped(first, second)
    for lift in (rel.full_coherence, rel.full_decoherence):
        assert rel.escaped(lift(first), lift(second)) == expected
        assert rel.escaped(lift(first), second) == expected
    assert rel.is_proper_for_channels(
        rel.full_coherence(first), rel.full_decoherence(second)
    ) == rel.is_proper_for_isometries(first, second)
