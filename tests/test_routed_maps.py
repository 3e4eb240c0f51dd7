"""Routed linear maps: route-following, closure, practicality, gated composition."""

from __future__ import annotations

import numpy as np
import pytest

from routedcircuits import relations as rel
from routedcircuits import routed_maps as rmap
from routedcircuits.errors import DomainMismatch, ImproperComposition, RouteViolation
from routedcircuits.relations import IndexSet, Relation
from routedcircuits.routed_maps import (
    RoutedMap,
    checked_compose,
    dagger,
    follows,
    is_practical_isometry,
    is_practical_unitary,
    tensor_map,
)
from routedcircuits.sampling import (
    random_block_diagonal_unitary,
    random_matrix_following,
    random_practical_isometry,
    random_practical_unitary,
    random_relation,
    random_space,
)
from routedcircuits.spaces import PartitionedSpace

from conftest import sample_practical_isometry, sample_routed_map
from reconstruction_oracle import follows_by_reconstruction


@pytest.fixture
def small():
    return PartitionedSpace.from_dims([0, 1], [1, 2])


class TestFollows:
    def test_anything_follows_full_route(self, small, rng):
        matrix = rng.standard_normal((3, 3))
        full = Relation.full(small.sector_labels, small.sector_labels)
        assert follows(matrix, full, small, small)

    def test_block_diagonal_follows_delta(self, small, rng):
        block = random_block_diagonal_unitary(small, rng)
        assert follows(block.matrix, Relation.identity(small.sector_labels), small, small)

    def test_single_block_matrix(self, small):
        matrix = np.zeros((3, 3), dtype=complex)
        matrix[0, 1] = 1.0  # only the sector-1 -> sector-0 block
        lower = Relation(small.sector_labels, small.sector_labels, np.array([[0, 0], [1, 0]], bool))
        assert follows(matrix, lower, small, small)
        assert not follows(matrix, Relation.identity(small.sector_labels), small, small)

    def test_agrees_with_reconstruction_form(self, rng):
        for _ in range(60):
            domain = random_space(rng)
            codomain = random_space(rng)
            route = random_relation(domain.sector_labels, codomain.sector_labels, rng)
            matrix = rng.standard_normal((codomain.total_dim, domain.total_dim))
            probe = random_relation(domain.sector_labels, codomain.sector_labels, rng, 0.7)
            matrix = random_matrix_following(probe, domain, codomain, rng)
            assert follows(matrix, route, domain, codomain) == follows_by_reconstruction(
                matrix, route, domain, codomain
            )

    def test_construction_rejects_violations(self, small, rng):
        matrix = rng.standard_normal((3, 3)) + 1.0  # dense, misses no block
        with pytest.raises(RouteViolation):
            RoutedMap(Relation.identity(small.sector_labels), matrix, small, small)


class TestCompose:
    def test_identity_neutral(self, small, rng):
        f = sample_routed_map(small, small, rng)
        ident = RoutedMap.identity(small)
        assert np.allclose(rmap.compose(ident, f).matrix, f.matrix)
        assert rmap.compose(ident, f).route == f.route

    def test_requires_equal_spaces(self, small, rng):
        f = sample_routed_map(small, small, rng)
        other = PartitionedSpace.from_dims([0, 1], [2, 1])
        g = sample_routed_map(other, other, rng)
        with pytest.raises(DomainMismatch):
            rmap.compose(g, f)

    def test_two_trajectory_pipeline_route(self, two_trajectory):
        _, parts = two_trajectory
        middle = tensor_map(parts["alice"], parts["bob"])
        whole = rmap.compose(parts["decode"], rmap.compose(middle, parts["encode"]))
        assert whole.route == Relation.full(
            parts["mc"].sector_labels, parts["mc"].sector_labels
        )
        assert is_practical_unitary(whole)

    def test_composition_follows_composed_route(self, rng):
        for _ in range(30):
            f = sample_practical_isometry(rng)
            g_space = f.codomain
            route = random_relation(
                g_space.sector_labels, random_space(rng).sector_labels, rng, 0.7
            )
            g = RoutedMap(
                route,
                random_matrix_following(
                    route, g_space, PartitionedSpace(route.codomain, [1] * route.codomain.size), rng
                ),
                g_space,
                PartitionedSpace(route.codomain, [1] * route.codomain.size),
            )
            composed = rmap.compose(g, f)
            assert follows(
                composed.matrix,
                rel.compose(g.route, f.route),
                composed.domain,
                composed.codomain,
                1e-9,
            )


class TestTensor:
    def test_trivial_identity_neutral_on_coordinates(self, small, rng):
        f = sample_routed_map(small, small, rng)
        unit = RoutedMap.identity(PartitionedSpace.trivial())
        lifted = tensor_map(f, unit)
        assert np.allclose(lifted.matrix, f.matrix)

    def test_middle_layer_of_two_trajectories(self, two_trajectory):
        _, parts = two_trajectory
        middle = tensor_map(parts["alice"], parts["bob"])
        assert middle.route == Relation.identity(parts["ab"].sector_labels)
        assert middle.domain == parts["ab"]

    def test_route_following_brute_force(self, rng):
        for _ in range(20):
            f = sample_routed_map(random_space(rng), random_space(rng), rng)
            g = sample_routed_map(random_space(rng), random_space(rng), rng)
            lifted = tensor_map(f, g)
            assert follows_by_reconstruction(
                lifted.matrix, lifted.route, lifted.domain, lifted.codomain, 1e-9
            )


class TestDagger:
    def test_involution(self, small, rng):
        f = sample_routed_map(small, small, rng)
        assert dagger(dagger(f)) == f

    def test_delta_routed_unitary(self, small, rng):
        u = random_block_diagonal_unitary(small, rng)
        assert dagger(u).route == Relation.identity(small.sector_labels)

    def test_two_trajectory_encoder_dagger(self, two_trajectory):
        _, parts = two_trajectory
        flipped = dagger(parts["encode"])
        assert flipped.route == rel.transpose(parts["omega"])
        assert rel.practical_input_set(flipped.route) == {(0, 1), (1, 0)}


class TestPracticality:
    def test_delta_routed_unitary_is_practical_unitary(self, small, rng):
        assert is_practical_unitary(random_block_diagonal_unitary(small, rng))

    def test_two_trajectory_encoder(self, two_trajectory):
        _, parts = two_trajectory
        assert is_practical_unitary(parts["encode"])

    def test_zero_on_practical_sector_fails(self, small):
        route = Relation.identity(small.sector_labels)
        matrix = np.zeros((3, 3), dtype=complex)
        matrix[0, 0] = 1.0  # sector 1 is practical but killed
        f = RoutedMap(route, matrix, small, small)
        assert not is_practical_isometry(f)

    def test_strict_isometry_is_not_practical_unitary(self):
        domain = PartitionedSpace.trivial(1)
        codomain = PartitionedSpace.trivial(2)
        route = Relation.full(domain.sector_labels, codomain.sector_labels)
        f = RoutedMap(route, np.array([[1.0], [0.0]]), domain, codomain)
        assert is_practical_isometry(f)
        assert not is_practical_unitary(f)


class TestCheckedCompose:
    def test_two_trajectory_pipeline_gated(self, two_trajectory):
        _, parts = two_trajectory
        middle = tensor_map(parts["alice"], parts["bob"])
        step = checked_compose(middle, parts["encode"], mode="unitary")
        whole = checked_compose(parts["decode"], step, mode="unitary")
        assert is_practical_unitary(whole)

    def test_identity_always_passes(self, small, rng):
        u = random_block_diagonal_unitary(small, rng)
        checked_compose(RoutedMap.identity(small), u, mode="unitary")

    def test_improper_pair_rejected_with_witness(self, rng):
        domain = PartitionedSpace.trivial(1)
        mid = PartitionedSpace.from_dims([0, 1], [1, 1])
        lam = Relation.full(domain.sector_labels, mid.sector_labels)
        f = random_practical_isometry(lam, domain, mid, rng)
        sigma = Relation(mid.sector_labels, IndexSet.trivial(), np.array([[1], [0]], bool))
        g = RoutedMap(sigma, np.array([[1.0, 0.0]]), mid, PartitionedSpace.trivial(1))
        with pytest.raises(ImproperComposition) as err:
            checked_compose(g, f, mode="isometry")
        assert err.value.witness == (1,)
        # ungated composition still works
        rmap.compose(g, f)
        checked_compose(g, f, mode="none")

    def test_gate_failure_lists_output_side(self, rng):
        domain = PartitionedSpace.trivial(1)
        mid = PartitionedSpace.from_dims([0, 1], [1, 1])
        lam = Relation(domain.sector_labels, mid.sector_labels, np.array([[1, 0]], bool))
        f = random_practical_isometry(lam, domain, mid, rng)
        sigma = Relation.full(mid.sector_labels, IndexSet.trivial())
        g = random_practical_isometry(sigma, mid, PartitionedSpace.trivial(2), rng)
        checked_compose(g, f, mode="isometry")
        with pytest.raises(ImproperComposition) as err:
            checked_compose(g, f, mode="unitary")
        assert err.value.side == "output"


class TestClosureTheorems:
    def test_gated_sequential_composition_of_practical_isometries(self, rng):
        produced = 0
        while produced < 40:
            f = sample_practical_isometry(rng)
            sigma = random_relation(
                f.codomain.sector_labels, IndexSet(range(int(rng.integers(1, 4)))), rng, 0.6
            )
            if not rel.is_proper_for_isometries(f.route, sigma):
                continue
            codomain = random_space(rng, labels=list(sigma.codomain.labels))
            g = random_practical_isometry(sigma, f.codomain, codomain, rng)
            if g is None:
                continue
            composed = checked_compose(g, f, mode="isometry")
            assert is_practical_isometry(composed)
            produced += 1

    def test_gated_sequential_composition_of_practical_unitaries(self, rng):
        produced = 0
        while produced < 25:
            domain = random_space(rng)
            mid = random_space(rng)
            lam = random_relation(domain.sector_labels, mid.sector_labels, rng, 0.6)
            f = random_practical_unitary(lam, domain, mid, rng)
            if f is None:
                continue
            codomain = random_space(rng)
            sigma = random_relation(mid.sector_labels, codomain.sector_labels, rng, 0.6)
            if not rel.is_proper_for_unitaries(lam, sigma):
                continue
            g = random_practical_unitary(sigma, mid, codomain, rng)
            if g is None:
                continue
            composed = checked_compose(g, f, mode="unitary")
            assert is_practical_unitary(composed)
            produced += 1

    def test_parallel_composition_of_practical_isometries(self, rng):
        for _ in range(25):
            f = sample_practical_isometry(rng)
            g = sample_practical_isometry(rng)
            assert is_practical_isometry(tensor_map(f, g))
