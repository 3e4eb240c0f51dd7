"""Routed CP maps: Choi-block route checks, Kraus structure, channel gates."""

from __future__ import annotations

import numpy as np
import pytest

from routedcircuits import relations as rel
from routedcircuits import routed_cpms as rc
from routedcircuits.errors import ImproperComposition, NotFullDecoherence, RouteViolation
from routedcircuits.relations import IndexSet, Relation
from routedcircuits.routed_cpms import (
    RoutedCPM,
    adapted_kraus_decomposition,
    choi_matrix,
    dagger_cpm,
    discard,
    follows_cp,
    is_practically_trace_preserving,
    kraus_follow_diagonal,
    lift_pure,
    tensor_cpm,
)
from routedcircuits.routed_maps import RoutedMap
from routedcircuits.sampling import (
    random_block_diagonal_unitary,
    random_coherent_cpm,
    random_decohered_cpm,
    random_kraus_following,
    random_matrix_following,
    random_relation,
    random_sector_preserving_channel,
    random_space,
    random_unitary,
)
from routedcircuits.spaces import PartitionedSpace, projector, tensor


@pytest.fixture
def small():
    return PartitionedSpace.from_dims([0, 1], [1, 2])


def pinching_channel(space):
    kraus = tuple(projector(space, k) for k in space.sector_labels)
    route = rel.full_decoherence(Relation.identity(space.sector_labels))
    return RoutedCPM(route, kraus, space, space)


class TestFollowsCP:
    def test_unitary_conjugation_follows_full_coherence(self, small, rng):
        u = random_block_diagonal_unitary(small, rng)
        route = rel.full_coherence(u.route)
        assert follows_cp([u.matrix], route, small, small)

    def test_discard_follows_its_route(self, small):
        channel = discard(small)
        assert follows_cp(
            channel.kraus, channel.route, channel.domain, channel.codomain
        )

    def test_pinching_follows_full_decoherence(self, small):
        channel = pinching_channel(small)
        assert follows_cp(channel.kraus, channel.route, small, small)

    def test_coherence_violation_detected(self, small, rng):
        u = random_unitary(3, rng)  # generic: mixes sectors coherently
        route = rel.full_decoherence(Relation.full(small.sector_labels, small.sector_labels))
        assert not follows_cp([u], route, small, small)

    def test_construction_rejects_violations(self, small, rng):
        u = random_unitary(3, rng)
        route = rel.full_decoherence(Relation.full(small.sector_labels, small.sector_labels))
        with pytest.raises(RouteViolation):
            RoutedCPM(route, (u,), small, small)


class TestCompose:
    def test_identity_preserves_choi(self, small, rng):
        channel = random_sector_preserving_channel(small, rng)
        composed = rc.compose(RoutedCPM.identity(small), channel)
        assert np.allclose(composed.choi(), channel.choi(), atol=1e-12)

    def test_route_of_composition_is_relation_composition(self, small, rng):
        for _ in range(10):
            first = random_sector_preserving_channel(small, rng)
            second = random_sector_preserving_channel(small, rng)
            composed = rc.compose(second, first)
            assert composed.route == rel.compose(second.route, first.route)

    def test_copy_then_discard_decoheres(self, rng):
        source = PartitionedSpace.trivial(2)
        bit = PartitionedSpace.from_dims([0, 1], [1, 1])
        bc = tensor(bit, bit)
        copy_rel = Relation.from_pairs(
            source.sector_labels, bc.sector_labels, [("*", (0, 0)), ("*", (1, 1))]
        )
        kraus = random_matrix_following(copy_rel, source, bc, rng)
        copier = RoutedCPM(rel.full_coherence(copy_rel), (kraus,), source, bc)
        second = tensor_cpm(discard(bit), RoutedCPM.identity(bit))
        composed = rc.compose(second, copier)
        # surviving route keeps only equal output sectors
        expected = rel.full_decoherence(
            Relation.full(source.sector_labels, composed.codomain.sector_labels)
        )
        assert composed.route == expected
        # numerically: the output Choi has no coherence between the sectors
        choi = composed.choi().reshape(2, 2, 2, 2)
        assert abs(choi[0, :, 1, :]).max() < 1e-12
        assert abs(choi[1, :, 0, :]).max() < 1e-12


class TestTensor:
    def test_trivial_factor_preserves_choi(self, small, rng):
        channel = random_sector_preserving_channel(small, rng)
        unit = RoutedCPM.identity(PartitionedSpace.trivial())
        lifted = tensor_cpm(channel, unit)
        assert np.allclose(lifted.choi(), channel.choi(), atol=1e-12)

    def test_route_following_by_choi_brute_force(self, rng):
        for _ in range(5):
            a = random_space(rng, max_sectors=2, max_dim=2)
            b = random_space(rng, max_sectors=2, max_dim=2)
            f = random_coherent_cpm(
                random_relation(a.sector_labels, a.sector_labels, rng, 0.7), a, a, rng, 2
            )
            g = random_coherent_cpm(
                random_relation(b.sector_labels, b.sector_labels, rng, 0.7), b, b, rng, 2
            )
            lifted = tensor_cpm(f, g)
            assert follows_cp(lifted.kraus, lifted.route, lifted.domain, lifted.codomain)

    def test_route_following_by_state_reconstruction(self, rng):
        # independent of the Choi-block test: the defining sum over allowed
        # coherence entries must rebuild the channel's action on any state
        from routedcircuits.sampling import random_density

        def reconstruction_residual(channel, rho):
            rebuilt = np.zeros_like(rho, dtype=complex)
            dom, cod = channel.domain, channel.codomain
            for (ki, ki2, li, li2) in np.argwhere(channel.route.matrix):
                k = dom.sector_labels.labels[ki]
                k2 = dom.sector_labels.labels[ki2]
                l = cod.sector_labels.labels[li]
                l2 = cod.sector_labels.labels[li2]
                pinched = np.zeros_like(rho, dtype=complex)
                pinched[dom.sector_slice(k), dom.sector_slice(k2)] = rho[
                    dom.sector_slice(k), dom.sector_slice(k2)
                ]
                moved = channel.apply(pinched)
                kept = np.zeros_like(moved)
                kept[cod.sector_slice(l), cod.sector_slice(l2)] = moved[
                    cod.sector_slice(l), cod.sector_slice(l2)
                ]
                rebuilt += kept
            return np.abs(rebuilt - channel.apply(rho)).max()

        for _ in range(5):
            a = random_space(rng, max_sectors=2, max_dim=2)
            b = random_space(rng, max_sectors=2, max_dim=2)
            f = random_coherent_cpm(
                random_relation(a.sector_labels, a.sector_labels, rng, 0.7), a, a, rng, 2
            )
            g = random_coherent_cpm(
                random_relation(b.sector_labels, b.sector_labels, rng, 0.7), b, b, rng, 2
            )
            lifted = tensor_cpm(f, g)
            for _ in range(3):
                rho = random_density(lifted.domain.total_dim, rng)
                assert reconstruction_residual(lifted, rho) < 1e-9

    def test_parallel_sector_preserving_channels(self, small, rng):
        left = random_sector_preserving_channel(small, rng)
        right = random_sector_preserving_channel(small, rng)
        lifted = tensor_cpm(left, right)
        assert is_practically_trace_preserving(lifted)
        assert rel.diagonal(lifted.route) == Relation.identity(
            tensor(small, small).sector_labels
        )


class TestPracticalTracePreservation:
    def test_unitary_lift(self, small, rng):
        assert is_practically_trace_preserving(
            lift_pure(random_block_diagonal_unitary(small, rng))
        )

    def test_superposition_initializer(self, two_trajectory):
        _, parts = two_trajectory
        encode = lift_pure(parts["encode"])
        assert is_practically_trace_preserving(encode)
        # and the decoder, defined only on the one-particle practical space
        assert is_practically_trace_preserving(lift_pure(parts["decode"]))

    def test_norm_loss_on_practical_sector_fails(self, small):
        route = rel.full_coherence(Relation.identity(small.sector_labels))
        kraus = np.zeros((3, 3), dtype=complex)
        kraus[0, 0] = 1.0
        kraus[1, 1] = 0.5  # loses norm on sector 1
        channel = RoutedCPM(route, (kraus,), small, small)
        assert not is_practically_trace_preserving(channel)


class TestCheckedComposeChannel:
    def test_identity_passes(self, small, rng):
        channel = random_sector_preserving_channel(small, rng)
        composed = rc.checked_compose_channel(RoutedCPM.identity(small), channel)
        assert is_practically_trace_preserving(composed)

    def test_improper_diagonals_rejected(self, rng):
        domain = PartitionedSpace.trivial(1)
        mid = PartitionedSpace.from_dims([0, 1], [1, 1])
        lam = Relation.full(domain.sector_labels, mid.sector_labels)
        from routedcircuits.sampling import random_practical_isometry

        f = lift_pure(random_practical_isometry(lam, domain, mid, rng))
        sigma = Relation(mid.sector_labels, IndexSet.trivial(), np.array([[1], [0]], bool))
        g = RoutedCPM(
            rel.full_coherence(sigma),
            (np.array([[1.0, 0.0]]),),
            mid,
            PartitionedSpace.trivial(1),
        )
        with pytest.raises(ImproperComposition):
            rc.checked_compose_channel(g, f)

    def test_gated_composition_preserves_trace_preservation(self, small, rng):
        for _ in range(10):
            first = random_sector_preserving_channel(small, rng)
            second = random_sector_preserving_channel(small, rng)
            composed = rc.checked_compose_channel(second, first)
            assert is_practically_trace_preserving(composed)


class TestKrausTheorems:
    def test_all_kraus_follow_the_diagonal(self, small, rng):
        for _ in range(10):
            channel = random_sector_preserving_channel(small, rng)
            assert kraus_follow_diagonal(channel)
            decohered = random_decohered_cpm(
                Relation.identity(small.sector_labels), small, small, rng
            )
            assert kraus_follow_diagonal(decohered)

    def test_kraus_following_implies_full_coherence_route(self, small, rng):
        for _ in range(10):
            lam = random_relation(small.sector_labels, small.sector_labels, rng, 0.7)
            kraus = random_kraus_following(lam, small, small, rng)
            assert follows_cp(kraus, rel.full_coherence(lam), small, small)

    def test_violating_kraus_rejected(self, small, rng):
        lam = Relation.identity(small.sector_labels)
        bad = random_unitary(3, rng)  # does not follow the diagonal
        assert not follows_cp([bad], rel.full_coherence(lam), small, small)


class TestAdaptedKraus:
    def test_pinching_gives_one_operator_per_sector(self, small):
        parts = adapted_kraus_decomposition(pinching_channel(small))
        assert [(k, l, len(ops)) for k, l, ops in parts] == [(0, 0, 1), (1, 1, 1)]
        for k, l, ops in parts:
            # the sector projector, up to the eigenvector phase freedom
            assert np.allclose(ops[0].conj().T @ ops[0], projector(small, k))

    def test_random_channels_reconstruct_choi(self, small, rng):
        for _ in range(10):
            channel = random_decohered_cpm(
                Relation.identity(small.sector_labels), small, small, rng
            )
            parts = adapted_kraus_decomposition(channel)
            ops = [op for _, _, group in parts for op in group]
            assert np.abs(choi_matrix(ops) - channel.choi()).max() < 1e-9
            for k, l, group in parts:
                rows = small.sector_slice(l)
                cols = small.sector_slice(k)
                for op in group:
                    outside = op.copy()
                    outside[rows, cols] = 0
                    assert np.abs(outside).max() < 1e-12

    def test_requires_full_decoherence(self, small, rng):
        channel = random_sector_preserving_channel(small, rng)
        with pytest.raises(NotFullDecoherence):
            adapted_kraus_decomposition(channel)


class TestLiftAndDagger:
    def test_lift_of_identity_is_identity_channel(self, small):
        lifted = lift_pure(RoutedMap.identity(small))
        rho = np.arange(9, dtype=complex).reshape(3, 3)
        assert np.allclose(lifted.apply(rho), rho)

    def test_lift_functorial_on_two_trajectories(self, two_trajectory):
        _, parts = two_trajectory
        from routedcircuits.routed_maps import compose as compose_maps
        from routedcircuits.routed_maps import tensor_map

        middle = tensor_map(parts["alice"], parts["bob"])
        pure = compose_maps(parts["decode"], compose_maps(middle, parts["encode"]))
        lifted_of_composite = lift_pure(pure)
        composite_of_lifts = rc.compose(
            lift_pure(parts["decode"]),
            rc.compose(lift_pure(middle), lift_pure(parts["encode"])),
        )
        assert np.allclose(
            lifted_of_composite.choi(), composite_of_lifts.choi(), atol=1e-12
        )

    def test_dagger_transposes_route(self, small, rng):
        channel = random_sector_preserving_channel(small, rng)
        flipped = dagger_cpm(channel)
        assert flipped.route == rel.transpose(channel.route)
        assert np.allclose(flipped.kraus[0], channel.kraus[0].conj().T)


class TestDiscard:
    def test_discard_is_trace(self, small, rng):
        channel = discard(small)
        rho = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.allclose(channel.apply(rho), np.trace(rho))

    def test_discard_after_channel_is_trace_functional(self, small, rng):
        upstream = random_sector_preserving_channel(small, rng)
        composed = rc.compose(discard(small), upstream)
        rho = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.allclose(composed.apply(rho), np.trace(rho), atol=1e-12)


def test_equality_compares_kraus_stacks_in_order(rng):
    """``==`` is representation equality: the same channel with its two
    operators swapped has the same Choi matrix and compares unequal."""
    channel = random_sector_preserving_channel(PartitionedSpace.from_dims([0, 1], [1, 2]), rng, 2)
    swapped = RoutedCPM(channel.route, channel.kraus_stack[::-1], channel.domain, channel.codomain)
    assert np.allclose(choi_matrix(swapped.kraus_stack), choi_matrix(channel.kraus_stack))
    assert not np.array_equal(swapped.kraus_stack, channel.kraus_stack)
    assert swapped != channel
    assert RoutedCPM(channel.route, channel.kraus_stack, channel.domain, channel.codomain) == channel
