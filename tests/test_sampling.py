"""The samplers and the adapted Kraus decomposition against the label-loop
writers of ``sampling_oracle``: the same random draws in the same order,
so the same arrays bit for bit; and the trace-preserving decohered
sampler's check of the dimensions it can reach."""

from __future__ import annotations

import numpy as np
import pytest

from routedcircuits import sampling
from routedcircuits.relations import Relation
from routedcircuits.routed_cpms import adapted_kraus_decomposition, is_practically_trace_preserving
from routedcircuits.sampling import random_relation, random_space
from routedcircuits.spaces import PartitionedSpace

import sampling_oracle

SEEDS = range(500)


def drawn_bytes(value) -> bytes | None:
    """A sampled array, or a sampled map's or channel's operators, as bytes."""
    if value is None or isinstance(value, np.ndarray):
        return None if value is None else value.tobytes()
    return value.kraus_stack.tobytes()


def same_draws(name: str, *args, seed: int, **kwargs) -> bytes | None:
    """Run the sampler and its oracle on generators of one seed; assert
    they give the same bytes and leave their generators in one state."""
    rngs = [np.random.default_rng(seed) for _ in range(2)]
    got = drawn_bytes(getattr(sampling, name)(*args, rngs[0], **kwargs))
    want = drawn_bytes(getattr(sampling_oracle, name)(*args, rngs[1], **kwargs))
    assert got == want, (name, seed)
    assert rngs[0].random() == rngs[1].random(), (name, seed)
    return got


def routed_spaces(seed: int, max_sectors: int = 4, max_dim: int = 3):
    rng = np.random.default_rng([seed, 1])
    domain, codomain = (random_space(rng, max_sectors, max_dim) for _ in range(2))
    route = random_relation(domain.sector_labels, codomain.sector_labels, rng, rng.random())
    return route, domain, codomain


def trace_preservable(route: Relation, domain, codomain, ops_per_block: int) -> bool:
    reach = ops_per_block * (route.matrix @ np.array(codomain.sector_dims))
    return all(d <= r for d, r, on in zip(domain.sector_dims, reach, route.matrix.any(1)) if on)


def test_matrices_and_coherent_channels():
    for seed in SEEDS:
        args = routed_spaces(seed)
        same_draws("random_matrix_following", *args, seed=seed, scale=0.7)
        same_draws("random_coherent_cpm", *args, seed=seed, count=2)


def test_decohered_channels_with_and_without_trace_preservation():
    preserved = 0
    for seed in SEEDS:
        args = routed_spaces(seed)
        for ops in (1, 2):
            same_draws("random_decohered_cpm", *args, seed=seed, ops_per_block=ops)
            if trace_preservable(*args, ops):
                preserved += 1
                kwargs = dict(ops_per_block=ops, trace_preserving=True)
                same_draws("random_decohered_cpm", *args, seed=seed, **kwargs)
    assert preserved > len(SEEDS)


def test_block_diagonal_unitaries_and_sector_preserving_channels():
    for seed in SEEDS:
        _, space, _ = routed_spaces(seed)
        same_draws("random_block_diagonal_unitary", space, seed=seed)
        same_draws("random_sector_preserving_channel", space, seed=seed, count=3)


def test_practical_isometries_and_unitaries():
    """Small spaces, so that both samplers often succeed and often give None."""
    results = {"random_practical_isometry": [], "random_practical_unitary": []}
    for seed in SEEDS:
        args = routed_spaces(seed, max_sectors=3, max_dim=2)
        for name, got in results.items():
            got.append(same_draws(name, *args, seed=seed) is None)
    for name, nones in results.items():
        assert 0 < sum(nones) < len(nones), name


def test_adapted_kraus_decompositions():
    for seed in SEEDS:
        route, domain, codomain = routed_spaces(seed)
        channel = sampling.random_decohered_cpm(
            route, domain, codomain, np.random.default_rng(seed), ops_per_block=3
        )
        got = adapted_kraus_decomposition(channel)
        want = sampling_oracle.adapted_kraus_decomposition(channel)
        assert [(k, l) for k, l, _ in got] == [(k, l) for k, l, _ in want]
        for (_, _, ops), (_, _, reference) in zip(got, want):
            assert [op.tobytes() for op in ops] == [op.tobytes() for op in reference]


class TestTracePreservingReach:
    """An input sector of dimension 3 sent to one output sector of dimension 1."""

    WIDE = PartitionedSpace.from_dims(["in"], [3])
    NARROW = PartitionedSpace.from_dims(["out"], [1])
    ROUTE = Relation.full(WIDE.sector_labels, NARROW.sector_labels)

    @pytest.mark.parametrize("ops_per_block", [0, 1, 2])
    def test_too_few_operators_are_refused_before_any_draw(self, ops_per_block):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match=rf"'in' has dimension 3.* only {ops_per_block} "):
            sampling.random_decohered_cpm(
                self.ROUTE, self.WIDE, self.NARROW, rng, ops_per_block, trace_preserving=True
            )
        assert rng.random() == np.random.default_rng(0).random()

    def test_enough_operators_preserve_trace(self):
        rng = np.random.default_rng(0)
        channel = sampling.random_decohered_cpm(
            self.ROUTE, self.WIDE, self.NARROW, rng, 3, trace_preserving=True
        )
        assert len(channel.kraus_stack) == 3
        assert is_practically_trace_preserving(channel)

    def test_unconnected_sectors_need_no_reach(self):
        domain = PartitionedSpace.from_dims(["in", "idle"], [1, 3])
        labels = domain.sector_labels, self.NARROW.sector_labels
        route = Relation.from_pairs(*labels, [("in", "out")])
        channel = sampling.random_decohered_cpm(
            route, domain, self.NARROW, np.random.default_rng(0), 1, trace_preserving=True
        )
        assert is_practically_trace_preserving(channel)
