"""The sector layout of partitioned spaces and what is built on it: the
canonical tensor order, the block-maxima route checks and the wire
permutations, each against a written-out reference."""

from __future__ import annotations

import itertools
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from routedcircuits import CircuitBuilder
from routedcircuits.circuits import _contracted, _interface_space, _run
from routedcircuits.errors import RouteViolation, UnknownLabel
from routedcircuits.relations import CPRelation, Relation
from routedcircuits.routed_cpms import RoutedCPM, _choi_block_excess, choi_matrix, follows_cp
from routedcircuits.routed_maps import (
    DEFAULT_TOLERANCE,
    RoutedMap,
    _forbidden_block_excess,
    follows,
)
from routedcircuits.sampling import random_space
from routedcircuits.spaces import PartitionedSpace, kron_to_canonical, tensor, tensor_many

from reconstruction_oracle import follows_by_reconstruction

# magnitudes put on blocks: exactly zero, below, near and far above the tolerance
SCALES = (0.0, 1e-12, 1e-9, 1e-6, 1.0)


def bounds(space: PartitionedSpace) -> list[slice]:
    """The coordinate range of each sector, from the dimensions alone."""
    ends = np.cumsum(space.sector_dims)
    return [slice(int(end - dim), int(end)) for end, dim in zip(ends, space.sector_dims)]


@st.composite
def spaces(draw, max_sectors: int = 3, max_dim: int = 3) -> PartitionedSpace:
    dims = draw(st.lists(st.integers(1, max_dim), min_size=1, max_size=max_sectors))
    return PartitionedSpace.from_dims([f"s{i}" for i in range(len(dims))], dims)


def bool_array(draw, shape) -> np.ndarray:
    flat = draw(st.lists(st.booleans(), min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
    return np.array(flat, dtype=bool).reshape(shape)


def block_weighted(draw, rng, domain: PartitionedSpace, codomain: PartitionedSpace) -> np.ndarray:
    """A complex matrix whose every sector block has its own drawn scale."""
    matrix = rng.standard_normal((codomain.total_dim, domain.total_dim)) + 1j * rng.standard_normal(
        (codomain.total_dim, domain.total_dim)
    )
    for rows in bounds(codomain):
        for cols in bounds(domain):
            matrix[rows, cols] *= draw(st.sampled_from(SCALES))
    return matrix


# -- the sector layout ------------------------------------------------------------


class TestSectorLayout:
    @settings(max_examples=100, deadline=None)
    @given(spaces(max_sectors=5))
    def test_offsets_index_and_ranges_agree(self, space):
        assert isinstance(space.sector_offsets, tuple)
        assert [(r.start, r.stop) for r in bounds(space)] == [
            (space.sector_slice(k).start, space.sector_slice(k).stop) for k in space.sector_labels
        ]
        index = space.sector_index
        assert index.shape == (space.total_dim,)
        for position, rows in enumerate(bounds(space)):
            assert (index[rows] == position).all()
        labels = space.sector_labels.labels
        assert [space.sector_of_coordinate(c) for c in range(space.total_dim)] == [
            labels[i] for i in index
        ]

    @pytest.mark.parametrize("coord", [-1, 3, -4, 10])
    def test_coordinates_outside_the_space_are_unknown(self, coord):
        space = PartitionedSpace.from_dims([0, 1], [1, 2])
        with pytest.raises(UnknownLabel):
            space.sector_of_coordinate(coord)


# -- the canonical tensor order -------------------------------------------------------


def binary_order_by_loops(left: PartitionedSpace, right: PartitionedSpace) -> np.ndarray:
    """``perm[i * dim(right) + j]``: canonical coordinate of ``e_i (x) e_j``,
    walking the sector pairs in row-major order."""
    dim_r = right.total_dim
    perm = np.empty(left.total_dim * dim_r, dtype=np.intp)
    offset = 0
    for lrows in bounds(left):
        for rrows in bounds(right):
            rdim = rrows.stop - rrows.start
            for a in range(lrows.stop - lrows.start):
                row = (lrows.start + a) * dim_r + rrows.start
                perm[row : row + rdim] = offset + a * rdim + np.arange(rdim)
            offset += (lrows.stop - lrows.start) * rdim
    return perm


class TestCanonicalOrder:
    @settings(max_examples=100, deadline=None)
    @given(spaces(), spaces())
    def test_binary_order_matches_the_loops(self, left, right):
        assert np.array_equal(kron_to_canonical(left, right), binary_order_by_loops(left, right))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(spaces(), min_size=1, max_size=4))
    def test_nary_order_is_a_left_fold_of_the_binary_one(self, factors):
        space = factors[0]
        perm = np.arange(space.total_dim)
        for nxt in factors[1:]:
            step = binary_order_by_loops(space, nxt)
            d = nxt.total_dim
            perm = step[(perm[:, None] * d + np.arange(d)[None, :]).ravel()]
            space = tensor(space, nxt)
        assert np.array_equal(kron_to_canonical(*factors), perm)
        assert tensor_many(factors).sector_dims == space.sector_dims

    def test_no_factors_give_the_one_coordinate(self):
        assert kron_to_canonical().tolist() == [0]

    @settings(max_examples=100, deadline=None)
    @given(spaces(max_sectors=5, max_dim=4))
    def test_one_factor_is_the_identity(self, space):
        """``sector_index`` is non-decreasing, so a box on one wire each way
        uses its matrix as it is."""
        assert np.array_equal(kron_to_canonical(space), np.arange(space.total_dim))


# -- the route checks ---------------------------------------------------------------


def map_excess_by_blocks(matrix, route: Relation, domain, codomain) -> float:
    worst = 0.0
    for k, cols in zip(domain.sector_labels, bounds(domain)):
        for l, rows in zip(codomain.sector_labels, bounds(codomain)):
            if not route.relates(k, l):
                worst = max(worst, float(np.abs(matrix[rows, cols]).max()))
    return worst


def choi_excess_by_blocks(kraus, route: CPRelation, domain, codomain) -> float:
    d_in, d_out = domain.total_dim, codomain.total_dim
    choi = choi_matrix(kraus).reshape(d_out, d_in, d_out, d_in)
    ins, outs = bounds(domain), bounds(codomain)
    worst = 0.0
    for ki, ki2, li, li2 in np.argwhere(~route.matrix):
        block = choi[outs[li], ins[ki], outs[li2], ins[ki2]]
        worst = max(worst, float(np.abs(block).max()))
    return worst


class TestMapRouteCheck:
    @settings(max_examples=300, deadline=None)
    @given(spaces(), spaces(), st.data())
    def test_matches_reconstruction_and_block_maxima(self, domain, codomain, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        route = Relation(
            domain.sector_labels,
            codomain.sector_labels,
            bool_array(data.draw, (domain.sector_labels.size, codomain.sector_labels.size)),
        )
        matrix = block_weighted(data.draw, rng, domain, codomain)
        excess = map_excess_by_blocks(matrix, route, domain, codomain)
        assert _forbidden_block_excess(matrix, route, domain, codomain) == excess
        verdict = excess <= DEFAULT_TOLERANCE
        assert follows(matrix, route, domain, codomain) == verdict
        assert follows_by_reconstruction(matrix, route, domain, codomain) == verdict
        if verdict:
            RoutedMap(route, matrix, domain, codomain)
        else:
            with pytest.raises(RouteViolation, match=re.escape(f"weight {excess:.3e} ")):
                RoutedMap(route, matrix, domain, codomain)


def cp_route(booleans, domain: PartitionedSpace, codomain: PartitionedSpace) -> CPRelation:
    """A symmetric, diagonally dominant route: a connectivity and a subset
    of the coherences it allows, taken from ``booleans(shape)``."""
    n_in, n_out = domain.sector_labels.size, codomain.sector_labels.size
    connectivity = booleans((n_in, n_out))
    coherent = booleans((n_in, n_in, n_out, n_out))
    matrix = coherent & coherent.transpose(1, 0, 3, 2)
    matrix &= connectivity[:, None, :, None] & connectivity[None, :, None, :]
    for k, l in itertools.product(range(n_in), range(n_out)):
        matrix[k, k, l, l] = connectivity[k, l]
    return CPRelation(domain.sector_labels, codomain.sector_labels, matrix)


class TestChoiRouteCheck:
    @settings(max_examples=200, deadline=None)
    @given(spaces(max_dim=2), spaces(max_dim=2), st.integers(1, 3), st.data())
    def test_matches_forbidden_block_maxima(self, domain, codomain, count, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        route = cp_route(lambda shape: bool_array(data.draw, shape), domain, codomain)
        kraus = [block_weighted(data.draw, rng, domain, codomain) for _ in range(count)]
        excess = choi_excess_by_blocks(kraus, route, domain, codomain)
        assert _choi_block_excess(kraus, route, domain, codomain) == excess
        verdict = excess <= DEFAULT_TOLERANCE
        assert follows_cp(kraus, route, domain, codomain) == verdict
        if verdict:
            RoutedCPM(route, tuple(kraus), domain, codomain)
        else:
            with pytest.raises(RouteViolation, match=re.escape(f"weight {excess:.3e} ")):
                RoutedCPM(route, tuple(kraus), domain, codomain)

    def test_matches_forbidden_block_maxima_on_dense_operators(self, rng):
        """Dense operators weigh every block differently, so the maxima
        differ as soon as a wrong coordinate is masked."""
        for _ in range(600):
            domain, codomain = random_space(rng), random_space(rng)
            route = cp_route(lambda shape: rng.random(shape) < 0.5, domain, codomain)
            shape = (codomain.total_dim, domain.total_dim)
            kraus = [
                rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                for _ in range(int(rng.integers(1, 4)))
            ]
            excess = choi_excess_by_blocks(kraus, route, domain, codomain)
            assert _choi_block_excess(kraus, route, domain, codomain) == excess


# -- wire permutations -------------------------------------------------------------


def coordinate_table(factors) -> list[tuple[int, ...]]:
    """Canonical tensor coordinate -> tuple of raw per-factor coordinates."""
    per_factor = [[list(range(r.start, r.stop)) for r in bounds(space)] for space in factors]
    return [
        raw
        for sector_choice in itertools.product(*per_factor)
        for raw in itertools.product(*sector_choice)
    ]


def permutation_by_tables(factors, positions) -> tuple[np.ndarray, np.ndarray]:
    """The reordering's matrix and route matrix, built entry by entry."""
    permuted = [factors[p] for p in positions]
    cod_index = {raw: i for i, raw in enumerate(coordinate_table(permuted))}
    dom_table = coordinate_table(factors)
    matrix = np.zeros((len(cod_index), len(dom_table)), dtype=complex)
    for x, raw in enumerate(dom_table):
        matrix[cod_index[tuple(raw[p] for p in positions)], x] = 1.0
    domain = tensor_many(factors).sector_labels
    codomain = tensor_many(permuted).sector_labels
    route = np.zeros((domain.size, codomain.size), dtype=bool)
    n = len(factors)
    for i, label in enumerate(domain):
        parts = label if n != 1 else (label,)
        permuted_label = tuple(parts[p] for p in positions)
        route[i, codomain.position(permuted_label if n != 1 else permuted_label[0])] = True
    return matrix, route


@st.composite
def reorderings(draw):
    factors = draw(st.lists(spaces(max_dim=2), min_size=1, max_size=4))
    positions = draw(st.permutations(range(len(factors))))
    return factors, positions


class TestPermutations:
    @settings(max_examples=150, deadline=None)
    @given(reorderings(), st.sampled_from(["pure", "cpm"]))
    def test_match_the_coordinate_tables_bit_for_bit(self, reordering, mode):
        factors, positions = reordering
        # a channel's route check builds its Choi matrix, of dimension squared squared
        assume(mode == "pure" or tensor_many(factors).total_dim <= 16)
        wires = [f"w{i}" for i in range(len(factors))]
        builder = CircuitBuilder(mode)
        for wire, space in zip(wires, factors):
            builder.wire(wire, space)
        circuit = builder.inputs(*wires).outputs(*wires).build()
        target = [wires[p] for p in positions]
        matrix, route = permutation_by_tables(factors, positions)
        op = _contracted(circuit, wires, (), target)
        got = op.matrix if mode == "pure" else op.kraus[0]
        assert got.dtype == matrix.dtype and got.tobytes() == matrix.tobytes()
        domain, codomain = (_interface_space(circuit, w).sector_labels for w in (wires, target))
        relation = Relation(domain, codomain, _run(circuit, "routes", wires, (), target))
        assert np.array_equal(relation.matrix, route)
        assert relation.domain == tensor_many(factors).sector_labels
        assert relation.codomain == tensor_many([factors[p] for p in positions]).sector_labels
