"""Partitioned spaces: projectors, sector block maxima, the walk over
allowed sector blocks and tensor products."""

from __future__ import annotations

import ast
import itertools
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routedcircuits import relations as rel
from routedcircuits.errors import InvariantViolation, UnknownLabel
from routedcircuits.relations import IndexSet, Relation
from routedcircuits.spaces import (
    PartitionedSpace,
    block_maxima,
    kron_to_canonical,
    projector,
    sector_blocks,
    subset_projector,
    tensor,
    tensor_many,
    tensor_matrix,
)

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "routedcircuits"


@pytest.fixture
def small():
    return PartitionedSpace.from_dims([0, 1], [1, 2])


class TestConstruction:
    def test_total_dim(self, small):
        assert small.total_dim == 3

    def test_rejects_zero_dim(self):
        with pytest.raises(InvariantViolation):
            PartitionedSpace.from_dims([0], [0])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(InvariantViolation):
            PartitionedSpace(IndexSet([0, 1]), (1,))

    @pytest.mark.parametrize("dims", [[1.5, 2], ["2", 1], [2.0, 1]])
    def test_rejects_dims_that_are_no_integers(self, dims):
        with pytest.raises(TypeError):
            PartitionedSpace.from_dims([0, 1], dims)

    def test_accepts_numpy_integer_dims(self):
        space = PartitionedSpace.from_dims([0, 1], np.array([1, 2]))
        assert space.sector_dims == (1, 2)
        assert all(type(d) is int for d in space.sector_dims)

    def test_sector_ranges_contiguous(self, small):
        ranges = [small.sector_range(k) for k in small.sector_labels]
        assert [(r.label, r.offset, r.dim) for r in ranges] == [(0, 0, 1), (1, 1, 2)]

    def test_sector_of_coordinate(self, small):
        assert [small.sector_of_coordinate(i) for i in range(3)] == [0, 1, 1]
        with pytest.raises(UnknownLabel):
            small.sector_of_coordinate(3)


class TestProjectors:
    def test_completeness(self, small):
        total = sum(projector(small, k) for k in small.sector_labels)
        assert np.array_equal(total, np.eye(3))

    def test_orthogonality(self, small):
        p0 = projector(small, 0)
        p1 = projector(small, 1)
        assert np.array_equal(p0 @ p1, np.zeros((3, 3)))

    def test_contiguity_convention(self, small):
        assert np.array_equal(np.diagonal(projector(small, 1)).real, [0, 1, 1])

    def test_subset_projector(self, small):
        assert np.array_equal(np.diagonal(subset_projector(small, [0])).real, [1, 0, 0])


@st.composite
def blocked_values(draw):
    """Random values over one to four spaces, with or without a leading axis;
    sectors of one coordinate come up often."""
    dims = draw(st.lists(st.lists(st.integers(1, 3), min_size=1, max_size=3), min_size=1, max_size=4))
    spaces = [PartitionedSpace.from_dims(range(len(d)), d) for d in dims]
    lead = draw(st.sampled_from([(), (2,)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.standard_normal(lead + tuple(s.total_dim for s in spaces)), spaces


def sector_slices(space: PartitionedSpace) -> list[slice]:
    """Each sector's coordinate range, from the dimensions alone."""
    ends = list(itertools.accumulate(space.sector_dims))
    return [slice(end - dim, end) for end, dim in zip(ends, space.sector_dims)]


class TestBlockMaxima:
    @settings(max_examples=200, deadline=None)
    @given(blocked_values())
    def test_largest_entry_of_every_block(self, drawn):
        values, spaces = drawn
        lead = values.ndim - len(spaces)
        maxima = block_maxima(values, *spaces)
        assert maxima.shape == values.shape[:lead] + tuple(len(s.sector_dims) for s in spaces)
        for block in itertools.product(*(enumerate(sector_slices(s)) for s in spaces)):
            positions, slices = zip(*block)
            want = values[(..., *slices)].max(axis=tuple(range(lead, values.ndim)))
            assert np.array_equal(maxima[(..., *positions)], want)


@st.composite
def routed_spaces(draw):
    """Two spaces of one to four sectors of dimensions 1 to 3, with string
    labels unlike their positions, and an empty, full or random route
    between them, plain or coherence."""
    dims = st.lists(st.integers(1, 3), min_size=1, max_size=4)
    domain, codomain = (
        PartitionedSpace.from_dims([f"{side}{i}" for i in range(len(d))], d)
        for side, d in (("k", draw(dims)), ("l", draw(dims)))
    )
    shape = (len(domain.sector_dims), len(codomain.sector_dims))
    size = shape[0] * shape[1]
    pattern = draw(st.sampled_from(["empty", "full", "random"]))
    if pattern == "random":
        bits = draw(st.lists(st.booleans(), min_size=size, max_size=size))
    else:
        bits = [pattern == "full"] * size
    route = Relation(domain.sector_labels, codomain.sector_labels, np.reshape(bits, shape))
    lift = draw(st.sampled_from([None, rel.full_coherence, rel.full_decoherence]))
    return (route if lift is None else lift(route)), domain, codomain


def blocks_by_labels(route, domain: PartitionedSpace, codomain: PartitionedSpace) -> list:
    """The allowed blocks by a double loop over labels, input label outermost."""
    plain = rel.diagonal(route)
    return [
        (domain.sector_labels.position(k), codomain.sector_labels.position(l),
         codomain.sector_slice(l), domain.sector_slice(k))
        for k in domain.sector_labels
        for l in codomain.sector_labels
        if plain.relates(k, l)
    ]


class TestSectorBlocks:
    @settings(max_examples=300, deadline=None)
    @given(routed_spaces())
    def test_the_label_loop_in_its_order(self, drawn):
        route, domain, codomain = drawn
        got = list(sector_blocks(rel.diagonal_view(route), domain, codomain))
        assert got == blocks_by_labels(route, domain, codomain)
        assert all(type(k) is int and type(l) is int for k, l, _, _ in got)


def test_only_spaces_and_relations_look_blocks_up_by_label():
    """Every block writer walks ``sector_blocks`` by position; the label
    accessors stay public, for callers outside the package and its tests."""
    accessors = {"relates", "sector_slice", "sector_range", "dim_of"}
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        for function in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(function):
                called = getattr(node, "func", None)
                if isinstance(called, ast.Attribute) and called.attr in accessors:
                    callers.add((path.stem, function.name, called.attr))
    assert {stem for stem, _, _ in callers} <= {"spaces", "relations"}, callers


class TestTensor:
    def test_dims_multiply(self, small):
        product = tensor(small, small)
        assert product.sector_dims == (1, 2, 2, 4)
        assert product.total_dim == 9
        assert product.sector_labels.labels == ((0, 0), (0, 1), (1, 0), (1, 1))

    def test_unit_law_on_dims(self, small):
        unit = PartitionedSpace.trivial()
        left = tensor(small, unit)
        assert left.total_dim == small.total_dim
        assert left.sector_labels.labels == ((0, "*"), (1, "*"))

    def test_one_particle_subspace_dimension(self):
        line = PartitionedSpace.from_dims([0, 1], [1, 2])
        product = tensor(line, line)
        one_particle = product.dim_of((1, 0)) + product.dim_of((0, 1))
        assert one_particle == 4

    def test_projector_is_permuted_kron(self, small):
        product = tensor(small, small)
        perm = kron_to_canonical(small, small)
        scatter = np.zeros((9, 9))
        scatter[perm, np.arange(9)] = 1.0
        for k in small.sector_labels:
            for l in small.sector_labels:
                lifted = scatter @ np.kron(projector(small, k), projector(small, l)) @ scatter.T
                assert np.allclose(lifted, projector(product, (k, l)))

    def test_tensor_matrix_respects_blocks(self, small, rng):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        product = tensor(small, small)
        lifted = tensor_matrix(a, b, small, small, small, small)
        # block ((k,l) -> (m,n)) equals the kron of the component blocks
        for k in (0, 1):
            for l in (0, 1):
                for m in (0, 1):
                    for n in (0, 1):
                        rows = product.sector_slice((m, n))
                        cols = product.sector_slice((k, l))
                        want = np.kron(
                            a[small.sector_slice(m), small.sector_slice(k)],
                            b[small.sector_slice(n), small.sector_slice(l)],
                        )
                        assert np.allclose(lifted[rows, cols], want)

    def test_associativity_on_coordinates(self, small, rng):
        third = PartitionedSpace.from_dims(["x", "y"], [2, 1])
        left = tensor(tensor(small, small), third)
        flat = tensor_many([small, small, third])
        assert left.sector_dims == flat.sector_dims
        assert flat.sector_labels.labels[0] == (0, 0, "x")
        a = rng.standard_normal((3, 3)) + 0j
        b = rng.standard_normal((3, 3)) + 0j
        c = rng.standard_normal((3, 3)) + 0j
        ab = tensor_matrix(a, b, small, small, small, small)
        abc_left = tensor_matrix(
            ab, c, tensor(small, small), third, tensor(small, small), third
        )
        bc = tensor_matrix(b, c, small, third, small, third)
        abc_right = tensor_matrix(
            a, bc, small, tensor(small, third), small, tensor(small, third)
        )
        assert np.allclose(abc_left, abc_right)

    def test_tensor_many_degenerate_cases(self, small):
        assert tensor_many([]) == PartitionedSpace.trivial()
        assert tensor_many([small]) is small
