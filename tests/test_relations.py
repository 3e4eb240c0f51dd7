"""Boolean route algebra: composition, products, practical sets, gates."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routedcircuits import relations as rel
from routedcircuits import routed_maps as rm
from routedcircuits.errors import (
    DomainMismatch,
    InvariantViolation,
    ShapeMismatch,
    UnknownLabel,
)
from routedcircuits.relations import CPRelation, IndexSet, Relation
from routedcircuits.routed_maps import RoutedMap
from routedcircuits.sampling import (
    random_coherent_cpm,
    random_decohered_cpm,
    random_matrix_following,
    random_relation,
    random_space,
)


def idx(*labels):
    return IndexSet(labels)


def relation(domain, codomain, rows):
    return Relation(idx(*domain), idx(*codomain), np.array(rows, dtype=bool))


# the four-input example relation: 1->a, 2->b, 2->c, 3->c, 4->nothing
EXAMPLE = relation(
    (1, 2, 3, 4), ("a", "b", "c"), [[1, 0, 0], [0, 1, 1], [0, 0, 1], [0, 0, 0]]
)


def brute_compose(second, first):
    """Oracle: path enumeration over the shared middle set."""
    out = np.zeros((first.domain.size, second.codomain.size), dtype=bool)
    for i in range(first.domain.size):
        for j in range(second.codomain.size):
            out[i, j] = any(
                first.matrix[i, l] and second.matrix[l, j]
                for l in range(first.codomain.size)
            )
    return Relation(first.domain, second.codomain, out)


@st.composite
def relations_chain(draw, max_size=4, length=2):
    sizes = [draw(st.integers(1, max_size)) for _ in range(length + 1)]
    out = []
    for a, b in zip(sizes, sizes[1:]):
        bits = draw(st.lists(st.booleans(), min_size=a * b, max_size=a * b))
        out.append(
            Relation(
                IndexSet(range(a)), IndexSet(range(b)), np.array(bits).reshape(a, b)
            )
        )
    return out


class TestCompose:
    def test_identity_neutral(self):
        ident = Relation.identity(EXAMPLE.codomain)
        assert rel.compose(ident, EXAMPLE) == EXAMPLE

    def test_requires_matching_interface(self):
        with pytest.raises(DomainMismatch):
            rel.compose(EXAMPLE, EXAMPLE)

    def test_interface_order_matters(self):
        flipped = Relation.identity(idx("b", "a", "c"))
        with pytest.raises(DomainMismatch):
            rel.compose(flipped, EXAMPLE)

    def test_matches_path_enumeration_on_random_instances(self, rng):
        for _ in range(50):
            a, b, c = rng.integers(1, 4, size=3)
            first = Relation(IndexSet(range(a)), IndexSet(range(b)), rng.random((a, b)) < 0.5)
            second = Relation(IndexSet(range(b)), IndexSet(range(c)), rng.random((b, c)) < 0.5)
            assert rel.compose(second, first) == brute_compose(second, first)

    @given(relations_chain(max_size=4, length=3))
    @settings(max_examples=60, deadline=None)
    def test_associative(self, chain):
        f, g, h = chain
        left = rel.compose(h, rel.compose(g, f))
        right = rel.compose(rel.compose(h, g), f)
        assert left == right

    def test_associative_exhaustive_small(self):
        two = IndexSet(range(2))
        all_two = [
            Relation(two, two, np.array(bits).reshape(2, 2))
            for bits in itertools.product([0, 1], repeat=4)
        ]
        for f, g, h in itertools.product(all_two, repeat=3):
            assert rel.compose(h, rel.compose(g, f)) == rel.compose(rel.compose(h, g), f)


@st.composite
def composable(draw, max_size: int, cp: bool):
    """Two random composable relations (coherence routes with ``cp``, each
    the doubling closure of a few random relations) of 1 to ``max_size``
    labels per index set; an index set has at least one label."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a, b, c = (draw(st.integers(1, max_size)) for _ in range(3))
    density = draw(st.sampled_from([0.0, 0.05, 0.3, 1.0]))
    pair = []
    for k, l in ((a, b), (b, c)):
        if not cp:
            matrix = rng.random((k, l)) < density
            pair.append(Relation(IndexSet(range(k)), IndexSet(range(l)), matrix))
            continue
        matrix = np.zeros((k, k, l, l), dtype=bool)
        for _ in range(draw(st.integers(0, 3))):
            r = rng.random((k, l)) < density
            matrix |= r[:, None, :, None] & r[None, :, None, :]
        pair.append(CPRelation(IndexSet(range(k)), IndexSet(range(l)), matrix))
    return pair


class TestComposeAsMatmul:
    """Composition is a float32 matmul thresholded at zero; these are the
    boolean expressions it replaced, n^3 and n^6 temporaries included."""

    @given(composable(max_size=40, cp=False))
    @settings(max_examples=100, deadline=None)
    def test_relations(self, pair):
        first, second = pair
        want = (first.matrix[:, :, None] & second.matrix[None, :, :]).any(axis=1)
        assert np.array_equal(rel.compose(second, first).matrix, want)

    @given(composable(max_size=6, cp=True))
    @settings(max_examples=100, deadline=None)
    def test_coherence_routes(self, pair):
        first, second = pair
        want = (
            first.matrix[:, :, :, :, None, None] & second.matrix[None, None, :, :, :, :]
        ).any(axis=(2, 3))
        assert np.array_equal(rel.compose(second, first).matrix, want)


# the per-kind formulas that the one algebra replaced, kept as references


def reference_compose(second, first):
    if not isinstance(first, CPRelation):
        return first.matrix.astype(np.float32) @ second.matrix.astype(np.float32) > 0
    k, l, m = first.matrix.shape[0], first.matrix.shape[2], second.matrix.shape[2]
    flat_first = first.matrix.reshape(k * k, l * l).astype(np.float32)
    flat_second = second.matrix.reshape(l * l, m * m).astype(np.float32)
    return (flat_first @ flat_second > 0).reshape(k, k, m, m)


def reference_product(left, right):
    if not isinstance(left, CPRelation):
        return np.kron(left.matrix, right.matrix)
    joined = np.multiply.outer(left.matrix, right.matrix).transpose(0, 4, 1, 5, 2, 6, 3, 7)
    dk = left.matrix.shape[0] * right.matrix.shape[0]
    dl = left.matrix.shape[2] * right.matrix.shape[2]
    return joined.reshape(dk, dk, dl, dl)


def reference_transpose(route):
    return route.matrix.transpose(2, 3, 0, 1) if isinstance(route, CPRelation) else route.matrix.T


@st.composite
def routed_pair(draw, cp: bool):
    """Two composable random routed maps, or with ``cp`` routed CP maps with
    fully coherent or fully decohering routes."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spaces = [random_space(rng, max_sectors=3, max_dim=2) for _ in range(3)]
    pair = []
    for domain, codomain in zip(spaces, spaces[1:]):
        density = draw(st.sampled_from([0.3, 0.7, 1.0]))
        route = random_relation(domain.sector_labels, codomain.sector_labels, rng, density)
        if not cp:
            matrix = random_matrix_following(route, domain, codomain, rng)
            pair.append(RoutedMap(route, matrix, domain, codomain))
        elif draw(st.booleans()):
            pair.append(random_coherent_cpm(route, domain, codomain, rng, count=2))
        else:
            pair.append(random_decohered_cpm(route, domain, codomain, rng, ops_per_block=1))
    return pair


class TestOneAlgebra:
    """``compose``, ``product`` and ``transpose`` are written once over the
    sector axes per side; on plain and coherence routes alike they equal
    the per-kind formulas, bit for bit, and keep the class of the route."""

    @given(st.booleans(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_equals_the_per_kind_formulas(self, cp, data):
        first, second = data.draw(composable(max_size=4, cp=cp))
        cases = [
            (rel.compose(second, first), reference_compose(second, first),
             first.domain, second.codomain),
            (rel.product(first, second), reference_product(first, second),
             first.domain.product(second.domain), first.codomain.product(second.codomain)),
            (rel.product(second, first), reference_product(second, first),
             second.domain.product(first.domain), second.codomain.product(first.codomain)),
            (rel.transpose(first), reference_transpose(first), first.codomain, first.domain),
        ]
        for got, matrix, domain, codomain in cases:
            assert type(got) is type(first) and got.copies == (2 if cp else 1)
            assert (got.domain, got.codomain) == (domain, codomain)
            assert got.matrix.dtype == bool and np.array_equal(got.matrix, matrix)

    @given(st.booleans(), st.data())
    @settings(max_examples=50, deadline=None)
    def test_interface_mismatch(self, cp, data):
        first, second = data.draw(composable(max_size=4, cp=cp))
        renamed = IndexSet(("x", label) for label in second.domain)
        with pytest.raises(DomainMismatch):
            rel.compose(type(second)(renamed, second.codomain, second.matrix), first)

    @given(st.booleans(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_routes_of_the_routed_algebra(self, cp, data):
        first, second = data.draw(routed_pair(cp))
        cases = [
            (rm.compose(second, first).route, reference_compose(second.route, first.route)),
            (rm.tensor_map(first, second).route, reference_product(first.route, second.route)),
            (rm.dagger(first).route, reference_transpose(first.route)),
        ]
        for got, matrix in cases:
            assert type(got) is type(first.route)
            assert np.array_equal(got.matrix, matrix)

    def test_a_coherence_route_is_typed_by_its_base_sets(self):
        route = rel.full_coherence(EXAMPLE)
        assert route.domain is route.base_domain and route.codomain is route.base_codomain
        assert (Relation.copies, CPRelation.copies) == (1, 2)


class TestProduct:
    def test_delta_times_delta_is_identity(self):
        delta = Relation.identity(idx(0, 1))
        four = rel.product(delta, delta)
        assert four == Relation.identity(idx((0, 0), (0, 1), (1, 0), (1, 1)))

    def test_full_times_full(self):
        full = Relation.full(IndexSet.trivial(), idx(0, 1))
        product = rel.product(full, full)
        assert product.domain.size == 1 and product.codomain.size == 4
        assert product.matrix.all()

    @given(relations_chain(max_size=3, length=2), relations_chain(max_size=3, length=2))
    @settings(max_examples=40, deadline=None)
    def test_distributes_over_compose(self, chain1, chain2):
        f1, g1 = chain1
        f2, g2 = chain2
        left = rel.product(rel.compose(g1, f1), rel.compose(g2, f2))
        right = rel.compose(rel.product(g1, g2), rel.product(f1, f2))
        assert left == right


class TestTranspose:
    def test_involution(self):
        assert rel.transpose(rel.transpose(EXAMPLE)) == EXAMPLE

    def test_identity_fixed(self):
        ident = Relation.identity(idx(0, 1, 2))
        assert rel.transpose(ident) == ident

    def test_example_graph_transposed(self):
        flipped = rel.transpose(EXAMPLE)
        assert rel.image(flipped, {"a"}) == {1}
        assert rel.image(flipped, {"b"}) == {2}
        assert rel.image(flipped, {"c"}) == {2, 3}

    @given(relations_chain(max_size=4, length=2))
    @settings(max_examples=40, deadline=None)
    def test_antihomomorphism(self, chain):
        f, g = chain
        assert rel.transpose(rel.compose(g, f)) == rel.compose(
            rel.transpose(f), rel.transpose(g)
        )


class TestPracticalSets:
    def test_example_practical_input_set(self):
        assert rel.practical_input_set(EXAMPLE) == {1, 2, 3}

    def test_identity_full(self):
        ident = Relation.identity(idx("x", "y"))
        assert rel.practical_input_set(ident) == {"x", "y"}

    def test_zero_empty(self):
        zero = Relation.zero(idx(0, 1), idx(0))
        assert rel.practical_input_set(zero) == frozenset()

    @given(relations_chain(max_size=4, length=2))
    @settings(max_examples=60, deadline=None)
    def test_practical_set_of_composition(self, chain):
        f, g = chain
        s = rel.practical_input_set(rel.compose(g, f))
        pulled = rel.image(rel.transpose(f), rel.practical_input_set(g))
        assert s == pulled & rel.practical_input_set(f)
        if pulled <= rel.practical_input_set(f):
            assert s == pulled


class TestImage:
    def test_identity(self):
        ident = Relation.identity(idx(0, 1, 2))
        assert rel.image(ident, {0, 2}) == {0, 2}

    def test_empty(self):
        assert rel.image(EXAMPLE, set()) == frozenset()

    def test_example(self):
        assert rel.image(EXAMPLE, {2}) == {"b", "c"}

    def test_unknown_label(self):
        with pytest.raises(UnknownLabel):
            rel.image(EXAMPLE, {99})


class TestPropernessGates:
    def test_identity_always_proper(self):
        ident = Relation.identity(idx(0, 1))
        assert rel.is_proper_for_isometries(ident, EXAMPLE_SIGMA)
        assert rel.is_proper_for_unitaries(ident, EXAMPLE_SIGMA)

    def test_two_trajectory_compositions_proper(self, two_trajectory):
        _, parts = two_trajectory
        omega = parts["omega"]
        middle = rel.product(
            Relation.identity(idx(0, 1)), Relation.identity(idx(0, 1))
        )
        assert rel.is_proper_for_unitaries(omega, middle)
        assert rel.is_proper_for_unitaries(middle, rel.transpose(omega))

    def test_isometry_counterexample(self):
        lam = Relation.full(IndexSet.trivial(), idx(0, 1))
        sigma = relation((0, 1), ("*",), [[1], [0]])
        assert not rel.is_proper_for_isometries(lam, sigma)

    def test_unitary_counterexample(self):
        lam = relation(("*",), (0, 1), [[1, 0]])
        sigma = Relation.full(idx(0, 1), IndexSet.trivial())
        assert rel.is_proper_for_isometries(lam, sigma)
        assert not rel.is_proper_for_unitaries(lam, sigma)

    def test_domain_mismatch(self):
        with pytest.raises(DomainMismatch):
            rel.is_proper_for_isometries(EXAMPLE, EXAMPLE)


EXAMPLE_SIGMA = Relation.identity(idx(0, 1))


def doubling_closure(size_in, size_out, env_size):
    """All coherence routes obtainable by doubling a relation into an
    environment of the given size, as a set of byte keys."""
    n_bits = size_in * size_out * env_size
    codes = np.arange(2**n_bits, dtype=np.int64)
    bits = ((codes[:, None] >> np.arange(n_bits)) & 1).astype(np.uint8)
    lam = bits.reshape(-1, size_in, size_out, env_size)
    doubled = np.einsum("nkle,nKLe->nkKlL", lam, lam) > 0
    return {d.astype(np.uint8).tobytes() for d in doubled}


class TestCompletelyPositiveRelations:
    def test_full_coherence_passes(self):
        delta = Relation.identity(idx(0, 1))
        assert rel.is_completely_positive(rel.full_coherence(delta).matrix)

    def test_non_symmetric_fails(self):
        matrix = np.zeros((2, 2, 2, 2), dtype=bool)
        matrix[0, 1, 0, 0] = True  # (k=0,k'=1) without its mirror
        matrix[0, 0, 0, 0] = matrix[1, 1, 0, 0] = True
        assert not rel.is_completely_positive(matrix)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            rel.is_completely_positive(np.zeros((2, 3, 2, 2), dtype=bool))

    def test_constructor_rejects_with_witness(self):
        matrix = np.zeros((2, 2, 1, 1), dtype=bool)
        matrix[0, 1, 0, 0] = True
        with pytest.raises(InvariantViolation) as err:
            CPRelation(idx(0, 1), idx("*"), matrix)
        assert "k'=" in str(err.value)

    def test_matches_doubling_oracle_on_samples(self, rng):
        achievable = doubling_closure(2, 2, 4)
        for _ in range(200):
            candidate = rng.random((2, 2, 2, 2)) < 0.5
            assert rel.is_completely_positive(candidate) == (
                candidate.astype(np.uint8).tobytes() in achievable
            )

    def test_size_three_characterisation_is_constructive(self, rng):
        # valid arrays admit an explicit doubling (one environment value per
        # allowed coherence pair); doubled arrays are always valid.  Together
        # these give the equivalence at |Z| = 3 without exhaustive search.
        def pairs_doubling(candidate):
            n = candidate.shape[0]
            m = candidate.shape[2]
            vertices = [(k, l) for k in range(n) for l in range(m)]
            env = []
            for i, v in enumerate(vertices):
                for w in vertices[i:]:
                    if candidate[v[0], w[0], v[1], w[1]]:
                        env.append({v, w})
            lam = np.zeros((n, m, max(len(env), 1)), dtype=bool)
            for e, members in enumerate(env):
                for k, l in members:
                    lam[k, l, e] = True
            return lam

        def double(lam):
            return np.einsum("kle,KLe->kKlL", lam.astype(np.uint8), lam.astype(np.uint8)) > 0

        def random_valid(rng):
            raw = rng.random((3, 3, 3, 3)) < 0.4
            symmetric = raw | raw.transpose(1, 0, 3, 2)
            diag = np.einsum("kkll->kl", symmetric)
            allowed = diag[:, None, :, None] & diag[None, :, None, :]
            return symmetric & allowed

        for _ in range(30):
            candidate = random_valid(rng)
            assert rel.is_completely_positive(candidate)
            assert np.array_equal(double(pairs_doubling(candidate)), candidate)
        # any doubling yields a valid array, so invalid ones have none
        for _ in range(30):
            lam = rng.random((3, 3, int(rng.integers(1, 6)))) < 0.4
            assert rel.is_completely_positive(double(lam))

    def test_full_coherence_always_cp(self, rng):
        for _ in range(40):
            a, b = rng.integers(1, 4, size=2)
            lam = Relation(IndexSet(range(a)), IndexSet(range(b)), rng.random((a, b)) < 0.5)
            assert rel.is_completely_positive(rel.full_coherence(lam).matrix)

    def test_full_decoherence_always_cp(self, rng):
        for _ in range(40):
            a, b = rng.integers(1, 4, size=2)
            lam = Relation(IndexSet(range(a)), IndexSet(range(b)), rng.random((a, b)) < 0.5)
            assert rel.is_completely_positive(rel.full_decoherence(lam).matrix)


class TestDiagonalAndExtremes:
    def test_diagonal_of_full_coherence(self, rng):
        for _ in range(20):
            lam = Relation(IndexSet(range(2)), IndexSet(range(3)), rng.random((2, 3)) < 0.5)
            assert rel.diagonal(rel.full_coherence(lam)) == lam
            assert rel.diagonal(rel.full_decoherence(lam)) == lam

    def test_full_coherence_identity_entries(self):
        route = rel.full_coherence(Relation.identity(idx(0, 1)))
        assert int(route.matrix.sum()) == 4  # (k,k') free over the diagonal pairs

    def test_full_decoherence_identity_entries(self):
        route = rel.full_decoherence(Relation.identity(idx(0, 1)))
        assert int(route.matrix.sum()) == 2

    def test_copy_then_discard_route_calculus(self):
        # copying into two matched sectors, then discarding the first copy,
        # leaves a route that keeps only the l = l' entries on the survivor
        survivor = idx(0, 1)
        pairs = idx((0, 0), (0, 1), (1, 0), (1, 1))
        copy_rel = Relation.from_pairs(IndexSet.trivial(), pairs, [("*", (0, 0)), ("*", (1, 1))])
        copy_route = rel.full_coherence(copy_rel)
        discard_route = CPRelation(
            idx(0, 1), IndexSet.trivial(), np.eye(2, dtype=bool).reshape(2, 2, 1, 1)
        )
        id_route = rel.full_coherence(Relation.identity(survivor))
        second = rel.product(discard_route, id_route)
        composed = rel.compose(second, copy_route)
        expected = rel.full_decoherence(
            Relation.full(IndexSet.trivial(), composed.base_codomain)
        )
        assert composed == expected

    def test_cp_compose_preserves_invariants(self, rng):
        for _ in range(30):
            a, b, c = rng.integers(1, 3, size=3)
            lam1 = Relation(IndexSet(range(a)), IndexSet(range(b)), rng.random((a, b)) < 0.6)
            lam2 = Relation(IndexSet(range(b)), IndexSet(range(c)), rng.random((b, c)) < 0.6)
            first = rel.full_coherence(lam1)
            second = rel.full_decoherence(lam2)
            composed = rel.compose(second, first)  # constructor re-validates
            assert rel.is_completely_positive(composed.matrix)
            tensored = rel.product(first, second)
            assert rel.is_completely_positive(tensored.matrix)


class TestChannelGate:
    def test_coherent_deltas_proper(self):
        delta = Relation.identity(idx(0, 1))
        route = rel.full_coherence(delta)
        assert rel.is_proper_for_channels(route, route)

    def test_lifted_counterexample_rejected(self):
        lam = Relation.full(IndexSet.trivial(), idx(0, 1))
        sigma = relation((0, 1), ("*",), [[1], [0]])
        assert not rel.is_proper_for_channels(
            rel.full_coherence(lam), rel.full_coherence(sigma)
        )

    def test_gate_only_depends_on_diagonals(self, rng):
        for _ in range(20):
            a, b, c = rng.integers(1, 3, size=3)
            lam = Relation(IndexSet(range(a)), IndexSet(range(b)), rng.random((a, b)) < 0.6)
            sig = Relation(IndexSet(range(b)), IndexSet(range(c)), rng.random((b, c)) < 0.6)
            coherent = rel.is_proper_for_channels(rel.full_coherence(lam), rel.full_coherence(sig))
            decohered = rel.is_proper_for_channels(
                rel.full_decoherence(lam), rel.full_decoherence(sig)
            )
            assert coherent == decohered == rel.is_proper_for_isometries(lam, sig)


class TestIndexSet:
    def test_rejects_duplicates(self):
        with pytest.raises(InvariantViolation):
            IndexSet([0, 0])

    def test_rejects_empty(self):
        with pytest.raises(InvariantViolation):
            IndexSet([])

    def test_trivial_singleton(self):
        assert IndexSet.trivial().labels == ("*",)
