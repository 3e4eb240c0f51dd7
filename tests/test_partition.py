"""``iodag.Partition`` against the union-find oracle, and ``bar`` against the
enumeration definition of its Kronecker-delta relation."""

from __future__ import annotations

import copy
import itertools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routedcircuits.iodag import Corelation, IndexFamily, Partition, bar

import partition_oracle

# distinct elements have distinct reprs, as the representative order assumes;
# the quote in the alphabet makes a string's repr sort differently from it
ELEMENTS = st.one_of(
    st.integers(-3, 12),
    st.text("ab'", max_size=2),
    st.tuples(st.sampled_from(["in", "out"]), st.text("xy", min_size=1, max_size=2)),
)


@st.composite
def partitions(draw):
    """A universe, groups over it (pairs and possibly overlapping blocks)
    and a subset to restrict to, which may reach outside the universe."""
    universe = draw(st.lists(ELEMENTS, unique=True, max_size=10))
    members = st.sampled_from(universe) if universe else st.nothing()
    groups = draw(
        st.lists(
            st.one_of(
                st.tuples(members, members),
                st.lists(members, max_size=5),
            ),
            max_size=8 if universe else 0,
        )
    )
    subset = draw(st.lists(st.one_of(members, ELEMENTS) if universe else ELEMENTS, max_size=6))
    return universe, groups, subset


def oracle_of(universe, groups):
    return partition_oracle.Partition(universe, partition_oracle._partition_pairs(groups))


def assert_agrees(part: Partition, oracle: partition_oracle.Partition) -> None:
    assert part.blocks() == oracle.blocks()
    assert part.universe == oracle.universe
    assert repr(part) == repr(oracle)
    for x in oracle.universe:
        assert part.find(x) == oracle.find(x)
        assert part.block_of(x) == oracle.block_of(x)
        for y in oracle.universe:
            assert part.related(x, y) == oracle.related(x, y)


@settings(max_examples=300, deadline=None)
@given(partitions(), partitions())
def test_agrees_with_the_union_find_oracle(case, other_case):
    universe, groups, subset = case
    part, oracle = Partition(universe, groups), oracle_of(universe, groups)
    assert_agrees(part, oracle)
    assert_agrees(part.restrict(subset), oracle.restrict(subset))
    assert_agrees(Partition.from_blocks(groups), partition_oracle.Partition.from_blocks(groups))
    # equality, on the same universe with other groups and on another universe
    _, other_groups, _ = other_case
    other_groups = [g for g in other_groups if set(g) <= set(universe)]
    for other_universe, chosen in ((universe, other_groups), other_case[:2]):
        assert (Partition(other_universe, chosen) == part) == (
            oracle_of(other_universe, chosen) == oracle
        )
    assert part == Partition.from_blocks(oracle.blocks())
    assert part != oracle


def test_groups_outside_the_universe_raise():
    with pytest.raises(KeyError):
        Partition(["a"], [("a", "b")])
    with pytest.raises(KeyError):
        Partition(["a"]).find("b")


def test_copies_are_equal_values():
    part = Partition(["a", "b", "c", ("in", "k")], [("a", ("in", "k"))])
    for twin in (copy.copy(part), copy.deepcopy(part), pickle.loads(pickle.dumps(part))):
        assert twin == part
        assert twin.find("a") == part.find("a")


@st.composite
def corelations(draw):
    """A length-respecting corelation: tagged names get drawn blocks and
    every block one drawn length."""
    dom_names = draw(st.lists(st.sampled_from("abcd"), unique=True, max_size=3))
    cod_names = draw(st.lists(st.sampled_from("abcd"), unique=True, max_size=3))
    tagged = [("in", n) for n in dom_names] + [("out", n) for n in cod_names]
    block_of = {x: draw(st.integers(0, len(tagged))) for x in tagged}
    length_of = {b: draw(st.integers(1, 3)) for b in set(block_of.values())}
    blocks: dict = {}
    for x, b in block_of.items():
        blocks.setdefault(b, []).append(x)
    dom = IndexFamily({n: length_of[block_of[("in", n)]] for n in dom_names})
    cod = IndexFamily({n: length_of[block_of[("out", n)]] for n in cod_names})
    return Corelation(dom, cod, Partition(tagged, blocks.values()))


def values(family: IndexFamily, label, side: str) -> dict:
    """Each tagged name's value in one value label ('*' carries none)."""
    if not family.names:
        return {}
    return {(side, name): value for name, value in zip(family.names, label)}


@settings(max_examples=300, deadline=None)
@given(corelations())
def test_bar_relates_exactly_the_tuples_constant_on_every_block(matching):
    relation = bar(matching)
    dom_labels = matching.domain.value_labels()
    cod_labels = matching.codomain.value_labels()
    assert relation.domain.labels == dom_labels
    assert relation.codomain.labels == cod_labels
    for (i, k), (j, l) in itertools.product(enumerate(dom_labels), enumerate(cod_labels)):
        carried = {**values(matching.domain, k, "in"), **values(matching.codomain, l, "out")}
        expected = all(
            len({carried[x] for x in block}) == 1 for block in matching.partition.blocks()
        )
        assert relation.matrix[i, j] == expected, (k, l)
