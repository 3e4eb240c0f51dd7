"""An index family's value labels, index set and value table, derived once
per shape (``iodag._shape_values``), against the per-call construction they
replace, and the sharing of that data between families of one shape."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings

from routedcircuits.iodag import Corelation, IndexFamily, _shape_values, bar
from routedcircuits.relations import IndexSet

from test_partition import corelations, values


def oracle_labels(family: IndexFamily) -> tuple:
    if not family.names:
        return ("*",)
    return tuple(itertools.product(*(range(family.length(name)) for name in family.names)))


def oracle_table(family: IndexFamily) -> np.ndarray:
    shape = [family.length(name) for name in family.names]
    return np.indices(shape).reshape(len(shape), math.prod(shape)).T


# the corelations draw at most three names per side from a pool of four, with
# lengths 1-3, so the same shapes recur under different names across examples
@settings(max_examples=300, deadline=None)
@given(corelations())
def test_cached_values_and_bar_match_the_per_call_construction(matching):
    for family in (matching.domain, matching.codomain):
        labels = oracle_labels(family)
        assert family.value_labels() == labels
        assert family.index_set() == IndexSet(labels)
        table, expected = family._values()[1], oracle_table(family)
        assert table.shape == expected.shape and np.array_equal(table, expected)
    relation = bar(matching)
    dom_labels, cod_labels = oracle_labels(matching.domain), oracle_labels(matching.codomain)
    assert relation.domain.labels == dom_labels
    assert relation.codomain.labels == cod_labels
    for (i, k), (j, l) in itertools.product(enumerate(dom_labels), enumerate(cod_labels)):
        carried = {**values(matching.domain, k, "in"), **values(matching.codomain, l, "out")}
        expected = all(
            len({carried[x] for x in block}) == 1 for block in matching.partition.blocks()
        )
        assert relation.matrix[i, j] == expected, (k, l)


def test_cached_table_is_read_only():
    table = IndexFamily({"a": 2, "b": 3})._values()[1]
    with pytest.raises(ValueError):
        table[0, 0] = 1
    assert table[0, 0] == 0


def test_non_integer_length_is_rejected_whatever_the_cache_holds():
    assert IndexFamily({"a": 2}).value_labels() == ((0,), (1,))
    with pytest.raises(TypeError):
        IndexFamily({"a": 2.0})


def test_bar_is_unchanged_by_bar_on_another_family_of_the_same_shape():
    first = Corelation.from_pairs(
        IndexFamily({"a": 2, "b": 3}), IndexFamily({"c": 2}), [(("in", "a"), ("out", "c"))]
    )
    before = bar(first)
    other = Corelation.from_pairs(IndexFamily({"x": 2, "y": 3}), IndexFamily({"z": 2}))
    # the same shapes under other names and another matching share the tables
    assert other.domain._values() is first.domain._values()
    bar(other)
    after = bar(first)
    assert after == before
    assert after.domain.labels == oracle_labels(first.domain)


def test_cache_grows_with_shapes_not_families():
    # every family of at most three names with lengths in {1, 2, 3}: 40 shapes
    shapes = [
        shape for size in range(4) for shape in itertools.product((1, 2, 3), repeat=size)
    ]
    assert len(shapes) == 40
    pool = "abcdefgh"
    _shape_values.cache_clear()
    for i in range(1000):
        shape = shapes[i % len(shapes)]
        names = pool[i % 6 : i % 6 + len(shape)]
        family = IndexFamily(dict(zip(names, shape)))
        bar(Corelation.identity(family))
        assert family.value_labels() == oracle_labels(family)
    assert _shape_values.cache_info().currsize <= 40
