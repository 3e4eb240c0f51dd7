"""The frozen plans that compiled programs in ``circuits`` hold, against
fresh plans from the two planners (equal plans, one per size assignment,
nothing mutable inside, the same results to the bit), and interface
spaces that keep their wires' own labels.  The one cache above them, of
compiled programs, is tested in ``test_programs``."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings

from routedcircuits import CircuitBuilder
from routedcircuits.circuits import (
    _contraction_plan,
    _elimination_plan,
    _frozen,
    _interface_space,
    _run_contraction,
    _run_plan,
)

from routedcircuits.spaces import PartitionedSpace

from test_contraction import draw_tables, networks
from test_elimination import factor_graphs


def as_tuples(value):
    """``value`` with every list in it, at any depth, a tuple, for comparing
    a fresh plan with a frozen one."""
    if isinstance(value, (list, tuple)):
        return tuple(map(as_tuples, value))
    return value


def assert_no_mutable_part(value) -> None:
    assert not isinstance(value, (list, dict, set, np.ndarray)), value
    if isinstance(value, tuple):
        for item in value:
            assert_no_mutable_part(item)


def contraction(signatures, opened, sizes):
    return _frozen(_contraction_plan(signatures, opened, sizes))


def elimination(signatures, keep, sizes):
    return _frozen(_elimination_plan(signatures, keep, sizes))


class TestFrozenEqualsFresh:
    @settings(max_examples=200, deadline=None)
    @given(networks())
    def test_contraction(self, network):
        signatures, opened, sizes, rng = network
        frozen = contraction(signatures, opened, sizes)
        fresh = _contraction_plan(signatures, opened, sizes)
        assert type(frozen) is type(fresh)
        assert as_tuples(frozen) == as_tuples(fresh)
        assert_no_mutable_part(frozen)
        tables = draw_tables(signatures, sizes, rng, boolean=False)
        assert np.array_equal(_run_contraction(frozen, tables), _run_contraction(fresh, tables))

    @settings(max_examples=200, deadline=None)
    @given(factor_graphs())
    def test_elimination(self, graph):
        factors, keep, sizes = graph
        signatures = [vars_ for vars_, _ in factors]
        frozen = elimination(signatures, keep, sizes)
        fresh = _elimination_plan(signatures, keep, sizes)
        assert type(frozen) is type(fresh)
        assert as_tuples(frozen) == as_tuples(fresh)
        assert_no_mutable_part(frozen)
        tables = [table for _, table in factors]
        assert np.array_equal(_run_plan(frozen, tables), _run_plan(fresh, tables))


def test_equal_signatures_with_other_sizes_get_their_own_plans():
    """The large label moves from ``y`` to ``x``: the contraction takes the
    other pair first, and the elimination sums the other variable first."""
    signatures = [["a", "x"], ["x", "y"], ["y", "c"]]
    small = {"a": 1, "x": 2, "y": 8, "c": 2}
    large = {"a": 1, "x": 8, "y": 2, "c": 2}
    for sizes in (small, large):
        fresh = _contraction_plan(signatures, ["a", "c"], sizes)
        assert as_tuples(contraction(signatures, ["a", "c"], sizes)) == as_tuples(fresh)
        fresh = _elimination_plan(signatures, ["a"], sizes)
        assert as_tuples(elimination(signatures, ["a"], sizes)) == as_tuples(fresh)
    assert contraction(signatures, ["a", "c"], small) != contraction(signatures, ["a", "c"], large)
    assert elimination(signatures, ["a"], small) != elimination(signatures, ["a"], large)


def test_interface_spaces_keep_their_label_types():
    """``0 == False`` and ``1 == True``, so these wire spaces are equal, but
    each interface is still built from its own wires' labels."""
    ints = PartitionedSpace.from_dims([0, 1], [1, 1])
    bools = PartitionedSpace.from_dims([False, True], [1, 1])
    assert ints == bools
    builder = CircuitBuilder("pure").wire("i", ints).wire("j", ints).wire("b", bools)
    circuit = builder.inputs("i", "j", "b").outputs("i", "j", "b").build()
    assert _interface_space(circuit, ["i"]) is ints
    assert _interface_space(circuit, ["b"]) is bools
    for wires in (["i", "j"], ["i", "b"], ["b", "j"]):
        kinds = [type(circuit.wires[w].sector_labels.labels[0]) for w in wires]
        for label in _interface_space(circuit, wires).sector_labels:
            assert list(map(type, label)) == kinds
