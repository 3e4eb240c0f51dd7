"""The route-level properness gate: ``relations.escaped`` against its
definition, and the gated compositions that raise on it."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from routedcircuits import relations as rel
from routedcircuits.errors import DomainMismatch, ImproperComposition
from routedcircuits.relations import IndexSet, Relation
from routedcircuits.routed_cpms import checked_compose_channel, lift_pure
from routedcircuits.routed_maps import RoutedMap, checked_compose
from routedcircuits.spaces import PartitionedSpace

from test_relations import relations_chain


def escaped_by_definition(first: Relation, second: Relation) -> tuple[tuple, tuple]:
    """Both sides of the gate of ``second ∘ first``, written out on labels.

    Input side: the image of the downstream practical input set S under
    ``first ∘ firstᵀ`` (two middle labels are related when some input
    reaches both), minus S.  Output side: the image of the upstream
    practical output set T under ``secondᵀ ∘ second`` (two middle labels
    are related when both reach some output), minus T.
    """
    ins = range(first.domain.size)
    mid = range(first.codomain.size)
    outs = range(second.codomain.size)
    s = {m for m in mid if any(second.matrix[m, c] for c in outs)}
    t = {m for m in mid if any(first.matrix[a, m] for a in ins)}
    image_s = {
        m2
        for m in s
        for m2 in mid
        if any(first.matrix[a, m] and first.matrix[a, m2] for a in ins)
    }
    image_t = {
        m2
        for m in t
        for m2 in mid
        if any(second.matrix[m, c] and second.matrix[m2, c] for c in outs)
    }
    labels = first.codomain.labels

    def named(positions):
        return tuple(sorted((labels[m] for m in positions), key=repr))

    return named(image_s - s), named(image_t - t)


def follower(route: Relation) -> RoutedMap:
    """A routed map on one-dimensional sectors whose blocks are the route."""
    domain = PartitionedSpace(route.domain, [1] * route.domain.size)
    codomain = PartitionedSpace(route.codomain, [1] * route.codomain.size)
    return RoutedMap(route, route.matrix.T.astype(complex), domain, codomain)


def assert_gate(call, expected):
    """``call`` returns when ``expected`` is None and otherwise raises
    ImproperComposition with ``expected == (side, witness)``."""
    if expected is None:
        call()
        return
    with pytest.raises(ImproperComposition) as err:
        call()
    assert (err.value.side, err.value.witness) == expected


@settings(max_examples=200, deadline=None)
@given(relations_chain(max_size=4, length=2))
def test_escaped_matches_definition_and_drives_every_gate(chain):
    first, second = chain
    inputs, outputs = rel.escaped(first, second)
    assert (inputs, outputs) == escaped_by_definition(first, second)
    assert rel.is_proper_for_isometries(first, second) == (not inputs)
    assert rel.is_proper_for_unitaries(first, second) == (not inputs and not outputs)
    assert rel.is_proper_for_channels(
        rel.full_coherence(first), rel.full_coherence(second)
    ) == (not inputs)

    f, g = follower(first), follower(second)
    input_side = ("input", inputs) if inputs else None
    expected = {
        "none": None,
        "isometry": input_side,
        "unitary": input_side or (("output", outputs) if outputs else None),
    }
    for mode, verdict in expected.items():
        assert_gate(lambda: checked_compose(g, f, mode=mode), verdict)
    assert_gate(lambda: checked_compose_channel(lift_pure(g), lift_pure(f)), input_side)


def test_escaped_names_the_spread_label():
    # 0 spreads onto a and b, but only a continues downstream
    first = Relation(IndexSet([0]), IndexSet(["a", "b"]), np.array([[1, 1]], dtype=bool))
    second = Relation(IndexSet(["a", "b"]), IndexSet(["z"]), np.array([[1], [0]], dtype=bool))
    assert rel.escaped(first, second) == (("b",), ())
    # the mirror: a and b merge into z, but only a is fed from upstream
    assert rel.escaped(rel.transpose(second), rel.transpose(first)) == ((), ("b",))


def test_escaped_requires_matching_interface():
    first = Relation.identity(IndexSet([0, 1]))
    second = Relation.identity(IndexSet([1, 0]))
    with pytest.raises(DomainMismatch):
        rel.escaped(first, second)
