"""A boundary strand (an empty node from an input wire to an output wire)
is read as its matching projector: the identity on every sector block its
matching route allows.  So a graph that passes ``lint`` interprets even
when a wire carries two names of one class, where the strand is no
identity: only the sectors whose matched names agree pass.  An inner empty
node is read as its matching projector too, on the graph as given (its
wires are never merged), so a strand between sectors of unequal dimension
is blamed on itself, and one that crosses classes keeps its permutation."""

from __future__ import annotations

import contextlib
import io
import json
import re

import numpy as np
import pytest

from routedcircuits import cli
from routedcircuits.errors import InvariantViolation
from routedcircuits.iodag import IODAG, Interpretation, IONode, Partition, interpret, lint
from routedcircuits.iodag import node_route, wire_space
from routedcircuits.routed_maps import RoutedMap, is_practical_isometry, is_practical_unitary
from routedcircuits.spaces import PartitionedSpace


def strand(classes: dict[str, str]) -> IODAG:
    """``i -> e -> o`` with ``e`` empty, names ``a``, ``b`` on ``i`` and ``c``,
    ``d`` on ``o``, each name in the class ``classes`` gives it."""
    blocks: dict[str, list[str]] = {}
    for name, tag in classes.items():
        blocks.setdefault(tag, []).append(name)
    return IODAG(
        ("i",), ("o",), (), {"e": IONode(["i"], ["o"])},
        {"a": "i", "b": "i", "c": "o", "d": "o"},
        Partition(classes, blocks.values()),
        frozenset({"e"}),
    )


ONE_CLASS = {"a": "x", "b": "x", "c": "x", "d": "x"}
CROSSED = {"a": "x", "b": "y", "c": "y", "d": "x"}  # sorted on 'o': y's name first


def interpretation(g: IODAG, length: int, dims=1) -> Interpretation:
    lengths = dict.fromkeys(g.placement, length)
    return Interpretation(lengths, {w: wire_space(g, w, lengths, dims) for w in g.wire_ids}, {})


@pytest.mark.parametrize("mode", ["iso", "uni"])
@pytest.mark.parametrize("length", [1, 2])
def test_two_names_of_one_class_on_each_wire(mode, length):
    g = strand(ONE_CLASS)
    assert lint(g, mode).passed
    meaning = interpret(g, interpretation(g, length), mode)
    # the value pairs (v, w) in row-major order; only v == w passes
    passing = [v == w for v in range(length) for w in range(length)]
    assert np.array_equal(meaning.matrix, np.diag(passing).astype(complex))
    assert is_practical_isometry(meaning) and is_practical_unitary(meaning)


@pytest.mark.parametrize("mode", ["iso", "uni"])
@pytest.mark.parametrize("length", [1, 2])
def test_the_reproduction_evaluates_through_the_cli(mode, length):
    sectors = [
        {"label": [v, w], "dim": 1} for v in range(length) for w in range(length)
    ]
    document = {
        "format_version": "1", "kind": "iodag", "inputs": ["i"], "outputs": ["o"],
        "edges": [], "nodes": [{"id": "e", "in": ["i"], "out": ["o"]}], "empty_nodes": ["e"],
        "indices": [{"name": n, "wire": w, "class": "x"} for n, w in zip("abcd", "iioo")],
        "interpretation": {
            "lengths": dict.fromkeys("abcd", length),
            "spaces": {"i": sectors, "o": sectors},
            "morphs": {},
        },
    }
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(["eval", json.dumps(document), "--iodag-mode", mode])
    report = json.loads(stdout.getvalue())
    assert code == 0, report
    assert report["practical_isometry"] and report["practical_unitary"]


def test_one_name_per_class_is_still_the_identity():
    g = strand({"a": "x", "b": "y", "c": "x", "d": "y"})
    interp = interpretation(g, 2, dims=2)
    assert interpret(g, interp, "uni") == RoutedMap.identity(interp.spaces["i"])


def test_crossed_classes_pair_swapped_sectors():
    g = strand(CROSSED)
    meaning = interpret(g, interpretation(g, 2), "uni")
    # sector (a, b) = (v, w) of 'i' goes to sector (c, d) = (w, v) of 'o'
    swap = np.zeros((4, 4))
    for v in range(2):
        for w in range(2):
            swap[2 * w + v, 2 * v + w] = 1
    assert np.array_equal(meaning.matrix, swap)
    assert is_practical_unitary(meaning)


def test_a_paired_block_must_be_square():
    g = strand(CROSSED)
    dims = {(0, 0): 1, (0, 1): 1, (1, 0): 2, (1, 1): 1}
    with pytest.raises(InvariantViolation, match="empty node 'e' pairs sector"):
        interpret(g, interpretation(g, 2, dims), "iso")


#: ``x -> [n] -> y -> [e, empty] -> z`` with no indices: ``e`` pairs the one
#: sector of ``y``, of dimension 1, with that of ``z``, of dimension 2
WIDER = {
    "format_version": "1", "kind": "iodag", "inputs": ["x"], "outputs": ["z"], "edges": ["y"],
    "nodes": [{"id": "n", "in": ["x"], "out": ["y"]}, {"id": "e", "in": ["y"], "out": ["z"]}],
    "empty_nodes": ["e"], "indices": [],
    "interpretation": {
        "lengths": {},
        "spaces": {w: [{"label": "*", "dim": d}] for w, d in zip("xyz", (1, 1, 2))},
        "morphs": {"n": {"matrix": [[[1.0, 0.0]]]}},
    },
}
UNEQUAL = "empty node 'e' pairs sector '\\*' of dimension 1 with sector '\\*' of dimension 2"


def test_an_inner_strand_between_unequal_sectors_is_blamed_on_itself():
    """Merging ``y`` into ``z`` would blame ``n``; the strand's projector
    is built on the graph as given."""
    g = IODAG(
        ("x",), ("z",), ("y",), {"n": IONode(["x"], ["y"]), "e": IONode(["y"], ["z"])},
        {}, Partition({}, ()), frozenset({"e"}),
    )
    one = PartitionedSpace.trivial(1)
    spaces = {"x": one, "y": one, "z": PartitionedSpace.trivial(2)}
    interp = Interpretation({}, spaces, {"n": RoutedMap.identity(one)})
    with pytest.raises(InvariantViolation, match=UNEQUAL):
        interpret(g, interp, "iso")


def test_the_cli_blames_the_inner_strand():
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(["eval", json.dumps(WIDER)])
    report = json.loads(stdout.getvalue())
    assert code == 1
    assert report["kind"] == "InvariantViolation"
    assert re.search(UNEQUAL, report["error"])


#: ``x -> [n] -> y -> [e, empty] -> z`` with ``a``, ``b`` on ``y`` and ``c``,
#: ``d`` on ``z``: ``e`` crosses the classes ``{a, d}`` and ``{b, c}``
CROSSING = IODAG(
    ("x",), ("z",), ("y",), {"n": IONode(["x"], ["y"]), "e": IONode(["y"], ["z"])},
    {"a": "y", "b": "y", "c": "z", "d": "z"}, Partition("abcd", ["ad", "bc"]), frozenset({"e"}),
)


@pytest.mark.parametrize("mode", ["iso", "uni"])
@pytest.mark.parametrize("ad, bc", [(2, 2), (2, 3)], ids=["lengths 2", "lengths 2 and 3"])
def test_an_inner_strand_that_crosses_classes_keeps_its_permutation(mode, ad, bc):
    """``n`` is a unitary on its route on the graph as given, and ``e``
    sends sector ``(a, b) = (v, w)`` of ``y`` to ``(c, d) = (w, v)`` of
    ``z``: so the result is ``n``'s matrix with its rows in that order.
    Merging ``y`` into ``z`` swapped two rows at lengths 2, and at lengths
    2 and 3 it gave ``n`` a route of other labels, so ``n`` was refused."""
    g = CROSSING
    assert lint(g, mode).passed
    lengths = {"a": ad, "d": ad, "b": bc, "c": bc}
    spaces = {w: wire_space(g, w, lengths) for w in "yz"}
    spaces["x"] = PartitionedSpace.trivial(ad * bc)
    unitary = np.fft.fft(np.eye(ad * bc)) / np.sqrt(ad * bc)
    route = node_route(g, "n", Interpretation(lengths, spaces, {}))
    morph = RoutedMap(route, unitary, spaces["x"], spaces["y"])
    meaning = interpret(g, Interpretation(lengths, spaces, {"n": morph}), mode)
    rows = [spaces["y"].sector_labels.position((v, w)) for w, v in spaces["z"].sector_labels]
    assert (meaning.domain, meaning.codomain) == (spaces["x"], spaces["z"])
    assert np.allclose(meaning.matrix, unitary[rows], rtol=0, atol=1e-12)
    assert rows != sorted(rows)
    assert is_practical_unitary(meaning)
