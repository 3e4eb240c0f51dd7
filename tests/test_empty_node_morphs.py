"""An empty node stands for an identity strand and takes no morphism,
wherever it sits: an inner empty node that normalisation removes and a
boundary strand that it keeps are both rejected, by the document reader
at the node's pointer (exit 2) and by ``interpret`` naming the node, as is
a morphism for a node the graph lacks.  The reader also needs a space for
every wire, a boundary strand's included."""

from __future__ import annotations

import json
import subprocess
import sys

import numpy as np
import pytest

from routedcircuits.errors import InvariantViolation, SchemaError
from routedcircuits.io import parse
from routedcircuits.iodag import (
    IODAG,
    IONode,
    Interpretation,
    Partition,
    interpret,
    node_route,
    wire_space,
)
from routedcircuits.routed_maps import RoutedMap

from conftest import child_env

SIGN = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]  # diag(1, -1)
IDENTITY = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
SECTORS = [{"dim": 1, "label": [0]}, {"dim": 1, "label": [1]}]

# x -> u -> m -> e -> y with e inner, and x -> e -> y with e a boundary strand
CHAINS = {
    "inner": ({"u": ("x", "m"), "e": ("m", "y")}, {"u": IDENTITY, "e": SIGN}),
    "boundary": ({"e": ("x", "y")}, {"e": SIGN}),
}


def chain_wires(chain: str) -> list[str]:
    return ["x", *(a for a, _ in CHAINS[chain][0].values() if a != "x"), "y"]


def document(chain: str) -> dict:
    (nodes, morphs), wires = CHAINS[chain], chain_wires(chain)
    return {
        "format_version": "1",
        "kind": "iodag",
        "inputs": ["x"],
        "outputs": ["y"],
        "edges": wires[1:-1],
        "nodes": [{"id": n, "in": [a], "out": [b]} for n, (a, b) in nodes.items()],
        "empty_nodes": ["e"],
        "indices": [{"name": f"k{w}", "wire": w, "class": "kx"} for w in wires],
        "interpretation": {
            "lengths": {f"k{w}": 2 for w in wires},
            "spaces": {w: SECTORS for w in wires},
            "morphs": {n: {"matrix": matrix} for n, matrix in morphs.items()},
        },
    }


def graph(chain: str) -> IODAG:
    nodes, wires = CHAINS[chain][0], chain_wires(chain)
    return IODAG(
        inputs=("x",),
        outputs=("y",),
        inner_edges=wires[1:-1],
        nodes={n: IONode((a,), (b,)) for n, (a, b) in nodes.items()},
        placement={f"k{w}": w for w in wires},
        equivalence=Partition.from_blocks([[f"k{w}" for w in wires]]),
        empty_nodes={"e"},
    )


def interpretation(g: IODAG, morphs: dict) -> Interpretation:
    lengths = dict.fromkeys(g.placement, 2)
    spaces = {w: wire_space(g, w, lengths) for w in g.wire_ids}
    return Interpretation(lengths, spaces, morphs)


def diagonal_map(g: IODAG, node_id: str, entries) -> RoutedMap:
    (a,), (b,), bare = g.nodes[node_id].inputs, g.nodes[node_id].outputs, interpretation(g, {})
    route = node_route(g, node_id, bare)
    return RoutedMap(route, np.diag(entries), bare.spaces[a], bare.spaces[b])


@pytest.mark.parametrize("chain", sorted(CHAINS))
def test_the_reader_rejects_a_morphism_for_an_empty_node(chain):
    with pytest.raises(SchemaError, match="empty node 'e' takes no morphism") as err:
        parse(json.dumps(document(chain)))
    assert err.value.location == "/interpretation/morphs/e"


def assert_cli_schema_error(data: dict, tmp_path, location: str, commands) -> None:
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(data))
    for command in commands:
        result = subprocess.run(
            [sys.executable, "-m", "routedcircuits.cli", command, str(path)],
            capture_output=True, text=True, env=child_env(),
        )
        assert result.returncode == 2, result.stderr
        payload = json.loads(result.stdout)
        assert payload["kind"] == "SchemaError"
        assert payload["error"].startswith(f"{location}: ")


@pytest.mark.parametrize("chain", sorted(CHAINS))
def test_the_cli_exits_two_on_a_morphism_for_an_empty_node(chain, tmp_path):
    location = "/interpretation/morphs/e"
    assert_cli_schema_error(document(chain), tmp_path, location, ("validate", "eval"))


def test_the_reader_needs_a_space_for_every_wire(tmp_path):
    """A boundary strand's wires touch no morphism, yet evaluation reads
    their spaces: one left out is reported where the spaces are."""
    data = document("boundary")
    del data["interpretation"]["morphs"]["e"]
    del data["interpretation"]["spaces"]["y"]
    with pytest.raises(SchemaError, match="no space for wire 'y'") as err:
        parse(json.dumps(data))
    assert err.value.location == "/interpretation/spaces"
    commands = ("validate", "eval", "explain")
    assert_cli_schema_error(data, tmp_path, "/interpretation/spaces", commands)


@pytest.mark.parametrize("chain", sorted(CHAINS))
def test_interpret_rejects_a_morphism_for_an_empty_node(chain):
    g = graph(chain)
    morphs = {n: diagonal_map(g, n, [1.0, 1.0]) for n in g.nodes if n not in g.empty_nodes}
    expected = interpret(g, interpretation(g, morphs))
    assert np.allclose(expected.matrix, np.eye(2))
    morphs["e"] = diagonal_map(g, "e", [1.0, -1.0])
    with pytest.raises(InvariantViolation, match="empty node 'e' takes no morphism"):
        interpret(g, interpretation(g, morphs))


def test_interpret_rejects_a_morphism_for_an_unknown_node():
    g = graph("inner")
    morphs = {"u": diagonal_map(g, "u", [1.0, 1.0]), "ghost": diagonal_map(g, "u", [1.0, 1.0])}
    with pytest.raises(InvariantViolation, match="unknown node 'ghost'"):
        interpret(g, interpretation(g, morphs))
