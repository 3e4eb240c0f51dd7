"""The paper's closure theorems on whole circuits: a circuit whose every
sequential interface passes the properness gate of ``check_circuit``,
built from practical isometries, practical unitaries or practically
trace-preserving channels, evaluates to one itself.  The circuits come
from ``conftest.gated_circuit``: 2-4 boxes on random routes, drawn again
until the gate passes.  Likewise an indexed graph that passes ``lint``,
interpreted by practical isometries or unitaries on its nodes' matching
routes, interprets to one; and the one routed circuit that ``interpret``
evaluates passes the gate, which is the paper's reading of an indexed
graph as a special case of a routed circuit.  The converse is false:
``lint`` is strictly stronger than the gate."""

from __future__ import annotations

import ast
import pathlib
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from routedcircuits import circuits
from routedcircuits.circuits import check_circuit, evaluate
from routedcircuits.iodag import Interpretation, interpret, lint, node_route, wire_space
from routedcircuits.routed_cpms import is_practically_trace_preserving
from routedcircuits.routed_maps import is_practical_isometry, is_practical_unitary
from routedcircuits.sampling import random_practical_isometry, random_practical_unitary
from routedcircuits.spaces import tensor_many

from conftest import gated_circuit
from iodag_oracle import interpret_pairwise
from test_iodag_index import graphs

SEEDS = st.integers(0, 2**32 - 1)
SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "routedcircuits"


@settings(max_examples=100, deadline=None)
@given(SEEDS)
def test_a_gated_circuit_of_practical_isometries_is_one(seed):
    result = evaluate(gated_circuit(np.random.default_rng(seed), "isometry"))
    assert is_practical_isometry(result)


@settings(max_examples=100, deadline=None)
@given(SEEDS)
def test_a_gated_circuit_of_practical_unitaries_is_one(seed):
    result = evaluate(gated_circuit(np.random.default_rng(seed), "unitary"))
    assert is_practical_unitary(result)


@settings(max_examples=100, deadline=None)
@given(SEEDS)
def test_a_gated_circuit_of_trace_preserving_channels_is_one(seed):
    result = evaluate(gated_circuit(np.random.default_rng(seed), "channel"))
    assert is_practically_trace_preserving(result)


@st.composite
def interpreted_graphs(draw, mode: str):
    """A graph from ``test_iodag_index.graphs`` that passes ``lint`` in
    ``mode``, with one sector dimension for every wire, a length of 1 or 2
    per index class, and each node's morphism drawn on its matching route
    (a practical isometry for 'iso', a practical unitary for 'uni')."""
    g = draw(graphs())
    assume(lint(g, mode).passed)
    lengths = {}
    for block in g.equivalence.blocks():
        lengths.update(dict.fromkeys(block, draw(st.integers(1, 2))))
    dim = draw(st.integers(1, 2))
    spaces = {w: wire_space(g, w, lengths, dim) for w in g.wire_ids}
    partial = Interpretation(lengths, spaces, {})
    sampler = random_practical_isometry if mode == "iso" else random_practical_unitary
    rng = np.random.default_rng(draw(SEEDS))
    morphs = {}
    for node_id, node in g.nodes.items():
        if node_id not in g.empty_nodes:
            ends = (tensor_many([spaces[w] for w in ws]) for ws in (node.inputs, node.outputs))
            morphs[node_id] = sampler(node_route(g, node_id, partial), *ends, rng)
            assume(morphs[node_id] is not None)
    return g, Interpretation(lengths, spaces, morphs)


def interpreted(drawn, mode: str):
    """What ``interpret`` returns on ``drawn``, and the one circuit it
    evaluated to get it."""
    with mock.patch.object(circuits, "evaluate", wraps=circuits.evaluate) as spy:
        result = interpret(*drawn, mode=mode)
    (circuit,), _ = spy.call_args
    assert spy.call_count == 1
    return result, circuit


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(interpreted_graphs("iso"))
def test_a_lint_passing_graph_of_practical_isometries_interprets_to_one(drawn):
    result, circuit = interpreted(drawn, "iso")
    assert is_practical_isometry(result)
    assert check_circuit(circuit, "isometry").passed


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(interpreted_graphs("uni"))
def test_a_lint_passing_graph_of_practical_unitaries_interprets_to_one(drawn):
    result, circuit = interpreted(drawn, "uni")
    assert is_practical_unitary(result)
    assert check_circuit(circuit, "unitary").passed


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(st.data())
def test_interpret_agrees_with_the_pairwise_composition(data):
    mode = data.draw(st.sampled_from(["iso", "uni"]))
    drawn = data.draw(interpreted_graphs(mode))
    result, expected = interpret(*drawn, mode=mode), interpret_pairwise(*drawn)
    assert result.route == expected.route
    assert (result.domain, result.codomain) == (expected.domain, expected.codomain)
    assert np.allclose(result.matrix, expected.matrix, rtol=0, atol=1e-12)


def test_iodag_composes_no_maps_pairwise():
    """An interpretation is one evaluated circuit: ``iodag`` neither calls
    nor imports a ``compose``."""
    tree = ast.parse((SRC / "iodag.py").read_text(encoding="utf-8"))
    called = {
        getattr(node.func, "id", getattr(node.func, "attr", None))
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
    }
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert "compose" not in called | imported
