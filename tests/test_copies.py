"""Copies of frozen values are rebuilt through their constructors: a deep
copy or a pickle round trip of a relation, a routed map or a routed CP map
holds read-only arrays that share memory as the original's do, and equals
it; a copied circuit evaluates to the same bits and shares the compiled
programs of the original's shape; a copied indexed graph derives its names
per wire again and reads and lints as the original does."""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from routedcircuits.circuits import Slice, accessible_space, check_circuit, evaluate
from routedcircuits.io import load_bundled
from routedcircuits.iodag import IndexFamily, lint
from routedcircuits.sampling import random_coherent_cpm, random_relation, random_space

from conftest import make_two_trajectory_circuit, random_circuit, sample_routed_map
from test_iodag_index import lookups
from test_programs import gate_programs

COPIES = [copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))]
COPY_IDS = ["deepcopy", "pickle"]


def values():
    rng = np.random.default_rng(5)
    domain, codomain = random_space(rng, 3, 2), random_space(rng, 3, 2)
    routed = sample_routed_map(domain, codomain, rng)
    route = random_relation(domain.sector_labels, codomain.sector_labels, rng, 0.7)
    channel = random_coherent_cpm(route, domain, codomain, rng, count=3)
    return [routed.route, channel.route, routed, channel]


@pytest.mark.parametrize("copier", COPIES, ids=COPY_IDS)
@pytest.mark.parametrize("value", values(), ids=["relation", "cp relation", "map", "channel"])
def test_copies_are_read_only_equal_and_share_their_views(copier, value):
    copied = copier(value)
    assert type(copied) is type(value) and copied == value
    arrays = [copied.matrix] if hasattr(copied, "matrix") else []
    if hasattr(copied, "kraus_stack"):
        arrays += [copied.kraus_stack, *getattr(copied, "kraus", ())]
        for array in arrays:
            assert np.shares_memory(array, copied.kraus_stack)
        assert not np.shares_memory(copied.kraus_stack, value.kraus_stack)
    assert arrays
    for array in arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = not array[(0,) * array.ndim]


def outcomes(circuit, gate: str) -> list:
    op = evaluate(circuit)
    out = [op.route, op.domain, op.codomain, op.kraus_stack.tobytes(), check_circuit(circuit, gate)]
    for algorithm in ("recipe", "insertion"):
        out.append(accessible_space(circuit, Slice(circuit.output_wires), algorithm))
    return out


@pytest.mark.parametrize("copier", COPIES, ids=COPY_IDS)
def test_copied_circuits_evaluate_to_the_same_bits(copier):
    pure, _ = make_two_trajectory_circuit(np.random.default_rng(3))
    cpm = random_circuit(np.random.default_rng(4), n_boxes=4, mode="cpm")
    for circuit, gate in ((pure, "unitary"), (cpm, "channel")):
        copied = copier(circuit)
        assert copied is not circuit and copied._shape == circuit._shape
        assert outcomes(copied, gate) == outcomes(circuit, gate)
        shared = zip(gate_programs(copied), gate_programs(circuit), strict=True)
        assert all(a is b for a, b in shared)
        for box_id, box in copied.boxes.items():
            assert not box.op.kraus_stack.flags.writeable
            assert box.op == circuit.boxes[box_id].op



@pytest.mark.parametrize("copier", COPIES, ids=COPY_IDS)
def test_copied_indexed_graphs_read_and_lint_as_the_original(copier):
    doc = load_bundled("diamond.json")
    graph, interp = doc.payload, doc.interpretation
    for value in (graph, interp, IndexFamily(interp.lengths), doc):
        copied = copier(value)
        assert type(copied) is type(value) and copied == value
    copied = copier(graph)
    assert copied._names_on is not graph._names_on
    assert lookups(copied) == lookups(graph)
    for mode in ("iso", "uni"):
        assert lint(copied, mode) == lint(graph, mode)
