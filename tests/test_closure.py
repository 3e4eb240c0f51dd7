"""The paper's closure theorems on whole circuits: a circuit whose every
sequential interface passes the properness gate of ``check_circuit``,
built from practical isometries, practical unitaries or practically
trace-preserving channels, evaluates to one itself.  The circuits come
from ``conftest.gated_circuit``: 2-4 boxes on random routes, drawn again
until the gate passes."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from routedcircuits.circuits import evaluate
from routedcircuits.routed_cpms import is_practically_trace_preserving
from routedcircuits.routed_maps import is_practical_isometry, is_practical_unitary

from conftest import gated_circuit

SEEDS = st.integers(0, 2**32 - 1)


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
