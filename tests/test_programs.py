"""The compiled programs of ``circuits``: one per network and circuit
shape, behind one bounded cache.  The cached path against a build of
every program and plan afresh, circuits of one shape with their own
arrays, shapes that differ in one Kraus count or one sector dimension,
nothing mutable inside a program, repeated calls that compile nothing,
and one runner for every kind.  Also the diagonal view that CPM route
tables are read from."""

from __future__ import annotations

import ast
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routedcircuits import CircuitBuilder, PartitionedSpace, Relation, RoutedMap
from routedcircuits import circuits
from routedcircuits import relations as rel
from routedcircuits.circuits import (
    Slice,
    _compiled,
    _program,
    accessible_space,
    check_circuit,
    evaluate,
)
from routedcircuits.sampling import (
    random_block_diagonal_unitary,
    random_sector_preserving_channel,
    random_unitary,
)
from routedcircuits.wiregraph import _walk

from conftest import random_circuit
from test_contraction import rare_circuits
from test_relations import composable


def gate_of(circuit) -> str:
    return "channel" if circuit.mode == "cpm" else "isometry"


def slices(circuit) -> list[Slice]:
    """Every single wire, the inputs and the outputs: each an antichain."""
    wires = [[w] for w in sorted(circuit.wires)]
    return [Slice(w) for w in wires + [circuit.input_wires, circuit.output_wires]]


def results(circuit, box_order=None) -> list:
    """Everything the programs compute on ``circuit``, as comparable values:
    the evaluation's route, spaces, tolerance and operator stack (so its
    Kraus order), the gate report and every accessible space."""
    op = evaluate(circuit, box_order)
    out = [op.route, op.domain, op.codomain, op.tolerance, op.kraus_stack.tobytes()]
    out.append(op.kraus_stack.shape)
    out.append(check_circuit(circuit, gate_of(circuit)))
    for cut in slices(circuit):
        out += [accessible_space(circuit, cut, algorithm) for algorithm in ("recipe", "insertion")]
    return out


def uncached_results(circuit, box_order=None) -> list:
    """:func:`results` with every program and plan built afresh."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(circuits, "_compiled", circuits._compiled.__wrapped__)
        return results(circuit, box_order)


def walk(value):
    """Every value inside a program, at any depth."""
    yield value
    if isinstance(value, tuple):
        for item in value:
            yield from walk(item)


def gate_programs(circuit) -> list:
    """The 'routes' programs :func:`check_circuit` reads: per foliation
    step, from its inputs to the next step's (the last step's outputs)."""
    steps = list(_walk(circuit.input_wires, circuit.boxes, circuit._layers))
    afters = [step.inputs for step in steps[1:]] + [step.outputs for step in steps[-1:]]
    return [_program(circuit, "routes", s.inputs, s.layer, a) for s, a in zip(steps, afters)]


def programs(circuit) -> list:
    cut = Slice(circuit.output_wires)
    kinds = [
        ("operators", circuit.input_wires, sorted(circuit.boxes), circuit.output_wires),
        ("routes", circuit.input_wires, sorted(circuit.boxes), circuit.output_wires),
        ("coherence", circuit.input_wires, sorted(circuit.boxes), circuit.output_wires),
        ("insertion", (), sorted(circuit.boxes), cut.wires),
    ]
    return gate_programs(circuit) + [_program(circuit, *kind) for kind in kinds]


class TestCachedEqualsFresh:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.sampled_from(["pure", "cpm"]))
    def test_random_circuits(self, seed, boxes, mode):
        circuit = random_circuit(np.random.default_rng(seed), n_boxes=boxes, mode=mode)
        results(circuit)  # compiles
        assert results(circuit) == uncached_results(circuit)

    @pytest.mark.parametrize("mode", ["pure", "cpm"])
    def test_rare_shapes(self, mode):
        for circuit, order in rare_circuits(mode):
            for box_order in (None, order):
                results(circuit, box_order)
                assert results(circuit, box_order) == uncached_results(circuit, box_order)


def line_circuit(seed=0, mode="pure", labels=(0, 1), dims=(1, 2), counts=(1, 1), full=False):
    """A line of two boxes on a two-sector wire: block-diagonal unitaries,
    or channels of ``counts`` operators; with ``full``, the second box is a
    unitary mixing the sectors, on the full route."""
    rng = np.random.default_rng(seed)
    line = PartitionedSpace.from_dims(labels, dims)
    builder = CircuitBuilder(mode)
    for t in range(3):
        builder.wire(f"x{t}", line)
    for t, count in enumerate(counts):
        if mode == "cpm":
            op = random_sector_preserving_channel(line, rng, count=count)
        elif full and t == 1:
            route = Relation.full(line.sector_labels, line.sector_labels)
            op = RoutedMap(route, random_unitary(line.total_dim, rng), line, line)
        else:
            op = random_block_diagonal_unitary(line, rng)
        builder.box(f"u{t}", [f"x{t}"], [f"x{t + 1}"], op)
    return builder.inputs("x0").outputs("x2").build()


@pytest.mark.parametrize(
    "first, second",
    [
        (line_circuit(seed=1), line_circuit(seed=2)),
        (line_circuit(), line_circuit(full=True)),
        (line_circuit(), line_circuit(labels=("a", "b"))),
        (line_circuit(mode="cpm", counts=(2, 2)), line_circuit(seed=3, mode="cpm", counts=(2, 2))),
    ],
    ids=["matrices", "routes", "labels", "channels"],
)
def test_one_shape_shares_programs_but_not_results(first, second):
    assert first._shape == second._shape
    assert all(a is b for a, b in zip(programs(first), programs(second)))
    assert results(first) != results(second)
    for circuit in (first, second):
        assert results(circuit) == uncached_results(circuit)


@pytest.mark.parametrize(
    "first, second",
    [
        (line_circuit(mode="cpm", counts=(2, 1)), line_circuit(mode="cpm", counts=(1, 1))),
        (line_circuit(dims=(1, 2)), line_circuit(dims=(2, 1))),
    ],
    ids=["kraus count", "sector dimensions"],
)
def test_one_count_or_dimension_apart_gets_its_own_programs(first, second):
    assert first._shape != second._shape
    assert all(a is not b for a, b in zip(programs(first), programs(second)))
    for circuit in (first, second):
        assert results(circuit) == uncached_results(circuit)
    counts = [len(evaluate(c).kraus_stack) for c in (first, second)]
    assert counts == ([2, 1] if first.mode == "cpm" else [1, 1])


@pytest.mark.parametrize("mode", ["pure", "cpm"])
def test_programs_hold_nothing_mutable(mode):
    circuits_ = [random_circuit(np.random.default_rng(seed), mode=mode) for seed in range(5)]
    circuits_ += [circuit for circuit, _ in rare_circuits(mode)]
    arrays = 0
    for circuit in circuits_:
        for value in (v for program in programs(circuit) for v in walk(program)):
            assert not isinstance(value, (list, dict, set)), value
            if isinstance(value, np.ndarray):
                assert not value.flags.writeable
                arrays += 1
    assert arrays  # the identities, gathers and test tables are there


def test_an_unknown_kind_compiles_nothing():
    circuit = line_circuit()
    with pytest.raises(KeyError):
        _program(circuit, "check", circuit.input_wires, ["u0"], ["x1"])


def test_one_runner_runs_every_program():
    """Only ``_run`` names the plan runners in ``circuits``, so a new program
    kind gets a branch in ``_tables`` and ``_run``, not a runner of its own."""
    tree = ast.parse(pathlib.Path(circuits.__file__).read_text(encoding="utf-8"))
    runners = {"_run_plan", "_run_contraction"}
    named = {
        (getattr(node, "name", None), name.id)
        for node in tree.body
        for name in ast.walk(node)
        if isinstance(name, ast.Name) and name.id in runners
    }
    assert named == {("_run", runner) for runner in runners}


def test_programs_are_the_only_plan_cache():
    """The planners keep no cache of their own, and nothing else in the
    module is cached: the programs are its one cache."""
    cached = {name for name, value in vars(circuits).items() if hasattr(value, "cache_info")}
    assert cached == {"_compiled"}


def test_cache_stays_within_its_bound():
    bound = _compiled.cache_info().maxsize
    for dim in range(1, bound + 20):
        space = PartitionedSpace.trivial(dim)
        evaluate(CircuitBuilder("pure").wire("a", space).inputs("a").outputs("a").build())
        assert _compiled.cache_info().currsize <= bound
    assert _compiled.cache_info().currsize == bound


@pytest.mark.parametrize("mode", ["pure", "cpm"])
def test_repeated_calls_compile_nothing(mode, monkeypatch):
    """After one warm-up, a circuit of a shape already seen runs with the
    network builder and both planners gone."""
    circuit = random_circuit(np.random.default_rng(7), n_boxes=6, mode=mode)
    again = random_circuit(np.random.default_rng(7), n_boxes=6, mode=mode)
    before = results(circuit)

    def fail(*args):
        raise AssertionError("compiled again")

    for name in ("_network", "_contraction_plan", "_elimination_plan"):
        monkeypatch.setattr(circuits, name, fail)
    assert results(circuit) == before
    assert results(again) == before


@settings(max_examples=100, deadline=None)
@given(composable(max_size=6, cp=True))
def test_diagonal_view_is_the_diagonal_relation(pair):
    for route in pair:
        view = rel.diagonal_view(route)
        assert np.array_equal(view, rel.diagonal(route).matrix)
        assert view.shape == (route.base_domain.size, route.base_codomain.size)
        assert not view.flags.writeable
        assert np.shares_memory(view, route.matrix)
