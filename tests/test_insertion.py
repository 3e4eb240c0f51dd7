"""Insertion, which tests every candidate tuple of a slice in one planned
run, against the candidate-by-candidate insertion kept in
``elimination_oracle``, and the memory the one run takes."""

from __future__ import annotations

import time
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from routedcircuits import CircuitBuilder
from routedcircuits.circuits import Slice, _run
from routedcircuits.relations import Relation
from routedcircuits.routed_maps import RoutedMap, dagger
from routedcircuits.sampling import random_block_diagonal_unitary
from routedcircuits.spaces import PartitionedSpace, tensor_many

from elimination_oracle import accessible_by_insertion
from test_elimination import _line_with_a_vanishing_part, sliced_circuits


def one_run(circuit, cut) -> np.ndarray:
    """The one run: the 'insertion' program of every box and the slice."""
    return _run(circuit, "insertion", (), sorted(circuit.boxes), cut.wires)


def assert_matches_the_oracle(circuit, cut) -> None:
    got = one_run(circuit, cut)
    want = accessible_by_insertion(circuit, cut)
    assert got.dtype == want.dtype == bool
    assert got.shape == want.shape == tuple(circuit.wires[w].sector_labels.size for w in cut.wires)
    assert np.array_equal(got, want)


@st.composite
def insertion_cases(draw, mode: str):
    """A drawn sliced circuit, its slice sometimes emptied or cut down to a
    prefix: wires of one sector and routes that vanish off the slice come
    from ``sliced_circuits``."""
    circuit, cut = draw(sliced_circuits(mode))
    return circuit, Slice(cut.wires[: draw(st.integers(0, len(cut.wires)))])


class TestAgainstTheLoop:
    @settings(max_examples=300, deadline=None)
    @given(insertion_cases("pure"))
    def test_pure(self, drawn):
        assert_matches_the_oracle(*drawn)

    @settings(max_examples=150, deadline=None)
    @given(insertion_cases("cpm"))
    def test_cpm(self, drawn):
        assert_matches_the_oracle(*drawn)

    def test_empty_slice(self):
        for mode in ("pure", "cpm"):
            circuit = _line_with_a_vanishing_part(mode)
            assert_matches_the_oracle(circuit, Slice([]))
            assert one_run(circuit, Slice([])).shape == ()
            assert_matches_the_oracle(CircuitBuilder(mode).build(), Slice([]))

    def test_a_vanishing_part_off_the_slice(self):
        for mode in ("pure", "cpm"):
            circuit = _line_with_a_vanishing_part(mode)
            for wires in (["A1"], ["A0", "A2"], ["B1", "A1"]):
                assert_matches_the_oracle(circuit, Slice(wires))
                assert not one_run(circuit, Slice(wires)).any()

    def test_one_sector_wires(self):
        """A state on a one-sector wire and a two-sector wire; the one-sector
        wire has no variable, and its axis has length 1."""
        wide = PartitionedSpace.from_dims([0, 1], [1, 2])
        narrow = PartitionedSpace.trivial(2)
        both = tensor_many([narrow, wide])
        route = Relation.from_pairs(
            PartitionedSpace.trivial().sector_labels, both.sector_labels, [("*", ("*", 1))]
        )
        matrix = np.zeros((both.total_dim, 1))
        matrix[both.sector_range(("*", 1)).offset] = 1.0
        state = RoutedMap(route, matrix, PartitionedSpace.trivial(), both)
        builder = CircuitBuilder("pure").wire("n", narrow).wire("w", wide)
        circuit = builder.box("s", [], ["n", "w"], state).outputs("n", "w").build()
        for wires in (["n"], ["w"], ["w", "n"]):
            assert_matches_the_oracle(circuit, Slice(wires))
        assert one_run(circuit, Slice(["n", "w"])).tolist() == [[False, True]]


def one_particle_lines(lines: int, layers: int, rng):
    """One particle put on one of ``lines`` lines (a vacuum and a particle
    sector of dimension 1 each), ``layers`` block-diagonal unitaries per
    line, then taken off again: the slice after the first layer has
    2^lines candidates and ``lines`` accessible tuples."""
    line = PartitionedSpace.from_dims([0, 1], [1, 1])
    control = PartitionedSpace.trivial(lines)
    joint = tensor_many([line] * lines)
    onehots = [tuple(int(k == j) for k in range(lines)) for j in range(lines)]
    route = Relation.from_pairs(control.sector_labels, joint.sector_labels, [("*", o) for o in onehots])
    matrix = np.zeros((joint.total_dim, lines))
    for j, label in enumerate(onehots):
        matrix[joint.sector_range(label).offset, j] = 1.0
    encode = RoutedMap(route, matrix, control, joint)
    decode = dagger(encode)
    builder = CircuitBuilder("pure").wire("C", control).wire("C2", control)
    for j in range(lines):
        for t in range(layers + 1):
            builder.wire(f"L{j}_{t}", line)
        for t in range(layers):
            op = random_block_diagonal_unitary(line, rng)
            builder.box(f"u{j}_{t}", [f"L{j}_{t}"], [f"L{j}_{t + 1}"], op)
    builder.box("encode", ["C"], [f"L{j}_0" for j in range(lines)], encode)
    builder.box("decode", [f"L{j}_{layers}" for j in range(lines)], ["C2"], decode)
    circuit = builder.inputs("C").outputs("C2").build()
    return circuit, Slice([f"L{j}_1" for j in range(lines)]), onehots


def traced_insertion(lines: int, rng):
    """The one run on ``one_particle_lines(lines, 2)``, checked against the
    oracle and its accessible tuples: its peak traced memory and time."""
    circuit, cut, onehots = one_particle_lines(lines, 2, rng)
    assert_matches_the_oracle(circuit, cut)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        allowed = one_run(circuit, cut)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert allowed.size == 2**lines
    assert sorted(map(tuple, np.argwhere(allowed).tolist())) == sorted(onehots)
    return peak, elapsed


def test_one_run_over_512_candidates_stays_small(rng):
    """Nine lines: 512 candidates along the one candidate axis that the
    slice's test relations share.  The one run holds every candidate at
    once, so it peaks higher than the loop, which holds one (about 0.5 MB
    against 45 KB), but stays below 2 MB."""
    peak, elapsed = traced_insertion(9, rng)
    assert peak < 2 * 2**20, f"peak {peak} B in {elapsed:.3f} s"


def test_one_run_over_1024_candidates_stays_small(rng):
    """Ten lines: 1024 candidates.  No route table is copied per candidate,
    so the run peaks at about 2 MB, below 2.5 MB."""
    peak, elapsed = traced_insertion(10, rng)
    assert peak < 2.5 * 2**20, f"peak {peak} B in {elapsed:.3f} s"
