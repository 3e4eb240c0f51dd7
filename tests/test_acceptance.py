"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdicts.
"""

from __future__ import annotations

import itertools
import time

import numpy as np
import pytest

from routedcircuits import relations as rel
from routedcircuits import routed_cpms as rc
from routedcircuits.circuits import Slice, accessible_space, check_circuit, evaluate
from routedcircuits.errors import ImproperComposition, InterfaceMismatch
from routedcircuits.io import load_bundled
from routedcircuits.iodag import (
    Corelation,
    IndexFamily,
    Interpretation,
    Partition,
    bar,
    compose_corelations,
    interpret,
    lint,
    node_route,
    seq_compose_iodag,
    total_corelation,
    wire_space,
)
from routedcircuits.relations import IndexSet, Relation
from routedcircuits.routed_cpms import (
    RoutedCPM,
    adapted_kraus_decomposition,
    checked_compose_channel,
    choi_matrix,
    discard,
    follows_cp,
    is_practically_trace_preserving,
    kraus_follow_diagonal,
    lift_pure,
    tensor_cpm,
)
from routedcircuits.routed_maps import (
    RoutedMap,
    checked_compose,
    is_practical_isometry,
    is_practical_unitary,
)
from routedcircuits.sampling import (
    random_decohered_cpm,
    random_kraus_following,
    random_matrix_following,
    random_practical_isometry,
    random_practical_unitary,
    random_relation,
    random_space,
)
from routedcircuits.spaces import PartitionedSpace, tensor, tensor_many

import partition_oracle
from iodag_oracle import compose_corelations_by_layers
from conftest import make_two_trajectory_circuit, random_circuit
from test_iodag import _set_partitions, diamond_graph


def verdict(number: int, ok: bool, text: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok


def test_criterion_1_two_trajectory_circuit():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    circuit, _ = make_two_trajectory_circuit(rng)
    result = evaluate(circuit)
    unitary = is_practical_unitary(result, 1e-9)
    report = check_circuit(circuit, "unitary")
    elapsed = time.perf_counter() - start
    verdict(
        1,
        unitary and report.passed and elapsed < 1.0,
        f"two-trajectory circuit is a gated practical unitary ({elapsed:.3f}s)",
    )


def test_criterion_2_accessible_space_exactness():
    two = load_bundled("two_trajectories.json").payload
    three = load_bundled("three_trajectories.json").payload
    copyd = load_bundled("copy_discard.json").payload

    ok = set(accessible_space(two, Slice(["A", "B"])).tuples) == {(1, 0), (0, 1)}
    ok &= set(accessible_space(three, Slice(["A", "B", "Cq"])).tuples) == {
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
    }

    # the middle layer on its own: accessible equals formal
    line = two.wires["A"]
    from routedcircuits.circuits import CircuitBuilder

    builder = CircuitBuilder("pure")
    builder.wire("A", line).wire("B", line).wire("A2", line).wire("B2", line)
    builder.inputs("A", "B").outputs("A2", "B2")
    builder.box("alice", ["A"], ["A2"], two.boxes["alice"].op)
    builder.box("bob", ["B"], ["B2"], two.boxes["bob"].op)
    middle = builder.build()
    ok &= set(accessible_space(middle, Slice(["A", "B"])).tuples) == {
        (0, 0), (0, 1), (1, 0), (1, 1),
    }

    agree = True
    special = {
        id(two): [["A", "B"], ["M", "C"], ["A2", "B2"]],
        id(three): [["A", "B", "Cq"], ["M", "C"]],
        id(copyd): [["B", "Cc"]],
    }
    for circuit in (two, three, copyd, middle):
        slices = [[w] for w in circuit.wires] + special.get(id(circuit), [])
        for wires in slices:
            recipe = accessible_space(circuit, Slice(wires), algorithm="recipe")
            oracle = accessible_space(circuit, Slice(wires), algorithm="insertion")
            agree &= recipe.tuples == oracle.tuples
    verdict(2, ok and agree, "accessible spaces exact; recipe and insertion agree")


def test_criterion_3_copy_discard_decoherence():
    rng = np.random.default_rng(103)
    source = PartitionedSpace.trivial(2)
    bit = PartitionedSpace.from_dims([0, 1], [1, 1])
    bc = tensor(bit, bit)
    copy_rel = Relation.from_pairs(
        source.sector_labels, bc.sector_labels, [("*", (0, 0)), ("*", (1, 1))]
    )
    second = tensor_cpm(discard(bit), RoutedCPM.identity(bit))
    route_ok = True
    choi_ok = True
    for _ in range(50):
        kraus = tuple(
            random_matrix_following(copy_rel, source, bc, rng)
            for _ in range(int(rng.integers(1, 3)))
        )
        copier = RoutedCPM(rel.full_coherence(copy_rel), kraus, source, bc)
        composed = rc.compose(second, copier)
        expected = rel.full_decoherence(
            Relation.full(source.sector_labels, composed.codomain.sector_labels)
        )
        route_ok &= composed.route == expected
        choi = composed.choi().reshape(2, 2, 2, 2)
        off = max(abs(choi[0, :, 1, :]).max(), abs(choi[1, :, 0, :]).max())
        choi_ok &= off <= 1e-9
    verdict(3, route_ok and choi_ok, "discarding a copy decoheres the survivor")


def _sample_proper_isometry_pair(rng):
    while True:
        domain = random_space(rng, max_sectors=3, max_dim=2)
        mid = random_space(rng, max_sectors=3, max_dim=2)
        lam = random_relation(domain.sector_labels, mid.sector_labels, rng, 0.6)
        if not lam.matrix.any():
            continue
        f = random_practical_isometry(lam, domain, mid, rng)
        if f is None:
            continue
        codomain = random_space(rng, max_sectors=3, max_dim=2)
        sigma = random_relation(mid.sector_labels, codomain.sector_labels, rng, 0.6)
        if not sigma.matrix.any() or not rel.is_proper_for_isometries(lam, sigma):
            continue
        g = random_practical_isometry(sigma, mid, codomain, rng)
        if g is None:
            continue
        return f, g


def _sample_proper_unitary_pair(rng):
    while True:
        domain = random_space(rng, max_sectors=3, max_dim=2)
        mid = random_space(rng, max_sectors=3, max_dim=2)
        lam = random_relation(domain.sector_labels, mid.sector_labels, rng, 0.6)
        f = random_practical_unitary(lam, domain, mid, rng)
        if f is None:
            continue
        codomain = random_space(rng, max_sectors=3, max_dim=2)
        sigma = random_relation(mid.sector_labels, codomain.sector_labels, rng, 0.6)
        if not rel.is_proper_for_unitaries(lam, sigma):
            continue
        g = random_practical_unitary(sigma, mid, codomain, rng)
        if g is None:
            continue
        return f, g


def _sample_proper_channel_pair(rng):
    while True:
        domain = random_space(rng, max_sectors=3, max_dim=2)
        mid = random_space(rng, max_sectors=3, max_dim=2)
        lam = random_relation(domain.sector_labels, mid.sector_labels, rng, 0.6)
        if not lam.matrix.any():
            continue
        if rng.random() < 0.5:
            first = random_decohered_cpm(lam, domain, mid, rng, trace_preserving=True)
            if not is_practically_trace_preserving(first):
                continue
        else:
            f = random_practical_isometry(lam, domain, mid, rng)
            if f is None:
                continue
            first = lift_pure(f)
        codomain = random_space(rng, max_sectors=3, max_dim=2)
        sigma = random_relation(mid.sector_labels, codomain.sector_labels, rng, 0.6)
        if not sigma.matrix.any() or not rel.is_proper_for_isometries(lam, sigma):
            continue
        if rng.random() < 0.5:
            second = random_decohered_cpm(sigma, mid, codomain, rng, trace_preserving=True)
            if not is_practically_trace_preserving(second):
                continue
        else:
            g = random_practical_isometry(sigma, mid, codomain, rng)
            if g is None:
                continue
            second = lift_pure(g)
        return first, second


def test_criterion_4_gated_composition_suite():
    rng = np.random.default_rng(104)
    start = time.perf_counter()
    for _ in range(500):
        f, g = _sample_proper_isometry_pair(rng)
        assert is_practical_isometry(checked_compose(g, f, mode="isometry"), 1e-9)
    for _ in range(500):
        f, g = _sample_proper_unitary_pair(rng)
        assert is_practical_unitary(checked_compose(g, f, mode="unitary"), 1e-9)
    for _ in range(500):
        first, second = _sample_proper_channel_pair(rng)
        assert is_practically_trace_preserving(
            checked_compose_channel(second, first), 1e-9
        )

    # hand-built improper pairs, one per mode, with their witnesses
    start_space = PartitionedSpace.trivial(1)
    mid = PartitionedSpace.from_dims([0, 1], [1, 1])
    lam = Relation.full(start_space.sector_labels, mid.sector_labels)
    spread = random_practical_isometry(lam, start_space, mid, rng)
    sigma = Relation(mid.sector_labels, IndexSet.trivial(), np.array([[1], [0]], bool))
    collapse = RoutedMap(sigma, np.array([[1.0, 0.0]]), mid, PartitionedSpace.trivial(1))
    with pytest.raises(ImproperComposition) as iso_err:
        checked_compose(collapse, spread, mode="isometry")
    assert iso_err.value.witness == (1,)

    keep0 = Relation(start_space.sector_labels, mid.sector_labels, np.array([[1, 0]], bool))
    inject = random_practical_isometry(keep0, start_space, mid, rng)
    merge = Relation.full(mid.sector_labels, IndexSet.trivial())
    merger = random_practical_isometry(merge, mid, PartitionedSpace.trivial(2), rng)
    with pytest.raises(ImproperComposition) as uni_err:
        checked_compose(merger, inject, mode="unitary")
    assert uni_err.value.side == "output" and uni_err.value.witness == (1,)

    with pytest.raises(ImproperComposition) as chan_err:
        checked_compose_channel(lift_pure(collapse), lift_pure(spread))
    assert chan_err.value.witness == (1,)
    elapsed = time.perf_counter() - start
    verdict(
        4,
        elapsed < 30.0,
        f"1500 gated compositions stay physical; improper pairs rejected ({elapsed:.1f}s)",
    )


def test_criterion_5_kraus_theorems():
    rng = np.random.default_rng(105)
    forward = True
    for _ in range(100):
        domain = random_space(rng, max_sectors=2, max_dim=2)
        codomain = random_space(rng, max_sectors=2, max_dim=2)
        lam = random_relation(domain.sector_labels, codomain.sector_labels, rng, 0.7)
        if rng.random() < 0.5:
            channel = RoutedCPM(
                rel.full_coherence(lam),
                tuple(random_kraus_following(lam, domain, codomain, rng, 2)),
                domain,
                codomain,
            )
        else:
            channel = random_decohered_cpm(lam, domain, codomain, rng)
        forward &= kraus_follow_diagonal(channel)

    reverse = True
    for _ in range(100):
        domain = random_space(rng, max_sectors=2, max_dim=2)
        codomain = random_space(rng, max_sectors=2, max_dim=2)
        lam = random_relation(domain.sector_labels, codomain.sector_labels, rng, 0.7)
        kraus = random_kraus_following(lam, domain, codomain, rng, 3)
        reverse &= follows_cp(kraus, rel.full_coherence(lam), domain, codomain)

    adapted = True
    line = PartitionedSpace.from_dims([0, 1], [1, 2])
    for _ in range(50):
        conn = random_relation(line.sector_labels, line.sector_labels, rng, 0.8)
        if not conn.matrix.any():
            continue
        channel = random_decohered_cpm(conn, line, line, rng)
        parts = adapted_kraus_decomposition(channel)
        ops = [op for _, _, group in parts for op in group]
        if not ops:
            adapted &= not channel.choi().any()
            continue
        adapted &= np.abs(choi_matrix(ops) - channel.choi()).max() <= 1e-9
    verdict(5, forward and reverse and adapted, "Kraus structure theorems hold")


def test_criterion_6_cp_relation_characterisation():
    # oracle: every coherence route obtainable by doubling into an
    # environment of up to four values
    bits = ((np.arange(1 << 16)[:, None] >> np.arange(16)) & 1).astype(np.uint8)
    lam = bits.reshape(-1, 2, 2, 4)
    doubled = np.einsum("nkle,nKLe->nkKlL", lam, lam) > 0
    achievable = {d.astype(np.uint8).tobytes() for d in doubled}

    candidates = bits.reshape(-1, 2, 2, 2, 2).astype(bool)
    sym = (candidates == candidates.transpose(0, 2, 1, 4, 3)).all(axis=(1, 2, 3, 4))
    diag = np.einsum("nkkll->nkl", candidates)
    allowed = diag[:, :, None, :, None] & diag[:, None, :, None, :]
    dominant = ~(candidates & ~allowed).any(axis=(1, 2, 3, 4))
    characterised = sym & dominant

    matches = sum(
        int(characterised[i] == (candidates[i].astype(np.uint8).tobytes() in achievable))
        for i in range(1 << 16)
    )
    verdict(
        6,
        matches == 1 << 16,
        "symmetry + diagonal dominance equals the doubling oracle on all 65536 arrays",
    )


def test_criterion_7_figure_one_verdicts():
    diamond = load_bundled("diamond.json").payload
    fig_b = load_bundled("figure1b.json").payload
    fig_c = load_bundled("figure1c.json").payload
    fig_d = load_bundled("figure1d.json").payload
    ok = lint(diamond, "iso").passed and lint(fig_b, "iso").passed
    ok &= lint(fig_c, "iso").passed and not lint(fig_d, "iso").passed
    ok &= lint(diamond, "uni").passed and lint(fig_b, "uni").passed
    ok &= not lint(fig_c, "uni").passed

    e = load_bundled("iodag_e.json").payload
    f1 = load_bundled("iodag_f1.json").payload
    f2 = load_bundled("iodag_f2.json").payload
    f3 = load_bundled("iodag_f3.json").payload
    merged = seq_compose_iodag(f3, e)
    ok &= lint(merged, "iso").passed
    for blocked in (f1, f2):
        try:
            seq_compose_iodag(blocked, e)
            ok = False
        except InterfaceMismatch:
            pass
    verdict(7, ok, "well-indexedness verdicts and composition rules reproduced")


def _random_diamond_interpretation(rng):
    graph = diamond_graph()
    lengths = {name: 2 for name in graph.placement}
    dims_l = {(0,): int(rng.integers(1, 3)), (1,): int(rng.integers(1, 3))}
    dims_r = {(0,): int(rng.integers(1, 3)), (1,): int(rng.integers(1, 3))}
    matched = dims_l[(0,)] * dims_r[(0,)] + dims_l[(1,)] * dims_r[(1,)]
    dim_a = int(rng.integers(1, 3))
    dim_b = int(rng.integers(1, 3))
    spaces = {
        "AI": PartitionedSpace.trivial(dim_a),
        "AO": PartitionedSpace.trivial(dim_a),
        "BI": PartitionedSpace.trivial(dim_b),
        "BO": PartitionedSpace.trivial(dim_b),
        "EI": PartitionedSpace.trivial(matched),
        "EO": PartitionedSpace.trivial(matched),
        "L": wire_space(graph, "L", lengths, dims_l),
        "L2": wire_space(graph, "L2", lengths, dims_l),
        "R": wire_space(graph, "R", lengths, dims_r),
        "R2": wire_space(graph, "R2", lengths, dims_r),
    }
    partial = Interpretation(lengths, spaces, {})
    morphs = {}
    for node_id, node in graph.nodes.items():
        route = node_route(graph, node_id, partial)
        domain = tensor_many([spaces[w] for w in node.inputs])
        codomain = tensor_many([spaces[w] for w in node.outputs])
        morph = random_practical_unitary(route, domain, codomain, rng)
        assert morph is not None
        morphs[node_id] = morph
    return graph, Interpretation(lengths, spaces, morphs), (dim_a, matched, dim_b)


def _marginal_choi(matrix, in_dims, out_dims, keep_axis):
    """Choi of rho -> Tr_{other output factors}(V rho V+), rows (kept, in)."""
    keep = out_dims[keep_axis]
    total_in = int(np.prod(in_dims))
    letters = "abcdefgh"
    n = len(out_dims)
    left = "".join(letters[i] for i in range(n))
    right = "".join(letters[i] if i != keep_axis else letters[n] for i in range(n))
    spec = f"{left}{right}->{letters[keep_axis]}{letters[n]}"
    choi = np.zeros((keep, total_in, keep, total_in), dtype=complex)
    for i in range(total_in):
        for j in range(total_in):
            op = np.outer(matrix[:, i], matrix[:, j].conj()).reshape(*out_dims, *out_dims)
            choi[:, i, :, j] = np.einsum(spec, op)
    return choi


def test_criterion_8_diamond_decomposition():
    rng = np.random.default_rng(108)
    start = time.perf_counter()
    ok = True
    for _ in range(20):
        graph, interp, (dim_a, dim_e, dim_b) = _random_diamond_interpretation(rng)
        meaning = interpret(graph, interp, mode="uni")
        ok &= is_practical_unitary(meaning, 1e-9)
        matrix = meaning.matrix
        in_dims = (dim_a, dim_e, dim_b)
        out_dims = (dim_a, dim_e, dim_b)

        # first input cannot influence last output
        choi = _marginal_choi(matrix, in_dims, out_dims, keep_axis=2)
        blocks = choi.reshape(dim_b, dim_a, dim_e * dim_b, dim_b, dim_a, dim_e * dim_b)
        for x in range(dim_a):
            for y in range(dim_a):
                if x != y:
                    ok &= np.abs(blocks[:, x, :, :, y, :]).max() <= 1e-9
        reference = blocks[:, 0, :, :, 0, :]
        for x in range(1, dim_a):
            ok &= np.abs(blocks[:, x, :, :, x, :] - reference).max() <= 1e-9

        # last input cannot influence first output
        choi = _marginal_choi(matrix, in_dims, out_dims, keep_axis=0)
        blocks = choi.reshape(dim_a, dim_a * dim_e, dim_b, dim_a, dim_a * dim_e, dim_b)
        for x in range(dim_b):
            for y in range(dim_b):
                if x != y:
                    ok &= np.abs(blocks[:, :, x, :, :, y]).max() <= 1e-9
        reference = blocks[:, :, 0, :, :, 0]
        for x in range(1, dim_b):
            ok &= np.abs(blocks[:, :, x, :, :, x] - reference).max() <= 1e-9
    elapsed = time.perf_counter() - start
    verdict(
        8,
        ok and elapsed < 60.0,
        f"20 diamond interpretations: unitary, no-influence relations hold ({elapsed:.1f}s)",
    )


def _tagged(dom_names, cod_names):
    return [("in", n) for n in dom_names] + [("out", n) for n in cod_names]


def _enumerate_functoriality_cases(a, b, c, lengths_mode):
    """Yield (first, second) corelation pairs over boundary sizes (a, b, c)."""
    a_names = [f"a{i}" for i in range(a)]
    b_names = [f"b{i}" for i in range(b)]
    c_names = [f"c{i}" for i in range(c)]
    first_partitions = list(_set_partitions(_tagged(a_names, b_names)))
    second_partitions = list(_set_partitions(_tagged(b_names, c_names)))
    for p1 in first_partitions:
        for p2 in second_partitions:
            part1 = Partition.from_blocks(p1)
            part2 = Partition.from_blocks(p2)
            if lengths_mode == "uniform":
                assignments = [{n: 2 for n in a_names + b_names + c_names}]
            else:
                joint = partition_oracle.Partition(a_names + b_names + c_names)
                for part, sides in ((part1, ("a", "b")), (part2, ("b", "c"))):
                    for block in part.blocks():
                        members = sorted(name for _, name in block)
                        for other in members[1:]:
                            joint.union(members[0], other)
                blocks = joint.blocks()
                assignments = []
                for choice in itertools.product((1, 2, 3), repeat=len(blocks)):
                    lengths = {}
                    for block, value in zip(blocks, choice):
                        for name in block:
                            lengths[name] = value
                    assignments.append(lengths)
            for lengths in assignments:
                dom = IndexFamily({n: lengths[n] for n in a_names})
                mid = IndexFamily({n: lengths[n] for n in b_names})
                cod = IndexFamily({n: lengths[n] for n in c_names})
                yield (
                    Corelation(dom, mid, part1),
                    Corelation(mid, cod, part2),
                )


def test_criterion_9_bar_functoriality_and_layered_composition():
    checked = 0
    ok = True
    # exhaustive structure with every per-class length in {1,2,3} for up to
    # two names per boundary, then exhaustive structure at three names per
    # boundary with the lengths pinned to 2
    for sizes in itertools.product((0, 1, 2), repeat=3):
        for first, second in _enumerate_functoriality_cases(*sizes, "full"):
            ok &= bar(compose_corelations(second, first)) == rel.compose(
                bar(second), bar(first)
            )
            checked += 1
    for first, second in _enumerate_functoriality_cases(3, 3, 3, "uniform"):
        ok &= bar(compose_corelations(second, first)) == rel.compose(
            bar(second), bar(first)
        )
        checked += 1

    layered = True
    for name in (
        "diamond.json", "figure1b.json", "figure1c.json",
        "iodag_e.json", "iodag_f1.json", "iodag_f2.json", "iodag_f3.json",
    ):
        doc = load_bundled(name)
        graph = doc.payload
        if not lint(graph, "iso").passed:
            continue
        lengths = dict(doc.interpretation.lengths) if doc.interpretation else None
        total, gates = compose_corelations_by_layers(graph, lengths, "iso")
        layered &= total == total_corelation(graph, lengths)
        layered &= all(gates)
    verdict(
        9,
        ok and layered,
        f"bar is functorial on {checked} corelation pairs; layered compositions gate clean",
    )


def test_criterion_10_foliation_independence():
    rng = np.random.default_rng(110)
    ok = True
    done = 0
    while done < 20:
        circuit = random_circuit(rng, n_boxes=5)
        order_a = sorted(circuit.boxes)
        available = set(circuit.input_wires)
        pending = dict(circuit.boxes)
        order_b = []
        while pending:
            ready = [b for b, box in pending.items() if set(box.inputs) <= available]
            pick = sorted(ready)[-1]
            order_b.append(pick)
            available |= set(pending[pick].outputs)
            del pending[pick]
        if order_a == order_b:
            continue  # the DAG is a chain; no second order exists
        first = evaluate(circuit, box_order=order_a)
        second = evaluate(circuit, box_order=order_b)
        ok &= np.abs(first.matrix - second.matrix).max() <= 1e-12
        done += 1
    verdict(10, ok, "two topological orders give identical composites (20 circuits)")
