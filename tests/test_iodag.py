"""Index-matching layer: corelations, bar, composition, linting, meaning."""

from __future__ import annotations

import json

import numpy as np
import pytest

from routedcircuits import relations as rel
from routedcircuits import routed_maps as rmap
from routedcircuits.errors import (
    IncompatibleRestrictions,
    InterfaceMismatch,
    InvariantViolation,
    LengthMismatch,
    LintFailure,
    NotPracticalIsometry,
    UnknownNode,
)
from routedcircuits.io import bundled_path, load_bundled, parse
from routedcircuits.iodag import (
    Corelation,
    IODAG,
    IndexFamily,
    IONode,
    Interpretation,
    Partition,
    bar,
    compose_corelations,
    explain_improper,
    interpret,
    iodag_isomorphic,
    iodag_to_dot,
    lint,
    node_corelation,
    node_route,
    nonforgetting_compose,
    normalize,
    par_compose_iodag,
    preprocessing,
    preprocessing_map,
    seq_compose_iodag,
    total_corelation,
    wire_space,
)
from routedcircuits.routed_maps import RoutedMap, follows, is_practical_unitary
from routedcircuits.sampling import random_practical_unitary
from routedcircuits.spaces import PartitionedSpace, tensor_many

import partition_oracle
from iodag_oracle import compose_corelations_by_layers


def family(**lengths):
    return IndexFamily(lengths)


def random_partition(universe, rng):
    universe = list(universe)
    pairs = []
    for _ in range(len(universe)):
        if len(universe) >= 2:
            a, b = rng.choice(len(universe), size=2, replace=False)
            if rng.random() < 0.5:
                pairs.append((universe[a], universe[b]))
    return Partition(universe, pairs)


class TestPartition:
    def test_blocks_and_restrict(self):
        part = Partition(["a", "b", "c", "d"], [("a", "b"), ("b", "c")])
        assert part.blocks() == (frozenset({"a", "b", "c"}), frozenset({"d"}))
        assert part.restrict({"b", "d"}).blocks() == (frozenset({"b"}), frozenset({"d"}))

    def test_equality(self):
        one = Partition(["x", "y"], [("x", "y")])
        two = Partition.from_blocks([["x", "y"]])
        assert one == two


class TestNonForgettingComposition:
    def test_discrete_stays_discrete(self):
        rel1 = Partition(["a1", "b1"])
        rel2 = Partition(["b1", "c1"])
        joined = nonforgetting_compose(rel1, rel2, {"b1"})
        assert joined == Partition(["a1", "b1", "c1"])

    def test_chain_merges(self):
        rel1 = Partition(["k", "m"], [("k", "m")])
        rel2 = Partition(["m", "l"], [("m", "l")])
        joined = nonforgetting_compose(rel1, rel2, {"m"})
        assert joined.block_of("k") == {"k", "m", "l"}

    def test_incompatible_restrictions(self):
        rel1 = Partition(["a", "b1", "b2"], [("b1", "b2")])
        rel2 = Partition(["b1", "b2", "c"])
        with pytest.raises(IncompatibleRestrictions):
            nonforgetting_compose(rel1, rel2, {"b1", "b2"})

    def test_outer_restriction_matches_corelation_composition(self, rng):
        for _ in range(30):
            dom = family(a1=2, a2=2)
            mid = family(b1=2, b2=2)
            cod = family(c1=2, c2=2)
            first = Corelation(
                dom, mid, random_partition(
                    [("in", n) for n in dom.names] + [("out", n) for n in mid.names], rng
                ),
            )
            second = Corelation(
                mid, cod, random_partition(
                    [("in", n) for n in mid.names] + [("out", n) for n in cod.names], rng
                ),
            )
            composed = compose_corelations(second, first)
            # oracle: transitive closure over the tagged triple union
            universe = (
                [("A", n) for n in dom.names]
                + [("B", n) for n in mid.names]
                + [("C", n) for n in cod.names]
            )
            oracle = partition_oracle.Partition(universe)
            for block in first.partition.blocks():
                members = [("A", n) if s == "in" else ("B", n) for s, n in block]
                for other in members[1:]:
                    oracle.union(members[0], other)
            for block in second.partition.blocks():
                members = [("B", n) if s == "in" else ("C", n) for s, n in block]
                for other in members[1:]:
                    oracle.union(members[0], other)
            for x in dom.names:
                for y in cod.names:
                    assert composed.partition.related(("in", x), ("out", y)) == oracle.related(
                        ("A", x), ("C", y)
                    )


class TestBar:
    def test_matched_pair_is_delta(self):
        matching = Corelation.identity(family(k=2))
        assert bar(matching) == rel.Relation.identity(rel.IndexSet(((0,), (1,))))

    def test_discrete_is_full(self):
        matching = Corelation.from_pairs(family(k=2), family(k=2))
        assert bar(matching).matrix.all()

    def test_length_mismatch_rejected(self):
        with pytest.raises(LengthMismatch):
            Corelation.from_pairs(
                family(k=2), family(l=3), [(("in", "k"), ("out", "l"))]
            )

    def test_functorial_on_random_samples(self, rng):
        for _ in range(20):
            dom = family(a=2)
            mid = family(b1=2, b2=2)
            cod = family(c=2)
            first = Corelation(
                dom, mid, random_partition(
                    [("in", "a"), ("out", "b1"), ("out", "b2")], rng
                ),
            )
            second = Corelation(
                mid, cod, random_partition(
                    [("in", "b1"), ("in", "b2"), ("out", "c")], rng
                ),
            )
            assert bar(compose_corelations(second, first)) == rel.compose(
                bar(second), bar(first)
            )

    def test_transpose_preserved(self, rng):
        from routedcircuits.iodag import transpose_corelation

        matching = Corelation.from_pairs(
            family(a=2, b=2), family(c=2), [(("in", "a"), ("out", "c"))]
        )
        assert bar(transpose_corelation(matching)) == rel.transpose(bar(matching))

    def test_products_preserved(self):
        # with left names sorting before right names, the value enumerations
        # line up and the matrices agree entrywise
        from routedcircuits.iodag import product_corelations

        left = Corelation.identity(family(a=2))
        right = Corelation.from_pairs(
            family(b1=2, b2=3), family(b3=3), [(("in", "b2"), ("out", "b3"))]
        )
        joined = product_corelations(left, right)
        assert np.array_equal(
            bar(joined).matrix, rel.product(bar(left), bar(right)).matrix
        )


class TestExplainImproper:
    def test_created_index_matched_outside(self):
        # first creates the matched pair {x1, x2}; second matches x1 with y
        dom = family(w=1)
        mid = family(x1=2, x2=2, y=2)
        cod = family(z=2)
        first = Corelation.from_pairs(dom, mid, [(("out", "x1"), ("out", "x2"))])
        second = Corelation.from_pairs(mid, cod, [(("in", "x1"), ("in", "y"))])
        report = explain_improper(first, second)
        assert not report.proper_for_isometries
        witness = report.created_witnesses[0]
        assert witness.block == frozenset({("out", "x1"), ("out", "x2")})
        assert witness.pair == ("x1", "y")

    def test_length_one_never_improper(self):
        dom = family(w=1)
        mid = family(x1=1, x2=1, y=1)
        cod = family(z=1)
        first = Corelation.from_pairs(dom, mid, [(("out", "x1"), ("out", "x2"))])
        second = Corelation.from_pairs(mid, cod, [(("in", "x1"), ("in", "y"))])
        report = explain_improper(first, second)
        assert report.proper_for_isometries and report.proper_for_unitaries

    @pytest.mark.parametrize(
        "dom_lengths,mid_lengths,cod_lengths",
        [
            ({"a": 2}, {"x": 2, "y": 2}, {"c": 2}),
            ({"a": 1}, {"x": 3, "y": 2}, {"c": 2}),
            ({"a": 3}, {"x": 1, "y": 3}, {"c": 1}),
            ({"a": 2}, {"x": 3, "y": 3, "z": 3}, {"c": 3}),
            ({"a": 2}, {"x": 2, "y": 2, "z": 2}, {"c": 2}),
        ],
    )
    def test_agreement_with_relation_gate_exhaustive(
        self, dom_lengths, mid_lengths, cod_lengths
    ):
        # enumerate every pair of corelations over these families and check
        # the witness characterisation against the value-level gates
        dom = IndexFamily(dom_lengths)
        mid = IndexFamily(mid_lengths)
        cod = IndexFamily(cod_lengths)
        seconds = [(s, bar(s)) for s in _all_corelations(mid, cod)]
        for first in _all_corelations(dom, mid):
            bar_first = bar(first)
            for second, bar_second in seconds:
                report = explain_improper(first, second)
                gate_iso = rel.is_proper_for_isometries(bar_first, bar_second)
                gate_uni = rel.is_proper_for_unitaries(bar_first, bar_second)
                assert report.proper_for_isometries == gate_iso
                assert report.proper_for_unitaries == gate_uni


def _all_corelations(dom, cod):
    tagged = [("in", n) for n in dom.names] + [("out", n) for n in cod.names]
    out = []
    for blocks in _set_partitions(tagged):
        try:
            out.append(Corelation(dom, cod, Partition.from_blocks(blocks)))
        except LengthMismatch:  # partition matches names of unequal lengths
            continue
    return out


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partial in _set_partitions(rest):
        for i in range(len(partial)):
            yield partial[:i] + [partial[i] + [first]] + partial[i + 1 :]
        yield partial + [[first]]


def diamond_graph():
    return IODAG(
        inputs=("AI", "EI", "BI"),
        outputs=("AO", "EO", "BO"),
        inner_edges=("L", "R", "L2", "R2"),
        nodes={
            "u1": IONode(("EI",), ("L", "R")),
            "u2": IONode(("AI", "L"), ("AO", "L2")),
            "u3": IONode(("R", "BI"), ("R2", "BO")),
            "u4": IONode(("L2", "R2"), ("EO",)),
        },
        placement={"kL": "L", "kR": "R", "kL2": "L2", "kR2": "R2"},
        equivalence=Partition.from_blocks([["kL", "kR", "kL2", "kR2"]]),
    )


class TestIODAGValidation:
    def test_cycle_rejected(self):
        with pytest.raises(InvariantViolation):
            IODAG(
                inputs=(), outputs=(), inner_edges=("a", "b"),
                nodes={"n1": IONode(("a",), ("b",)), "n2": IONode(("b",), ("a",))},
                placement={}, equivalence=Partition([]),
            )

    def test_double_consumption_rejected(self):
        with pytest.raises(InvariantViolation):
            IODAG(
                inputs=("x",), outputs=("y", "z"), inner_edges=(),
                nodes={
                    "n1": IONode(("x",), ("y",)),
                    "n2": IONode(("x",), ("z",)),
                },
                placement={}, equivalence=Partition([]),
            )

    def test_unplaced_equivalence_rejected(self):
        with pytest.raises(InvariantViolation):
            IODAG(
                inputs=("x",), outputs=("y",), inner_edges=(),
                nodes={"n": IONode(("x",), ("y",))},
                placement={"k": "x"},
                equivalence=Partition(["k", "ghost"]),
            )

    def test_empty_node_needs_index_bijection(self):
        with pytest.raises(InvariantViolation):
            IODAG(
                inputs=("x",), outputs=("y",), inner_edges=(),
                nodes={"n": IONode(("x",), ("y",))},
                placement={"k": "x"},
                equivalence=Partition(["k"]),
                empty_nodes={"n"},
            )


@pytest.mark.parametrize(
    "outgoing, blocks, accepted",
    [
        (["y", "z"], [["a", "z"], ["b", "y"]], True),  # the classes in swapped order
        (["z"], [["a", "z"], ["b"]], False),  # class b on the input wire only
        (["z"], [["a", "b", "z"]], False),  # two names of class a in, one out
    ],
)
def test_an_empty_node_matches_names_classwise(outgoing, blocks, accepted):
    placement = {"a": "x", "b": "x"} | {name: "w" for name in outgoing}

    def build():
        return IODAG(
            inputs=("x",), outputs=("w",), inner_edges=(),
            nodes={"n": IONode(("x",), ("w",))},
            placement=placement,
            equivalence=Partition.from_blocks(blocks),
            empty_nodes={"n"},
        )

    if accepted:
        assert build().empty_nodes == {"n"}
    else:
        with pytest.raises(InvariantViolation, match="no index bijection"):
            build()


class TestLint:
    def test_figure_verdicts_from_bundled_files(self):
        diamond = load_bundled("diamond.json").payload
        fig_b = load_bundled("figure1b.json").payload
        fig_c = load_bundled("figure1c.json").payload
        fig_d = load_bundled("figure1d.json").payload
        assert lint(diamond, "iso").passed and lint(diamond, "uni").passed
        assert lint(fig_b, "iso").passed and lint(fig_b, "uni").passed
        assert lint(fig_c, "iso").passed and not lint(fig_c, "uni").passed
        assert not lint(fig_d, "iso").passed

    def test_violation_messages(self):
        fig_d = load_bundled("figure1d.json").payload
        report = lint(fig_d, "iso")
        assert "starting points" in report.violations[0].render()
        fig_c = load_bundled("figure1c.json").payload
        report = lint(fig_c, "uni")
        assert "global outputs" in report.violations[0].render()

    def test_discrete_indices_always_pass(self):
        graph = IODAG(
            inputs=("x",), outputs=("y",), inner_edges=(),
            nodes={"n": IONode(("x",), ("y",))},
            placement={"p": "x", "q": "y"},
            equivalence=Partition(["p", "q"]),
        )
        assert lint(graph, "iso").passed and lint(graph, "uni").passed


class TestComposition:
    def test_e_with_f3_succeeds(self):
        e = load_bundled("iodag_e.json").payload
        f3 = load_bundled("iodag_f3.json").payload
        merged = seq_compose_iodag(f3, e)
        assert set(merged.inner_edges) == {"P", "Q"}
        assert merged.inputs == ("X",) and merged.outputs == ("Z",)
        assert merged.equivalence.block_of("kP") == {"kP", "kQ"}
        assert lint(merged, "iso").passed

    def test_e_with_f1_rejected(self):
        e = load_bundled("iodag_e.json").payload
        f1 = load_bundled("iodag_f1.json").payload
        with pytest.raises(InterfaceMismatch):
            seq_compose_iodag(f1, e)

    def test_e_with_f2_rejected(self):
        e = load_bundled("iodag_e.json").payload
        f2 = load_bundled("iodag_f2.json").payload
        with pytest.raises(InterfaceMismatch):
            seq_compose_iodag(f2, e)

    def test_identity_composition_neutral_up_to_isomorphism(self):
        e = load_bundled("iodag_e.json").payload
        identity = IODAG(
            inputs=("P", "Q"), outputs=("P2", "Q2"), inner_edges=(),
            nodes={"idP": IONode(("P",), ("P2",)), "idQ": IONode(("Q",), ("Q2",))},
            placement={"kP": "P", "kQ": "Q", "kP2": "P2", "kQ2": "Q2"},
            equivalence=Partition.from_blocks([["kP", "kQ", "kP2", "kQ2"]]),
            empty_nodes={"idP", "idQ"},
        )
        composed = normalize(seq_compose_iodag(identity, e))
        relabelled = IODAG(
            inputs=e.inputs,
            outputs=("P2", "Q2"),
            inner_edges=(),
            nodes={"m": IONode(("X",), ("P2", "Q2"))},
            placement={"kP2": "P2", "kQ2": "Q2"},
            equivalence=Partition.from_blocks([["kP2", "kQ2"]]),
        )
        assert iodag_isomorphic(composed, relabelled)

    def test_parallel_relabels_clashes(self):
        e = load_bundled("iodag_e.json").payload
        f2 = load_bundled("iodag_f2.json").payload
        both = par_compose_iodag(e, f2)
        assert set(both.inputs) == {"X", "P#2", "Q#2"}
        assert "kP#2" in both.placement
        # classes are the disjoint union
        assert both.equivalence.block_of("kP") == {"kP", "kQ"}
        assert both.equivalence.block_of("kP#2") == {"kP#2"}

    def test_parallel_with_empty_graph_neutral(self):
        e = load_bundled("iodag_e.json").payload
        empty = IODAG(
            inputs=(), outputs=(), inner_edges=(), nodes={}, placement={},
            equivalence=Partition([]),
        )
        assert par_compose_iodag(e, empty) == e

    def test_composition_preserves_well_indexedness(self):
        e = load_bundled("iodag_e.json").payload
        f3 = load_bundled("iodag_f3.json").payload
        assert lint(e, "iso").passed and lint(f3, "iso").passed
        assert lint(seq_compose_iodag(f3, e), "iso").passed
        assert lint(par_compose_iodag(e, f3), "iso").passed

    def test_sequential_composition_renames_private_clashes(self):
        # both graphs use node id 'n' and a private index name 'h'
        first = IODAG(
            inputs=("x",), outputs=("y",), inner_edges=("m",),
            nodes={"n": IONode(("x",), ("m",)), "n2": IONode(("m",), ("y",))},
            placement={"h": "m", "ky": "y"},
            equivalence=Partition.from_blocks([["h"], ["ky"]]),
        )
        second = IODAG(
            inputs=("y",), outputs=("z",), inner_edges=("m",),
            nodes={"n": IONode(("y",), ("m",)), "n3": IONode(("m",), ("z",))},
            placement={"h": "m", "ky": "y"},
            equivalence=Partition.from_blocks([["h"], ["ky"]]),
        )
        merged = seq_compose_iodag(second, first)
        assert set(merged.nodes) == {"n", "n2", "n#2", "n3"}
        assert set(merged.inner_edges) == {"m", "y", "m#2"}
        assert set(merged.placement) == {"h", "ky", "h#2"}

    def test_normalisation_collapses_empty_chains(self):
        graph = IODAG(
            inputs=("a",), outputs=("d",), inner_edges=("b", "c"),
            nodes={
                "real": IONode(("a",), ("b",)),
                "e1": IONode(("b",), ("c",)),
                "e2": IONode(("c",), ("d",)),
            },
            placement={"k1": "b", "k2": "c", "k3": "d"},
            equivalence=Partition.from_blocks([["k1", "k2", "k3"]]),
            empty_nodes={"e1", "e2"},
        )
        reduced = normalize(graph)
        assert set(reduced.nodes) == {"real"}
        assert reduced.inner_edges == ()
        assert set(reduced.placement.values()) == {"d"}


class TestNodeCorelations:
    def test_preserving_node(self):
        graph = diamond_graph()
        matching = node_corelation(graph, "u2", {"kL": 2, "kR": 2, "kL2": 2, "kR2": 2})
        assert matching.partition.block_of(("in", "kL")) == {("in", "kL"), ("out", "kL2")}

    def test_unindexed_node(self):
        graph = IODAG(
            inputs=("x",), outputs=("y",), inner_edges=(),
            nodes={"n": IONode(("x",), ("y",))},
            placement={}, equivalence=Partition([]),
        )
        matching = node_corelation(graph, "n")
        assert matching.domain == IndexFamily({}) and matching.codomain == IndexFamily({})

    def test_creating_node(self):
        graph = diamond_graph()
        matching = node_corelation(graph, "u1", {"kL": 2, "kR": 2, "kL2": 2, "kR2": 2})
        created = matching.created_blocks()
        assert created == (frozenset({("out", "kL"), ("out", "kR")}),)

    def test_unknown_node(self):
        with pytest.raises(UnknownNode):
            node_corelation(diamond_graph(), "nope")


class TestPreprocessing:
    def test_singleton_classes_give_identity(self):
        graph = diamond_graph()
        pre = preprocessing(graph, {"kL": 2, "kR": 2, "kL2": 2, "kR2": 2})
        assert pre.domain == IndexFamily({})

    def test_matched_inputs_give_projector(self):
        f3 = load_bundled("iodag_f3.json").payload
        lengths = {"kP": 2, "kQ": 2}
        spaces = {
            "P": wire_space(f3, "P", lengths, 1),
            "Q": wire_space(f3, "Q", lengths, 1),
            "Z": PartitionedSpace.trivial(2),
        }
        interp = Interpretation(lengths, spaces, {})
        pre = preprocessing_map(f3, interp)
        diag = np.diagonal(pre.matrix).real
        assert diag.tolist() == [1.0, 0.0, 0.0, 1.0]
        assert np.allclose(pre.matrix @ pre.matrix, pre.matrix)
        assert follows(pre.matrix, pre.route, pre.domain, pre.codomain)


class TestInterpret:
    def test_bundled_diamond_is_practical_unitary(self):
        doc = load_bundled("diamond.json")
        meaning = interpret(doc.payload, doc.interpretation, mode="uni")
        assert meaning.matrix.shape == (16, 16)
        assert is_practical_unitary(meaning, 1e-9)

    def test_empty_node_strand_is_identity(self):
        graph = IODAG(
            inputs=("w",), outputs=("v",), inner_edges=(),
            nodes={"id": IONode(("w",), ("v",))},
            placement={"kw": "w", "kv": "v"},
            equivalence=Partition.from_blocks([["kw", "kv"]]),
            empty_nodes={"id"},
        )
        lengths = {"kw": 2, "kv": 2}
        spaces = {
            "w": wire_space(graph, "w", lengths, 2),
            "v": wire_space(graph, "v", lengths, 2),
        }
        meaning = interpret(graph, Interpretation(lengths, spaces, {}), mode="uni")
        assert np.allclose(meaning.matrix, np.eye(4))

    def test_lint_failure_raises(self, rng):
        fig_d = load_bundled("figure1d.json").payload
        lengths = {"kA": 2, "kB": 2}
        spaces = {w: wire_space(fig_d, w, lengths, 1) for w in fig_d.wire_ids}
        with pytest.raises(LintFailure):
            interpret(fig_d, Interpretation(lengths, spaces, {}), mode="iso")

    def test_wrong_route_rejected(self):
        graph = load_bundled("figure1b.json").payload
        lengths = {"kX": 2, "kY": 2}
        spaces = {w: wire_space(graph, w, lengths, 1) for w in graph.wire_ids}
        bad = RoutedMap(
            rel.Relation.full(spaces["X"].sector_labels, spaces["Y"].sector_labels),
            np.eye(2, dtype=complex),
            spaces["X"],
            spaces["Y"],
        )
        from routedcircuits.errors import RouteViolation

        with pytest.raises(RouteViolation):
            interpret(graph, Interpretation(lengths, spaces, {"u": bad}), mode="iso")

    def test_non_isometry_rejected(self):
        graph = load_bundled("figure1b.json").payload
        lengths = {"kX": 2, "kY": 2}
        spaces = {w: wire_space(graph, w, lengths, 1) for w in graph.wire_ids}
        route = rel.Relation.identity(spaces["X"].sector_labels)
        shrunk = RoutedMap(route, 0.5 * np.eye(2, dtype=complex), spaces["X"], spaces["Y"])
        with pytest.raises(NotPracticalIsometry):
            interpret(graph, Interpretation(lengths, spaces, {"u": shrunk}), mode="iso")

    def test_wire_carrying_two_independent_indices(self, rng):
        # one wire with a double partition: a creator writes both indices,
        # a consumer deletes both; nothing is matched, so both node routes
        # are full and the meaning is a plain unitary
        graph = IODAG(
            inputs=("x",), outputs=("z",), inner_edges=("w",),
            nodes={"c": IONode(("x",), ("w",)), "d": IONode(("w",), ("z",))},
            placement={"k1": "w", "k2": "w"},
            equivalence=Partition.from_blocks([["k1"], ["k2"]]),
        )
        assert lint(graph, "uni").passed
        lengths = {"k1": 2, "k2": 3}
        w_space = wire_space(graph, "w", lengths, 1)
        assert w_space.sector_labels.labels == (
            (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2),
        )
        spaces = {
            "x": PartitionedSpace.trivial(6),
            "w": w_space,
            "z": PartitionedSpace.trivial(6),
        }
        partial = Interpretation(lengths, spaces, {})
        morphs = {}
        for node_id, node in graph.nodes.items():
            route = node_route(graph, node_id, partial)
            assert route.matrix.all()  # no matching constraints apply
            domain = tensor_many([spaces[w] for w in node.inputs])
            codomain = tensor_many([spaces[w] for w in node.outputs])
            morphs[node_id] = random_practical_unitary(route, domain, codomain, rng)
        meaning = interpret(graph, Interpretation(lengths, spaces, morphs), mode="uni")
        assert is_practical_unitary(meaning)
        assert meaning.matrix.shape == (6, 6)


def _interpret_e_f3(rng, dims=(1, 1)):
    """Interpretations of the pair-creating and pair-consuming graphs."""
    e = load_bundled("iodag_e.json").payload
    f3 = load_bundled("iodag_f3.json").payload
    lengths = {"kP": 2, "kQ": 2}
    p_space = wire_space(e, "P", lengths, {(0,): dims[0], (1,): dims[1]})
    q_space = wire_space(e, "Q", lengths, 1)
    matched_dim = dims[0] + dims[1]
    x_space = PartitionedSpace.trivial(matched_dim)
    z_space = PartitionedSpace.trivial(matched_dim)
    spaces_e = {"X": x_space, "P": p_space, "Q": q_space}
    spaces_f3 = {"P": p_space, "Q": q_space, "Z": z_space}
    interp_e = Interpretation(
        lengths, spaces_e,
        {"m": random_practical_unitary(
            node_route(e, "m", Interpretation(lengths, spaces_e, {})),
            x_space, tensor_many([p_space, q_space]), rng)},
    )
    interp_f3 = Interpretation(
        lengths, spaces_f3,
        {"n": random_practical_unitary(
            node_route(f3, "n", Interpretation(lengths, spaces_f3, {})),
            tensor_many([p_space, q_space]), z_space, rng)},
    )
    return e, f3, interp_e, interp_f3


class TestCompositionTheorems:
    def test_sequential_composition_of_meanings(self, rng):
        e, f3, interp_e, interp_f3 = _interpret_e_f3(rng, dims=(1, 2))
        combined = Interpretation(
            {**interp_e.lengths, **interp_f3.lengths},
            {**interp_e.spaces, **interp_f3.spaces},
            {**interp_e.morphs, **interp_f3.morphs},
        )
        whole = interpret(seq_compose_iodag(f3, e), combined, mode="iso")
        stepwise = rmap.compose(
            interpret(f3, interp_f3, mode="iso"), interpret(e, interp_e, mode="iso")
        )
        assert np.abs(whole.matrix - stepwise.matrix).max() < 1e-9

    def test_parallel_composition_of_meanings(self, rng):
        e, f3, interp_e, interp_f3 = _interpret_e_f3(rng)
        both = par_compose_iodag(e, f3)
        name_map = {"kP": "kP#2", "kQ": "kQ#2"}
        combined = Interpretation(
            {**interp_e.lengths, **{name_map[k]: v for k, v in interp_f3.lengths.items()}},
            {
                **interp_e.spaces,
                **{f"{w}#2": s for w, s in interp_f3.spaces.items() if w in ("P", "Q")},
                "Z": interp_f3.spaces["Z"],
            },
            {**interp_e.morphs, **interp_f3.morphs},
        )
        whole = interpret(both, combined, mode="iso")
        lifted = rmap.tensor_map(
            interpret(e, interp_e, mode="iso"), interpret(f3, interp_f3, mode="iso")
        )
        assert np.abs(whole.matrix - lifted.matrix).max() < 1e-9


class TestLayeredCorelation:
    def test_diamond_total_matches(self):
        graph = diamond_graph()
        lengths = {"kL": 2, "kR": 2, "kL2": 2, "kR2": 2}
        total, gates = compose_corelations_by_layers(graph, lengths, "iso")
        assert total == total_corelation(graph, lengths)
        assert all(gates)

    def test_bundled_graphs(self):
        for name in ("diamond.json", "figure1b.json", "iodag_e.json", "iodag_f3.json"):
            graph = load_bundled(name).payload
            if not lint(graph, "iso").passed:
                continue
            total, gates = compose_corelations_by_layers(graph, None, "iso")
            assert total == total_corelation(graph, None)
            assert all(gates)


class TestNormalization:
    def test_inner_empty_node_removed(self):
        graph = IODAG(
            inputs=("x",), outputs=("z",), inner_edges=("y",),
            nodes={
                "real": IONode(("x",), ("y",)),
                "noop": IONode(("y",), ("z",)),
            },
            placement={"ky": "y", "kz": "z"},
            equivalence=Partition.from_blocks([["ky", "kz"]]),
            empty_nodes={"noop"},
        )
        reduced = normalize(graph)
        assert set(reduced.nodes) == {"real"}
        assert reduced.outputs == ("z",)
        assert reduced.placement == {"kz": "z"}

    def test_boundary_strand_kept(self):
        graph = IODAG(
            inputs=("w",), outputs=("v",), inner_edges=(),
            nodes={"id": IONode(("w",), ("v",))},
            placement={}, equivalence=Partition([]),
            empty_nodes={"id"},
        )
        assert normalize(graph) == graph


class TestIsomorphism:
    def test_detects_relabelled_inner_structure(self):
        one = diamond_graph()
        two = IODAG(
            inputs=one.inputs, outputs=one.outputs,
            inner_edges=("e1", "e2", "e3", "e4"),
            nodes={
                "u1": IONode(("EI",), ("e1", "e2")),
                "u2": IONode(("AI", "e1"), ("AO", "e3")),
                "u3": IONode(("e2", "BI"), ("e4", "BO")),
                "u4": IONode(("e3", "e4"), ("EO",)),
            },
            placement={"i1": "e1", "i2": "e2", "i3": "e3", "i4": "e4"},
            equivalence=Partition.from_blocks([["i1", "i2", "i3", "i4"]]),
        )
        assert iodag_isomorphic(one, two)

    def test_distinguishes_classes(self):
        one = load_bundled("iodag_f3.json").payload
        two = load_bundled("iodag_f1.json").payload
        assert not iodag_isomorphic(one, two)

    def test_wire_order_does_not_count(self):
        """Swapping a node's input wires, or the boundary's, keeps the graph
        isomorphic, though an interpretation would need a swap of factors."""

        def merge(inputs, consumed):
            return IODAG(
                inputs=inputs, outputs=("c",), inner_edges=(),
                nodes={"n": IONode(consumed, ("c",))},
                placement={}, equivalence=Partition([]),
            )

        assert iodag_isomorphic(merge(("a", "b"), ("a", "b")), merge(("a", "b"), ("b", "a")))
        assert iodag_isomorphic(merge(("a", "b"), ("a", "b")), merge(("b", "a"), ("a", "b")))

    def test_dot_export(self):
        text = iodag_to_dot(diamond_graph())
        assert text.startswith("digraph")
        assert "kL~kL" in text

    def test_dot_export_of_awkward_ids(self):
        """An empty node id, which documents may use, stays the node its
        wires meet at; quotes and backslashes in ids are escaped."""
        with open(bundled_path("figure1b.json"), encoding="utf-8") as handle:
            data = json.load(handle)
        data["nodes"][0]["id"] = ""
        # the wires X and Y become a"b and c\d
        document = json.dumps(data).replace('"X"', json.dumps('a"b'))
        document = document.replace('"Y"', json.dumps("c\\d"))
        text = iodag_to_dot(parse(document).payload)
        assert text.splitlines()[2:] == [
            r'  "in:a\"b" [shape=point, xlabel="a\"b"];',
            r'  "out:c\\d" [shape=point, xlabel="c\\d"];',
            '  "" [shape=box, label=""];',
            r'  "in:a\"b" -> "" [label="a\"b^{kX~kX}"];',
            r'  "" -> "out:c\\d" [label="c\\d^{kY~kX}"];',
            "}",
        ]

    def test_dot_points_avoid_node_ids(self):
        """A node id that an output point would take leaves the point the
        suffix ``#2``, so no wire loops from the node to itself."""
        with open(bundled_path("figure1b.json"), encoding="utf-8") as handle:
            data = json.load(handle)
        data["nodes"][0]["id"] = "out:Y"
        text = iodag_to_dot(parse(json.dumps(data)).payload)
        assert text.splitlines()[2:] == [
            '  "in:X" [shape=point, xlabel="X"];',
            '  "out:Y#2" [shape=point, xlabel="Y"];',
            '  "out:Y" [shape=box, label="out:Y"];',
            '  "in:X" -> "out:Y" [label="X^{kX~kX}"];',
            '  "out:Y" -> "out:Y#2" [label="Y^{kY~kX}"];',
            "}",
        ]
