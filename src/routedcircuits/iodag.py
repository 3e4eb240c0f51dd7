"""Index-matching circuits: index families, corelations, and indexed DAGs.

An indexed open DAG (the abstract syntax of an index-matching circuit)
places named indices on wires and declares which names are "the same
index" through an equivalence relation.  The bar operation turns a
length-respecting corelation into the corresponding Kronecker-delta
relation between value tuples, embedding this layer into the general
routed framework.  Linting enforces the starting-point/endpoint rules
that make an interpretation compose into a practical isometry or unitary.

The graph half (partitions, corelations, linting, normalisation,
composition, witnesses, isomorphism and DOT export) is pure combinatorics.
Only the functions that make arrays (``_shape_values``, :func:`bar`,
:func:`wire_space`, the matching routes and projectors,
:func:`preprocessing_map` and :func:`interpret`) import NumPy,
``relations`` and ``spaces`` (through ``_arrays``) or the map and circuit
layers, so a command on an indexed graph without an interpretation loads
none of them.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from functools import lru_cache, reduce
from types import MappingProxyType
from typing import TYPE_CHECKING, Collection, Iterable, Iterator, Mapping, Sequence

from . import _arrays
from .errors import (
    IncompatibleRestrictions,
    InterfaceMismatch,
    InvariantViolation,
    LengthMismatch,
    LintFailure,
    NotPracticalIsometry,
    RouteViolation,
    UnknownNode,
)
from .frozen import Frozen, Record
from .wiregraph import _dot_graph, _dot_quoted, _walk, _wire_graph, _WireGraph

if TYPE_CHECKING:
    import numpy as np

    from .relations import IndexSet, Relation
    from .routed_maps import RoutedMap
    from .spaces import PartitionedSpace


class Partition(Frozen):
    """An equivalence relation over a finite universe, fixed at construction.

    Each of ``groups`` (a pair, or a whole and possibly overlapping block)
    relates its members, which must lie in ``universe`` (``KeyError``
    otherwise), and relatedness is closed transitively.  A block's
    representative is its member with the smallest ``repr``; the blocks are
    stored once, sorted by representative, beside an element-to-block map,
    so every query is a lookup.  Assigning an attribute raises.
    """

    __slots__ = ("_blocks", "_roots", "_index")

    def __init__(self, universe: Iterable, groups: Iterable[Iterable] = ()):
        members = {x: [x] for x in universe}  # each element's block, shared
        for group in groups:
            block = None
            for x in group:
                other = members[x]
                if block is None:
                    block = other
                elif other is not block:
                    block += other
                    for y in other:
                        members[y] = block
        # the first member met in repr order is its block's representative
        blocks, roots, index = [], [], {}
        for x in sorted(members, key=repr):
            if x not in index:
                for y in members[x]:
                    index[y] = len(roots)
                roots.append(x)
                blocks.append(frozenset(members[x]))
        object.__setattr__(self, "_blocks", tuple(blocks))
        object.__setattr__(self, "_roots", tuple(roots))
        object.__setattr__(self, "_index", index)

    def __reduce__(self):
        return type(self), (self._index, self._blocks)

    @classmethod
    def discrete(cls, universe: Iterable) -> "Partition":
        return cls(universe)

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable]) -> "Partition":
        blocks = [tuple(block) for block in blocks]
        return cls((x for block in blocks for x in block), blocks)

    # -- queries -------------------------------------------------------------

    @property
    def universe(self) -> frozenset:
        return frozenset(self._index)

    def find(self, x):
        """The representative of ``x``'s block."""
        return self._roots[self._index[x]]

    def related(self, a, b) -> bool:
        return self._index[a] == self._index[b]

    def block_of(self, x) -> frozenset:
        return self._blocks[self._index[x]]

    def blocks(self) -> tuple[frozenset, ...]:
        return self._blocks

    def restrict(self, subset: Iterable) -> "Partition":
        subset = set(subset)
        return Partition(subset, (block & subset for block in self._blocks))

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self._blocks == other._blocks

    def __repr__(self) -> str:
        rendered = ", ".join(
            "{" + ", ".join(sorted(map(repr, block), key=repr)) + "}"
            for block in self._blocks
        )
        return f"Partition({rendered})"


def nonforgetting_compose(rel1: Partition, rel2: Partition, shared: Iterable) -> Partition:
    """Join two equivalence relations that coincide on a shared middle set.

    The result is the unique equivalence relation on the union restricting
    to ``rel1`` and ``rel2`` on their universes and to their corelation
    composition on the outer parts.
    """
    shared = set(shared)
    if not shared <= rel1.universe or not shared <= rel2.universe:
        raise IncompatibleRestrictions("shared set is not part of both universes")
    if rel1.restrict(shared) != rel2.restrict(shared):
        raise IncompatibleRestrictions(
            "equivalence relations disagree on the shared middle set"
        )
    return Partition(rel1.universe | rel2.universe, rel1.blocks() + rel2.blocks())


# -- index families and corelations ---------------------------------------


@lru_cache
def _shape_values(shape: tuple[int, ...]) -> tuple[IndexSet, np.ndarray]:
    """The index set and value table (row ``r``: the names' values in label
    ``r``) of every family whose lengths, in sorted-name order, are ``shape``."""
    np, rel, _ = _arrays()
    try:
        table = np.indices(shape).reshape(len(shape), math.prod(shape)).T
    except ValueError:  # more entries than an array can have
        raise InvariantViolation(f"index lengths {shape} give too many values to list") from None
    table.setflags(write=False)
    labels = tuple(map(tuple, table.tolist())) if shape else (rel.TRIVIAL_LABEL,)
    return rel.IndexSet(labels), table


class IndexFamily(Record):
    """A finite set of index names, each with the number of values it takes:
    ``lengths`` is read-only and ``names`` holds the names sorted."""

    _fields = ("lengths",)

    def __init__(self, lengths: Mapping[str, int]):
        lengths = dict(lengths)
        for name, length in lengths.items():
            if operator.index(length) < 1:  # a float would share an int's cached shape
                raise InvariantViolation(f"index {name!r} has length {length} < 1")
        self.__dict__.update(lengths=MappingProxyType(lengths), names=tuple(sorted(lengths)))

    def length(self, name: str) -> int:
        return self.lengths[name]

    def value_labels(self) -> tuple:
        """Value tuples over the names in sorted order ('*' when empty)."""
        return self.index_set().labels

    def index_set(self) -> IndexSet:
        return self._values()[0]

    def _values(self) -> tuple[IndexSet, np.ndarray]:
        return _shape_values(tuple(map(self.lengths.__getitem__, self.names)))

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}:{self.lengths[n]}" for n in self.names)
        return f"IndexFamily({inner})"


def _tag(side: str, names: Iterable[str]) -> list[tuple[str, str]]:
    return [(side, name) for name in names]


class Corelation(Record):
    """An equivalence relation on the disjoint union of two index families.

    Related names must have equal lengths; the blocks say which indices are
    matched (forced to carry the same value).
    """

    _fields = ("domain", "codomain", "partition")

    def __init__(self, domain: IndexFamily, codomain: IndexFamily, partition: Partition):
        universe = frozenset(_tag("in", domain.names)) | frozenset(_tag("out", codomain.names))
        if partition.universe != universe:
            raise InvariantViolation(
                "corelation partition universe does not match the tagged families"
            )
        for block in partition.blocks():
            lengths = {
                (domain if side == "in" else codomain).length(name)
                for side, name in block
            }
            if len(lengths) > 1:
                raise LengthMismatch(
                    f"matched indices {sorted(block, key=repr)!r} have lengths {sorted(lengths)}"
                )
        self.__dict__.update(domain=domain, codomain=codomain, partition=partition)

    @classmethod
    def from_pairs(
        cls,
        domain: IndexFamily,
        codomain: IndexFamily,
        pairs: Iterable[Iterable[tuple[str, str]]] = (),
    ) -> "Corelation":
        """The corelation whose blocks join the tagged names of each pair
        (or larger group) in ``pairs``."""
        universe = _tag("in", domain.names) + _tag("out", codomain.names)
        return cls(domain, codomain, Partition(universe, pairs))

    @classmethod
    def identity(cls, family: IndexFamily) -> "Corelation":
        pairs = [(("in", name), ("out", name)) for name in family.names]
        return cls.from_pairs(family, family, pairs)

    def __repr__(self) -> str:
        return f"Corelation({self.domain!r} -> {self.codomain!r}, {self.partition!r})"

    def length_of_block(self, block: frozenset) -> int:
        side, name = next(iter(block))
        return (self.domain if side == "in" else self.codomain).length(name)

    def created_blocks(self) -> tuple[frozenset, ...]:
        """Blocks containing output names only (indices born here)."""
        return tuple(
            block
            for block in self.partition.blocks()
            if all(side == "out" for side, _ in block)
        )

    def deleted_blocks(self) -> tuple[frozenset, ...]:
        """Blocks containing input names only (indices ending here)."""
        return tuple(
            block
            for block in self.partition.blocks()
            if all(side == "in" for side, _ in block)
        )


def bar(matching: Corelation) -> Relation:
    """The Kronecker-delta relation between value tuples of the two families.

    Two value tuples are unrelated exactly when some matched pair of names
    carries different values.
    """
    np, rel, _ = _arrays()
    (dom_set, dom), (cod_set, cod) = matching.domain._values(), matching.codomain._values()
    # each name's values, broadcast over (domain label, codomain label)
    column = {("in", name): dom[:, i, None] for i, name in enumerate(matching.domain.names)}
    column.update(
        (("out", name), cod[None, :, i]) for i, name in enumerate(matching.codomain.names)
    )
    matrix = np.ones((len(dom), len(cod)), dtype=bool)
    for block in matching.partition.blocks():
        first, *rest = block
        for member in rest:
            matrix &= column[first] == column[member]
    return rel.Relation(dom_set, cod_set, matrix)


def compose_corelations(second: Corelation, first: Corelation) -> Corelation:
    """Corelation composition: relate outer names joined by a zigzag path
    through the shared middle family, then forget the middle."""
    if first.codomain != second.domain:
        raise InterfaceMismatch(
            f"cannot compose corelations: {first.codomain!r} != {second.domain!r}"
        )
    # the blocks of both corelations cover every name of A, B and C
    blocks = [
        [("A" if side == "in" else "B", name) for side, name in block]
        for block in first.partition.blocks()
    ] + [
        [("B" if side == "in" else "C", name) for side, name in block]
        for block in second.partition.blocks()
    ]
    outer = [
        [("in" if zone == "A" else "out", name) for zone, name in block if zone != "B"]
        for block in Partition.from_blocks(blocks).blocks()
    ]
    return Corelation.from_pairs(first.domain, second.codomain, outer)


def product_corelations(left: Corelation, right: Corelation) -> Corelation:
    """Parallel composition; the families must not share names."""
    overlap = set(left.domain.names + left.codomain.names) & set(
        right.domain.names + right.codomain.names
    )
    if overlap:
        raise InvariantViolation(f"parallel corelations share names {sorted(overlap)!r}")
    domain = IndexFamily({**left.domain.lengths, **right.domain.lengths})
    codomain = IndexFamily({**left.codomain.lengths, **right.codomain.lengths})
    return Corelation.from_pairs(
        domain, codomain, left.partition.blocks() + right.partition.blocks()
    )


def transpose_corelation(matching: Corelation) -> Corelation:
    flipped = [
        [("out" if side == "in" else "in", name) for side, name in block]
        for block in matching.partition.blocks()
    ]
    return Corelation.from_pairs(matching.codomain, matching.domain, flipped)


# -- improper-composition witnesses ----------------------------------------


class MatchWitness(Record):
    """Why a corelation composition breaks a properness gate; ``kind`` is
    'created' or 'deleted'."""

    _fields = ("kind", "block", "pair")

    def __init__(self, kind: str, block: frozenset, pair: tuple[str, str]):
        self.__dict__.update(kind=kind, block=block, pair=pair)


class ImproperMatchReport(Record):
    """The witnesses of a corelation composition, per gate they break."""

    _fields = ("created_witnesses", "deleted_witnesses")

    def __init__(
        self,
        created_witnesses: tuple[MatchWitness, ...],
        deleted_witnesses: tuple[MatchWitness, ...],
    ):
        self.__dict__.update(
            created_witnesses=created_witnesses, deleted_witnesses=deleted_witnesses
        )

    @property
    def proper_for_isometries(self) -> bool:
        return not self.created_witnesses

    @property
    def proper_for_unitaries(self) -> bool:
        return not self.created_witnesses and not self.deleted_witnesses


def explain_improper(first: Corelation, second: Corelation) -> ImproperMatchReport:
    """Name-level witnesses for gate failures of ``second ∘ first``.

    The composition is improper for isometries exactly when ``first``
    creates an index of length at least 2 whose representatives ``second``
    matches with an outside name; improper for unitaries additionally when
    ``second`` deletes such an index that ``first`` matches outside.
    """
    if first.codomain != second.domain:
        raise InterfaceMismatch(
            f"cannot compose corelations: {first.codomain!r} != {second.domain!r}"
        )
    middle = set(first.codomain.names)

    def witnesses(kind: str, owner: Corelation, blocks, other: Corelation, side: str):
        found = []
        for block in blocks:
            if owner.length_of_block(block) < 2:
                continue
            reps = {name for _, name in block}
            for x, y in itertools.product(sorted(reps), sorted(middle - reps)):
                if other.partition.related((side, x), (side, y)):
                    found.append(MatchWitness(kind, block, (x, y)))
                    break
        return tuple(found)

    return ImproperMatchReport(
        witnesses("created", first, first.created_blocks(), second, "in"),
        witnesses("deleted", second, second.deleted_blocks(), first, "out"),
    )


# -- indexed open DAGs -------------------------------------------------------


class IONode(Record):
    """A node with its ordered incoming and outgoing wires."""

    _fields = ("inputs", "outputs")

    def __init__(self, inputs: Iterable[str], outputs: Iterable[str]):
        self.__dict__.update(inputs=tuple(inputs), outputs=tuple(outputs))


class IODAG(_WireGraph, Record):
    """An indexed open DAG: wires, nodes, index placements, matched classes.

    Every index name sits on exactly one wire; the equivalence relation over
    names says which placements are the same index.  Input wires are each
    consumed by a node and output wires produced by one.  Empty nodes carry
    no map of their own: :func:`interpret` reads each as its matching
    projector, and only :func:`lint` and the ``explain`` command remove
    them, by :func:`normalize`.
    """

    _fields = (
        "inputs", "outputs", "inner_edges", "nodes", "placement", "equivalence", "empty_nodes"
    )

    def __init__(
        self,
        inputs: tuple[str, ...],
        outputs: tuple[str, ...],
        inner_edges: tuple[str, ...],
        nodes: Mapping[str, IONode],
        placement: Mapping[str, str],
        equivalence: Partition,
        empty_nodes: frozenset = frozenset(),
    ):
        names_on: dict[str, list[str]] = {}
        for name, wire in placement.items():
            names_on.setdefault(wire, []).append(name)
        sorted_on = {wire: tuple(sorted(names)) for wire, names in names_on.items()}
        self.__dict__.update(
            inputs=tuple(inputs),
            outputs=tuple(outputs),
            inner_edges=tuple(inner_edges),
            nodes=MappingProxyType(dict(nodes)),
            placement=MappingProxyType(dict(placement)),
            equivalence=equivalence,
            empty_nodes=frozenset(empty_nodes),
            _names_on=MappingProxyType(sorted_on),
        )
        producers, consumers, layers = _validate_iodag(self)
        self.__dict__.update(_producers=producers, _consumers=consumers, _layers=layers)

    # -- lookups --------------------------------------------------------

    @property
    def wire_ids(self) -> tuple[str, ...]:
        return self.inputs + self.inner_edges + self.outputs

    def indices_on(self, wire: str) -> tuple[str, ...]:
        """The names on a wire in sorted order (none on an unknown wire)."""
        return self._names_on.get(wire, ())

    def _names_along(self, wires: Iterable[str]) -> tuple[str, ...]:
        return tuple(name for wire in wires for name in self.indices_on(wire))

    def incoming_indices(self, node: str) -> tuple[str, ...]:
        return self._names_along(self.nodes[node].inputs)

    def outgoing_indices(self, node: str) -> tuple[str, ...]:
        return self._names_along(self.nodes[node].outputs)

    def input_index_names(self) -> tuple[str, ...]:
        return self._names_along(self.inputs)

    def output_index_names(self) -> tuple[str, ...]:
        return self._names_along(self.outputs)

    def __eq__(self, other) -> bool:
        """Structural equality on the nose; see :func:`iodag_isomorphic`."""
        return (
            isinstance(other, IODAG)
            and self.inputs == other.inputs
            and self.outputs == other.outputs
            and sorted(self.inner_edges) == sorted(other.inner_edges)
            and dict(self.nodes) == dict(other.nodes)
            and dict(self.placement) == dict(other.placement)
            and self.equivalence == other.equivalence
            and self.empty_nodes == other.empty_nodes
        )

    def __repr__(self) -> str:
        return (
            f"IODAG({len(self.nodes)} nodes, {len(self.wire_ids)} wires, "
            f"{len(self.placement)} indices)"
        )


def _validate_iodag(g: IODAG) -> tuple[dict, dict, tuple]:
    """Check the graph; return its wire ends and layers (see
    :func:`wiregraph._wire_graph`).  Its wire ids are pairwise distinct, so
    no wire runs from the input boundary straight to the output."""
    wire_ids = g.wire_ids
    if len(set(wire_ids)) != len(wire_ids):
        twice = next(w for i, w in enumerate(wire_ids) if w in wire_ids[:i])
        raise InvariantViolation(f"wire {twice!r} is listed twice among the graph's wires")
    producers, consumers, layers = _wire_graph(g.inputs, g.outputs, g.nodes, wire_ids)
    for name, wire in g.placement.items():
        if wire not in producers:
            raise InvariantViolation(f"index {name!r} placed on unknown wire {wire!r}")
    if g.equivalence.universe != set(g.placement):
        raise InvariantViolation("equivalence universe differs from the placed index names")

    for node_id in g.empty_nodes:
        if node_id not in g.nodes:
            raise InvariantViolation(f"empty node {node_id!r} is not a node")
        node = g.nodes[node_id]
        if len(node.inputs) != 1 or len(node.outputs) != 1:
            raise InvariantViolation(
                f"empty node {node_id!r} must have exactly one input and one output wire"
            )
        if not _empty_node_matches(g, node_id):
            raise InvariantViolation(
                f"empty node {node_id!r} has no index bijection between its wires"
            )
    return producers, consumers, layers


def _empty_node_matches(g: IODAG, node_id: str) -> bool:
    """Whether each class has as many names on the empty node's input wire
    as on its output wire, so that the two wires' names pair up classwise."""
    find = g.equivalence.find
    incoming, outgoing = g.incoming_indices(node_id), g.outgoing_indices(node_id)
    return Counter(map(find, incoming)) == Counter(map(find, outgoing))


# -- normalisation -----------------------------------------------------------


def normalize(g: IODAG) -> IODAG:
    """Remove empty nodes whose two wires can be identified.

    Strands running directly from a global input to a global output keep
    their empty node (there is nothing to merge them into).
    """
    while True:
        strands = {n: (*g.nodes[n].inputs, *g.nodes[n].outputs) for n in sorted(g.empty_nodes)}
        removable = [n for n, (a, b) in strands.items() if a not in g.inputs or b not in g.outputs]
        if not removable:
            return g
        node_id = removable[0]
        a, b = strands[node_id]
        keep, drop = (a, b) if (a in g.inputs or b not in g.outputs) else (b, a)

        def moved(wires: Iterable[str]) -> tuple[str, ...]:
            return tuple(keep if w == drop else w for w in wires)

        placement = {name: wire for name, wire in g.placement.items() if wire != drop}
        g = IODAG(
            inputs=g.inputs,
            outputs=moved(g.outputs),
            inner_edges=tuple(w for w in g.inner_edges if w not in (drop, keep))
            + ((keep,) if keep in g.inner_edges else ()),
            nodes={
                other_id: IONode(moved(other.inputs), moved(other.outputs))
                for other_id, other in g.nodes.items()
                if other_id != node_id
            },
            placement=placement,
            equivalence=g.equivalence.restrict(placement),
            empty_nodes=g.empty_nodes - {node_id},
        )


# -- linting ------------------------------------------------------------------


#: the message of each lint rule, formatted with the count, the class and the nodes
_LINT_MESSAGES = {
    "multiple-starting-points": "{count} starting points for the index {cls}: {nodes}",
    "starting-point-for-input-index": (
        "the index {cls} is present in the global inputs and has a starting point: {nodes}"
    ),
    "multiple-endpoints": "{count} endpoints for the index {cls}: {nodes}",
    "endpoint-for-output-index": (
        "the index {cls} is present in the global outputs and has an endpoint: {nodes}"
    ),
}


class LintViolation(Record):
    """One broken well-indexedness rule: the class and the nodes breaking it."""

    _fields = ("rule", "class_names", "nodes")

    def __init__(self, rule: str, class_names: tuple[str, ...], nodes: tuple[str, ...]):
        self.__dict__.update(rule=rule, class_names=class_names, nodes=nodes)

    def render(self) -> str:
        return _LINT_MESSAGES[self.rule].format(
            count=len(self.nodes), cls="/".join(self.class_names), nodes=", ".join(self.nodes)
        )


class LintReport(Record):
    """The violations :func:`lint` found for a mode."""

    _fields = ("mode", "violations")

    def __init__(self, mode: str, violations: tuple[LintViolation, ...]):
        self.__dict__.update(mode=mode, violations=violations)

    @property
    def passed(self) -> bool:
        return not self.violations


def lint(g: IODAG, mode: str) -> LintReport:
    """Check the well-indexedness rules for an interpretation mode.

    'iso': every index class has at most one starting point, and none at
    all if the class reaches a global input wire.  'uni' adds the mirrored
    endpoint rules against global outputs.
    """
    if mode not in ("iso", "uni"):
        raise ValueError(f"unknown mode {mode!r}")
    g = normalize(g)
    find = g.equivalence.find
    starting: dict[str, list[str]] = {}  # class representative -> nodes
    ending: dict[str, list[str]] = {}
    for node_id in sorted(g.nodes):
        incoming = set(map(find, g.incoming_indices(node_id)))
        outgoing = set(map(find, g.outgoing_indices(node_id)))
        for root in outgoing - incoming:
            starting.setdefault(root, []).append(node_id)
        for root in incoming - outgoing:
            ending.setdefault(root, []).append(node_id)
    input_roots = set(map(find, g.input_index_names()))
    rules = [("multiple-starting-points", "starting-point-for-input-index", starting, input_roots)]
    if mode == "uni":
        output_roots = set(map(find, g.output_index_names()))
        rules.append(("multiple-endpoints", "endpoint-for-output-index", ending, output_roots))
    violations: list[LintViolation] = []
    for block in g.equivalence.blocks():
        root = find(next(iter(block)))
        for many, at_boundary, points, boundary in rules:
            nodes = tuple(points.get(root, ()))
            if len(nodes) > 1:
                violations.append(LintViolation(many, tuple(sorted(block)), nodes))
            if nodes and root in boundary:
                violations.append(LintViolation(at_boundary, tuple(sorted(block)), nodes))
    return LintReport(mode=mode, violations=tuple(violations))


# -- composition --------------------------------------------------------------


def _fresh_names(
    ids: Collection[str], clashing: Iterable[str], protected: Collection[str] = ()
) -> dict[str, str]:
    """A fresh name ('x#2', 'x#3', ...) for each of ``ids`` that is in
    ``clashing`` and not ``protected``, taken in order, away from every id
    of both and from the names handed out before it."""
    clashing = set(clashing)
    taken = clashing | set(ids)
    fresh: dict[str, str] = {}
    for x in ids:
        if x in clashing and x not in protected:
            fresh[x] = next(f"{x}#{n}" for n in itertools.count(2) if f"{x}#{n}" not in taken)
            taken.add(fresh[x])
    return fresh


def _relabel(g: IODAG, wire_map: dict, node_map: dict, name_map: dict) -> IODAG:
    def wires(ids: Iterable[str]) -> tuple[str, ...]:
        return tuple(wire_map.get(x, x) for x in ids)

    def i(x):
        return name_map.get(x, x)

    placement = {i(name): wire_map.get(wire, wire) for name, wire in g.placement.items()}
    return IODAG(
        inputs=wires(g.inputs),
        outputs=wires(g.outputs),
        inner_edges=wires(g.inner_edges),
        nodes={
            node_map.get(x, x): IONode(wires(node.inputs), wires(node.outputs))
            for x, node in g.nodes.items()
        },
        placement=placement,
        equivalence=Partition(placement, (map(i, block) for block in g.equivalence.blocks())),
        empty_nodes=frozenset(node_map.get(x, x) for x in g.empty_nodes),
    )


def _avoid_collisions(
    second: IODAG, first: IODAG, protected_wires: set[str], protected_names: set[str]
) -> IODAG:
    """Deterministically rename second's private ids away from first's."""
    maps = (
        _fresh_names(second.wire_ids, first.wire_ids, protected_wires),
        _fresh_names(second.nodes, first.nodes),
        _fresh_names(second.placement, first.placement, protected_names),
    )
    return _relabel(second, *maps) if any(maps) else second


def seq_compose_iodag(second: IODAG, first: IODAG) -> IODAG:
    """Sequential composition along ``first``'s outputs.

    The interface must agree exactly: same wires, same index placements,
    and the same matched classes among those indices.  Interface wires
    become inner edges; the equivalences join by non-forgetting
    composition; clashing private names are renamed ('x#2', 'x#3', ...).
    """
    if set(first.outputs) != set(second.inputs):
        missing = sorted(set(first.outputs) ^ set(second.inputs))
        raise InterfaceMismatch(
            f"interface wires differ: {missing!r} not shared by both graphs"
        )
    interface = set(first.outputs)
    first_names, second_names = set(first.output_index_names()), set(second.input_index_names())
    if first_names != second_names or any(
        first.placement[n] != second.placement[n] for n in first_names
    ):
        raise InterfaceMismatch(
            "interface index placements differ: "
            f"{sorted(first_names)!r} (upstream) vs {sorted(second_names)!r} (downstream)"
        )
    if first.equivalence.restrict(first_names) != second.equivalence.restrict(second_names):
        up = first.equivalence.restrict(first_names).blocks()
        down = second.equivalence.restrict(second_names).blocks()
        raise InterfaceMismatch(
            f"interface index classes differ: {up!r} (upstream) vs {down!r} (downstream)"
        )
    second = _avoid_collisions(second, first, interface, first_names)
    placement = {**first.placement, **second.placement}
    return IODAG(
        inputs=first.inputs,
        outputs=second.outputs,
        inner_edges=first.inner_edges + tuple(first.outputs) + second.inner_edges,
        nodes={**first.nodes, **second.nodes},
        placement=placement,
        equivalence=Partition(
            placement, first.equivalence.blocks() + second.equivalence.blocks()
        ),
        empty_nodes=first.empty_nodes | second.empty_nodes,
    )


def par_compose_iodag(first: IODAG, second: IODAG) -> IODAG:
    """Parallel composition: disjoint union, renaming clashes in ``second``."""
    second = _avoid_collisions(second, first, set(), set())
    placement = {**first.placement, **second.placement}
    return IODAG(
        inputs=first.inputs + second.inputs,
        outputs=first.outputs + second.outputs,
        inner_edges=first.inner_edges + second.inner_edges,
        nodes={**first.nodes, **second.nodes},
        placement=placement,
        equivalence=Partition(
            placement, first.equivalence.blocks() + second.equivalence.blocks()
        ),
        empty_nodes=first.empty_nodes | second.empty_nodes,
    )


# -- corelations of a graph -----------------------------------------------------


DEFAULT_STRUCTURAL_LENGTH = 2


def _family(g: IODAG, names: Iterable[str], lengths: Mapping[str, int] | None) -> IndexFamily:
    if lengths is None:
        return IndexFamily({n: DEFAULT_STRUCTURAL_LENGTH for n in names})
    return IndexFamily({n: lengths[n] for n in names})


def _matching_corelation(
    g: IODAG, in_names: Sequence[str], out_names: Sequence[str], lengths: Mapping[str, int] | None
) -> Corelation:
    """The corelation relating two name lists wherever the graph's
    equivalence matches the names."""
    groups: dict = {}
    for tagged in _tag("in", in_names) + _tag("out", out_names):
        groups.setdefault(g.equivalence.find(tagged[1]), []).append(tagged)
    return Corelation.from_pairs(
        _family(g, in_names, lengths), _family(g, out_names, lengths), groups.values()
    )


def node_corelation(
    g: IODAG, node_id: str, lengths: Mapping[str, int] | None = None
) -> Corelation:
    """The corelation between a node's incoming and outgoing index families.

    Names are related exactly when the graph's equivalence matches them.
    Without explicit lengths every index gets length 2, the smallest size
    at which matching is a real constraint.
    """
    if node_id not in g.nodes:
        raise UnknownNode(f"no node {node_id!r}")
    return _matching_corelation(
        g, g.incoming_indices(node_id), g.outgoing_indices(node_id), lengths
    )


def preprocessing(g: IODAG, lengths: Mapping[str, int] | None = None) -> Corelation:
    """The input-matching corelation: names related whenever the graph's
    equivalence relates them among the global inputs."""
    names = g.input_index_names()
    return _matching_corelation(g, names, names, lengths)


def total_corelation(g: IODAG, lengths: Mapping[str, int] | None = None) -> Corelation:
    """The boundary-to-boundary corelation induced by the graph's classes."""
    return _matching_corelation(g, g.input_index_names(), g.output_index_names(), lengths)


def _layer_corelations(
    g: IODAG, lengths: Mapping[str, int] | None
) -> Iterator[tuple[list[str], Corelation, Corelation, Corelation]]:
    """Each node layer of a normalized graph with its corelation (the
    layer's node corelations beside identities on the passthrough wires),
    its upstream fold (the input-matching corelation followed by every
    earlier layer) and its downstream fold (the upstream fold followed by
    the layer)."""
    downstream = preprocessing(g, lengths)
    for step in _walk(g.inputs, g.nodes, g._layers):
        parts = [node_corelation(g, n, lengths) for n in step.layer]
        parts += [
            Corelation.identity(_family(g, g.indices_on(wire), lengths))
            for wire in step.passthrough
        ]
        layer_corelation = reduce(product_corelations, parts)
        upstream, downstream = downstream, compose_corelations(layer_corelation, downstream)
        yield step.layer, layer_corelation, upstream, downstream


# -- interpretation ---------------------------------------------------------


class Interpretation(Record):
    """Concrete spaces and maps for an indexed graph.

    ``lengths`` fixes the value count of every index name (constant on
    classes); ``spaces`` assigns each wire a partitioned space whose sector
    labels are the value tuples of the wire's names in sorted name order
    ('*' for unindexed wires); ``morphs`` assigns each non-empty node a
    routed map following the node's matching route.
    """

    _fields = ("lengths", "spaces", "morphs")  # each read-only

    def __init__(
        self,
        lengths: Mapping[str, int],
        spaces: Mapping[str, PartitionedSpace],
        morphs: Mapping[str, RoutedMap],
    ):
        self.__dict__.update(
            lengths=MappingProxyType(dict(lengths)),
            spaces=MappingProxyType(dict(spaces)),
            morphs=MappingProxyType(dict(morphs)),
        )


def expected_wire_labels(g: IODAG, wire: str, lengths: Mapping[str, int]) -> tuple:
    """Sector labels an interpreted wire must carry."""
    return _family(g, g.indices_on(wire), lengths).value_labels()


#: the most sector labels a message lists; a longer list gives its count
_LISTED_LABELS = 8


def _labels_text(labels: tuple) -> str:
    """``labels`` for an error message: all of them if there are at most
    ``_LISTED_LABELS``, else their count and the first few."""
    if len(labels) <= _LISTED_LABELS:
        return repr(labels)
    first = ", ".join(map(repr, labels[: _LISTED_LABELS // 2]))
    return f"({len(labels)} labels: {first}, ...)"


def wire_space(
    g: IODAG, wire: str, lengths: Mapping[str, int], dims: Mapping | int = 1
) -> PartitionedSpace:
    """Build a wire space with the mandatory labels and chosen sector dims.

    ``dims`` may be a single int for uniform sector dimensions or a mapping
    from label to dimension.
    """
    _, _, spaces = _arrays()
    labels = _family(g, g.indices_on(wire), lengths).index_set()
    dim_list = [dims] * len(labels) if isinstance(dims, int) else [dims[label] for label in labels]
    return spaces.PartitionedSpace(labels, dim_list)


def _matching_route(
    g: IODAG,
    matching: Corelation,
    inputs: Sequence[str],
    outputs: Sequence[str],
    interp: Interpretation,
) -> Relation:
    """``bar(matching)`` over the tensor labels of the spaces of the wires
    ``inputs`` and ``outputs``: its axes are reordered to the names along
    those wires (wire by wire, sorted on each wire), which is the sector
    order of ``tensor_many`` of the wire spaces."""
    _, rel, spaces = _arrays()
    families = (matching.domain, matching.codomain)
    shape = [family.length(name) for family in families for name in family.names]
    axes = [matching.domain.names.index(name) for name in g._names_along(inputs)]
    axes += [len(axes) + matching.codomain.names.index(name) for name in g._names_along(outputs)]
    matrix = bar(matching).matrix
    domain, codomain = (
        spaces.tensor_many([interp.spaces[w] for w in wires]).sector_labels
        for wires in (inputs, outputs)
    )
    return rel.Relation(domain, codomain, matrix.reshape(shape).transpose(axes).reshape(matrix.shape))


def node_route(g: IODAG, node_id: str, interp: Interpretation) -> Relation:
    """The node's matching route over the tensor labels of its wire spaces."""
    matching, node = node_corelation(g, node_id, interp.lengths), g.nodes[node_id]
    return _matching_route(g, matching, node.inputs, node.outputs, interp)


def _matching_projector(
    route: Relation, domain: PartitionedSpace, codomain: PartitionedSpace, name: str
) -> RoutedMap:
    """The identity on every sector block that a matching route allows, and
    zero elsewhere.  A paired block must be square; ``name`` says whose
    route it is in the error.

    An empty node's two wires carry as many names of each class, so its
    route pairs sectors one to one, and its projector is the identity when
    each class has one name per wire.  With two names of one class on a
    wire, only the sectors where they agree pass (the Kronecker delta of
    well-indexedness, as on any other node).
    """
    from .routed_maps import RoutedMap

    np, _, spaces = _arrays()
    matrix = np.zeros((codomain.total_dim, domain.total_dim), dtype=complex)
    for k, l, rows, cols in spaces.sector_blocks(route.matrix, domain, codomain):
        if domain.sector_dims[k] != codomain.sector_dims[l]:
            raise InvariantViolation(
                f"{name} pairs sector {route.domain.labels[k]!r} of dimension "
                f"{domain.sector_dims[k]} with sector {route.codomain.labels[l]!r} of "
                f"dimension {codomain.sector_dims[l]}"
            )
        matrix[rows, cols] = np.eye(domain.sector_dims[k])
    return RoutedMap(route, matrix, domain, codomain)


def preprocessing_map(g: IODAG, interp: Interpretation) -> RoutedMap:
    """The index-matching projector on the tensor of the input wire spaces:
    the matching projector of :func:`preprocessing`, whose route is the
    partial identity on the tuples whose matched input indices agree."""
    _, _, spaces = _arrays()
    space = spaces.tensor_many([interp.spaces[w] for w in g.inputs])
    route = _matching_route(g, preprocessing(g, interp.lengths), g.inputs, g.inputs, interp)
    return _matching_projector(route, space, space, "the input matching")


def interpret(g: IODAG, interp: Interpretation, mode: str = "iso") -> RoutedMap:
    """Evaluate an interpretation as one routed circuit.

    Requires the graph to pass :func:`lint` for ``mode``, a morph for each
    non-empty node and none for an empty node (an identity strand) or an
    unknown one, every morph to follow its node's matching route, and every
    morph to be a practical isometry ('iso') or practical unitary ('uni').
    Every empty node is read as its matching projector, which must pair
    square blocks (see :func:`_matching_projector`).  The circuit's first
    box is the input-matching projector (:func:`preprocessing_map`) on fresh
    input wires; every node of the graph as given follows it, an empty node
    as its projector and any other as its morph, which must carry that
    node's route on the graph as given.  The well-indexedness rules
    guarantee the result is itself a practical isometry (resp. unitary).
    """
    if mode not in ("iso", "uni"):
        raise ValueError(f"unknown mode {mode!r}")
    for node_id in sorted(interp.morphs):
        if node_id in g.empty_nodes:
            raise InvariantViolation(f"empty node {node_id!r} takes no morphism")
        if node_id not in g.nodes:
            raise InvariantViolation(f"morphism given for unknown node {node_id!r}")
    report = lint(g, mode)
    if not report.passed:
        violations = "; ".join(v.render() for v in report.violations)
        raise LintFailure(f"graph is not well-indexed for mode {mode}: {violations}")
    for name in g.placement:
        if name not in interp.lengths:
            raise InvariantViolation(f"no length for index {name!r}")
    for block in g.equivalence.blocks():
        if len({interp.lengths[n] for n in block}) > 1:
            raise LengthMismatch(f"lengths differ on matched indices {sorted(block)!r}")
    for wire in g.wire_ids:
        if wire not in interp.spaces:
            raise InvariantViolation(f"no space for wire {wire!r}")
        expected = expected_wire_labels(g, wire, interp.lengths)
        if interp.spaces[wire].sector_labels.labels != expected:
            raise InvariantViolation(
                f"wire {wire!r} must carry sector labels {_labels_text(expected)}, got "
                f"{_labels_text(interp.spaces[wire].sector_labels.labels)}"
            )

    strands = {}
    for node_id in sorted(g.empty_nodes):
        route, node = node_route(g, node_id, interp), g.nodes[node_id]
        spaces = (interp.spaces[w] for w in (*node.inputs, *node.outputs))
        strands[node_id] = _matching_projector(route, *spaces, f"empty node {node_id!r}")

    from . import routed_maps as rmap
    from .circuits import CircuitBuilder, evaluate

    fresh = _fresh_names(g.inputs, g.wire_ids)
    builder = CircuitBuilder(mode="pure")
    for wire in g.wire_ids:
        builder.wire(wire, interp.spaces[wire])
    for wire, new in fresh.items():
        builder.wire(new, interp.spaces[wire])
    builder.inputs(*fresh.values()).outputs(*g.outputs)
    (box,) = _fresh_names(["matching"], {"matching", *g.nodes}).values()
    builder.box(box, fresh.values(), g.inputs, preprocessing_map(g, interp))
    for node_id, node in g.nodes.items():
        if node_id in g.empty_nodes:
            morph = strands[node_id]
        else:
            if node_id not in interp.morphs:
                raise InvariantViolation(f"no morphism for node {node_id!r}")
            morph = interp.morphs[node_id]
            if morph.route != node_route(g, node_id, interp):
                raise RouteViolation(
                    f"morphism of node {node_id!r} does not carry the node's matching route"
                )
            check = rmap.is_practical_isometry if mode == "iso" else rmap.is_practical_unitary
            if not check(morph):
                raise NotPracticalIsometry(
                    f"morphism of node {node_id!r} is not a practical "
                    + ("isometry" if mode == "iso" else "unitary")
                )
        builder.box(node_id, node.inputs, node.outputs, morph)
    return evaluate(builder.build())


# -- isomorphism ---------------------------------------------------------------


def iodag_isomorphic(g1: IODAG, g2: IODAG) -> bool:
    """Equality up to renaming of nodes, inner edges and inner index names,
    and up to the order of wires.

    Boundary wires and the index names placed on them stay fixed, matching
    the notion of isomorphism the composition theorems work up to.  Wire
    order does not count: the boundaries are compared as sets, and each
    node's wires are matched in every order.  So a node consuming
    ``(a, b)`` is isomorphic to one consuming ``(b, a)``, and the boundary
    ``(a, b)`` to ``(b, a)``, though an interpretation of one graph needs
    a swap of tensor factors to serve the other.
    """
    if (
        set(g1.inputs) != set(g2.inputs)
        or set(g1.outputs) != set(g2.outputs)
        or len(g1.inner_edges) != len(g2.inner_edges)
        or len(g1.nodes) != len(g2.nodes)
        or len(g1.placement) != len(g2.placement)
        or len(g1.empty_nodes) != len(g2.empty_nodes)
    ):
        return False
    for wire in g1.inputs + g1.outputs:
        if g1.indices_on(wire) and set(g1.indices_on(wire)) != set(g2.indices_on(wire)):
            return False

    nodes1 = sorted(g1.nodes)
    inner1, inner2 = set(g1.inner_edges), set(g2.inner_edges)

    def extend_wires(pairs: list[tuple[str, str]], wire_map: dict) -> Iterable[dict]:
        if not pairs:
            yield wire_map
            return
        (w1, w2), rest = pairs[0], pairs[1:]
        if w1 in wire_map:
            if wire_map[w1] == w2:
                yield from extend_wires(rest, wire_map)
            return
        if w2 in wire_map.values():
            return
        if (w1 in inner1) != (w2 in inner2):
            return
        if w1 not in inner1 and w1 != w2:
            return
        if len(g1.indices_on(w1)) != len(g2.indices_on(w2)):
            return
        yield from extend_wires(rest, {**wire_map, w1: w2})

    def match_nodes(i: int, node_map: dict, wire_map: dict) -> bool:
        if i == len(nodes1):
            return _match_names(g1, g2, wire_map)
        n1 = nodes1[i]
        spec1 = g1.nodes[n1]
        for n2 in sorted(set(g2.nodes) - set(node_map.values())):
            spec2 = g2.nodes[n2]
            if (n1 in g1.empty_nodes) != (n2 in g2.empty_nodes):
                continue
            if len(spec1.inputs) != len(spec2.inputs) or len(spec1.outputs) != len(
                spec2.outputs
            ):
                continue
            for in_perm in itertools.permutations(spec2.inputs):
                for out_perm in itertools.permutations(spec2.outputs):
                    pairs = list(zip(spec1.inputs, in_perm)) + list(
                        zip(spec1.outputs, out_perm)
                    )
                    for new_map in extend_wires(pairs, wire_map):
                        if match_nodes(i + 1, {**node_map, n1: n2}, new_map):
                            return True
        return False

    return match_nodes(0, {}, {})


def _match_names(g1: IODAG, g2: IODAG, wire_map: dict) -> bool:
    """Find a name bijection consistent with the wire map and the classes."""
    full_wire_map = dict(wire_map)
    for wire in g1.wire_ids:
        full_wire_map.setdefault(wire, wire)
    per_wire: list[tuple[tuple[str, ...], tuple[str, ...]]] = []
    for w1 in sorted(g1.wire_ids):
        names1 = g1.indices_on(w1)
        names2 = g2.indices_on(full_wire_map[w1])
        if len(names1) != len(names2):
            return False
        boundary = w1 in g1.inputs or w1 in g1.outputs
        if boundary and set(names1) != set(names2):
            return False
        per_wire.append((names1, names2))

    def assign(i: int, name_map: dict) -> bool:
        if i == len(per_wire):
            items = list(name_map.items())
            for (a1, a2), (b1, b2) in itertools.combinations(items, 2):
                if g1.equivalence.related(a1, b1) != g2.equivalence.related(a2, b2):
                    return False
            return True
        names1, names2 = per_wire[i]
        for perm in itertools.permutations(names2):
            candidate = dict(zip(names1, perm))
            boundary_ok = all(
                candidate[n] == n
                for n in names1
                if g1.placement[n] in g1.inputs or g1.placement[n] in g1.outputs
            )
            if not boundary_ok:
                continue
            if assign(i + 1, {**name_map, **candidate}):
                return True
        return False

    return assign(0, {})


# -- export ---------------------------------------------------------------------


def iodag_to_dot(g: IODAG) -> str:
    """Graphviz rendering; wires show their index names with class markers."""
    class_rep = {
        name: sorted(g.equivalence.block_of(name))[0] for name in g.placement
    }
    nodes, wires = {}, {}
    for node_id in sorted(g.nodes):
        shape = "circle" if node_id in g.empty_nodes else "box"
        nodes[node_id] = f"shape={shape}, label={_dot_quoted(node_id)}"
    for wire in sorted(g.wire_ids):
        decorations = ",".join(
            f"{name}~{class_rep[name]}" for name in g.indices_on(wire)
        )
        wires[wire] = wire if not decorations else f"{wire}^{{{decorations}}}"
    return _dot_graph("indexed_graph", g, g.inputs, g.outputs, nodes, wires)
