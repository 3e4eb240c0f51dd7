"""Routed circuits: DAGs of routed maps or routed CP maps on typed wires.

Evaluation contracts the box maps as a tensor network, one complex table
per box with an axis per wire it touches, pairwise in a greedy order
planned before any array is touched.  One builder names the axes of both
networks, the operators' and the routes': a source wire by its input
axis, so only a wire both a source and a target gets an identity; wires
a box does not touch get none, and reordering wires only relabels axes.
The result is built, and checked against its route, once.  Soundness of
the underlying frameworks makes it independent of the chosen foliation,
which is also checked by tests.  Every route network, one boolean table
per box route, is summed by one greedy variable elimination, also
planned first: the route of an evaluation, the properness gate of every
sequential interface, and the accessible space of a slice, both as the
index-summation recipe and as the insertion-of-test-relations definition
that justifies it.  The accessible space takes every box (a part of the
circuit not connected to the slice still counts: if its routes vanish,
so does every slice); insertion adds a test relation on each slice wire
to the recipe's network, so one run tests every candidate.  A network's
layout and plan depend only on the circuit's shape: its mode, its wires'
sector dimensions, and its boxes' wires and Kraus counts, which a
circuit derives and hashes once, with its foliation, when it is built.
Each network is compiled once per shape into a frozen program, behind
one bounded module-level cache, the only cache of plans: the signatures
and shapes of its tables, its plan, its gathers and fixed tables, and
nothing of the circuit's matrices, routes or labels.  A call reshapes
the boxes' own arrays and runs the plan; an operator program also lays
out where its products go, in one buffer that each thread keeps, so a
warm evaluation allocates little beyond its result.
"""

from __future__ import annotations

import heapq
import itertools
import math
import threading
from functools import lru_cache, reduce
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, NamedTuple, Sequence, Union

import numpy as np

from . import relations as rel
from .errors import InvalidSlice, InvariantViolation, RouteViolation, TypeMismatch
from .frozen import Record
from .relations import CPRelation, Relation
from .routed_maps import DEFAULT_TOLERANCE, RoutedMap
from .spaces import PartitionedSpace, kron_to_canonical, tensor_many
from .wiregraph import _dot_graph, _dot_quoted, _walk, _wire_graph, _WireGraph

if TYPE_CHECKING:
    from .routed_cpms import RoutedCPM

    BoxOp = Union[RoutedMap, RoutedCPM]


class Box(Record):
    """One node of a circuit: ordered input/output wires and the map applied."""

    _fields = ("inputs", "outputs", "op")

    def __init__(self, inputs: Iterable[str], outputs: Iterable[str], op: BoxOp):
        self.__dict__.update(inputs=tuple(inputs), outputs=tuple(outputs), op=op)


class Slice(Record):
    """An antichain of wires: a horizontal cut through part of the circuit."""

    _fields = ("wires",)

    def __init__(self, wires: Iterable[str]):
        wires = tuple(wires)
        if len(set(wires)) != len(wires):
            raise InvalidSlice(f"slice repeats wires: {wires!r}")
        self.__dict__["wires"] = wires


class RoutedCircuit(_WireGraph, Record):
    """An immutable routed circuit; see :class:`CircuitBuilder` for assembly."""

    _fields = ("wires", "boxes", "input_wires", "output_wires", "mode")

    def __init__(
        self,
        wires: Mapping[str, PartitionedSpace],
        boxes: Mapping[str, Box],
        input_wires: tuple[str, ...],
        output_wires: tuple[str, ...],
        mode: str = "pure",
    ):
        self.__dict__.update(
            wires=MappingProxyType(dict(wires)),
            boxes=MappingProxyType(dict(boxes)),
            input_wires=tuple(input_wires),
            output_wires=tuple(output_wires),
            mode=mode,
        )
        producers, consumers, op_type, layers = _validate_circuit(self)
        self.__dict__.update(
            _producers=producers, _consumers=consumers, _op_type=op_type, _layers=layers,
            _shape=_shape_of(self),
        )

    def __reduce__(self):
        """Rebuild through the constructor, which derives the rest again."""
        wires, boxes = dict(self.wires), dict(self.boxes)
        return type(self), (wires, boxes, self.input_wires, self.output_wires, self.mode)

    def wire_ancestors(self, wire: str) -> set[str]:
        """All wires strictly upstream of ``wire``."""
        seen: set[str] = set()
        stack = [wire]
        while stack:
            current = stack.pop()
            producer = self.producer_of(current)
            if producer is None:
                continue
            for upstream in self.boxes[producer].inputs:
                if upstream not in seen:
                    seen.add(upstream)
                    stack.append(upstream)
        return seen


def _validate_circuit(circuit: RoutedCircuit) -> tuple[dict, dict, type, tuple]:
    """Check the circuit; return its wire-to-producer and wire-to-consumer
    maps, the class of its box maps and its layers (see
    :func:`_wire_graph`)."""
    if circuit.mode not in ("pure", "cpm"):
        raise InvariantViolation(f"unknown circuit mode {circuit.mode!r}")
    if circuit.mode == "pure":
        expected_type = RoutedMap
    else:
        from .routed_cpms import RoutedCPM as expected_type
    for box_id, box in circuit.boxes.items():
        if not isinstance(box.op, expected_type):
            raise InvariantViolation(
                f"box {box_id!r} holds a {type(box.op).__name__}, but the circuit "
                f"mode is {circuit.mode!r}"
            )
    graph = circuit.input_wires, circuit.output_wires, circuit.boxes, circuit.wires
    producers, consumers, layers = _wire_graph(*graph)

    # box typing against the tensor of its wires' spaces
    for box_id, box in circuit.boxes.items():
        sides = (("domain", "input", box.inputs), ("codomain", "output", box.outputs))
        for side, kind, wires in sides:
            want, have = tensor_many([circuit.wires[w] for w in wires]), getattr(box.op, side)
            if have != want:
                raise TypeMismatch(
                    f"box {box_id!r}: map {side} {have!r} does not match the "
                    f"tensor of its {kind} wires {want!r}"
                )
    return producers, consumers, expected_type, layers


class _BoxShape(NamedTuple):
    """What a network reads of a box: its wires and its Kraus count."""

    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    count: int


class _Shape(NamedTuple):
    """What the networks of a circuit read of it, and nothing of its
    matrices, routes or labels: the key of its compiled programs, hashed
    once (a tuple does not keep its hash)."""

    mode: str
    wires: tuple  # (wire, its sector dimensions), in declaration order
    boxes: tuple  # (box id, its _BoxShape), in declaration order
    digest: int  # the hash of the fields above

    def __hash__(self) -> int:
        return self.digest


def _shape_of(circuit: RoutedCircuit) -> _Shape:
    boxes = circuit.boxes.items()
    fields = (
        circuit.mode,
        tuple((w, space.sector_dims) for w, space in circuit.wires.items()),
        tuple((b, _BoxShape(x.inputs, x.outputs, len(x.op.kraus_stack))) for b, x in boxes),
    )
    return _Shape(*fields, hash(fields))


class CircuitBuilder:
    """Accumulates wires and boxes, then freezes them into a RoutedCircuit."""

    def __init__(self, mode: str = "pure"):
        self.mode = mode
        self._wires: dict[str, PartitionedSpace] = {}
        self._boxes: dict[str, Box] = {}
        self._inputs: list[str] = []
        self._outputs: list[str] = []

    def wire(self, wire_id: str, space: PartitionedSpace) -> "CircuitBuilder":
        if wire_id in self._wires:
            raise InvariantViolation(f"wire {wire_id!r} declared twice")
        self._wires[wire_id] = space
        return self

    def box(
        self, box_id: str, inputs: Iterable[str], outputs: Iterable[str], op: BoxOp
    ) -> "CircuitBuilder":
        if box_id in self._boxes:
            raise InvariantViolation(f"box {box_id!r} declared twice")
        self._boxes[box_id] = Box(inputs, outputs, op)
        return self

    def inputs(self, *wire_ids: str) -> "CircuitBuilder":
        self._inputs.extend(wire_ids)
        return self

    def outputs(self, *wire_ids: str) -> "CircuitBuilder":
        self._outputs.extend(wire_ids)
        return self

    def build(self) -> RoutedCircuit:
        return RoutedCircuit(
            self._wires, self._boxes, tuple(self._inputs), tuple(self._outputs), self.mode
        )


# -- foliation and evaluation ------------------------------------------


def _foliation_layers(
    circuit: RoutedCircuit, box_order: Sequence[str] | None = None
) -> Sequence[Sequence[str]]:
    """Group boxes into sequential layers (Kahn, stable box-id tiebreak,
    derived once with the circuit).

    With ``box_order`` given, each layer holds exactly one box, in that
    order; the order must be topological.
    """
    if box_order is None:
        return circuit._layers
    if sorted(box_order) != sorted(circuit.boxes):
        raise InvariantViolation("box_order must enumerate every box exactly once")
    fired = {None}  # the input boundary
    for box_id in box_order:
        for wire in circuit.boxes[box_id].inputs:
            if circuit.producer_of(wire) not in fired:
                raise InvariantViolation(
                    f"box_order is not topological: {box_id!r} fires before "
                    f"{circuit.producer_of(wire)!r}, which produces its input {wire!r}"
                )
        fired.add(box_id)
    return [[box_id] for box_id in box_order]


def _interface_space(circuit: RoutedCircuit, wire_ids: Sequence[str]) -> PartitionedSpace:
    return tensor_many([circuit.wires[w] for w in wire_ids])


# Axis labels of the networks besides the wires: the source side of a
# wire, the Kraus operator index of a box, and the candidate tuple of a
# slice in insertion.
_INPUT, _KRAUS, _CANDIDATE = object(), object(), object()


class _Contraction(NamedTuple):
    """A planned pairwise contraction; see :func:`_contraction_plan`."""

    steps: list  # (slot, slot, their axis orders, their matrix shapes, result shape)
    result: list  # the axis order taking the last slot to the result
    batch: list  # the batch labels of the result's first axis, outermost first


def _contraction_plan(
    signatures: Sequence[Sequence], open_labels: Sequence, sizes: Mapping
) -> _Contraction:
    """Plan contracting tables pairwise; table ``i`` has one axis per label
    of ``signatures[i]``, and the result one per label of ``open_labels``.

    A label on two tables is summed.  Any other label on one table is a
    batch label (a Kraus index), at most one per table; a pair's batch
    axes merge into one, the first table's outermost, and the result leads
    with that axis if there is one.  The next pair is the pair sharing a
    label whose result is smallest, ties to the lowest table indices, from
    a heap over neighbouring pairs; parts left disconnected are joined by
    outer products in table order.  Each pair is laid out for one matrix
    product (free axes, batch axis, summed axes against summed axes, batch
    axis, free axes), whose two matrix shapes a step records, so merging
    batch axes is a reshape.
    """
    signatures = list(signatures) or [[]]  # no table: the scalar 1
    holders: dict = {}
    for slot, signature in enumerate(signatures):
        for label in signature:
            holders.setdefault(label, []).append(slot)
    batch = {label for label, at in holders.items() if len(at) == 1} - set(open_labels)
    axes = [[_KRAUS if label in batch else label for label in s] for s in signatures]
    batches = [[label for label in s if label in batch] for s in signatures]
    labels = [set(s) for s in signatures]
    steps, alive = [], set(range(len(signatures)))
    size_of = sizes.__getitem__

    def size(a, b):
        return math.prod(map(size_of, labels[a] ^ labels[b]))

    def join(a, b):
        shared = labels[a] & labels[b]
        free_a = [x for x in axes[a] if x not in shared and x is not _KRAUS]
        free_b = [x for x in axes[b] if x not in shared and x is not _KRAUS]
        summed = [x for x in axes[a] if x in shared]
        order_a = free_a + [_KRAUS] * bool(batches[a]) + summed
        order_b = summed + [_KRAUS] * bool(batches[b]) + free_b
        inner = math.prod(map(size_of, summed))
        rows = math.prod(map(size_of, free_a + batches[a]))
        columns = math.prod(map(size_of, free_b + batches[b]))
        batches.append(batches[a] + batches[b])
        axes.append(free_a + [_KRAUS] * bool(batches[-1]) + free_b)
        labels.append(labels[a] ^ labels[b])
        count = math.prod(map(size_of, batches[-1]))
        shape = tuple([count if x is _KRAUS else sizes[x] for x in axes[-1]])
        orders = [*map(axes[a].index, order_a)], [*map(axes[b].index, order_b)]
        steps.append((a, b, *orders, (rows, inner), (inner, columns), shape))
        alive.difference_update((a, b))
        alive.add(len(axes) - 1)
        return len(axes) - 1

    heap = sorted({(size(*at), *at) for at in holders.values() if len(at) == 2})
    while heap:
        _, a, b = heapq.heappop(heap)
        if a in alive and b in alive:
            slot = join(a, b)
            neighbours = set()
            for label in labels[slot]:
                at = holders[label]
                if len(at) == 2:  # the new slot takes the place of a or b
                    other = at[0] if at[1] in (a, b) else at[1]
                    holders[label] = (other, slot)
                    neighbours.add(other)
            for other in sorted(neighbours):
                heapq.heappush(heap, (size(other, slot), other, slot))
    last = reduce(join, sorted(alive))
    result = [_KRAUS] * bool(batches[last]) + list(open_labels)
    return _Contraction(steps, [axes[last].index(x) for x in result], batches[last])


def _frozen(value):
    """``value`` with every list and tuple in it, at any depth, a tuple
    (a named tuple keeps its type)."""
    if not isinstance(value, (list, tuple)):
        return value
    items = map(_frozen, value)
    return type(value)(*items) if hasattr(value, "_fields") else tuple(items)


class _Workspace(NamedTuple):
    """Regions of one byte buffer for a planned contraction; see :func:`_workspace`."""

    steps: tuple  # per step: its left load, right load and product, each a region or None
    nbytes: int


def _workspace(plan: _Contraction, tables: Sequence) -> _Workspace:
    """Lay out in one buffer each step's product, and each operand load of
    ``plan`` that a reshape cannot view, for tables given as ``(positions,
    dtype, shape)``: each axis's rank by stride in the dense memory the
    table views, as in a transpose of a C-contiguous array.

    Every axis has a size above 1, so a reshape views a group of axes
    exactly when their positions run up one by one; a load that cannot is
    copied in C order, as ``reshape`` would copy it, so each product sees
    the operands it would see without a workspace.  A region is ``(start,
    end, dtype, shape)``, at the lowest offset, in 64-byte units, that
    overlaps no region in use.  A step's product is placed first, and may
    take the place of a table that a load copies, since the copies are made
    before it is written; then the copies.  A region is free again once the
    step reading it is done.
    """
    slots = [(tuple(positions), np.dtype(dtype), tuple(shape)) for positions, dtype, shape in tables]
    busy: dict = {}  # slot, or 'left'/'right' for a step's loads -> (start, end)
    nbytes = 0

    def place(key, dtype, shape):
        nonlocal nbytes
        size = math.prod(shape) * dtype.itemsize
        start = 0
        for begin, end in sorted(busy.values()):
            if begin - start >= size:
                break
            start = max(start, end)
        busy[key] = start, start + -(-size // 64) * 64
        nbytes = max(nbytes, busy[key][1])
        return start, start + size, dtype, shape

    def copied(slot, order, matrix):
        """The shape of the copy a load needs, or None for a view."""
        positions, _, shape = slots[slot]
        moved = [positions[i] for i in order]
        rows = next(k for k in range(len(order) + 1)
                    if math.prod(shape[i] for i in order[:k]) == matrix[0])
        if all(q == p + 1 for run in (moved[:rows], moved[rows:]) for p, q in zip(run, run[1:])):
            return None
        return tuple(shape[i] for i in order)

    steps = []
    for a, b, order_a, order_b, shape_a, shape_b, shape in plan.steps:
        loads = ("left", a, copied(a, order_a, shape_a)), ("right", b, copied(b, order_b, shape_b))
        read = {slot: busy.pop(slot) for _, slot, copy in loads if copy and slot in busy}
        dtype = np.result_type(slots[a][1], slots[b][1])
        product = place(len(slots), dtype, (shape_a[0], shape_b[1]))
        busy.update(read)
        at_a, at_b = (copy and place(key, slots[slot][1], copy) for key, slot, copy in loads)
        steps.append((at_a, at_b, product))
        for key in ("left", "right", a, b):
            busy.pop(key, None)
        slots.append((tuple(range(len(shape))), dtype, shape))
    return _Workspace(tuple(steps), nbytes)


_arenas = threading.local()

#: the largest workspace a thread keeps between calls; a larger one lives
#: for one call only
_WORKSPACE_CAP = 64 << 20


def _arena(nbytes: int) -> np.ndarray:
    """A byte buffer of at least ``nbytes``: this thread's, grown to fit, or
    over the cap a fresh one that is not kept."""
    if nbytes > _WORKSPACE_CAP:
        return np.empty(nbytes, np.uint8)
    arena = getattr(_arenas, "buffer", None)
    if arena is None or arena.size < nbytes:
        arena = _arenas.buffer = np.empty(nbytes, np.uint8)
    return arena


def _run_contraction(
    plan: _Contraction, tables: Sequence[np.ndarray], workspace: _Workspace | None = None
) -> np.ndarray:
    """Carry out ``plan`` on tables of the signatures it was made for: each
    step reshapes its two tables to matrices and multiplies them with one
    ``np.dot``, the calls NumPy's tensor dot product makes, so the products
    are the same to the bit.

    With a ``workspace`` planned for the tables, the products and the
    copied loads are written into this thread's arena (see :func:`_arena`),
    and the result is a view of it, valid until the next run on the thread.
    """
    slots = list(tables) or [np.ones(())]
    arena = None if workspace is None else _arena(workspace.nbytes)
    regions = itertools.repeat((None,) * 3) if workspace is None else workspace.steps

    def region(at):
        if at is None:
            return None
        start, end, dtype, shape = at
        return arena[start:end].view(dtype).reshape(shape)

    def operand(table, order, shape, at):
        if at is None:
            return table.transpose(order).reshape(shape)
        copy = region(at)
        np.copyto(copy, table.transpose(order))
        return copy.reshape(shape)

    for (a, b, order_a, order_b, shape_a, shape_b, shape), (at_a, at_b, at) in zip(
        plan.steps, regions
    ):
        left = operand(slots[a], order_a, shape_a, at_a)
        right = operand(slots[b], order_b, shape_b, at_b)
        slots[a] = slots[b] = None
        slots.append(np.dot(left, right, out=region(at)).reshape(shape))
    return slots[-1].transpose(plan.result)


class _Plan(NamedTuple):
    """A planned elimination; see :func:`_elimination_plan`."""

    loads: list  # per table: the axis order that sorts its variables, or None
    steps: list  # (operand slots, their broadcast shapes, the axes summed out)
    left: list  # (slot, broadcast shape onto the keep axes) of what no step took
    keep_shape: tuple[int, ...]


def _elimination_plan(
    signatures: Sequence[Sequence], keep: Sequence, sizes: Mapping
) -> _Plan:
    """Plan summing a product of boolean tables over every variable not in
    ``keep``; table ``i`` has one axis per variable of ``signatures[i]``.

    The order is greedy: next comes the variable whose joint, over the
    tables that touch it, is smallest (ties to the earliest variable).  A
    step joins those tables, and every other table that fits inside their
    joint, and sums out every variable no table outside the step touches.
    Variables are numbered, ``keep`` first, and every table keeps its axes
    in that order, so a join is a reshape and a broadcast.  The plan
    depends only on the signatures, so tables of the same signatures can
    share it.
    """
    rank = {v: i for i, v in enumerate(dict.fromkeys(itertools.chain(keep, *signatures)))}
    dims = [sizes[v] for v in rank]
    loads, vars_of = [], []
    touching: list[set[int]] = [set() for _ in rank]
    for slot, signature in enumerate(signatures):
        ids = [rank[v] for v in signature]
        order = sorted(range(len(ids)), key=ids.__getitem__)
        loads.append(None if order == list(range(len(ids))) else order)
        vars_of.append(frozenset(ids))
        for i in ids:
            touching[i].add(slot)

    def joint(v):
        union = frozenset().union(*map(vars_of.__getitem__, touching[v]))
        return math.prod(map(dims.__getitem__, union)), v, union

    cost = {v: joint(v) for v in range(len(keep), len(rank))}
    steps = []
    while cost:
        _, victim, union = min(cost.values())
        # every table inside the joint comes along at no extra size
        near = set().union(*map(touching.__getitem__, union))
        joined = {s for s in near if vars_of[s] <= union}
        operands = sorted(joined)
        axes = sorted(union)
        gone = [u for u in axes if u in cost and touching[u] <= joined]
        shapes = [[dims[u] if u in vars_of[s] else 1 for u in axes] for s in operands]
        steps.append((operands, shapes, tuple(axes.index(u) for u in gone)))
        slot = len(vars_of)
        vars_of.append(union.difference(gone))
        for u in gone:
            del cost[u]
        for u in vars_of[slot]:
            touching[u] = touching[u].difference(operands) | {slot}
            if u in cost:
                cost[u] = joint(u)
    used = {s for operands, _, _ in steps for s in operands}
    left = [
        (s, [dims[i] if i in vars_of[s] else 1 for i in range(len(keep))])
        for s in range(len(vars_of))
        if s not in used
    ]
    return _Plan(loads, steps, left, tuple(dims[: len(keep)]))


def _run_plan(plan: _Plan, tables: Sequence[np.ndarray]) -> np.ndarray:
    """Carry out ``plan`` on boolean tables of the signatures it was made for."""
    slots = [t if order is None else t.transpose(order) for t, order in zip(tables, plan.loads)]
    for operands, shapes, axes in plan.steps:
        joint = reduce(np.logical_and, [slots[s].reshape(sh) for s, sh in zip(operands, shapes)])
        slots.append(np.logical_or.reduce(joint, axis=axes))
    result = np.ones(plan.keep_shape, dtype=bool)
    for slot, shape in plan.left:
        result &= slots[slot].reshape(shape)
    return result


def _network(
    dims: Mapping[str, tuple[int, ...]],
    sources: Sequence[str],
    boxes: Sequence[_BoxShape],
    targets: Sequence[str],
    copies: int,
    size: Callable[[tuple[int, ...]], int],
) -> tuple[list, list, dict]:
    """The layout of a network over a circuit's wires: the signatures of its
    tables, the axes kept (the sources', then the targets'), and the size
    of each wire in the network and each axis.

    A wire's size is ``size`` of its sector dimensions (``len``, its sector
    count, or ``sum``, its dimension).  An axis is a copy of a wire of size
    above 1, named ``(wire, copy, _INPUT)`` on a source wire, else
    ``(wire, copy)``.  Each box has a table of ``copies`` axes per input
    wire, then per output wire, copy-major; a table of several operators
    gets a leading ``(_KRAUS, slot)`` axis.  A wire both a source and a
    target gets an identity table, signed after the boxes.
    """
    touched = (box.inputs + box.outputs for box in boxes)
    sizes: dict = {w: size(dims[w]) for w in itertools.chain(sources, targets, *touched)}
    fed = set(sources)

    def axes(wires, start=False):
        named = [(w, c, _INPUT) if start and w in fed else (w, c)
                 for c in range(copies) for w in wires if sizes[w] > 1]
        sizes.update((x, sizes[x[0]]) for x in named)
        return named

    signatures = []
    for slot, box in enumerate(boxes):
        signatures.append(axes(box.inputs, start=True) + axes(box.outputs))
        if box.count > 1:
            sizes[_KRAUS, slot] = box.count
            signatures[-1].insert(0, (_KRAUS, slot))
    through = [w for w in targets if w in fed]
    signatures += map(list, zip(axes(through), axes(through, start=True)))
    return signatures, axes(sources, start=True) + axes(targets), sizes


class _Program(NamedTuple):
    """A network of a circuit compiled for its shape; see :func:`_compiled`."""

    signatures: tuple  # the boxes' tables, then the identities'
    sizes: tuple  # (label, size) pairs
    shapes: tuple  # per box: the shape its table is read in
    fixed: tuple  # the identity tables (and insertion's test tables), read-only
    plan: Union[_Plan, _Contraction]
    shape: tuple  # the result's
    gathers: tuple = ()  # operators: per box, None or its index into its wires' Kronecker bases
    take: np.ndarray | None = None  # operators: each entry's offset into the plan's last slot
    workspace: _Workspace | None = None  # operators: where the contraction writes


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _program(
    circuit: RoutedCircuit,
    kind: str,
    sources: Sequence[str] = (),
    box_ids: Sequence[str] = (),
    targets: Sequence[str] = (),
):
    """The program of one network of ``circuit``; see :func:`_compiled`."""
    return _compiled(circuit._shape, kind, tuple(sources), tuple(box_ids), tuple(targets))


@lru_cache(maxsize=128)
def _compiled(shape: _Shape, kind: str, sources: tuple, box_ids: tuple, targets: tuple):
    """Compile a network of the boxes ``box_ids`` of a circuit of shape
    ``shape``, from the interface ``sources`` to ``targets``, once per key.

    A program holds what the network's layout and plan derive from the
    shape, as tuples and read-only arrays, so a call runs only array
    kernels on the boxes' own arrays.  ``kind`` is 'routes' or 'coherence'
    (one or two sector axes per wire, see :func:`_contracted_route`),
    'operators' (see :func:`_contracted_operators`) or 'insertion' (see
    :func:`_accessible_by_insertion`).
    """
    if kind == "insertion":
        return _insertion_program(_compiled(shape, "routes", (), box_ids, targets), targets)
    return _network_program(shape, kind, sources, box_ids, targets)


def _network_program(
    shape: _Shape, kind: str, sources: tuple, box_ids: tuple, targets: tuple
) -> _Program:
    """A route network, planned for :func:`_elimination_plan`, or the
    operator network, planned for :func:`_contraction_plan`, with the
    Kronecker gathers of its boxes and of its result."""
    dims, boxes = dict(shape.wires), dict(shape.boxes)
    network = [boxes[b] for b in box_ids]
    if kind == "operators":
        signatures, keep, sizes = _network(dims, sources, network, targets, 1, sum)
        plan = _frozen(_contraction_plan(signatures, keep, sizes))
    else:
        copies = {"routes": 1, "coherence": 2}[kind]
        network = [box._replace(count=1) for box in network]
        signatures, keep, sizes = _network(dims, sources, network, targets, copies, len)
        plan = _frozen(_elimination_plan(signatures, keep, sizes))
    shapes = [tuple(sizes[x] for x in signature) for signature in signatures]
    fixed = tuple(_read_only(np.eye(n, dtype=bool)) for n, _ in shapes[len(network) :])
    program = _Program(
        tuple(map(tuple, signatures)), tuple(sizes.items()), tuple(shapes[: len(network)]),
        fixed, plan, (),
    )
    count_in, count_out = (math.prod(sizes[w] for w in wires) for wires in (sources, targets))
    if kind != "operators":
        return program._replace(shape=(count_in,) * copies + (count_out,) * copies)

    def to_kron(wires):
        spaces = (PartitionedSpace.from_dims(range(len(dims[w])), dims[w]) for w in wires)
        return kron_to_canonical(*spaces)

    gathers = tuple(
        (slice(None), _read_only(to_kron(box.outputs)[:, None]), _read_only(to_kron(box.inputs)))
        if len(box.inputs) > 1 or len(box.outputs) > 1 else None
        for box in network
    )
    # the plan's Kraus index of each operator, the last box's index outermost
    kraus = np.arange(math.prod(sizes[x] for x in plan.batch))
    kraus = kraus.reshape([sizes[x] for x in plan.batch])
    order = kraus.transpose([plan.batch.index(x) for x in sorted(plan.batch, reverse=True)])
    entry = np.argsort(to_kron(targets))[:, None] + count_out * np.argsort(to_kron(sources))
    # that gather as flat offsets into the plan's last slot, which it then hands over untransposed
    axes = [kraus.size] * bool(plan.batch) + [sizes[x] for x in keep]
    last = np.arange(math.prod(axes)).reshape([axes[i] for i in np.argsort(plan.result)])
    take = last.transpose(plan.result).reshape(kraus.size, -1)[order.reshape(-1, 1), entry.ravel()]
    take = _read_only(take.reshape(kraus.size, count_out, count_in))
    plan = plan._replace(result=tuple(range(len(axes))))

    def positions(box, gather, shape):
        # each axis's rank by stride in a table read as _operator_tables reads
        # it from a C-ordered stack, of bytes here: a gather may reorder memory
        dims = (box.count, *(math.prod(sizes[w] for w in ws) for ws in (box.outputs, box.inputs)))
        stack = np.zeros(dims, np.uint8)
        table = (stack if gather is None else stack[gather]).transpose(0, 2, 1).reshape(shape)
        return np.argsort(np.argsort(np.negative(table.strides))).tolist()

    tables = [(positions(*box), complex, box[2]) for box in zip(network, gathers, shapes)]
    tables += [((0, 1), bool, s) for s in shapes[len(network) :]]
    return program._replace(
        plan=plan, shape=take.shape, gathers=gathers, take=take,
        workspace=_workspace(plan, tables),
    )


def _insertion_program(routes: _Program, targets: tuple) -> _Program:
    """The route program ``routes``, whose kept axes are the slice
    ``targets``, with a test table on each of them that relates every
    candidate tuple to its sector there, planned to keep the candidates."""
    sizes = dict(routes.sizes)
    shape = tuple(sizes[w] for w in targets)
    candidates = np.indices(shape).reshape(len(shape), math.prod(shape))
    tested = [i for i, w in enumerate(targets) if sizes[w] > 1]
    tests = (candidates[i][:, None] == np.arange(shape[i]) for i in tested)
    signatures = routes.signatures + tuple((_CANDIDATE, (targets[i], 0)) for i in tested)
    sizes[_CANDIDATE] = candidates.shape[1]
    plan = _frozen(_elimination_plan(signatures, [_CANDIDATE], sizes))
    return routes._replace(
        signatures=signatures, sizes=tuple(sizes.items()),
        fixed=routes.fixed + tuple(map(_read_only, tests)), plan=plan, shape=shape,
    )


def _route_tables(
    circuit: RoutedCircuit, program: _Program, box_ids: Sequence[str], copies: int
) -> list[np.ndarray]:
    """The tables of a route program: each box's route matrix in its shape
    (with one copy, its plain view: see :func:`relations.diagonal_view`),
    then the program's fixed tables."""
    routes = [circuit.boxes[b].op.route for b in box_ids]
    matrices = map(rel.diagonal_view, routes) if copies == 1 else (r.matrix for r in routes)
    return [m.reshape(s) for m, s in zip(matrices, program.shapes)] + list(program.fixed)


def _contracted_route(
    circuit: RoutedCircuit,
    sources: Sequence[str],
    box_ids: Sequence[str],
    targets: Sequence[str],
    copies: int,
) -> np.ndarray:
    """The boolean route matrix of the boxes, applied in order, from the
    interface ``sources`` to ``targets``.

    Each wire carries ``copies`` sector axes: one for plain routes, indexed
    ``[k, l]``, two for coherence routes, indexed ``[k, k', l, l']``.  A
    box's table is its plain route (its diagonal in CPM mode), or with two
    copies its coherence route.
    """
    program = _program(circuit, ("routes", "coherence")[copies - 1], sources, box_ids, targets)
    tables = _route_tables(circuit, program, box_ids, copies)
    return _run_plan(program.plan, tables).reshape(program.shape)


def _operator_tables(circuit: RoutedCircuit, program: _Program, box_ids: Sequence[str]) -> list:
    """The tables of an operator program: each box's Kraus stack in its
    wires' Kronecker bases, read in its shape, then the identities."""
    tables = []
    for box_id, gather, shape in zip(box_ids, program.gathers, program.shapes):
        stack = circuit.boxes[box_id].op.kraus_stack
        if gather is not None:
            stack = stack[gather]
        tables.append(stack.transpose(0, 2, 1).reshape(shape))
    return tables + list(program.fixed)


def _contracted_operators(
    circuit: RoutedCircuit,
    sources: Sequence[str],
    box_ids: Sequence[str],
    targets: Sequence[str],
) -> np.ndarray:
    """The ``(count, d_out, d_in)`` operator stack of the boxes, applied in
    order, from the interface ``sources`` to ``targets``.

    A box's table is its operators with an axis per wire in that wire's
    own basis (they leave the canonical basis of its interfaces through
    :func:`kron_to_canonical`, the identity on one wire) and one per Kraus
    index.  One gather through the program's compiled index takes the
    last product to the canonical bases and the Kraus order of composing
    the boxes one at a time, the last box's index outermost, whatever order
    the plan contracts them in.  The result is read-only and owns its data,
    so a routed CP map keeps it without a copy.
    """
    program = _program(circuit, "operators", sources, box_ids, targets)
    tables = _operator_tables(circuit, program, box_ids)
    result = _run_contraction(program.plan, tables, program.workspace)
    # an index, unlike np.take, reads the read-only offsets without a copy;
    # it writes a fresh array, so nothing returned shares the workspace
    return _read_only(result.reshape(-1)[program.take])


def _contracted(
    circuit: RoutedCircuit,
    sources: Sequence[str],
    box_ids: Sequence[str],
    targets: Sequence[str],
) -> BoxOp:
    """The routed map (or CP map) of the boxes, applied in order, from the
    interface ``sources`` to ``targets``.

    Its tolerance is the largest of the boxes'.  The result is built, and
    so checked against its route, once; forbidden weight adds up over the
    boxes, so a rejection names them.
    """
    route_type = Relation if circuit.mode == "pure" else CPRelation
    domain, codomain = (_interface_space(circuit, w) for w in (sources, targets))
    matrix = _contracted_route(circuit, sources, box_ids, targets, route_type.copies)
    route = route_type(domain.sector_labels, codomain.sector_labels, matrix)
    stack = _contracted_operators(circuit, sources, box_ids, targets)
    tolerance = max(
        (circuit.boxes[b].op.tolerance for b in box_ids), default=DEFAULT_TOLERANCE
    )
    try:
        return circuit._op_type.from_stack(route, stack, domain, codomain, tolerance)
    except RouteViolation as exc:
        raise RouteViolation(
            f"composite of boxes {', '.join(map(repr, box_ids))}: {exc}; the weight "
            "accumulated over these boxes, each of which was accepted on its own"
        ) from None


def evaluate(circuit: RoutedCircuit, box_order: Sequence[str] | None = None) -> BoxOp:
    """Compose the whole circuit into one routed map (or routed CP map).

    The boxes form a tensor network, one table per box with an axis per
    wire it touches (and one per Kraus index), contracted pairwise, next
    the pair whose result is smallest; their boolean routes are eliminated
    like every route network.  No identity is tensored onto the wires a
    box leaves alone, and a change of wire order only relabels axes.  The
    foliation is the deterministic Kahn layering unless ``box_order`` pins
    an explicit topological order; the result does not depend on the
    choice.  In CPM mode the Kraus operators come in the order of composing
    the layers: the last layer's index outermost, and inside a layer, the
    box order.
    """
    layers = _foliation_layers(circuit, box_order)
    # boxes of one layer commute; taken last to first, each new operator
    # index lands outermost, which leaves the first box's index outermost
    order = [box_id for layer in layers for box_id in reversed(layer)]
    return _contracted(circuit, circuit.input_wires, order, circuit.output_wires)


# -- route-level analysis ----------------------------------------------


class InterfaceCheck(Record):
    """Gate verdict for one sequential interface of the foliation."""

    _fields = (
        "position", "upstream", "downstream", "passed", "escaped_inputs", "escaped_outputs"
    )

    def __init__(
        self,
        position: int,
        upstream: tuple[str, ...],
        downstream: tuple[str, ...],
        passed: bool,
        escaped_inputs: tuple = (),
        escaped_outputs: tuple = (),
    ):
        self.__dict__.update(
            position=position, upstream=upstream, downstream=downstream, passed=passed,
            escaped_inputs=escaped_inputs, escaped_outputs=escaped_outputs,
        )


class CircuitReport(Record):
    """The gate verdicts of every sequential interface, in foliation order."""

    _fields = ("mode", "interfaces")

    def __init__(self, mode: str, interfaces: tuple[InterfaceCheck, ...]):
        self.__dict__.update(mode=mode, interfaces=interfaces)

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.interfaces)


def check_circuit(circuit: RoutedCircuit, mode: str) -> CircuitReport:
    """Gate every sequential interface of the deterministic foliation.

    ``mode`` is 'isometry' or 'unitary' for pure circuits and 'channel' for
    CPM circuits (the gate then acts on the routes' diagonals).  The report
    is diagnostic: nothing is raised.  Each layer's route, a boolean
    matrix, runs straight to the next layer's input order, so no wire
    reordering is composed; the running route is their boolean product.
    An interface's labels are built only to name the sectors that escape.
    """
    if mode not in ("isometry", "unitary", "channel"):
        raise ValueError(f"unknown mode {mode!r}")
    if (mode == "channel") != (circuit.mode == "cpm"):
        raise InvariantViolation(
            f"mode {mode!r} does not apply to a {circuit.mode!r} circuit"
        )
    route, upstream, checks = None, (), []
    steps = list(_walk(circuit.input_wires, circuit.boxes, circuit._layers))
    for position, step in enumerate(steps):
        # the gate reads only the downstream domain: the last order is free
        after = steps[position + 1].inputs if position + 1 < len(steps) else step.outputs
        layer = tuple(step.layer)
        layer_route = _contracted_route(circuit, step.inputs, layer, after, 1)
        if route is None:
            route = layer_route
        else:
            inputs, outputs = rel._escaping(route, layer_route)
            outputs &= mode == "unitary"
            escaped = ((), ())
            if inputs.any() or outputs.any():
                labels = _interface_space(circuit, step.inputs).sector_labels.labels
                escaped = rel._named(labels, inputs, outputs)
            checks.append(InterfaceCheck(position, upstream, layer, escaped == ((), ()), *escaped))
            route = rel._boolean_product(route, layer_route)
        upstream += layer
    return CircuitReport(mode=mode, interfaces=tuple(checks))


# -- slices and accessible spaces ---------------------------------------


def _validate_slice(circuit: RoutedCircuit, cut: Slice) -> None:
    for wire in cut.wires:
        if wire not in circuit.wires:
            raise InvalidSlice(f"unknown wire {wire!r}")
    for wire in cut.wires:
        ancestors = circuit.wire_ancestors(wire)
        overlap = ancestors & set(cut.wires)
        if overlap:
            raise InvalidSlice(
                f"not an antichain: {sorted(overlap)!r} lie above {wire!r}"
            )


def formal_space(circuit: RoutedCircuit, cut: Slice) -> PartitionedSpace:
    """The non-contextual tensor of the slice wires' spaces."""
    _validate_slice(circuit, cut)
    return _interface_space(circuit, cut.wires)


class AccessibleSpace(Record):
    """Sector tuples of a slice that the circuit's routes allow to be populated."""

    _fields = ("wires", "tuples", "sector_dims")

    def __init__(
        self, wires: tuple[str, ...], tuples: tuple[tuple, ...], sector_dims: tuple[int, ...]
    ):
        self.__dict__.update(wires=wires, tuples=tuples, sector_dims=sector_dims)

    @property
    def total_dim(self) -> int:
        return sum(self.sector_dims)


def _accessible_by_recipe(circuit: RoutedCircuit, cut: Slice) -> np.ndarray:
    """Index-summation recipe: contract every route, summing out all indices
    except the slice's."""
    allowed = _contracted_route(circuit, (), sorted(circuit.boxes), cut.wires, 1)
    return allowed.reshape([len(circuit.wires[w].sector_dims) for w in cut.wires])


def _accessible_by_insertion(circuit: RoutedCircuit, cut: Slice) -> np.ndarray:
    """Defining test: fix the slice sectors to a candidate tuple and ask
    whether the whole relation-level circuit still relates anything.

    Every candidate is tested in one run of the recipe's network with a
    test relation inserted on each slice wire of more than one sector, from
    the candidates to their sector there, summed down to the candidate axis
    they share: entry ``i`` is the network with the slice fixed to ``i``.
    """
    boxes = sorted(circuit.boxes)
    program = _program(circuit, "insertion", (), boxes, cut.wires)
    tables = _route_tables(circuit, program, boxes, 1)
    return _run_plan(program.plan, tables).reshape(program.shape)


def accessible_space(
    circuit: RoutedCircuit, cut: Slice, algorithm: str = "recipe"
) -> AccessibleSpace:
    """Sector tuples of the slice that the circuit's routes can populate.

    ``algorithm`` 'recipe' contracts every route and sums out the
    non-slice indices; 'insertion' fixes the slice to each candidate tuple
    by test relations and tests the end-to-end relation for vanishing.
    Both return the same set.  CPM circuits are analysed through the
    routes' diagonals.
    """
    _validate_slice(circuit, cut)
    if algorithm == "recipe":
        allowed = _accessible_by_recipe(circuit, cut)
    elif algorithm == "insertion":
        allowed = _accessible_by_insertion(circuit, cut)
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    spaces = [circuit.wires[w] for w in cut.wires]
    found = np.argwhere(allowed)  # row-major, as the sector tuples are listed
    tuples = tuple(tuple(s.sector_labels.labels[i] for s, i in zip(spaces, at)) for at in found)
    dims = tuple(math.prod(s.sector_dims[i] for s, i in zip(spaces, at)) for at in found)
    return AccessibleSpace(cut.wires, tuples, dims)


# -- export --------------------------------------------------------------


def circuit_to_dot(circuit: RoutedCircuit) -> str:
    """Graphviz rendering with routes summarised on boxes and spaces on wires."""
    nodes, wires = {}, {}
    for box_id in sorted(circuit.boxes):
        route = rel.diagonal_view(circuit.boxes[box_id].op.route)
        summary = f"\\nroute {int(route.sum())}/{route.size}"
        nodes[box_id] = f"shape=box, label={_dot_quoted(box_id, summary)}"
    for wire in sorted(circuit.wires):
        dims = "+".join(str(d) for d in circuit.wires[wire].sector_dims)
        wires[wire] = f"{wire} ({dims})"
    inputs, outputs = circuit.input_wires, circuit.output_wires
    return _dot_graph("routed_circuit", circuit, inputs, outputs, nodes, wires)
