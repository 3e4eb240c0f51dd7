"""JSON document layer: parsing, validation and canonical serialization.

Documents carry either a routed circuit or an indexed graph (optionally
with an interpretation).  This module alone holds the document format: one
table, ``_MAP_FORMS``, is read by ``_map_from_json`` and written by
``_map_to_json`` for routed maps and routed CP maps alike, in circuit boxes
and standalone.  The two differ only in their route's keys and their
operator key.  Structural problems raise SchemaError with a
JSON-pointer-style location; semantic problems surface the originating
error prefixed with the offending element's location.  The circuit
layer, the indexed-graph layer, routed maps and routed CP maps are
imported when a document needs them, so reading one kind of document
loads no other.  NumPy, ``relations`` and ``spaces`` are imported, through
``_arrays``, by the functions that read or write a matrix, a route or a
space, so reading an indexed graph without an interpretation loads none
of them.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any

from . import _arrays
from .errors import ParseError, RoutedError, SchemaError, UsageError
from .frozen import Record

if TYPE_CHECKING:
    import numpy as np

    from .circuits import RoutedCircuit
    from .iodag import IODAG, Interpretation
    from .relations import Label
    from .routed_cpms import RoutedCPM
    from .routed_maps import RoutedMap
    from .spaces import PartitionedSpace

FORMAT_VERSION = "1"


def default_tolerance() -> float:
    """Route-following tolerance, overridable via ROUTED_TOLERANCE.

    The variable must hold a finite number >= 0; anything else raises
    UsageError naming it.
    """
    raw = os.environ.get("ROUTED_TOLERANCE", "1e-9")
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0):
        raise UsageError(f"ROUTED_TOLERANCE must be a finite number >= 0, got {raw!r}")
    return value


class CircuitDocument(Record):
    """A parsed and validated document: ``kind`` is 'circuit' (a
    RoutedCircuit ``payload``) or 'iodag' (an IODAG); ``metadata`` defaults
    to a new empty dict."""

    _fields = ("format_version", "kind", "payload", "interpretation", "metadata")

    def __init__(
        self,
        format_version: str,
        kind: str,
        payload: Any,
        interpretation: Interpretation | None = None,
        metadata: dict | None = None,
    ):
        metadata = {} if metadata is None else metadata
        self.__dict__.update(
            format_version=format_version, kind=kind, payload=payload,
            interpretation=interpretation, metadata=metadata,
        )


def _token(key) -> str:
    """A document key as one reference token of a JSON pointer (RFC 6901):
    ``~`` written ``~0`` and ``/`` written ``~1``."""
    return str(key).replace("~", "~0").replace("/", "~1")


def _expect(data, key: str, kind, location: str):
    if not isinstance(data, dict):
        raise SchemaError(f"expected an object, got {type(data).__name__}", location)
    if key not in data:
        raise SchemaError(f"missing required key {key!r}", location)
    value = data[key]
    wrong = kind is not None and not isinstance(value, kind)
    if wrong or (kind is int and isinstance(value, bool)):  # true is no JSON integer
        raise SchemaError(
            f"key {key!r} must be {kind.__name__}, got {type(value).__name__}",
            f"{location}/{_token(key)}",
        )
    return value


def _ids(data, key: str, location: str, what: str = "wire") -> list:
    """The list under ``key``, every entry a wire (or node) id: a string."""
    ids = _expect(data, key, list, location)
    for i, entry in enumerate(ids):
        if not isinstance(entry, str):
            raise SchemaError(
                f"{what} id must be str, got {type(entry).__name__}", f"{location}/{key}/{i}"
            )
    return ids


def _new_id(data, key: str, taken, location: str) -> str:
    """The string under ``key``, which no earlier entry of its list took."""
    value = _expect(data, key, str, location)
    if value in taken:
        raise SchemaError(f"repeated {key} {value!r}", f"{location}/{key}")
    return value


#: the types a JSON number decodes to; true and false decode to bool
_NUMBERS = frozenset({int, float})


def _matrix(rows, location: str):
    """A complex matrix: a list of equal-length rows of ``[re, im]`` pairs."""
    if type(rows) is not list:
        raise SchemaError(f"matrix must be a list of rows, got {type(rows).__name__}", location)
    for i, row in enumerate(rows):
        if type(row) is not list or len(row) != len(rows[0]):
            raise SchemaError("matrix rows must be lists of equal length", f"{location}/{i}")
        for j, entry in enumerate(row):
            pair = type(entry) is list and len(entry) == 2
            if not (pair and _NUMBERS.issuperset(map(type, entry))):
                raise SchemaError(
                    "matrix entry must be a [re, im] pair of numbers", f"{location}/{i}/{j}"
                )
    np, _, _ = _arrays()
    try:
        return np.array([[complex(re, im) for re, im in row] for row in rows], dtype=complex)
    except OverflowError:  # an integer beyond every float: report the first
        for i, row in enumerate(rows):
            for j, entry in enumerate(row):
                for k, number in enumerate(entry):
                    try:
                        float(number)
                    except OverflowError:
                        pointer = f"{location}/{i}/{j}/{k}"
                        raise SchemaError("number is too large for a float", pointer) from None
        raise


def matrix_to_json(matrix) -> list:
    """A complex matrix, or a stack of them, as nested lists of ``[re, im]``
    pairs: the form ``_matrix`` reads."""
    np, _, _ = _arrays()
    matrix = np.asarray(matrix, dtype=complex)
    return np.stack((matrix.real, matrix.imag), axis=-1).tolist()


def _label(value, location: str, *path: int):
    """A label (a string, an integer or a list of labels) at ``location``/``path``."""
    if type(value) is list:
        return tuple(_label(part, location, *path, i) for i, part in enumerate(value))
    if type(value) not in (str, int):
        kind, pointer = type(value).__name__, "/".join([location, *map(str, path)])
        raise SchemaError(f"label must be a string, an integer or a list, got {kind}", pointer)
    return value


def label_to_json(label: Label):
    """A label as ``_label`` reads it: a tuple becomes a list."""
    if isinstance(label, tuple):
        return [label_to_json(part) for part in label]
    return label


def _route_matrix(data, depth: int, location: str) -> np.ndarray:
    """A route's boolean array: ``depth`` levels of equally long lists around
    the integers 0 and 1.  A fault is searched for level by level."""
    np, _, _ = _arrays()
    cells = np.array(data, dtype=object)
    if cells.ndim == depth and set(map(type, cells.flat)) <= {int} and set(cells.flat) <= {0, 1}:
        return cells.astype(bool)
    level, shape = [data], []
    for _ in range(depth):
        bad = (type(x) is not list or len(x) != len(level[0]) for x in level)
        _route_fault(bad, shape, "must nest lists of equal length", location)
        shape.append(len(level[0]) if level else 0)
        level = [entry for value in level for entry in value]
    bad = (type(x) is not int or x not in (0, 1) for x in level)
    _route_fault(bad, shape, "entry must be the integer 0 or 1", location)
    return np.array(data, dtype=bool)


def _route_fault(bad, shape: list, what: str, location: str) -> None:
    """Raise at the first bad element, if any, of a level of the given shape."""
    position = next((i for i, b in enumerate(bad) if b), None)
    if position is not None:
        np, _, _ = _arrays()
        index = np.unravel_index(position, shape) if shape else ()
        raise SchemaError(f"route matrix {what}", "/".join([location, *map(str, index)]))


@contextmanager
def _context(location: str):
    """Prefix a semantic error raised inside with ``location`` (if any)."""
    try:
        yield
    except SchemaError:
        raise
    except RoutedError as exc:
        if not location:
            raise
        raise type(exc)(f"{location}: {exc}") from None


def _kraus(operators: list, location: str) -> tuple:
    return tuple(_matrix(k, f"{location}/{j}") for j, k in enumerate(operators))


#: per mode: the name of the route class in ``relations`` and its keys (also
#: its attribute names), the operator key (also the map's attribute name),
#: the operator reader
_MAP_FORMS = {
    "pure": ("Relation", ("domain", "codomain"), "matrix", _matrix),
    "cpm": ("CPRelation", ("base_domain", "base_codomain"), "kraus", _kraus),
}


def _map_from_json(data, mode: str, domain, codomain, tolerance: float, location: str):
    """A routed map (mode 'pure': a route and a matrix) or routed CP map
    ('cpm': a coherence route and a Kraus list) between the given spaces.
    Its semantic errors are prefixed with ``location``, or at the top level
    with the operator key."""
    _, rel, _ = _arrays()
    route_name, route_keys, operator_key, read_operators = _MAP_FORMS[mode]
    route_class = getattr(rel, route_name)
    route_data = _expect(data, "route", dict, location)
    at = f"{location}/route"
    for key in (*route_keys, "matrix"):
        _expect(route_data, key, list, at)
    labels = [_label(route_data[key], f"{at}/{key}") for key in route_keys]
    matrix = _route_matrix(route_data["matrix"], 2 * route_class.copies, f"{at}/matrix")
    with _context(at):
        route = route_class(*map(rel.IndexSet, labels), matrix)
    operators = read_operators(
        _expect(data, operator_key, list, location), f"{location}/{operator_key}"
    )
    # routed maps and routed CP maps load with the first one read
    if mode == "pure":
        from .routed_maps import RoutedMap as map_class
    else:
        from .routed_cpms import RoutedCPM as map_class
    with _context(location or f"/{operator_key}"):
        return map_class(route, operators, domain, codomain, tolerance)


def _map_to_json(op, mode: str) -> dict:
    """The document form of a routed map or routed CP map, as
    ``_map_from_json`` reads it in the given mode."""
    _, route_keys, operator_key, _ = _MAP_FORMS[mode]
    route = {key: list(map(label_to_json, getattr(op.route, key))) for key in route_keys}
    route["matrix"] = op.route.matrix.astype(int).tolist()
    return {"route": route, operator_key: matrix_to_json(getattr(op, operator_key))}


# -- circuits ----------------------------------------------------------------


def _space_from_json(sectors: list, location: str) -> PartitionedSpace:
    """The space of the sector list at ``location``."""
    _, _, spaces = _arrays()
    labels, dims = [], []
    for i, sector in enumerate(sectors):
        at = f"{location}/{i}"
        labels.append(_label(_expect(sector, "label", None, at), f"{at}/label"))
        dims.append(_expect(sector, "dim", int, at))
    with _context(location):
        return spaces.PartitionedSpace.from_dims(labels, dims)


def _circuit_from_json(data: dict, tolerance: float) -> RoutedCircuit:
    from .circuits import Box, RoutedCircuit
    from .spaces import tensor_many

    mode = _expect(data, "mode", str, "")
    if mode not in ("pure", "cpm"):
        raise SchemaError(f"mode must be 'pure' or 'cpm', got {mode!r}", "/mode")
    spaces: dict[str, PartitionedSpace] = {}
    for name, space_data in sorted(_expect(data, "spaces", dict, "").items()):
        at = f"/spaces/{_token(name)}"
        spaces[name] = _space_from_json(_expect(space_data, "sectors", list, at), f"{at}/sectors")
    wires: dict[str, PartitionedSpace] = {}
    for i, wire_data in enumerate(_expect(data, "wires", list, "")):
        wire_id = _new_id(wire_data, "id", wires, f"/wires/{i}")
        space_name = _expect(wire_data, "space", str, f"/wires/{i}")
        if space_name not in spaces:
            raise SchemaError(f"unknown space {space_name!r}", f"/wires/{i}/space")
        wires[wire_id] = spaces[space_name]
    boxes: dict[str, Box] = {}
    for i, box_data in enumerate(_expect(data, "boxes", list, "")):
        location = f"/boxes/{i}"
        box_id = _new_id(box_data, "id", boxes, location)
        inputs = _ids(box_data, "inputs", location)
        outputs = _ids(box_data, "outputs", location)
        for wire_id in list(inputs) + list(outputs):
            if wire_id not in wires:
                raise SchemaError(f"unknown wire {wire_id!r}", location)
        map_data = _expect(box_data, "map", dict, location)
        domain = tensor_many([wires[w] for w in inputs])
        codomain = tensor_many([wires[w] for w in outputs])
        op = _map_from_json(map_data, mode, domain, codomain, tolerance, f"{location}/map")
        boxes[box_id] = Box(inputs, outputs, op)
    inputs = _ids(data, "inputs", "")
    outputs = _ids(data, "outputs", "")
    with _context(""):
        return RoutedCircuit(wires, boxes, tuple(inputs), tuple(outputs), mode)


def _sectors_to_json(space: PartitionedSpace) -> list:
    return [
        {"label": label_to_json(label), "dim": dim}
        for label, dim in zip(space.sector_labels, space.sector_dims)
    ]


def _circuit_to_json(circuit: RoutedCircuit) -> dict:
    space_names: dict[PartitionedSpace, str] = {}
    spaces_json: dict[str, dict] = {}
    for wire_id in sorted(circuit.wires):
        space = circuit.wires[wire_id]
        if space not in space_names:
            name = f"space{len(space_names)}"
            space_names[space] = name
            spaces_json[name] = {"sectors": _sectors_to_json(space)}
    boxes_json = []
    for box_id in sorted(circuit.boxes):
        box = circuit.boxes[box_id]
        boxes_json.append(
            {
                "id": box_id,
                "inputs": list(box.inputs),
                "outputs": list(box.outputs),
                "map": _map_to_json(box.op, circuit.mode),
            }
        )
    return {
        "mode": circuit.mode,
        "spaces": spaces_json,
        "wires": [
            {"id": wire_id, "space": space_names[circuit.wires[wire_id]]}
            for wire_id in sorted(circuit.wires)
        ],
        "boxes": boxes_json,
        "inputs": list(circuit.input_wires),
        "outputs": list(circuit.output_wires),
    }


# -- indexed graphs ------------------------------------------------------------


def _iodag_from_json(data: dict) -> IODAG:
    from .iodag import IODAG, IONode, Partition

    inputs = _ids(data, "inputs", "")
    outputs = _ids(data, "outputs", "")
    edges = _ids(data, "edges", "")
    nodes: dict[str, IONode] = {}
    for i, node_data in enumerate(_expect(data, "nodes", list, "")):
        node_id = _new_id(node_data, "id", nodes, f"/nodes/{i}")
        nodes[node_id] = IONode(
            _ids(node_data, "in", f"/nodes/{i}"),
            _ids(node_data, "out", f"/nodes/{i}"),
        )
    placement: dict[str, str] = {}
    class_tags: dict[str, str] = {}
    for i, index_data in enumerate(_expect(data, "indices", list, "")):
        name = _new_id(index_data, "name", placement, f"/indices/{i}")
        placement[name] = _expect(index_data, "wire", str, f"/indices/{i}")
        class_tags[name] = _expect(index_data, "class", str, f"/indices/{i}")
    blocks: dict[str, list[str]] = {}
    for name, tag in class_tags.items():
        blocks.setdefault(tag, []).append(name)
    equivalence = Partition.from_blocks(blocks.values())
    empty_nodes = _ids(data, "empty_nodes", "", "node") if "empty_nodes" in data else []
    with _context(""):
        return IODAG(
            inputs=tuple(inputs),
            outputs=tuple(outputs),
            inner_edges=tuple(edges),
            nodes=nodes,
            placement=placement,
            equivalence=equivalence,
            empty_nodes=frozenset(empty_nodes),
        )


def _iodag_to_json(g: IODAG) -> dict:
    class_of = {}
    for block in g.equivalence.blocks():
        tag = sorted(block)[0]
        for name in block:
            class_of[name] = tag
    return {
        "inputs": list(g.inputs),
        "outputs": list(g.outputs),
        "edges": list(g.inner_edges),
        "nodes": [
            {"id": node_id, "in": list(node.inputs), "out": list(node.outputs)}
            for node_id, node in sorted(g.nodes.items())
        ],
        "indices": [
            {"name": name, "wire": g.placement[name], "class": class_of[name]}
            for name in sorted(g.placement)
        ],
        "empty_nodes": sorted(g.empty_nodes),
    }


def _interpretation_from_json(data: dict, g: IODAG, tolerance: float) -> Interpretation:
    from .iodag import IndexFamily, Interpretation, _labels_text, expected_wire_labels, node_route
    from .routed_maps import RoutedMap
    from .spaces import tensor_many

    lengths_data = _expect(data, "lengths", dict, "/interpretation")
    lengths: dict[str, int] = {}
    for name in lengths_data:
        location = f"/interpretation/lengths/{_token(name)}"
        if name not in g.placement:
            raise SchemaError(f"unknown index {name!r}", location)
        with _context(location):
            lengths[name] = _expect(lengths_data, name, int, "/interpretation/lengths")
            IndexFamily({name: lengths[name]})  # rejects a length below 1
    missing = sorted(set(g.placement) - set(lengths))
    if missing:
        raise SchemaError(f"no length for placed index {missing[0]!r}", "/interpretation/lengths")
    spaces: dict[str, PartitionedSpace] = {}
    spaces_data = _expect(data, "spaces", dict, "/interpretation")
    for wire in sorted(spaces_data):
        location = f"/interpretation/spaces/{_token(wire)}"
        if wire not in g.wire_ids:
            raise SchemaError(f"unknown wire {wire!r}", location)
        sectors = _expect(spaces_data, wire, list, "/interpretation/spaces")
        space = _space_from_json(sectors, location)
        expected = expected_wire_labels(g, wire, lengths)
        if space.sector_labels.labels != expected:
            raise SchemaError(
                f"wire {wire!r} must carry sector labels {_labels_text(expected)}", location
            )
        spaces[wire] = space
    morphs: dict[str, RoutedMap] = {}
    pre_interp = Interpretation(lengths, spaces, {})
    for node_id, morph_data in sorted(_expect(data, "morphs", dict, "/interpretation").items()):
        location = f"/interpretation/morphs/{_token(node_id)}"
        if node_id not in g.nodes:
            raise SchemaError(f"unknown node {node_id!r}", location)
        if node_id in g.empty_nodes:
            raise SchemaError(f"empty node {node_id!r} takes no morphism", location)
        matrix = _matrix(_expect(morph_data, "matrix", list, location), f"{location}/matrix")
        node = g.nodes[node_id]
        bare = [w for w in node.inputs + node.outputs if w not in spaces]
        if bare:
            raise SchemaError(f"wire {bare[0]!r} of node {node_id!r} has no space", location)
        domain = tensor_many([spaces[w] for w in node.inputs])
        codomain = tensor_many([spaces[w] for w in node.outputs])
        with _context(location):
            morphs[node_id] = RoutedMap(
                node_route(g, node_id, pre_interp), matrix, domain, codomain, tolerance
            )
    # evaluation reads every wire's space, also one that no morphism touches
    bare = [w for w in g.wire_ids if w not in spaces]
    if bare:
        raise SchemaError(f"no space for wire {bare[0]!r}", "/interpretation/spaces")
    return Interpretation(lengths, spaces, morphs)


def _interpretation_to_json(interp: Interpretation) -> dict:
    return {
        "lengths": {name: int(v) for name, v in sorted(interp.lengths.items())},
        "spaces": {wire: _sectors_to_json(space) for wire, space in sorted(interp.spaces.items())},
        "morphs": {
            node_id: {"matrix": matrix_to_json(morph.matrix)}
            for node_id, morph in sorted(interp.morphs.items())
        },
    }


# -- documents ------------------------------------------------------------------


class _Constant(str):
    """A NaN or Infinity token met while decoding, kept to locate it."""


class _Repeated(dict):
    """A decoded object in which the key ``repeated`` came more than once."""


def _fault(data, location: str = ""):
    """(JSON pointer, message) of the first NaN, Infinity or repeated key in
    decoded data; a repeated key is met where it first came."""
    if isinstance(data, _Constant):
        return location, f"non-finite number {data} is not allowed"
    if isinstance(data, dict):
        items = data.items()
    elif isinstance(data, list):
        items = enumerate(data)
    else:
        return None
    for key, value in items:
        pointer = f"{location}/{_token(key)}"
        if isinstance(data, _Repeated) and key == data.repeated:
            return pointer, f"repeated key {key!r}"
        found = _fault(value, pointer)
        if found is not None:
            return found
    return None


def parse(text_or_path: str) -> CircuitDocument:
    """Parse a document from JSON text or a path to a JSON file."""
    text = text_or_path
    if not text_or_path.lstrip().startswith("{"):
        try:
            with open(text_or_path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise ParseError(f"cannot read {text_or_path!r}: {exc}") from None
    faults: list = []  # one entry per NaN, Infinity or object with a repeated key

    def constant(token: str) -> str:
        faults.append(token)
        return _Constant(token)

    def mapping(pairs: list) -> dict:
        data = dict(pairs)
        if len(data) < len(pairs):
            data = _Repeated(data)
            data.repeated = next(key for i, (key, _) in enumerate(pairs) if key in dict(pairs[:i]))
            faults.append(data)
        return data

    try:
        data = json.loads(text, parse_constant=constant, object_pairs_hook=mapping)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    found = _fault(data) if faults else None
    if found is not None:
        raise SchemaError(found[1], found[0])
    if not isinstance(data, dict) or not data:
        raise SchemaError("document must be a non-empty JSON object", "")
    version = _expect(data, "format_version", str, "")
    if version != FORMAT_VERSION:
        raise SchemaError(f"unsupported format_version {version!r}", "/format_version")
    kind = _expect(data, "kind", str, "")
    metadata = _expect(data, "metadata", dict, "") if "metadata" in data else {}
    tolerance = default_tolerance()
    if kind == "circuit":
        payload = _circuit_from_json(data, tolerance)
        return CircuitDocument(version, kind, payload, None, metadata)
    if kind == "iodag":
        payload = _iodag_from_json(data)
        interpretation = None
        if "interpretation" in data:
            interpretation = _interpretation_from_json(
                data["interpretation"], payload, tolerance
            )
        return CircuitDocument(version, kind, payload, interpretation, metadata)
    raise SchemaError(f"unknown document kind {kind!r}", "/kind")


def document_to_json(doc: CircuitDocument) -> dict:
    data: dict = {"format_version": doc.format_version, "kind": doc.kind}
    if doc.kind == "circuit":
        data.update(_circuit_to_json(doc.payload))
    else:
        data.update(_iodag_to_json(doc.payload))
        if doc.interpretation is not None:
            data["interpretation"] = _interpretation_to_json(doc.interpretation)
    if doc.metadata:
        data["metadata"] = doc.metadata
    return data


def serialize(doc: CircuitDocument) -> str:
    """Canonical JSON text (sorted keys, two-space indent)."""
    return json.dumps(document_to_json(doc), sort_keys=True, indent=2) + "\n"


def save(doc: CircuitDocument, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(serialize(doc))


def _standalone_map_from_json(data, spaces: dict[str, PartitionedSpace], mode: str):
    names = [_expect(data, key, str, "") for key in ("domain", "codomain")]
    for key, name in zip(("domain", "codomain"), names):
        if name not in spaces:
            raise SchemaError(f"unknown space {name!r}", f"/{key}")
    domain, codomain = (spaces[name] for name in names)
    return _map_from_json(data, mode, domain, codomain, default_tolerance(), "")


def routed_map_from_json(data: dict, spaces: dict[str, PartitionedSpace]) -> RoutedMap:
    """Load a standalone routed map; spaces are resolved by name."""
    return _standalone_map_from_json(data, spaces, "pure")


def routed_cpm_from_json(data: dict, spaces: dict[str, PartitionedSpace]) -> RoutedCPM:
    """Load a standalone routed CP map; spaces are resolved by name."""
    return _standalone_map_from_json(data, spaces, "cpm")


def routed_map_to_json(routed: RoutedMap, domain_name: str, codomain_name: str) -> dict:
    """A standalone routed map, naming its spaces as ``routed_map_from_json`` resolves them."""
    return {**_map_to_json(routed, "pure"), "domain": domain_name, "codomain": codomain_name}


def routed_cpm_to_json(channel: RoutedCPM, domain_name: str, codomain_name: str) -> dict:
    """A standalone routed CP map, naming its spaces as ``routed_cpm_from_json`` resolves them."""
    return {**_map_to_json(channel, "cpm"), "domain": domain_name, "codomain": codomain_name}


def bundled_path(name: str) -> str:
    """Absolute path of a bundled example document (e.g. 'two_trajectories.json')."""
    return os.path.join(os.path.dirname(__file__), "data", name)


def load_bundled(name: str) -> CircuitDocument:
    return parse(bundled_path(name))
