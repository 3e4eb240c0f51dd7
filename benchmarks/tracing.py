"""Per-layer tracing of the library from outside it.

``install`` replaces every public function of the layer modules by a wrapper
that records a span, in every loaded ``routedcircuits`` namespace that holds
the function (``tensor_matrix`` is reached through ``spaces``,
``routed_maps`` and ``routed_cpms``, for example).  It also wraps the
constructors of the classes in ``CLASSES`` and the methods in ``METHODS``
on the class itself.  ``uninstall`` puts every original back.

A span is ``(name, start, end, parent, request)``: ``parent`` is the index
of the enclosing span (-1 at the top) and ``request`` is the request index,
or ``SETUP`` for spans recorded while the workload builds its inputs.  Spans
stay in memory until the run ends.  A span's self time is its duration
minus the durations of its direct children; calls are synchronous and
single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import os
import sys
from time import perf_counter

import numpy as np

from routedcircuits import circuits

LAYERS = (
    "relations", "spaces", "routed_maps", "routed_cpms", "circuits",
    "iodag", "io", "cli", "sampling",
)
#: classes whose construction is traced (others are plain records, or are
#: built inside hot loops where a span would cost more than the work)
CLASSES = {
    "relations": ("IndexSet", "Relation", "CPRelation"),
    "spaces": ("PartitionedSpace",),
    "routed_maps": ("RoutedMap",),
    "routed_cpms": ("RoutedCPM",),
    "circuits": ("RoutedCircuit",),
    "iodag": ("Partition", "Corelation", "IODAG"),
    "io": ("CircuitDocument",),
}
METHODS = {
    ("routed_maps", "RoutedMap"): ("relabel", "identity"),
    ("routed_cpms", "RoutedCPM"): ("relabel", "identity", "choi"),
    ("iodag", "Partition"): ("blocks", "restrict"),
}
SETUP = -1


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.request: int | None = None
        self.errors = {layer: 0 for layer in LAYERS}
        self.maxima: dict[str, float] = {}
        self.sums: dict[str, float] = {}
        self.samples: dict[str, list] = {}
        self.last_cpm = None

    def maximum(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, 0), value)

    def add(self, key: str, value: float) -> None:
        if self.request is not None and self.request != SETUP:
            self.sums[key] = self.sums.get(key, 0) + value

    def sample(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    def count_error(self, layer: str, exc: BaseException) -> None:
        seen = getattr(exc, "_traced_layers", None)
        if seen is None:
            seen = set()
            try:
                exc._traced_layers = seen
            except AttributeError:
                pass
        if layer not in seen:
            seen.add(layer)
            self.errors[layer] += 1


def _wrap(tracer: Tracer, layer: str, name, fn, observe=None):
    """A span-recording stand-in for ``fn``; ``name`` may be a function of
    the call's arguments."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        spans, stack = tracer.spans, tracer.stack
        index = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(index)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            tracer.count_error(layer, exc)
            raise
        finally:
            end = perf_counter()
            stack.pop()
            label = name if isinstance(name, str) else name(args, kwargs)
            spans[index] = (label, start, end, parent, tracer.request)
        if observe is not None:
            observe(tracer, args, kwargs, result)
        return result

    return traced


# -- size observers, keyed by span name --------------------------------------------


def _routed_map(tr, args, kwargs, result):
    op = args[0]
    tr.maximum("routed_maps.RoutedMap.max_dim", max(op.domain.total_dim, op.codomain.total_dim))
    tr.maximum(
        "routed_maps.RoutedMap.max_sectors",
        max(op.domain.sector_labels.size, op.codomain.sector_labels.size),
    )


def _routed_cpm(tr, args, kwargs, result):
    tr.maximum("routed_cpms.RoutedCPM.max_kraus", len(args[0].kraus))


def _compose(tr, args, kwargs, result):
    second, first = args[:2]
    tr.maximum("relations.compose.max_labels", max(first.domain.size, first.codomain.size, second.codomain.size))


def _cp_compose(tr, args, kwargs, result):
    second, first = args[:2]
    tr.maximum(
        "relations.cp_compose.max_labels",
        max(first.base_domain.size, first.base_codomain.size, second.base_codomain.size),
    )


def _bar(tr, args, kwargs, result):
    tr.maximum("iodag.bar.max_labels", max(result.domain.size, result.codomain.size))


def _parse(tr, args, kwargs, result):
    source = args[0] if args else kwargs["text_or_path"]
    text = source.lstrip().startswith("{")
    tr.add("io.parse.bytes", len(source.encode("utf-8")) if text else os.path.getsize(source))


def _evaluate(tr, args, kwargs, result):
    box_order = args[1] if len(args) > 1 else kwargs.get("box_order")
    tr.maximum("circuits.evaluate.layers", len(circuits._foliation_layers(args[0], box_order)))
    if hasattr(result, "kraus"):
        tr.last_cpm = result


def _check_circuit(tr, args, kwargs, result):
    tr.maximum("circuits.check_circuit.interfaces", len(result.interfaces))


def _accessible(tr, args, kwargs, result):
    circuit, cut = args[:2]
    formal = int(np.prod([circuit.wires[w].sector_labels.size for w in cut.wires]))
    tr.sample("circuits.accessible_space.accessible_ratio", len(result.tuples) / formal)


def _accessible_name(args, kwargs):
    algorithm = args[2] if len(args) > 2 else kwargs.get("algorithm", "recipe")
    return f"circuits.accessible_space.{algorithm}"

OBSERVERS = {
    "routed_maps.RoutedMap": _routed_map,
    "routed_cpms.RoutedCPM": _routed_cpm,
    "relations.compose": _compose,
    "relations.cp_compose": _cp_compose,
    "iodag.bar": _bar,
    "io.parse": _parse,
    "circuits.evaluate": _evaluate,
    "circuits.check_circuit": _check_circuit,
    "circuits.accessible_space": _accessible,
}


# -- installing and removing the wrappers ------------------------------------------


def install(tracer: Tracer) -> list:
    """Wrap the layers; returns what ``uninstall`` needs to undo it."""
    originals: dict[int, tuple] = {}
    restore: list = []
    for layer in LAYERS:
        module = importlib.import_module(f"routedcircuits.{layer}")
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                continue
            span = f"{layer}.{attr}"
            name = _accessible_name if span == "circuits.accessible_space" else span
            originals[id(obj)] = (obj, _wrap(tracer, layer, name, obj, OBSERVERS.get(span)))
        for cls_name in CLASSES.get(layer, ()):
            cls = getattr(module, cls_name)
            span = f"{layer}.{cls_name}"
            restore.append((cls, "__init__", cls.__dict__.get("__init__")))
            cls.__init__ = _wrap(tracer, layer, span, cls.__init__, OBSERVERS.get(span))
            for method in METHODS.get((layer, cls_name), ()):
                raw = cls.__dict__[method]
                restore.append((cls, method, raw))
                if isinstance(raw, classmethod):
                    setattr(cls, method, classmethod(_wrap(tracer, layer, f"{span}.{method}", raw.__func__)))
                else:
                    setattr(cls, method, _wrap(tracer, layer, f"{span}.{method}", raw))
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "routedcircuits" or module_name.startswith("routedcircuits.")):
            continue
        for attr, obj in list(vars(module).items()):
            pair = originals.get(id(obj))
            if pair is not None and pair[0] is obj:
                restore.append((module, attr, obj))
                setattr(module, attr, pair[1])
    return restore


def uninstall(restore: list) -> None:
    for owner, attr, original in reversed(restore):
        if original is None:
            delattr(owner, attr)
        else:
            setattr(owner, attr, original)


# -- turning spans into layer metrics ------------------------------------------------


def layer_metrics(tracer: Tracer, requests: int, setup_layers: tuple[str, ...]) -> dict:
    """Per-request calls and self time for every span name and layer.

    Spans recorded during set-up count only for the names and layers in
    ``setup_layers``, and then per set-up (one traced set-up per run): the
    value of such a metric is the cost of one set-up plus one request.
    """
    spans = tracer.spans
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    totals: dict[tuple[str, bool], list] = {}
    for index, (name, start, end, parent, request) in enumerate(spans):
        if request is None:
            continue
        layer = name.split(".", 1)[0]
        in_setup = request == SETUP
        keys = [name, layer]
        if in_setup:
            keys = [k for k in keys if k in setup_layers]
        own = end - start - child[index]
        for key in keys:
            total = totals.setdefault((key, in_setup), [0, 0.0])
            total[0] += key == name
            total[1] += own
    calls: dict[str, float] = {}
    self_s: dict[str, float] = {}
    for (key, in_setup), (count, seconds) in totals.items():
        share = 1 if in_setup else requests
        calls[key] = calls.get(key, 0.0) + count / share
        self_s[key] = self_s.get(key, 0.0) + seconds / share
    metrics = {f"{k}.self_s": v for k, v in self_s.items()}
    metrics.update({f"{k}.calls": v for k, v in calls.items()})
    metrics.update(tracer.maxima)
    metrics.update({k: v / requests for k, v in tracer.sums.items()})
    metrics.update({k: float(np.mean(v)) for k, v in tracer.samples.items()})
    metrics.update({f"{layer}.errors": count for layer, count in tracer.errors.items()})
    if tracer.last_cpm is not None:
        vectors = np.stack([np.asarray(k).reshape(-1) for k in tracer.last_cpm.kraus])
        metrics["routed_cpms.kraus_per_choi_rank"] = len(vectors) / max(1, np.linalg.matrix_rank(vectors))
    return metrics


def top_level_seconds(tracer: Tracer) -> float:
    """Total duration of the spans no other span encloses, over the requests."""
    return sum(
        end - start
        for _, start, end, parent, request in tracer.spans
        if parent < 0 and request is not None and request != SETUP
    )


def write_spans(tracer: Tracer, path: str) -> None:
    names: dict[str, int] = {}
    rows = []
    for name, start, end, parent, request in tracer.spans:
        rows.append([names.setdefault(name, len(names)), start, end, parent, request])
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        json.dump({"names": list(names), "fields": ["name", "start", "end", "parent", "request"], "spans": rows}, handle)
