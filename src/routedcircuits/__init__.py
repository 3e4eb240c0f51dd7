"""Routed quantum circuits: sector-constrained maps, channels and circuits.

The package splits into the boolean route algebra (`relations`),
partitioned Hilbert spaces (`spaces`), routed linear maps (`routed_maps`),
routed CP maps (`routed_cpms`), circuit DAGs with slice analysis
(`circuits`), the index-matching layer (`iodag`), the wire graphs both
share (`wiregraph`) and a JSON document format with a CLI (`io`, `cli`).

The public names below are resolved on first access (PEP 562): importing
the package, as ``python -m routedcircuits.cli`` does first, loads none of
its modules, so a command loads only the layers its document needs.
"""

import importlib
from functools import lru_cache

#: module -> the public names the package re-exports from it
_EXPORTS = {
    "errors": (
        "DomainMismatch", "ImproperComposition", "IncompatibleRestrictions",
        "InterfaceMismatch", "InvalidSlice", "InvariantViolation", "LengthMismatch",
        "LintFailure", "NotFullDecoherence", "NotPracticalIsometry", "ParseError",
        "RoutedError", "RouteViolation", "SchemaError", "ShapeMismatch", "TypeMismatch",
        "UnknownLabel", "UnknownNode", "UsageError",
    ),
    "relations": (
        "CPRelation", "IndexSet", "Relation", "compose", "diagonal", "full_coherence",
        "full_decoherence", "image", "is_completely_positive", "is_proper_for_channels",
        "is_proper_for_isometries", "is_proper_for_unitaries", "practical_input_set",
        "practical_output_set", "product", "transpose",
    ),
    "spaces": ("PartitionedSpace", "SectorRange", "projector", "tensor", "tensor_many"),
    "routed_maps": (
        "RoutedMap", "checked_compose", "dagger", "follows", "is_practical_isometry",
        "is_practical_unitary", "tensor_map",
    ),
    "routed_cpms": (
        "RoutedCPM", "adapted_kraus_decomposition", "checked_compose_channel", "choi_matrix",
        "discard", "follows_cp", "is_practically_trace_preserving", "kraus_follow_diagonal",
        "lift_pure", "tensor_cpm",
    ),
    "circuits": (
        "Box", "CircuitBuilder", "RoutedCircuit", "Slice", "accessible_space",
        "check_circuit", "circuit_to_dot", "evaluate", "formal_space",
    ),
    "iodag": (
        "Corelation", "IndexFamily", "Interpretation", "IODAG", "IONode", "Partition", "bar",
        "compose_corelations", "explain_improper", "interpret", "iodag_isomorphic",
        "iodag_to_dot", "lint", "node_corelation", "nonforgetting_compose", "normalize",
        "par_compose_iodag", "preprocessing", "seq_compose_iodag", "total_corelation",
    ),
    "io": ("CircuitDocument", "parse", "serialize"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    """A public name, read from its module, which is imported on first use."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_MODULE_OF))


@lru_cache
def _arrays():
    """NumPy, ``relations`` and ``spaces``, imported on the first call, for
    ``io`` and ``iodag``, which make arrays only in some functions: an
    indexed graph alone never calls this, and one cached call costs less
    than the relative imports it replaces on every space and map read and
    on :func:`iodag.bar`'s path."""
    import numpy as np

    from . import relations, spaces

    return np, relations, spaces
