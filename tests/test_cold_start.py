"""A command loads only the layer its document needs: the package resolves
its public names on first access, and ``io`` and ``cli`` import the circuit
layer, the indexed-graph layer, routed maps and routed CP maps by document
kind and command.  ``cli``, ``io`` and ``iodag`` import NumPy and the array
modules only in the functions that make arrays, so a command on an indexed
graph without an interpretation loads none of them.  Each command check
runs ``cli.main`` in a fresh interpreter."""

from __future__ import annotations

import ast
import importlib
import json
import pathlib
import subprocess
import sys

import pytest

import routedcircuits
from routedcircuits.io import bundled_path

from conftest import child_env

#: the names the package bound eagerly, by the module that defines each
PUBLIC = {
    "errors": [
        "DomainMismatch", "ImproperComposition", "IncompatibleRestrictions",
        "InterfaceMismatch", "InvalidSlice", "InvariantViolation", "LengthMismatch",
        "LintFailure", "NotFullDecoherence", "NotPracticalIsometry", "ParseError",
        "RoutedError", "RouteViolation", "SchemaError", "ShapeMismatch", "TypeMismatch",
        "UnknownLabel", "UnknownNode", "UsageError",
    ],
    "relations": [
        "CPRelation", "IndexSet", "Relation", "compose", "diagonal", "full_coherence",
        "full_decoherence", "image", "is_completely_positive", "is_proper_for_channels",
        "is_proper_for_isometries", "is_proper_for_unitaries", "practical_input_set",
        "practical_output_set", "product", "transpose",
    ],
    "spaces": ["PartitionedSpace", "SectorRange", "projector", "tensor", "tensor_many"],
    "routed_maps": [
        "RoutedMap", "checked_compose", "dagger", "follows", "is_practical_isometry",
        "is_practical_unitary", "tensor_map",
    ],
    "routed_cpms": [
        "RoutedCPM", "adapted_kraus_decomposition", "checked_compose_channel", "choi_matrix",
        "discard", "follows_cp", "is_practically_trace_preserving", "kraus_follow_diagonal",
        "lift_pure", "tensor_cpm",
    ],
    "circuits": [
        "Box", "CircuitBuilder", "RoutedCircuit", "Slice", "accessible_space",
        "check_circuit", "circuit_to_dot", "evaluate", "formal_space",
    ],
    "iodag": [
        "Corelation", "IndexFamily", "Interpretation", "IODAG", "IONode", "Partition", "bar",
        "compose_corelations", "explain_improper", "interpret", "iodag_isomorphic",
        "iodag_to_dot", "lint", "node_corelation", "nonforgetting_compose", "normalize",
        "par_compose_iodag", "preprocessing", "seq_compose_iodag", "total_corelation",
    ],
    "io": ["CircuitDocument", "parse", "serialize"],
}

PROBE = """
import contextlib, io, json, sys
from routedcircuits import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(json.loads(sys.argv[1]))
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("routedcircuits") or m == "numpy")]))
"""

#: the modules that make arrays: NumPy, and the package's modules that import it
ARRAYS = {"numpy", "routedcircuits.relations", "routedcircuits.spaces"}


def loaded(*argv: str) -> tuple[int, set[str]]:
    """The exit code of ``cli.main(argv)`` in a fresh interpreter, and the
    package's modules (and NumPy, if loaded) it left loaded."""
    done = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(argv)],
        capture_output=True, text=True, env=child_env(),
    )
    assert done.returncode == 0, done.stderr
    code, modules = json.loads(done.stdout)
    return code, set(modules)


@pytest.mark.parametrize(
    "argv",
    [("validate",), ("eval",), ("explain",), ("accessible", "--slice", "A,B")],
    ids=lambda argv: argv[0],
)
def test_a_circuit_command_never_loads_the_indexed_graph_layer(argv):
    """Nor, on a pure circuit, routed CP maps."""
    code, modules = loaded(argv[0], bundled_path("two_trajectories.json"), *argv[1:])
    assert code == 0
    assert {"routedcircuits.circuits", *ARRAYS} <= modules
    assert not modules & {"routedcircuits.iodag", "routedcircuits.routed_cpms"}


@pytest.mark.parametrize("command", ["validate", "explain", "export-dot"])
def test_an_indexed_graph_command_loads_no_circuit_layer(command, tmp_path):
    """Nor, without an interpretation, routed maps."""
    output = ("-o", str(tmp_path / "graph.dot")) if command == "export-dot" else ()
    code, modules = loaded(command, bundled_path("figure1b.json"), *output)
    assert code == 0
    assert "routedcircuits.iodag" in modules
    unused = {"routedcircuits.circuits", "routedcircuits.routed_maps", "routedcircuits.routed_cpms"}
    assert not modules & unused


def test_evaluating_an_interpretation_loads_no_routed_cp_maps():
    code, modules = loaded("eval", bundled_path("diamond.json"))
    assert code == 0
    assert {"routedcircuits.iodag", "routedcircuits.circuits", *ARRAYS} <= modules
    assert "routedcircuits.routed_cpms" not in modules


#: the bundled indexed graphs without an interpretation
GRAPHS = ("figure1b", "figure1c", "figure1d", "iodag_e", "iodag_f1", "iodag_f2", "iodag_f3")
#: the exit code of each command on them that does not exit 0: a failed
#: lint or properness witness (1), no interpretation or no circuit (2)
EXIT = {
    ("validate", "figure1d"): 1,
    ("explain", "figure1c"): 1,
    ("explain", "figure1d"): 1,
    **{("eval", graph): 2 for graph in GRAPHS},
    **{("accessible", graph): 2 for graph in GRAPHS},
}


@pytest.mark.parametrize("graph", GRAPHS)
@pytest.mark.parametrize("command", ["validate", "eval", "explain", "accessible", "export-dot"])
def test_a_command_on_a_bare_indexed_graph_loads_no_arrays(command, graph, tmp_path):
    extra = {"accessible": ("--slice", "A"), "export-dot": ("-o", str(tmp_path / "graph.dot"))}
    code, modules = loaded(command, bundled_path(f"{graph}.json"), *extra.get(command, ()))
    assert code == EXIT.get((command, graph), 0)
    assert "routedcircuits.iodag" in modules
    assert not modules & ARRAYS, sorted(modules & ARRAYS)


SRC = pathlib.Path(routedcircuits.__file__).parent


def module_level_imports(tree: ast.Module):
    """The import statements a module runs when it is imported: those of its
    body and of the blocks of its top-level statements, except under
    ``if TYPE_CHECKING:``."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            pending += node.orelse
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            pending += [
                child for child in ast.iter_child_nodes(node)
                if isinstance(child, (ast.stmt, ast.excepthandler))
            ]


def imported_names(node: ast.Import | ast.ImportFrom) -> set[str]:
    """Every dotted part an import statement names: ``from .spaces import
    tensor_many`` names ``spaces`` and ``tensor_many``."""
    if isinstance(node, ast.Import):
        paths = [alias.name for alias in node.names]
    else:
        paths = [f"{node.module or ''}.{alias.name}" for alias in node.names]
    return {part for path in paths for part in path.split(".")}


@pytest.mark.parametrize("module", ["cli", "io", "iodag"])
def test_no_array_module_is_imported_at_module_level(module):
    """A stray top-level import would load NumPy for every command again;
    this names the statement instead."""
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    arrays = {"numpy", "relations", "spaces", "routed_maps", "routed_cpms", "circuits"}
    stray = [
        f"line {node.lineno}: {ast.unparse(node)}"
        for node in sorted(module_level_imports(tree), key=lambda node: node.lineno)
        if imported_names(node) & arrays
    ]
    assert not stray, stray


def test_the_package_binds_every_former_public_name():
    assert set(dir(routedcircuits)) >= {name for names in PUBLIC.values() for name in names}
    for module_name, names in PUBLIC.items():
        module = importlib.import_module(f"routedcircuits.{module_name}")
        for name in names:
            assert getattr(routedcircuits, name) is getattr(module, name), name
            assert name in routedcircuits.__all__


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nowhere'"):
        routedcircuits.nowhere  # noqa: B018
