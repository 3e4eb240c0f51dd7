"""Command-line front end.

Subcommands mirror the library passes: validate (properness gating or
well-indexedness linting), eval (compose and certify), accessible (slice
analysis), explain (improper-composition witnesses) and export-dot.
Reports are JSON by default; --human renders them as text.  Exit codes:
0 pass, 1 validation failure or a library or allocation error (reported
as a JSON error object), 2 usage or parse error (a --slice that is not an
antichain of known wires is a usage error).  Each handler imports
the layer its document's kind needs, so a command on a circuit never loads
the indexed-graph layer, and one on an indexed graph loads the circuit
layer only to evaluate an interpretation, and NumPy only to read or
evaluate one.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING

from .errors import InvalidSlice, ParseError, RoutedError, SchemaError, UsageError
from .io import CircuitDocument, label_to_json, parse

if TYPE_CHECKING:
    import numpy as np


def _interface_json(check) -> dict:
    return {
        "position": check.position,
        "downstream": list(check.downstream),
        "escaped_inputs": [label_to_json(l) for l in check.escaped_inputs],
        "escaped_outputs": [label_to_json(l) for l in check.escaped_outputs],
    }


# -- subcommand handlers ------------------------------------------------------


def _cmd_validate(doc: CircuitDocument, args) -> tuple[int, dict]:
    mode = args.mode
    if doc.kind == "circuit":
        from .circuits import check_circuit

        if mode is None:
            mode = "channel" if doc.payload.mode == "cpm" else "iso"
        mode_map = {"iso": "isometry", "uni": "unitary", "channel": "channel"}
        wanted = mode_map[mode]
        if (wanted == "channel") != (doc.payload.mode == "cpm"):
            raise SchemaError(
                f"mode {mode!r} does not apply to a {doc.payload.mode!r} circuit"
            )
        report = check_circuit(doc.payload, wanted)
        interfaces = [
            {**_interface_json(check), "passed": check.passed} for check in report.interfaces
        ]
        payload = {
            "kind": "circuit",
            "mode": mode,
            "passed": report.passed,
            "interfaces": interfaces,
        }
        return (0 if report.passed else 1), payload
    if mode is None:
        mode = "iso"
    if mode == "channel":
        raise SchemaError("mode 'channel' does not apply to an indexed graph")
    from .iodag import lint

    report = lint(doc.payload, mode)
    payload = {
        "kind": "iodag",
        "mode": mode,
        "passed": report.passed,
        "violations": [
            {
                "rule": violation.rule,
                "class": list(violation.class_names),
                "nodes": list(violation.nodes),
                "message": violation.render(),
            }
            for violation in report.violations
        ],
    }
    return (0 if report.passed else 1), payload


def _matrix_summary(matrix: np.ndarray) -> dict:
    import numpy as np

    summary = {
        "shape": list(matrix.shape),
        "frobenius_norm": round(float(np.linalg.norm(matrix)), 9),
    }
    if matrix.size <= 256:
        summary["matrix"] = [
            [[round(v.real, 9), round(v.imag, 9)] for v in row] for row in matrix
        ]
    return summary


def _cmd_eval(doc: CircuitDocument, args) -> tuple[int, dict]:
    if doc.kind == "iodag":
        if doc.interpretation is None:
            raise SchemaError("document has no interpretation to evaluate")
        from .iodag import interpret

        result = interpret(doc.payload, doc.interpretation, mode=args.iodag_mode)
        payload = {"kind": "iodag"}
    else:
        from .circuits import evaluate

        result = evaluate(doc.payload)
        payload = {"kind": "circuit", "mode": doc.payload.mode}
    if payload.get("mode") == "cpm":
        from .routed_cpms import is_practically_trace_preserving

        payload["kraus_count"] = len(result.kraus)
        payload["kraus_shape"] = list(result.kraus[0].shape)
        payload["choi_trace"] = round(float(result.choi().trace().real), 9)
        payload["practically_trace_preserving"] = is_practically_trace_preserving(result)
    else:
        from .routed_maps import is_practical_isometry, is_practical_unitary

        payload["result"] = _matrix_summary(result.matrix)
        payload["practical_isometry"] = is_practical_isometry(result)
        payload["practical_unitary"] = is_practical_unitary(result)
    return 0, payload


def _cmd_accessible(doc: CircuitDocument, args) -> tuple[int, dict]:
    if doc.kind != "circuit":
        raise SchemaError("accessible applies to circuit documents")
    wires = tuple(w.strip() for w in args.slice.split(",") if w.strip())
    if not wires:
        raise InvalidSlice(f"--slice {args.slice!r} names no wire")
    from .circuits import Slice, accessible_space

    cut = Slice(wires)
    recipe = accessible_space(doc.payload, cut, algorithm="recipe")
    oracle = accessible_space(doc.payload, cut, algorithm="insertion")
    payload = {
        "slice": list(wires),
        "accessible": [[label_to_json(l) for l in t] for t in recipe.tuples],
        "sector_dims": list(recipe.sector_dims),
        "total_dim": recipe.total_dim,
        "algorithms_agree": recipe.tuples == oracle.tuples,
    }
    return 0, payload


def _cmd_explain(doc: CircuitDocument, args) -> tuple[int, dict]:
    if doc.kind == "circuit":
        from .circuits import check_circuit

        mode = "channel" if doc.payload.mode == "cpm" else "unitary"
        report = check_circuit(doc.payload, mode)
        failures = [_interface_json(check) for check in report.interfaces if not check.passed]
        payload = {
            "kind": "circuit",
            "mode": mode,
            "witnesses": failures,
        }
        return (0 if not failures else 1), payload
    from .iodag import _layer_corelations, explain_improper, normalize

    g = normalize(doc.payload)
    lengths = dict(doc.interpretation.lengths) if doc.interpretation else None
    witnesses = []
    for layer, layer_corelation, upstream, _ in _layer_corelations(g, lengths):
        report = explain_improper(upstream, layer_corelation)
        for witness in report.created_witnesses + report.deleted_witnesses:
            witnesses.append(
                {
                    "layer": list(layer),
                    "kind": witness.kind,
                    "class": sorted(f"{side}:{name}" for side, name in witness.block),
                    "pair": list(witness.pair),
                }
            )
    payload = {"kind": "iodag", "witnesses": witnesses}
    return (0 if not witnesses else 1), payload


def _cmd_export_dot(doc: CircuitDocument, args) -> tuple[int, dict]:
    if doc.kind == "circuit":
        from .circuits import circuit_to_dot as to_dot
    else:
        from .iodag import iodag_to_dot as to_dot
    text = to_dot(doc.payload)
    try:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {args.output!r}: {exc.strerror}") from None
    return 0, {"output": args.output, "bytes": len(text)}


# -- rendering ------------------------------------------------------------------


def _render_human(payload: dict) -> str:
    lines = [f"{payload['command']}: {payload.get('file', '')}"]
    if payload["command"] == "validate":
        lines.append(f"mode: {payload['mode']}")
        lines.append("PASS" if payload["passed"] else "FAIL")
        for violation in payload.get("violations", []):
            lines.append(f"  - {violation['message']}")
        for interface in payload.get("interfaces", []):
            status = "ok" if interface["passed"] else "IMPROPER"
            lines.append(
                f"  interface before layer {interface['position']} "
                f"({','.join(interface['downstream'])}): {status}"
            )
            if interface["escaped_inputs"]:
                lines.append(f"    escaping sectors: {interface['escaped_inputs']}")
            if interface["escaped_outputs"]:
                lines.append(f"    escaping sectors (output side): {interface['escaped_outputs']}")
    elif payload["command"] == "accessible":
        lines.append(f"slice: {', '.join(payload['slice'])}")
        for entry in payload["accessible"]:
            lines.append("  (" + ", ".join(str(x) for x in entry) + ")")
        lines.append(f"total dimension: {payload['total_dim']}")
    elif payload["command"] == "eval":
        for key, value in sorted(payload.items()):
            if key in ("command", "file", "result"):
                continue
            lines.append(f"{key}: {value}")
        if "result" in payload:
            lines.append(f"result shape: {payload['result']['shape']}")
    elif payload["command"] == "explain":
        if not payload["witnesses"]:
            lines.append("all compositions proper")
        for witness in payload["witnesses"]:
            lines.append(f"  - {json.dumps(witness, sort_keys=True)}")
    else:
        lines.append(json.dumps(payload, sort_keys=True))
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="routed-circuits",
        description="Validate, evaluate and analyse routed circuit documents.",
    )
    parser.add_argument("--human", action="store_true", help="render reports as text")
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="run properness gates or linting")
    p_validate.add_argument("file")
    p_validate.add_argument("--mode", choices=["iso", "uni", "channel"], default=None)

    p_eval = sub.add_parser("eval", help="compose the document into one map")
    p_eval.add_argument("file")
    p_eval.add_argument("--iodag-mode", choices=["iso", "uni"], default="uni")

    p_accessible = sub.add_parser("accessible", help="accessible sectors of a slice")
    p_accessible.add_argument("file")
    p_accessible.add_argument("--slice", required=True, help="comma-separated wire ids")

    p_explain = sub.add_parser("explain", help="improper-composition witnesses")
    p_explain.add_argument("file")

    p_export = sub.add_parser("export-dot", help="write a Graphviz rendering")
    p_export.add_argument("file")
    p_export.add_argument("-o", "--output", required=True)

    return parser


_HANDLERS = {
    "validate": _cmd_validate,
    "eval": _cmd_eval,
    "accessible": _cmd_accessible,
    "explain": _cmd_explain,
    "export-dot": _cmd_export_dot,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        doc = parse(args.file)
        code, payload = _HANDLERS[args.command](doc, args)
    except (ParseError, SchemaError, UsageError, InvalidSlice) as exc:
        print(json.dumps({"error": str(exc), "kind": type(exc).__name__}, sort_keys=True))
        return 2
    except (RoutedError, MemoryError) as exc:
        print(json.dumps({"error": str(exc), "kind": type(exc).__name__}, sort_keys=True))
        return 1
    payload = {"command": args.command, "file": os.path.basename(args.file), **payload}
    if args.human:
        sys.stdout.write(_render_human(payload))
    else:
        print(json.dumps(payload, sort_keys=True, indent=2))
    return code


if __name__ == "__main__":
    sys.exit(main())
