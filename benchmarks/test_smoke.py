"""Smoke test of the benchmark at tiny sizes.

Run from the root of a checkout with ``python -m pytest benchmarks/test_smoke.py``.
It checks that every workload runs, that every metric of ``BENCHMARK.json``
is emitted with its unit, that a corrupted output counts as a failed
request, and that each layer metric is non-zero on the workloads that
exercise its layer.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, os.path.dirname(os.path.abspath(__file__))]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from routedcircuits import relations, routed_cpms, routed_maps  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)

#: traced seconds per workload: the CLI makes one pass over its commands in
#: fresh interpreters before the in-process pass
SECONDS = {"bundled_cli": 20.0}


def tiny(name: str, seed: int = 3):
    if name == "trajectories_pure":
        return workloads.TrajectoriesPure(seed, lines=2, dim=2, layers=1)
    if name == "trajectories_cpm":
        return workloads.TrajectoriesCPM(seed, lines=2, dim=2, layers=2)
    if name == "index_matching":
        return workloads.IndexMatching(seed, pairs=16)
    return workloads.BundledCLI(
        seed, ROOT, run.child_environment(SRC), documents=("diamond", "two_trajectories")
    )


def corrupt(name: str, output: dict) -> dict:
    """The same output with one wrong value in it."""
    output = dict(output)
    if name == "trajectories_pure":
        r = output["result"]
        output["result"] = routed_maps.RoutedMap(r.route, r.matrix * 1.001, r.domain, r.codomain)
    elif name == "trajectories_cpm":
        r = output["result"]
        output["result"] = routed_cpms.RoutedCPM(r.route, r.kraus[:-1], r.domain, r.codomain)
    elif name == "index_matching":
        b = output["bar"]
        output["bar"] = relations.Relation(b.domain, b.codomain, ~b.matrix)
    else:
        output["stdout"] = output["stdout"][:-2]
    return output


TRAJECTORY_LAYERS = [
    "spaces.tensor_many.calls", "spaces.tensor_many.self_s",
    "spaces.tensor_matrix.calls", "spaces.tensor_matrix.self_s",
    "circuits.evaluate.self_s", "circuits.evaluate.layers",
    "circuits.check_circuit.self_s", "circuits.check_circuit.interfaces",
    "circuits.accessible_space.recipe.self_s", "circuits.accessible_space.insertion.self_s",
    "circuits.accessible_space.accessible_ratio", "circuits.RoutedCircuit.self_s",
    "sampling.self_s",
]
RELATION_COMPOSE = ["relations.compose.calls", "relations.compose.self_s", "relations.compose.max_labels"]
#: workload -> the layer metrics that must be non-zero on it, because its
#: requests (or its set-up) enter that code
EXERCISED = {
    "trajectories_pure": TRAJECTORY_LAYERS + RELATION_COMPOSE + [
        "routed_maps.RoutedMap.calls", "routed_maps.RoutedMap.self_s",
        "routed_maps.RoutedMap.max_dim", "routed_maps.RoutedMap.max_sectors",
        "routed_maps.compose.self_s", "routed_maps.tensor_map.self_s",
        "routed_maps.RoutedMap.relabel.self_s", "routed_maps.is_practical_unitary.self_s",
        "relations.product.self_s",
    ],
    "trajectories_cpm": TRAJECTORY_LAYERS + [
        "relations.cp_compose.calls", "relations.cp_compose.self_s",
        "relations.cp_compose.max_labels", "relations.cp_product.self_s",
        "routed_cpms.RoutedCPM.calls", "routed_cpms.RoutedCPM.self_s",
        "routed_cpms.RoutedCPM.max_kraus", "routed_cpms.compose.self_s",
        "routed_cpms.tensor_cpm.self_s", "routed_cpms.choi_matrix.calls",
        "routed_cpms.choi_matrix.self_s", "routed_cpms.is_practically_trace_preserving.self_s",
        "routed_cpms.kraus_per_choi_rank",
    ],
    "index_matching": RELATION_COMPOSE + [
        "iodag.compose_corelations.calls", "iodag.compose_corelations.self_s",
        "iodag.bar.calls", "iodag.bar.self_s", "iodag.bar.max_labels",
        "iodag.explain_improper.self_s", "iodag.Partition.blocks.calls",
        "iodag.Partition.blocks.self_s",
    ],
    "bundled_cli": [
        "io.parse.calls", "io.parse.self_s", "io.parse.bytes", "cli.main.self_s",
        "cli.import_s", "cli.process_s", "cli.startup_s", "iodag.lint.self_s",
        "iodag.interpret.self_s",
    ],
}
EVERYWHERE = ["trace.overhead", "trace.requests", "other.self_s"]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_end_to_end_metrics(name):
    info, result = run.report(tiny(name), 0.3, False, SPEC, "")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert info["error_rate"] == 0
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_corrupted_output_is_counted(name):
    workload = tiny(name)
    honest = workload.request
    calls = []

    def request(i):
        calls.append(i)
        output = honest(i)
        # the warm-up is request 0; corrupt the first timed request
        return corrupt(name, output) if len(calls) == 2 else output

    workload.request = request
    info, result = run.report(workload, 0.3, False, SPEC, "")
    assert result["failed"] == 1 and not result["correct"]
    assert info["error_rate"] == 1 / result["attempted"]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_layer_metrics(name, tmp_path):
    info, result = run.report(tiny(name), SECONDS.get(name, 0.5), True, SPEC, str(tmp_path))
    assert result["correct"] and result["failed"] == 0
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    values = {k: v["value"] for k, v in result["metrics"].items()}
    empty = [m for m in EXERCISED[name] + EVERYWHERE if not values[m] > 0]
    assert not empty, f"empty on {name}: {empty}"
    assert all(values[f"{layer}.errors"] == 0 for layer in tracing.LAYERS)
    assert os.path.exists(os.path.join(str(tmp_path), info["spans_file"].rsplit(os.sep, 1)[-1]))


def test_every_layer_metric_is_checked_somewhere():
    checked = {m for names in EXERCISED.values() for m in names} | set(EVERYWHERE)
    unchecked = {
        m["name"] for m in SPEC["per_layer"]
        if m["name"] not in checked and not m["name"].endswith(".errors")
        and m["name"].split(".")[0] + ".self_s" != m["name"]
    }
    assert not unchecked
