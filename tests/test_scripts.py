"""The example scripts run to completion and every claim they print holds."""

from __future__ import annotations

import os
import re
import subprocess
import sys

SCRIPTS = os.path.join(os.path.dirname(__file__), "..", "scripts")


def run_script(name: str) -> list[str]:
    done = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, name)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_copy_then_discard():
    lines = run_script("copy_then_discard.py")
    assert "composite route equals the fully decohered one: True" in lines
    assert "surviving route diagonal: [[1, 1]]" in lines
    [worst] = [l for l in lines if l.startswith("largest cross-sector Choi entry")]
    assert float(worst.rsplit(" ", 1)[1]) <= 1e-9


def test_diamond_interpretation():
    trials = [l for l in run_script("diamond_interpretation.py") if l.startswith("trial ")]
    assert len(trials) == 5
    for line in trials:
        assert "unitary=True" in line, line
        leakages = re.findall(r"leakage ([-+.e0-9]+)", line)
        assert len(leakages) == 2 and all(float(x) <= 1e-9 for x in leakages), line


def test_superposed_trajectories():
    lines = run_script("superposed_trajectories.py")
    assert "interfaces gated for unitaries: all pass" in lines
    assert any(l.endswith("practical unitary: True") for l in lines)
    assert "norm preserved through the superposition: 1.000000000000" in lines


def test_cold_start():
    """One table per document and bytecode setting; a circuit document
    loads no indexed-graph layer and an indexed-graph document no circuits,
    and one without an interpretation no arrays either."""
    done = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, "cold_start.py"), "--repeat", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    tables = [block.splitlines() for block in done.stdout.strip().split("\n\n")]
    headers = [table[0] for table in tables]
    assert headers == [
        f"validate {document}, {setting} (median of 1, ms)"
        for document in ("two_trajectories.json", "figure1b.json")
        for setting in ("bytecode cached", "no bytecode")
    ]
    for header, table in zip(headers, tables):
        circuit = "two_trajectories" in header
        rows = table[2:-1]
        modules = {line.split()[-1] for line in rows if line != "numpy not loaded"}
        assert "routedcircuits.io" in modules
        arrays = {"numpy", "routedcircuits.relations"}
        if circuit:
            assert arrays <= modules and "numpy not loaded" not in rows
        else:
            assert not arrays & modules and rows[-1] == "numpy not loaded"
        layer, other = ("circuits", "iodag") if circuit else ("iodag", "circuits")
        assert f"routedcircuits.{layer}" in modules and f"routedcircuits.{other}" not in modules
        assert re.fullmatch(
            r"wall [\d.]+ ms: interpreter [\d.]+, numpy [\d.]+, package [\d.]+, rest -?[\d.]+",
            table[-1],
        ), table[-1]
        if not circuit:
            assert ", numpy 0.0," in table[-1]
