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
