"""The CLI's exit code and stdout on every bundled document, byte for byte.

``tests/golden/cli_outputs.json`` holds one snapshot per command and
document.  ``eval`` is left out: its 9-digit rounding may legitimately move
when a contraction is reordered.  Regenerate the snapshot, after a change
that is meant to alter the output, with::

    PYTHONPATH=src python tests/test_cli_snapshot.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import pytest

from routedcircuits import cli
from routedcircuits.io import bundled_path

SNAPSHOT = os.path.join(os.path.dirname(__file__), "golden", "cli_outputs.json")

DOCUMENTS = [
    "copy_discard.json",
    "diamond.json",
    "figure1b.json",
    "figure1c.json",
    "figure1d.json",
    "iodag_e.json",
    "iodag_f1.json",
    "iodag_f2.json",
    "iodag_f3.json",
    "three_trajectories.json",
    "two_trajectories.json",
]

COMMANDS = {
    "validate": ["validate", "{doc}"],
    "validate --mode uni": ["validate", "{doc}", "--mode", "uni"],
    "explain": ["explain", "{doc}"],
    "accessible --slice A,B": ["accessible", "{doc}", "--slice", "A,B"],
}


def _run(command: str, document: str) -> dict:
    argv = [bundled_path(document) if a == "{doc}" else a for a in COMMANDS[command]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return {"exit": code, "stdout": out.getvalue()}


def _key(command: str, document: str) -> str:
    return f"{command} :: {document}"


@pytest.fixture(scope="module")
def snapshot() -> dict:
    with open(SNAPSHOT, "r", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("document", DOCUMENTS)
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_output_matches_snapshot(snapshot, monkeypatch, command, document):
    monkeypatch.delenv("ROUTED_TOLERANCE", raising=False)
    key = _key(command, document)
    want = snapshot[key]
    got = _run(command, document)
    assert got["exit"] == want["exit"], f"{key}: exit code changed"
    assert got["stdout"] == want["stdout"], f"{key}: stdout changed"


def test_snapshot_covers_exactly_the_runs(snapshot):
    assert sorted(snapshot) == sorted(_key(c, d) for c in COMMANDS for d in DOCUMENTS)


def main() -> None:
    os.environ.pop("ROUTED_TOLERANCE", None)
    outputs = {_key(c, d): _run(c, d) for c in COMMANDS for d in DOCUMENTS}
    with open(SNAPSHOT, "w", encoding="utf-8") as handle:
        json.dump(outputs, handle, sort_keys=True, indent=2)
        handle.write("\n")
    print(f"wrote {len(outputs)} snapshots to {SNAPSHOT}", file=sys.stderr)


if __name__ == "__main__":
    main()
