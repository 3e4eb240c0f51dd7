"""Where the start of a command-line run goes, module by module.

Runs ``python -X importtime -m routedcircuits.cli validate <document>`` on
one circuit document and one indexed-graph document, and prints each
module's self and cumulative import time (the median over ``--repeat``
runs, in milliseconds): the package's modules, NumPy, and the modules
imported at the top level.  Each document is run twice over a copy of the
package's sources: once with bytecode cached under a temporary
``PYTHONPYCACHEPREFIX`` (filled by one untimed run first), and once with
no bytecode for the package (``PYTHONDONTWRITEBYTECODE=1``), so that every
run compiles it, as a checkout that never writes ``__pycache__`` does.  A summary line splits
the median wall time of the same command, run without ``-X importtime``:
the bare interpreter (``python -c pass``), NumPy (its cumulative time, 0
for a command that does not load it, which the table says as ``numpy not
loaded``), the package (the self times of its modules) and the rest, which
is mostly the command itself.

    python scripts/cold_start.py [--repeat 5]
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
PACKAGE = os.path.join(ROOT, "src", "routedcircuits")
DOCUMENTS = ("two_trajectories.json", "figure1b.json")
COMMAND = "validate"
LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")


def run(argv: list[str], env: dict) -> tuple[float, str]:
    """Wall time of a child process, and its standard error."""
    start = time.perf_counter()
    done = subprocess.run(argv, env=env, capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    if done.returncode not in (0, 1):
        raise SystemExit(f"{' '.join(argv)} failed:\n{done.stderr}")
    return elapsed, done.stderr


def import_times(stderr: str) -> dict[str, tuple[int, int, int]]:
    """Module -> (self, cumulative) import time in microseconds, and its
    nesting depth, from ``-X importtime`` output."""
    found = {}
    for match in LINE.finditer(stderr):
        own, total, indent, name = match.groups()
        found[name] = (int(own), int(total), (len(indent) - 1) // 2)
    return found


def profile(document: str, repeat: int, env: dict) -> None:
    argv = [sys.executable, "-m", "routedcircuits.cli", COMMAND, document]
    runs = [import_times(run([sys.executable, "-X", "importtime", *argv[1:]], env)[1])
            for _ in range(repeat)]
    shown = [name for name, (_, _, depth) in runs[0].items()
             if depth == 0 or name == "numpy" or name.startswith("routedcircuits")]
    print(f"{'self':>8} {'cumul.':>8}  module")
    for name in shown:
        own = statistics.median(r[name][0] for r in runs if name in r) / 1000
        total = statistics.median(r[name][1] for r in runs if name in r) / 1000
        print(f"{own:8.1f} {total:8.1f}  {'  ' * runs[0][name][2]}{name}")
    if "numpy" not in runs[0]:
        print("numpy not loaded")
    wall = statistics.median(run(argv, env)[0] for _ in range(repeat)) * 1000
    bare = statistics.median(run([sys.executable, "-c", "pass"], env)[0] for _ in range(repeat))
    bare *= 1000
    numpy = statistics.median(r.get("numpy", (0, 0, 0))[1] for r in runs) / 1000
    package = statistics.median(
        sum(own for name, (own, _, _) in r.items() if name.startswith("routedcircuits"))
        for r in runs
    ) / 1000
    rest = wall - bare - numpy - package
    print(f"wall {wall:.1f} ms: interpreter {bare:.1f}, numpy {numpy:.1f}, "
          f"package {package:.1f}, rest {rest:.1f}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=5, help="runs per median")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as scratch:
        src = os.path.join(scratch, "src")
        shutil.copytree(PACKAGE, os.path.join(src, "routedcircuits"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        base = {k: v for k, v in os.environ.items() if not k.startswith("PYTHONPYCACHE")}
        base.update(PYTHONPATH=src, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
        cached = dict(base, PYTHONPYCACHEPREFIX=os.path.join(scratch, "pycache"))
        cached.pop("PYTHONDONTWRITEBYTECODE", None)
        uncached = dict(base, PYTHONDONTWRITEBYTECODE="1")
        for name in DOCUMENTS:
            document = os.path.join(src, "routedcircuits", "data", name)
            run([sys.executable, "-m", "routedcircuits.cli", COMMAND, document], cached)
            for label, env in (("bytecode cached", cached), ("no bytecode", uncached)):
                print(f"\n{COMMAND} {name}, {label} (median of {args.repeat}, ms)")
                profile(document, args.repeat, env)
    return 0


if __name__ == "__main__":
    sys.exit(main())
