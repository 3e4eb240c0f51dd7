"""The four benchmark workloads.

Each workload builds its inputs from a seed in ``setup`` (the timed set-up),
prepares the references its output checks compare against in ``prepare``
(untimed, and computed without the library calls that a request times),
answers one request per ``request(i)`` call and judges the output in
``check(i, output)``.  ``fingerprint`` reduces an output to a value that is
equal exactly when two outputs are the same, so that traced and untraced
runs can be compared.

The library is reached through module attributes (``circuits.evaluate``,
not a name imported into this module), so that the traced run sees every
call the workload makes.
"""

from __future__ import annotations

import contextlib
import io as stdio
import itertools
import json
import os
import subprocess
import sys

import numpy as np

from routedcircuits import circuits, iodag, relations, routed_cpms, routed_maps, sampling, spaces
from routedcircuits import cli
from routedcircuits import io as rio

TOLERANCE = 1e-9
MESSAGE, VACUUM = 1, 0
#: names per boundary of an index_matching corelation, at most
MAX_NAMES = 3


class Workload:
    name = ""
    #: names of the traced layers whose set-up spans also count (see tracing)
    setup_layers: tuple[str, ...] = ()

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Compute the references used by ``check``; not timed."""

    def request(self, i: int):
        raise NotImplementedError

    def inprocess_request(self, i: int):
        """The request as the traced run makes it (in this process)."""
        return self.request(i)

    def check(self, i: int, output) -> bool:
        raise NotImplementedError

    def fingerprint(self, output):
        raise NotImplementedError

    def info(self) -> dict:
        return {}


# -- one particle sent through N lines in superposition ----------------------


def _one_particle_tuples(lines: int) -> set:
    return {tuple(MESSAGE if k == j else VACUUM for k in range(lines)) for j in range(lines)}


class _Trajectories(Workload):
    """Encode a d-dimensional message and an N-valued control into one
    particle on N lines, run ``layers`` per-line boxes, then decode.

    Every line is a vacuum sector (label 0, dimension 1) plus a message sector
    (label 1, dimension d), so the lines' joint interface has 2^N sectors
    and dimension (d + 1)^N.
    """

    mode = ""
    gate = ""

    def __init__(self, seed: int, lines: int, dim: int, layers: int):
        super().__init__(seed)
        self.lines, self.dim, self.layers = lines, dim, layers
        mid = (layers + 1) // 2
        self.cut = circuits.Slice([f"L{j}_{mid}" for j in range(lines)])

    def _line_box(self, line, t, rng):
        raise NotImplementedError

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        n, d = self.lines, self.dim
        message = spaces.PartitionedSpace.trivial(d)
        control = spaces.PartitionedSpace.trivial(n)
        line = spaces.PartitionedSpace.from_dims([VACUUM, MESSAGE], [1, d])
        mc = spaces.tensor(message, control)
        joint = spaces.tensor_many([line] * n)
        onehots = sorted(_one_particle_tuples(n), reverse=True)
        omega = relations.Relation.from_pairs(
            mc.sector_labels, joint.sector_labels, [(mc.sector_labels.labels[0], o) for o in onehots]
        )
        matrix = np.zeros((joint.total_dim, d * n), dtype=complex)
        for j, label in enumerate(onehots):
            offset = joint.sector_range(label).offset
            for m in range(d):
                matrix[offset + m, m * n + j] = 1.0
        encode = routed_maps.RoutedMap(omega, matrix, mc, joint)
        decode = routed_maps.dagger(encode)
        if self.mode == "cpm":
            encode, decode = routed_cpms.lift_pure(encode), routed_cpms.lift_pure(decode)

        builder = circuits.CircuitBuilder(self.mode)
        for wire, space in (("M", message), ("C", control), ("M2", message), ("C2", control)):
            builder.wire(wire, space)
        for j in range(n):
            for t in range(self.layers + 1):
                builder.wire(f"L{j}_{t}", line)
        builder.inputs("M", "C").outputs("M2", "C2")
        builder.box("encode", ["M", "C"], [f"L{j}_0" for j in range(n)], encode)
        self.line_boxes = {}
        for j in range(n):
            for t in range(self.layers):
                op = self._line_box(line, t, rng)
                self.line_boxes[j, t] = op
                builder.box(f"u{j}_{t}", [f"L{j}_{t}"], [f"L{j}_{t + 1}"], op)
        builder.box("decode", [f"L{j}_{self.layers}" for j in range(n)], ["M2", "C2"], decode)
        self.circuit = builder.build()
        self.domain = mc

    def request(self, i: int):
        report = circuits.check_circuit(self.circuit, self.gate)
        result = circuits.evaluate(self.circuit)
        if self.mode == "pure":
            certified = routed_maps.is_practical_unitary(result)
        else:
            certified = routed_cpms.is_practically_trace_preserving(result)
        recipe = circuits.accessible_space(self.circuit, self.cut, "recipe")
        insertion = circuits.accessible_space(self.circuit, self.cut, "insertion")
        return {
            "report": report,
            "result": result,
            "certified": certified,
            "recipe": recipe.tuples,
            "insertion": insertion.tuples,
        }

    def _check_common(self, output) -> bool:
        expected = self.expected_tuples
        return (
            output["report"].passed
            and output["certified"]
            and output["recipe"] == output["insertion"]
            and set(output["recipe"]) == expected
            and len(output["recipe"]) == len(expected)
        )

    def prepare(self) -> None:
        self.expected_tuples = _one_particle_tuples(self.lines)

    def info(self) -> dict:
        line_sectors, line_dim = 2, 1 + self.dim
        return {
            "lines": self.lines,
            "message_dim": self.dim,
            "layers": self.layers,
            "interface_dim": line_dim**self.lines,
            "interface_sectors": line_sectors**self.lines,
            "slice": list(self.cut.wires),
        }


class TrajectoriesPure(_Trajectories):
    """Pure mode: per-line boxes are random block-diagonal unitaries."""

    name = "trajectories_pure"
    mode = "pure"
    gate = "unitary"
    setup_layers = ("circuits.RoutedCircuit", "sampling")

    def __init__(self, seed: int, lines: int = 6, dim: int = 2, layers: int = 3):
        super().__init__(seed, lines, dim, layers)

    def _line_box(self, line, t, rng):
        return sampling.random_block_diagonal_unitary(line, rng)

    def prepare(self) -> None:
        """The composite in numpy: the particle on line j picks up the
        product of line j's message blocks, times the vacuum phases of every
        other line."""
        super().prepare()
        n, d = self.lines, self.dim
        message_block = slice(1, 1 + d)
        expected = np.zeros((d * n, d * n), dtype=complex)
        vacuum_phase = np.ones(n, dtype=complex)
        for j in range(n):
            walk = np.eye(d, dtype=complex)
            for t in range(self.layers):
                op = self.line_boxes[j, t].matrix
                walk = op[message_block, message_block] @ walk
                vacuum_phase[j] *= op[0, 0]
            rows = [m * n + j for m in range(d)]
            expected[np.ix_(rows, rows)] = walk
        for j in range(n):
            others = np.prod(np.delete(vacuum_phase, j))
            cols = [m * n + j for m in range(d)]
            expected[:, cols] *= others
        self.expected_matrix = expected

    def check(self, i: int, output) -> bool:
        result = output["result"]
        matrix = np.asarray(result.matrix)
        gram = matrix.conj().T @ matrix
        return (
            self._check_common(output)
            and result.domain == self.domain
            and result.codomain == self.domain
            and bool(result.route.matrix.all())
            and matrix.shape == self.expected_matrix.shape
            and float(np.abs(matrix - self.expected_matrix).max()) <= TOLERANCE
            and float(np.abs(gram - np.eye(gram.shape[0])).max()) <= TOLERANCE
        )

    def fingerprint(self, output):
        return (
            output["report"],
            np.asarray(output["result"].matrix).tobytes(),
            output["certified"],
            output["recipe"],
            output["insertion"],
        )

    def info(self) -> dict:
        return {**super().info(), "kraus_count": 1}


class TrajectoriesCPM(_Trajectories):
    """CPM mode: per-line layers alternate a 2-Kraus sector-preserving noise
    channel with a trace-preserving dephasing channel (one Kraus operator
    per sector), so the composite has prod(per-box Kraus counts) operators."""

    name = "trajectories_cpm"
    mode = "cpm"
    gate = "channel"
    setup_layers = ("circuits.RoutedCircuit", "sampling")

    def __init__(self, seed: int, lines: int = 3, dim: int = 2, layers: int = 4):
        super().__init__(seed, lines, dim, layers)

    def _line_box(self, line, t, rng):
        if t % 2 == 0:
            return sampling.random_sector_preserving_channel(line, rng, count=2)
        connectivity = relations.Relation.identity(line.sector_labels)
        return sampling.random_decohered_cpm(
            connectivity, line, line, rng, ops_per_block=1, trace_preserving=True
        )

    def prepare(self) -> None:
        super().prepare()
        self.expected_kraus = int(np.prod([len(op.kraus) for op in self.line_boxes.values()]))

    def check(self, i: int, output) -> bool:
        result = output["result"]
        kraus = np.stack([np.asarray(k) for k in result.kraus])
        d_in = self.domain.total_dim
        gram = np.einsum("kji,kjl->il", kraus.conj(), kraus)
        choi_trace = float(np.vdot(kraus, kraus).real)
        return (
            self._check_common(output)
            and result.domain == self.domain
            and result.codomain == self.domain
            and kraus.shape == (self.expected_kraus, d_in, d_in)
            and float(np.abs(gram - np.eye(d_in)).max()) <= TOLERANCE
            and abs(choi_trace - d_in) <= TOLERANCE * d_in
        )

    def fingerprint(self, output):
        return (
            output["report"],
            b"".join(np.asarray(k).tobytes() for k in output["result"].kraus),
            output["certified"],
            output["recipe"],
            output["insertion"],
        )

    def info(self) -> dict:
        return {**super().info(), "kraus_count": self.expected_kraus}


# -- corelation pairs -----------------------------------------------------------


def _random_blocks(elements: list, rng) -> list[list]:
    """A random set partition (restricted growth string) of ``elements``."""
    blocks: list[list] = []
    for x in elements:
        pick = int(rng.integers(0, len(blocks) + 1))
        if pick == len(blocks):
            blocks.append([x])
        else:
            blocks[pick].append(x)
    return blocks


def _random_pair(rng):
    """Corelations first: a -> b and second: b -> c with random matchings.

    Names that either matching relates share one length drawn from {1,2,3}.
    """
    a, b, c = (int(x) for x in rng.integers(0, MAX_NAMES + 1, size=3))
    a_names = [f"a{i}" for i in range(a)]
    b_names = [f"b{i}" for i in range(b)]
    c_names = [f"c{i}" for i in range(c)]
    first_blocks = _random_blocks([("in", n) for n in a_names] + [("out", n) for n in b_names], rng)
    second_blocks = _random_blocks([("in", n) for n in b_names] + [("out", n) for n in c_names], rng)
    root = {n: n for n in a_names + b_names + c_names}

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    for block in first_blocks + second_blocks:
        for _, other in block[1:]:
            root[find(other)] = find(block[0][1])
    chosen: dict = {}
    lengths = {}
    for name in sorted(root):
        key = find(name)
        if key not in chosen:
            chosen[key] = int(rng.integers(1, 4))
        lengths[name] = chosen[key]
    dom = iodag.IndexFamily({n: lengths[n] for n in a_names})
    mid = iodag.IndexFamily({n: lengths[n] for n in b_names})
    cod = iodag.IndexFamily({n: lengths[n] for n in c_names})
    first = iodag.Corelation(dom, mid, iodag.Partition.from_blocks(first_blocks))
    second = iodag.Corelation(mid, cod, iodag.Partition.from_blocks(second_blocks))
    return first, second, first_blocks, second_blocks


def _delta_matrix(dom: dict, cod: dict, blocks: list[list]) -> np.ndarray:
    """Kronecker-delta relation of a matching, by enumeration: value tuples
    (over sorted names) are related when every block carries one value."""
    dom_names, cod_names = sorted(dom), sorted(cod)
    dom_values = list(itertools.product(*(range(dom[n]) for n in dom_names)))
    cod_values = list(itertools.product(*(range(cod[n]) for n in cod_names)))
    out = np.zeros((len(dom_values), len(cod_values)), dtype=bool)
    for i, a in enumerate(dom_values):
        for j, c in enumerate(cod_values):
            value = {("in", n): v for n, v in zip(dom_names, a)}
            value.update({("out", n): v for n, v in zip(cod_names, c)})
            out[i, j] = all(len({value[m] for m in block}) == 1 for block in blocks)
    return out


class IndexMatching(Workload):
    """A stream of random corelation pairs, cycled through in order."""

    name = "index_matching"

    def __init__(self, seed: int, pairs: int = 1024):
        super().__init__(seed)
        self.size = pairs

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.pairs = [_random_pair(rng) for _ in range(self.size)]

    def prepare(self) -> None:
        """Per pair: the composite's delta relation as the boolean product
        of the two enumerated delta relations, and the isometry gate
        evaluated on the enumerated relations."""
        self.references = []
        for first, second, first_blocks, second_blocks in self.pairs:
            r1 = _delta_matrix(dict(first.domain.lengths), dict(first.codomain.lengths), first_blocks)
            r2 = _delta_matrix(dict(second.domain.lengths), dict(second.codomain.lengths), second_blocks)
            composite = (r1.astype(np.int64) @ r2.astype(np.int64)) > 0
            # the isometry gate, by hand: the image of s under r1ᵀ-then-r1 stays in s
            s = r2.any(axis=1)
            reach = (r1.T.astype(np.int64) @ r1.astype(np.int64) > 0)[s].any(axis=0)
            self.references.append((composite, bool(not (reach & ~s).any())))

    def request(self, i: int):
        first, second, _, _ = self.pairs[i % self.size]
        composed = iodag.compose_corelations(second, first)
        bar_composed = iodag.bar(composed)
        bar_first = iodag.bar(first)
        bar_second = iodag.bar(second)
        equal = bar_composed == relations.compose(bar_second, bar_first)
        report = iodag.explain_improper(first, second)
        return {"equal": equal, "bar": bar_composed, "report": report}

    def check(self, i: int, output) -> bool:
        composite, proper = self.references[i % self.size]
        return (
            output["equal"]
            and np.array_equal(output["bar"].matrix, composite)
            and output["report"].proper_for_isometries == proper
        )

    def fingerprint(self, output):
        bar = output["bar"]
        return (output["equal"], bar.domain, bar.codomain, bar.matrix.tobytes(), output["report"])

    def info(self) -> dict:
        labels = [
            max(len(f.domain.value_labels()), len(f.codomain.value_labels()), len(s.codomain.value_labels()))
            for f, s, _, _ in self.pairs
        ]
        return {
            "pool_pairs": self.size,
            "max_names_per_boundary": MAX_NAMES,
            "max_labels": max(labels),
            "mean_labels": float(np.mean(labels)),
        }


# -- the command-line tool in fresh interpreters ----------------------------------

DOCUMENTS = (
    "two_trajectories", "three_trajectories", "copy_discard", "diamond",
    "figure1b", "figure1c", "figure1d", "iodag_e", "iodag_f1", "iodag_f2", "iodag_f3",
)
SLICES = {"two_trajectories": "A,B", "three_trajectories": "A,B,Cq", "copy_discard": "B,Cc"}
VALIDATE_MODES = {"diamond": "uni", "figure1d": "iso"}
#: documented exit codes (0 pass, 1 validation failure, 2 usage or parse error)
#: for every command that does not exit 0
EXPECTED_EXIT = {
    ("validate", "figure1d"): 1,
    ("explain", "figure1c"): 1,
    ("explain", "figure1d"): 1,
    **{("eval", doc): 2 for doc in DOCUMENTS if doc.startswith(("figure", "iodag"))},
    **{("accessible", doc): 2 for doc in DOCUMENTS if doc not in SLICES},
}
#: command -> golden file under tests/golden, compared byte for byte
GOLDEN = {
    ("accessible", "two_trajectories"): "accessible_two_trajectories.json",
    ("validate", "diamond"): "validate_diamond_uni.json",
    ("validate", "figure1d"): "validate_figure1d_iso.json",
    ("eval", "two_trajectories"): "eval_two_trajectories.json",
}


def _argv(command: str, doc: str, data_dir: str) -> list[str]:
    path = os.path.join(data_dir, f"{doc}.json")
    if command == "accessible":
        return [command, path, "--slice", SLICES.get(doc, "A")]
    if command == "validate" and doc in VALIDATE_MODES:
        return [command, path, "--mode", VALIDATE_MODES[doc]]
    return [command, path]


class BundledCLI(Workload):
    """``python -m routedcircuits.cli`` in a fresh interpreter per request:
    validate, eval, explain and accessible over the bundled documents, in a
    seeded order."""

    name = "bundled_cli"

    def __init__(self, seed: int, root: str, env: dict, documents=DOCUMENTS):
        super().__init__(seed)
        self.root, self.env, self.documents = root, env, tuple(documents)
        self.data_dir = os.path.join(root, "src", "routedcircuits", "data")

    def setup(self) -> None:
        """Load every bundled document once and fix the command order."""
        self.loaded = {doc: rio.parse(os.path.join(self.data_dir, f"{doc}.json")) for doc in self.documents}
        commands = [(c, d) for d in self.documents for c in ("validate", "eval", "explain", "accessible")]
        order = np.random.default_rng(self.seed).permutation(len(commands))
        self.commands = [commands[k] for k in order]

    def prepare(self) -> None:
        self.golden = {}
        for key, name in GOLDEN.items():
            with open(os.path.join(self.root, "tests", "golden", name), "rb") as handle:
                self.golden[key] = handle.read()

    def request(self, i: int):
        command, doc = self.commands[i % len(self.commands)]
        done = subprocess.run(
            [sys.executable, "-m", "routedcircuits.cli", *_argv(command, doc, self.data_dir)],
            env=self.env, cwd=self.root, capture_output=True, check=False,
        )
        return {"code": done.returncode, "stdout": done.stdout}

    def inprocess_request(self, i: int):
        """``cli.main`` in this process, with its standard output captured."""
        command, doc = self.commands[i % len(self.commands)]
        buffer = stdio.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(_argv(command, doc, self.data_dir))
        return {"code": code, "stdout": buffer.getvalue().encode("utf-8")}

    def check(self, i: int, output) -> bool:
        """The documented exit code; golden output byte for byte where there
        is one, else a JSON report of this command on this document (or a
        JSON error for exit code 2)."""
        key = self.commands[i % len(self.commands)]
        code = EXPECTED_EXIT.get(key, 0)
        if output["code"] != code:
            return False
        if key in self.golden:
            return output["stdout"] == self.golden[key]
        try:
            payload = json.loads(output["stdout"])
        except ValueError:
            return False
        if code == 2:
            return set(payload) == {"error", "kind"}
        command, doc = key
        return payload.get("command") == command and payload.get("file") == f"{doc}.json"

    def fingerprint(self, output):
        return (output["code"], output["stdout"])

    def info(self) -> dict:
        return {
            "documents": len(self.documents),
            "commands": len(self.commands),
            "document_bytes": sum(
                os.path.getsize(os.path.join(self.data_dir, f"{d}.json")) for d in self.documents
            ),
        }

    def probe_import(self) -> tuple[float, str]:
        """Import time of ``routedcircuits.cli`` in a fresh interpreter, and
        the file the child resolved ``routedcircuits`` to."""
        probe = (
            "import time; start = time.perf_counter(); import routedcircuits.cli; "
            "elapsed = time.perf_counter() - start; import routedcircuits; "
            "print(elapsed); print(routedcircuits.__file__)"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe], env=self.env, cwd=self.root,
            capture_output=True, check=True, text=True,
        )
        elapsed, path = done.stdout.split("\n")[:2]
        return float(elapsed), path


def build(name: str, seed: int, root: str, env: dict) -> Workload:
    if name == "trajectories_pure":
        return TrajectoriesPure(seed)
    if name == "trajectories_cpm":
        return TrajectoriesCPM(seed)
    if name == "index_matching":
        return IndexMatching(seed)
    if name == "bundled_cli":
        return BundledCLI(seed, root, env)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("trajectories_pure", "trajectories_cpm", "index_matching", "bundled_cli")
