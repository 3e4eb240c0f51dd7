"""Benchmark of the routed-circuits library and CLI.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload trajectories_pure --seed 1 --seconds 20 --trace 0

One process runs one workload as a closed loop with a single client: the
next request starts when the previous one returns.  With ``--trace 0`` the
last line of standard output is a JSON object with the end-to-end metrics
named in ``BENCHMARK.json``; with ``--trace 1`` the layers are traced (see
``tracing.py``) and the object holds the per-layer metrics instead.  The
line before it is a JSON object with untimed information: provenance,
machine, sizes that drive cost, the error rate and the sample counts.

The library is imported from the checkout's ``src/``; the run fails if it
resolves anywhere else.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from time import perf_counter

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: the timed loop repeats the set-up after groups of requests, for this
#: share of its time and at least ``SETUPS`` times
SETUP_SHARE = 0.1
SETUPS = 5
#: the timed loop takes requests in groups of at least this many seconds;
#: after each group the reference computation runs for ``REFERENCE_SHARE``
#: of the group's request time (see ``Reference``)
GROUP_SECONDS = 0.05
REFERENCE_SHARE = 0.1
#: traced requests per run at most, so that the spans fit in memory
MAX_TRACED_REQUESTS = 2000
#: a tail percentile is reported only with this many samples beyond it
TAIL_SAMPLES = 10


class BenchmarkError(Exception):
    """The run cannot produce a trustworthy result."""


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Reference:
    """A fixed computation that measures the speed of the host at the moment.

    A shared host runs everything up to 1.5 times slower for spells of a
    tenth of a second to minutes, so a request's wall time moves with the
    spell it falls in.  Timing this computation right after each group of
    requests, and dividing, cancels the spell.  One unit is a fixed mix of
    the kinds of work the library does: an integer loop, small dicts of
    tuples and frozensets sorted by key, and small complex matrix products.
    """

    def __init__(self):
        import numpy

        self.matrix = numpy.random.default_rng(0).standard_normal((48, 48)) + 0j
        self.seconds = 0.0
        self.units: list[float] = []

    def unit(self) -> None:
        total = 0
        for i in range(5000):
            total += i * i % 7
        table = {(i, i % 7): frozenset((i % 5, i % 3, i)) for i in range(120)}
        sorted(table.items(), key=lambda item: (len(item[1]), item[0]))
        for _ in range(4):
            self.matrix @ self.matrix

    def median(self, budget: float) -> float:
        """Run units for ``budget`` seconds (at least three); their median."""
        times = []
        start = now = perf_counter()
        while now - start < budget or len(times) < 3:
            before = now
            self.unit()
            now = perf_counter()
            times.append(now - before)
        self.seconds += now - start
        self.units.extend(times)
        return statistics.median(times)


def _blas_info(numpy) -> dict:
    """OpenBLAS version and the thread count of the loaded library."""
    import ctypes
    import glob

    config = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads = int(getter())
                break
    return {"name": config.get("name"), "version": config.get("version"), "threads": threads}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _src_lines(src: str) -> int:
    total = 0
    for folder, _, files in os.walk(src):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), encoding="utf-8") as handle:
                    total += sum(1 for _ in handle)
    return total


def _inside(path: str, root: str) -> bool:
    return os.path.commonpath([os.path.realpath(path), os.path.realpath(root)]) == os.path.realpath(root)


class Loop:
    """Requests, their latencies and their output checks."""

    def __init__(self, workload, call):
        self.workload, self.call = workload, call
        self.latencies: list[float] = []
        self.setups: list[float] = []
        #: per group of requests: their median latency over the median time
        #: of a reference unit timed right after them; per set-up likewise
        self.relative: list[float] = []
        self.setup_relative: list[float] = []
        self.failed = 0
        self.check_seconds = 0.0
        self.outputs: list = []

    def one(self, i: int, keep: bool = False):
        start = perf_counter()
        try:
            output = self.call(i)
        except Exception:
            self.latencies.append(perf_counter() - start)
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            if keep:
                self.outputs.append(None)
            return None
        end = perf_counter()
        self.latencies.append(end - start)
        try:
            ok = self.workload.check(i, output)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
        if not ok:
            self.failed += 1
            print(f"request {i}: output check failed", file=sys.stderr)
        if keep:
            self.outputs.append(self.workload.fingerprint(output))
        self.check_seconds += perf_counter() - end
        return output

    def for_seconds(self, seconds: float, limit: int | None = None, keep: bool = False, reference=None) -> float:
        """Run requests 0, 1, ... for ``seconds`` (at least one request).
        With ``reference``, time it after each group of requests, and then
        repeat the set-up for ``SETUP_SHARE`` of the time; returns the wall
        time of the loop without the output checks, reference and set-ups."""
        start = group_start = perf_counter()
        group = i = 0
        while True:
            self.one(i, keep)
            i += 1
            now = perf_counter()
            done = now - start >= seconds or (limit is not None and i >= limit)
            if reference is not None and (done or now - group_start >= GROUP_SECONDS):
                latencies = self.latencies[group:]
                unit = reference.median(REFERENCE_SHARE * sum(latencies))
                self.relative.append(statistics.median(latencies) / unit)
                while sum(self.setups) < SETUP_SHARE * (perf_counter() - start) or (done and len(self.setups) < SETUPS):
                    # the same seed gives the same inputs every time
                    before = perf_counter()
                    self.workload.setup()
                    self.setups.append(perf_counter() - before)
                    self.setup_relative.append(self.setups[-1] / unit)
                group, group_start = len(self.latencies), perf_counter()
            if done:
                break
        spent = reference.seconds + sum(self.setups) if reference is not None else 0.0
        return perf_counter() - start - self.check_seconds - spent


def measure(workload, seconds: float) -> tuple[dict, dict, int, int]:
    """End-to-end metrics: set-up, a warm-up request, then the timed loop."""
    workload.setup()
    workload.prepare()
    warm = Loop(workload, workload.request)
    warm.one(0)
    reference = Reference()
    loop = Loop(workload, workload.request)
    elapsed = loop.for_seconds(seconds, reference=reference)
    who = resource.RUSAGE_CHILDREN if workload.name == "bundled_cli" else resource.RUSAGE_SELF
    metrics = {
        "request_p50_ref": statistics.median(loop.relative),
        "setup_s": statistics.median(loop.setups),
        "setup_p50_ref": statistics.median(loop.setup_relative),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    info = {
        "samples": len(loop.latencies),
        "groups": len(loop.relative),
        "setups": len(loop.setups),
        "request_p50_ms": statistics.median(loop.latencies) * 1e3,
        "reference_unit_ms": statistics.median(reference.units) * 1e3,
        "throughput_rps": len(loop.latencies) / elapsed,
    }
    if len(loop.latencies) >= TAIL_SAMPLES * 10:
        info["request_p90_ms"] = _percentile(loop.latencies, 90) * 1e3
    return metrics, info, len(loop.latencies) + 1, loop.failed + warm.failed


def trace(workload, seconds: float, out_dir: str) -> tuple[dict, dict, int, int]:
    """Per-layer metrics: one traced set-up, then each request twice, first
    untraced and then traced, with the tracer installed for the traced one
    only."""
    import tracing

    workload.setup()
    workload.prepare()
    extra: dict[str, float] = {"cli.import_s": 0.0, "cli.process_s": 0.0, "cli.startup_s": 0.0}
    attempted = failed = 0
    limit = MAX_TRACED_REQUESTS
    warm = Loop(workload, workload.inprocess_request)
    warm.one(0)
    if workload.name == "bundled_cli":
        first = Loop(workload, workload.request)
        first.one(0)  # compiles the byte code; not timed
        processes = Loop(workload, workload.request)
        processes.for_seconds(seconds, limit=len(workload.commands), keep=True)
        limit = len(processes.latencies)
        imports = [workload.probe_import()[0] for _ in range(3)]
        extra["cli.import_s"] = statistics.median(imports)
        extra["cli.process_s"] = statistics.fmean(processes.latencies)
        attempted += 1 + len(processes.latencies)
        failed += first.failed + processes.failed

    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        tracer.request = tracing.SETUP
        workload.setup()
    finally:
        tracer.request = None
        tracing.uninstall(restore)
    plain = Loop(workload, workload.inprocess_request)
    traced = Loop(workload, workload.inprocess_request)
    start = perf_counter()
    count = 0
    while count < limit and (count == 0 or perf_counter() - start < seconds):
        plain.one(count, keep=True)
        restore = tracing.install(tracer)
        try:
            tracer.request = count
            traced.one(count, keep=True)
        finally:
            tracer.request = None
            tracing.uninstall(restore)
        count += 1
    if traced.outputs != plain.outputs:
        raise BenchmarkError("traced outputs differ from untraced outputs")
    if workload.name == "bundled_cli":
        extra["cli.startup_s"] = extra["cli.process_s"] - statistics.fmean(plain.latencies)
        if processes.outputs[:count] != plain.outputs:
            raise BenchmarkError("in-process CLI output differs from the fresh-interpreter output")

    metrics = tracing.layer_metrics(tracer, count, workload.setup_layers)
    metrics.update(extra)
    metrics["trace.overhead"] = statistics.median(traced.latencies) / statistics.median(plain.latencies)
    metrics["trace.requests"] = count
    metrics["other.self_s"] = (sum(traced.latencies) - tracing.top_level_seconds(tracer)) / count
    os.makedirs(out_dir, exist_ok=True)
    spans_path = os.path.join(out_dir, f"spans-{workload.name}-seed{workload.seed}.json.gz")
    tracing.write_spans(tracer, spans_path)
    # shares of one request: the traced request, plus interpreter start for the CLI
    total = extra["cli.startup_s"] + statistics.fmean(traced.latencies)
    shares = {layer: metrics.get(f"{layer}.self_s", 0.0) / total for layer in tracing.LAYERS}
    if workload.name == "bundled_cli":
        shares["startup"] = extra["cli.startup_s"] / total
    info = {
        "samples": count,
        "spans": len(tracer.spans),
        "spans_file": os.path.relpath(spans_path),
        "self_time_share": shares,
        "traced_request_s": statistics.fmean(traced.latencies),
        "untraced_request_s": statistics.fmean(plain.latencies),
    }
    attempted += 1 + 2 * count
    failed += warm.failed + plain.failed + traced.failed
    return metrics, info, attempted, failed


def report(workload, seconds: float, traced: bool, spec: dict, out_dir: str) -> tuple[dict, dict]:
    """Run one workload; returns the untimed information and the result line."""
    if traced:
        metrics, run_info, attempted, failed = trace(workload, seconds, out_dir)
        wanted = spec["per_layer"]
    else:
        metrics, run_info, attempted, failed = measure(workload, seconds)
        wanted = spec["end_to_end"]
    info = {"error_rate": failed / attempted, **run_info, "sizes": workload.info()}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        # a per-layer metric is 0 on a workload that never enters its layer
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0) if traced else metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    return info, result


def child_environment(src: str) -> dict:
    """The environment of the CLI's child processes: this checkout's library
    and the same BLAS thread count as this process."""
    return dict(os.environ, PYTHONPATH=src, **{v: "1" for v in BLAS_THREAD_VARIABLES})


def main(argv: list[str] | None = None) -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "routedcircuits", "__init__.py")):
        print(f"error: no routedcircuits package under {src}", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")

    # one client, one thread: BLAS is pinned before numpy loads it
    for variable in BLAS_THREAD_VARIABLES:
        os.environ[variable] = "1"
    sys.path.insert(0, src)
    import numpy

    import routedcircuits
    import workloads

    if not _inside(routedcircuits.__file__, root):
        print(f"error: routedcircuits resolved outside the checkout: {routedcircuits.__file__}", file=sys.stderr)
        return 2
    blas = _blas_info(numpy)
    nproc = os.cpu_count() or 1
    if blas["threads"] is not None and blas["threads"] > nproc:
        print(f"error: BLAS uses {blas['threads']} threads on {nproc} processors", file=sys.stderr)
        return 2

    workload = workloads.build(args.workload, args.seed, root, child_environment(src))
    provenance = {"routedcircuits": os.path.relpath(routedcircuits.__file__, root)}
    if args.workload == "bundled_cli":
        child_path = workload.probe_import()[1]
        if not _inside(child_path, root):
            print(f"error: a child process resolved routedcircuits to {child_path}", file=sys.stderr)
            return 2
        provenance["child_routedcircuits"] = os.path.relpath(child_path, root)

    try:
        info, result = report(workload, args.seconds, bool(args.trace), spec, os.path.join(root, "benchmarks", "out"))
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    info.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        provenance=provenance,
        machine={
            "nproc": nproc,
            "cpu": _cpu_model(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas": blas,
        },
        src_lines=_src_lines(src),
    )
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
