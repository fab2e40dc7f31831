#!/usr/bin/env python3
"""polygraph benchmark: three seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py                          # every workload, one process each
    python3 bench/run.py --workload grid_bfs --seed 1 --seconds 20 --trace 0

A single-workload run prints one line per metric and, as its last line, one
JSON object with the keys correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 the run wraps
polygraph's public functions (see tracing.py) and reports per-layer ones.
Workloads, oracles and the known baseline defects are described in
bench/README.md.
"""

from __future__ import annotations

import os

# One thread per workload process: numpy's BLAS must not spread over cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_trace"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from tracing import OP_SPAN, Tracer  # noqa: E402

SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150
# Share of --seconds spent on untraced passes in a traced run; the rest is traced.
UNTRACED_SHARE = 1 / 3
# Timing metrics are in reference seconds: each measured time is scaled by
# REFERENCE_NOMINAL_S / (time of reference_loop measured around it).
REFERENCE_NOMINAL_S = 0.012


def reference_loop() -> float:
    """Time a fixed loop with no polygraph code in it.

    The machine's speed drifts with the load of other tenants; this loop
    samples the current speed so that timings can be scaled to a nominal one
    (see README.md).  Its Fraction, complex and dict work and its small numpy
    array operations mirror what polygraph spends its time on.  Call it only
    after polygraph is imported, so that it does not import numpy itself.
    """
    import numpy as np

    start = time.perf_counter()
    s, z, seen, smallest = Fraction(0), 0j, {}, []
    for i in range(1, 600):
        s += Fraction(i, i + 1) * Fraction(3, i + 2)
        z = z * 0.5 + complex(i, 1) / (i + 1)
        key = (i % 97, i % 5)
        seen[key] = seen.get(key, 0) + 1
        smallest.append(abs(z))
        if len(smallest) > 8:
            smallest.sort()
            smallest.pop()
    c = np.array([1, 2, 3, 4, 5], dtype=complex)
    for _ in range(400):
        c = c * (0.3 + 0.1j) + c[::-1]
        c /= abs(c).max()
    return time.perf_counter() - start


def import_polygraph():
    """Import polygraph from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import polygraph

    if Path(polygraph.__file__).resolve().parent != SRC / "polygraph":
        raise SystemExit(f"polygraph imported from {polygraph.__file__}, not {SRC}")
    return polygraph


def child(args: list) -> str:
    """Run this script with args in a fresh interpreter and return its stdout."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *args],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise SystemExit(f"child {args} failed:\n{proc.stderr}")
    return proc.stdout


# -- internal modes ------------------------------------------------------------------


def setup_sample(name: str, seed: int):
    """Time importing polygraph plus generating the workload's inputs."""
    start = time.perf_counter()
    pg = import_polygraph()
    workloads.build(pg, name, seed, {})
    raw = time.perf_counter() - start
    reference = statistics.median(reference_loop() for _ in range(5))
    print(json.dumps({"raw": raw, "scaled": raw * REFERENCE_NOMINAL_S / reference}))


# -- measurement -----------------------------------------------------------------------


class Results:
    def __init__(self):
        self.attempted = 0
        self.failures: dict[str, tuple] = {}  # op name -> (reason, known defect)
        self.failed = 0

    def record(self, op, error):
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.failures.setdefault(op.name, (error, op.known_defect))

    @property
    def correct(self) -> bool:
        """No output is wrong except on the documented baseline defects."""
        return all(known for _reason, known in self.failures.values())


class Timings:
    """Op latencies and pass times of a series of passes, scaled and raw."""

    def __init__(self):
        self.latencies: list[float] = []
        self.passes: list[float] = []
        self.raw_latencies: list[float] = []
        self.raw_passes: list[float] = []
        self.references: list[float] = []


def run_pass(ops, results: Results, timings: Timings, tracer=None, seq: int = 0):
    """Run every op once, check it, and record its scaled and raw latency.

    An op's latency is scaled by the mean of the reference times measured
    just before and just after it; the tracer gets the scale from before.
    """
    raw, references = [], [reference_loop()]
    for i, op in enumerate(ops):
        error = None
        start = time.perf_counter()
        try:
            if tracer:
                result = tracer.run_op(seq + i, op.run, REFERENCE_NOMINAL_S / references[-1])
            else:
                result = op.run()
        except Exception as exc:  # a raising op is a failed op
            error = f"raised {type(exc).__name__}: {exc}"
        raw.append(time.perf_counter() - start)
        if error is None:
            try:
                error = op.check(result)
            except Exception as exc:
                error = f"oracle raised {type(exc).__name__}: {exc}"
        results.record(op, error)
        references.append(reference_loop())
    scaled = [t * 2 * REFERENCE_NOMINAL_S / (before + after)
              for t, before, after in zip(raw, references, references[1:])]
    timings.latencies += scaled
    timings.raw_latencies += raw
    timings.references += references[1:]
    timings.passes.append(sum(scaled))
    timings.raw_passes.append(sum(raw))


def timed_passes(ops, seconds: float, results: Results, tracer=None) -> Timings:
    """Repeat passes until seconds have elapsed."""
    timings = Timings()
    deadline = time.perf_counter() + seconds
    while not timings.passes or time.perf_counter() < deadline:
        run_pass(ops, results, timings, tracer, seq=len(timings.passes) * len(ops))
    return timings


def percentile(values: list, p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(wl, setup: list, timings: Timings, results: Results) -> dict:
    lat = timings.latencies
    p = wl.tail_percentile
    beyond = sum(1 for v in lat if v > percentile(lat, p))
    print(f"# op_tail_ms is p{p} over {len(lat)} op samples, {beyond} beyond it")
    print(f"# fail_ratio {results.failed / results.attempted:.6f} "
          f"({results.failed} of {results.attempted} ops)")
    raw = timings.raw_latencies
    print(f"# raw setup_s {statistics.median(s['raw'] for s in setup):.6g}"
          f"  wall_s {statistics.median(timings.raw_passes):.6g}"
          f"  op_p50_ms {statistics.median(raw) * 1e3:.6g}"
          f"  op_tail_ms {percentile(raw, p) * 1e3:.6g}"
          f"  reference_loop_ms {statistics.median(timings.references) * 1e3:.6g}")
    return {
        "setup_s": (statistics.median(s["scaled"] for s in setup), "s"),
        "wall_s": (statistics.median(timings.passes), "s"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": (percentile(lat, p) * 1e3, "ms"),
        "ok_ratio": (1 - results.failed / results.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, traced: Timings, untraced: Timings) -> dict:
    """Per-layer metrics per pass, derived from spans and returned values.

    Counts and times are totals over the traced passes divided by their
    number; times are in reference seconds.
    """
    t = tracer
    n_passes = len(traced.passes)

    def calls(name):
        return t.calls.get(name, 0) / n_passes

    def self_s(name):
        return t.self_s.get(name, 0.0) / n_passes

    def per_call(name, scale):
        c = t.calls.get(name, 0)
        return t.total_s.get(name, 0.0) / c * scale if c else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for name in ("rootfind.roots", "rootfind.newton_polish", "bipoly.resultant_exact",
                 "bipoly.resultant_float", "bipoly.eval_partial", "unipoly.gcd",
                 "analyzer.analyze", "explorer.explore", "explorer.neighbors",
                 "explorer.is_isomorphic", "probe.probe_conjecture"):
        out[name + ".calls"] = (calls(name), "count")
    for name in ("rootfind.roots", "rootfind.newton_polish", "bipoly.resultant_exact",
                 "bipoly.resultant_float", "unipoly.gcd", "analyzer.analyze",
                 "analyzer.singular_vertex_values", "explorer.explore", "explorer.classify",
                 "explorer.is_isomorphic", "synthesis.digraph_to_poly",
                 "synthesis.one_factorization", "synthesis.interpolate_factor",
                 "moebius.classify_deg1", "quadratic.classify_deg2",
                 "probe.probe_conjecture"):
        out[name + ".self_s"] = (self_s(name), "s")
    roots_calls = t.calls.get("rootfind.roots", 0)
    out.update({
        "rootfind.roots.us_per_call": (per_call("rootfind.roots", 1e6), "us"),
        "rootfind.roots.mean_degree": (ratio(t.roots_degree_sum, roots_calls), "degree"),
        "rootfind.roots.max_degree": (t.roots_degree_max, "degree"),
        "rootfind.roots.failures": (t.failures.get("rootfind.roots", 0) / n_passes, "count"),
        "rootfind.worst_residual_ratio": (t.worst_residual_ratio, "ratio"),
        "bipoly.eval_partial.us_per_call": (per_call("bipoly.eval_partial", 1e6), "us"),
        "analyzer.analyze.calls_per_polynomial": (
            ratio(t.calls.get("analyzer.analyze", 0), t.analyzed_polynomials), "ratio"),
        "explorer.vertices": (t.explored_vertices / n_passes, "count"),
        "explorer.ms_per_vertex": (
            ratio(t.total_s.get("explorer.explore", 0.0), t.explored_vertices) * 1e3, "ms"),
        # Neighbour values the explorer did not turn into new vertices: merged
        # into a known vertex, or dropped at the vertex budget.  Each graph's
        # seed is the one vertex not discovered as a neighbour.
        "explorer.dedup_hit_ratio": (ratio(
            t.neighbor_values - (t.explored_vertices - t.explored_graphs),
            t.neighbor_values), "ratio"),
        "explorer.truncated_ratio": (ratio(t.truncated_graphs, t.explored_graphs), "ratio"),
    })
    layers = t.layer_self_s()
    for layer in ("rootfind", "bipoly", "unipoly", "analyzer", "explorer", "synthesis",
                  "moebius", "quadratic", "probe"):
        out[f"layer.{layer}.self_s"] = (layers.get(layer, 0.0) / n_passes, "s")
    out["layer.bench.self_s"] = (self_s(OP_SPAN), "s")
    out["trace.wall_s"] = (statistics.median(traced.passes), "s")
    out["trace.attributed_ratio"] = (
        ratio(sum(layers.values()), sum(layers.values()) + t.self_s.get(OP_SPAN, 0.0)), "ratio")
    out["trace.overhead_ratio"] = (
        statistics.median(traced.passes) / statistics.median(untraced.passes), "ratio")
    out["trace.absent_hooks"] = (len(t.absent), "count")
    out["raw.wall_s"] = (statistics.median(untraced.raw_passes), "s")
    out["raw.reference_loop_ms"] = (statistics.median(untraced.references) * 1e3, "ms")
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    setup = [] if trace else [
        json.loads(child(["--setup-sample", "--workload", name, "--seed", str(seed)]))
        for _ in range(SETUP_SAMPLES)
    ]
    expected = {}
    if name == "exact_analyze":
        expected = json.loads(child(["--oracle", "--seed", str(seed)]))
    pg = import_polygraph()
    wl = workloads.build(pg, name, seed, expected)
    results = Results()
    run_pass(wl.ops, results, Timings())  # warm-up; checked like every pass

    if not trace:
        timings = timed_passes(wl.ops, seconds, results)
        print("# pass seconds: " + " ".join(f"{p:.3f}" for p in timings.passes))
        metrics = end_to_end(wl, setup, timings, results)
    else:
        untraced = timed_passes(wl.ops, seconds * UNTRACED_SHARE, results)
        tracer = Tracer()
        tracer.install()
        try:
            traced = timed_passes(wl.ops, seconds * (1 - UNTRACED_SHARE), results, tracer)
        finally:
            tracer.uninstall()
        for target in tracer.absent:
            print(f"# hook absent: {target}")
        metrics = per_layer(tracer, traced, untraced)
        TRACE_DIR.mkdir(exist_ok=True)
        tracer.write(TRACE_DIR / f"{name}.jsonl")

    for op_name, (reason, known) in results.failures.items():
        tag = f" [known defect: {known}]" if known else ""
        print(f"# FAIL {name}/{op_name}: {reason}{tag}")
    for metric, (value, unit) in metrics.items():
        print(f"{name:14s} {metric:40s} {value:14.6g} {unit}")
    return {
        "correct": results.correct,
        "attempted": results.attempted,
        "failed": results.failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-sample", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--oracle", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "polygraph" / "__init__.py").is_file():
        print(f"error: no polygraph sources under {SRC}", file=sys.stderr)
        return 2
    if args.oracle:
        print(json.dumps(workloads.exact_expectations(args.seed)))
        return 0
    if args.setup_sample:
        setup_sample(args.workload, args.seed)
        return 0
    if args.workload is None:
        status = 0
        for name in workloads.WORKLOADS:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)], cwd=ROOT,
            )
            status = status or proc.returncode
        return status
    print(json.dumps(run_workload(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
