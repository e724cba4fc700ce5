"""rotatlas benchmark: one workload per invocation, result as JSON on the last line.

    python3 benchmarks/run.py --workload grid-sweep --seed 1 --seconds 40 --trace 0

Workloads (see workloads.py): grid-sweep, reverify-artifacts.
`--seconds` sets how long the workload is repeated; every metric is a
median over those repetitions.  `--trace 0` reports the end-to-end metrics,
measured with tracing off; `--trace 1` reports the per-layer metrics from a
traced run, which keeps its spans in memory and writes them to
.perfbench/trace-<workload>-<seed>.json at the end.  `--config smoke` runs
the same code on tiny inputs for the benchmark's own test.

Every output is checked against benchmarks/reference.json (digests taken at
the reference commit); a mismatch, a failed verification or an exception
counts as a failed pair, is printed to stderr, and makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

import inputs
import spans
import workloads

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
OUT_DIR = os.path.join(inputs.ROOT, ".perfbench")
# Set-up is timed this many times, once here and the rest in fresh processes.
SETUP_SAMPLES = 3

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "intervals_per_s": "1/s",
    "pair_p50_s": "s",
    "peak_rss_mb": "MB",
    "pass_rate": "ratio",
}
SWEEP_LAYER = ("partition.sweep.worker_cpu_s", "partition.sweep.worker_idle_s", "partition.sweep.parent_cpu_s")
TRACE_LAYER = ("trace.overhead_s", "trace.absent_bindings")


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("orbit_yield"):
        return "ratio"
    return "count"


PER_LAYER = {name: layer_unit(name) for name in (*spans.METRICS, *SWEEP_LAYER, *TRACE_LAYER)}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="rotatlas benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--config", choices=sorted(inputs.CONFIGS), default="full")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def set_up(args, reference: dict, workdir: str):
    """Import rotatlas and build the workload's inputs; returns (workload, seconds)."""
    t0 = perf_counter()
    workload = workloads.WORKLOADS[args.workload](
        inputs.CONFIGS[args.config], args.seed, reference, workdir
    )
    workload.prepare()
    return workload, perf_counter() - t0


def setup_samples(args, first: float) -> list[float]:
    """`first` plus set-up timed in fresh interpreters, so the import is cold."""
    samples = [first]
    command = [
        sys.executable, os.path.abspath(__file__), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", "0", "--config", args.config,
    ]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(command, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return samples


def repeat(run, seconds: float, minimum: int) -> list:
    results = []
    start = perf_counter()
    while len(results) < minimum or perf_counter() - start < seconds:
        results.append(run())
    return results


def end_to_end(workload, runs, setup: list[float]) -> dict[str, float]:
    wall = statistics.median(r.wall_s for r in runs)
    # per pair the median over runs, then the median over pairs: pooling the
    # samples would let the result jump between the fixed pairs' latencies
    per_pair: dict[str, list[float]] = {}
    for r in runs:
        for key, seconds in r.pair_s.items():
            per_pair.setdefault(key, []).append(seconds)
    pair_median = {key: statistics.median(v) for key, v in per_pair.items()}
    chosen = [key for key in per_pair if workload.p50_pairs is None or key in workload.p50_pairs]
    samples = sum(len(per_pair[key]) for key in chosen)
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    print(f"runs: {len(runs)}, pair_p50_s samples: {samples}, error_rate: {failed / attempted}")
    print("run seconds: " + ", ".join(f"{r.wall_s:.3f}" for r in runs))
    if workload.pairs:
        print("pair seconds (median over runs): " + ", ".join(
            f"({key}) {seconds:.3f}" for key, seconds in pair_median.items()
        ))
    return {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "intervals_per_s": runs[0].intervals / wall,
        "pair_p50_s": statistics.median(pair_median[key] for key in chosen) if chosen else 0.0,
        "peak_rss_mb": max(r.peak_rss_kb for r in runs) / 1024,
        "pass_rate": (attempted - failed) / attempted,
    }


def per_layer(workload, seconds: float, trace_path: str):
    """Per-layer metrics from traced runs, plus the untraced runs they are compared with."""
    untraced = []
    layer = dict.fromkeys(SWEEP_LAYER, 0.0)
    options = {}
    if isinstance(workload, workloads.GridSweep):
        pooled = workload.run()
        untraced.append(pooled)
        layer["partition.sweep.worker_cpu_s"] = pooled.worker_cpu_s
        layer["partition.sweep.worker_idle_s"] = pooled.jobs * pooled.wall_s - pooled.worker_cpu_s
        layer["partition.sweep.parent_cpu_s"] = pooled.parent_cpu_s
        # spans live in this process, so the traced sweep runs without a pool
        options = {"jobs": 1, "time_pairs": False}
    baseline = workload.run(**options)
    untraced.append(baseline)

    tracer = spans.Tracer()
    tracer.install()
    traced, measured = [], []

    def traced_run():
        tracer.clear()
        result = workload.run(tracer=tracer, **options)
        measured.append(spans.layer_metrics(tracer.spans))
        return result

    try:
        traced = repeat(traced_run, seconds, minimum=2)
    finally:
        tracer.uninstall()
    tracer.write(trace_path)

    for name in spans.COUNTERS:
        values = {m[name] for m in measured}
        if len(values) > 1:
            traced[-1].fail(0, f"work counter {name} differs between runs: {sorted(values)}")
    for name in spans.METRICS:
        layer[name] = measured[-1][name] if name in spans.COUNTERS else statistics.median(
            m[name] for m in measured
        )
    layer["trace.overhead_s"] = statistics.median(r.wall_s for r in traced) - baseline.wall_s
    layer["trace.absent_bindings"] = len(tracer.absent)
    for binding in tracer.absent:
        print(f"absent: {binding} (its layer reads zero)")
    print("work counters: " + ", ".join(f"{n}={layer[n]}" for n in spans.COUNTERS))
    print(f"trace: {len(tracer.spans)} spans of the last run in {trace_path}")
    return layer, untraced + traced


def main(argv=None) -> int:
    args = parse_args(argv)
    inputs.use_checkout_source()
    with open(REFERENCE) as fh:
        reference = json.load(fh)
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        workload, setup_first = set_up(args, reference, workdir)
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_first}))
            return 0
        print(f"workload: {workload.name}, config {args.config}, seed {args.seed}")
        for line in workload.describe():
            print(line)
        if args.trace:
            trace_path = os.path.join(OUT_DIR, f"trace-{workload.name}-{args.seed}.json")
            values, runs = per_layer(workload, args.seconds, trace_path)
            units = PER_LAYER
        else:
            setup = setup_samples(args, setup_first)
            runs = repeat(workload.run, args.seconds, minimum=1)
            values = end_to_end(workload, runs, setup)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [f for r in runs for f in r.failures]
    for name, unit in units.items():
        print(f"{name} = {values[name]:.6g} {unit}")
    for failure in failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": sum(r.attempted for r in runs),
                "failed": sum(r.failed for r in runs),
                "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()},
            }
        )
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
