"""Record the reference digests that every benchmark run compares against.

Run once at the commit whose outputs are the reference:

    python3 benchmarks/record_reference.py [--jobs 2]

It writes benchmarks/reference.json with, for every grid the benchmark
sweeps, the sha256 of the `rotatlas sweep` stdout and its interval total;
and for every pair a workload can run (the fixed pairs plus every pair of
the drawn shells), the sha256 of its `atlas_to_json` text and of its SVG,
its interval count, and its total cycle length (word steps), by which the
seeded draw ranks each shell.  Every atlas recorded here passed
`verify_atlas`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import multiprocessing
import os
import sys
import time

import inputs

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _record_pair(pair):
    from rotatlas import partition, report

    t0 = time.perf_counter()
    atlas = partition.compute_atlas(*pair)
    verdict = partition.verify_atlas(atlas, probes_per_interval=inputs.PROBES)
    if not verdict.ok:
        raise RuntimeError(f"pair {pair} fails verification: {verdict.failure}")
    entry = {
        "json": sha256(report.atlas_to_json(atlas)),
        "svg": sha256(report.emit_diagram(atlas)),
        "intervals": atlas.interval_count,
        "word_steps": atlas.total_cycle_length,
    }
    return pair, entry, time.perf_counter() - t0


def _record_sweep(max_m: int, jobs: int):
    from rotatlas import cli, partition

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["sweep", "--max-m", str(max_m), "--jobs", str(jobs)])
    if code != 0:
        raise RuntimeError(f"sweep --max-m {max_m} exited {code}")
    intervals = sum(
        partition.compute_atlas(a0, a1).interval_count
        for a0 in range(-max_m, max_m + 1)
        for a1 in range(-max_m, max_m + 1)
    )
    return {"stdout": sha256(out.getvalue()), "intervals": intervals}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=2)
    args = parser.parse_args()
    inputs.use_checkout_source()
    os.environ.pop("ROTATLAS_OUT", None)

    pairs = set()
    for config in inputs.CONFIGS.values():
        pairs.update(config.fixed_pairs)
        for m in config.shells:
            pairs.update(inputs.shell_pairs(m))
    # costliest shells first so the pool drains evenly
    order = sorted(pairs, key=lambda p: -max(abs(p[0]), abs(p[1])))
    recorded = {}
    with multiprocessing.get_context("spawn").Pool(args.jobs) as pool:
        for pair, entry, seconds in pool.imap_unordered(_record_pair, order):
            recorded[inputs.pair_key(pair)] = entry
            print(f"{pair}: {entry['intervals']} intervals, {seconds:.2f} s", file=sys.stderr)

    sweeps = {
        str(config.grid_m): _record_sweep(config.grid_m, inputs.SWEEP_JOBS)
        for config in inputs.CONFIGS.values()
    }
    reference = {
        "sweeps": sweeps,
        "pairs": dict(sorted(recorded.items(), key=lambda kv: tuple(map(int, kv[0].split(","))))),
    }
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    print(f"wrote {REFERENCE_PATH}: {len(recorded)} pairs, grids {sorted(sweeps)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
