"""The benchmark workloads, each a closed loop with one caller.

A workload is set up once (`prepare`) and then run repeatedly (`run`); one
run is the whole workload and returns its timings together with the result
of checking every output against the reference digests.  rotatlas is
imported only inside `prepare`, so set-up time includes the import.

- grid-sweep: `rotatlas sweep --max-m M --jobs J` in-process, stdout
  captured.  The user's headline command and the only one that uses the
  process pool; many small pairs, so Fraction and bookkeeping overhead
  dominate.  No seed-dependent input.
- reverify-artifacts: the hardest pairs, their atlases computed during
  set-up; a run writes each atlas's JSON, reads and parses it back,
  verifies it and renders its SVG (the `sweep --out` artifact path).  It
  runs no refinement; words run to thousands of letters, so verification
  re-runs long orbits and interval solves.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import resource
import shutil
from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional

import inputs
from inputs import Config, Pair, pair_key


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _maxrss_kb(who: int) -> int:
    return resource.getrusage(who).ru_maxrss


def _cpu_s(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


@dataclass
class RunResult:
    """One run of a workload: timings, work done and the correctness verdict."""

    wall_s: float
    attempted: int
    failures: list[str] = field(default_factory=list)
    failed: int = 0
    pair_s: dict[str, float] = field(default_factory=dict)  # pair -> compute+verify seconds
    intervals: int = 0
    peak_rss_kb: int = 0
    worker_cpu_s: float = 0.0
    parent_cpu_s: float = 0.0
    jobs: int = 1

    def fail(self, count: int, message: str) -> None:
        """Record a failure of `count` pairs; 0 when the benchmark's own check failed."""
        self.failed += count
        self.failures.append(message)


class _Workload:
    name = ""

    def __init__(self, config: Config, seed: int, reference: dict, workdir: str):
        self.config = config
        self.seed = seed
        self.reference = reference
        self.workdir = workdir
        self.pairs: list[Pair] = []
        # pairs whose latencies pair_p50_s is taken over (None: all of them)
        self.p50_pairs: Optional[set[str]] = None

    def prepare(self) -> None:
        """Import rotatlas and generate the inputs; timed as set-up."""
        import rotatlas.cli  # noqa: F401  (the import is part of set-up)
        import rotatlas.report  # noqa: F401

        src = os.path.join(inputs.SRC, "rotatlas")
        if os.path.dirname(os.path.abspath(rotatlas.__file__)) != src:
            raise RuntimeError(f"rotatlas imported from {rotatlas.__file__}, not {src}")
        # a default output directory would make the CLI write files
        os.environ.pop("ROTATLAS_OUT", None)


class GridSweep(_Workload):
    name = "grid-sweep"

    def prepare(self) -> None:
        super().prepare()
        m = str(self.config.grid_m)
        self.expected = self.reference["sweeps"][m]
        self.attempted = (2 * self.config.grid_m + 1) ** 2

    def describe(self) -> list[str]:
        return [
            f"input: rotatlas sweep --max-m {self.config.grid_m}, {self.attempted} pairs, "
            f"{self.expected['intervals']} intervals"
        ]

    def argv(self, jobs: int) -> list[str]:
        return ["sweep", "--max-m", str(self.config.grid_m), "--jobs", str(jobs)]

    def run(self, tracer=None, jobs: Optional[int] = None, time_pairs: bool = True) -> RunResult:
        from rotatlas import cli

        jobs = inputs.SWEEP_JOBS if jobs is None else jobs
        log_dir = os.path.join(self.workdir, "pairs")
        shutil.rmtree(log_dir, ignore_errors=True)
        os.makedirs(log_dir)
        out, err = io.StringIO(), io.StringIO()
        code: object = None
        cpu_self, cpu_children = _cpu_s(resource.RUSAGE_SELF), _cpu_s(resource.RUSAGE_CHILDREN)
        with contextlib.ExitStack() as stack:
            if time_pairs:
                stack.enter_context(_time_pairs(log_dir))
            stack.enter_context(contextlib.redirect_stdout(out))
            stack.enter_context(contextlib.redirect_stderr(err))
            if tracer is not None:
                stack.enter_context(tracer.root("bench.sweep", f"max-m {self.config.grid_m}"))
            t0 = perf_counter()
            try:
                code = cli.main(self.argv(jobs))
            except Exception as exc:  # a crash of the program is a failed run, not ours
                code = exc
            wall = perf_counter() - t0
        result = RunResult(
            wall_s=wall,
            attempted=self.attempted,
            intervals=self.expected["intervals"],
            worker_cpu_s=_cpu_s(resource.RUSAGE_CHILDREN) - cpu_children,
            parent_cpu_s=_cpu_s(resource.RUSAGE_SELF) - cpu_self,
            jobs=jobs,
        )
        stdout, stderr = out.getvalue(), err.getvalue()
        if code != 0:
            reported = stderr.count("FAILED (")
            result.fail(reported or self.attempted, f"sweep exited {code!r}: {stderr.strip()[-500:]}")
        elif sha256(stdout) != self.expected["stdout"]:
            result.fail(self.attempted, "sweep stdout differs from the reference digest")
        worker_rss = 0
        if time_pairs:
            result.pair_s, worker_rss = _read_pair_log(log_dir)
            if len(result.pair_s) != self.attempted:
                result.fail(0, f"timed {len(result.pair_s)} of {self.attempted} pairs")
        result.peak_rss_kb = _maxrss_kb(resource.RUSAGE_SELF) + worker_rss
        return result


@contextlib.contextmanager
def _time_pairs(log_dir: str):
    """Time compute_atlas + verify_atlas per pair inside the sweep's workers.

    Wraps the two names where `rotatlas.partition` binds them; forked pool
    workers inherit the wrappers, and each appends one line per call to a
    per-process log: pair, seconds, the process's peak RSS.
    """
    from rotatlas import partition

    originals = {name: getattr(partition, name) for name in ("compute_atlas", "verify_atlas")}

    def timed(fn):
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            value = fn(*args, **kwargs)
            seconds = perf_counter() - t0
            atlas = args[0] if fn is originals["verify_atlas"] else value
            with open(os.path.join(log_dir, f"{os.getpid()}.log"), "a") as fh:
                fh.write(f"{atlas.a0},{atlas.a1} {seconds!r} {_maxrss_kb(resource.RUSAGE_SELF)}\n")
            return value

        return wrapper

    try:
        for name, fn in originals.items():
            setattr(partition, name, timed(fn))
        yield
    finally:
        for name, fn in originals.items():
            setattr(partition, name, fn)


def _read_pair_log(log_dir: str) -> tuple[dict[str, float], int]:
    """Per-pair compute+verify seconds, and the workers' summed peak RSS (KiB)."""
    per_pair: dict[str, float] = {}
    rss_by_pid: dict[str, int] = {}
    for entry in os.listdir(log_dir):
        pid = entry.split(".")[0]
        with open(os.path.join(log_dir, entry)) as fh:
            for line in fh:
                key, seconds, rss = line.split()
                per_pair[key] = per_pair.get(key, 0.0) + float(seconds)
                rss_by_pid[pid] = max(rss_by_pid.get(pid, 0), int(rss))
    rss_by_pid.pop(str(os.getpid()), None)
    return per_pair, sum(rss_by_pid.values())


class ReverifyArtifacts(_Workload):
    name = "reverify-artifacts"

    def prepare(self) -> None:
        super().prepare()
        from rotatlas import partition

        self.pairs = inputs.workload_pairs(self.config, self.reference, self.seed)
        self.expected = [self.reference["pairs"][pair_key(p)] for p in self.pairs]
        self.intervals = sum(e["intervals"] for e in self.expected)
        # The drawn pairs' latencies depend on the seed, the fixed pairs' do not.
        self.p50_pairs = {pair_key(p) for p in self.config.fixed_pairs}
        self.atlases = [partition.compute_atlas(*pair) for pair in self.pairs]
        self.out_dir = os.path.join(self.workdir, "artifacts")

    def describe(self) -> list[str]:
        return [
            "pairs: " + " ".join(f"({a0},{a1})" for a0, a1 in self.pairs),
            f"input: {len(self.pairs)} pairs, {self.intervals} intervals, "
            f"probes_per_interval={inputs.PROBES}",
        ]

    def run(self, tracer=None) -> RunResult:
        from rotatlas import partition, report

        result = RunResult(wall_s=0.0, attempted=len(self.pairs), intervals=self.intervals)
        for pair, atlas, expected in zip(self.pairs, self.atlases, self.expected):
            root = tracer.root("bench.pair", pair_key(pair)) if tracer else contextlib.nullcontext()
            try:
                with root:
                    t0 = perf_counter()
                    path = report.write_atlas_json(atlas, self.out_dir)
                    with open(path) as fh:
                        text = fh.read()
                    parsed = report.atlas_from_json(text)
                    verdict = partition.verify_atlas(parsed, probes_per_interval=inputs.PROBES)
                    svg = report.emit_diagram(parsed)
                    seconds = perf_counter() - t0
            except Exception as exc:
                result.fail(1, f"{pair}: {exc!r}")
                continue
            result.pair_s[pair_key(pair)] = seconds
            result.wall_s += seconds
            problems = [
                what
                for what, bad in (
                    ("written JSON differs from the reference digest", sha256(text) != expected["json"]),
                    ("parsed atlas differs from the computed one", parsed != atlas),
                    (f"verification failed: {verdict.failure}", not verdict.ok),
                    ("SVG differs from the reference digest", sha256(svg) != expected["svg"]),
                )
                if bad
            ]
            if problems:
                result.fail(1, f"{pair}: " + "; ".join(problems))
        result.peak_rss_kb = _maxrss_kb(resource.RUSAGE_SELF)
        return result


WORKLOADS = {w.name: w for w in (GridSweep, ReverifyArtifacts)}
