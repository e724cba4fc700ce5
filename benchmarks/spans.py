"""In-memory timing spans around rotatlas's public functions.

Spans wrap each function at the place where the calling module binds it
(`rotatlas.partition.detect_cycle`, `rotatlas.intervals.IntervalSet.subtract`,
...), so rotatlas itself is not modified.  A binding that no longer exists
is recorded as absent and its layer reads zero; it never stops a run.

Each span records its name, start, end, parent span and one work count
(orbit steps, word steps, intervals, probes or bytes).  Layer metrics are
derived from the spans after the run: a span's self time is its duration
minus the durations of its children (one thread, so children never overlap).
"""

from __future__ import annotations

import contextlib
import importlib
import json
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional


def _steps(args, result) -> int:
    return getattr(result, "steps_used", 0)


def _word_steps(args, result) -> int:
    return len(args[0]) if args else 0


def _intervals(args, result) -> int:
    return len(getattr(result, "body", ()))


def _atlas_intervals(args, result) -> int:
    return len(getattr(args[0], "body", ())) if args else 0


def _text_bytes(args, result) -> int:
    return len(result.encode()) if isinstance(result, str) else 0


@dataclass(frozen=True)
class Binding:
    span: str  # layer span name
    module: str  # module that binds the name
    attr: str  # attribute path in that module, e.g. "IntervalSet.subtract"
    work: Optional[Callable] = None  # (args, result) -> work count


BINDINGS = (
    Binding("dynamics.detect_cycle", "rotatlas.partition", "detect_cycle", _steps),
    Binding("dynamics.canonical_rotation", "rotatlas.partition", "canonical_rotation"),
    Binding("constraints.interval_for_cycle", "rotatlas.partition", "interval_for_cycle", _word_steps),
    Binding("intervals.subtract", "rotatlas.intervals", "IntervalSet.subtract"),
    Binding("intervals.sample_points", "rotatlas.intervals", "IntervalSet.sample_points"),
    Binding("tail.tail_of", "rotatlas.partition", "tail_of"),
    Binding("tail.tail_of", "rotatlas.report", "tail_of"),
    Binding("tail.triangular_cycle", "rotatlas.partition", "triangular_cycle"),
    Binding("tail.z_interval", "rotatlas.partition", "z_interval"),
    Binding("partition.compute_atlas", "rotatlas.partition", "compute_atlas", _intervals),
    Binding("partition.compute_atlas", "rotatlas.cli", "compute_atlas", _intervals),
    Binding("partition.verify_atlas", "rotatlas.partition", "verify_atlas", _atlas_intervals),
    Binding("partition.verify_atlas", "rotatlas.cli", "verify_atlas", _atlas_intervals),
    Binding("partition.sweep", "rotatlas.cli", "sweep"),
    Binding("report.atlas_to_json", "rotatlas.report", "atlas_to_json", _text_bytes),
    Binding("report.atlas_from_json", "rotatlas.report", "atlas_from_json"),
    Binding("report.emit_diagram", "rotatlas.report", "emit_diagram", _text_bytes),
    Binding("report.render_tables", "rotatlas.report", "render_tables"),
    Binding("cli.main", "rotatlas.cli", "main"),
)


def _resolve(binding: Binding):
    """(owner object, attribute name, current value), or None if absent."""
    try:
        owner = importlib.import_module(binding.module)
    except ImportError:
        return None
    *path, name = binding.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name, None)
    if not callable(value):
        return None
    return owner, name, value


class Tracer:
    """Collects spans while installed and active; one instance per traced run."""

    def __init__(self) -> None:
        # (name, start, end, parent index or -1, work count)
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.tags: dict[int, str] = {}
        self.absent: list[str] = []
        self.active = False
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for binding in BINDINGS:
            found = _resolve(binding)
            if found is None:
                self.absent.append(f"{binding.module}.{binding.attr}")
                continue
            owner, name, original = found
            setattr(owner, name, self._wrap(binding.span, original, binding.work))
            self._undo.append((owner, name, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append((name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, 0))
        self._stack.append(index)
        return index

    def _close(self, index: int, work: int) -> None:
        end = perf_counter()
        self._stack.pop()
        name, start, _, parent, _ = self.spans[index]
        self.spans[index] = (name, start, end, parent, work)

    def _wrap(self, span: str, fn: Callable, work: Optional[Callable]) -> Callable:
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = self._open(span)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(index, work(args, result) if work and result is not None else 0)

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def root(self, name: str, tag: str):
        """Collect spans inside one unit of work the benchmark times (a pair, a sweep)."""
        self.active = True
        index = self._open(name)
        self.tags[index] = tag
        try:
            yield
        finally:
            self._close(index, 0)
            self.active = False

    def clear(self) -> None:
        self.spans.clear()
        self.tags.clear()

    def write(self, path: str) -> None:
        """Dump the spans as JSON: a name table plus one row per span."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[n], round(t0, 7), round(t1, 7), p, w] for n, t0, t1, p, w in self.spans]
        with open(path, "w") as fh:
            json.dump(
                {
                    "columns": ["name", "start_s", "end_s", "parent", "work"],
                    "names": names,
                    "tags": self.tags,
                    "spans": rows,
                },
                fh,
            )


def layer_metrics(spans: list[tuple[str, float, float, int, int]]) -> dict[str, float]:
    """Per-layer busy/self times and work counts from one run's spans."""
    children_time = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            children_time[parent] += t1 - t0

    def ancestor(i: int, name: str) -> int:
        parent = spans[i][3]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        return parent

    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    work: dict[str, int] = defaultdict(int)
    tail_busy = 0.0
    orbit_runs_by_compute: dict[int, int] = defaultdict(int)
    verify_orbit_runs = 0
    for i, (name, t0, t1, parent, w) in enumerate(spans):
        calls[name] += 1
        busy[name] += t1 - t0
        self_time[name] += t1 - t0 - children_time[i]
        work[name] += w
        if name.startswith("tail.") and not (parent >= 0 and spans[parent][0].startswith("tail.")):
            tail_busy += t1 - t0
        if name == "dynamics.detect_cycle":
            compute = ancestor(i, "partition.compute_atlas")
            if compute >= 0:
                orbit_runs_by_compute[compute] += 1
            elif ancestor(i, "partition.verify_atlas") >= 0:
                verify_orbit_runs += 1

    orbit_busy = busy["dynamics.detect_cycle"]
    solve_busy = busy["constraints.interval_for_cycle"]
    # Yield counts the intervals refinement found per orbit run; a pair whose
    # atlas needs no orbit at all, like (0, 0), has no refinement to measure.
    compute_orbit_runs = sum(orbit_runs_by_compute.values())
    refined = sum(spans[i][4] for i in orbit_runs_by_compute)
    return {
        "dynamics.detect_cycle.calls": calls["dynamics.detect_cycle"],
        "dynamics.detect_cycle.steps": work["dynamics.detect_cycle"],
        "dynamics.detect_cycle.busy_s": orbit_busy,
        "dynamics.steps_per_s": work["dynamics.detect_cycle"] / orbit_busy if orbit_busy else 0.0,
        "dynamics.canonical_rotation.calls": calls["dynamics.canonical_rotation"],
        "dynamics.canonical_rotation.busy_s": busy["dynamics.canonical_rotation"],
        "constraints.interval_for_cycle.calls": calls["constraints.interval_for_cycle"],
        "constraints.interval_for_cycle.word_steps": work["constraints.interval_for_cycle"],
        "constraints.interval_for_cycle.busy_s": solve_busy,
        "constraints.word_steps_per_s": (
            work["constraints.interval_for_cycle"] / solve_busy if solve_busy else 0.0
        ),
        "intervals.subtract.calls": calls["intervals.subtract"],
        "intervals.subtract.busy_s": busy["intervals.subtract"],
        "intervals.sample_points.calls": calls["intervals.sample_points"],
        "partition.compute_atlas.busy_s": busy["partition.compute_atlas"],
        "partition.compute_atlas.self_s": self_time["partition.compute_atlas"],
        "partition.compute.orbit_runs": compute_orbit_runs,
        "partition.compute.orbit_yield": refined / compute_orbit_runs if compute_orbit_runs else 0.0,
        "partition.verify_atlas.busy_s": busy["partition.verify_atlas"],
        "partition.verify_atlas.self_s": self_time["partition.verify_atlas"],
        "partition.verify.probes": verify_orbit_runs,
        "partition.intervals": work["partition.verify_atlas"],
        "tail.busy_s": tail_busy,
        "report.atlas_to_json.busy_s": busy["report.atlas_to_json"],
        "report.atlas_from_json.busy_s": busy["report.atlas_from_json"],
        "report.emit_diagram.busy_s": busy["report.emit_diagram"],
        "report.render_tables.busy_s": busy["report.render_tables"],
        "report.json_bytes": work["report.atlas_to_json"],
        "report.svg_bytes": work["report.emit_diagram"],
        "cli.self_s": self_time["cli.main"],
    }


METRICS = tuple(layer_metrics([]))
# Work counts: for one input they must repeat exactly from run to run.
COUNTERS = tuple(name for name in METRICS if not name.endswith("_s"))
