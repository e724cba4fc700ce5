"""Smoke test of the benchmark on tiny inputs (the m <= 2 grid and one small pair).

    python3 -m pytest -q benchmarks/test_smoke.py

Runs every workload untraced and traced through the real command, and
checks that the digest gate and the work-counter check catch a mismatch.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

inputs.use_checkout_source()

with open(os.path.join(inputs.ROOT, "BENCHMARK.json")) as fh:
    DECLARED = json.load(fh)
with open(run.REFERENCE) as fh:
    REFERENCE = json.load(fh)


def bench(workload: str, trace: int, seed: int = 1) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--config", "smoke",
         "--workload", workload, "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace)],
        capture_output=True, text=True, timeout=120, cwd=inputs.ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1]), proc.stdout


@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result, _ = bench(workload, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["metrics"]["pass_rate"]["value"] == 1.0


@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_traced_run_reports_every_layer_metric(workload):
    result, stdout = bench(workload, trace=1)
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    values = {n: m["value"] for n, m in result["metrics"].items()}
    assert values["trace.absent_bindings"] == 0
    assert values["dynamics.detect_cycle.calls"] > 0
    assert values["partition.verify.probes"] > 0
    if workload == "reverify-artifacts":
        assert values["partition.compute.orbit_runs"] == 0
        assert values["report.json_bytes"] > 0 and values["report.svg_bytes"] > 0
    else:
        # refinement runs exactly one orbit per interval it finds
        assert values["partition.compute.orbit_yield"] == 1.0
    assert "work counters:" in stdout


def test_seed_selects_only_the_drawn_pairs():
    config = inputs.FULL
    first, second = (inputs.workload_pairs(config, REFERENCE, seed) for seed in (1, 2))
    assert first != second and len(first) == len(second)
    assert first[: len(config.fixed_pairs)] == list(config.fixed_pairs) == second[: len(config.fixed_pairs)]
    assert [max(map(abs, p)) for p in first] == [max(map(abs, p)) for p in second]
    assert inputs.workload_pairs(config, REFERENCE, 1) == first


def _workload(name: str, reference: dict, tmp_path):
    workload = workloads.WORKLOADS[name](inputs.SMOKE, 1, reference, str(tmp_path))
    workload.prepare()
    return workload


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_digest_gate_counts_a_mismatch_as_failed(name, tmp_path):
    assert not _workload(name, REFERENCE, tmp_path).run().failures
    tampered = copy.deepcopy(REFERENCE)
    for entry in [*tampered["sweeps"].values(), *tampered["pairs"].values()]:
        for key in ("stdout", "json", "svg"):
            if key in entry:
                entry[key] = "0" * 64
    result = _workload(name, tampered, tmp_path).run()
    assert result.failed == result.attempted
    assert "reference digest" in result.failures[0]


def test_counter_check_fails_when_work_differs_between_runs(tmp_path):
    workload = _workload("reverify-artifacts", REFERENCE, tmp_path)
    pairs, expected, atlases = list(workload.pairs), list(workload.expected), list(workload.atlases)
    full_run, calls = workload.run, []

    def alternating_run(**options):
        # odd calls run every pair, even calls only the first
        calls.append(None)
        keep = len(pairs) if len(calls) % 2 else 1
        workload.pairs, workload.expected, workload.atlases = pairs[:keep], expected[:keep], atlases[:keep]
        return full_run(**options)

    workload.run = alternating_run
    _, runs = run.per_layer(workload, seconds=0, trace_path=str(tmp_path / "trace.json"))
    assert any("differs between runs" in f for r in runs for f in r.failures)


def test_absent_binding_reads_zero(monkeypatch):
    monkeypatch.setattr(
        spans, "BINDINGS", (spans.Binding("dynamics.detect_cycle", "rotatlas.partition", "no_such_name"),)
    )
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["rotatlas.partition.no_such_name"]
    assert spans.layer_metrics(tracer.spans)["dynamics.detect_cycle.calls"] == 0
