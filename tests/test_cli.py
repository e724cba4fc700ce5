import hashlib
import json
import multiprocessing
import os
import re
import shlex
import subprocess
import sys

import pytest

from rotatlas import partition, report
from rotatlas.cli import _COMMANDS, build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_orbit_cycle(capsys):
    code, out, _ = run(capsys, "orbit", "--a0", "-1", "--a1", "-1", "--lambda", "8/5")
    assert code == 0
    assert "outcome: cycle" in out and "period 38" in out


def test_orbit_word_rendering(capsys):
    code, out, _ = run(capsys, "orbit", "--a0", "-1", "--a1", "1", "--lambda", "-3/4")
    assert code == 0
    assert out == (
        "outcome: cycle\nperiod 5: (-1, 1, 2, 1, -1)\nsteps used: 5\nlargest |a_n|: 2\n"
    )


def test_orbit_one_sided_divergence(capsys):
    # a divergence certificate is a definitive verdict, not a failure
    code, out, _ = run(
        capsys, "orbit", "--a0", "0", "--a1", "1", "--lambda", "-2", "--side", "plus"
    )
    assert code == 0
    assert out == "outcome: diverged\nsteps used: 0\nlargest |a_n|: 1\n"


def test_orbit_cap(capsys):
    code, out, _ = run(
        capsys, "orbit", "--a0", "5", "--a1", "7", "--lambda", "0", "--cap", "2"
    )
    assert code == 1
    assert out == "outcome: cap_exceeded\nsteps used: 2\nlargest |a_n|: 7\n"


def test_cycle_interval(capsys):
    code, out, _ = run(capsys, "cycle-interval", "--word", "-1,1,2,1,-1")
    assert code == 0 and out.strip() == "(-1,-1/2)"
    code, out, _ = run(capsys, "cycle-interval", "--word", "(0, 0, 1)")
    assert code == 0 and out.strip() == "infeasible"


def test_tail_command(capsys):
    code, out, _ = run(capsys, "tail", "--a0", "-1", "--a1", "-1", "--k-max", "2")
    assert code == 0
    assert "label: s=0 d=1 K=1" in out
    assert "tail interval: (-2,-1)" in out
    assert "[-3/2,-1)" in out and "(0, 1, 2, 2, 1, 0, -1, -1)" in out


def test_tail_constant_case(capsys):
    code, out, _ = run(capsys, "tail", "--a0", "1", "--a1", "1")
    assert code == 0 and "(-2,-1) -> (1)" in out
    # a constant tail has no window index for --k-max to bound
    assert run(capsys, "tail", "--a0", "1", "--a1", "1", "--k-max", "-3") == (code, out, "")


@pytest.mark.parametrize("k_max", ["1", "4", "-3"])
def test_tail_k_max_below_the_first_window_exits_two(capsys, k_max):
    code, out, err = run(capsys, "tail", "--a0", "3", "--a1", "-5", "--k-max", k_max)
    assert code == 2 and out == ""
    assert err == f"error: --k-max {k_max} is below the first window index 5 of (3,-5)\n"
    code, out, _ = run(capsys, "tail", "--a0", "3", "--a1", "-5", "--k-max", "5")
    assert code == 0 and "label: s=3 d=8 K=5" in out and len(out.splitlines()) == 3


def test_partition_table(capsys):
    code, out, err = run(capsys, "partition", "--a0", "-1", "--a1", "-1")
    assert code == 0
    assert "22 intervals, 11 singletons" in out
    assert "verification passed" in err


def test_partition_json(capsys, tmp_path):
    code, out, err = run(
        capsys, "partition", "--a0", "-1", "--a1", "-1", "--json",
        "--out", str(tmp_path),
    )
    assert code == 0
    data = json.loads(out)
    assert data["a0"] == -1 and len(data["body"]) == 22
    assert (tmp_path / "atlas_-1_-1.json").exists()


def test_partition_out_from_environment(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("ROTATLAS_OUT", str(tmp_path))
    code, _, _ = run(capsys, "partition", "--a0", "0", "--a1", "1")
    assert code == 0
    assert (tmp_path / "atlas_0_1.json").exists()


def test_sweep_command(capsys, tmp_path):
    code, out, err = run(capsys, "sweep", "--max-m", "1", "--out", str(tmp_path))
    assert code == 0
    assert "periodicity verified for all points up to 1" in out
    assert (tmp_path / "sweep_m1.csv").read_text().startswith("m,a0,a1,")
    assert len(list(tmp_path.glob("atlas_*.json"))) == 9
    assert not list(tmp_path.glob("*.tmp"))


def test_tables_command(capsys):
    code, out, _ = run(capsys, "sweep", "--max-m", "1", "--format", "csv")
    assert code == 0
    assert "22,11" in out.replace('"', "")


def test_diagram_command(capsys, tmp_path):
    target = tmp_path / "pair.svg"
    code, _, err = run(capsys, "diagram", "--a0", "0", "--a1", "0", "--out", str(target))
    assert code == 0
    assert target.read_text().startswith("<svg ")
    code, out, _ = run(capsys, "diagram", "--a0", "0", "--a1", "1")
    assert code == 0 and out.startswith("<svg ")


# sha256 of each stdout, measured while partition, and earlier diagram,
# still ran 2 probe orbits per interval
UNPROBED_STDOUT = {
    ("diagram", "--a0", "2", "--a1", "3"):
        "60ec825b9891dc56ef7eb0794e394b668008596740f2b6d667c7f66917bd6625",
    ("partition", "--a0", "2", "--a1", "3"):
        "3ce7a2a69fc82b58faa6c58f9a0a73df90be3691c69477925a923650c914b9bb",
    ("partition", "--a0", "2", "--a1", "3", "--json"):
        "fd12b695dec5afc9754fd4b8687e4c6646ac6e68357cc7789007c7a562790dae",
}


def test_diagram_verifies_without_probe_orbits(capsys, tmp_path, monkeypatch):
    def no_orbit(*args):
        raise AssertionError("a command ran a probe orbit")

    monkeypatch.setattr(partition, "detect_cycle", no_orbit)
    target = tmp_path / "pair.svg"
    code, _, _ = run(capsys, "diagram", "--a0", "2", "--a1", "3", "--out", str(target))
    assert code == 0
    digest = UNPROBED_STDOUT["diagram", "--a0", "2", "--a1", "3"]
    assert hashlib.sha256(target.read_bytes()).hexdigest() == digest
    for argv, digest in UNPROBED_STDOUT.items():
        code, out, err = run(capsys, *argv)
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest, argv
        if argv[0] == "partition":
            assert err == "verification passed\n"


def test_failed_diagram_write_keeps_the_previous_file(capsys, tmp_path, monkeypatch):
    target = tmp_path / "pair.svg"
    target.write_text("previous")

    def fail_on_replace(src, dst):
        raise OSError("replace failed")

    monkeypatch.setattr(report.os, "replace", fail_on_replace)
    with pytest.raises(OSError):
        main(["diagram", "--a0", "0", "--a1", "1", "--out", str(target)])
    assert target.read_text() == "previous"
    assert os.listdir(tmp_path) == ["pair.svg"]


def test_usage_errors_exit_two():
    for argv in (
        [],
        ["orbit", "--a0", "1"],
        ["partition", "--a0", "0", "--a1", "0", "--json", "--table"],
        ["sweep", "--max-m", "1", "--unknown-flag"],
        ["orbit", "--a0", "1", "--a1", "1", "--lambda", "x/y"],
        ["sweep", "--max-m", "1", "--jobs", "0"],
        ["sweep", "--max-m", "1", "--jobs", "-2"],
        # budgets and probe orbits are library settings, not flags
        ["partition", "--a0", "0", "--a1", "0", "--probes", "2"],
        ["partition", "--a0", "0", "--a1", "0", "--cap", "5"],
        ["sweep", "--max-m", "1", "--probes", "2"],
        ["sweep", "--max-m", "1", "--cap", "5"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_readme_command_lines_parse():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        text = fh.read()
    block = re.search(r"^## Command line\n+```sh\n(.*?)^```", text, re.M | re.S).group(1)
    commands = [shlex.split(line, comments=True) for line in block.splitlines() if line.strip()]
    assert all(argv[0] == "rotatlas" for argv in commands)
    parser = build_parser()
    parsed = [parser.parse_args(argv[1:]) for argv in commands]
    # every subcommand is shown at least once
    assert {args.command for args in parsed} == set(_COMMANDS)


@pytest.mark.parametrize(
    "argv",
    [
        ("partition", "--a0", "-2", "--a1", "-2"),
        ("sweep", "--max-m", "2", "--jobs", "1"),
        pytest.param(
            ("sweep", "--max-m", "2", "--jobs", "2"),
            marks=pytest.mark.skipif(
                multiprocessing.get_start_method() != "fork",
                reason="pool workers must inherit the patched budget",
            ),
        ),
    ],
    ids=["partition", "sweep-jobs-1", "sweep-jobs-2"],
)
def test_exhausted_budget_exits_one_without_a_traceback(capfd, monkeypatch, argv):
    # capfd also catches what the sweep's workers write to stderr
    monkeypatch.setattr(partition, "_interval_budget", lambda a0, a1: 2)
    with pytest.raises(partition.BudgetExceeded) as exc:
        partition.compute_atlas(-2, -2)
    code, out, err = run(capfd, *argv)
    assert code == 1 and out == ""
    assert err == f"budget exhausted: {exc.value}\n"
    assert re.fullmatch(
        r"budget exhausted: march for \(-2, -2\) exceeded interval budget 2; "
        r"residual [\[(]-?\d+(/\d+)?,2\)\n",
        err,
    )
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("partition", "--a0", "1", "--a1", "2"),
        ("diagram", "--a0", "1", "--a1", "2"),
        ("sweep", "--max-m", "2", "--jobs", "1"),
        pytest.param(
            ("sweep", "--max-m", "2", "--jobs", "2"),
            marks=pytest.mark.skipif(
                multiprocessing.get_start_method() != "fork",
                reason="pool workers must inherit the patched kernel",
            ),
        ),
    ],
    ids=["partition", "diagram", "sweep-jobs-1", "sweep-jobs-2"],
)
def test_march_error_exits_one_without_a_traceback(capfd, monkeypatch, argv):
    # a broken kernel: every solved interval starts with the wrong closure
    good = partition.orbit_bounds

    def broken(lam, plus, start, cap):
        word, (lo_n, lo_d, lo_closed, *hi) = good(lam, plus, start, cap)
        return word, (lo_n, lo_d, not lo_closed, *hi)

    monkeypatch.setattr(partition, "orbit_bounds", broken)
    with pytest.raises(partition.MarchError) as exc:
        partition.compute_atlas(1, 2)
    code, out, err = run(capfd, *argv)
    assert code == 1 and out == ""
    if argv[0] != "sweep":
        assert err == f"march error: {exc.value}\n"
    assert re.fullmatch(
        r"march error: march for \(-?\d+, -?\d+\) at -?\d+(/\d+)? \((exact|plus_zero)\) "
        r"solved bounds \(.*\), which do not start (closed|open) there\n",
        err,
    )
    assert "Traceback" not in err


def test_out_of_range_parameter_exits_two(capsys):
    # side/value combinations rejected by the parameter model
    code = main(["orbit", "--a0", "0", "--a1", "1", "--lambda", "2", "--side", "plus"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


BENCH_REFERENCE = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks", "reference.json")


@pytest.mark.parametrize("max_m, jobs", [("7", "2"), ("2", "1")])
def test_sweep_stdout_matches_the_benchmark_reference(capsys, max_m, jobs):
    with open(BENCH_REFERENCE) as fh:
        expected = json.load(fh)["sweeps"][max_m]["stdout"]
    code, out, _ = run(capsys, "sweep", "--max-m", max_m, "--jobs", jobs)
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == expected


@pytest.mark.parametrize("a0, a1", [(2, 3), (-2, -2), (-9, -10)])
def test_partition_streams_the_whole_text_forms(capsys, atlas, a0, a1):
    at = atlas(a0, a1)
    pair = ("--a0", str(a0), "--a1", str(a1))
    code, out, _ = run(capsys, "partition", *pair, "--json")
    assert code == 0 and out == report.atlas_to_json(at)
    code, out, _ = run(capsys, "partition", *pair)
    assert code == 0 and out == "\n".join(report.atlas_table_lines(at)) + "\n"


@pytest.mark.parametrize(
    "argv",
    [["sweep", "--max-m", "4"], ["partition", "--a0", "-3", "--a1", "-4", "--json"]],
    ids=" ".join,
)
def test_optimized_run_prints_the_same_bytes(argv):
    # every check in `src/` is an explicit test, so `python -O` drops none
    src = os.path.dirname(os.path.dirname(report.__file__))
    env = {k: v for k, v in os.environ.items() if k not in ("ROTATLAS_OUT", "PYTHONOPTIMIZE")}
    env["PYTHONPATH"] = src
    runs = [
        subprocess.run(
            [sys.executable, *flags, "-m", "rotatlas.cli", *argv],
            env=env,
            capture_output=True,
            timeout=120,
        )
        for flags in ([], ["-O"])
    ]
    plain, optimized = ((r.returncode, r.stdout, r.stderr) for r in runs)
    assert plain[0] == 0 and plain[1] and optimized == plain
