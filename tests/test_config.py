"""The package's own configuration: its console script and its pytest settings."""

import importlib
import importlib.util
import pathlib
import shutil
import subprocess
import sys

import pytest

from rotatlas import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent

FAILING_THEN_PASSING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
'''


@pytest.mark.skipif(
    importlib.util.find_spec("libcst") is None,
    reason="Hypothesis imports libcst only where it is installed",
)
def test_a_failing_hypothesis_test_ends_only_itself(tmp_path):
    # Hypothesis imports libcst to report a failing example, and that import
    # warns; turned into an error, the warning would end the whole session.
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    (tmp_path / "test_pair.py").write_text(FAILING_THEN_PASSING)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_pair.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout


PAIR = ["tail", "--a0", "0", "--a1", "1"]


@pytest.mark.parametrize("argv, code", [(PAIR, 0), (PAIR + ["--k-max", "0"], 2)])
def test_console_script_exits_with_mains_code(monkeypatch, capsys, argv, code):
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["rotatlas"]
    module, _, name = target.partition(":")
    entrypoint = getattr(importlib.import_module(module), name)
    assert cli.main(argv) == code
    expected = capsys.readouterr()
    monkeypatch.setattr(sys, "argv", ["rotatlas", *argv])
    with pytest.raises(SystemExit) as exc:
        entrypoint()
    assert exc.value.code == code and capsys.readouterr() == expected
