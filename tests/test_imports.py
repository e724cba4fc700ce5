import ast
import os
import pathlib
import subprocess
import sys

import pytest

import rotatlas

PACKAGE = pathlib.Path(rotatlas.__file__).parent
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported(tree):
    """The names bound by the module-level imports of ``tree``."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("module", MODULES)
def test_every_module_level_import_is_used(module):
    tree = ast.parse((PACKAGE / module).read_text(), module)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(set(_imported(tree)) - used) == []


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_no_check_vanishes_under_python_O(module):
    # `python -O` strips every `assert` and folds `__debug__` to False, so a
    # check written either way would silently stop running.
    tree = ast.parse((PACKAGE / module).read_text(), module)
    found = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert) or isinstance(node, ast.Name) and node.id == "__debug__"
    ]
    assert found == []


def test_importing_the_cli_loads_no_process_pool():
    # only `sweep --jobs N` with N > 1 imports it, when it starts the pool
    code = "import rotatlas.cli, sys; assert 'concurrent.futures' not in sys.modules"
    env = dict(os.environ, PYTHONPATH="src")
    subprocess.run([sys.executable, "-c", code], cwd=PACKAGE.parent.parent, env=env, check=True)


def _package_imports(module):
    """The package modules that ``module`` imports anywhere outside ``if TYPE_CHECKING:``.

    A name imported from the package itself (``from . import x`` where ``x``
    is no module file, or ``import rotatlas``) counts as ``__init__``.
    """
    found = set()
    todo = [ast.parse((PACKAGE / f"{module}.py").read_text(), module)]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING":
            todo += node.orelse
            continue
        todo += ast.iter_child_nodes(node)
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["rotatlas" if node.level else "", node.module]))
            dotted = [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        for parts in (name.split(".") for name in dotted):
            if parts[0] == "rotatlas":
                name = parts[1] if len(parts) > 1 else "__init__"
                found.add(name if (PACKAGE / f"{name}.py").exists() else "__init__")
    return found


def _reach(module):
    """Every package module that ``module`` can load, transitively, itself included."""
    seen, todo = set(), [module]
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(_package_imports(name))
    return seen


def test_the_certificate_reaches_no_orbit_code():
    # A fault in the march kernel must not be able to certify itself, so the
    # certificate runs on the solver alone.  `rotatlas/__init__.py` imports
    # `dynamics` and `partition`, so `sys.modules` cannot show this; the
    # imports are read from the source instead.
    assert _reach("certificate") == {"certificate", "constraints", "intervals", "tail"}
    assert "dynamics" not in _reach("tail")
    # the walk does see imports: the march reaches the certificate and the orbit code
    assert {"certificate", "dynamics"} <= _reach("partition")


def test_the_march_module_detects_no_cycle():
    # The probes step the certified word (`dynamics.is_orbit`) and detect
    # nothing, so `partition` neither binds nor reads the detection API.
    tree = ast.parse((PACKAGE / "partition.py").read_text(), "partition.py")
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    assert {"is_orbit", "orbit_bounds"} <= names
    assert names & {"detect_cycle", "OrbitResult"} == set()
