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


def _internal_imports(tree):
    """``(node, alias, module)`` of every package-internal import in ``tree``, wherever it stands.

    ``module`` is the package module that ``alias`` is imported from, or the
    module it imports; a name imported from the package itself (``from . import
    x`` where ``x`` is no module file, or ``import rotatlas``) counts as ``__init__``.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["rotatlas" if node.level else "", node.module]))
            dotted = [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        for alias, parts in zip(node.names, (name.split(".") for name in dotted)):
            if parts[0] == "rotatlas":
                name = parts[1] if len(parts) > 1 else "__init__"
                yield node, alias, name if (PACKAGE / f"{name}.py").exists() else "__init__"


def _parse(module):
    return ast.parse((PACKAGE / f"{module}.py").read_text(), module)


def _package_imports(module):
    """The package modules that ``module`` imports, in functions and ``if`` branches too."""
    return {name for _, _, name in _internal_imports(_parse(module))}


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


def test_the_reader_and_the_tables_reach_no_orbit_code():
    # `report` reads and writes atlases and renders the sweep's tables; it
    # stands on the certificate's atlas type, below the march.
    assert _reach("report") == {"report", "certificate", "constraints", "intervals", "tail"}


def test_the_package_module_graph_is_acyclic():
    graph = {name: _package_imports(name) for name in [m[:-3] for m in MODULES] + ["__init__"]}
    done, path = set(), []

    def visit(name):
        assert name not in path, f"import cycle {' -> '.join(path[path.index(name):] + [name])}"
        if name not in done:
            path.append(name)
            for imported in sorted(graph[name]):
                visit(imported)
            path.pop()
            done.add(name)

    for name in sorted(graph):
        visit(name)


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_every_package_import_is_at_module_level(module):
    tree = _parse(module[:-3])
    nested = [node.lineno for node, _, _ in _internal_imports(tree) if node not in tree.body]
    assert nested == []


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_no_module_reads_another_modules_private_name(module):
    tree = _parse(module[:-3])
    # the private names it imports, then those it reads off a module it binds
    found, modules = [], set()
    for node, alias, source in _internal_imports(tree):
        if isinstance(node, ast.ImportFrom) and alias.name.startswith("_"):
            found.append(f"{source}.{alias.name}")
        elif alias.name.split(".")[-1] == source and (alias.asname or "." not in alias.name):
            modules.add(alias.asname or alias.name)
    found += [
        f"{node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
        and node.attr.startswith("_")
        and not node.attr.endswith("__")
    ]
    assert found == []
