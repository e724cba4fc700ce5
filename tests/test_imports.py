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


def test_importing_the_cli_loads_no_process_pool():
    # only `sweep --jobs N` with N > 1 imports it, when it starts the pool
    code = "import rotatlas.cli, sys; assert 'concurrent.futures' not in sys.modules"
    env = dict(os.environ, PYTHONPATH="src")
    subprocess.run([sys.executable, "-c", code], cwd=PACKAGE.parent.parent, env=env, check=True)
