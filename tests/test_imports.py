"""What importing the package loads, and what its modules import."""

import ast
import os
import pathlib
import subprocess
import sys

import viscowave


def test_import_loads_only_what_set_up_needs():
    # scipy.interpolate, scipy.optimize and scipy.special take about a third
    # of a second to import, and nothing that sets up a scenario uses them
    src = os.path.dirname(os.path.dirname(os.path.abspath(viscowave.__file__)))
    code = ("import sys, viscowave; print(*(m for m in ('scipy.interpolate', "
            "'scipy.optimize', 'scipy.special') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60, check=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.split() == []


# Imported names that a module keeps without using them, with the reason:
# perfbench/tracer.py wraps every binding of dn_matrix_linear, this one too.
_UNUSED_ON_PURPOSE = {("harness", "dn_matrix_linear")}


def _unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_every_imported_name_is_used():
    src = pathlib.Path(viscowave.__file__).parent
    unused = {(path.stem, name) for path in src.glob("*.py") if path.name != "__init__.py"
              for name in _unused_imports(path)}
    assert unused == _UNUSED_ON_PURPOSE
