"""What importing the package loads, and what its modules import."""

import ast
import os
import pathlib
import subprocess
import sys

import viscowave


def test_import_loads_only_what_set_up_needs(tmp_path):
    # set-up is the CLI's import plus loading a scenario file; scipy took
    # about 60% of it, and the package factors with numpy alone
    src = os.path.dirname(os.path.dirname(os.path.abspath(viscowave.__file__)))
    path = tmp_path / "c.yaml"
    path.write_text("dt: 0.02\ngrid: {n_nodes: 31}\n")
    code = ("import sys, viscowave.cli; from viscowave.harness import load_config; "
            f"load_config({str(path)!r}); "
            "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60, check=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.split() == []


def test_package_source_imports_no_scipy():
    src = pathlib.Path(viscowave.__file__).parent
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            assert not any(n.split(".")[0] == "scipy" for n in names), path.name



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
    assert unused == set()


# Definitions that no package module reaches, each with the reason it stays
KEEP = {
    "operator.dualnorm_hminus": "the paper's well-posedness estimate, checked under refinement",
    "operator.dump_matrix": "documented in the README",
    "solver.trajectory_from_csv": "documented in the README",
    "solver.solve_linearized": "the first-order linearization rate of the paper check",
    "controls.materialize": "documented in the README; the benchmark tracer binds it",
    "inversion.LocalizedTarget.materialize": "the reference for materialize_targets",
}


def _definitions(tree):
    """(qualified name, name) of each module-level function and class, and public method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name


def test_every_definition_is_reached_or_kept():
    src = pathlib.Path(viscowave.__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in src.glob("*.py")
             if path.name != "__init__.py"}
    referenced = {node.id if isinstance(node, ast.Name) else node.attr
                  for tree in trees.values() for node in ast.walk(tree)
                  if isinstance(node, (ast.Name, ast.Attribute))}
    unreached = {f"{stem}.{qualname}" for stem, tree in trees.items()
                 for qualname, name in _definitions(tree) if name not in referenced}
    assert unreached - set(KEEP) == set()
    assert set(KEEP) - unreached == set()


# How a basis pass is stepped and shifted: solver's own, so that a caller
# sees one observed history per element
SOLVER_ONLY = {"shift_plan", "CONTROL_BLOCK", "SHIFT_RTOL", "_step_linear", "_basis_pass"}


def test_only_the_solver_knows_the_shift_plan():
    src = pathlib.Path(viscowave.__file__).parent
    seen = set()
    for path in src.glob("*.py"):
        if path.name == "solver.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([node.id] if isinstance(node, ast.Name)
                     else [node.attr] if isinstance(node, ast.Attribute)
                     else [alias.name for alias in node.names]
                     if isinstance(node, (ast.Import, ast.ImportFrom)) else [])
            seen.update((path.stem, name) for name in SOLVER_ONLY.intersection(names))
    assert seen == set()


# What inversion reads: measurements, made by dnmap, and its own basis passes
# for synthesis; it names nothing of dnmap and calls no single forward solve.
# (inversion.solve_linear stays bound for the benchmark's tracer test.)
NOT_IN_INVERSION = {"dnmap", "solve_nonlinear"}
FORWARD_SOLVES = {"solve_linear", "solve_nonlinear"}


def _name(node):
    return (node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute) else None)


def test_inversion_reads_measurements_only():
    path = pathlib.Path(viscowave.__file__).parent / "inversion.py"
    seen = set()
    for node in ast.walk(ast.parse(path.read_text())):
        names = ([part for alias in node.names for part in alias.name.split(".")]
                 if isinstance(node, ast.Import)
                 else [*(node.module or "").split("."), *(alias.name for alias in node.names)]
                 if isinstance(node, ast.ImportFrom) else [_name(node)])
        seen.update(NOT_IN_INVERSION.intersection(names))
        if isinstance(node, ast.Call) and _name(node.func) in FORWARD_SOLVES:
            seen.add(f"{_name(node.func)}()")
    assert seen == set()


# The package keeps no process-wide cache: a control basis samples its
# splines once, on its own time grid, and only controls samples splines
CACHE_DECORATORS = {"lru_cache", "cache"}
SPLINE_SAMPLERS = {"_cubic_bspline", "_spline_samples"}


def test_no_process_wide_cache_and_only_controls_samples_splines():
    src = pathlib.Path(viscowave.__file__).parent
    seen = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                modules = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                           else [node.module or ""])
                seen.update((path.stem, "functools") for m in modules
                            if m.split(".")[0] == "functools")
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                for dec in node.decorator_list:
                    name = _name(dec.func if isinstance(dec, ast.Call) else dec)
                    if name in CACHE_DECORATORS:
                        seen.add((path.stem, f"@{name}"))
            if path.stem != "controls":
                names = ([alias.name for alias in node.names]
                         if isinstance(node, (ast.Import, ast.ImportFrom)) else [_name(node)])
                seen.update((path.stem, n) for n in SPLINE_SAMPLERS.intersection(names))
    assert seen == set()
