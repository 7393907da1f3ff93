"""What importing the package loads, and what its modules import."""

import ast
import builtins
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
    # in the package, whose __init__ imports to re-export, and in the tests
    src = pathlib.Path(viscowave.__file__).parent
    paths = [*src.glob("*.py"), *pathlib.Path(__file__).parent.glob("*.py")]
    unused = {(path.stem, name) for path in paths if path.name != "__init__.py"
              for name in _unused_imports(path)}
    assert unused == set()


# Definitions that no package module reaches, each with the reason it stays:
# a caller outside the package, which the README alone is not
KEEP = {
    "operator.dualnorm_hminus": "a paper check: the well-posedness estimate under refinement",
    "solver.solve_linearized": "acceptance test_07: the first-order linearization rate",
    "controls.materialize": "the benchmark tracer binds it",
    "inversion.recover_linear_potential": "the benchmark tracer binds it",
}
CALLERS = ("acceptance test", "paper check", "benchmark tracer")


def _definitions(tree):
    """(qualified name, the reference that reaches it) of each module-level
    function and class, and public method.  A method is reached by its name
    after any dot, a staticmethod only as Class.method: another class's
    method of the same name, or json.load, does not reach it."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    qualname = f"{node.name}.{item.name}"
                    static = "staticmethod" in map(_name, item.decorator_list)
                    yield qualname, qualname if static else item.name


def _references(tree):
    """Each name, attribute, and Name.attribute in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
            if isinstance(node.value, ast.Name):
                yield f"{node.value.id}.{node.attr}"


def test_every_definition_is_reached_or_kept():
    src = pathlib.Path(viscowave.__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in src.glob("*.py")
             if path.name != "__init__.py"}
    referenced = {ref for tree in trees.values() for ref in _references(tree)}
    unreached = {f"{stem}.{qualname}" for stem, tree in trees.items()
                 for qualname, name in _definitions(tree) if name not in referenced}
    assert unreached - set(KEEP) == set()
    assert set(KEEP) - unreached == set()
    assert {name for name, reason in KEEP.items()
            if not any(caller in reason for caller in CALLERS)} == set()


# How a basis pass is stepped and shifted: solver's own, so that a caller
# sees one observed history per element
SOLVER_ONLY = {"shift_plan", "CONTROL_BLOCK", "SHIFT_RTOL", "_step_linear", "_basis_pass"}


def _named(path):
    """Each name, attribute and imported name in the module at path."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (alias.name for alias in node.names)


def test_only_the_solver_knows_the_shift_plan():
    src = pathlib.Path(viscowave.__file__).parent
    seen = {(path.stem, name) for path in src.glob("*.py") if path.name != "solver.py"
            for name in SOLVER_ONLY.intersection(_named(path))}
    assert seen == set()


# Only the solver steps: a loop over the time steps, a range that names
# the step count, is the solver's own
STEP_COUNTS = {"n_steps", "nt"}


def test_only_the_solver_loops_over_the_time_steps():
    src = pathlib.Path(viscowave.__file__).parent
    seen = set()
    for path in src.glob("*.py"):
        if path.name == "solver.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.For) and isinstance(node.iter, ast.Call)
                    and _name(node.iter.func) == "range"
                    and STEP_COUNTS.intersection(map(_name, ast.walk(node.iter)))):
                seen.add((path.stem, node.lineno))
    assert seen == set()


# The omega block is decomposed once per operator, at assembly; everything
# that works in its eigenbasis reads the operator's eigenpairs
DECOMPOSITIONS = {"eigh", "eigvalsh"}


def test_one_function_sets_up_every_stepped_pass():
    # the step loop has two callers: the single solve, and the pass that
    # every basis, modal and difference pass goes through
    src = pathlib.Path(viscowave.__file__).parent
    seen = set()
    for path in src.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            seen.update((path.stem, getattr(top, "name", None)) for node in ast.walk(top)
                        if isinstance(node, ast.Call) and _name(node.func) == "_step_linear")
    assert seen == {("solver", "solve_linear"), ("solver", "_basis_pass")}


def test_only_the_operator_decomposes_the_omega_block():
    src = pathlib.Path(viscowave.__file__).parent
    seen = {(path.stem, name) for path in src.glob("*.py")
            for name in DECOMPOSITIONS.intersection(_named(path))}
    assert seen == {("operator", "eigh")}


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


# Where the package reads an array's rank, each with its reason.  Whether a
# potential is static, and its shape, is decided by the solver's normalizer
# alone: no other code tells a potential's form by its rank
RANK_READS = {
    "solver._expand_potential": "the one place that normalizes a potential",
    "solver._expand_field": "a source or initial state in omega or full-grid layout",
    "controls.make_control": "control samples are (time node, grid node)",
    "nonlinearity.Nonlinearity._tau": "a scalar coefficient broadcasts, a nodal one is checked",
    "nonlinearity.power_nonlinearity": "a coefficient is a scalar or a nodal row",
}


def _scopes_of(node, scope, hit):
    """The qualified name of the function, method or module around each node
    under node for which hit holds, whose own name is scope."""
    for child in ast.iter_child_nodes(node):
        if hit(child):
            yield scope
        named = isinstance(child, (ast.FunctionDef, ast.ClassDef))
        yield from _scopes_of(child, f"{scope}.{child.name}" if named else scope, hit)


def _reads_rank(node):
    """.ndim, np.ndim or a bare ndim."""
    return ((isinstance(node, ast.Attribute) and node.attr == "ndim")
            or (isinstance(node, ast.Name) and node.id == "ndim"))


def _scopes_in_package(hit):
    src = pathlib.Path(viscowave.__file__).parent
    return {scope for path in src.glob("*.py")
            for scope in _scopes_of(ast.parse(path.read_text()), path.stem, hit)}


def test_only_listed_functions_read_an_array_rank():
    assert _scopes_in_package(_reads_rank) == set(RANK_READS)


# Where the package factors or inverts a matrix, each with its reason: a
# factorization per step or per Newton iteration is a cost to be listed here,
# not one to slip into a loop
FACTORIZATIONS = {
    "solver.lu_factor": "the step inverses, one stack per potential",
    "solver._step_inverses": "the search for the first singular step of a failed stack",
    "solver._newton_correction": "the Newton switch: a dense solve where dt^2/4 f'(u) is "
                                 "too large to split on the step inverse",
    "inversion.cho_factor": "the Cholesky factor of each normal-equation system",
    "inversion.cho_solve": "the small diagonal blocks of the blocked substitution",
}
LINALG_FACTORS = {"solve", "inv", "cholesky"}


def _factors(node):
    """A reference to np.linalg.solve, inv or cholesky, called or not, or an
    import of one of them by name."""
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").endswith("linalg") and any(
            alias.name in LINALG_FACTORS for alias in node.names)
    return (isinstance(node, ast.Attribute) and node.attr in LINALG_FACTORS
            and _name(node.value) == "linalg")


def test_only_listed_functions_factor_a_matrix():
    assert _scopes_in_package(_factors) == set(FACTORIZATIONS)


# The recovery's kernel and its regularized factor, each with the one scope
# that calls it: both experiments estimate through one Recovery, and a
# second recovery would call them from a second scope
RECOVERY_STEPS = {
    "_probing_kernel": "inversion.Recovery._normal_equations",
    "_regularized_factor": "inversion.Recovery._normal_equations",
}
# Where the recovery's kernel is scheduled, beside a controls pass or before
# an element pass: the one measurement of the moments asks which pass steps,
# and the recovery answers and schedules its kernel with it
KERNEL_SCHEDULES = {"data_pass": "dnmap.dn_moments_linear"}


def test_one_scope_calls_each_recovery_step():
    for step, scope in {**RECOVERY_STEPS, **KERNEL_SCHEDULES}.items():
        calls = _scopes_in_package(
            lambda node: isinstance(node, ast.Call) and _name(node.func) == step)
        assert calls == {scope}, step


def test_the_runner_leaves_the_data_pass_to_the_moments():
    # the invert-linear runner builds the recovery and asks for its moments:
    # which rows step, and what it takes to step them, is not its to know
    path = pathlib.Path(viscowave.__file__).parent / "harness.py"
    assert {"steps_controls", "dn_difference_linear"}.intersection(_named(path)) == set()


def test_the_moments_leave_the_schedule_to_the_recovery():
    # the measurement asks the recovery's data_pass which rows step: whether
    # the recovery still holds the states that step its controls is its own
    path = pathlib.Path(viscowave.__file__).parent / "dnmap.py"
    assert {"achieved1", "_normal_equations", "_worker"}.intersection(_named(path)) == set()


# Where the package starts a thread, each with its reason: a second core is
# a cost in CPU time and memory to be listed here
THREADS = {
    "inversion.LinearRecovery.data_pass": "the probing kernel, formed while a controls "
                                          "pass runs on the caller's thread",
}
THREAD_MODULES = {"threading", "_thread", "concurrent", "multiprocessing"}


def _starts_thread(node):
    """A reference to a Thread, or an import of a module that starts
    threads or processes other than threading."""
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        modules = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                   else [node.module or ""])
        names = [alias.name for alias in node.names]
        return (any(m.split(".")[0] in THREAD_MODULES - {"threading"} for m in modules)
                or "Thread" in names)
    return _name(node) == "Thread"


def test_only_listed_functions_start_a_thread():
    assert _scopes_in_package(_starts_thread) == set(THREADS)


def _thread_targets(tree):
    """The names that target= of each Thread(...) call in tree passes."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _name(node.func) == "Thread":
            yield from (_name(kw.value) for kw in node.keywords if kw.arg == "target")


def test_a_worker_runs_numpy_alone():
    # a worker calls no function of the package: the benchmark tracer wraps
    # some of them, and its spans are one stack for the process.  Its target
    # is a module-level function whose free names are numpy and builtins
    src = pathlib.Path(viscowave.__file__).parent
    free = {}
    for path in src.glob("*.py"):
        tree = ast.parse(path.read_text())
        functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
        for target in _thread_targets(tree):
            fn = functions[target]
            bound = {a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg)}
            bound |= {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)
                      and isinstance(n.ctx, ast.Store)}
            bound |= {h.name for h in ast.walk(fn) if isinstance(h, ast.ExceptHandler) and h.name}
            loaded = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)
                      and isinstance(n.ctx, ast.Load)}
            free[f"{path.stem}.{target}"] = loaded - bound - set(dir(builtins))
    assert free == {"inversion._probing_kernel": {"np"}}


def _reads_modal(node):
    """A load of .modal: which form a background holds."""
    return (isinstance(node, ast.Attribute) and node.attr == "modal"
            and isinstance(node.ctx, ast.Load))


def test_only_the_background_constructor_decides_its_form():
    # a background holds window couplings and mode-major responses whatever
    # its potential: its constructor picks how to fill them, and nothing
    # downstream branches on the form
    assert _scopes_in_package(_reads_modal) == {"inversion.BackgroundStates.__init__"}
