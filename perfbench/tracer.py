"""Per-layer spans and duplicate-work counters, installed from outside the package.

``Tracer.installed()`` replaces every binding of the traced public functions
in the loaded ``viscowave`` modules (the modules import each other's
functions with ``from .x import ...``, so each binding is wrapped), wraps
``BackgroundStates.__init__`` and ``.synthesize`` on the class, and hooks the
factorizations ``solver.lu_factor`` and ``inversion.cho_factor``.  Leaving the
context restores every original.  Nothing in the package is edited.

A span's self time is its duration minus the time of the spans it directly
contains.  Hashing for the duplicate-work counts runs inside its own
``trace.hooks`` span, so it shows up as overhead instead of inflating the
self time of the layer that called it.  The self times of all spans plus the
time outside any span therefore add up to the traced wall time.
"""

import contextlib
import dataclasses
import hashlib
import inspect
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

HOOKS = "trace.hooks"


def digest(value):
    """Content hash of arrays, dataclasses, containers and scalars."""
    h = hashlib.blake2b(digest_size=16)
    _feed(h, value)
    return h.hexdigest()


def _feed(h, value):
    if isinstance(value, np.ndarray):
        h.update(f"nd{value.dtype}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        h.update(type(value).__name__.encode())
        for f in dataclasses.fields(value):
            _feed(h, getattr(value, f.name))
    elif isinstance(value, (list, tuple)):
        h.update(f"seq{len(value)}".encode())
        for item in value:
            _feed(h, item)
    elif isinstance(value, dict):
        h.update(f"map{len(value)}".encode())
        for key in sorted(value):
            _feed(h, key)
            _feed(h, value[key])
    else:
        h.update(repr(value).encode())


class Tracer:
    """Span timings and counters for one traced scenario run."""

    def __init__(self):
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self.distinct = defaultdict(set)
        self.outside_s = 0.0       # time of top-level spans, for harness self time
        self._stack = []

    # -- spans ---------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name):
        child = [0.0]
        self._stack.append(child)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dur = time.perf_counter() - t0
            self._stack.pop()
            self.calls[name] += 1
            self.total[name] += dur
            self.self_time[name] += dur - child[0]
            if self._stack:
                self._stack[-1][0] += dur
            else:
                self.outside_s += dur

    def _wrap(self, name, fn, after=None):
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                with self.span(HOOKS):
                    after(sig.bind(*args, **kwargs).arguments, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _factor_hook(self, key, fn):
        def wrapper(a, *args, **kwargs):
            with self.span(HOOKS):
                self.counts[key] += 1
                self.distinct[key].add(digest(np.asarray(a)))
            return fn(a, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counters ------------------------------------------------------------

    def _after_linear(self, args, traj):
        self.counts["linear_steps"] += traj.n_steps
        self.distinct["linear"].add(digest(args))

    def _after_nonlinear(self, args, traj):
        self.counts["nonlinear_steps"] += traj.n_steps
        self.counts["newton_iters"] += int(np.sum(traj.newton_iters))

    def _after_csv(self, args, _result):
        self.counts["csv_bytes"] += os.path.getsize(args["path"])

    # -- installation --------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap the traced layers for the duration of the block."""
        from viscowave import controls, dnmap, inversion, operator, solver

        functions = [
            ("operator.assemble", operator.assemble_fraclap, None),
            ("controls.materialize", controls.materialize, None),
            ("solver.linear", solver.solve_linear, self._after_linear),
            ("solver.nonlinear", solver.solve_nonlinear, self._after_nonlinear),
            ("solver.csv_write", solver.trajectory_to_csv, self._after_csv),
            ("dnmap.matrix", dnmap.dn_matrix_linear, None),
            ("inversion.recover", inversion.recover_linear_potential, None),
        ]
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "viscowave"
                                         or name.startswith("viscowave."))]
        undo = []

        def replace(owner, attr, new):
            undo.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

        try:
            for name, fn, after in functions:
                wrapper = self._wrap(name, fn, after)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            replace(module, attr, wrapper)
            bg = inversion.BackgroundStates
            replace(bg, "__init__", self._wrap("inversion.background", bg.__init__))
            replace(bg, "synthesize", self._wrap("inversion.synthesize", bg.synthesize))
            replace(solver, "lu_factor", self._factor_hook("lu_factor", solver.lu_factor))
            replace(inversion, "cho_factor",
                    self._factor_hook("cho_factor", inversion.cho_factor))
            yield self
        finally:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)

    # -- results -------------------------------------------------------------

    def layer_metrics(self, wall_s):
        """Per-layer metrics of one traced scenario that took wall_s seconds."""
        c, calls, self_s = self.counts, self.calls, self.self_time
        linear_calls = calls["solver.linear"]
        factor_calls = c["lu_factor"] + c["cho_factor"]
        factor_unique = len(self.distinct["lu_factor"]) + len(self.distinct["cho_factor"])
        return {
            "trace.wall_s": wall_s,
            "trace.hook_s": self_s[HOOKS],
            "harness.self_s": wall_s - self.outside_s,
            "operator.assemble_calls": calls["operator.assemble"],
            "operator.assemble_s": self_s["operator.assemble"],
            "controls.materialize_calls": calls["controls.materialize"],
            "controls.materialize_s": self_s["controls.materialize"],
            "solver.linear_calls": linear_calls,
            "solver.linear_steps": c["linear_steps"],
            "solver.linear_s": self_s["solver.linear"],
            "solver.linear_step_us": (1e6 * self_s["solver.linear"] / c["linear_steps"]
                                      if c["linear_steps"] else 0.0),
            "solver.linear_unique": len(self.distinct["linear"]),
            "solver.linear_unique_frac": (len(self.distinct["linear"]) / linear_calls
                                          if linear_calls else 0.0),
            "solver.lu_factor_calls": c["lu_factor"],
            "solver.lu_factor_unique": len(self.distinct["lu_factor"]),
            "inversion.cho_factor_calls": c["cho_factor"],
            "inversion.cho_factor_unique": len(self.distinct["cho_factor"]),
            "linalg.factor_unique_frac": (factor_unique / factor_calls
                                          if factor_calls else 0.0),
            "solver.nonlinear_calls": calls["solver.nonlinear"],
            "solver.nonlinear_steps": c["nonlinear_steps"],
            "solver.newton_iters": c["newton_iters"],
            "solver.nonlinear_s": self_s["solver.nonlinear"],
            "solver.csv_write_s": self_s["solver.csv_write"],
            "solver.csv_bytes": c["csv_bytes"],
            "dnmap.matrix_calls": calls["dnmap.matrix"],
            "dnmap.matrix_self_s": self_s["dnmap.matrix"],
            "inversion.background_calls": calls["inversion.background"],
            "inversion.background_self_s": self_s["inversion.background"],
            "inversion.synthesize_calls": calls["inversion.synthesize"],
            "inversion.synthesize_s": self_s["inversion.synthesize"],
            "inversion.recover_self_s": self_s["inversion.recover"],
        }
