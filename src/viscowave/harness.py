"""Scenario configs, experiment drivers, and report files.

A scenario is a YAML mapping with the keys documented in ``DEFAULTS``; every
experiment writes ``report.json`` (normalized config echo, metrics, verdict)
into the output directory.  Verdicts are recorded, never asserted: a failing
tolerance still exits cleanly with ``passed: false`` in the report.
"""

import copy
import dataclasses
import json
import math
import os
import time
import types

import numpy as np
import yaml

from .controls import ControlBasis, bump_control, time_bump
from .dnmap import (alessandrini_residual, dn_difference_linear, dn_matrix_linear,
                    dn_remainders_nonlinear, nonlinear_integral_identity_residual,
                    self_adjointness_residual)
from .grid import build_grid
from .inversion import (BackgroundStates, estimate_homogeneity_exponent, interior_targets,
                        recover_linear_potential, recover_nonlinear_coefficient,
                        synthesize_control)
from .nonlinearity import check_exponent_constraints, power_nonlinearity, zero_nonlinearity
from .operator import assemble_fraclap
from .solver import (SolverError, energy_ledger, n_steps_for, solve_linear,
                     solve_nonlinear, trajectory_to_csv, trapezoid_weights)


class ConfigError(ValueError):
    """Scenario file fails validation."""


DEFAULTS = {
    "grid": {"box": [-1.0, 2.0], "omega": [0.0, 1.0],
             "w1": [-0.8, -0.2], "w2": [1.2, 1.8], "n_nodes": 61},
    "s": 0.5,
    "dt": 5e-3,
    "t_final": 1.0,
    # model.kind: linear (potential q) or nonlinear (coeff, r)
    "model": {"kind": "linear", "q": {"kind": "zero"}},
    # experiment.kind: forward | energy-check | identity-check | runge |
    #                  invert-linear | invert-nonlinear
    "experiment": {"kind": "forward"},
    "regularization": {"synth_alpha": 1e-12, "alpha_inv": 1e-2},
    "noise": {"level": 0.0},
    "seed": 0,
    "out_dir": "out",
}


class _Section:
    """One mapping of a scenario, read key by key.

    A read returns the key's value, or its default when the key is missing or
    null (None when the read has no default), checked as the read asks; a
    value it cannot use raises ConfigError naming the key.  Every read records
    its key, and ``done`` rejects the keys that no read asked for.
    """

    def __init__(self, name, mapping):
        if not isinstance(mapping, dict):
            raise ConfigError(f"{name} must be a mapping, got {mapping!r}")
        self.name, self.mapping, self.asked = name, mapping, set()

    def get(self, key, default=None, what=None, convert=None, many=False):
        """The value through convert, which returns None (or raises TypeError
        or ValueError) for one that is not what; with many, each item of a
        nonempty list through convert."""
        self.asked.add(key)
        value = self.mapping.get(key)
        value = default if value is None else value
        if value is None or convert is None:
            return value
        try:
            if many and not (isinstance(value, list) and value):
                raise TypeError
            got = [convert(v) for v in value] if many else [convert(value)]
            if None not in got:
                return got if many else got[0]
        except (TypeError, ValueError, OverflowError):
            pass
        what = f"a nonempty list, each {what}" if many else what
        name = f"{self.name}.{key}" if self.name else key
        raise ConfigError(f"{name} must be {what}, got {value!r}")

    def number(self, key, default=None, sign="", many=False):
        """A finite float, and positive or nonnegative if sign says so."""
        def convert(value):
            number = _finite(value)
            return number if {"": True, "positive": number > 0,
                              "nonnegative": number >= 0}[sign] else None
        what = f"a {sign} finite number" if sign else "a finite number"
        return self.get(key, default, what, convert, many)

    def integer(self, key, default=None, least=None, many=False):
        """An integral value as an int, not below least if given."""
        def convert(value):
            number = int(value)
            return number if number == value and (least is None or number >= least) else None
        what = "an integer" if least is None else f"an integer >= {least}"
        return self.get(key, default, what, convert, many)

    def choice(self, key, default, options):
        return self.get(key, default, f"one of {options}",
                        lambda value: value if value in options else None)

    def pair(self, key):
        """A list of two finite numbers, as a tuple."""
        return self.get(key, None, "a pair of finite numbers", lambda value: tuple(
            map(_finite, value)) if isinstance(value, list) and len(value) == 2 else None)

    def text(self, key):
        return self.get(key, None, "a nonempty string",
                        lambda value: value if isinstance(value, str) and value else None)

    def section(self, key):
        """The mapping under key, read as a section of its own."""
        return _Section(f"{self.name}.{key}" if self.name else key, self.get(key, {}))

    def done(self, message=None):
        """Reject the keys no read asked for; message has a {} for them."""
        unread = sorted(set(self.mapping) - self.asked, key=str)
        if unread:
            raise ConfigError((message or f"unknown {self.name} keys {{}}").format(unread))


def _finite(value):
    number = float(value)
    if not math.isfinite(number):
        raise ValueError
    return number


def _merge(base, override):
    """base updated by override, recursively; a null in override keeps the default."""
    out = copy.deepcopy(base)
    for key, val in (override or {}).items():
        if val is None:
            continue
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


def _read_bytes(path):
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from exc


def load_config(path):
    try:
        # bytes, so that a file that is not UTF-8 is a YAML error
        raw = yaml.safe_load(_read_bytes(path)) or {}
    except yaml.YAMLError as exc:
        detail = " ".join(str(exc).split())  # one line for the CLI
        raise ConfigError(f"{path}: malformed YAML: {detail}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    cfg = _merge(DEFAULTS, raw)
    validate_config(cfg)
    return cfg


def validate_config(cfg):
    """Raise ConfigError on the first value of cfg, merged with DEFAULTS, that
    a run could not use as written, or on a key that no run of it reads.

    Returns the warnings of the run, which do not stop it: the messages of
    ``nonlinearity.check_exponent_constraints`` for a nonlinear model.
    """
    return _read_scenario(_merge(DEFAULTS, cfg)).warnings


def _read_scenario(cfg):
    """Every value a run of the merged scenario cfg reads, read once and before
    any solve: the top-level and section values, the grid, the model's potential
    q and nonlinearity f (None if linear), the warnings, and the runner's values."""
    top = _Section("", cfg)
    grid_cfg = top.section("grid")
    corners = [grid_cfg.pair(key) for key in ("box", "omega", "w1", "w2")]
    n_nodes = grid_cfg.integer("n_nodes")
    grid_cfg.done()
    grid = build_grid(*corners, n_nodes)
    s = top.number("s")
    if not 0.0 < s < 1.0:
        raise ConfigError(f"s={cfg['s']} outside (0, 1)")
    dt, t_final = top.number("dt", sign="positive"), top.number("t_final", sign="positive")
    try:
        nt = n_steps_for(dt, t_final)
    except SolverError as exc:
        raise ConfigError(str(exc)) from exc
    reg, noise = top.section("regularization"), top.section("noise")
    run = {"grid": grid, "s": s, "dt": dt, "t_final": t_final, "nt": nt,
           "synth_alpha": reg.number("synth_alpha", sign="nonnegative"),
           "alpha_inv": reg.number("alpha_inv", sign="nonnegative"),
           "level": noise.number("level", sign="nonnegative"),
           "seed": top.integer("seed", least=0), "out_dir": top.text("out_dir")}
    reg.done()
    noise.done()

    model = top.section("model")
    kind = model.choice("kind", None, ("linear", "nonlinear"))
    run["q"] = potential_from_spec(grid, model.get("q"), dt, t_final, name="model.q")
    run["f"], run["warnings"] = None, []
    if kind == "nonlinear":
        coeff = field_from_spec(grid, model.get("coeff", {"kind": "constant", "value": 1.0}),
                                name="model.coeff")
        run["f"] = power_nonlinearity(coeff, model.number("r", 1.0, sign="nonnegative"))
        # the paper's exponent range is sufficient, not necessary: the run
        # goes on and its report carries the messages
        run["warnings"] = check_exponent_constraints(s, run["f"].r)
    model.done(f"unknown model keys {{}} for kind {kind!r}")

    run.update(_read_experiment(top.section("experiment"), run))
    if run["level"] > 0 and run["kind"] != "invert-linear":
        raise ConfigError(f"noise.level={run['level']} is read by invert-linear only, "
                          f"not by {run['kind']}")
    top.done("unknown keys {}")
    return types.SimpleNamespace(**run)


def _read_experiment(exp, run):
    """The values the experiment's runner reads, for its kind and variant,
    from the experiment section and the values run holds."""
    grid, dt, t_final, number = run["grid"], run["dt"], run["t_final"], exp.number
    kind = exp.choice("kind", None, tuple(RUNNERS))
    unread = f"unknown experiment keys {{}} for kind {kind!r}"
    needs = None  # (what, model kind) if the experiment needs one model kind
    q_unread_by = None  # the run's name in the error, if none of its solves reads model.q

    def window(lo, hi, lo_default, hi_default, control=True):
        """The times under keys lo < hi; a control's window starts no earlier
        than dt, so that its bump vanishes on the first two time nodes."""
        t0, t1 = number(lo, lo_default), number(hi, hi_default)
        if not t0 < t1:
            raise ConfigError(f"experiment.{hi} must be above experiment.{lo}={t0}, got {t1}")
        if control and t0 < dt:
            raise ConfigError(f"experiment.{lo} of a control window must be at least "
                              f"dt={dt}, got {t0}")
        return t0, t1

    def pulse(t0, t1, center, width):
        """t0, t1, center and width of a gaussian times a time bump on (t0, t1)."""
        return (*window("t0", "t1", t0, t1, control=False), number("center", center),
                number("width", width, sign="positive"))

    def spline_levels(key, default, many=False):
        """Time-spline levels under key; a first knot t_final / level before
        dt puts a control's second time node inside its first spline."""
        levels = exp.integer(key, default, least=7, many=many)
        if max(levels if many else [levels]) > run["nt"]:
            raise ConfigError(f"experiment.{key} must not exceed the {run['nt']} time "
                              f"steps, got {levels}")
        return levels

    def targets():
        nodes = exp.integer("target_nodes", least=0, many=True)
        stride = exp.integer("target_stride", 1, least=1)
        width = number("target_width", sign="positive")
        if nodes is None:
            nodes = grid.omega[::stride]
        outside = sorted(set(nodes) - set(grid.omega.tolist()))
        if outside:
            raise ConfigError(f"experiment.target_nodes {outside} are not omega nodes "
                              f"({int(grid.omega[0])}..{int(grid.omega[-1])})")
        return interior_targets(grid, t_final, nodes=nodes, space_width=width)

    if kind == "forward":
        values = {"window": exp.choice("window", "w1", ("w1", "w2")),
                  "times": window("t0", "t1", 0.1 * t_final, 0.9 * t_final),
                  "amplitude": number("amplitude", 1.0)}
        if run["f"] is not None:
            q_unread_by = "forward with model.kind nonlinear"
    elif kind == "energy-check":
        values = {"pulse": pulse(0.1 * t_final, 0.6 * t_final, 0.5, 0.15),
                  "tolerance": number("tolerance", 1e-3)}
    elif kind == "identity-check":
        variant = exp.choice("variant", "self-adjoint",
                             ("self-adjoint", "alessandrini", "nonlinear-integral"))
        values = {"variant": variant, "times1": window("t0", "t1", 0.05, 0.65),
                  "times2": window("t2", "t3", 0.25, 0.90),
                  "tolerance": number("tolerance", 1e-3), "amplitude": 1.0}
        if variant == "alessandrini":
            q1 = exp.get("q1")
            values["q1"] = run["q"] if q1 is None else potential_from_spec(
                grid, q1, dt, t_final, name="experiment.q1")
            values["q2"] = potential_from_spec(grid, exp.get("q2"), dt, t_final,
                                               name="experiment.q2")
        elif variant == "nonlinear-integral":
            values["amplitude"] = number("amplitude", 0.1)
            needs = ("nonlinear-integral identity", "nonlinear")
            q_unread_by = "identity-check variant 'nonlinear-integral'"
        unread = f"experiment keys {{}} are not read by identity-check variant {variant!r}"
    elif kind == "runge":
        values = {"levels": spline_levels("levels", [8, 16, 32], many=True),
                  "window": exp.choice("window", "w1", ("w1", "w2")),
                  "pulse": pulse(0.2 * t_final, 0.8 * t_final, 0.35, 0.22),
                  "tolerance": number("tolerance", 0.2)}
    elif kind == "invert-linear":
        values = {"basis_segments": spline_levels("basis_segments", 16),
                  "frame": exp.choice("frame", "direct", ("direct", "reversed")),
                  "q_time_basis": exp.integer("q_time_basis", least=2),
                  "targets": targets(), "tolerance": number("tolerance", 0.10)}
        needs = ("invert-linear", "linear")
    else:
        values = {"psi_amplitude": number("psi_amplitude", 50.0),
                  "eps_list": number("eps_list", [1e-1, 3e-2, 1e-2], "positive", many=True),
                  "eps0": number("eps0", 1e-1, sign="positive"),
                  "basis_segments": spline_levels("basis_segments", 16),
                  "round_exponent": exp.choice("round_exponent", True, (True, False)),
                  "targets": targets(),
                  "exponent_tolerance": number("exponent_tolerance", 0.1),
                  "tolerance": number("tolerance", 0.15)}
        if 0.1 * t_final < dt:
            # the runner's fixed probe psi is a control on (0.1, 0.9) t_final
            raise ConfigError("dt must be at most 0.1 * t_final, where the probe of "
                              f"invert-nonlinear starts, got {dt}")
        if len(set(values["eps_list"])) < 2:
            # the exponent is the slope of a fit through the amplitudes
            raise ConfigError("experiment.eps_list must hold at least two distinct "
                              f"amplitudes, got {values['eps_list']}")
        needs, q_unread_by = ("invert-nonlinear", "nonlinear"), "invert-nonlinear"
    exp.done(unread)
    if needs and needs[1] != ("linear" if run["f"] is None else "nonlinear"):
        raise ConfigError(f"{needs[0]} needs model.kind {needs[1]}")
    if q_unread_by and np.any(run["q"]):
        raise ConfigError(f"model.q must be zero for {q_unread_by}, whose solves read "
                          "no potential")
    return {"kind": kind, **values}


def _profile(grid, spec):
    """Nodal samples on omega of the spatial profile that the section spec
    describes; spec's other reads come before this one."""
    x = grid.x[grid.omega]
    kind = spec.choice("kind", "zero", ("zero", "constant", "gaussian", "sine"))
    if kind == "zero":
        values = np.zeros_like(x)
    elif kind == "constant":
        value = spec.number("value")
        if value is None:
            raise ConfigError(f"{spec.name}.value is required for kind 'constant'")
        values = np.full_like(x, value)
    elif kind == "gaussian":
        amp, center = spec.number("amplitude", 1.0), spec.number("center", 0.5)
        width = spec.number("width", 0.1, sign="positive")
        values = amp * np.exp(-((x - center) / width) ** 2)
    else:
        off, amp = spec.number("offset", 0.0), spec.number("amplitude", 1.0)
        freq = spec.number("frequency", 1.0)
        values = off + amp * np.sin(2.0 * np.pi * freq * x)
    spec.done(f"unknown {spec.name} keys {{}} for kind {kind!r}")
    return values


def field_from_spec(grid, spec, name="profile"):
    """Nodal samples on omega of a named spatial profile; name labels its errors."""
    return _profile(grid, _Section(name, {} if spec is None else spec))


def potential_from_spec(grid, spec, dt, t_final, name="potential"):
    """Potential samples: static omega vector, or (n_steps+1, n_omega) field;
    ``time: ramp`` is profile(x)·t, and ``reversed-ramp`` profile(x)·(t_final − t)."""
    section = _Section(name, {} if spec is None else spec)
    tdep = section.choice("time", "constant", ("constant", "ramp", "reversed-ramp"))
    prof = _profile(grid, section)
    if tdep == "constant":
        return prof
    t = dt * np.arange(n_steps_for(dt, t_final) + 1)
    return np.outer(t if tdep == "ramp" else t_final - t, prof)


def _add_noise(record, sigma, rng):
    """The record with Gaussian noise of standard deviation sigma on its pairings."""
    if sigma <= 0:
        return record
    noisy = record.pairings + rng.normal(0.0, sigma, size=record.pairings.shape)
    return dataclasses.replace(record, pairings=noisy, tag=record.tag + "+noise")


def _setup(cfg):
    """The values a run of the merged scenario cfg reads, and its operator."""
    run = _read_scenario(cfg)
    return run, assemble_fraclap(run.grid, run.s)


def _gaussian_pulse(grid, dt, nt, t0, t1, center, width):
    """Gaussian over omega times a time bump on (t0, t1), as (nt+1, n_omega) samples."""
    theta, _ = time_bump(dt * np.arange(nt + 1), t0, t1)
    prof = field_from_spec(grid, {"kind": "gaussian", "center": center, "width": width})
    return np.outer(theta, prof)


def run_forward(run, op, out_dir):
    ctrl = bump_control(run.grid, run.window, *run.times, run.dt, run.nt,
                        amplitude=run.amplitude)
    if run.f is None:
        traj = solve_linear(op, run.q, ctrl, run.dt, run.t_final)
    else:
        traj = solve_nonlinear(op, run.f, ctrl, run.dt, run.t_final)
    trajectory_to_csv(traj, run.grid, os.path.join(out_dir, "trajectory.csv"))
    om = run.grid.omega
    metrics = {
        "max_abs_u": float(np.abs(traj.u[:, om]).max()),
        "max_abs_v": float(np.abs(traj.v[:, om]).max()),
        "final_max_abs_u": float(np.abs(traj.u[-1, om]).max()),
        "newton_iterations_total": int(np.sum(traj.newton_iters))
        if traj.newton_iters is not None else 0,
    }
    return metrics, None


def run_energy_check(run, op, out_dir):
    source = _gaussian_pulse(run.grid, run.dt, run.nt, *run.pulse)
    traj = solve_linear(op, run.q, None, run.dt, run.t_final, source=source)
    ledger = energy_ledger(op, traj, q=run.q, source=source)
    res = float(ledger.max_relative_residual)
    return {"max_relative_residual": res, "tolerance": run.tolerance}, res <= run.tolerance


def run_identity_check(run, op, out_dir):
    dt, t_final = run.dt, run.t_final
    phi1 = bump_control(run.grid, "w1", *run.times1, dt, run.nt, amplitude=run.amplitude)
    phi2 = bump_control(run.grid, "w2", *run.times2, dt, run.nt)
    if run.variant == "self-adjoint":
        res, lhs, rhs = self_adjointness_residual(op, run.q, phi1, phi2, dt, t_final)
    elif run.variant == "alessandrini":
        lhs, rhs, res = alessandrini_residual(op, run.q1, run.q2, phi1, phi2, dt, t_final)
    else:
        lhs, rhs, res = nonlinear_integral_identity_residual(
            op, run.f, zero_nonlinearity(), phi1, phi2, dt, t_final)
    scale = max(abs(lhs), abs(rhs), 1e-300)
    rel = float(res / scale)
    metrics = {"lhs": float(lhs), "rhs": float(rhs), "residual": float(res),
               "relative_residual": rel, "tolerance": run.tolerance, "variant": run.variant}
    return metrics, rel <= run.tolerance


def run_runge(run, op, out_dir):
    grid, dt, t_final, nt = run.grid, run.dt, run.t_final, run.nt
    target = _gaussian_pulse(grid, dt, nt, *run.pulse)
    wt = dt * trapezoid_weights(nt)
    k_om = grid.h * op.omega_block
    tnorm = float(np.sqrt(np.sum(wt * np.einsum("tj,tj->t", target, target @ k_om))))

    errors = [synthesize_control(op, run.q, target, run.window, dt, t_final, run.synth_alpha,
                                 nseg)[1] for nseg in run.levels]
    rel = [e / tnorm for e in errors]
    monotone = all(rel[i + 1] <= rel[i] for i in range(len(rel) - 1))
    metrics = {"levels": run.levels, "errors": errors, "relative_errors": rel,
               "target_norm": tnorm, "monotone": monotone, "tolerance": run.tolerance}
    return metrics, monotone and rel[-1] <= run.tolerance


def run_invert_linear(run, op, out_dir):
    grid, dt, t_final, nt, q_true = run.grid, run.dt, run.t_final, run.nt, run.q
    basis1 = ControlBasis(grid, "w1", dt, t_final, run.basis_segments)
    basis2 = ControlBasis(grid, "w2", dt, t_final, run.basis_segments)
    # the data enter as their difference from the q = 0 background, measured
    # by the difference equation driven from the w1 states the inversion
    # synthesizes with; the noise scales with the data themselves
    background = BackgroundStates(op, None, basis1)
    rec_data = dn_difference_linear(q_true, background, basis2, tag="data")
    if run.level > 0:
        p_bg = dn_matrix_linear(op, None, basis1, basis2).pairings
        rec_data = _add_noise(rec_data, run.level * np.std(p_bg + rec_data.pairings),
                              np.random.default_rng(run.seed))

    recon = recover_linear_potential(
        rec_data, background, run.targets, run.alpha_inv, synth_alpha=run.synth_alpha,
        q_time_basis=run.q_time_basis)
    # the frame orients a time-dependent estimate: reversed, it is written as
    # a function of t_final - t
    if run.q_time_basis is not None and run.frame == "reversed":
        recon.values = recon.values[:, ::-1]
    recon.diagnostics = {"frame": run.frame, **recon.diagnostics}
    recon.save(os.path.join(out_dir, "reconstruction.json"))
    if run.q_time_basis is None and np.ndim(q_true) == 1:
        recon.save_csv(os.path.join(out_dir, "reconstruction.csv"), q_true=q_true)

    # compare against the truth in the frame the experiment requested
    if run.q_time_basis is None:
        truth = q_true if np.ndim(q_true) == 1 else np.mean(q_true, axis=0)
        num = float(np.linalg.norm(recon.values - truth))
        den = float(max(np.linalg.norm(truth), 1e-300))
    else:
        truth = q_true if np.ndim(q_true) == 2 else np.tile(q_true, (nt + 1, 1))
        truth = truth.T  # (n_omega, nt+1) like recon.values
        if run.frame == "reversed":
            truth = truth[:, ::-1]
        wt = trapezoid_weights(nt)
        num = float(np.sqrt(np.sum(wt[None, :] * (recon.values - truth) ** 2)))
        den = float(max(np.sqrt(np.sum(wt[None, :] * truth ** 2)), 1e-300))
    rel = num / den
    metrics = {"relative_l2_error": rel, "tolerance": run.tolerance, "frame": run.frame,
               "noise_level": run.level,
               "fit_residual": recon.diagnostics["fit_residual"],
               "rhs_norm": recon.diagnostics["rhs_norm"],
               "n_targets": len(run.targets)}
    return metrics, rel <= run.tolerance


def run_invert_nonlinear(run, op, out_dir):
    grid, dt, t_final, f = run.grid, run.dt, run.t_final, run.f
    psi = bump_control(grid, "w1", 0.1 * t_final, 0.9 * t_final, dt, run.nt,
                       amplitude=run.psi_amplitude)
    basis2 = ControlBasis(grid, "w2", dt, t_final, run.basis_segments)
    # one sweep measures every amplitude that the exponent fit and the
    # Richardson step read
    lin, p_lin, remainders = dn_remainders_nonlinear(
        op, f, psi, basis2, {*run.eps_list, run.eps0, 0.5 * run.eps0})
    r_est, diag = estimate_homogeneity_exponent(run.eps_list, remainders, p_lin)

    recon = recover_nonlinear_coefficient(
        op, lin, remainders, basis2, round(r_est) if run.round_exponent else r_est,
        run.targets, run.eps0, run.alpha_inv, synth_alpha=run.synth_alpha)
    recon.save(os.path.join(out_dir, "reconstruction.json"))
    recon.save_csv(os.path.join(out_dir, "reconstruction.csv"), q_true=f.coeff)

    cov = recon.covered
    num = float(np.linalg.norm(recon.values[cov] - f.coeff[cov]))
    den = float(max(np.linalg.norm(f.coeff[cov]), 1e-300))
    rel = num / den
    metrics = {"r_true": f.r, "r_est": float(r_est),
               "exponent_tolerance": run.exponent_tolerance,
               "relative_l2_error_covered": rel, "tolerance": run.tolerance,
               "n_covered": int(cov.sum()), "n_omega": int(len(cov)),
               "eps_differences": diag["differences"]}
    return metrics, (abs(r_est - f.r) <= run.exponent_tolerance) and rel <= run.tolerance


RUNNERS = {
    "forward": run_forward,
    "energy-check": run_energy_check,
    "identity-check": run_identity_check,
    "runge": run_runge,
    "invert-linear": run_invert_linear,
    "invert-nonlinear": run_invert_nonlinear,
}


def _make_out_dir(path):
    """Make the output directory path, or raise ConfigError naming it."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {path}: "
                          f"{exc.strerror or exc}") from exc


def run_scenario(cfg, out_dir=None):
    """Run one experiment; returns the report dict and writes report.json."""
    cfg = _merge(DEFAULTS, cfg)
    start = time.time()
    run, op = _setup(cfg)
    out_dir = out_dir or run.out_dir
    _make_out_dir(out_dir)
    metrics, passed = RUNNERS[run.kind](run, op, out_dir)
    report = {
        "experiment": run.kind,
        "config": cfg,
        "metrics": metrics,
        "passed": passed,
        "runtime_seconds": round(time.time() - start, 3),
    }
    if run.warnings:
        report["warnings"] = run.warnings
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(report, fh, indent=2)
    return report


def _read_report(path):
    try:
        report = json.loads(_read_bytes(path))
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ConfigError(f"{path}: not JSON: {exc}") from exc
    if not (isinstance(report, dict) and "experiment" in report
            and isinstance(report.get("metrics"), dict)):
        raise ConfigError(f"{path}: not a report, a mapping with 'experiment' and 'metrics'")
    return report


def compare_reports(path_a, path_b):
    """Metric-by-metric comparison of two report files."""
    a, b = _read_report(path_a), _read_report(path_b)
    if a["experiment"] != b["experiment"]:
        raise ConfigError(f"cannot compare {a['experiment']} report "
                          f"with {b['experiment']} report")
    lines = [f"experiment: {a['experiment']}"]
    keys = sorted(set(a["metrics"]) | set(b["metrics"]))
    for key in keys:
        va, vb = a["metrics"].get(key), b["metrics"].get(key)
        if isinstance(va, (int, float)) and isinstance(vb, (int, float)):
            denom = max(abs(va), abs(vb), 1e-300)
            lines.append(f"  {key}: {va!r} vs {vb!r} "
                         f"(rel diff {abs(va - vb) / denom:.3e})")
        else:
            lines.append(f"  {key}: {va!r} vs {vb!r}")
    lines.append(f"passed: {a.get('passed')} vs {b.get('passed')}")
    return "\n".join(lines)


def _set_by_path(cfg, dotted, value):
    parts = dotted.split(".")
    node = cfg
    for part in parts[:-1]:
        if not isinstance(node.get(part), dict):
            node[part] = {}
        node = node[part]
    node[parts[-1]] = value


def sweep_scenario(cfg, param, values, out_dir):
    """Run the scenario once per value of a dotted config parameter, every
    value's scenario and the output directory checked before the first run."""
    runs = []
    for val in values:
        sub = copy.deepcopy(cfg)
        _set_by_path(sub, param, val)
        validate_config(sub)
        runs.append((sub, os.path.join(out_dir, f"{param.replace('.', '_')}_{val}")))
    _make_out_dir(out_dir)
    reports = [run_scenario(sub, sub_dir) for sub, sub_dir in runs]
    summary = {
        "param": param,
        "values": list(values),
        "passed": [r["passed"] for r in reports],
        "metrics": [r["metrics"] for r in reports],
    }
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2)
    return summary
