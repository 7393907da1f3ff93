"""Scenario configs, experiment drivers, and report files.

A scenario is a YAML mapping with the keys documented in ``DEFAULTS``; every
experiment writes ``report.json`` (normalized config echo, metrics, verdict)
into the output directory.  Verdicts are recorded, never asserted: a failing
tolerance still exits cleanly with ``passed: false`` in the report.
"""

import copy
import json
import os
import time

import numpy as np
import yaml

from .controls import ControlBasis, bump_control, time_bump
# dn_matrix_linear is not called here, but perfbench/tracer.py wraps every
# binding of it, this one included
from .dnmap import (alessandrini_residual, dn_difference_linear, dn_matrix_linear,  # noqa: F401
                    nonlinear_integral_identity_residual,
                    self_adjointness_residual)
from .grid import build_grid
from .inversion import (RungeProblem, estimate_homogeneity_exponent, interior_targets,
                        recover_linear_potential, recover_nonlinear_coefficient,
                        synthesize_control)
from .nonlinearity import power_nonlinearity, zero_nonlinearity
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

# The keys each experiment.kind and model.kind reads, besides "kind"; any
# other key in those sections is rejected.
_TARGET_KEYS = ("target_nodes", "target_stride", "target_width")
EXPERIMENT_KEYS = {
    "forward": ("window", "t0", "t1", "amplitude"),
    "energy-check": ("t0", "t1", "center", "width", "tolerance"),
    "identity-check": ("variant", "t0", "t1", "t2", "t3", "q1", "q2", "amplitude",
                       "tolerance"),
    "runge": ("levels", "window", "center", "width", "t0", "t1", "tolerance"),
    "invert-linear": ("basis_segments", "frame", "q_time_basis", *_TARGET_KEYS,
                      "tolerance"),
    "invert-nonlinear": ("psi_amplitude", "eps_list", "eps0", "basis_segments",
                         "round_exponent", *_TARGET_KEYS, "exponent_tolerance",
                         "tolerance"),
}
# Every model carries q: DEFAULTS merges a zero potential into it, and every
# experiment that solves the linear equation reads it whatever the kind.
MODEL_KEYS = {"linear": ("q",), "nonlinear": ("coeff", "r", "q")}
EXPERIMENTS = tuple(EXPERIMENT_KEYS)
# How validate_config checks experiment values other than null: a choice
# must be listed; a key in _LEAST is an integer of at least that value (a
# spline level needs 7 segments); any other key is a number, except the
# profiles q1 and q2, which are checked when sampled, and round_exponent,
# which is read for its truth.  _LISTS hold a nonempty list of such values.
_CHOICES = {"window": ("w1", "w2"), "frame": ("direct", "reversed"),
            "variant": ("self-adjoint", "alessandrini", "nonlinear-integral")}
_LEAST = {"basis_segments": 7, "levels": 7, "q_time_basis": 2, "target_stride": 1,
          "target_nodes": 0}
_LISTS = ("levels", "eps_list", "target_nodes")


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


def load_config(path):
    with open(path) as fh:
        try:
            raw = yaml.safe_load(fh) or {}
        except yaml.YAMLError as exc:
            detail = " ".join(str(exc).split())  # one line for the CLI
            raise ConfigError(f"{path}: malformed YAML: {detail}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    unknown = set(raw) - set(DEFAULTS)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    cfg = _merge(DEFAULTS, raw)
    validate_config(cfg)
    return cfg


def validate_config(cfg):
    for key, default in DEFAULTS.items():
        if isinstance(default, dict) and not isinstance(cfg[key], dict):
            raise ConfigError(f"{key} must be a mapping, got {cfg[key]!r}")
    # DEFAULTS lists every key of these sections; experiment and model keys
    # depend on the kind
    for key in ("grid", "regularization", "noise"):
        unknown = set(cfg[key]) - set(DEFAULTS[key])
        if unknown:
            raise ConfigError(f"unknown {key} keys {sorted(unknown)}")
    for key, table in (("experiment", EXPERIMENT_KEYS), ("model", MODEL_KEYS)):
        kind = cfg[key].get("kind")
        if kind not in table:
            raise ConfigError(f"{key}.kind must be one of {tuple(table)}, got {kind!r}")
        unknown = set(cfg[key]) - {"kind", *table[kind]}
        if unknown:
            raise ConfigError(f"unknown {key} keys {sorted(unknown)} for kind {kind!r}")
    _check_experiment_values(cfg["experiment"])
    numbers = {"s": cfg["s"], "dt": cfg["dt"], "t_final": cfg["t_final"],
               "noise.level": cfg["noise"]["level"],
               "regularization.synth_alpha": cfg["regularization"]["synth_alpha"],
               "regularization.alpha_inv": cfg["regularization"]["alpha_inv"],
               "model.r": cfg["model"].get("r", 1)}
    for name, value in numbers.items():
        try:
            numbers[name] = float(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{name} must be a number, got {value!r}") from exc
    s, dt, t_final, level = (numbers[k] for k in ("s", "dt", "t_final", "noise.level"))
    for name, value in (("grid.n_nodes", cfg["grid"]["n_nodes"]), ("seed", cfg["seed"])):
        try:
            int(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{name} must be an integer, got {value!r}") from exc
    if not 0.0 < s < 1.0:
        raise ConfigError(f"s={cfg['s']} outside (0, 1)")
    if dt <= 0 or t_final <= 0:
        raise ConfigError("dt and t_final must be positive")
    try:
        n_steps_for(dt, t_final)
    except SolverError as exc:
        raise ConfigError(str(exc)) from exc
    if level < 0:
        raise ConfigError("noise.level must be nonnegative")
    nodes = cfg["experiment"].get("target_nodes")
    if nodes is not None:
        omega = _grid(cfg).omega
        outside = sorted({int(n) for n in nodes} - set(omega.tolist()))
        if outside:
            raise ConfigError(f"experiment.target_nodes {outside} are not omega nodes "
                              f"({int(omega[0])}..{int(omega[-1])})")


def _check_experiment_values(exp):
    for key, value in exp.items():
        if value is None or key in ("kind", "q1", "q2", "round_exponent"):
            continue
        if key in _CHOICES:
            if value not in _CHOICES[key]:
                raise ConfigError(f"experiment.{key} must be one of {_CHOICES[key]}, "
                                  f"got {value!r}")
            continue
        least = _LEAST.get(key)
        what = "a number" if least is None else f"an integer >= {least}"
        if key in _LISTS:
            what = f"a nonempty list, each {what}"
        items = value if key in _LISTS else [value]
        try:
            if not isinstance(items, list) or not items:
                raise TypeError
            numbers = [float(v) if least is None else int(v) for v in items]
            ok = least is None or min(numbers) >= least
        except (TypeError, ValueError):
            ok = False
        if not ok:
            raise ConfigError(f"experiment.{key} must be {what}, got {value!r}")


def field_from_spec(grid, spec, nodes=None):
    """Nodal samples of a named spatial profile on omega (or given nodes)."""
    x = grid.x[grid.omega if nodes is None else nodes]
    kind = (spec or {}).get("kind", "zero")
    if kind == "zero":
        return np.zeros_like(x)
    if kind == "constant":
        return np.full_like(x, float(spec["value"]))
    if kind == "gaussian":
        amp = float(spec.get("amplitude", 1.0))
        center = float(spec.get("center", 0.5))
        width = float(spec.get("width", 0.1))
        return amp * np.exp(-((x - center) / width) ** 2)
    if kind == "sine":
        off = float(spec.get("offset", 0.0))
        amp = float(spec.get("amplitude", 1.0))
        freq = float(spec.get("frequency", 1.0))
        return off + amp * np.sin(2.0 * np.pi * freq * x)
    raise ConfigError(f"unknown field kind {kind!r}")


def potential_from_spec(grid, spec, dt, t_final):
    """Potential samples: static omega vector, or (n_steps+1, n_omega) field."""
    spec = spec or {"kind": "zero"}
    tdep = spec.get("time", "constant")
    prof = field_from_spec(grid, spec)
    if tdep == "constant":
        return prof
    nt = n_steps_for(dt, t_final)
    t = dt * np.arange(nt + 1)
    if tdep == "ramp":          # q(x, t) = profile(x) * t
        return np.outer(t, prof)
    if tdep == "reversed-ramp":  # q(x, t) = profile(x) * (t_final - t)
        return np.outer(t_final - t, prof)
    raise ConfigError(f"unknown time dependence {tdep!r}")


def _model_pieces(grid, cfg, dt, t_final):
    """The model's potential samples and its nonlinearity (None if linear)."""
    model = cfg["model"]
    q = potential_from_spec(grid, model.get("q"), dt, t_final)
    if model["kind"] == "linear":
        return q, None
    coeff = field_from_spec(grid, model.get("coeff", {"kind": "constant", "value": 1.0}))
    return q, power_nonlinearity(coeff, float(model.get("r", 1)))


def _noise_rng(cfg):
    return np.random.default_rng(int(cfg["seed"]))


def _add_noise(record, sigma, rng):
    """The record with Gaussian noise of standard deviation sigma on its pairings."""
    if sigma <= 0:
        return record
    noisy = record.pairings + rng.normal(0.0, sigma, size=record.pairings.shape)
    return type(record)(s=record.s, dt=record.dt, t_final=record.t_final,
                        controls=record.controls, probes=record.probes,
                        pairings=noisy, tag=record.tag + "+noise")


def _grid(cfg):
    g = cfg["grid"]
    return build_grid(tuple(g["box"]), tuple(g["omega"]), tuple(g["w1"]),
                      tuple(g["w2"]), int(g["n_nodes"]))


def _setup(cfg):
    """Grid, operator, dt, t_final and the step count of a scenario."""
    grid = _grid(cfg)
    op = assemble_fraclap(grid, float(cfg["s"]))
    dt, t_final = float(cfg["dt"]), float(cfg["t_final"])
    return grid, op, dt, t_final, n_steps_for(dt, t_final)


def _gaussian_pulse(grid, exp, dt, nt, t0, t1, center, width):
    """Gaussian over omega times a time bump on (t0, t1), as (nt+1, n_omega)
    samples; the experiment's t0, t1, center and width override the defaults."""
    theta, _ = time_bump(dt * np.arange(nt + 1), float(exp.get("t0", t0)),
                         float(exp.get("t1", t1)))
    prof = field_from_spec(grid, {"kind": "gaussian", "center": exp.get("center", center),
                                  "width": exp.get("width", width)})
    return np.outer(theta, prof)


def _targets_from_cfg(grid, t_final, exp):
    width = exp.get("target_width")
    nodes = exp.get("target_nodes")
    stride = int(exp.get("target_stride", 1))
    if nodes is None:
        nodes = grid.omega[::stride]
    return interior_targets(grid, t_final, nodes=nodes, space_width=width)


def run_forward(cfg, out_dir):
    grid, op, dt, t_final, nt = _setup(cfg)
    exp = cfg["experiment"]
    ctrl = bump_control(grid, exp.get("window", "w1"),
                        float(exp.get("t0", 0.1 * t_final)),
                        float(exp.get("t1", 0.9 * t_final)),
                        dt, nt, amplitude=float(exp.get("amplitude", 1.0)))
    q, f = _model_pieces(grid, cfg, dt, t_final)
    if f is None:
        traj = solve_linear(op, q, ctrl, dt, t_final)
    else:
        traj = solve_nonlinear(op, f, ctrl, dt, t_final)
    trajectory_to_csv(traj, grid, os.path.join(out_dir, "trajectory.csv"))
    om = grid.omega
    metrics = {
        "max_abs_u": float(np.abs(traj.u[:, om]).max()),
        "max_abs_v": float(np.abs(traj.v[:, om]).max()),
        "final_max_abs_u": float(np.abs(traj.u[-1, om]).max()),
        "newton_iterations_total": int(np.sum(traj.newton_iters))
        if traj.newton_iters is not None else 0,
    }
    return metrics, None


def run_energy_check(cfg, out_dir):
    grid, op, dt, t_final, nt = _setup(cfg)
    exp = cfg["experiment"]
    source = _gaussian_pulse(grid, exp, dt, nt, 0.1 * t_final, 0.6 * t_final, 0.5, 0.15)
    q, _f = _model_pieces(grid, cfg, dt, t_final)
    traj = solve_linear(op, q, None, dt, t_final, source=source)
    ledger = energy_ledger(op, traj, q=q, source=source)
    tol = float(exp.get("tolerance", 1e-3))
    res = float(ledger.max_relative_residual)
    return {"max_relative_residual": res, "tolerance": tol}, res <= tol


def run_identity_check(cfg, out_dir):
    grid, op, dt, t_final, nt = _setup(cfg)
    exp = cfg["experiment"]
    variant = exp.get("variant", "self-adjoint")
    amp = float(exp.get("amplitude", 0.1)) if variant == "nonlinear-integral" else 1.0
    phi1 = bump_control(grid, "w1", float(exp.get("t0", 0.05)),
                        float(exp.get("t1", 0.65)), dt, nt, amplitude=amp)
    phi2 = bump_control(grid, "w2", float(exp.get("t2", 0.25)),
                        float(exp.get("t3", 0.90)), dt, nt)
    tol = float(exp.get("tolerance", 1e-3))
    q, f = _model_pieces(grid, cfg, dt, t_final)
    if variant == "nonlinear-integral" and f is None:
        raise ConfigError("nonlinear-integral identity needs model.kind nonlinear")
    if variant == "self-adjoint":
        res, lhs, rhs = self_adjointness_residual(op, q, phi1, phi2, dt, t_final)
    elif variant == "alessandrini":
        q1 = potential_from_spec(grid, exp["q1"], dt, t_final) if "q1" in exp else q
        q2 = potential_from_spec(grid, exp.get("q2", {"kind": "zero"}), dt, t_final)
        lhs, rhs, res = alessandrini_residual(op, q1, q2, phi1, phi2, dt, t_final)
    else:
        lhs, rhs, res = nonlinear_integral_identity_residual(
            op, f, zero_nonlinearity(), phi1, phi2, dt, t_final)
    scale = max(abs(lhs), abs(rhs), 1e-300)
    rel = float(res / scale)
    metrics = {"lhs": float(lhs), "rhs": float(rhs), "residual": float(res),
               "relative_residual": rel, "tolerance": tol, "variant": variant}
    return metrics, rel <= tol


def run_runge(cfg, out_dir):
    grid, op, dt, t_final, nt = _setup(cfg)
    exp = cfg["experiment"]
    target = _gaussian_pulse(grid, exp, dt, nt, 0.2 * t_final, 0.8 * t_final, 0.35, 0.22)
    wt = dt * trapezoid_weights(nt)
    k_om = grid.h * op.omega_block
    tnorm = float(np.sqrt(np.sum(wt * np.einsum("tj,tj->t", target, target @ k_om))))

    levels = [int(v) for v in exp.get("levels", [8, 16, 32])]
    alpha = float(cfg["regularization"]["synth_alpha"])
    window = exp.get("window", "w1")
    errors = []
    q, _f = _model_pieces(grid, cfg, dt, t_final)
    for nseg in levels:
        prob = RungeProblem(target=target, window=window, alpha=alpha,
                            n_segments=nseg)
        _ctrl, err = synthesize_control(op, q, prob, dt, t_final)
        errors.append(float(err))
    rel = [e / tnorm for e in errors]
    tol = float(exp.get("tolerance", 0.2))
    monotone = all(rel[i + 1] <= rel[i] for i in range(len(rel) - 1))
    metrics = {"levels": levels, "errors": errors, "relative_errors": rel,
               "target_norm": tnorm, "monotone": monotone, "tolerance": tol}
    return metrics, monotone and rel[-1] <= tol


def run_invert_linear(cfg, out_dir):
    grid, op, dt, t_final, nt = _setup(cfg)
    exp = cfg["experiment"]
    q_true, f = _model_pieces(grid, cfg, dt, t_final)
    if f is not None:
        raise ConfigError("invert-linear needs model.kind linear")

    nseg = int(exp.get("basis_segments", 16))
    basis1 = ControlBasis(grid, "w1", t_final, nseg)
    basis2 = ControlBasis(grid, "w2", t_final, nseg)
    # the data enter as their difference from the q = 0 background, measured
    # by the difference equation; the noise scales with the data themselves
    background, rec_data = dn_difference_linear(op, q_true, basis1, basis2, dt, t_final,
                                                tag="data")
    level = float(cfg["noise"]["level"])
    sigma = level * np.std(background.pairings + rec_data.pairings)
    rec_data = _add_noise(rec_data, sigma, _noise_rng(cfg))

    targets = _targets_from_cfg(grid, t_final, exp)
    frame = exp.get("frame", "direct")
    q_time_basis = exp.get("q_time_basis")
    reg = cfg["regularization"]
    recon = recover_linear_potential(
        rec_data, op, targets, float(reg["alpha_inv"]), dt, t_final,
        synth_alpha=float(reg["synth_alpha"]),
        q_time_basis=None if q_time_basis is None else int(q_time_basis),
        frame=frame)
    recon.save(os.path.join(out_dir, "reconstruction.json"))
    if q_time_basis is None and np.ndim(q_true) == 1:
        recon.save_csv(os.path.join(out_dir, "reconstruction.csv"), q_true=q_true)

    # compare against the truth in the frame the experiment requested
    if q_time_basis is None:
        truth = q_true if np.ndim(q_true) == 1 else np.mean(q_true, axis=0)
        num = float(np.linalg.norm(recon.values - truth))
        den = float(max(np.linalg.norm(truth), 1e-300))
    else:
        truth = q_true if np.ndim(q_true) == 2 else np.tile(q_true, (nt + 1, 1))
        truth = truth.T  # (n_omega, nt+1) like recon.values
        if frame == "reversed":
            truth = truth[:, ::-1]
        wt = trapezoid_weights(nt)
        num = float(np.sqrt(np.sum(wt[None, :] * (recon.values - truth) ** 2)))
        den = float(max(np.sqrt(np.sum(wt[None, :] * truth ** 2)), 1e-300))
    rel = num / den
    tol = float(exp.get("tolerance", 0.10))
    metrics = {"relative_l2_error": rel, "tolerance": tol, "frame": frame,
               "noise_level": level,
               "fit_residual": recon.diagnostics["fit_residual"],
               "rhs_norm": recon.diagnostics["rhs_norm"],
               "n_targets": len(targets)}
    return metrics, rel <= tol


def run_invert_nonlinear(cfg, out_dir):
    grid, op, dt, t_final, nt = _setup(cfg)
    exp = cfg["experiment"]
    _q, f = _model_pieces(grid, cfg, dt, t_final)
    if f is None:
        raise ConfigError("invert-nonlinear needs model.kind nonlinear")

    amp = float(exp.get("psi_amplitude", 50.0))
    psi = bump_control(grid, "w1", 0.1 * t_final, 0.9 * t_final, dt, nt,
                       amplitude=amp)
    nseg = int(exp.get("basis_segments", 16))
    basis2 = ControlBasis(grid, "w2", t_final, nseg)
    eps_list = [float(e) for e in exp.get("eps_list", [1e-1, 3e-2, 1e-2])]
    r_est, diag = estimate_homogeneity_exponent(op, f, psi, basis2, eps_list,
                                                dt, t_final)

    targets = _targets_from_cfg(grid, t_final, exp)
    reg = cfg["regularization"]
    eps0 = float(exp.get("eps0", 1e-1))
    recon = recover_nonlinear_coefficient(
        op, f, round(r_est) if exp.get("round_exponent", True) else r_est,
        targets, eps0, float(reg["alpha_inv"]), dt, t_final, psi=psi,
        synth_alpha=float(reg["synth_alpha"]), n_segments=nseg)
    recon.save(os.path.join(out_dir, "reconstruction.json"))
    recon.save_csv(os.path.join(out_dir, "reconstruction.csv"), q_true=f.coeff)

    cov = recon.covered
    num = float(np.linalg.norm(recon.values[cov] - f.coeff[cov]))
    den = float(max(np.linalg.norm(f.coeff[cov]), 1e-300))
    rel = num / den
    r_tol = float(exp.get("exponent_tolerance", 0.1))
    c_tol = float(exp.get("tolerance", 0.15))
    metrics = {"r_true": f.r, "r_est": float(r_est),
               "exponent_tolerance": r_tol,
               "relative_l2_error_covered": rel, "tolerance": c_tol,
               "n_covered": int(cov.sum()), "n_omega": int(len(cov)),
               "eps_differences": diag["differences"]}
    return metrics, (abs(r_est - f.r) <= r_tol) and rel <= c_tol


RUNNERS = {
    "forward": run_forward,
    "energy-check": run_energy_check,
    "identity-check": run_identity_check,
    "runge": run_runge,
    "invert-linear": run_invert_linear,
    "invert-nonlinear": run_invert_nonlinear,
}


def run_scenario(cfg, out_dir=None):
    """Run one experiment; returns the report dict and writes report.json."""
    cfg = _merge(DEFAULTS, cfg)
    validate_config(cfg)
    out_dir = out_dir or cfg.get("out_dir", "out")
    os.makedirs(out_dir, exist_ok=True)
    kind = cfg["experiment"]["kind"]
    start = time.time()
    metrics, passed = RUNNERS[kind](cfg, out_dir)
    report = {
        "experiment": kind,
        "config": cfg,
        "metrics": metrics,
        "passed": passed,
        "runtime_seconds": round(time.time() - start, 3),
    }
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(report, fh, indent=2)
    return report


def compare_reports(path_a, path_b):
    """Metric-by-metric comparison of two report files."""
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
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
    """Run the scenario once per value of a dotted config parameter."""
    reports = []
    for val in values:
        sub = copy.deepcopy(cfg)
        _set_by_path(sub, param, val)
        validate_config(sub)
        sub_dir = os.path.join(out_dir, f"{param.replace('.', '_')}_{val}")
        reports.append(run_scenario(sub, sub_dir))
    summary = {
        "param": param,
        "values": list(values),
        "passed": [r["passed"] for r in reports],
        "metrics": [r["metrics"] for r in reports],
    }
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2)
    return summary
