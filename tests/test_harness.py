"""Scenario configs, experiment drivers, report files, and the CLI."""

import json
import re
from pathlib import Path

import numpy as np
import pytest
import yaml
from numpy.testing import assert_allclose

from viscowave import (BackgroundStates, ConfigError, ControlBasis, build_grid, bump_control,
                       compare_reports, dn_matrix_linear, dn_remainders_nonlinear,
                       estimate_homogeneity_exponent, load_config,
                       recover_nonlinear_coefficient, run_scenario, synthesize_control)
from viscowave import dnmap, harness, inversion, solver
from viscowave.cli import main
from viscowave.harness import (DEFAULTS, RUNNERS, _add_noise, _gaussian_pulse, _merge,
                               _set_by_path, _setup, field_from_spec, potential_from_spec,
                               sweep_scenario, validate_config)

from test_solver import _crank_nicolson, _linear_step


def small_cfg(**overrides):
    base = {"grid": {"n_nodes": 31}, "dt": 0.02}
    return _merge(DEFAULTS, _merge(base, overrides))


def write_yaml(path, payload):
    path.write_text(yaml.safe_dump(payload))
    return str(path)


# ------------------------------------------------------------- config


def test_load_config_merges_defaults(tmp_path):
    path = write_yaml(tmp_path / "c.yaml", {"dt": 0.02,
                                            "grid": {"n_nodes": 31}})
    cfg = load_config(path)
    assert cfg["dt"] == 0.02
    assert cfg["grid"]["n_nodes"] == 31
    assert cfg["grid"]["box"] == [-1.0, 2.0]  # untouched default
    assert cfg["experiment"]["kind"] == "forward"


def test_load_config_rejects_unknown_keys(tmp_path):
    path = write_yaml(tmp_path / "c.yaml", {"dt": 0.02, "bogus": 1})
    with pytest.raises(ConfigError, match="unknown keys"):
        load_config(path)


def test_load_config_rejects_non_mapping(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text("- 1\n- 2\n")
    with pytest.raises(ConfigError, match="must be a mapping"):
        load_config(str(path))


def test_validate_config_errors():
    with pytest.raises(ConfigError, match="experiment.kind"):
        validate_config(small_cfg(experiment={"kind": "bogus"}))
    with pytest.raises(ConfigError, match="model.kind"):
        validate_config(small_cfg(model={"kind": "quadratic"}))
    with pytest.raises(ConfigError, match="outside"):
        validate_config(small_cfg(s=1.5))
    with pytest.raises(ConfigError, match="positive"):
        validate_config(small_cfg(dt=-0.01))
    with pytest.raises(ConfigError, match="nonnegative"):
        validate_config(small_cfg(noise={"level": -0.5}))
    with pytest.raises(ConfigError, match=r"unknown keys \['bogus'\]"):
        validate_config(small_cfg(bogus=1))


VARIANTS = ("self-adjoint", "alessandrini", "nonlinear-integral")
# A value each key's read accepts on the 31-node grid; any other key takes 0.5.
SAMPLES = {"window": "w2", "frame": "reversed", "variant": "alessandrini",
           "levels": [8, 16], "basis_segments": 8, "q_time_basis": 2, "target_stride": 2,
           "target_nodes": [15], "eps_list": [0.1, 0.05], "round_exponent": False,
           "q": {"kind": "zero"}, "q1": {"kind": "zero"}, "q2": {"kind": "zero"},
           "coeff": {"kind": "constant", "value": 2.0}, "r": 2}


def _scenarios():
    """(section, kind, overrides) of each model kind's default scenario and
    each experiment kind's, once per identity-check variant."""
    for kind in ("linear", "nonlinear"):
        yield "model", kind, {"model": {"kind": kind}}
    for kind in RUNNERS:
        for variant in VARIANTS if kind == "identity-check" else (None,):
            nonlinear = kind == "invert-nonlinear" or variant == "nonlinear-integral"
            yield "experiment", kind, {"experiment": {"kind": kind, "variant": variant},
                                       "model": {"kind": "nonlinear" if nonlinear else "linear"}}


def _keys_read(overrides):
    """The keys besides kind that validating small_cfg(**overrides) reads, by section."""
    read = {}
    done = harness._Section.done

    def recording(section, *args):
        read[section.name] = section.asked - {"kind"}
        return done(section, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness._Section, "done", recording)
        validate_config(small_cfg(**overrides))
    return read


def test_accepted_keys_follow_the_kind():
    # a key of one kind is unknown to another
    with pytest.raises(ConfigError, match=r"unknown experiment keys \['levels'\]"):
        validate_config(small_cfg(experiment={"kind": "forward", "levels": [8]}))
    with pytest.raises(ConfigError, match=r"unknown model keys \['coeff'\]"):
        validate_config(small_cfg(model={"kind": "linear", "coeff": {"kind": "zero"}}))
    # every key a kind reads takes a value of its type, and a null
    for section, kind, overrides in _scenarios():
        for key in _keys_read(overrides)[section]:
            for value in (SAMPLES.get(key, 0.5), None):
                validate_config(small_cfg(**_merge(overrides, {section: {key: value}})))


def test_readme_lists_the_accepted_keys():
    # both ways: each key a kind's reads ask for is in its README bullet, and
    # each key the bullet lists validates with a sample value
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    scenarios = text.split("### Scenario files")[1].split("### Output files")[0]
    items = [b.split("\n\n")[0] for b in re.split(r"\n- ", scenarios)[1:]]
    bullets = {b.split("`")[1]: set(b.split("Keys:")[1].split("`")[1::2])
               for b in items if "Keys:" in b}
    read = {}
    for section, kind, overrides in _scenarios():
        keys = _keys_read(overrides)[section]
        read.setdefault(kind, set()).update(keys)
        for key in keys & bullets.get(kind, set()):
            sample = {section: {key: SAMPLES.get(key, 0.5)}}
            validate_config(small_cfg(**_merge(overrides, sample)))
    assert read.keys() == bullets.keys()
    for kind, keys in read.items():
        assert keys == bullets[kind], (kind, keys ^ bullets[kind])


def test_readme_scenario_block_is_the_defaults():
    # the README's scenario block shows the defaults omitted keys take
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    scenarios = text.split("### Scenario files")[1].split("### Output files")[0]
    block = scenarios.split("```yaml\n")[1].split("```")[0]
    assert yaml.safe_load(block) == DEFAULTS


def test_field_from_spec_kinds(grid31):
    x = grid31.x[grid31.omega]
    assert np.all(field_from_spec(grid31, {"kind": "zero"}) == 0.0)
    assert np.all(field_from_spec(grid31, {"kind": "constant", "value": 2.5}) == 2.5)
    g = field_from_spec(grid31, {"kind": "gaussian", "amplitude": 2.0,
                                 "center": 0.5, "width": 0.2})
    assert_allclose(g, 2.0 * np.exp(-((x - 0.5) / 0.2) ** 2))
    s = field_from_spec(grid31, {"kind": "sine", "offset": 1.0,
                                 "amplitude": 0.3, "frequency": 1.0})
    assert_allclose(s, 1.0 + 0.3 * np.sin(2 * np.pi * x))
    with pytest.raises(ConfigError, match=r"^profile.kind must be one of \('zero', "
                                          r"'constant', 'gaussian', 'sine'\), got 'sawtooth'$"):
        field_from_spec(grid31, {"kind": "sawtooth"})


def test_potential_from_spec_time_shapes(grid31):
    prof = field_from_spec(grid31, {"kind": "constant", "value": 2.0})
    static = potential_from_spec(grid31, {"kind": "constant", "value": 2.0},
                                 0.02, 1.0)
    assert static.shape == prof.shape
    ramp = potential_from_spec(grid31, {"kind": "constant", "value": 2.0,
                                        "time": "ramp"}, 0.02, 1.0)
    t = 0.02 * np.arange(51)
    assert_allclose(ramp, np.outer(t, prof))
    rev = potential_from_spec(grid31, {"kind": "constant", "value": 2.0,
                                       "time": "reversed-ramp"}, 0.02, 1.0)
    assert_allclose(rev, np.outer(1.0 - t, prof))
    with pytest.raises(ConfigError, match=r"^potential.time must be one of \('constant', "
                                          r"'ramp', 'reversed-ramp'\), got 'sinusoid'$"):
        potential_from_spec(grid31, {"kind": "zero", "time": "sinusoid"},
                            0.02, 1.0)


def test_set_by_path_creates_nested_keys():
    cfg = {"a": {"b": 1}}
    _set_by_path(cfg, "a.b", 2)
    _set_by_path(cfg, "c.d.e", 3)
    assert cfg == {"a": {"b": 2}, "c": {"d": {"e": 3}}}


def test_add_noise_zero_level_is_identity(op31, grid31):
    from viscowave.controls import ControlBasis
    from viscowave.dnmap import dn_matrix_linear

    basis1 = ControlBasis(grid31, "w1", 0.02, 1.0, 8)
    basis2 = ControlBasis(grid31, "w2", 0.02, 1.0, 8)
    rec = dn_matrix_linear(op31, None, basis1, basis2)
    rng = np.random.default_rng(0)
    assert _add_noise(rec, 0.0, rng) is rec
    noisy = _add_noise(rec, 0.1, rng)
    assert noisy.tag.endswith("+noise")
    assert not np.array_equal(noisy.pairings, rec.pairings)


# ---------------------------------------------------------- experiments


def test_forward_scenario_writes_report_and_trajectory(tmp_path):
    cfg = small_cfg()
    report = run_scenario(cfg, str(tmp_path / "out"))
    assert (tmp_path / "out" / "report.json").exists()
    assert (tmp_path / "out" / "trajectory.csv").exists()
    assert report["passed"] is None
    assert report["metrics"]["max_abs_u"] > 0
    assert report["metrics"]["newton_iterations_total"] == 0
    on_disk = json.loads((tmp_path / "out" / "report.json").read_text())
    assert on_disk["experiment"] == "forward"
    assert on_disk["metrics"] == report["metrics"]


def test_energy_check_scenario_passes(tmp_path):
    cfg = small_cfg(experiment={"kind": "energy-check"})
    report = run_scenario(cfg, str(tmp_path / "out"))
    assert report["passed"] is True
    assert report["metrics"]["max_relative_residual"] <= 1e-3


LINEAR_Q = {"kind": "linear", "q": {"kind": "constant", "value": 0.5}}


@pytest.mark.parametrize("variant, model, extra", [
    ("self-adjoint", LINEAR_Q, {}),
    ("alessandrini", LINEAR_Q, {"q2": {"kind": "gaussian", "amplitude": 0.3}}),
    ("nonlinear-integral", {"kind": "nonlinear", "r": 2,
                            "coeff": {"kind": "constant", "value": 1.0}}, {}),
], ids=["self-adjoint", "alessandrini", "nonlinear-integral"])
def test_identity_check_scenario(tmp_path, variant, model, extra):
    cfg = small_cfg(experiment={"kind": "identity-check", "variant": variant,
                                **extra},
                    model=model, dt=0.005)
    report = run_scenario(cfg, str(tmp_path / "out"))
    assert report["passed"] is True
    assert report["metrics"]["variant"] == variant
    assert report["metrics"]["lhs"] != 0.0


def test_invert_linear_reproducible_across_runs(tmp_path):
    cfg = small_cfg(
        seed=3, noise={"level": 1e-3},
        model={"kind": "linear", "q": {"kind": "gaussian", "amplitude": 0.5,
                                       "center": 0.5, "width": 0.2}},
        experiment={"kind": "invert-linear", "basis_segments": 8,
                    "target_stride": 2},
        regularization={"alpha_inv": 1e-2, "synth_alpha": 1e-12})
    r1 = run_scenario(cfg, str(tmp_path / "a"))
    r2 = run_scenario(cfg, str(tmp_path / "b"))
    assert r1["metrics"] == r2["metrics"]
    assert (tmp_path / "a" / "reconstruction.json").exists()
    assert (tmp_path / "a" / "reconstruction.csv").exists()
    other = _merge(cfg, {"seed": 4})
    r3 = run_scenario(other, str(tmp_path / "c"))
    assert (r3["metrics"]["relative_l2_error"]
            != r1["metrics"]["relative_l2_error"])


def _linear_cfg(**overrides):
    return small_cfg(
        model={"kind": "linear", "q": {"kind": "gaussian", "amplitude": 0.5,
                                       "center": 0.5, "width": 0.2}},
        experiment={"kind": "invert-linear", "basis_segments": 8, "target_stride": 2},
        **overrides)


def test_invert_linear_solves_each_control_once_per_pass(tmp_path, monkeypatch):
    # three passes over a basis: the background states on w1, which the data
    # and the synthesis share, the data's difference from them on w1, and the
    # background states on w2 for the synthesis; none samples a control on
    # the full grid
    materialized, stepped, factored = [], [], []

    def counting(calls, fn, size=lambda *a: 1):
        def wrapper(*args, **kwargs):
            calls.append(size(*args))
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ControlBasis, "control", counting(materialized, ControlBasis.control))
    monkeypatch.setattr(solver, "_step_linear", counting(
        stepped, solver._step_linear,
        lambda maps, drive, *rest: drive.shape[1] if drive.ndim == 3 else 1))
    monkeypatch.setattr(solver, "lu_factor", counting(factored, solver.lu_factor))
    cfg = _linear_cfg()
    run_scenario(cfg, str(tmp_path / "out"))
    grid = build_grid(*(cfg["grid"][k] for k in ("box", "omega", "w1", "w2", "n_nodes")))
    n_basis = len(ControlBasis(grid, "w1", cfg["dt"], cfg["t_final"], 8))
    assert n_basis == len(ControlBasis(grid, "w2", cfg["dt"], cfg["t_final"], 8))
    assert materialized == []
    assert sum(stepped) == 3 * n_basis
    # one static factorization per pass: q = 0 twice, the gaussian once
    assert len(factored) == 3


def _count_stepped_rows(monkeypatch):
    """Rows of each _step_linear call, and of each lu_factor call one entry."""
    stepped, factored = [], []
    step, factor = solver._step_linear, solver.lu_factor

    def counting_step(maps, drive, *rest):
        stepped.append(drive.shape[1] if drive.ndim == 3 else 1)
        return step(maps, drive, *rest)

    def counting_factor(*args):
        factored.append(1)
        return factor(*args)

    monkeypatch.setattr(solver, "_step_linear", counting_step)
    monkeypatch.setattr(solver, "lu_factor", counting_factor)
    return stepped, factored


def test_invert_linear_steps_the_seeds_once_per_pass(tmp_path, monkeypatch):
    # at 10 segments a knot is 5 of the 50 steps, so each spline is the
    # first one delayed by whole steps: the three passes step one seed per
    # window node, and the static potentials still factor once per pass
    stepped, factored = _count_stepped_rows(monkeypatch)
    cfg = _merge(_linear_cfg(), {"experiment": {"basis_segments": 10}})
    run_scenario(cfg, str(tmp_path / "out"))
    grid = _setup(cfg)[0].grid
    bases = [ControlBasis(grid, w, cfg["dt"], cfg["t_final"], 10) for w in ("w1", "w2")]
    n_nodes, n_seeds = len(bases[0].nodes), 1
    assert n_nodes == len(bases[1].nodes) and len(bases[0]) == 5 * n_nodes
    assert stepped == [n_nodes * n_seeds] * 3
    assert len(factored) == 3


def test_time_dependent_pass_steps_at_most_a_block(tmp_path, monkeypatch):
    # a ramp potential shifts nothing: its difference pass steps every
    # element, CONTROL_BLOCK rows at a time, while the q = 0 background
    # passes step their seeds
    stepped, _ = _count_stepped_rows(monkeypatch)
    monkeypatch.setattr(solver, "CONTROL_BLOCK", 8)
    cfg = _merge(_linear_cfg(), {"experiment": {"basis_segments": 10, "frame": "reversed",
                                                "q_time_basis": 3},
                                 "model": {"q": {"time": "ramp"}}})
    run_scenario(cfg, str(tmp_path / "out"))
    basis = ControlBasis(_setup(cfg)[0].grid, "w1", cfg["dt"], cfg["t_final"], 10)
    n_nodes = len(basis.nodes)
    assert max(stepped) <= 8
    assert sorted(stepped) == sorted([8] * (len(basis) // 8) + [len(basis) % 8]
                                     + [n_nodes] * 2)


def test_invert_linear_shares_a_fresh_background(tmp_path, monkeypatch):
    # the data's difference record and the recovery read one w1 background,
    # bitwise what a fresh BackgroundStates of q = 0 holds
    seen = []

    def spy(name):
        fn = getattr(harness, name)

        def wrapper(record_or_q, background, *args, **kwargs):
            seen.append(background)
            return fn(record_or_q, background, *args, **kwargs)
        return wrapper

    for name in ("dn_difference_linear", "recover_linear_potential"):
        monkeypatch.setattr(harness, name, spy(name))
    cfg = _linear_cfg()
    run_scenario(cfg, str(tmp_path / "out"))
    run, op = _setup(cfg)
    fresh = BackgroundStates(op, None, ControlBasis(op.grid, "w1", run.dt, run.t_final, 8))
    shared = seen[0]
    assert len(seen) == 2 and seen[1] is shared and shared.q is None
    assert (shared.basis.window, shared.basis.n_segments) == ("w1", 8)
    for name in ("states", "gram", "control_gram", "time_weights"):
        assert getattr(shared, name).tobytes() == getattr(fresh, name).tobytes(), name


def _velocity_form_difference(op, q, basis1, basis2, dt, t_final):
    """Difference pairings stepped from the background (u, v), the drive's
    form before it read the displacements alone, through the closure loop
    that stepped the linear equation before the step maps."""
    nt = solver.n_steps_for(dt, t_final)
    hdt = 0.5 * dt
    dq = np.broadcast_to(q, (nt + 1, op.grid.omega.size))[:, None, :]
    explicit, implicit = _linear_step(op, q, dt, nt)
    both = solver.solve_linear_basis(op, None, basis1,
                                     lambda u, v: np.stack((u, v), axis=2))
    u, v = both[:, :, 0].transpose(1, 0, 2), both[:, :, 1].transpose(1, 0, 2)
    u_base = u[:-1] + hdt * v[:-1]
    drive = -hdt * ((dq[:-1] * u[:-1] + dq[1:] * u_base) + hdt * (dq[1:] * v[1:]))
    w, z = _crank_nicolson(op, drive, dt, None, None, explicit, implicit)
    flux = op.grid.h * ((w + z) @ op.matrix[np.ix_(op.grid.omega, basis2.nodes)])
    return dnmap._pair_fluxes(flux.transpose(1, 0, 2), basis2)


def test_noise_scale_is_that_of_the_background_plus_difference(tmp_path, monkeypatch):
    # sigma = level * std(P_bg + dP), as when the data pass measured the
    # background record itself and drove the difference from (u, v)
    sigmas = []

    def spy(record, sigma, rng):
        sigmas.append(sigma)
        return _add_noise(record, sigma, rng)

    monkeypatch.setattr(harness, "_add_noise", spy)
    cfg = _linear_cfg(noise={"level": 1e-3})
    run_scenario(cfg, str(tmp_path / "out"))
    run, op = _setup(cfg)
    grid, dt, t_final = run.grid, run.dt, run.t_final
    basis1, basis2 = (ControlBasis(grid, w, dt, t_final, 8) for w in ("w1", "w2"))
    q = potential_from_spec(grid, cfg["model"]["q"], dt, t_final)
    p_bg = dn_matrix_linear(op, None, basis1, basis2).pairings
    ref = 1e-3 * np.std(p_bg + _velocity_form_difference(op, q, basis1, basis2, dt, t_final))
    assert len(sigmas) == 1
    assert abs(sigmas[0] - ref) <= 1e-12 * ref


def _inversion_outputs(tmp_path, name, frame, q_time="ramp", q_time_basis=3):
    """reconstruction.json of a small invert-linear run in the given frame."""
    cfg = _merge(_linear_cfg(), {"experiment": {"frame": frame, "q_time_basis": q_time_basis},
                                 "model": {"q": {"time": q_time}}})
    run_scenario(cfg, str(tmp_path / name))
    return json.loads((tmp_path / name / "reconstruction.json").read_text())


def test_reversed_frame_writes_the_direct_estimate_reversed(tmp_path):
    # the recovery estimates on the forward time axis and the runner orients
    # a time-dependent estimate; a static one does not depend on the frame
    direct = _inversion_outputs(tmp_path, "direct", "direct")
    reversed_ = _inversion_outputs(tmp_path, "reversed", "reversed")
    flipped = np.ascontiguousarray(np.asarray(direct["q_est"])[:, ::-1])
    assert np.asarray(reversed_["q_est"]).tobytes() == flipped.tobytes()
    assert direct["diagnostics"].pop("frame") == "direct"
    assert reversed_["diagnostics"].pop("frame") == "reversed"
    assert reversed_["diagnostics"] == direct["diagnostics"]
    static = [_inversion_outputs(tmp_path, f"static-{frame}", frame, "constant", None)
              for frame in ("direct", "reversed")]
    assert static[0]["q_est"] == static[1]["q_est"]
    assert list(static[1]["diagnostics"])[0] == "frame"


@pytest.mark.parametrize("eps_list, n_nonlinear",
                         [([0.1, 0.03, 0.01], 4), ([0.1, 0.1, 0.03], 3)],
                         ids=["distinct", "repeated"])
def test_invert_nonlinear_reads_what_two_sweeps_measure(tmp_path, monkeypatch, eps_list,
                                                        n_nonlinear):
    # the exponent fit read a sweep over eps_list and the coefficient one
    # over (eps0, eps0 / 2); one sweep over both gives them bitwise, and a
    # repeated amplitude still counts once per entry in the fit.  The run
    # solves psi once, and once each distinct amplitude of eps_list and of
    # (eps0, eps0 / 2), where eps0 = 0.1 is in both
    cfg = small_cfg(model={"kind": "nonlinear", "r": 2,
                           "coeff": {"kind": "sine", "offset": 1.0, "amplitude": 0.3}},
                    experiment={"kind": "invert-nonlinear", "basis_segments": 8,
                                "eps_list": eps_list})
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    with monkeypatch.context() as patch:
        for module in (dnmap, harness, inversion):
            for name in ("solve_linear", "solve_nonlinear"):
                patch.setattr(module, name, counting(name, getattr(solver, name)),
                              raising=False)
        report = run_scenario(cfg, str(tmp_path / "out"))
    assert sorted(calls) == ["solve_linear"] + ["solve_nonlinear"] * n_nonlinear
    run, op = _setup(cfg)
    psi = bump_control(run.grid, "w1", 0.1 * run.t_final, 0.9 * run.t_final, run.dt, run.nt,
                       amplitude=run.psi_amplitude)
    basis2 = ControlBasis(run.grid, "w2", run.dt, run.t_final, 8)
    _, p_lin, fit = dn_remainders_nonlinear(op, run.f, psi, basis2, eps_list)
    r_est, diag = estimate_homogeneity_exponent(eps_list, fit, p_lin)
    lin, _, pair = dn_remainders_nonlinear(op, run.f, psi, basis2, (run.eps0, 0.5 * run.eps0))
    recon = recover_nonlinear_coefficient(op, lin, pair, basis2, round(r_est), run.eps0,
                                          run.alpha_inv, synth_alpha=run.synth_alpha,
                                          target_nodes=run.target_nodes,
                                          target_width=run.target_width)
    assert report["metrics"]["r_est"] == r_est
    assert report["metrics"]["eps_differences"] == diag["differences"]
    assert len(diag["differences"]) == len(eps_list)
    saved = json.loads((tmp_path / "out" / "reconstruction.json").read_text())
    np.testing.assert_array_equal(np.asarray(saved["coeff"], dtype=float), recon.coeff)


def test_runge_errors_are_those_of_synthesize_control(tmp_path):
    # run_runge keeps each level's tracking error from synthesize_control,
    # bitwise what a call of its own returns
    exp = {"kind": "runge", "levels": [8, 16], "window": "w2", "center": 0.4,
           "width": 0.2, "t0": 0.2, "t1": 0.8}
    cfg = small_cfg(experiment=exp)
    report = run_scenario(cfg, str(tmp_path / "out"))
    run, op = _setup(_merge(DEFAULTS, cfg))
    dt, t_final = run.dt, run.t_final
    target = _gaussian_pulse(run.grid, dt, run.nt, 0.2, 0.8, 0.4, 0.2)
    alpha = DEFAULTS["regularization"]["synth_alpha"]
    assert report["metrics"]["errors"] == [
        synthesize_control(op, None, target, "w2", dt, t_final, alpha, n)[1] for n in (8, 16)]


def test_sweep_refines_energy_residual(tmp_path):
    cfg = small_cfg(experiment={"kind": "energy-check"})
    summary = sweep_scenario(cfg, "dt", [0.02, 0.01], str(tmp_path / "sw"))
    assert (tmp_path / "sw" / "summary.json").exists()
    res = [m["max_relative_residual"] for m in summary["metrics"]]
    assert res[0] / res[1] == pytest.approx(4.0, rel=0.3)
    assert summary["passed"] == [True, True]


def test_compare_reports_and_mismatch(tmp_path):
    cfg = small_cfg()
    run_scenario(cfg, str(tmp_path / "a"))
    run_scenario(cfg, str(tmp_path / "b"))
    text = compare_reports(str(tmp_path / "a" / "report.json"),
                           str(tmp_path / "b" / "report.json"))
    assert text.startswith("experiment: forward")
    assert "max_abs_u" in text and "rel diff 0.000e+00" in text
    run_scenario(small_cfg(experiment={"kind": "energy-check"}),
                 str(tmp_path / "c"))
    with pytest.raises(ConfigError, match="cannot compare"):
        compare_reports(str(tmp_path / "a" / "report.json"),
                        str(tmp_path / "c" / "report.json"))


# ----------------------------------------------------------------- CLI


def test_cli_run_exit_zero(tmp_path, capsys):
    path = write_yaml(tmp_path / "c.yaml",
                      {"grid": {"n_nodes": 31}, "dt": 0.02})
    code = main(["run", path, "--out", str(tmp_path / "out")])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["experiment"] == "forward"
    assert (tmp_path / "out" / "report.json").exists()


def test_cli_missing_config_exit_two(tmp_path, capsys):
    code = main(["run", str(tmp_path / "nope.yaml")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_cli_invalid_config_exit_two(tmp_path, capsys):
    path = write_yaml(tmp_path / "c.yaml", {"bogus": 1})
    assert main(["run", path]) == 2
    path2 = write_yaml(tmp_path / "c2.yaml", {"s": 1.7})
    assert main(["run", path2]) == 2


@pytest.mark.parametrize("text", ["dt: [1\n", "dt: abc\n", "dt: 0.03\n", "experiment: 3\n",
                                  "grid: {n_nodes: abc}\n", "seed: abc\n",
                                  "grid: {nodes: 101}\n", "regularization: {alpa_inv: 0.5}\n",
                                  "noise: {levle: 0.1}\n",
                                  "experiment: {kind: energy-check, tolerence: 1.0e-9}\n",
                                  "model: {kind: linear, r: 2}\n",
                                  "experiment: {kind: forward, window: w3}\n",
                                  "experiment: {kind: invert-linear, frame: backwards}\n",
                                  "experiment: {kind: invert-linear, q_time_basis: abc}\n",
                                  "experiment: {kind: forward, amplitude: abc}\n",
                                  "experiment: {kind: runge, levels: [8, x]}\n",
                                  "experiment: {kind: invert-linear, basis_segments: 4}\n",
                                  "experiment: {kind: runge, levels: [4, 8]}\n",
                                  "regularization: {alpha_inv: abc}\n",
                                  "regularization: {synth_alpha: [1]}\n",
                                  "model: {kind: nonlinear, r: abc}\n",
                                  "grid: {n_nodes: 31}\n"
                                  "experiment: {kind: invert-linear, target_nodes: [500]}\n",
                                  "dt: .nan\n", "t_final: .inf\n", "noise: {level: .nan}\n",
                                  "regularization: {synth_alpha: -1}\n",
                                  "regularization: {alpha_inv: -1}\n",
                                  "regularization: {alpha_inv: .inf}\n",
                                  "grid: {n_nodes: .inf}\n",
                                  "experiment: {kind: forward, amplitude: .nan}\n",
                                  "experiment: {kind: invert-linear, basis_segments: .inf}\n",
                                  "model: {kind: linear, q: {kind: gaussian, amplitude: abc}}\n",
                                  "model: {kind: linear, q: {kind: gaussian, center: [1, 2]}}\n",
                                  "model: {kind: linear, q: {kind: gaussian, amplitude: .nan}}\n",
                                  "model: {kind: linear, q: {kind: gaussian, width: 0}}\n",
                                  "model: {kind: linear, q: {kind: gaussian, amplitud: 2}}\n",
                                  "model: {kind: linear, q: {kind: sawtooth}}\n",
                                  "model: {kind: linear, q: {kind: zero, time: sinusoid}}\n",
                                  "model: {kind: linear, q: 3}\n",
                                  "model: {kind: nonlinear, coeff: {kind: constant}}\n",
                                  "model: {kind: nonlinear,\n"
                                  "        coeff: {kind: constant, value: 1, time: ramp}}\n",
                                  "experiment: {kind: identity-check, variant: alessandrini,\n"
                                  "             q1: {kind: sine, frequency: .inf}}\n",
                                  "grid: {box: [-1.0, abc]}\n", "grid: {box: 3}\n",
                                  "grid: {w1: [-0.8]}\n", "grid: {n_nodes: 31.7}\n",
                                  "experiment: {kind: runge, levels: [8.5, 16]}\n",
                                  "experiment: {kind: runge, width: 0}\n",
                                  "grid: {n_nodes: 31}\n"
                                  "experiment: {kind: invert-linear, target_width: 0}\n",
                                  "model: {kind: nonlinear}\n"
                                  "experiment: {kind: invert-nonlinear, eps0: 0}\n",
                                  "model: {kind: nonlinear}\n"
                                  "experiment: {kind: invert-nonlinear, eps_list: [0.1, -0.01]}\n",
                                  "model: {kind: nonlinear, r: -1}\n", "seed: 1.5\n",
                                  "grid: {n_nodes: 31}\nseed: -1\nnoise: {level: 0.001}\n"
                                  "experiment: {kind: invert-linear}\n",
                                  "out_dir: 3\n",
                                  "experiment: {kind: forward, t0: 0.5, t1: 0.5}\n",
                                  "experiment: {kind: forward, t0: 0}\n",
                                  "experiment: {kind: energy-check, t0: 0.5, t1: 0.5}\n",
                                  "experiment: {kind: runge, t0: 0.6, t1: 0.2}\n",
                                  "experiment: {kind: identity-check, t2: 0.9, t3: 0.25}\n",
                                  "experiment: {kind: identity-check, t0: 0.001}\n",
                                  "experiment: {kind: runge, levels: [8, 300]}\n",
                                  "model: {kind: nonlinear}\n"
                                  "experiment: {kind: invert-nonlinear, eps_list: [0.1]}\n",
                                  "model: {kind: nonlinear}\n"
                                  "experiment: {kind: invert-nonlinear, eps_list: [0.1, 0.1]}\n",
                                  "grid: {n_nodes: 31}\ndt: 0.25\nmodel: {kind: nonlinear}\n"
                                  "experiment: {kind: invert-nonlinear, basis_segments: 7}\n",
                                  "dt: 0.125\nmodel: {kind: nonlinear}\n"
                                  "experiment: {kind: invert-nonlinear, basis_segments: 7}\n",
                                  "dt: 0.02\nexperiment: {kind: invert-linear, basis_segments: 51}\n",
                                  "dt: 0.02\nmodel: {kind: nonlinear}\n"
                                  "experiment: {kind: invert-nonlinear, basis_segments: 64}\n",
                                  "grid: {n_nodes: 31}\n"
                                  "model: {kind: nonlinear, r: 2, q: {kind: constant, value: 50}}\n"
                                  "experiment: {kind: forward}\n",
                                  "model: {kind: nonlinear, q: {kind: gaussian}}\n"
                                  "experiment: {kind: invert-nonlinear}\n",
                                  "model: {kind: nonlinear, q: {kind: sine, time: ramp}}\n"
                                  "experiment: {kind: identity-check, variant: nonlinear-integral}\n",
                                  "grid: {n_nodes: 31}\n"
                                  "model: {kind: linear, q: {kind: constant, value: 50}}\n"
                                  "experiment: {kind: identity-check, variant: alessandrini,\n"
                                  "             q1: {kind: constant, value: 1}}\n"],
                         ids=["malformed-yaml", "non-numeric-dt", "dt-not-dividing-t_final",
                              "non-mapping-section", "non-numeric-n_nodes",
                              "non-numeric-seed", "unknown-grid-key",
                              "unknown-regularization-key", "unknown-noise-key",
                              "unknown-experiment-key", "unknown-model-key",
                              "unknown-window", "unknown-frame", "non-integer-q_time_basis",
                              "non-numeric-amplitude", "non-integer-level",
                              "too-few-basis-segments", "too-few-level-segments",
                              "non-numeric-alpha_inv", "non-numeric-synth_alpha",
                              "non-numeric-r", "target-node-outside-omega",
                              "nan-dt", "infinite-t_final", "nan-noise-level",
                              "negative-synth_alpha", "negative-alpha_inv",
                              "infinite-alpha_inv", "infinite-n_nodes", "nan-amplitude",
                              "infinite-basis-segments", "non-numeric-profile-amplitude",
                              "list-profile-center", "nan-profile-amplitude",
                              "zero-profile-width", "unknown-profile-key",
                              "unknown-profile-kind", "unknown-time-dependence",
                              "non-mapping-profile", "constant-without-value",
                              "time-dependent-coefficient", "infinite-q1-frequency",
                              "non-numeric-box-corner", "non-list-box", "one-number-window",
                              "fractional-n_nodes", "fractional-level", "zero-runge-width",
                              "zero-target-width", "zero-eps0", "negative-eps",
                              "negative-r", "fractional-seed", "negative-seed-with-noise",
                              "non-string-out_dir", "empty-forward-window",
                              "forward-window-before-dt", "empty-energy-pulse",
                              "swapped-runge-pulse", "swapped-identity-window",
                              "identity-window-before-dt", "runge-level-above-steps",
                              "one-eps", "repeated-eps", "invert-nonlinear-at-four-steps",
                              "probe-before-dt", "invert-linear-level-above-steps",
                              "invert-nonlinear-level-above-steps",
                              "potential-of-a-nonlinear-forward-run",
                              "potential-of-invert-nonlinear",
                              "potential-of-the-nonlinear-integral-identity",
                              "potential-beside-alessandrini-q1"])
def test_cli_bad_value_exit_two_one_line(tmp_path, capsys, monkeypatch, text):
    # run without --out, so that the scenario's own out_dir is the one used
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "c.yaml"
    path.write_text(text)
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("scenario", ["directory", "not-utf8"])
def test_cli_unreadable_scenario_exit_two_one_line(tmp_path, capsys, command, scenario):
    path = tmp_path / "c.yaml"
    if scenario == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"dt: 0.02  # \xff\xfe\n")
    sweep = ["--param", "dt", "--values", "0.02"] if command == "sweep" else []
    assert main([command, str(path), *sweep, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("out, reason", [("afile", "File exists"),
                                         ("afile/sub", "Not a directory")])
def test_cli_out_dir_that_cannot_be_made_exit_two_one_line(tmp_path, capsys, monkeypatch,
                                                           command, out, reason):
    # the directory is made, or refused, before any solve
    def unreached(*args):
        raise AssertionError("the experiment ran")

    monkeypatch.setitem(harness.RUNNERS, "forward", unreached)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_text("")
    path = write_yaml(tmp_path / "c.yaml", {"grid": {"n_nodes": 31}, "dt": 0.02})
    sweep = ["--param", "dt", "--values", "0.02"] if command == "sweep" else []
    assert main([command, path, *sweep, "--out", out]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: cannot make output directory {out}: {reason}"]


def test_cli_sweep_checks_every_value_before_the_first_run(tmp_path, capsys):
    # dt = 0.03 does not divide t_final: refused before dt = 0.02 runs
    path = write_yaml(tmp_path / "c.yaml", {"grid": {"n_nodes": 31}, "dt": 0.02})
    assert main(["sweep", path, "--param", "dt", "--values", "0.02", "0.03",
                 "--out", str(tmp_path / "sw")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: dt=0.03 does not divide t_final=1.0"]
    assert not (tmp_path / "sw").exists()


def test_cli_sweep_unknown_param_exit_two(tmp_path, capsys):
    path = write_yaml(tmp_path / "c.yaml", {"grid": {"n_nodes": 31}, "dt": 0.02})
    assert main(["sweep", path, "--param", "foo", "--values", "1",
                 "--out", str(tmp_path / "sw")]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: unknown keys ['foo']"]
    assert not (tmp_path / "sw").exists()


@pytest.mark.parametrize("experiment,message", [
    ({"kind": "forward", "t0": 0.5, "t1": 0.5},
     "experiment.t1 must be above experiment.t0=0.5, got 0.5"),
    ({"kind": "forward", "t0": 0.0},
     "experiment.t0 of a control window must be at least dt=0.02, got 0.0"),
    ({"kind": "identity-check", "t2": 0.01},
     "experiment.t2 of a control window must be at least dt=0.02, got 0.01"),
    ({"kind": "energy-check", "t0": 0.6, "t1": 0.2},
     "experiment.t1 must be above experiment.t0=0.6, got 0.2"),
    ({"kind": "runge", "levels": [8, 51]},
     "experiment.levels must not exceed the 50 time steps, got [8, 51]"),
    ({"kind": "invert-nonlinear", "eps_list": [0.1, 0.1]},
     "experiment.eps_list must hold at least two distinct amplitudes, got [0.1, 0.1]"),
    ({"kind": "invert-linear", "basis_segments": 51},
     "experiment.basis_segments must not exceed the 50 time steps, got 51"),
    ({"kind": "invert-nonlinear", "basis_segments": 56},
     "experiment.basis_segments must not exceed the 50 time steps, got 56")],
    ids=["empty-window", "control-at-zero", "identity-t2-before-dt", "swapped-pulse",
         "level-above-steps", "repeated-eps", "invert-linear-level-above-steps",
         "invert-nonlinear-level-above-steps"])
def test_reader_names_the_key_of_a_bad_window_or_amplitude_list(experiment, message):
    # a pulse's window may start at 0, a control's only at dt: its bump must
    # vanish on the first two time nodes
    validate_config(small_cfg(experiment={"kind": "energy-check", "t0": 0.0}))
    model = {"kind": "nonlinear" if experiment["kind"] == "invert-nonlinear" else "linear"}
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        validate_config(small_cfg(experiment=experiment, model=model))


@pytest.mark.parametrize("experiment,what", [
    ({"kind": "forward"}, "forward with model.kind nonlinear"),
    ({"kind": "invert-nonlinear"}, "invert-nonlinear"),
    ({"kind": "identity-check", "variant": "nonlinear-integral"},
     "identity-check variant 'nonlinear-integral'"),
    ({"kind": "identity-check", "variant": "alessandrini", "q1": {"kind": "zero"}},
     "identity-check variant 'alessandrini' with experiment.q1")],
    ids=["forward", "invert-nonlinear", "nonlinear-integral", "alessandrini-q1"])
def test_reader_rejects_a_potential_that_no_solve_reads(experiment, what):
    # these runs solve the nonlinear equation, the linear one without a
    # potential, or (alessandrini given q1) the linear one with q1 and q2: a
    # nonzero model.q would be ignored; a zero one is the default
    model = {"kind": "nonlinear", "r": 2, "q": {"kind": "constant", "value": 50}}
    with pytest.raises(ConfigError, match="^" + re.escape(
            f"model.q must be zero for {what}, whose solves do not read it") + "$"):
        validate_config(small_cfg(model=model, experiment=experiment))
    for q in (None, {"kind": "zero"}, {"kind": "constant", "value": 0}):
        validate_config(small_cfg(model=dict(model, q=q), experiment=experiment))
    # a linear forward run, and the other experiments of a nonlinear model, solve with q;
    # alessandrini without q1 solves with q in its place
    validate_config(small_cfg(model={"q": model["q"]}, experiment={"kind": "forward"}))
    validate_config(small_cfg(model=model, experiment={"kind": "energy-check"}))
    validate_config(small_cfg(model=model, experiment={"kind": "identity-check",
                                                       "variant": "alessandrini"}))


def test_reader_names_dt_when_the_probe_of_invert_nonlinear_starts_before_it():
    # the runner's fixed probe psi is a control on (0.1, 0.9) t_final
    with pytest.raises(ConfigError, match=re.escape(
            "dt must be at most 0.1 * t_final, where the probe of invert-nonlinear "
            "starts, got 0.125") + "$"):
        validate_config(small_cfg(dt=0.125, model={"kind": "nonlinear"},
                                  experiment={"kind": "invert-nonlinear",
                                              "basis_segments": 7}))


def test_cli_control_failure_exit_one_line(tmp_path, capsys, monkeypatch):
    # a runner whose control starts at t = 0, which no reader rule foresees
    def early_control(run, op, out_dir):
        bump_control(run.grid, "w1", 0.0, 0.5, run.dt, run.nt)

    monkeypatch.setitem(RUNNERS, "forward", early_control)
    path = write_yaml(tmp_path / "c.yaml", {"grid": {"n_nodes": 31}, "dt": 0.02})
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: control incompatible with zero initial data: "
        "values must vanish at the first two time nodes"]


def test_null_means_the_default(tmp_path, capsys):
    base = {"grid": {"n_nodes": 31}, "dt": 0.02, "experiment": {"kind": "forward"}}
    nulls = _merge(base, {})
    nulls["experiment"].update(amplitude=None, window=None)
    nulls.update(seed=None, regularization={"alpha_inv": None})
    reports = []
    for name, payload in (("base", base), ("nulls", nulls)):
        assert main(["run", write_yaml(tmp_path / f"{name}.yaml", payload),
                     "--out", str(tmp_path / name)]) == 0
        reports.append(json.loads((tmp_path / name / "report.json").read_text()))
    assert reports[0]["metrics"] == reports[1]["metrics"]
    assert reports[0]["config"] == reports[1]["config"]


def test_cli_solver_failure_exit_one(tmp_path, capsys):
    path = write_yaml(tmp_path / "c.yaml", {
        "grid": {"n_nodes": 31}, "dt": 0.02,
        "model": {"kind": "nonlinear", "r": 2,
                  "coeff": {"kind": "constant", "value": -1.0}},
        "experiment": {"kind": "forward", "amplitude": 1e6},
    })
    with np.errstate(all="ignore"):
        code = main(["run", path, "--out", str(tmp_path / "out")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_cli_noise_only_where_it_is_read(tmp_path, capsys):
    # only invert-linear adds noise; any other kind would run noise-free
    for kind in ("forward", "energy-check", "identity-check", "runge", "invert-nonlinear"):
        model = {"kind": "nonlinear"} if kind == "invert-nonlinear" else {}
        cfg = small_cfg(noise={"level": 1e-3}, experiment={"kind": kind}, model=model)
        with pytest.raises(ConfigError, match="read by invert-linear only"):
            validate_config(cfg)
        validate_config(_merge(cfg, {"noise": {"level": 0.0}}))
    path = write_yaml(tmp_path / "c.yaml", {"noise": {"level": 0.1},
                                            "experiment": {"kind": "invert-nonlinear"},
                                            "model": {"kind": "nonlinear"}})
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: noise.level=0.1 is read by invert-linear only, not by invert-nonlinear"]
    validate_config(_linear_cfg(noise={"level": 1e-3}))


def test_cli_identity_check_keys_its_variant_does_not_read_exit_two(tmp_path, capsys):
    # self-adjoint reads neither the alessandrini potentials nor the
    # nonlinear identity's amplitude; it ran with them and ignored them
    exp = {"kind": "identity-check", "variant": "self-adjoint",
           "q1": {"kind": "gaussian", "amplitude": 5}, "amplitude": 3}
    path = write_yaml(tmp_path / "c.yaml", {"grid": {"n_nodes": 31}, "experiment": exp})
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: experiment keys ['amplitude', 'q1'] are not read by identity-check "
        "variant 'self-adjoint'"]
    for variant, key in (("alessandrini", "amplitude"), ("nonlinear-integral", "q2"),
                         (None, "q2")):
        with pytest.raises(ConfigError, match=rf"keys \['{key}'\] are not read"):
            validate_config(small_cfg(experiment={"kind": "identity-check",
                                                  "variant": variant, key: 0.5}))
    validate_config(small_cfg(experiment={"kind": "identity-check", "variant": "alessandrini",
                                          "q1": {"kind": "zero"}, "q2": None}))
    validate_config(small_cfg(experiment={"kind": "identity-check",
                                          "variant": "nonlinear-integral", "amplitude": 0.2},
                              model={"kind": "nonlinear"}))


def test_exponent_outside_the_paper_range_is_a_report_warning(tmp_path, capsys):
    # r = 3 exceeds 2s/(1-2s) = 1.5 at s = 0.3: the run goes on, and its
    # report says so outside the metrics; a run inside the range writes the
    # report keys it always did
    cfg = {"grid": {"n_nodes": 31}, "dt": 0.02, "s": 0.3,
           "model": {"kind": "nonlinear", "r": 3}}
    reports = []
    for name, r in (("outside", 3), ("inside", 1)):
        path = write_yaml(tmp_path / f"{name}.yaml", _merge(cfg, {"model": {"r": r}}))
        assert main(["run", path, "--out", str(tmp_path / name)]) == 0
        reports.append(json.loads((tmp_path / name / "report.json").read_text()))
    assert reports[0]["warnings"] == [
        "homogeneity degree r=3.0 above the admissible bound 2s/(1-2s)=1.500 for s=0.3"]
    assert "warnings" not in reports[0]["metrics"]
    assert list(reports[1]) == ["experiment", "config", "metrics", "passed",
                                "runtime_seconds"]
    assert validate_config(small_cfg(s=0.3, model={"kind": "nonlinear", "r": 3})) \
        == reports[0]["warnings"]
    assert validate_config(small_cfg(s=0.3, model={"kind": "linear"})) == []


def test_cli_non_finite_normal_equations_exit_one(tmp_path, capsys, monkeypatch):
    # a NaN in the probing kernel leaves NaN in the inversion's normal
    # equations; the factorization reports it instead of a traceback
    kernel = inversion._probing_kernel

    def nan_kernel(*args):
        kern = kernel(*args)
        kern[0, 0] = np.nan
        return kern

    monkeypatch.setattr(inversion, "_probing_kernel", nan_kernel)
    path = write_yaml(tmp_path / "c.yaml", {
        "grid": {"n_nodes": 31}, "dt": 0.02,
        "model": {"kind": "linear", "q": {"kind": "gaussian", "amplitude": 0.5,
                                          "center": 0.5, "width": 0.2}},
        "experiment": {"kind": "invert-linear", "basis_segments": 8, "target_stride": 2},
    })
    with np.errstate(all="ignore"):
        code = main(["run", path, "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: inversion normal equations not finite (condition estimate nan)"]


def test_cli_indefinite_omega_block_exit_one(tmp_path, capsys, monkeypatch):
    # the Gram's energy coordinates need a Cholesky factor of the omega
    # block; an indefinite block is reported in one line, not a traceback
    from viscowave.operator import FracLapOperator

    block = FracLapOperator.omega_block.fget

    def indefinite(op):
        mat = block(op)
        lam, vec = np.linalg.eigh(mat)
        return mat - 2.0 * lam[0] * np.outer(vec[:, 0], vec[:, 0])

    monkeypatch.setattr(FracLapOperator, "omega_block", property(indefinite))
    path = write_yaml(tmp_path / "c.yaml", {
        "grid": {"n_nodes": 31}, "dt": 0.02,
        "model": {"kind": "linear", "q": {"kind": "gaussian", "amplitude": 0.5,
                                          "center": 0.5, "width": 0.2}},
        "experiment": {"kind": "invert-linear", "basis_segments": 8, "target_stride": 2},
    })
    code = main(["run", path, "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: interior energy matrix is not finite and positive definite"]


def test_cli_compare(tmp_path, capsys):
    cfg_path = write_yaml(tmp_path / "c.yaml",
                          {"grid": {"n_nodes": 31}, "dt": 0.02})
    main(["run", cfg_path, "--out", str(tmp_path / "a")])
    main(["run", cfg_path, "--out", str(tmp_path / "b")])
    capsys.readouterr()
    code = main(["compare", str(tmp_path / "a" / "report.json"),
                 str(tmp_path / "b" / "report.json")])
    assert code == 0
    assert "experiment: forward" in capsys.readouterr().out
    ecfg = write_yaml(tmp_path / "e.yaml",
                      {"grid": {"n_nodes": 31}, "dt": 0.02,
                       "experiment": {"kind": "energy-check"}})
    main(["run", ecfg, "--out", str(tmp_path / "c")])
    code = main(["compare", str(tmp_path / "a" / "report.json"),
                 str(tmp_path / "c" / "report.json")])
    assert code == 2


@pytest.mark.parametrize("content", [b"{not json", b'{"x": "\xff"}', b"[1, 2]",
                                     b'{"metrics": {}}', b'{"experiment": "forward"}', None],
                         ids=["not-json", "not-utf8", "not-a-mapping", "no-experiment",
                              "no-metrics", "directory"])
def test_cli_compare_bad_report_exit_two_one_line(tmp_path, capsys, content):
    path = tmp_path / "report.json"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    assert main(["compare", str(path), str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_sweep(tmp_path, capsys):
    path = write_yaml(tmp_path / "c.yaml",
                      {"grid": {"n_nodes": 31}, "dt": 0.02,
                       "experiment": {"kind": "energy-check"}})
    code = main(["sweep", path, "--param", "dt", "--values", "0.02", "0.01",
                 "--out", str(tmp_path / "sw")])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["values"] == [0.02, 0.01]
    assert summary["passed"] == [True, True]


def test_cli_seed_override(tmp_path, capsys):
    payload = {
        "grid": {"n_nodes": 31}, "dt": 0.02, "seed": 3,
        "noise": {"level": 1e-3},
        "model": {"kind": "linear", "q": {"kind": "gaussian",
                                          "amplitude": 0.5, "center": 0.5,
                                          "width": 0.2}},
        "experiment": {"kind": "invert-linear", "basis_segments": 8,
                       "target_stride": 2},
        "regularization": {"alpha_inv": 1e-2, "synth_alpha": 1e-12},
    }
    path = write_yaml(tmp_path / "c.yaml", payload)
    main(["run", path, "--out", str(tmp_path / "a")])
    main(["run", path, "--out", str(tmp_path / "b"), "--seed", "4"])
    capsys.readouterr()
    a = json.loads((tmp_path / "a" / "report.json").read_text())
    b = json.loads((tmp_path / "b" / "report.json").read_text())
    assert a["config"]["seed"] == 3 and b["config"]["seed"] == 4
    assert (a["metrics"]["relative_l2_error"]
            != b["metrics"]["relative_l2_error"])
