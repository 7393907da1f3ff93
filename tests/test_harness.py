"""Scenario configs, experiment drivers, report files, and the CLI."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from numpy.testing import assert_allclose

from viscowave import (BackgroundStates, ConfigError, ControlBasis, build_grid, bump_control,
                       compare_reports, dn_matrix_linear, dn_remainders_nonlinear,
                       estimate_homogeneity_exponent, load_config,
                       recover_nonlinear_coefficient, run_scenario)
from viscowave import dnmap, harness, inversion, solver
from viscowave.cli import main
from viscowave.harness import (DEFAULTS, RUNNERS, _gaussian_pulse, _merge,
                               _set_by_path, _setup, field_from_spec, potential_from_spec,
                               sweep_scenario, validate_config)


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
           "q": {"kind": "zero"}, "q2": {"kind": "zero"},
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


NONLINEAR = {"kind": "nonlinear", "r": 2}


@pytest.mark.parametrize("overrides, files", [
    ({}, {"report.json", "trajectory.csv"}),
    ({"experiment": {"kind": "energy-check"}}, {"report.json"}),
    ({"experiment": {"kind": "identity-check", "variant": "self-adjoint"}}, {"report.json"}),
    ({"experiment": {"kind": "identity-check", "variant": "alessandrini"}}, {"report.json"}),
    ({"experiment": {"kind": "identity-check", "variant": "nonlinear-integral"},
      "model": NONLINEAR}, {"report.json"}),
    ({"experiment": {"kind": "runge", "levels": [8]}}, {"report.json"}),
    ({"experiment": {"kind": "invert-linear", "basis_segments": 8, "target_stride": 4}},
     {"report.json", "reconstruction.json", "reconstruction.csv"}),
    ({"experiment": {"kind": "invert-linear", "basis_segments": 8, "target_stride": 4,
                     "q_time_basis": 2}}, {"report.json", "reconstruction.json"}),
    ({"experiment": {"kind": "invert-nonlinear", "basis_segments": 8, "target_stride": 4},
      "model": NONLINEAR}, {"report.json", "reconstruction.json", "reconstruction.csv"})],
    ids=["forward", "energy-check", "self-adjoint", "alessandrini", "nonlinear-integral",
         "runge", "invert-linear", "invert-linear-time-basis", "invert-nonlinear"])
def test_each_run_writes_the_files_the_readme_lists(tmp_path, overrides, files):
    run_scenario(small_cfg(**overrides), str(tmp_path / "out"))
    assert {p.name for p in (tmp_path / "out").iterdir()} == files


def test_a_sweep_writes_its_summary_and_a_directory_per_value(tmp_path):
    sweep_scenario(small_cfg(experiment={"kind": "energy-check"}), "experiment.tolerance",
                   [1e-3, 1e-2], str(tmp_path / "sw"))
    assert {p.name for p in (tmp_path / "sw").iterdir()} == {
        "summary.json", "experiment_tolerance_0.001", "experiment_tolerance_0.01"}
    for value in ("0.001", "0.01"):
        assert [p.name for p in (tmp_path / "sw" / f"experiment_tolerance_{value}").iterdir()
                ] == ["report.json"]


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
    # one data pass, the difference on w1 from the q = 0 background states,
    # which the data and the synthesis share: with nothing shifting at 8
    # segments and 50 steps, the 15 synthesized controls are fewer rows than
    # the 18 elements, so it steps the controls; and one modal pass, a row
    # per spline, whose responses the w1 and w2 backgrounds share; they read
    # the eigenpairs that assembly made, the run's only decomposition, and
    # nothing samples a control on the full grid
    materialized, stepped, factored, eigh, eigvalsh, modal = [], [], [], [], [], []

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
    monkeypatch.setattr(np.linalg, "eigh", counting(eigh, np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", counting(eigvalsh, np.linalg.eigvalsh))
    monkeypatch.setattr(inversion, "solve_modal_basis",
                        counting(modal, inversion.solve_modal_basis))
    cfg = _linear_cfg()
    run_scenario(cfg, str(tmp_path / "out"))
    grid = build_grid(*(cfg["grid"][k] for k in ("box", "omega", "w1", "w2", "n_nodes")))
    basis = ControlBasis(grid, "w1", cfg["dt"], cfg["t_final"], 8)
    n_basis, n_splines = len(basis), len(basis.tsplines)
    n_targets = len(inversion.TARGET_WINDOWS) * len(harness._read_scenario(cfg).target_nodes)
    assert n_basis == len(ControlBasis(grid, "w2", cfg["dt"], cfg["t_final"], 8))
    assert materialized == [] and n_targets < n_basis
    assert sum(stepped) == n_targets + n_splines and len(modal) == 1
    # two static factorizations, the gaussian's and the modal pass's, and
    # one eigendecomposition, the operator's
    assert len(factored) == 2
    assert (len(eigh), len(eigvalsh)) == (1, 0)


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
    # first one delayed by whole steps: the one basis pass, the difference,
    # steps one seed per window node, after the one modal pass, one seed of
    # its unit row, that the w1 and w2 backgrounds share; each of the two
    # factors once
    stepped, factored = _count_stepped_rows(monkeypatch)
    cfg = _merge(_linear_cfg(), {"experiment": {"basis_segments": 10}})
    run_scenario(cfg, str(tmp_path / "out"))
    grid = _setup(cfg)[0].grid
    bases = [ControlBasis(grid, w, cfg["dt"], cfg["t_final"], 10) for w in ("w1", "w2")]
    n_nodes, n_seeds = len(bases[0].nodes), 1
    assert n_nodes == len(bases[1].nodes) and len(bases[0]) == 5 * n_nodes
    assert stepped == [n_seeds, n_nodes * n_seeds]
    assert len(factored) == 2


def test_time_dependent_pass_steps_at_most_a_block(tmp_path, monkeypatch):
    # a ramp potential shifts nothing: its difference pass steps the
    # synthesized controls, fewer than the elements, CONTROL_BLOCK rows at a
    # time, and the q = 0 backgrounds step one modal pass, the seeds of its
    # unit row
    stepped, _ = _count_stepped_rows(monkeypatch)
    monkeypatch.setattr(solver, "CONTROL_BLOCK", 4)
    cfg = _merge(_linear_cfg(), {"experiment": {"basis_segments": 10, "frame": "reversed",
                                                "q_time_basis": 3},
                                 "model": {"q": {"time": "ramp"}}})
    run_scenario(cfg, str(tmp_path / "out"))
    run = _setup(cfg)[0]
    basis = ControlBasis(run.grid, "w1", cfg["dt"], cfg["t_final"], 10)
    n_targets = len(inversion.TARGET_WINDOWS) * len(run.target_nodes)
    seed, _lag = solver.shift_plan(basis, True, 1)
    n_modal = np.count_nonzero(seed == np.arange(seed.size))
    assert max(stepped) <= 4 and n_modal == 1 and n_targets < len(basis)
    assert sorted(stepped) == sorted([4] * (n_targets // 4) + [n_targets % 4] + [n_modal])


@pytest.mark.parametrize("time, data_blocks", [("constant", [40]), ("ramp", [64, 35])])
def test_data_pass_steps_the_fewer_rows(tmp_path, monkeypatch, time, data_blocks):
    # at 101 nodes, 16 segments and 200 steps the w1 basis has 220 elements
    # and the recovery 99 targets: a static q's difference pass steps the 40
    # seeds of its shift plan, fewer than the targets; a ramp's shifts
    # nothing, so it steps the 99 synthesized controls, CONTROL_BLOCK at a
    # time.  The modal pass before it steps the 2 seeds of its unit row.
    # With noise the data pass is the same; the q = 0 pass that scales the
    # noise steps its 40 seeds between the two
    stepped, factored = _count_stepped_rows(monkeypatch)
    cfg = _merge(DEFAULTS, {
        "grid": {"n_nodes": 101},
        "model": {"kind": "linear", "q": {"kind": "gaussian", "amplitude": 0.5,
                                          "width": 0.141421356, "time": time}},
        "experiment": {"kind": "invert-linear", "basis_segments": 16,
                       "q_time_basis": None if time == "constant" else 3},
        "regularization": {"alpha_inv": 1e-1}})
    report = run_scenario(cfg, str(tmp_path / "out"))
    assert report["metrics"]["n_targets"] == 99 and report["passed"]
    assert stepped == [2, *data_blocks]
    assert len(factored) == 2
    stepped.clear()
    factored.clear()
    run_scenario(_merge(cfg, {"noise": {"level": 1e-8}}), str(tmp_path / "noisy"))
    assert stepped == [2, 40, *data_blocks]
    assert len(factored) == 3


def test_invert_linear_shares_a_fresh_background(tmp_path, monkeypatch):
    # the recovery and the data's moments, measured on it, read one w1
    # background, bitwise what a fresh BackgroundStates of q = 0 holds
    seen = []
    recovery, moments = harness.LinearRecovery, harness.dn_moments_linear

    def built(background, *args, **kwargs):
        seen.append(background)
        return recovery(background, *args, **kwargs)

    def measured(q, built_recovery):
        seen.append(built_recovery.background)
        return moments(q, built_recovery)

    monkeypatch.setattr(harness, "LinearRecovery", built)
    monkeypatch.setattr(harness, "dn_moments_linear", measured)
    cfg = _linear_cfg()
    run_scenario(cfg, str(tmp_path / "out"))
    run, op = _setup(cfg)
    fresh = BackgroundStates(op, None, ControlBasis(op.grid, "w1", run.dt, run.t_final, 8))
    shared = seen[0]
    assert len(seen) == 2 and seen[1] is shared and shared.q is None
    assert (shared.basis.window, shared.basis.n_segments) == ("w1", 8)
    for name in ("gram", "control_gram", "time_weights"):
        assert getattr(shared, name).tobytes() == getattr(fresh, name).tobytes(), name
    every = np.arange(len(fresh.basis))
    assert shared.states_of(every).tobytes() == fresh.states_of(every).tobytes()


@pytest.mark.parametrize("stride, n_moments", [(1, 2), (2, 1)])
def test_noise_scale_is_that_of_the_background(tmp_path, monkeypatch, stride, n_moments):
    # sigma = level * std(P_bg), the q = 0 measurements alone, times the
    # seed's standard normal draw on the (controls, probes) pairings; the
    # recovery reads the draw through its moments, after the data's: at 31
    # nodes every omega node a target (stride 1) gives 27 targets, more than
    # the 18 elements, whose pairings the element pass hands over first
    seen = []

    class Recording(harness.LinearRecovery):
        def moments(self, pairings):
            seen.append(pairings)
            return super().moments(pairings)

    monkeypatch.setattr(harness, "LinearRecovery", Recording)
    cfg = _merge(_linear_cfg(noise={"level": 1e-3}, seed=5),
                 {"experiment": {"target_stride": stride}})
    run_scenario(cfg, str(tmp_path / "out"))
    run, op = _setup(cfg)
    basis1, basis2 = (ControlBasis(run.grid, w, run.dt, run.t_final, 8) for w in ("w1", "w2"))
    p_bg = dn_matrix_linear(op, None, basis1, basis2)
    ref = 1e-3 * np.std(p_bg)
    sigmas = seen[-1] / np.random.default_rng(5).standard_normal(p_bg.shape)
    assert len(seen) == n_moments
    assert np.max(np.abs(sigmas - ref)) <= 1e-12 * ref


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


@pytest.mark.parametrize("q_time_basis", [None, 2])
def test_invert_linear_reads_a_tiled_static_truth_as_its_row(tmp_path, q_time_basis):
    # a static truth given by its samples at every time node is static, as
    # the solver reads it: the run writes the files and metrics of its row
    cfg = _linear_cfg()
    if q_time_basis is not None:
        cfg = _merge(cfg, {"experiment": {"q_time_basis": q_time_basis}})
    run, op = _setup(cfg)
    outputs = []
    for name, q in (("row", run.q), ("tiled", np.tile(run.q, (run.nt + 1, 1)))):
        (tmp_path / name).mkdir()
        metrics, _ = harness.run_invert_linear(types.SimpleNamespace(**{**vars(run), "q": q}),
                                               op, str(tmp_path / name))
        outputs.append((metrics, {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}))
    names = {"reconstruction.json"} | ({"reconstruction.csv"} if q_time_basis is None else set())
    assert set(outputs[0][1]) == names
    assert outputs[1] == outputs[0]


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


def test_runge_errors_are_those_of_each_level_synthesis(tmp_path):
    # run_runge keeps each level's tracking error of the target, bitwise what
    # a synthesis over that level's basis on the window returns
    exp = {"kind": "runge", "levels": [8, 16], "window": "w2", "center": 0.4,
           "width": 0.2, "t0": 0.2, "t1": 0.8}
    cfg = small_cfg(experiment=exp)
    report = run_scenario(cfg, str(tmp_path / "out"))
    run, op = _setup(_merge(DEFAULTS, cfg))
    dt, t_final = run.dt, run.t_final
    theta, profile = _gaussian_pulse(run.grid, dt, run.nt, 0.2, 0.8, 0.4, 0.2)
    alpha = DEFAULTS["regularization"]["synth_alpha"]
    assert report["metrics"]["errors"] == [
        BackgroundStates(op, None, ControlBasis(run.grid, "w2", dt, t_final, n))
        .synthesize(theta[None], profile[None], alpha)[2][0] for n in (8, 16)]


# run_runge's relative_errors at a nonzero model.q (the gaussian at 61 nodes,
# dt 5e-3) when the nodal Gram was the product of Cholesky energy
# coordinates; synthesis in the eigenbasis moved them by at most 3.5e-6
# relative with the constant q and 9.9e-6 with the ramp
RUNGE_AT_Q = {"constant": [0.2137793234137749, 0.0939225411227234, 0.09002664523797661],
              "ramp": [0.21453219275273372, 0.09357205409332076, 0.08968647356441706]}


@pytest.mark.parametrize("time", sorted(RUNGE_AT_Q))
def test_runge_at_a_nonzero_potential_keeps_its_errors(tmp_path, time):
    q = {"kind": "gaussian", "amplitude": 0.5, "center": 0.5, "width": 0.2, "time": time}
    cfg = _merge(DEFAULTS, {"dt": 5e-3, "model": {"kind": "linear", "q": q},
                            "experiment": {"kind": "runge"}})
    report = run_scenario(cfg, str(tmp_path / "out"))
    assert_allclose(report["metrics"]["relative_errors"], RUNGE_AT_Q[time], rtol=2e-5, atol=0)


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


def test_compare_prints_lists_and_bools_as_values(tmp_path):
    # a runge report's levels are a list and its monotone a bool: both print
    # as values, a vs b, and only a number gets a relative difference
    report = run_scenario(small_cfg(experiment={"kind": "runge", "levels": [8, 16]}),
                          str(tmp_path / "a"))
    monotone = report["metrics"]["monotone"]
    report["metrics"]["monotone"] = not monotone
    (tmp_path / "b.json").write_text(json.dumps(report))
    lines = compare_reports(str(tmp_path / "a" / "report.json"),
                            str(tmp_path / "b.json")).splitlines()
    assert f"  monotone: {monotone!r} vs {not monotone!r}" in lines
    assert "  levels: [8, 16] vs [8, 16]" in lines
    assert [line.split(":")[0] for line in lines if "rel diff" in line] == [
        "  target_norm", "  tolerance"]


# ----------------------------------------------------------------- CLI


def test_cli_run_exit_zero(tmp_path, capsys):
    path = write_yaml(tmp_path / "c.yaml",
                      {"grid": {"n_nodes": 31}, "dt": 0.02})
    code = main(["run", path, "--out", str(tmp_path / "out")])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["experiment"] == "forward"
    assert (tmp_path / "out" / "report.json").exists()


def test_cli_invert_nonlinear_at_exponent_zero_exit_one_line(tmp_path, capsys):
    # r = 0 leaves nothing for the Richardson step to divide by: its
    # remainders scale like eps, and the fit's exponent about 0 is refused
    # with one error line, exit 1, and no reconstruction written
    path = write_yaml(tmp_path / "c.yaml", {
        "grid": {"n_nodes": 31}, "dt": 0.02, "model": {"kind": "nonlinear", "r": 0},
        "experiment": {"kind": "invert-nonlinear", "basis_segments": 8}})
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert re.fullmatch(r"error: no positive exponent to recover with: r=0 from "
                        r"r_est=\S+, slope 1\.000", line)
    assert not (tmp_path / "out" / "reconstruction.json").exists()


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
                                  "             q2: {kind: sine, frequency: .inf}}\n",
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
                                  "dt: 1.0\n"],
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
                              "time-dependent-coefficient", "infinite-q2-frequency",
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
                              "one-step-horizon"])
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


def test_cli_sweep_refuses_values_that_name_one_directory(tmp_path, capsys):
    # 0.02 and 2e-2 parse to one float, whose runs would both write dt_0.02
    # while summary.json listed two: refused before any run
    path = write_yaml(tmp_path / "c.yaml", {"grid": {"n_nodes": 31}, "dt": 0.02})
    assert main(["sweep", path, "--param", "dt", "--values", "0.01", "0.02", "2e-2",
                 "--out", str(tmp_path / "sw")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: sweep values 0.02 and 0.02 both name the directory dt_0.02"]
    assert not (tmp_path / "sw").exists()


def test_cli_sweep_unknown_param_exit_two(tmp_path, capsys):
    path = write_yaml(tmp_path / "c.yaml", {"grid": {"n_nodes": 31}, "dt": 0.02})
    assert main(["sweep", path, "--param", "foo", "--values", "1",
                 "--out", str(tmp_path / "sw")]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: unknown keys ['foo']"]
    assert not (tmp_path / "sw").exists()


@pytest.mark.parametrize("text, sweep, key", [
    ("seed: true\n", None, "seed"),
    ("experiment: {kind: energy-check, tolerance: true}\n", None, "experiment.tolerance"),
    ("regularization: {alpha_inv: on}\n", None, "regularization.alpha_inv"),
    ("noise: {level: false}\n", None, "noise.level"),
    ("experiment: {kind: invert-linear, target_stride: yes}\n", None,
     "experiment.target_stride"),
    ("grid: {box: [true, 2.0]}\n", None, "grid.box"),
    ("model: {kind: nonlinear}\nexperiment: {kind: invert-nonlinear, eps_list: [0.1, yes]}\n",
     None, "experiment.eps_list"),
    ("model: {kind: nonlinear}\nexperiment: {kind: invert-nonlinear, round_exponent: 1}\n",
     None, "experiment.round_exponent"),
    ("model: {kind: nonlinear}\nexperiment: {kind: invert-nonlinear, round_exponent: 0.0}\n",
     None, "experiment.round_exponent"),
    ("dt: 0.02\n", "true", "dt")],
    ids=["integer-seed", "number-tolerance", "number-alpha_inv", "number-noise-level",
         "integer-target_stride", "pair-box", "many-eps_list", "choice-one",
         "choice-zero", "sweep-dt"])
def test_cli_boolean_where_a_number_is_read_exit_two_one_line(tmp_path, capsys, text, sweep,
                                                             key):
    # YAML reads true/false, yes/no and on/off as booleans, which Python
    # compares equal to 1 and 0; no number read takes one, and a choice
    # matches its options by type as well as by value
    path = tmp_path / "c.yaml"
    path.write_text(text)
    args = ["run", str(path)] if sweep is None else ["sweep", str(path), "--param", key,
                                                     "--values", sweep]
    assert main([*args, "--out", str(tmp_path / "out")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {key} must be ")
    assert not (tmp_path / "out").exists()


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
     "experiment.basis_segments must not exceed the 50 time steps, got 56"),
    ({"kind": "runge", "levels": 8},
     "experiment.levels must be a nonempty list, each an integer >= 7, got 8"),
    ({"kind": "invert-nonlinear", "eps_list": 0.1},
     "experiment.eps_list must be a nonempty list, each a positive finite number, got 0.1")],
    ids=["empty-window", "control-at-zero", "identity-t2-before-dt", "swapped-pulse",
         "level-above-steps", "repeated-eps", "invert-linear-level-above-steps",
         "invert-nonlinear-level-above-steps", "scalar-levels", "scalar-eps_list"])
def test_reader_names_the_key_of_a_bad_window_or_amplitude_list(experiment, message):
    # a pulse's window may start at 0, a control's only at dt: its bump must
    # vanish on the first two time nodes
    validate_config(small_cfg(experiment={"kind": "energy-check", "t0": 0.0}))
    model = {"kind": "nonlinear" if experiment["kind"] == "invert-nonlinear" else "linear"}
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        validate_config(small_cfg(experiment=experiment, model=model))


@pytest.mark.parametrize("needs,other", [("linear", "nonlinear"), ("nonlinear", "linear")])
def test_reader_refuses_an_inversion_of_the_other_model(needs, other):
    kind = f"invert-{needs}"
    with pytest.raises(ConfigError, match=f"^{kind} needs model.kind {needs}$"):
        validate_config(small_cfg(experiment={"kind": kind}, model={"kind": other}))


@pytest.mark.parametrize("kind", ["invert-linear", "invert-nonlinear"])
def test_reader_rejects_repeated_target_nodes(tmp_path, capsys, kind):
    # a repeated node would add a twin of each of its targets, weighing it
    # double in the recovery: refused with one line naming the key
    model = {"kind": "nonlinear" if kind == "invert-nonlinear" else "linear"}
    message = "experiment.target_nodes must not repeat a node, got [12, 14, 12]"
    validate_config(small_cfg(model=model, experiment={"kind": kind, "target_nodes": [12, 14]}))
    with pytest.raises(ConfigError, match="^" + re.escape(message) + "$"):
        validate_config(small_cfg(model=model,
                                  experiment={"kind": kind, "target_nodes": [12, 14, 12]}))
    path = write_yaml(tmp_path / "c.yaml", {"grid": {"n_nodes": 31}, "dt": 0.02, "model": model,
                                            "experiment": {"kind": kind,
                                                           "target_nodes": [12, 14, 12]}})
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not (tmp_path / "out").exists()


def test_reader_bounds_the_time_profiles_by_the_time_nodes():
    # above one hat per time node, some hats vanish at every node, and the
    # kernel grows with the count: 50 steps allow 51
    validate_config(small_cfg(experiment={"kind": "invert-linear", "q_time_basis": 51}))
    with pytest.raises(ConfigError, match="^" + re.escape(
            "experiment.q_time_basis must not exceed the 51 time nodes, got 52") + "$"):
        validate_config(small_cfg(experiment={"kind": "invert-linear", "q_time_basis": 52}))


@pytest.mark.parametrize("experiment,message", [
    ({"kind": "runge", "center": 40.0}, "experiment.center=40.0 and experiment.width=0.22 "
     "give a gaussian that is zero at every omega node"),
    ({"kind": "runge", "t0": 0.5, "t1": 0.51}, "experiment.t0=0.5 and experiment.t1=0.51 "
     "give a time bump that is zero at every time node, dt=0.02 apart"),
    ({"kind": "energy-check", "center": 40.0}, "experiment.center=40.0 and "
     "experiment.width=0.15 give a gaussian that is zero at every omega node"),
    ({"kind": "identity-check", "t0": 0.1, "t1": 0.11}, "experiment.t0=0.1 and "
     "experiment.t1=0.11 give a time bump that is zero at every time node, dt=0.02 apart")],
    ids=["runge-gaussian", "runge-window", "energy-gaussian", "identity-window"])
def test_reader_rejects_data_zero_at_every_node(tmp_path, capsys, experiment, message):
    # a zero runge target divided its errors by a zero norm, and a zero source
    # or control passed its check with a zero residual
    cfg = small_cfg(experiment=experiment)
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        validate_config(cfg)
    path = write_yaml(tmp_path / "c.yaml", cfg)
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("overrides,code,err", [
    ({"experiment": {"kind": "invert-linear", "basis_segments": 8, "target_stride": 4,
                     "target_width": 1e-300}}, 0, []),
    ({"experiment": {"kind": "energy-check", "center": 0.5, "width": 1e-300}}, 0, []),
    ({"model": {"kind": "linear", "q": {"kind": "gaussian", "width": 1e-300}}}, 0, []),
    ({"experiment": {"kind": "forward", "amplitude": 1e308}}, 1,
     ["error: control samples are not finite"]),
    ({"experiment": {"kind": "energy-check", "t0": 0.0, "t1": 1e-310}}, 2,
     ["error: experiment.t0=0.0 and experiment.t1=1e-310 give a time bump that is zero "
      "at every time node, dt=0.02 apart"])],
    ids=["target-width", "pulse-width", "potential-width", "forward-amplitude",
         "subnormal-window"])
def test_cli_overflowing_inputs_print_no_warning(tmp_path, capsys, overrides, code, err):
    # a gaussian far narrower than h is exp(-inf) = 0 off its centre, a time
    # bump far narrower than dt is zero at every node, and a control whose
    # samples overflow is refused as not finite; a numpy warning would raise here
    path = write_yaml(tmp_path / "c.yaml", small_cfg(**overrides))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", path, "--out", str(tmp_path / "out")]) == code
    assert capsys.readouterr().err.splitlines() == err


@pytest.mark.parametrize("experiment,what", [
    ({"kind": "forward"}, "forward with model.kind nonlinear"),
    ({"kind": "invert-nonlinear"}, "invert-nonlinear"),
    ({"kind": "identity-check", "variant": "nonlinear-integral"},
     "identity-check variant 'nonlinear-integral'")],
    ids=["forward", "invert-nonlinear", "nonlinear-integral"])
def test_reader_rejects_a_potential_that_no_solve_reads(experiment, what):
    # these runs solve the nonlinear equation, or the linear one without a
    # potential: a nonzero model.q would be ignored; a zero one is the default
    model = {"kind": "nonlinear", "r": 2, "q": {"kind": "constant", "value": 50}}
    with pytest.raises(ConfigError, match="^" + re.escape(
            f"model.q must be zero for {what}, whose solves do not read it") + "$"):
        validate_config(small_cfg(model=model, experiment=experiment))
    for q in (None, {"kind": "zero"}, {"kind": "constant", "value": 0}):
        validate_config(small_cfg(model=dict(model, q=q), experiment=experiment))
    # a linear forward run, and the other experiments of a nonlinear model, solve with q;
    # alessandrini solves with q and q2
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


def test_nonlinear_forward_run_factors_once_and_solves_nothing_dense(tmp_path,
                                                                     counted_linalg):
    # the benchmark's forward run at 31 nodes: dt^2/4 f'(u) stays far below
    # the switch, so every Newton correction is split on the one step inverse
    report = run_scenario(small_cfg(dt=0.01, model={"kind": "nonlinear", "r": 2},
                                    experiment={"kind": "forward", "amplitude": 20.0}),
                          str(tmp_path))
    assert report["metrics"]["newton_iterations_total"] > 0
    assert counted_linalg == {"lu_factor": 1, "solve": 0}


@pytest.mark.parametrize("amplitude", [1e155, 1e200])
def test_cli_overflowing_nonlinearity_prints_one_line(tmp_path, amplitude):
    # |u|^2 u overflows in the product at 1e155 and in the power at 1e200:
    # the nonlinearity's finiteness check reports it, and numpy warns nothing
    path = write_yaml(tmp_path / "c.yaml", {
        "grid": {"n_nodes": 31}, "dt": 0.02,
        "model": {"kind": "nonlinear", "r": 2,
                  "coeff": {"kind": "constant", "value": -1.0}},
        "experiment": {"kind": "forward", "amplitude": amplitude},
    })
    env = dict(os.environ, PYTHONPATH=str(Path(harness.__file__).parents[1]),
               PYTHONWARNINGS="default")
    out = subprocess.run([sys.executable, "-m", "viscowave.cli", "run", path,
                          "--out", str(tmp_path / "out")],
                         capture_output=True, text=True, timeout=120, env=env)
    assert out.returncode == 1
    assert out.stderr == "error: nonlinearity produced a non-finite value\n"


def test_cli_overflowing_moment_data_prints_one_line(tmp_path):
    # noise at 1e300 leaves the pairings finite but overflows the moment data
    # formed from them: the run fails with one line, and no report holds NaN
    path = write_yaml(tmp_path / "c.yaml", {
        "grid": {"n_nodes": 31}, "dt": 0.02,
        "model": {"kind": "linear", "q": {"kind": "gaussian"}},
        "experiment": {"kind": "invert-linear", "basis_segments": 8},
        "noise": {"level": 1.0e300},
    })
    env = dict(os.environ, PYTHONPATH=str(Path(harness.__file__).parents[1]),
               PYTHONWARNINGS="default")
    out = subprocess.run([sys.executable, "-m", "viscowave.cli", "run", path,
                          "--out", str(tmp_path / "out")],
                         capture_output=True, text=True, timeout=120, env=env)
    assert out.returncode == 1
    assert out.stderr == "error: moment data are not finite\n"
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_cli_out_dir_with_a_nul_byte_exit_two_one_line(tmp_path, command):
    # no path holds a NUL byte: the scenario's out_dir, or a swept one (a
    # JSON value may spell it), is refused as it is read, before any solve
    out_dir, scenario = "a\0b", {"grid": {"n_nodes": 31}, "dt": 0.02}
    sweep = ["--param", "out_dir", "--values", json.dumps(out_dir), "--out", "sw"]
    if command == "run":
        scenario["out_dir"], sweep = out_dir, []
    path = write_yaml(tmp_path / "c.yaml", scenario)
    env = dict(os.environ, PYTHONPATH=str(Path(harness.__file__).parents[1]),
               PYTHONWARNINGS="default")
    out = subprocess.run([sys.executable, "-m", "viscowave.cli", command, path, *sweep],
                         capture_output=True, text=True, timeout=120, env=env, cwd=tmp_path)
    assert out.returncode == 2
    assert out.stderr == ("error: out_dir must be a nonempty string without a NUL byte, "
                          "got 'a\\x00b'\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.yaml"]


def test_cli_invert_nonlinear_without_a_positive_exponent_exit_one(tmp_path):
    # at psi amplitude 1e-60 the remainders are rounding errors, which scale
    # like eps: the fit reads r_est about 0 from slope 1, no exponent to
    # recover with, and the message names both
    path = write_yaml(tmp_path / "c.yaml", {
        "grid": {"n_nodes": 31}, "dt": 0.02, "model": {"kind": "nonlinear", "r": 2},
        "experiment": {"kind": "invert-nonlinear", "basis_segments": 8,
                       "psi_amplitude": 1e-60}})
    env = dict(os.environ, PYTHONPATH=str(Path(harness.__file__).parents[1]),
               PYTHONWARNINGS="default")
    out = subprocess.run([sys.executable, "-m", "viscowave.cli", "run", path,
                          "--out", str(tmp_path / "out")],
                         capture_output=True, text=True, timeout=120, env=env)
    assert out.returncode == 1
    match = re.fullmatch(r"error: no positive exponent to recover with: r=0 from "
                         r"r_est=(\S+), slope 1\.000\n", out.stderr)
    assert match and abs(float(match[1])) < 1e-6
    assert not (tmp_path / "out" / "report.json").exists()


OVERFLOWING_NORMS = {
    "ramp": ({"q": {"kind": "gaussian", "amplitude": 1.0e300, "time": "ramp"}},
             {"q_time_basis": 3}, {}),
    "static": ({"q": {"kind": "gaussian", "amplitude": 1.0e300}}, {}, {}),
    "noise": ({"q": {"kind": "gaussian"}}, {}, {"level": 1.0e200}),
}


@pytest.mark.parametrize("case", sorted(OVERFLOWING_NORMS))
def test_cli_norms_whose_squares_overflow_stay_finite(tmp_path, case):
    # a potential of 1e300 overflows the squares in the truth's norm, noise
    # of 1e200 those in the moments' and the fit's: each norm is taken over
    # the largest magnitude instead, so the metrics are finite and numpy
    # warns nothing
    model, experiment, noise = OVERFLOWING_NORMS[case]
    path = write_yaml(tmp_path / "c.yaml", {
        "grid": {"n_nodes": 31}, "dt": 0.02, "model": {"kind": "linear", **model},
        "experiment": {"kind": "invert-linear", "basis_segments": 8, **experiment},
        "noise": noise,
    })
    env = dict(os.environ, PYTHONPATH=str(Path(harness.__file__).parents[1]),
               PYTHONWARNINGS="default")
    out = subprocess.run([sys.executable, "-m", "viscowave.cli", "run", path,
                          "--out", str(tmp_path / "out")],
                         capture_output=True, text=True, timeout=120, env=env)
    assert (out.returncode, out.stderr) == (0, "")
    metrics = json.loads((tmp_path / "out" / "report.json").read_text())["metrics"]
    assert all(math.isfinite(metrics[k]) for k in ("relative_l2_error", "fit_residual",
                                                   "rhs_norm"))
    # the estimate misses a potential of 1e300 whole; noise of 1e200 swamps it
    rel = metrics["relative_l2_error"]
    assert rel > 1e200 if case == "noise" else rel == pytest.approx(1.0, rel=1e-12)


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
    # self-adjoint reads neither the second alessandrini potential nor the
    # nonlinear identity's amplitude; it ran with them and ignored them
    exp = {"kind": "identity-check", "variant": "self-adjoint",
           "q2": {"kind": "gaussian", "amplitude": 5}, "amplitude": 3}
    path = write_yaml(tmp_path / "c.yaml", {"grid": {"n_nodes": 31}, "experiment": exp})
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: experiment keys ['amplitude', 'q2'] are not read by identity-check "
        "variant 'self-adjoint'"]
    # alessandrini's first potential is model.q: it reads no experiment.q1
    for variant, key in (("alessandrini", "amplitude"), ("alessandrini", "q1"),
                         ("nonlinear-integral", "q2"), (None, "q2")):
        with pytest.raises(ConfigError, match=rf"keys \['{key}'\] are not read"):
            validate_config(small_cfg(experiment={"kind": "identity-check",
                                                  "variant": variant, key: 0.5}))
    validate_config(small_cfg(experiment={"kind": "identity-check", "variant": "alessandrini",
                                          "q2": None}))
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

    def nan_kernel(fld1, fld2, weights, scale, kern, *rest):
        kernel(fld1, fld2, weights, scale, kern, *rest)
        kern[0, 0] = np.nan

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


@pytest.mark.parametrize("message, line", [
    ("Unable to allocate 728. TiB for an array with shape (10000000, 10000000) and data "
     "type float64", "error: Unable to allocate 728. TiB for an array with shape "
     "(10000000, 10000000) and data type float64"),
    ("", "error: out of memory")])
def test_cli_allocation_failure_exit_one(tmp_path, capsys, monkeypatch, message, line):
    # grid.n_nodes 10000000 asks assembly for 728 TiB; the failure is one
    # line, not numpy's traceback.  Here assembly raises before it allocates
    def unallocatable(grid, s):
        raise MemoryError(message)

    monkeypatch.setattr(harness, "assemble_fraclap", unallocatable)
    path = write_yaml(tmp_path / "c.yaml", {"grid": {"n_nodes": 31}, "dt": 0.02})
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.splitlines() == [line]


def test_cli_indefinite_omega_block_exit_one(tmp_path, capsys, monkeypatch):
    # assembly decomposes the omega block once and checks it there; weights
    # ten times too strong make the 31-node block indefinite (its smallest
    # eigenvalue near -90), reported in one line, not a traceback
    from viscowave import operator

    weights = operator._collocation_weights
    monkeypatch.setattr(operator, "_collocation_weights",
                        lambda s, h, nmax: 10.0 * weights(s, h, nmax))
    path = write_yaml(tmp_path / "c.yaml", {
        "grid": {"n_nodes": 31}, "dt": 0.02,
        "model": {"kind": "linear", "q": {"kind": "gaussian", "amplitude": 0.5,
                                          "center": 0.5, "width": 0.2}},
        "experiment": {"kind": "invert-linear", "basis_segments": 8, "target_stride": 2},
    })
    code = main(["run", path, "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert re.fullmatch(r"error: interior block not positive definite: lambda_min=-90\.15\d*",
                        err[0])


def test_cli_non_finite_modal_step_exit_one(tmp_path, capsys, monkeypatch):
    # a NaN eigenvalue fails the q = 0 background's modal pass at step 0,
    # a solver failure reported in one line
    assemble = harness.assemble_fraclap

    def with_nan(*args):
        op = assemble(*args)
        lam = op.eigenvalues.copy()
        lam[4] = np.nan
        return dataclasses.replace(op, eigenvalues=lam)

    monkeypatch.setattr(harness, "assemble_fraclap", with_nan)
    path = write_yaml(tmp_path / "c.yaml", {
        "grid": {"n_nodes": 31}, "dt": 0.02,
        "model": {"kind": "linear", "q": {"kind": "gaussian", "amplitude": 0.5,
                                          "center": 0.5, "width": 0.2}},
        "experiment": {"kind": "invert-linear", "basis_segments": 8, "target_stride": 2},
    })
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: time step 0: factorization failed: non-finite step matrix"]


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
