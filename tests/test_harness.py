"""Scenario configs, experiment drivers, report files, and the CLI."""

import json
import re
from pathlib import Path

import numpy as np
import pytest
import yaml
from numpy.testing import assert_allclose

from viscowave import (ConfigError, ControlBasis, build_grid, compare_reports,
                       load_config, run_scenario)
from viscowave import dnmap, solver
from viscowave.cli import main
from viscowave.harness import (DEFAULTS, EXPERIMENT_KEYS, MODEL_KEYS, _add_noise,
                               _merge, _set_by_path, field_from_spec, potential_from_spec,
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


def test_accepted_keys_follow_the_kind():
    # a key of one kind is unknown to another
    with pytest.raises(ConfigError, match=r"unknown experiment keys \['levels'\]"):
        validate_config(small_cfg(experiment={"kind": "forward", "levels": [8]}))
    with pytest.raises(ConfigError, match=r"unknown model keys \['coeff'\]"):
        validate_config(small_cfg(model={"kind": "linear", "coeff": {"kind": "zero"}}))
    for kind, keys in EXPERIMENT_KEYS.items():
        validate_config(small_cfg(experiment={"kind": kind, **dict.fromkeys(keys)}))
    validate_config(small_cfg(model={"kind": "nonlinear", "r": 2}))


def test_readme_lists_the_accepted_keys():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    scenarios = text.split("### Scenario files")[1].split("### Output files")[0]
    bullets = {b.split("`")[1]: set(b.split("`")[1::2])
               for b in re.split(r"\n- ", scenarios)[1:]}
    for kind, keys in {**EXPERIMENT_KEYS, **MODEL_KEYS}.items():
        assert kind in bullets, kind
        assert set(keys) <= bullets[kind], (kind, set(keys) - bullets[kind])


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
    with pytest.raises(ConfigError, match="unknown field kind"):
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
    with pytest.raises(ConfigError, match="unknown time dependence"):
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

    basis1 = ControlBasis(grid31, "w1", 1.0, 8)
    basis2 = ControlBasis(grid31, "w2", 1.0, 8)
    rec = dn_matrix_linear(op31, None, basis1, basis2, 0.02, 1.0)
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


def test_invert_linear_solves_each_control_once_per_pass(tmp_path, monkeypatch):
    # four passes over a basis: the background and the difference from it on
    # w1 for the data, then the background states on w1 and on w2 for the
    # synthesis; none samples a control on the full grid
    materialized, stepped, factored = [], [], []

    def counting(calls, fn, size=lambda *a: 1):
        def wrapper(*args, **kwargs):
            calls.append(size(*args))
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(dnmap, "materialize", counting(materialized, dnmap.materialize))
    monkeypatch.setattr(solver, "_crank_nicolson", counting(
        stepped, solver._crank_nicolson,
        lambda op, drive, *rest: drive.shape[1] if drive.ndim == 3 else 1))
    monkeypatch.setattr(solver, "lu_factor", counting(factored, solver.lu_factor))
    cfg = small_cfg(
        model={"kind": "linear", "q": {"kind": "gaussian", "amplitude": 0.5,
                                       "center": 0.5, "width": 0.2}},
        experiment={"kind": "invert-linear", "basis_segments": 8, "target_stride": 2})
    run_scenario(cfg, str(tmp_path / "out"))
    grid = build_grid(*(cfg["grid"][k] for k in ("box", "omega", "w1", "w2", "n_nodes")))
    n_basis = len(ControlBasis(grid, "w1", cfg["t_final"], 8))
    assert n_basis == len(ControlBasis(grid, "w2", cfg["t_final"], 8))
    assert materialized == []
    assert sum(stepped) == 4 * n_basis
    # one static factorization per pass: q = 0 three times, the gaussian once
    assert len(factored) == 4


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
                                  "experiment: {kind: invert-linear, target_nodes: [500]}\n"],
                         ids=["malformed-yaml", "non-numeric-dt", "dt-not-dividing-t_final",
                              "non-mapping-section", "non-numeric-n_nodes",
                              "non-numeric-seed", "unknown-grid-key",
                              "unknown-regularization-key", "unknown-noise-key",
                              "unknown-experiment-key", "unknown-model-key",
                              "unknown-window", "unknown-frame", "non-integer-q_time_basis",
                              "non-numeric-amplitude", "non-integer-level",
                              "too-few-basis-segments", "too-few-level-segments",
                              "non-numeric-alpha_inv", "non-numeric-synth_alpha",
                              "non-numeric-r", "target-node-outside-omega"])
def test_cli_bad_value_exit_two_one_line(tmp_path, capsys, text):
    path = tmp_path / "c.yaml"
    path.write_text(text)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


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
