"""End-to-end acceptance runs: operator facts, identity convergence, recovery.

Each test prints one PASS line with its headline metrics; thresholds are
asserted, so a failing criterion fails the test.
"""

import numpy as np
import pytest

from viscowave import (alessandrini_residual, assemble_fraclap, bump_control,
                       energy_ledger, nonlinear_integral_identity_residual,
                       power_nonlinearity, self_adjointness_residual,
                       solve_linear, solve_linearized, solve_nonlinear,
                       zero_nonlinearity)
from viscowave.controls import ExteriorControl
from viscowave.harness import DEFAULTS, _merge, run_scenario

T_FINAL = 1.0


def _scaled(ctl, a):
    return ExteriorControl(values=a * ctl.values, dvalues=a * ctl.dvalues,
                           window=ctl.window, dt=ctl.dt)


def _summed(c1, c2):
    return ExteriorControl(values=c1.values + c2.values,
                           dvalues=c1.dvalues + c2.dvalues,
                           window=c1.window, dt=c1.dt)


def _scenario(overrides, out_dir):
    return run_scenario(_merge(DEFAULTS, overrides), str(out_dir))


def test_01_operator_invariants_and_symbol(grid61):
    worst = 0.0
    center = grid61.n_nodes // 2
    for s in (0.3, 0.5, 0.8):
        op = assemble_fraclap(grid61, s)
        mat = op.matrix
        assert np.array_equal(mat, mat.T)
        assert op.lambda_min > 0.0
        off = mat[~np.eye(len(mat), dtype=bool)]
        assert np.all(off <= 0.0)
        for mult in (10, 15, 20, 30, 40, 60):
            xi = 2 * np.pi / (mult * grid61.h)
            wave = np.exp(1j * xi * grid61.x)
            ratio = (mat @ wave)[center] / wave[center]
            rel = abs(ratio - xi ** (2 * s)) / xi ** (2 * s)
            worst = max(worst, rel)
            assert rel <= 0.05
    print(f"\nacceptance 01 operator invariants: PASS — symmetric, "
          f"lambda_min>0, off-diag<=0, worst symbol error {worst:.2%} "
          f"at wavelengths >= 10h for s in (0.3, 0.5, 0.8)")


def test_02_energy_identity_refinement(op61, grid61):
    om = grid61.omega
    u0 = np.zeros(grid61.n_nodes)
    u0[om] = np.exp(-((grid61.x[om] - 0.5) / 0.15) ** 2)
    q_bump = 0.8 * np.exp(-((grid61.x[om] - 0.4) / 0.2) ** 2)
    dts = (1e-2, 5e-3, 2.5e-3)
    summary = []
    for name, q in (("zero", None), ("bump", q_bump)):
        residuals = []
        for dt in dts:
            traj = solve_linear(op61, q, None, dt, T_FINAL, u0=u0)
            residuals.append(energy_ledger(op61, traj, q=q).max_relative_residual)
        order = np.polyfit(np.log(dts), np.log(residuals), 1)[0]
        assert residuals[-1] <= 1e-3
        assert order == pytest.approx(2.0, abs=0.3)
        summary.append(f"q={name}: finest {residuals[-1]:.2e}, order {order:.2f}")
    print(f"\nacceptance 02 energy identity: PASS — {'; '.join(summary)}")


def test_03_adjoint_identity_time_dependent_potential(op61, grid61):
    om = grid61.omega
    dts = (1e-2, 5e-3, 2.5e-3)
    rels = []
    for dt in dts:
        nt = round(T_FINAL / dt)
        q = np.outer(np.linspace(0.0, T_FINAL, nt + 1), grid61.x[om])  # x * t
        phi1 = bump_control(grid61, "w1", 0.1, 0.8, dt, nt)
        phi2 = bump_control(grid61, "w2", 0.2, 0.9, dt, nt)
        res, lhs, _rhs = self_adjointness_residual(op61, q, phi1, phi2,
                                                   dt, T_FINAL)
        rels.append(abs(res) / abs(lhs))
    order = np.polyfit(np.log(dts), np.log(rels), 1)[0]
    assert rels[-1] <= 1e-3
    assert rels[2] < rels[1] < rels[0]
    assert order >= 1.0
    print(f"\nacceptance 03 adjoint identity (q = x*t): PASS — relative "
          f"residual {rels[-1]:.2e} at dt=2.5e-3, order {order:.2f}")


def test_04_potential_difference_identity(op61, grid61):
    om = grid61.omega
    q1 = 0.5 * np.exp(-50.0 * (grid61.x[om] - 0.5) ** 2)
    q2 = np.zeros(om.size)
    rels = []
    for dt in (1e-2, 5e-3):
        nt = round(T_FINAL / dt)
        phi1 = bump_control(grid61, "w1", 0.1, 0.8, dt, nt)
        phi2 = bump_control(grid61, "w2", 0.2, 0.9, dt, nt)
        lhs, rhs, res = alessandrini_residual(op61, q1, q2, phi1, phi2,
                                              dt, T_FINAL)
        rels.append(abs(res) / max(abs(lhs), abs(rhs)))
    assert rels[-1] <= 1e-2
    assert rels[1] < rels[0]
    print(f"\nacceptance 04 potential-difference identity: PASS — relative "
          f"residual {rels[-1]:.2e} at (61 nodes, dt=5e-3), decreasing")


def test_05_nonlinear_difference_identity(op61, grid61):
    f1 = power_nonlinearity(1.0, 2)
    rels = []
    for dt in (1e-2, 5e-3):
        nt = round(T_FINAL / dt)
        phi1 = bump_control(grid61, "w1", 0.1, 0.8, dt, nt, amplitude=0.1)
        phi2 = bump_control(grid61, "w2", 0.2, 0.9, dt, nt, amplitude=0.1)
        lhs, rhs, res = nonlinear_integral_identity_residual(
            op61, f1, zero_nonlinearity(), phi1, phi2, dt, T_FINAL)
        rels.append(abs(res) / max(abs(lhs), abs(rhs)))
    assert rels[-1] <= 1e-2
    assert rels[1] < rels[0]
    print(f"\nacceptance 05 nonlinear difference identity: PASS — relative "
          f"residual {rels[-1]:.2e} at (61 nodes, dt=5e-3), decreasing")


def test_06_pointwise_derivative_and_homogeneity(rng):
    u = 1.0 + 0.3 * rng.normal(size=200)
    v = rng.normal(size=200)
    lines = []
    for r in (1, 2):
        f = power_nonlinearity(1.0, r)
        eps_list = (1e-2, 1e-3, 1e-4)
        rem = []
        for eps in eps_list:
            quot = (f.value(u + eps * v) - f.value(u)) / eps
            rem.append(np.linalg.norm(quot - f.dvalue(u) * v))
        slope = np.polyfit(np.log(eps_list), np.log(rem), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.1)
        for lam in (0.5, 2.0, 10.0):
            lhs = f.value(lam * u)
            rhs = lam ** (r + 1) * f.value(u)
            hom = np.max(np.abs(lhs - rhs) / np.abs(rhs))
            assert hom <= 1e-12
        lines.append(f"r={r}: slope {slope:.3f}, homogeneity <= 1e-12")
    print(f"\nacceptance 06 pointwise derivative: PASS — {'; '.join(lines)}")


def test_07_solution_map_linearization(op61, grid61):
    dt, nt = 1e-2, 100
    psi = bump_control(grid61, "w1", 0.1, 0.7, dt, nt)
    eta = bump_control(grid61, "w1", 0.3, 0.9, dt, nt)
    eps_list = (1e-1, 1e-2, 1e-3)
    slopes = {}
    for r in (1, 2):
        f = power_nonlinearity(1.0, r)
        errs = []
        for eps in eps_list:
            base = solve_nonlinear(op61, f, _scaled(psi, eps), dt, T_FINAL)
            bumped = solve_nonlinear(op61, f,
                                     _summed(_scaled(psi, eps),
                                             _scaled(eta, eps)), dt, T_FINAL)
            lin = solve_linearized(op61, f, base, eta, dt, T_FINAL)
            errs.append(np.abs((bumped.u - base.u) / eps - lin.u).max())
        assert errs[2] < errs[1] < errs[0]
        slopes[r] = np.polyfit(np.log(eps_list), np.log(errs), 1)[0]
    # bounded second derivative (r=1) realizes the first-order rate; the
    # cubic case converges at least as fast
    assert slopes[1] == pytest.approx(1.0, abs=0.1)
    assert slopes[2] >= 0.9
    print(f"\nacceptance 07 solution-map linearization: PASS — rate "
          f"{slopes[1]:.3f} for r=1 (r=2 rate {slopes[2]:.2f}), "
          f"errors decreasing over eps in 1e-1..1e-3")


def test_08_control_synthesis_refinement(tmp_path):
    report = _scenario({"dt": 5e-3, "experiment": {"kind": "runge"}},
                       tmp_path / "runge")
    m = report["metrics"]
    rel = m["relative_errors"]
    assert m["monotone"]
    assert rel[-1] <= 0.20
    assert report["passed"] is True
    print(f"\nacceptance 08 control synthesis: PASS — relative tracking "
          f"errors {[f'{r:.3f}' for r in rel]} over nested levels "
          f"{m['levels']}, final <= 20%")


def test_09_linear_potential_recovery(tmp_path):
    static = _scenario({
        "grid": {"n_nodes": 101},
        "dt": 5e-3,
        "seed": 7,
        "model": {"kind": "linear",
                  "q": {"kind": "gaussian", "amplitude": 0.5, "center": 0.5,
                        "width": 0.141421356}},
        "experiment": {"kind": "invert-linear", "basis_segments": 16,
                       "tolerance": 0.10},
        "regularization": {"alpha_inv": 1e-1, "synth_alpha": 1e-12},
    }, tmp_path / "static")
    rel_static = static["metrics"]["relative_l2_error"]
    assert static["passed"] is True
    assert rel_static <= 0.10

    ramp = _scenario({
        "grid": {"n_nodes": 101},
        "dt": 5e-3,
        "seed": 7,
        "model": {"kind": "linear",
                  "q": {"kind": "gaussian", "amplitude": 0.5, "center": 0.5,
                        "width": 0.141421356, "time": "ramp"}},
        "experiment": {"kind": "invert-linear", "basis_segments": 16,
                       "frame": "reversed", "q_time_basis": 3,
                       "tolerance": 0.15},
        "regularization": {"alpha_inv": 1e-1, "synth_alpha": 1e-12},
    }, tmp_path / "ramp")
    rel_ramp = ramp["metrics"]["relative_l2_error"]
    assert ramp["passed"] is True
    assert rel_ramp <= 0.15
    print(f"\nacceptance 09 linear potential recovery: PASS — static "
          f"gaussian on 33 omega nodes {rel_static:.2%} (<=10%); ramp "
          f"q=g(x)*t matched as its time reversal {rel_ramp:.2%} (<=15%)")


def test_10_nonlinear_coefficient_recovery(tmp_path):
    lines = []
    for r in (1, 2):
        report = _scenario({
            "grid": {"n_nodes": 101},
            "dt": 5e-3,
            "model": {"kind": "nonlinear",
                      "coeff": {"kind": "sine", "offset": 1.0,
                                "amplitude": 0.3, "frequency": 1.0},
                      "r": r},
            "experiment": {"kind": "invert-nonlinear", "psi_amplitude": 50.0,
                           "eps0": 0.1, "eps_list": [0.1, 0.03, 0.01],
                           "tolerance": 0.15, "exponent_tolerance": 0.1},
            "regularization": {"alpha_inv": 1e-2, "synth_alpha": 1e-12},
        }, tmp_path / f"r{r}")
        m = report["metrics"]
        assert report["passed"] is True
        assert abs(m["r_est"] - r) <= 0.1
        assert m["relative_l2_error_covered"] <= 0.15
        lines.append(f"r={r}: r_est {m['r_est']:.3f}, coeff error "
                     f"{m['relative_l2_error_covered']:.2%} on "
                     f"{m['n_covered']}/{m['n_omega']} nodes")
    print(f"\nacceptance 10 nonlinear coefficient recovery: PASS — "
          f"{'; '.join(lines)}")


def test_11_reproducibility(tmp_path):
    cfg = {
        "grid": {"n_nodes": 31},
        "dt": 0.02,
        "seed": 11,
        "noise": {"level": 1e-3},
        "model": {"kind": "linear",
                  "q": {"kind": "gaussian", "amplitude": 0.5, "center": 0.5,
                        "width": 0.2}},
        "experiment": {"kind": "invert-linear", "basis_segments": 8,
                       "target_stride": 2},
        "regularization": {"alpha_inv": 1e-2, "synth_alpha": 1e-12},
    }
    a = _scenario(cfg, tmp_path / "a")
    b = _scenario(cfg, tmp_path / "b")
    assert a["metrics"] == b["metrics"]
    print("\nacceptance 11 reproducibility: PASS — identical config and "
          "seed give identical report metrics")
