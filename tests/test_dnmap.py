"""Boundary pairings: time reversal, adjoint identities, record round trips."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from viscowave import (DNMapError, DNRecord, alessandrini_residual,
                       bump_control, dn_matrix_linear, dn_matrix_nonlinear,
                       dn_pairing, nonlinear_integral_identity_residual,
                       power_nonlinearity, reverse_potential,
                       self_adjointness_residual, solve_linear, time_reverse,
                       zero_nonlinearity)
from viscowave.controls import ControlBasis, materialize, spline_indices
from viscowave.dnmap import _pair_against_basis
from viscowave.solver import Trajectory

DT, NT = 0.02, 50
T_FINAL = 1.0


def test_time_reverse_array_involution(rng):
    arr = rng.normal(size=(11, 5))
    assert np.array_equal(time_reverse(time_reverse(arr)), arr)
    assert np.array_equal(time_reverse(arr), arr[::-1])


def test_time_reverse_trajectory(op31, grid31):
    ctl = bump_control(grid31, "w1", 0.1, 0.8, DT, NT)
    traj = solve_linear(op31, None, ctl, DT, T_FINAL)
    rev = time_reverse(traj)
    assert np.array_equal(rev.u, traj.u[::-1])
    assert np.array_equal(rev.v, -traj.v[::-1])
    back = time_reverse(rev)
    assert np.array_equal(back.u, traj.u)
    assert np.array_equal(back.v, traj.v)


def test_time_reverse_control(grid31):
    ctl = bump_control(grid31, "w1", 0.1, 0.6, DT, NT)
    rev = time_reverse(ctl)
    assert np.array_equal(rev.values, ctl.values[::-1])
    assert np.array_equal(rev.dvalues, -ctl.dvalues[::-1])
    assert rev.window == ctl.window


def test_time_reverse_rejects_scalars():
    with pytest.raises(DNMapError, match="cannot time-reverse"):
        time_reverse(3.0)


def test_reverse_potential_static_fixed_point():
    q = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(reverse_potential(q), q)


def test_reverse_potential_flips_time_axis():
    q = np.arange(12.0).reshape(4, 3)
    assert np.array_equal(reverse_potential(q), q[::-1])


def test_pairing_zero_trajectory_is_zero(op31, grid31):
    probe = bump_control(grid31, "w2", 0.1, 0.8, DT, NT)
    traj = solve_linear(op31, None, None, DT, T_FINAL)
    assert dn_pairing(op31, traj, probe) == 0.0


def test_pairing_linear_in_trajectory(op31, grid31):
    ctl = bump_control(grid31, "w1", 0.1, 0.8, DT, NT)
    probe = bump_control(grid31, "w2", 0.2, 0.9, DT, NT)
    traj = solve_linear(op31, None, ctl, DT, T_FINAL)
    doubled = Trajectory(u=2 * traj.u, v=2 * traj.v, dt=traj.dt)
    a = dn_pairing(op31, traj, probe)
    b = dn_pairing(op31, doubled, probe)
    assert b == pytest.approx(2 * a, rel=1e-13)
    assert abs(a) > 1e-10


def test_pairing_accepts_probes_on_either_window(op31, grid31):
    ctl = bump_control(grid31, "w1", 0.1, 0.8, DT, NT)
    traj = solve_linear(op31, None, ctl, DT, T_FINAL)
    p1 = bump_control(grid31, "w1", 0.2, 0.9, DT, NT)
    p2 = bump_control(grid31, "w2", 0.2, 0.9, DT, NT)
    assert abs(dn_pairing(op31, traj, p1)) > 0
    assert abs(dn_pairing(op31, traj, p2)) > 0


def test_pairing_type_and_shape_errors(op31, grid31):
    ctl = bump_control(grid31, "w1", 0.1, 0.8, DT, NT)
    traj = solve_linear(op31, None, ctl, DT, T_FINAL)
    with pytest.raises(DNMapError, match="ExteriorControl"):
        dn_pairing(op31, traj, np.zeros(5))
    short = bump_control(grid31, "w2", 0.1, 0.4, DT, NT // 2)
    with pytest.raises(DNMapError, match="probe sampled"):
        dn_pairing(op31, traj, short)


def test_pair_against_basis_matches_loop(op31, grid31):
    ctl = bump_control(grid31, "w1", 0.1, 0.8, DT, NT)
    traj = solve_linear(op31, None, ctl, DT, T_FINAL)
    basis = ControlBasis(grid31, "w2", T_FINAL, 8)
    fast = _pair_against_basis(op31, traj, basis, basis.time_matrix(DT, NT))
    slow = np.array([dn_pairing(op31, traj, materialize(sp, grid31, DT, NT))
                     for sp in basis.specs])
    assert_allclose(fast, slow, rtol=1e-12, atol=1e-15)


def test_dn_matrix_zero_potential_equals_zero_nonlinearity(op31, grid31):
    basis1 = ControlBasis(grid31, "w1", T_FINAL, 8)
    basis2 = ControlBasis(grid31, "w2", T_FINAL, 8)
    lin = dn_matrix_linear(op31, None, basis1, basis2, DT, T_FINAL)
    nl = dn_matrix_nonlinear(op31, zero_nonlinearity(), basis1, basis2,
                             DT, T_FINAL)
    assert_allclose(nl.pairings, lin.pairings, rtol=1e-11, atol=1e-14)


def test_dn_matrix_entries_match_pairing_oracle(op31, grid31):
    # each matrix entry equals a solve followed by a single pairing
    basis1 = ControlBasis(grid31, "w1", T_FINAL, 8)
    basis2 = ControlBasis(grid31, "w2", T_FINAL, 8)
    q = 0.3 * np.ones(grid31.omega.size)
    rec = dn_matrix_linear(op31, q, basis1, basis2, DT, T_FINAL)
    probes = [materialize(sp, grid31, DT, NT) for sp in basis2.specs]
    for i in (0, 7, len(basis1) - 1):
        ctl = materialize(basis1.specs[i], grid31, DT, NT)
        traj = solve_linear(op31, q, ctl, DT, T_FINAL)
        oracle = np.array([dn_pairing(op31, traj, p) for p in probes])
        assert_allclose(rec.pairings[i], oracle, rtol=1e-12, atol=1e-15)


def test_self_adjointness_residual_converges(op61, grid61):
    phi1 = lambda dt, nt: bump_control(grid61, "w1", 0.1, 0.8, dt, nt)
    phi2 = lambda dt, nt: bump_control(grid61, "w2", 0.2, 0.9, dt, nt)
    q = np.outer(np.linspace(0, T_FINAL, NT + 1),
                 grid61.x[grid61.omega])  # q = x * t
    rels = []
    for dt in (0.02, 0.01):
        nt = round(T_FINAL / dt)
        qt = np.outer(np.linspace(0, T_FINAL, nt + 1), grid61.x[grid61.omega])
        res, lhs, rhs = self_adjointness_residual(
            op61, qt, phi1(dt, nt), phi2(dt, nt), dt, T_FINAL)
        rels.append(abs(res) / max(abs(lhs), abs(rhs)))
    assert rels[1] < rels[0]
    assert rels[1] < 1e-2


def test_alessandrini_static_antisymmetry(op31, grid31, rng):
    om = grid31.omega
    q1 = np.exp(-((grid31.x[om] - 0.4) / 0.2) ** 2)
    q2 = 0.5 * np.sin(np.pi * grid31.x[om])
    phi1 = bump_control(grid31, "w1", 0.1, 0.8, DT, NT)
    phi2 = bump_control(grid31, "w2", 0.2, 0.9, DT, NT)
    lhs_a, _, _ = alessandrini_residual(op31, q1, q2, phi1, phi2, DT, T_FINAL)
    lhs_b, _, _ = alessandrini_residual(op31, q2, q1, phi1, phi2, DT, T_FINAL)
    assert lhs_a == pytest.approx(-lhs_b, rel=1e-10)


def test_alessandrini_residual_second_order_static(op31, grid31):
    om = grid31.omega
    q1 = np.exp(-((grid31.x[om] - 0.4) / 0.2) ** 2)
    q2 = np.zeros(om.size)
    dts = (0.02, 0.01, 0.005)
    rels = []
    for dt in dts:
        nt = round(T_FINAL / dt)
        phi1 = bump_control(grid31, "w1", 0.1, 0.8, dt, nt)
        phi2 = bump_control(grid31, "w2", 0.2, 0.9, dt, nt)
        lhs, rhs, res = alessandrini_residual(op31, q1, q2, phi1, phi2,
                                              dt, T_FINAL)
        rels.append(abs(res) / max(abs(lhs), abs(rhs)))
    assert rels[2] < rels[1] < rels[0]
    order = np.polyfit(np.log(dts), np.log(rels), 1)[0]
    assert order == pytest.approx(2.0, abs=0.4)


def test_alessandrini_residual_converges_time_dependent(op31, grid31):
    om = grid31.omega
    q1 = np.exp(-((grid31.x[om] - 0.4) / 0.2) ** 2)
    rels = []
    for dt in (0.01, 0.005, 0.0025):
        nt = round(T_FINAL / dt)
        q2 = np.outer(np.linspace(0, T_FINAL, nt + 1), grid31.x[om])
        phi1 = bump_control(grid31, "w1", 0.1, 0.8, dt, nt)
        phi2 = bump_control(grid31, "w2", 0.2, 0.9, dt, nt)
        lhs, rhs, res = alessandrini_residual(op31, q1, q2, phi1, phi2,
                                              dt, T_FINAL)
        rels.append(abs(res) / max(abs(lhs), abs(rhs)))
    assert rels[2] < rels[1] < rels[0]


def test_nonlinear_identity_equal_nonlinearities_vanish(op31, grid31):
    f = power_nonlinearity(1.0, 2)
    phi1 = bump_control(grid31, "w1", 0.1, 0.8, DT, NT, amplitude=0.1)
    phi2 = bump_control(grid31, "w2", 0.2, 0.9, DT, NT, amplitude=0.1)
    lhs, rhs, res = nonlinear_integral_identity_residual(
        op31, f, f, phi1, phi2, DT, T_FINAL)
    assert lhs == pytest.approx(0.0, abs=1e-14)


def test_nonlinear_identity_zero_probe_trivial(op31, grid31):
    f = power_nonlinearity(1.0, 2)
    phi1 = bump_control(grid31, "w1", 0.1, 0.8, DT, NT, amplitude=0.1)
    phi2 = bump_control(grid31, "w2", 0.2, 0.9, DT, NT, amplitude=0.0)
    lhs, rhs, res = nonlinear_integral_identity_residual(
        op31, f, zero_nonlinearity(), phi1, phi2, DT, T_FINAL)
    assert lhs == 0.0 and rhs == 0.0


def test_nonlinear_identity_residual_converges(op31, grid31):
    f1 = power_nonlinearity(1.0, 2)
    rels = []
    for dt in (0.01, 0.005, 0.0025):
        nt = round(T_FINAL / dt)
        phi1 = bump_control(grid31, "w1", 0.1, 0.8, dt, nt, amplitude=0.1)
        phi2 = bump_control(grid31, "w2", 0.2, 0.9, dt, nt, amplitude=0.1)
        lhs, rhs, res = nonlinear_integral_identity_residual(
            op31, f1, zero_nonlinearity(), phi1, phi2, dt, T_FINAL)
        rels.append(abs(res) / max(abs(lhs), abs(rhs)))
    assert rels[2] < rels[1] < rels[0]


def test_dn_record_round_trip(op31, grid31, tmp_path):
    basis1 = ControlBasis(grid31, "w1", T_FINAL, 8)
    basis2 = ControlBasis(grid31, "w2", T_FINAL, 8)
    q = 0.3 * np.ones(grid31.omega.size)
    rec = dn_matrix_linear(op31, q, basis1, basis2, DT, T_FINAL, tag="demo")
    path = tmp_path / "dn_record.json"
    rec.save(path)
    loaded = DNRecord.load(path)
    assert np.array_equal(loaded.pairings, rec.pairings)
    assert loaded.s == rec.s
    assert loaded.dt == rec.dt
    assert loaded.t_final == rec.t_final
    assert loaded.tag == "demo"
    assert loaded.controls == rec.controls
    assert loaded.probes == rec.probes


def test_dn_matrix_window_validation(op31, grid31):
    basis1 = ControlBasis(grid31, "w1", T_FINAL, 8)
    basis2 = ControlBasis(grid31, "w2", T_FINAL, 8)
    with pytest.raises(DNMapError, match="probe basis"):
        dn_matrix_linear(op31, None, basis1, basis1, DT, T_FINAL)
    with pytest.raises(DNMapError, match="control basis"):
        dn_matrix_linear(op31, None, basis2, basis2, DT, T_FINAL)


def test_spline_indices_consistency():
    assert spline_indices(8) == [1, 2, 3]
    assert len(spline_indices(16)) == 11
    assert len(spline_indices(32)) == 27
