"""Boundary pairings: time reversal, adjoint identities, record round trips."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from viscowave import (BackgroundStates, DNMapError, DNRecord, alessandrini_residual,
                       bump_control, dn_difference_linear, dn_matrix_linear,
                       dn_pairing, nonlinear_integral_identity_residual,
                       power_nonlinearity, reverse_potential,
                       self_adjointness_residual, solve_linear,
                       time_reverse, zero_nonlinearity)
from viscowave.controls import (ControlBasis, ControlError, ExteriorControl,
                                materialize, spline_indices)
from viscowave.dnmap import _pair_against_basis
from viscowave.grid import GridError
from viscowave import dnmap, solver
from viscowave.solver import Trajectory

DT, NT = 0.02, 50
T_FINAL = 1.0


def test_time_reverse_array_involution(rng):
    arr = rng.normal(size=(11, 5))
    assert np.array_equal(time_reverse(time_reverse(arr)), arr)
    assert np.array_equal(time_reverse(arr), arr[::-1])


def _same(a, b):
    # tobytes, not array_equal: signed zeros must come back too
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=60, deadline=None)
@given(shape=st.tuples(st.integers(2, 12), st.integers(1, 6)),
       dt=st.sampled_from([0.02, 0.125, 0.3]), data=st.data())
def test_time_reverse_is_an_involution(shape, dt, data):
    u, v = (data.draw(arrays(np.float64, shape, elements=st.floats(allow_nan=False)))
            for _ in range(2))
    assert _same(time_reverse(time_reverse(u)), u)

    iters = data.draw(st.none() | arrays(int, shape[0] - 1, elements=st.integers(0, 25)))
    back = time_reverse(time_reverse(Trajectory(u=u, v=v, dt=dt, newton_iters=iters)))
    assert _same(back.u, u) and _same(back.v, v) and back.dt == dt
    assert back.newton_iters is None if iters is None else _same(back.newton_iters, iters)

    ctl = ExteriorControl(values=u, dvalues=v, window="w1", dt=dt)
    back = time_reverse(time_reverse(ctl))
    assert _same(back.values, u) and _same(back.dvalues, v)
    assert (back.window, back.dt) == ("w1", dt)


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
    basis = ControlBasis(grid31, "w2", DT, T_FINAL, 8)
    fast = _pair_against_basis(op31, traj, basis)
    slow = np.array([dn_pairing(op31, traj, materialize(basis, i))
                     for i in range(len(basis))])
    assert_allclose(fast, slow, rtol=1e-12, atol=1e-15)


def test_dn_matrix_entries_match_pairing_oracle(op31, grid31):
    # each matrix entry equals a solve followed by a single pairing
    basis1 = ControlBasis(grid31, "w1", DT, T_FINAL, 8)
    basis2 = ControlBasis(grid31, "w2", DT, T_FINAL, 8)
    q = 0.3 * np.ones(grid31.omega.size)
    rec = dn_matrix_linear(op31, q, basis1, basis2)
    probes = [materialize(basis2, j) for j in range(len(basis2))]
    for i in (0, 7, len(basis1) - 1):
        ctl = materialize(basis1, i)
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
    basis1 = ControlBasis(grid31, "w1", DT, T_FINAL, 8)
    basis2 = ControlBasis(grid31, "w2", DT, T_FINAL, 8)
    q = 0.3 * np.ones(grid31.omega.size)
    rec = dn_matrix_linear(op31, q, basis1, basis2, tag="demo")
    path = tmp_path / "dn_record.json"
    rec.save(path)
    loaded = DNRecord.load(path, grid31)
    assert np.array_equal(loaded.pairings, rec.pairings)
    assert loaded.s == rec.s
    assert loaded.dt == rec.dt
    assert loaded.t_final == rec.t_final
    assert loaded.tag == "demo"
    for got, saved in ((loaded.controls, basis1), (loaded.probes, basis2)):
        assert (got.window, got.t_final, got.n_segments) == \
            (saved.window, saved.t_final, saved.n_segments)
        assert got.nodes == saved.nodes and got.tsplines == saved.tsplines
        assert np.array_equal(got.values, saved.values)


def test_dn_record_stores_each_basis_as_window_and_level(op31, grid31, tmp_path):
    basis1 = ControlBasis(grid31, "w1", DT, T_FINAL, 8)
    basis2 = ControlBasis(grid31, "w2", DT, T_FINAL, 16)
    rec = dn_matrix_linear(op31, None, basis1, basis2)
    saved = rec.to_dict()
    assert saved["controls"] == {"window": "w1", "n_segments": 8}
    assert saved["probes"] == {"window": "w2", "n_segments": 16}
    # a basis runs over the record's horizon; an edited window or level is
    # rejected when the basis is rebuilt
    for key, edit, error in (("controls", {"window": "w3"}, GridError),
                             ("probes", {"n_segments": 6}, ControlError),
                             ("probes", {"n_segments": 8.5}, ControlError)):
        bad = dict(saved, **{key: dict(saved[key], **edit)})
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(error):
            DNRecord.load(path, grid31)


def test_dn_matrix_window_validation(op31, grid31):
    basis1 = ControlBasis(grid31, "w1", DT, T_FINAL, 8)
    basis2 = ControlBasis(grid31, "w2", DT, T_FINAL, 8)
    with pytest.raises(DNMapError, match="probe basis"):
        dn_matrix_linear(op31, None, basis1, basis1)
    with pytest.raises(DNMapError, match="control basis"):
        dn_matrix_linear(op31, None, basis2, basis2)


def test_spline_indices_consistency():
    assert spline_indices(8) == [1, 2, 3]
    assert len(spline_indices(16)) == 11
    assert len(spline_indices(32)) == 27


# ------------------------------------- reference: the measurement loop before blocking


def _reference_dn_matrix(op, solve, model, control_basis, probe_basis, dt, t_final, tag):
    """dnmap._dn_matrix as it stood before the blocked pass, less its window check."""
    rows = []
    for i in range(len(control_basis)):
        ctrl = materialize(control_basis, i)
        traj = solve(op, model, ctrl, dt, t_final)
        rows.append(_pair_against_basis(op, traj, probe_basis))
    return DNRecord(s=op.s, tag=tag,
                    controls=control_basis, probes=probe_basis,
                    pairings=np.asarray(rows))


def _potential(grid, kind, amplitude=0.3):
    prof = amplitude * np.exp(-((grid.x[grid.omega] - 0.5) / 0.2) ** 2)
    return {"none": None, "static": prof,
            "time-dependent": np.outer(DT * np.arange(NT + 1), prof)}[kind]


def _assert_close(got, ref, rtol):
    """got within rtol of ref, relative to ref's largest entry."""
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= rtol * np.abs(ref).max()


@pytest.mark.parametrize("kind", ["none", "static", "time-dependent"])
def test_dn_matrix_linear_matches_reference_loop_bitwise(op31, grid31, kind):
    # the basis pass pairs the omega states through L's probe columns and
    # adds the controls' own exterior part: another summation order than
    # one full-grid flux per trajectory, so 1e-12, not equal bits
    basis1 = ControlBasis(grid31, "w1", DT, T_FINAL, 8)
    basis2 = ControlBasis(grid31, "w2", DT, T_FINAL, 8)
    q = _potential(grid31, kind)
    rec = dn_matrix_linear(op31, q, basis1, basis2, tag="t")
    ref = _reference_dn_matrix(op31, solve_linear, q, basis1, basis2, DT, T_FINAL, "t")
    _assert_close(rec.pairings, ref.pairings, 1e-12)
    assert {**rec.to_dict(), "pairings": None} == {**ref.to_dict(), "pairings": None}


def test_records_check_the_windows_before_any_pass(op31, grid31, monkeypatch):
    basis1 = ControlBasis(grid31, "w1", DT, T_FINAL, 8)
    basis2 = ControlBasis(grid31, "w2", DT, T_FINAL, 8)
    background = BackgroundStates(op31, None, basis1)
    monkeypatch.setattr(solver, "_basis_pass", None)
    with pytest.raises(DNMapError, match="^control basis must live on window w1$"):
        dn_matrix_linear(op31, None, basis2, basis2)
    with pytest.raises(DNMapError, match="^probe basis must live on window w2$"):
        dn_matrix_linear(op31, None, basis1, basis1)
    with pytest.raises(DNMapError, match="^probe basis must live on window w2$"):
        dn_difference_linear(None, background, basis1)


def test_records_check_the_probe_time_grid_before_any_pass(op31, grid31, monkeypatch):
    # a probe basis sampled on another dt, or over another horizon, is
    # refused before the basis pass that the control basis's grid would set
    basis1 = ControlBasis(grid31, "w1", DT, T_FINAL, 8)
    background = BackgroundStates(op31, None, basis1)

    def unreached(*args, **kwargs):
        raise AssertionError("a basis pass ran before the grids were checked")

    for name in ("solve_linear_basis", "solve_linear_difference"):
        monkeypatch.setattr(dnmap, name, unreached)
    for probes in (ControlBasis(grid31, "w2", 0.01, T_FINAL, 8),
                   ControlBasis(grid31, "w2", DT, 2 * T_FINAL, 8)):
        with pytest.raises(DNMapError, match="^probe basis time grid"):
            dn_matrix_linear(op31, None, basis1, probes)
        with pytest.raises(DNMapError, match="^probe basis time grid"):
            dn_difference_linear(None, background, probes)


@pytest.mark.parametrize("kind", ["static", "time-dependent"])
def test_difference_record_matches_the_subtraction(op31, grid31, kind):
    basis1 = ControlBasis(grid31, "w1", DT, T_FINAL, 8)
    basis2 = ControlBasis(grid31, "w2", DT, T_FINAL, 8)
    q = _potential(grid31, kind)
    background = BackgroundStates(op31, None, basis1)
    diff = dn_difference_linear(q, background, basis2, tag="d")
    data = dn_matrix_linear(op31, q, basis1, basis2)
    zero = dn_matrix_linear(op31, None, basis1, basis2)
    _assert_close(diff.pairings, data.pairings - zero.pairings, 1e-11)
    assert diff.tag == "d"
    assert diff.controls == data.controls and diff.probes == data.probes


def test_difference_record_keeps_its_accuracy_for_weak_potentials(op31, grid31):
    # halving q halves the difference to first order, down to amplitudes
    # where a subtraction of two records would be mostly rounding
    basis1 = ControlBasis(grid31, "w1", DT, T_FINAL, 8)
    basis2 = ControlBasis(grid31, "w2", DT, T_FINAL, 8)
    background = BackgroundStates(op31, None, basis1)
    diffs = [dn_difference_linear(_potential(grid31, "static", a), background,
                                  basis2).pairings for a in (1e-9, 5e-10)]
    _assert_close(2.0 * diffs[1], diffs[0], 1e-8)
