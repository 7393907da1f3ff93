"""Boundary pairings: time reversal, adjoint identities, measurement matrices."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from viscowave import (BackgroundStates, DNMapError, LinearRecovery, alessandrini_residual,
                       bump_control, dn_difference_linear, dn_matrix_linear,
                       dn_moments_linear, dn_pairing, dn_remainders_nonlinear,
                       nonlinear_integral_identity_residual,
                       power_nonlinearity, self_adjointness_residual, solve_linear,
                       time_reverse, zero_nonlinearity)
from viscowave.controls import (ControlBasis, ExteriorControl,
                                materialize, spline_indices)
from viscowave.dnmap import _pair_against_basis
from viscowave import dnmap, inversion, solver
from viscowave.solver import Trajectory

DT, NT = 0.02, 50
T_FINAL = 1.0


def _same(a, b):
    # tobytes, not array_equal: signed zeros must come back too
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=60, deadline=None)
@given(shape=st.tuples(st.integers(2, 12), st.integers(1, 6)),
       dt=st.sampled_from([0.02, 0.125, 0.3]), data=st.data())
def test_time_reverse_is_an_involution(shape, dt, data):
    u, v = (data.draw(arrays(np.float64, shape, elements=st.floats(allow_nan=False)))
            for _ in range(2))
    ctl = ExteriorControl(values=u, dvalues=v, window="w1", dt=dt)
    back = time_reverse(time_reverse(ctl))
    assert _same(back.values, u) and _same(back.dvalues, v)
    assert (back.window, back.dt) == ("w1", dt)


def test_time_reverse_control(grid31):
    ctl = bump_control(grid31, "w1", 0.1, 0.6, DT, NT)
    rev = time_reverse(ctl)
    assert np.array_equal(rev.values, ctl.values[::-1])
    assert np.array_equal(rev.dvalues, -ctl.dvalues[::-1])
    assert rev.window == ctl.window


def test_time_reverse_rejects_scalars():
    # and anything else that is not a control: measurements reverse controls only
    for obj in (3.0, np.zeros((3, 2)),
                Trajectory(u=np.zeros((3, 2)), v=np.zeros((3, 2)), dt=DT)):
        with pytest.raises(DNMapError, match="^cannot time-reverse a "):
            time_reverse(obj)


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
    slow = np.array([dn_pairing(op31, traj, time_reverse(materialize(basis, i)))
                     for i in range(len(basis))])
    assert_allclose(fast, slow, rtol=1e-12, atol=1e-15)


def test_dn_matrix_entries_match_pairing_oracle(op31, grid31):
    # each matrix row equals a solve followed by pairings against the
    # reversed probes
    basis1 = ControlBasis(grid31, "w1", DT, T_FINAL, 8)
    basis2 = ControlBasis(grid31, "w2", DT, T_FINAL, 8)
    q = 0.3 * np.ones(grid31.omega.size)
    pairings = dn_matrix_linear(op31, q, basis1, basis2)
    probes = [time_reverse(materialize(basis2, j)) for j in range(len(basis2))]
    for i in (0, 7, len(basis1) - 1):
        ctl = materialize(basis1, i)
        traj = solve_linear(op31, q, ctl, DT, T_FINAL)
        oracle = np.array([dn_pairing(op31, traj, p) for p in probes])
        assert_allclose(pairings[i], oracle, rtol=1e-12, atol=1e-15)


PAIRS = ((0, 0), (4, 10), (10, 4), (13, 17), (17, 2))


@pytest.mark.parametrize("kind", ["static", "ramp"])
def test_dn_matrix_pairs_each_control_with_the_reversed_probe(op31, grid31, kind):
    # P[i, j] = <M_q phi_i, psi_j*>: the probe enters reversed in time
    basis1 = ControlBasis(grid31, "w1", DT, T_FINAL, 8)
    basis2 = ControlBasis(grid31, "w2", DT, T_FINAL, 8)
    q = _potential(grid31, {"static": "static", "ramp": "time-dependent"}[kind])
    pairings = dn_matrix_linear(op31, q, basis1, basis2)
    for i, j in PAIRS:
        traj = solve_linear(op31, q, materialize(basis1, i), DT, T_FINAL)
        oracle = dn_pairing(op31, traj, time_reverse(materialize(basis2, j)))
        assert pairings[i, j] == pytest.approx(oracle, rel=1e-12)


def test_remainder_sweep_pairs_against_the_reversed_probes(op31, grid31):
    basis2 = ControlBasis(grid31, "w2", DT, T_FINAL, 8)
    psi = bump_control(grid31, "w1", 0.1, 0.9, DT, NT)
    lin, p_lin, _ = dn_remainders_nonlinear(op31, power_nonlinearity(1.0, 2), psi,
                                            basis2, [0.1, 0.05])
    for _, j in PAIRS:
        oracle = dn_pairing(op31, lin, time_reverse(materialize(basis2, j)))
        assert p_lin[j] == pytest.approx(oracle, rel=1e-12)


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


def test_identity_checks_read_tiled_static_potentials_as_their_row(op31, grid31):
    # samples the same at every time node are static, as the solver reads
    # them: both checks give the bytes of the one row they repeat
    om = grid31.omega
    q1 = np.exp(-((grid31.x[om] - 0.4) / 0.2) ** 2)
    q2 = 0.5 * np.sin(np.pi * grid31.x[om])
    phi1 = bump_control(grid31, "w1", 0.1, 0.8, DT, NT)
    phi2 = bump_control(grid31, "w2", 0.2, 0.9, DT, NT)

    def checks(a, b):
        return np.array([*self_adjointness_residual(op31, a, phi1, phi2, DT, T_FINAL),
                         *alessandrini_residual(op31, a, b, phi1, phi2, DT, T_FINAL)])

    row = checks(q1, q2)
    tiled = checks(*(np.tile(q, (NT + 1, 1)) for q in (q1, q2)))
    assert np.isfinite(row).all() and tiled.tobytes() == row.tobytes()


def test_identity_checks_refuse_controls_on_the_other_window(op31, grid31):
    # every check drives phi1 from w1 and phi2 from w2, before any solve
    phi1 = bump_control(grid31, "w1", 0.1, 0.8, DT, NT)
    phi2 = bump_control(grid31, "w2", 0.2, 0.9, DT, NT)
    f = power_nonlinearity(1.0, 2)
    checks = (lambda a, b: self_adjointness_residual(op31, None, a, b, DT, T_FINAL),
              lambda a, b: alessandrini_residual(op31, None, None, a, b, DT, T_FINAL),
              lambda a, b: nonlinear_integral_identity_residual(op31, f, f, a, b, DT, T_FINAL))
    for check in checks:
        with pytest.raises(DNMapError, match="^phi1 must be supported on w1, got w2$"):
            check(phi2, phi1)
        with pytest.raises(DNMapError, match="^phi2 must be supported on w2, got w1$"):
            check(phi1, phi1)


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


def _reference_dn_matrix(op, solve, model, control_basis, probe_basis, dt, t_final):
    """dnmap._dn_matrix as it stood before the blocked pass, less its window check."""
    rows = []
    for i in range(len(control_basis)):
        ctrl = materialize(control_basis, i)
        traj = solve(op, model, ctrl, dt, t_final)
        rows.append(_pair_against_basis(op, traj, probe_basis))
    return np.asarray(rows)


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
    pairings = dn_matrix_linear(op31, q, basis1, basis2)
    ref = _reference_dn_matrix(op31, solve_linear, q, basis1, basis2, DT, T_FINAL)
    _assert_close(pairings, ref, 1e-12)


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
    diff = dn_difference_linear(q, background, basis2)
    data = dn_matrix_linear(op31, q, basis1, basis2)
    zero = dn_matrix_linear(op31, None, basis1, basis2)
    _assert_close(diff, data - zero, 1e-11)


def test_difference_record_keeps_its_accuracy_for_weak_potentials(op31, grid31):
    # halving q halves the difference to first order, down to amplitudes
    # where a subtraction of two matrices would be mostly rounding
    basis1 = ControlBasis(grid31, "w1", DT, T_FINAL, 8)
    basis2 = ControlBasis(grid31, "w2", DT, T_FINAL, 8)
    background = BackgroundStates(op31, None, basis1)
    diffs = [dn_difference_linear(_potential(grid31, "static", a), background,
                                  basis2) for a in (1e-9, 5e-10)]
    _assert_close(2.0 * diffs[1], diffs[0], 1e-8)


# measured maxima, relative to the largest entry, of the moments measured on
# the synthesized controls against c1 dP c2^T of the element pass, at
# synth_alpha 1e-4: 31 nodes 1.8e-13 static and 1.6e-13 ramp, 101 nodes
# 2.3e-12 static and 2.5e-12 ramp.  At the default 1e-12, where ||c1||_2 is
# about 3e8 at 101 nodes, the ramp's reached 4.7e-5: both paths sum the
# large coefficients, each at another place
MOMENTS_RTOL = 1e-11


@pytest.mark.parametrize("kind", ["static", "ramp"])
@pytest.mark.parametrize("n_nodes", [31, 101])
def test_moments_of_the_synthesized_controls_match_the_element_pass(request, n_nodes, kind):
    # the measurement is linear in the control, so the pass of the
    # synthesized w1 controls, driven by their achieved states, measures
    # c1 dP; with every second or third omega node a target they are fewer
    # rows than a static q's seeds, as the runner then chooses
    op = request.getfixturevalue(f"op{n_nodes}")
    grid = op.grid
    dt, n_segments, stride = (DT, 8, 2) if n_nodes == 31 else (5e-3, 16, 3)
    basis1, basis2 = (ControlBasis(grid, w, dt, T_FINAL, n_segments) for w in ("w1", "w2"))
    profile = 0.5 * np.exp(-((grid.x[grid.omega] - 0.5) / 0.141421356) ** 2)
    q = profile if kind == "static" else np.outer(dt * np.arange(basis1.n_steps + 1), profile)
    background = BackgroundStates(op, None, basis1)
    recovery = LinearRecovery(background, basis2, 1e-1, 1e-4,
                              q_time_basis=None if kind == "static" else 3,
                              target_nodes=grid.omega[::stride])
    assert solver.steps_controls(basis1, q, None, len(recovery.coeff1))
    got = dn_moments_linear(q, recovery)
    ref = recovery.coeff1 @ dn_difference_linear(q, background, basis2) @ recovery.coeff2.T
    _assert_close(got, ref, MOMENTS_RTOL)


@pytest.mark.parametrize("kind", ["static", "ramp"])
def test_controls_pass_leaves_the_achieved_states_unchanged(op31, grid31, kind):
    # the difference drive overwrites the block of states it is given, so the
    # recovery hands the pass fresh copies of its w1 achieved states
    basis1, basis2 = (ControlBasis(grid31, w, DT, T_FINAL, 8) for w in ("w1", "w2"))
    profile = 0.5 * np.exp(-((grid31.x[grid31.omega] - 0.5) / 0.141421356) ** 2)
    q = profile if kind == "static" else np.outer(DT * np.arange(NT + 1), profile)
    recovery = LinearRecovery(BackgroundStates(op31, None, basis1), basis2, 1e-1, 1e-4,
                              q_time_basis=None if kind == "static" else 3,
                              target_nodes=grid31.omega[::2])
    before = recovery.achieved1.tobytes()
    dn_moments_linear(q, recovery)
    assert recovery.achieved1.tobytes() == before
    rows = np.array([4, 0, 1, len(recovery.coeff1) - 1])
    block = recovery.states_of(rows)
    assert block.flags.writeable and not np.shares_memory(block, recovery.achieved1)
    assert _same(block, recovery.achieved1[rows].transpose(1, 0, 2))
    block[...] = 0.0
    assert recovery.achieved1.tobytes() == before


def _recovery_and_potential(op, kind):
    """A recovery over the q = 0 background at every second (31 nodes) or
    third (101) omega node, and a static or ramp potential on its time grid,
    at the settings of the benchmark's invert-linear runs at 101 nodes."""
    grid = op.grid
    dt, n_segments, stride = (DT, 8, 2) if grid.n_nodes == 31 else (5e-3, 16, 3)
    basis1, basis2 = (ControlBasis(grid, w, dt, T_FINAL, n_segments) for w in ("w1", "w2"))
    profile = 0.5 * np.exp(-((grid.x[grid.omega] - 0.5) / 0.141421356) ** 2)
    q = profile if kind == "static" else np.outer(dt * np.arange(basis1.n_steps + 1), profile)
    recovery = LinearRecovery(BackgroundStates(op, None, basis1), basis2, 1e-1, 1e-12,
                              q_time_basis=None if kind == "static" else 3,
                              target_nodes=grid.omega[::stride])
    return recovery, q


@pytest.mark.parametrize("kind", ["static", "ramp"])
@pytest.mark.parametrize("n_nodes", [31, 101])
def test_kernel_formed_alongside_the_data_pass_is_the_inline_one(request, monkeypatch,
                                                                 n_nodes, kind):
    # these targets make the controls fewer than a static q's seeds, so the
    # controls pass runs while a worker forms the kernel; one function forms
    # it on either thread, into arrays the constructor allocated, so the
    # estimate is bitwise that of a kernel formed inline before the pass
    op = request.getfixturevalue(f"op{n_nodes}")
    baseline = threading.active_count()
    kernel, threads = inversion._probing_kernel, []

    def recording_kernel(*args):
        threads.append(threading.current_thread())
        kernel(*args)

    monkeypatch.setattr(inversion, "_probing_kernel", recording_kernel)
    inline, q = _recovery_and_potential(op, kind)
    inline.estimate(np.zeros((len(inline.coeff1), len(inline.coeff2))))
    ref = inline.estimate(dn_moments_linear(q, inline))
    aside = _recovery_and_potential(op, kind)[0]
    got = aside.estimate(dn_moments_linear(q, aside))
    assert threads[0] is threading.main_thread() and threads[1] is not threads[0]
    assert len(threads) == 2 and threading.active_count() == baseline
    assert _same(aside.kernel, inline.kernel)
    assert _same(got.values, ref.values) and _same(got.covered, ref.covered)
    assert got.diagnostics == ref.diagnostics
    # the w2 states and the kernel's buffers go once it is formed; the w1
    # states stay for a later controls pass
    held = [v for v in vars(aside).values() if isinstance(v, np.ndarray) and v.ndim == 3]
    assert held == [aside.achieved1] and aside._kernel_job is None


def test_controls_pass_runs_while_the_worker_forms_the_kernel(op31, monkeypatch):
    # a ramp shifts nothing, so its 15 controls step, fewer than the 18
    # elements: the worker forms the kernel while the pass runs, and waits
    # for the pass to start before it begins
    baseline = threading.active_count()
    recovery, q = _recovery_and_potential(op31, "ramp")
    in_pass, overlapped = threading.Event(), []
    kernel, difference = inversion._probing_kernel, dnmap.solve_linear_difference

    def waiting_kernel(*args):
        overlapped.append((threading.current_thread(), in_pass.wait(30)))
        kernel(*args)

    def signalling_difference(*args, **kwargs):
        in_pass.set()
        return difference(*args, **kwargs)

    monkeypatch.setattr(inversion, "_probing_kernel", waiting_kernel)
    monkeypatch.setattr(dnmap, "solve_linear_difference", signalling_difference)
    dn_moments_linear(q, recovery)
    [(worker, waited)] = overlapped
    assert worker is not threading.main_thread() and waited
    assert threading.active_count() == baseline


@pytest.mark.parametrize("n_nodes", [31, 101])
def test_element_pass_runs_with_no_synthesized_state_alive(request, monkeypatch, n_nodes):
    # with every omega node a target the controls outnumber a static q's
    # seeds, so the elements step: first the recovery forms its kernel on
    # this thread and releases both sides' achieved states, and the moments
    # are bitwise those of the elements' pairings
    op = request.getfixturevalue(f"op{n_nodes}")
    grid = op.grid
    dt, n_segments = (DT, 8) if n_nodes == 31 else (5e-3, 16)
    basis1, basis2 = (ControlBasis(grid, w, dt, T_FINAL, n_segments) for w in ("w1", "w2"))
    q = 0.5 * np.exp(-((grid.x[grid.omega] - 0.5) / 0.141421356) ** 2)
    background = BackgroundStates(op, None, basis1)
    recovery = LinearRecovery(background, basis2, 1e-1, 1e-12)
    assert not solver.steps_controls(basis1, q, None, len(recovery.coeff1))
    threads, entered = [], []
    kernel, difference = inversion._probing_kernel, dnmap.solve_linear_difference

    def recording_kernel(*args):
        threads.append(threading.current_thread())
        kernel(*args)

    def recording_difference(*args, **kwargs):
        entered.append(([v for v in vars(recovery).values()
                         if isinstance(v, np.ndarray) and v.ndim == 3],
                        recovery._kernel_job, recovery.achieved1))
        return difference(*args, **kwargs)

    monkeypatch.setattr(inversion, "_probing_kernel", recording_kernel)
    monkeypatch.setattr(dnmap, "solve_linear_difference", recording_difference)
    got = dn_moments_linear(q, recovery)
    monkeypatch.undo()
    assert threads == [threading.main_thread()] and entered == [([], None, None)]
    assert _same(got, recovery.moments(dn_difference_linear(q, background, basis2)))
    # the estimate is bitwise that of a recovery built after the element pass
    late = LinearRecovery(background, basis2, 1e-1, 1e-12)
    ref = late.estimate(late.moments(dn_difference_linear(q, background, basis2)))
    est = recovery.estimate(got)
    assert _same(est.values, ref.values) and est.diagnostics == ref.diagnostics


@pytest.mark.parametrize("kind", ["static", "ramp"])
def test_a_recovery_without_its_states_measures_through_the_elements(op31, kind):
    # once the states are released the controls cannot step, whatever the
    # rows: a later potential is measured by the element pass, bitwise
    recovery, q = _recovery_and_potential(op31, kind)
    background, basis2 = recovery.background, recovery.probe_basis
    with recovery.data_pass(False) as controls:
        assert controls is False
    assert recovery.achieved1 is None and recovery._kernel_job is None
    assert solver.steps_controls(background.basis, q, None, len(recovery.coeff1))
    got = dn_moments_linear(q, recovery)
    assert _same(got, recovery.moments(dn_difference_linear(q, background, basis2)))
    assert _same(dn_moments_linear(q, recovery), got)


def test_a_recovery_that_released_its_states_steps_no_controls(op31):
    # once its w1 states are gone the recovery answers False whatever the
    # caller found, and starts no worker: its kernel is formed already
    recovery, q = _recovery_and_potential(op31, "ramp")
    with recovery.data_pass(False) as controls:
        assert controls is False
    baseline = threading.active_count()
    with recovery.data_pass(True) as controls:
        assert controls is False and threading.active_count() == baseline
    assert recovery.achieved1 is None and recovery._worker is None


def test_step_failure_in_the_data_pass_leaves_no_worker(op31):
    # the data pass raises on the caller's thread; leaving the data_pass
    # block joins the worker, and the kernel it formed is still read
    baseline = threading.active_count()
    recovery, q = _recovery_and_potential(op31, "ramp")
    q[20] = np.inf
    with np.errstate(all="ignore"), pytest.raises(solver.StepFailureError) as err:
        with recovery.data_pass(True) as controls:
            assert controls
            dn_moments_linear(q, recovery)
    assert err.value.step == 20
    assert threading.active_count() == baseline
    n = len(recovery.coeff1)
    est = recovery.estimate(np.zeros((n, n)))
    assert not est.values.any()


def test_kernel_errors_surface_on_the_reading_thread(op31, monkeypatch):
    # a zero probing system is refused by the kernel's first reader with the
    # message it had when the constructor formed it; what the worker raises
    # is raised there too, not lost on the worker
    baseline = threading.active_count()
    zero_targets = (np.zeros((3, NT + 1)), np.zeros((1, op31.grid.omega.size)))
    monkeypatch.setattr(inversion, "interior_targets", lambda basis, nodes, width: zero_targets)
    recovery, q = _recovery_and_potential(op31, "ramp")
    moments = dn_moments_linear(q, recovery)
    with pytest.raises(inversion.InversionError, match="^probing system is identically zero$"):
        recovery.estimate(moments)
    monkeypatch.undo()

    recovery, q = _recovery_and_potential(op31, "ramp")
    recovery._kernel_job[4].flags.writeable = False
    moments = dn_moments_linear(q, recovery)
    with pytest.raises(ValueError, match="read-only"):
        recovery.estimate(moments)
    assert threading.active_count() == baseline
