"""Time stepping: pinning, determinism, energy bookkeeping, Newton, linearization."""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import lu_factor, lu_solve

from viscowave import (NewtonDivergenceError, SolverError, StepFailureError,
                       bump_control, dualnorm_hminus, energy_ledger, norm_l2,
                       power_nonlinearity, seminorm_hs, solve_linear,
                       solve_linearized, solve_nonlinear, trajectory_to_csv,
                       zero_nonlinearity)
from viscowave import (BackgroundStates, dn_difference_linear, dn_matrix_linear, dnmap,
                       solver)
from viscowave.controls import ControlBasis, make_control, materialize
from viscowave.solver import (NEWTON_MAXIT, NEWTON_SPLIT_RHO, NEWTON_TOL, _check_control,
                              _expand_field, _expand_potential, _newton_correction,
                              _step_inverses, _step_matrix, n_steps_for, trapezoid_weights)

DT, NT = 0.02, 50
T_FINAL = 1.0


def interior_bump(grid, center=0.5, width=0.15):
    u0 = np.zeros(grid.n_nodes)
    om = grid.omega
    u0[om] = np.exp(-((grid.x[om] - center) / width) ** 2)
    return u0


def test_zero_inputs_give_zero_trajectory(op31):
    traj = solve_linear(op31, None, None, DT, T_FINAL)
    assert traj.u.max() == 0.0 and traj.v.max() == 0.0
    assert traj.u.min() == 0.0 and traj.v.min() == 0.0


def test_exterior_nodes_pinned_to_control(op31, grid31):
    ctl = bump_control(grid31, "w1", 0.1, 0.8, DT, NT)
    traj = solve_linear(op31, None, ctl, DT, T_FINAL)
    ext = grid31.exterior
    assert np.array_equal(traj.u[:, ext], ctl.values[:, ext])
    assert np.array_equal(traj.v[:, ext], ctl.dvalues[:, ext])
    # and the interior actually responds
    assert np.abs(traj.u[:, grid31.omega]).max() > 1e-6


def test_determinism_bitwise(op31, grid31):
    ctl = bump_control(grid31, "w1", 0.1, 0.8, DT, NT)
    q = 0.3 * interior_bump(grid31)[grid31.omega]
    a = solve_linear(op31, q, ctl, DT, T_FINAL)
    b = solve_linear(op31, q, ctl, DT, T_FINAL)
    assert np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v)


def test_n_steps_for_divisibility():
    assert n_steps_for(0.02, 1.0) == 50
    assert n_steps_for(0.0025, 1.0) == 400
    with pytest.raises(SolverError, match="does not divide"):
        n_steps_for(0.03, 1.0)
    with pytest.raises(SolverError, match="does not divide"):
        n_steps_for(0.6, 1.0)
    # a horizon of one step divides, and is too short
    with pytest.raises(SolverError, match=r"^dt=1.0 gives 1 step\(s\) over t_final=1.0; "
                                          "need at least 2$"):
        n_steps_for(1.0, 1.0)


def test_trapezoid_weights_sum():
    w = trapezoid_weights(10)
    assert w.sum() == pytest.approx(10.0)
    assert w[0] == w[-1] == 0.5


def test_potential_shape_validation(op31):
    bad = np.zeros((7, op31.grid.omega.size))
    with pytest.raises(SolverError, match="potential shape"):
        solve_linear(op31, bad, None, DT, T_FINAL)
    with pytest.raises(SolverError, match="entries"):
        solve_linear(op31, np.zeros(5), None, DT, T_FINAL)


def test_source_outside_omega_rejected(op31, grid31):
    # static and time-dependent full-grid sources alike
    for shape in (grid31.n_nodes, (NT + 1, grid31.n_nodes)):
        src = np.zeros(shape)
        src[..., grid31.w1[0]] = 1.0
        with pytest.raises(SolverError, match="outside omega"):
            solve_linear(op31, None, None, DT, T_FINAL, source=src)


def test_control_time_grid_mismatch(op31, grid31):
    ctl = bump_control(grid31, "w1", 0.1, 0.8, DT, NT)
    with pytest.raises(SolverError, match="solver wants"):
        solve_linear(op31, None, ctl, DT, 2.0)
    # the same step count at another step size
    ctl = bump_control(grid31, "w1", 0.2, 1.6, 2 * DT, NT)
    with pytest.raises(SolverError, match=f"^control dt={2 * DT} != solver dt={DT}$"):
        solve_linear(op31, None, ctl, DT, T_FINAL)


def test_source_of_another_length_or_rank_rejected(op31, grid31):
    with pytest.raises(SolverError, match="^source length 7 matches neither grid nor omega$"):
        solve_linear(op31, None, None, DT, T_FINAL, source=np.zeros(7))
    for shape in ((NT, grid31.n_nodes), (2, NT + 1, grid31.n_nodes)):
        with pytest.raises(SolverError, match=rf"^source shape \({shape[0]}, .* not understood$"):
            solve_linear(op31, None, None, DT, T_FINAL, source=np.zeros(shape))


# a combination coefficient: zero, or far enough from it that a*S(phi) stays
# clear of underflow
_COEF = st.floats(-10.0, 10.0).filter(lambda c: c == 0.0 or abs(c) >= 1e-3)


@settings(max_examples=25, deadline=None)
@given(a=_COEF, b=_COEF, t0=st.floats(0.04, 0.5), length=st.floats(0.1, 0.45),
       kind=st.sampled_from(["none", "static", "time-dependent"]))
def test_solve_linear_is_linear_in_the_control(op31, grid31, a, b, t0, length, kind):
    phi1 = bump_control(grid31, "w1", 0.1, 0.8, DT, NT)
    # a second spatial profile: the window bump, tilted across the window
    bump = bump_control(grid31, "w1", t0, t0 + length, DT, NT)
    tilt = np.linspace(0.5, 1.5, grid31.n_nodes)
    phi2 = make_control(grid31, bump.values * tilt, bump.dvalues * tilt, "w1", DT)
    both = make_control(grid31, a * phi1.values + b * phi2.values,
                        a * phi1.dvalues + b * phi2.dvalues, "w1", DT)
    q = _potential(grid31, kind)
    s1, s2, s12 = (solve_linear(op31, q, c, DT, T_FINAL) for c in (phi1, phi2, both))
    for x1, x2, x12 in ((s1.u, s2.u, s12.u), (s1.v, s2.v, s12.v)):
        scale = abs(a) * np.abs(x1).max() + abs(b) * np.abs(x2).max()
        assert np.abs(x12 - (a * x1 + b * x2)).max() <= 1e-12 * scale


def test_time_dependent_potential_matches_static_when_constant(op31, grid31):
    ctl = bump_control(grid31, "w1", 0.1, 0.8, DT, NT)
    q_static = 0.4 * interior_bump(grid31)[grid31.omega]
    q_field = np.tile(q_static, (NT + 1, 1))
    a = solve_linear(op31, q_static, ctl, DT, T_FINAL)
    b = solve_linear(op31, q_field, ctl, DT, T_FINAL)
    assert_allclose(a.u, b.u, atol=1e-13)


def test_energy_residual_second_order(op31, grid31):
    u0 = interior_bump(grid31)
    residuals = []
    for dt in (0.04, 0.02, 0.01):
        traj = solve_linear(op31, None, None, dt, T_FINAL, u0=u0)
        led = energy_ledger(op31, traj)
        residuals.append(led.max_relative_residual)
    order = np.polyfit(np.log([0.04, 0.02, 0.01]), np.log(residuals), 1)[0]
    assert residuals[2] < residuals[1] < residuals[0]
    assert order == pytest.approx(2.0, abs=0.4)


def test_energy_ledger_zero_trajectory(op31):
    traj = solve_linear(op31, None, None, DT, T_FINAL)
    led = energy_ledger(op31, traj)
    assert_allclose(led.residual, 0.0)
    assert_allclose(led.stored, 0.0)


def test_energy_ledger_requires_zero_exterior(op31, grid31):
    ctl = bump_control(grid31, "w1", 0.1, 0.8, DT, NT)
    traj = solve_linear(op31, None, ctl, DT, T_FINAL)
    with pytest.raises(SolverError, match="zero exterior"):
        energy_ledger(op31, traj)


def test_dissipation_term_monotone(op31, grid31):
    traj = solve_linear(op31, None, None, DT, T_FINAL,
                        u0=interior_bump(grid31))
    led = energy_ledger(op31, traj)
    assert np.all(np.diff(led.dissipated) >= -1e-15)


def test_mechanical_energy_nonincreasing_with_nonnegative_potential(op31, grid31):
    q = 0.5 * np.ones(grid31.omega.size)
    traj = solve_linear(op31, q, None, DT, T_FINAL, u0=interior_bump(grid31))
    energy = (norm_l2(grid31, traj.v) ** 2 + seminorm_hs(op31, traj.u) ** 2
              + grid31.h * np.sum(q * traj.u[:, grid31.omega] ** 2, axis=-1))
    assert np.all(np.diff(energy) <= 1e-10 * energy[0])


def test_source_driven_energy_balance(op31, grid31):
    om = grid31.omega
    t = DT * np.arange(NT + 1)
    source = np.outer(np.sin(2 * np.pi * t), interior_bump(grid31)[om])
    q = 0.2 * np.ones(om.size)
    traj = solve_linear(op31, q, None, DT, T_FINAL, source=source)
    led = energy_ledger(op31, traj, q=q, source=source)
    assert led.max_relative_residual < 5e-3


def test_continuity_constant_stable_under_refinement(op31, grid31, rng):
    # trajectory difference over source-difference dual norm, random pairs
    om = grid31.omega
    ratios = []
    for dt in (0.02, 0.01):
        nt = n_steps_for(dt, T_FINAL)
        wt = dt * trapezoid_weights(nt)
        worst = 0.0
        rng_local = np.random.default_rng(7)
        for _ in range(3):
            prof = rng_local.normal(size=om.size)
            t = dt * np.arange(nt + 1)
            src = np.outer(np.sin(np.pi * t), prof)
            traj = solve_linear(op31, None, None, dt, T_FINAL, source=src)
            gnorm = np.sqrt(np.sum(wt * dualnorm_hminus(
                op31, np.pad(src, ((0, 0), (om[0], grid31.n_nodes - om[-1] - 1)))) ** 2))
            unorm = np.max(seminorm_hs(op31, traj.u))
            worst = max(worst, unorm / gnorm)
        ratios.append(worst)
    assert ratios[1] < 1.3 * ratios[0]
    assert ratios[1] < 10.0


def test_nonlinear_zero_control_zero_iterations(op31):
    f = power_nonlinearity(1.0, 2)
    traj = solve_nonlinear(op31, f, None, DT, T_FINAL)
    assert traj.u.max() == 0.0
    assert np.array_equal(traj.newton_iters, np.zeros(NT, dtype=int))


def test_nonlinear_matches_linear_for_zero_nonlinearity(op31, grid31):
    ctl = bump_control(grid31, "w1", 0.1, 0.8, DT, NT)
    a = solve_linear(op31, None, ctl, DT, T_FINAL)
    b = solve_nonlinear(op31, zero_nonlinearity(), ctl, DT, T_FINAL)
    assert_allclose(a.u, b.u, atol=1e-12)
    assert_allclose(a.v, b.v, atol=1e-12)


def test_nonlinear_linear_power_matches_linear_with_shared_inputs(op31, grid31):
    # f = q u (r = 0): the Newton path must reproduce the linear path with
    # the same potential and control, both from rest.
    om = grid31.omega
    q = 0.4 * interior_bump(grid31)[om]
    ctl = bump_control(grid31, "w1", 0.1, 0.8, DT, NT, amplitude=2.0)
    a = solve_linear(op31, q, ctl, DT, T_FINAL)
    b = solve_nonlinear(op31, power_nonlinearity(q, 0), ctl, DT, T_FINAL)
    assert np.abs(a.u[:, om]).max() > 0.1
    assert_allclose(a.u, b.u, atol=1e-12)
    assert_allclose(a.v, b.v, atol=1e-12)
    assert b.newton_iters.max() == 1


def test_nonlinear_amplitude_scaling_cubic(op31, grid31):
    # r = 2: || S(eps phi) - eps S_lin(phi) || = O(eps^3)
    f = power_nonlinearity(1.0, 2)
    lin = solve_linear(op31, None, bump_control(grid31, "w1", 0.1, 0.8, DT, NT),
                       DT, T_FINAL)
    devs = []
    for eps in (0.2, 0.1):
        ctl = bump_control(grid31, "w1", 0.1, 0.8, DT, NT, amplitude=eps)
        traj = solve_nonlinear(op31, f, ctl, DT, T_FINAL)
        devs.append(np.abs(traj.u - eps * lin.u).max())
    ratio = devs[0] / devs[1]
    assert 6.0 < ratio < 10.0


def test_newton_divergence_raises(op31, grid31):
    f = power_nonlinearity(-1.0, 2)  # focusing sign: blow-up at large data
    ctl = bump_control(grid31, "w1", 0.1, 0.8, DT, NT, amplitude=1e6)
    with np.errstate(all="ignore"), pytest.raises(NewtonDivergenceError):
        solve_nonlinear(op31, f, ctl, DT, T_FINAL)


class _UncheckedNonlinearity:
    """f and f' as given functions of u: a Nonlinearity raises on a value
    that is not finite before the solver could see it."""

    def __init__(self, value, dvalue):
        self.value, self.dvalue = value, dvalue


def _first_step_off_rest(op, ctl):
    """The first step whose omega states leave rest under the control."""
    traj = solve_nonlinear(op, zero_nonlinearity(), ctl, DT, T_FINAL)
    return int(np.flatnonzero(np.abs(traj.u[:, op.grid.omega]).max(axis=1))[0])


def test_non_finite_newton_residual_raises_at_its_step(op31, grid31):
    # f is zero at rest and inf off it: the first step that leaves rest
    # converges nowhere, and raises with its residual rather than step on
    f = _UncheckedNonlinearity(lambda u: np.where(u == 0.0, 0.0, np.inf), np.zeros_like)
    ctl = bump_control(grid31, "w1", 0.1, 0.8, DT, NT, amplitude=1.0)
    with pytest.raises(NewtonDivergenceError) as err:
        solve_nonlinear(op31, f, ctl, DT, T_FINAL)
    assert err.value.step == _first_step_off_rest(op31, ctl)
    assert err.value.residual == np.inf and err.value.iterations == 1


def test_failed_dense_newton_solve_names_its_step(op31, grid31, monkeypatch):
    # f' this large puts every correction past the split, on a dense solve;
    # a solve that fails is a step failure at the step that needed it
    f = _UncheckedNonlinearity(np.zeros_like, lambda u: np.full_like(u, 1e6))
    ctl = bump_control(grid31, "w1", 0.1, 0.8, DT, NT, amplitude=1.0)
    step = _first_step_off_rest(op31, ctl)

    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(StepFailureError, match=f"^time step {step}: Newton linear solve "
                                               "failed: Singular matrix$") as err:
        solve_nonlinear(op31, f, ctl, DT, T_FINAL)
    assert err.value.step == step


def test_newton_iteration_counts_recorded(op31, grid31):
    f = power_nonlinearity(1.0, 2)
    ctl = bump_control(grid31, "w1", 0.1, 0.8, DT, NT, amplitude=0.5)
    traj = solve_nonlinear(op31, f, ctl, DT, T_FINAL)
    assert traj.newton_iters.shape == (NT,)
    assert traj.newton_iters.max() >= 1
    assert traj.newton_iters.max() <= 25


def test_linearized_at_zero_base_equals_linear(op31, grid31):
    f = power_nonlinearity(1.0, 2)
    base = solve_nonlinear(op31, f, None, DT, T_FINAL)
    eta = bump_control(grid31, "w1", 0.2, 0.9, DT, NT)
    a = solve_linearized(op31, f, base, eta, DT, T_FINAL)
    b = solve_linear(op31, None, eta, DT, T_FINAL)
    assert_allclose(a.u, b.u, atol=1e-13)


def test_linearized_base_mismatch_rejected(op31, grid31):
    f = power_nonlinearity(1.0, 2)
    base = solve_nonlinear(op31, f, None, 0.04, T_FINAL)
    eta = bump_control(grid31, "w1", 0.2, 0.9, DT, NT)
    with pytest.raises(SolverError, match="time grid"):
        solve_linearized(op31, f, base, eta, DT, T_FINAL)
    # the same step count at another step size
    base = solve_nonlinear(op31, f, None, 2 * DT, 2 * T_FINAL)
    with pytest.raises(SolverError, match=f"^base trajectory dt={2 * DT} != requested dt={DT}$"):
        solve_linearized(op31, f, base, eta, DT, T_FINAL)


def test_linearized_is_directional_derivative(op31, grid31):
    f = power_nonlinearity(1.0, 2)
    psi = bump_control(grid31, "w1", 0.1, 0.7, DT, NT)
    eta = bump_control(grid31, "w1", 0.3, 0.9, DT, NT)
    errs = []
    for eps in (1e-1, 1e-2):
        base = solve_nonlinear(op31, f, _scale(psi, eps), DT, T_FINAL)
        bumped = solve_nonlinear(op31, f, _add(_scale(psi, eps),
                                               _scale(eta, eps)), DT, T_FINAL)
        lin = solve_linearized(op31, f, base, eta, DT, T_FINAL)
        errs.append(np.abs((bumped.u - base.u) / eps - lin.u).max())
    assert errs[1] < 0.2 * errs[0]


def _scale(ctl, a):
    from viscowave.controls import ExteriorControl

    return ExteriorControl(values=a * ctl.values, dvalues=a * ctl.dvalues,
                           window=ctl.window, dt=ctl.dt)


def _add(c1, c2):
    from viscowave.controls import ExteriorControl

    return ExteriorControl(values=c1.values + c2.values,
                           dvalues=c1.dvalues + c2.dvalues,
                           window=c1.window, dt=c1.dt)


def test_trajectory_csv_round_trip(op31, grid31, tmp_path):
    ctl = bump_control(grid31, "w1", 0.1, 0.8, DT, NT)
    traj = solve_linear(op31, None, ctl, DT, T_FINAL)
    path = tmp_path / "traj.csv"
    trajectory_to_csv(traj, grid31, path)
    header, *rows, last = path.read_bytes().decode().split("\r\n")
    assert header == "t,node,x,u,v" and last == ""
    # each float is written as its repr, so float() reads it back bit for bit
    table = np.array([[float(x) for x in row.split(",")] for row in rows])
    shape = traj.u.shape
    columns = (np.broadcast_to(traj.t[:, None], shape),
               np.broadcast_to(np.arange(grid31.n_nodes), shape),
               np.broadcast_to(grid31.x, shape), traj.u, traj.v)
    for got, want in zip(table.T, columns):
        assert got.tobytes() == np.ascontiguousarray(want, dtype=float).ravel().tobytes()


# ------------------------------------- reference: the step loop before its rewrite


def _reference_crank_nicolson(op, control, dt, nt, source, u0, explicit, implicit):
    """The step loop as it stood before the omega-slice rewrite, kept verbatim
    but for the initial velocity, which solve_linear no longer takes."""
    grid = op.grid
    om = grid.omega
    ext = grid.exterior
    h_src = _expand_field(source, nt, grid, "source")
    phi, dphi = _check_control(control, grid, dt, nt)

    n = grid.n_nodes
    u = np.zeros((nt + 1, n))
    v = np.zeros((nt + 1, n))
    u0om = _expand_field(u0, nt, grid, "u0")
    if u0om is not None:
        u[0, om] = u0om
    u[0, ext] = phi[0, ext]
    v[0, ext] = dphi[0, ext]

    L = op.matrix
    for k in range(nt):
        u_base = np.zeros(n)
        u_base[om] = u[k, om] + 0.5 * dt * v[k, om]
        u_base[ext] = phi[k + 1, ext]
        v_base = np.zeros(n)
        v_base[ext] = dphi[k + 1, ext]

        rhs = (v[k, om]
               - 0.5 * dt * ((u[k] + v[k] + u_base + v_base) @ L)[om]
               - 0.5 * dt * explicit(k, u[k, om], u_base[om]))
        if h_src is not None:
            rhs = rhs + 0.5 * dt * (h_src[k] + h_src[k + 1])

        w = implicit(k, rhs, v[k, om], u_base[om])
        if not np.all(np.isfinite(w)):
            raise StepFailureError(k + 1, "non-finite interior update")

        v[k + 1, om] = w
        v[k + 1, ext] = dphi[k + 1, ext]
        u[k + 1, om] = u_base[om] + 0.5 * dt * w
        u[k + 1, ext] = phi[k + 1, ext]

    for arr in (u, v):
        arr.setflags(write=False)
    return u, v


def _reference_solve_linear(op, q, control, dt, t_final, source=None, u0=None):
    """solve_linear as it stood before the rewrite, minus its error wrapping:
    lu_solve on every static step."""
    nt = n_steps_for(dt, t_final)
    qs, q_static = _expand_potential(q, nt, op.grid.omega.size)
    base_mat = _step_matrix(op.omega_block, dt)
    factor = lu_factor(base_mat + 0.25 * dt * dt * np.diag(qs[0])) if q_static else None

    def explicit(k, u_k, u_base):
        qk = qs[0] if q_static else qs[k]
        qk1 = qs[0] if q_static else qs[k + 1]
        return qk * u_k + qk1 * u_base

    def implicit(k, rhs, v_k, u_base):
        if q_static:
            return lu_solve(factor, rhs)
        return np.linalg.solve(base_mat + 0.25 * dt * dt * np.diag(qs[k + 1]), rhs)

    return _reference_crank_nicolson(op, control, dt, nt, source, u0, explicit, implicit)


def _assert_close(traj, ref_u, ref_v):
    """u and v within 1e-12 of the reference, relative to its largest entry.

    The step loop sums in another order than the reference (the flux of L's
    omega block plus a precomputed exterior part, a product with the step
    matrix's inverse), so equal bits are not expected.
    """
    for got, ref in ((traj.u, ref_u), (traj.v, ref_v)):
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def _shared_inputs(grid):
    om = grid.omega
    theta = np.sin(np.pi * DT * np.arange(NT + 1))
    u0 = interior_bump(grid)
    u0[om[:3]] = -0.0
    return dict(source=np.outer(theta, interior_bump(grid, center=0.3)[om]), u0=u0)


def test_static_potential_matches_reference_loop_bitwise(op31, grid31):
    q = 0.4 * interior_bump(grid31)[grid31.omega]
    ctl = bump_control(grid31, "w1", 0.1, 0.8, DT, NT)
    kwargs = _shared_inputs(grid31)
    traj = solve_linear(op31, q, ctl, DT, T_FINAL, **kwargs)
    _assert_close(traj, *_reference_solve_linear(op31, q, ctl, DT, T_FINAL, **kwargs))
    ext = grid31.exterior
    assert np.array_equal(traj.u[:, ext], ctl.values[:, ext])


def test_time_dependent_potential_matches_reference_loop_bitwise(op31, grid31):
    q = np.outer(DT * np.arange(NT + 1), 0.4 * interior_bump(grid31)[grid31.omega])
    ctl = bump_control(grid31, "w2", 0.2, 0.9, DT, NT)
    traj = solve_linear(op31, q, ctl, DT, T_FINAL)
    _assert_close(traj, *_reference_solve_linear(op31, q, ctl, DT, T_FINAL))


def _reference_newton(op, f, dt, nt):
    """solve_nonlinear's interior term and Newton step as an (explicit, implicit) pair.

    Returns them with the per-step iteration counts that implicit fills.
    """
    L = op.omega_block
    base_mat = _step_matrix(op.omega_block, dt)
    iters = np.zeros(nt, dtype=int)

    def explicit(k, u_k, u_base):
        return f.value(u_k)

    def implicit(k, rhs, v_k, u_base):
        w = v_k
        for it in range(NEWTON_MAXIT):
            u_new = u_base + 0.5 * dt * w
            g = (w + (0.5 * dt + 0.25 * dt * dt) * (L @ w)
                 + 0.5 * dt * f.value(u_new) - rhs)
            if np.max(np.abs(g)) <= NEWTON_TOL:
                iters[k] = it
                return w
            jac = base_mat + 0.25 * dt * dt * np.diag(f.dvalue(u_new))
            w = w - np.linalg.solve(jac, g)
        raise AssertionError(f"reference Newton did not converge at step {k + 1}")

    return explicit, implicit, iters


def test_nonlinear_matches_reference_loop_bitwise(op31, grid31):
    f = power_nonlinearity(1.0, 2)
    ctl = bump_control(grid31, "w1", 0.1, 0.8, DT, NT, amplitude=0.5)
    traj = solve_nonlinear(op31, f, ctl, DT, T_FINAL)
    # the same Newton step, driven by the old loop around it, from rest
    explicit, implicit, iters = _reference_newton(op31, f, DT, NT)
    ref_u, ref_v = _reference_crank_nicolson(op31, ctl, DT, NT, None, None,
                                             explicit, implicit)
    assert iters.max() >= 1
    _assert_close(traj, ref_u, ref_v)
    assert np.array_equal(traj.newton_iters, iters)


def test_non_finite_update_reports_its_first_step(op31, grid31):
    om = grid31.omega
    ctl = bump_control(grid31, "w1", 0.1, 0.8, DT, NT)
    prof = 0.3 * interior_bump(grid31)[om]
    q_t = np.outer(DT * np.arange(NT + 1), prof)
    q_t[1:, 2] = np.nan
    with pytest.raises(StepFailureError, match="non-finite") as err:
        solve_linear(op31, q_t, ctl, DT, T_FINAL)
    assert err.value.step == 1
    # a NaN in a static potential is caught when the step matrix is factored
    q = prof.copy()
    q[2] = np.nan
    with pytest.raises(StepFailureError, match="factorization") as err:
        solve_linear(op31, q, ctl, DT, T_FINAL)
    assert err.value.step == 0
    # a NaN reaching the static back-solve later in the run
    src = np.zeros((NT + 1, om.size))
    src[6, 3] = np.nan
    with pytest.raises(StepFailureError, match="non-finite") as err:
        solve_linear(op31, prof, ctl, DT, T_FINAL, source=src)
    assert err.value.step == 6


def test_a_nan_static_potential_fails_alike_as_a_row_or_tiled(op31, grid31):
    # samples whose rows all equal one row are that static row, NaN and all:
    # both forms fail where the static step matrix is factored
    ctl = bump_control(grid31, "w1", 0.1, 0.8, DT, NT)
    q = 0.3 * interior_bump(grid31)[grid31.omega]
    q[2] = np.nan
    for form in (q, np.tile(q, (NT + 1, 1))):
        with pytest.raises(StepFailureError,
                           match="^time step 0: factorization failed: non-finite step matrix$"):
            solve_linear(op31, form, ctl, DT, T_FINAL)


# ------------------------------------- Newton corrections split on the step inverse


def _assert_newton_matches_the_reference(op, f, ctl, traj):
    """traj within 1e-12 of the dense reference Newton loop from rest, with
    the same iteration count at every step."""
    explicit, implicit, iters = _reference_newton(op, f, DT, NT)
    ref_u, ref_v = _reference_crank_nicolson(op, ctl, DT, NT, None, None, explicit, implicit)
    assert iters.max() >= 1
    _assert_close(traj, ref_u, ref_v)
    assert np.array_equal(traj.newton_iters, iters)


@pytest.mark.parametrize("coeff", [1.0, "nodal"])
@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("op_name", ["op31", "op101"])
def test_split_newton_matches_the_dense_reference(op_name, r, coeff, request, counted_linalg):
    op = request.getfixturevalue(op_name)
    grid = op.grid
    if coeff == "nodal":
        coeff = 1.0 + 0.5 * np.sin(np.pi * grid.x[grid.omega])
    f = power_nonlinearity(coeff, r)
    ctl = bump_control(grid, "w1", 0.1, 0.8, DT, NT, amplitude=5.0)
    traj = solve_nonlinear(op, f, ctl, DT, T_FINAL)
    assert counted_linalg == {"lu_factor": 1, "solve": 0}
    _assert_newton_matches_the_reference(op, f, ctl, traj)


def test_newton_above_the_switch_solves_densely(op31, counted_linalg):
    # dt^2/4 f'(u) reaches 5e-2 along the run, past NEWTON_SPLIT_RHO
    f = power_nonlinearity(1000.0, 2)
    ctl = bump_control(op31.grid, "w1", 0.1, 0.8, DT, NT, amplitude=20.0)
    traj = solve_nonlinear(op31, f, ctl, DT, T_FINAL)
    assert counted_linalg["solve"] > 0 and counted_linalg["lu_factor"] == 1
    assert 0.25 * DT * DT * f.dvalue(traj.u[:, op31.grid.omega]).max() > NEWTON_SPLIT_RHO
    _assert_newton_matches_the_reference(op31, f, ctl, traj)


@pytest.mark.parametrize("rho", [0.0, 1e-12, 1e-6, 1e-3, 0.99 * NEWTON_SPLIT_RHO])
def test_split_correction_is_the_dense_solve_to_roundoff(op101, rng, rho):
    base_mat = _step_matrix(op101.omega_block, DT)
    n = base_mat.shape[0]
    inv = _step_inverses(base_mat, np.zeros((1, n)), True, DT)[0]
    inv_norm = np.abs(inv).sum(axis=0).max()
    assert inv_norm <= 1.0
    d = rho / inv_norm * rng.uniform(-1.0, 1.0, n)
    d[0] = rho / inv_norm
    g = rng.standard_normal(n)
    x = _newton_correction(g, d, inv, inv_norm, base_mat)
    want = np.linalg.solve(base_mat + np.diag(d), g)
    assert np.abs(x - want).max() <= 1e-14 * np.abs(want).max()


# ------------------------------------- the inverse stack: one matrix per potential or per step


@pytest.fixture()
def counted_inverses(monkeypatch):
    """The number of step matrices inverted by each _step_inverses call."""
    calls = []
    real = solver._step_inverses

    def counting(*args, **kwargs):
        inv = real(*args, **kwargs)
        calls.append(inv.shape[0])
        return inv

    monkeypatch.setattr(solver, "_step_inverses", counting)
    return calls


def test_time_dependent_factors_are_reused_for_the_same_potential(op31, grid31,
                                                                   counted_inverses):
    # one basis pass over the 18 elements inverts each step matrix once
    q = _potential(grid31, "time-dependent")
    basis, controls = _w1_basis(grid31)
    got = _interior_responses(op31, q, basis)
    assert got[0].shape == (len(controls), NT + 1, grid31.omega.size)
    assert counted_inverses == [NT]
    for k in (0, 17):
        ref_u, ref_v = _reference_solve_linear(op31, q, controls[k], DT, T_FINAL)
        _assert_close(_interior(got, k), ref_u[:, grid31.omega], ref_v[:, grid31.omega])


def test_time_dependent_factors_follow_an_in_place_change(op31, grid31, counted_inverses):
    q = _potential(grid31, "time-dependent")
    ctl = bump_control(grid31, "w1", 0.1, 0.8, DT, NT)
    solve_linear(op31, q, ctl, DT, T_FINAL)
    q[NT // 2:, 3] += 1.0
    traj = solve_linear(op31, q, ctl, DT, T_FINAL)
    assert counted_inverses == [NT, NT]
    _assert_close(traj, *_reference_solve_linear(op31, q, ctl, DT, T_FINAL))


def test_singular_time_dependent_step_reports_its_step(op31, grid31):
    # with L replaced by zero the step matrix is I + dt^2/4 diag(q), and at
    # dt = 2^-5 a potential of -4/dt^2 zeroes one diagonal entry exactly
    op0 = dataclasses.replace(op31, matrix=np.zeros_like(op31.matrix))
    dt = 2.0 ** -5
    q = np.ones((n_steps_for(dt, T_FINAL) + 1, grid31.omega.size))
    q[5, 3] = -4.0 / dt ** 2
    with pytest.raises(StepFailureError, match="linear solve failed: Singular matrix") as err:
        solve_linear(op0, q, None, dt, T_FINAL)
    assert err.value.step == 5
    with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
        _reference_solve_linear(op0, q, None, dt, T_FINAL)


@pytest.mark.parametrize("op_name", ["op31", "op101"])
def test_static_step_inverse_matches_lu_solve(op_name, request, counted_inverses):
    op = request.getfixturevalue(op_name)
    q = 0.4 * interior_bump(op.grid)[op.grid.omega]
    base_mat = _step_matrix(op.omega_block, DT)
    qs, q_static = _expand_potential(q, NT, op.grid.omega.size)
    inv = solver._step_inverses(base_mat, qs, q_static, DT)
    mat = base_mat + 0.25 * DT * DT * np.diag(q)
    ref = lu_solve(lu_factor(mat), np.eye(len(q))).T
    assert counted_inverses == [1]
    assert np.abs(inv[0] - ref).max() <= 1e-12 * np.abs(ref).max()


def test_singular_static_step_matrix_fails_at_step_zero(op31, grid31):
    op0 = dataclasses.replace(op31, matrix=np.zeros_like(op31.matrix))
    dt = 2.0 ** -5
    q = np.ones(grid31.omega.size)
    q[3] = -4.0 / dt ** 2
    with pytest.raises(StepFailureError, match="factorization failed: Singular matrix") as err:
        solve_linear(op0, q, None, dt, T_FINAL)
    assert err.value.step == 0


# ------------------------------------- basis pass: the elements of a basis at once


def _w1_basis(grid):
    # 6 window nodes x 3 splines: 18 elements, a block of 16 and one of 2, or
    # a block of 17 and a last block of one element
    basis = ControlBasis(grid, "w1", DT, T_FINAL, 8)
    return basis, [materialize(basis, i) for i in range(len(basis))]


def _potential(grid, kind):
    prof = 0.4 * interior_bump(grid)[grid.omega]
    return {"none": None, "static": prof,
            "time-dependent": np.outer(DT * np.arange(NT + 1), prof)}[kind]


def _basis_drive(op, basis, elements):
    """Step right-hand sides on omega of some elements of a node x spline
    basis, (nt, m, n_omega): element (node j, spline c) drives step k by
    -dt/2 s_c[k] L[j, omega], s_c[k] spline c's value plus derivative
    summed over both ends of step k."""
    x = basis.values + basis.dvalues
    s = x[:, :-1] + x[:, 1:]
    index = np.arange(len(basis))[elements]
    n_spl = len(basis.tsplines)
    nodes = np.asarray(basis.nodes)[index // n_spl]
    rows = op.matrix[np.ix_(nodes, op.grid.omega)]
    return -0.5 * basis.dt * (s[index % n_spl].T[:, :, None] * rows[None])


def _observed(run_pass):
    """(u, v) of every element of the pass run_pass(observe), element-major,
    and the rows of each _step_linear call it made.

    observe keeps both histories, and checks that they are read-only.
    """
    def observe(u, v):
        assert not u.flags.writeable and not v.flags.writeable
        return np.stack((u, v), axis=2)

    with mock.patch.object(solver, "_step_linear", wraps=solver._step_linear) as step:
        both = run_pass(observe)
    return both[:, :, 0], both[:, :, 1], [c.args[1].shape[1] for c in step.call_args_list]


def _interior_responses(op, q, basis):
    """(u, v) of solve_linear_basis, element-major, and the block sizes.

    The bases it is given shift no spline, so every element is stepped.
    """
    got = _observed(lambda observe: solver.solve_linear_basis(op, q, basis, observe))
    assert sum(got[2]) == len(basis)
    return got


def _interior(responses, k):
    """Element k of _interior_responses as a trajectory on omega."""
    return solver.Trajectory(u=responses[0][k], v=responses[1][k], dt=DT)


def _on_omega(grid, traj):
    return traj.u[:, grid.omega], traj.v[:, grid.omega]


@pytest.mark.parametrize("block", [16, 17, 1])
@pytest.mark.parametrize("kind", ["none", "static", "time-dependent"])
def test_blocked_pass_matches_solve_linear_bitwise(op31, grid31, monkeypatch, kind, block):
    basis, controls = _w1_basis(grid31)
    assert len(controls) % 16 and len(controls) % 17 == 1
    monkeypatch.setattr(solver, "CONTROL_BLOCK", block)
    q = _potential(grid31, kind)
    got = _interior_responses(op31, q, basis)
    n = len(controls)
    assert got[2] == [block] * (n // block) + [n % block] * bool(n % block)
    for k, ctl in enumerate(controls):
        ref = solve_linear(op31, q, ctl, DT, T_FINAL)
        _assert_close(_interior(got, k), *_on_omega(grid31, ref))


_REFERENCE = {}


def _reference_responses(op, grid, kind):
    """Interior (u, v) of the reference loop for every element of _w1_basis."""
    if kind not in _REFERENCE:
        q = _potential(grid, kind)
        runs = [_reference_solve_linear(op, q, c, DT, T_FINAL) for c in _w1_basis(grid)[1]]
        _REFERENCE[kind] = [(u[:, grid.omega], v[:, grid.omega]) for u, v in runs]
    return _REFERENCE[kind]


@settings(max_examples=12, deadline=None)
@given(block=st.integers(1, 19), kind=st.sampled_from(["none", "static", "time-dependent"]))
def test_basis_pass_matches_the_reference_loop(op31, grid31, block, kind):
    basis, _ = _w1_basis(grid31)
    saved = solver.CONTROL_BLOCK
    solver.CONTROL_BLOCK = block
    try:
        got = _interior_responses(op31, _potential(grid31, kind), basis)
    finally:
        solver.CONTROL_BLOCK = saved
    assert max(got[2]) == min(block, len(basis))
    for k, ref in enumerate(_reference_responses(op31, grid31, kind)):
        _assert_close(_interior(got, k), *ref)


@pytest.mark.parametrize("kind", ["static", "time-dependent"])
def test_difference_pass_matches_the_subtraction(op31, grid31, monkeypatch, kind):
    # w = u_q - u_bg stepped from the background displacements alone, against
    # a static background potential, in blocks of 16 and 2
    monkeypatch.setattr(solver, "CONTROL_BLOCK", 16)
    basis, _ = _w1_basis(grid31)
    q, q_bg = _potential(grid31, kind), 0.2 * np.ones(grid31.omega.size)
    with_q = _interior_responses(op31, q, basis)
    background = _interior_responses(op31, q_bg, basis)
    difference = _observed(lambda observe: solver.solve_linear_difference(
        op31, q, q_bg, basis, lambda e: background[0][e].transpose(1, 0, 2), observe))
    assert difference[2] == [16, len(basis) - 16]
    for i in (0, 1):
        diff = difference[i]
        sub = with_q[i] - background[i]
        assert np.abs(sub).max() > 1e-3 * np.abs(background[i]).max()
        assert np.abs(diff - sub).max() <= 1e-11 * np.abs(sub).max()


@pytest.mark.parametrize("kind", ["static", "time-dependent"])
def test_controls_difference_is_the_coefficients_times_the_elements(op31, grid31, rng, kind):
    # at 8 segments and 50 steps nothing shifts: the 18 elements are 18
    # seeds.  The controls' pass steps each control, driven by its
    # background states, and its differences are the coefficients times the
    # elements'; it steps fewer rows only for fewer controls than seeds
    basis, _ = _w1_basis(grid31)
    q, q_bg = _potential(grid31, kind), 0.2 * np.ones(grid31.omega.size)
    u_bg = _interior_responses(op31, q_bg, basis)[0]          # (element, t, n_omega)
    elements = _observed(lambda observe: solver.solve_linear_difference(
        op31, q, q_bg, basis, lambda e: u_bg[e].transpose(1, 0, 2), observe))
    assert elements[2] == [len(basis)]
    for n in (len(basis) - 1, len(basis)):
        coeffs = rng.normal(size=(n, len(basis)))
        achieved = np.einsum("ce,etj->ctj", coeffs, u_bg)
        got = _observed(lambda observe: solver.solve_linear_difference(
            op31, q, q_bg, basis, lambda rows: achieved[rows].transpose(1, 0, 2), observe,
            n_controls=n))
        assert got[2] == [n]
        assert solver.steps_controls(basis, q, q_bg, n) == (n < len(basis))
        for i in (0, 1):
            ref = np.einsum("ce,et...->ct...", coeffs, elements[i])
            assert np.abs(got[i] - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("kind", ["static", "time-dependent"])
def test_difference_drive_matches_its_velocity_form(op31, grid31, kind):
    # the drive once read the background velocity as well:
    # -dt/2 (dq_k u_k + dq_{k+1} u_base_k) - dt^2/4 dq_{k+1} v_{k+1},
    # with u_base_k = u_k + dt/2 v_k, which is -dt/2 (dq_k u_k + dq_{k+1} u_{k+1})
    basis, _ = _w1_basis(grid31)
    dq = np.broadcast_to(_potential(grid31, kind), (NT + 1, grid31.omega.size))
    u, v, _ = _interior_responses(op31, 0.2, basis)
    u, v = u.transpose(1, 0, 2), v.transpose(1, 0, 2)
    hdt = 0.5 * DT
    u_base = u[:-1] + hdt * v[:-1]
    ref = -hdt * ((dq[:-1, None] * u[:-1] + dq[1:, None] * u_base)
                  + hdt * (dq[1:, None] * v[1:]))
    got = solver._difference_drive(dq, u.copy(), DT)
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def _failing_step(call):
    with pytest.raises(StepFailureError) as err:
        call()
    return err.value.step


def _failing_steps(op, q, basis, control, dt=DT):
    """Failing step of solve_linear on one control, and of the basis pass."""
    one = _failing_step(lambda: solve_linear(op, q, control, dt, T_FINAL))
    block = _failing_step(lambda: solver.solve_linear_basis(op, q, basis, lambda u, v: u))
    return one, block


def test_blocked_pass_fails_at_the_step_solve_linear_reports(op31, grid31):
    basis, controls = _w1_basis(grid31)
    om = grid31.omega
    q_t = _potential(grid31, "time-dependent")
    q_t[1:, 2] = np.nan
    assert _failing_steps(op31, q_t, basis, controls[0]) == (1, 1)
    q = _potential(grid31, "static")
    q[2] = np.nan
    assert _failing_steps(op31, q, basis, controls[0]) == (0, 0)
    # singular step matrix of a time-dependent q, as in the test above
    op0 = dataclasses.replace(op31, matrix=np.zeros_like(op31.matrix))
    dt = 2.0 ** -5
    q_s = np.ones((n_steps_for(dt, T_FINAL) + 1, om.size))
    q_s[5, 3] = -4.0 / dt ** 2
    assert _failing_steps(op0, q_s, ControlBasis(grid31, "w1", dt, T_FINAL, 8), None,
                          dt) == (5, 5)
    # a NaN source, shared by every row of a block
    src = np.zeros((NT + 1, om.size))
    src[6, 3] = np.nan
    prof = _potential(grid31, "static")
    one = _failing_step(lambda: solve_linear(op31, prof, controls[0], DT, T_FINAL, source=src))
    maps = solver._step_maps(op31.omega_block, prof, DT, NT)
    drive = (_basis_drive(op31, basis, slice(0, 5))
             + solver._control_drive(op31, None, DT, NT, src)[:, None])
    block = _failing_step(lambda: solver._step_linear(maps, drive, DT, None))
    assert one == block == 6


def test_blocked_pass_reports_its_first_failing_control(op31, grid31):
    # control 3 fails late and control 9 early: in order, control 3 fails first
    _, controls = _w1_basis(grid31)
    for i, k in ((3, 30), (9, 8)):
        values = controls[i].values.copy()
        values[k:, grid31.w1[0]] = np.inf
        controls[i] = dataclasses.replace(controls[i], values=values)
    maps = solver._step_maps(op31.omega_block, None, DT, NT)
    with np.errstate(all="ignore"):
        one = _failing_step(lambda: solve_linear(op31, None, controls[3], DT, T_FINAL))
        assert _failing_step(lambda: solve_linear(op31, None, controls[9], DT, T_FINAL)) < one
        drive = np.stack([solver._control_drive(op31, c, DT, NT, None) for c in controls],
                         axis=1)
        block = _failing_step(lambda: solver._step_linear(maps, drive, DT, None))
    assert block == one


# ------------------------------------- reference: the closure loop before the step maps


def _crank_nicolson(op, drive, dt, u0, explicit, implicit):
    """The shared trapezoidal step loop on omega; returns read-only (u, v) histories.

    drive[k] is the additive right-hand side of step k: (n_omega,) for one
    state, or (m, n_omega) for a block of m states, one row each.  The
    histories have shape (nt+1,) + drive.shape[1:] and hold omega only.

    Each step forms the explicit half of the update from the current state:
    the flux of L's omega block, ``explicit(k, u_k, u_base)`` for the
    interior term, where u_base = u_k + dt/2 v_k, and drive[k].
    ``implicit(k, rhs, v_k, u_base)`` then returns the new velocity.
    Non-finite updates are looked for once, after the last step, and
    reported for the first row that has one, at its first step.
    """
    nt = drive.shape[0]
    L = op.omega_block
    hdt = 0.5 * dt
    u = np.empty((nt + 1,) + drive.shape[1:])
    v = np.empty_like(u)
    u[0] = 0.0 if u0 is None else u0
    v[0] = 0.0
    for k in range(nt):
        u_k, v_k = u[k], v[k]
        u_base = u_k + hdt * v_k
        flux = ((u_k + v_k) + u_base) @ L
        rhs = (v_k - hdt * (flux + explicit(k, u_k, u_base))) + drive[k]
        w = implicit(k, rhs, v_k, u_base)
        v[k + 1] = w
        u[k + 1] = u_base + hdt * w

    bad = ~np.isfinite(v[1:].reshape(nt, -1, v.shape[-1])).all(axis=2)
    failed = bad.any(axis=0)
    if failed.any():
        first = int(np.argmax(failed))
        raise StepFailureError(int(np.argmax(bad[:, first])) + 1, "non-finite interior update")
    for arr in (u, v):
        arr.setflags(write=False)
    return u, v


def _linear_step(op, q, dt, nt):
    """The explicit and implicit closures of the linear step with potential q.

    The implicit half is one product with a step-matrix inverse, made here
    once for all the states the closures serve.
    """
    qs, q_static = _expand_potential(q, nt, op.grid.omega.size)
    inv = _step_inverses(_step_matrix(op.omega_block, dt), qs, q_static, dt)
    inv = np.broadcast_to(inv, (nt,) + inv.shape[1:])

    def explicit(k, u_k, u_base):
        return qs[k] * u_k + qs[k + 1] * u_base

    def implicit(k, rhs, v_k, u_base):
        return rhs @ inv[k]

    return explicit, implicit


def _closure_loop(op, q, drive, u0=None):
    """Interior (u, v) of the closure loop under the given step drives."""
    return _crank_nicolson(op, drive, DT, u0, *_linear_step(op, q, DT, NT))


def _assert_within(got, ref):
    """got within 1e-12 of ref, relative to ref's largest entry."""
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("kind", ["none", "static", "time-dependent"])
def test_step_maps_match_the_closure_loop(op101, grid101, monkeypatch, kind):
    # the basis and difference passes, in blocks of 32, and solve_linear with
    # a source and a nonzero initial displacement, against the closure loop on the same
    # drives
    monkeypatch.setattr(solver, "CONTROL_BLOCK", 32)
    basis = ControlBasis(grid101, "w1", DT, T_FINAL, 8)
    q, q_bg = _potential(grid101, kind), 0.2 * np.ones(grid101.omega.size)
    u, v, sizes = _interior_responses(op101, q, basis)
    assert len(sizes) == -(-len(basis) // 32) > 1
    ref = _closure_loop(op101, q, _basis_drive(op101, basis, slice(None)))
    _assert_within(u, ref[0].transpose(1, 0, 2))
    _assert_within(v, ref[1].transpose(1, 0, 2))
    states = solver.solve_linear_basis(op101, q_bg, basis, lambda u, v: u)
    dq = (_expand_potential(q, NT, grid101.omega.size)[0]
          - _expand_potential(q_bg, NT, grid101.omega.size)[0])
    w, z, _ = _observed(lambda observe: solver.solve_linear_difference(
        op101, q, q_bg, basis, lambda e: states[e].transpose(1, 0, 2), observe))
    ref = _closure_loop(op101, q, solver._difference_drive(dq, states.transpose(1, 0, 2).copy(),
                                                           DT))
    _assert_within(w, ref[0].transpose(1, 0, 2))
    _assert_within(z, ref[1].transpose(1, 0, 2))
    om = grid101.omega
    ctl = bump_control(grid101, "w1", 0.1, 0.8, DT, NT)
    kwargs = _shared_inputs(grid101)
    traj = solve_linear(op101, q, ctl, DT, T_FINAL, **kwargs)
    drive = solver._control_drive(op101, ctl, DT, NT, kwargs["source"])
    ref = _closure_loop(op101, q, drive, kwargs["u0"][om])
    _assert_within(traj.u[:, om], ref[0])
    _assert_within(traj.v[:, om], ref[1])


@pytest.mark.parametrize("kind", ["static", "time-dependent"])
def test_last_state_check_reports_the_first_failing_row(op31, grid31, rng, monkeypatch,
                                                        kind):
    # row 40 of a 128-row block gets a NaN drive at a late step, row 90 an
    # inf at an early one: row 40 fails first, at the step after its NaN
    scans = []
    real = solver._non_finite_failure

    def counting(v, *rest):
        scans.append(v.shape)
        return real(v, *rest)

    monkeypatch.setattr(solver, "_non_finite_failure", counting)
    q = _potential(grid31, kind)
    maps = solver._step_maps(op31.omega_block, q, DT, NT)
    drive = rng.standard_normal((NT, 128, grid31.omega.size))
    _, v = solver._step_linear(maps, drive, DT, None)
    assert np.isfinite(v).all() and scans == []
    drive[40, 40, 3] = np.nan
    drive[4, 90, 5] = np.inf
    with np.errstate(all="ignore"):
        step = _failing_step(lambda: solver._step_linear(maps, drive, DT, None))
        assert step == 41 and len(scans) == 1
        assert _failing_step(lambda: _closure_loop(op31, q, drive)) == step
        drive[40, 40, 3] = 0.0
        assert _failing_step(lambda: solver._step_linear(maps, drive, DT, None)) == 5


# ------------------------------------- shift plan: one stepped spline per shift class


def _every_element(op, q, basis, dt):
    """Interior (u, v) of every element of a basis, each stepped: the basis
    pass before the shift plan, as one block."""
    nt = n_steps_for(dt, T_FINAL)
    maps = solver._step_maps(op.omega_block, q, dt, nt)
    drive = _basis_drive(op, basis, np.arange(len(basis)))
    return solver._step_linear(maps, drive, dt, None, np.arange(len(basis)))


def _every_element_difference(op, q, q_bg, basis, states, dt):
    """Interior (w, z) of the difference pass over every element."""
    nt = n_steps_for(dt, T_FINAL)
    n_omega = op.grid.omega.size
    dq = _expand_potential(q, nt, n_omega)[0] - _expand_potential(q_bg, nt, n_omega)[0]
    drive = solver._difference_drive(dq, states.transpose(1, 0, 2).copy(), dt)
    return solver._step_linear(solver._step_maps(op.omega_block, q, dt, nt), drive, dt, None)


def _every_element_pairings(op, basis1, basis2, dt, u, v, controls):
    """Pairings of every element's full-grid history, one at a time, against
    the reversed probes: its interior (u, v) and, with controls, its own
    control on the exterior."""
    nt = n_steps_for(dt, T_FINAL)
    rows = []
    for e in range(len(basis1)):
        control = materialize(basis1, e) if controls else None
        full = solver._on_grid(op.grid, control, dt, nt, (u[:, e], v[:, e]))
        rows.append(dnmap._pair_against_basis(op, solver.Trajectory(*full, dt=dt), basis2))
    return np.array(rows)


def _seeds(seed):
    """The elements a pass with the plan's seed array steps."""
    return np.flatnonzero(seed == np.arange(seed.size))


# (grid, spline level, dt, time-dependent q, seeds per window node)
SHIFT_CASES = {
    "10-segments": (31, 10, DT, False, 1),
    "16-segments-200-steps": (101, 16, 5e-3, False, 2),
    "9-segments": (31, 9, DT, False, 4),
    "time-dependent": (31, 10, DT, True, 5),
}


@pytest.mark.parametrize("case", list(SHIFT_CASES))
def test_shifted_passes_match_stepping_every_element(request, case):
    n_nodes, n_segments, dt, timed, n_seeds = SHIFT_CASES[case]
    op = request.getfixturevalue(f"op{n_nodes}")
    grid = op.grid
    nt = n_steps_for(dt, T_FINAL)
    basis1 = ControlBasis(grid, "w1", dt, T_FINAL, n_segments)
    basis2 = ControlBasis(grid, "w2", dt, T_FINAL, n_segments)
    prof = 0.4 * interior_bump(grid)[grid.omega]
    q = np.outer(dt * np.arange(nt + 1), prof) if timed else prof
    stepped = _observed(lambda observe: solver.solve_linear_basis(op, q, basis1, observe))[2]
    assert sum(stepped) == n_seeds * len(basis1.nodes)
    # the background states of q = 0, from the modes of L_omega
    background = BackgroundStates(op, None, basis1)
    u0, _v0 = _every_element(op, None, basis1, dt)
    _assert_within(background.states_of(np.arange(len(basis1))), u0)
    # the measurement matrix of q
    u, v = _every_element(op, q, basis1, dt)
    ref = _every_element_pairings(op, basis1, basis2, dt, u, v, True)
    _assert_within(dn_matrix_linear(op, q, basis1, basis2), ref)
    # the difference of q from the q = 0 background, driven by its states
    w, z = _every_element_difference(op, q, None, basis1, u0.transpose(1, 0, 2), dt)
    ref = _every_element_pairings(op, basis1, basis2, dt, w, z, False)
    _assert_within(dn_difference_linear(q, background, basis2), ref)


def test_shift_plan_of_a_level_and_of_a_horizon_off_by_rounding(grid101, grid31):
    # at 16 segments and 200 steps a knot is 12.5 steps: splines 1, 3, 5, ...
    # shift spline 1 by 25, 50, ... steps and splines 2, 4, ... spline 2
    basis = ControlBasis(grid101, "w1", 5e-3, T_FINAL, 16)
    seed, lag = solver.shift_plan(basis, True, len(basis.nodes))
    n_spl = len(basis.tsplines)
    assert seed[:n_spl].tolist() == [0, 1] * 5 + [0]
    assert lag[:n_spl].tolist() == [0, 0, 25, 25, 50, 50, 75, 75, 100, 100, 125]
    assert seed[n_spl:2 * n_spl].tolist() == (n_spl + seed[:n_spl]).tolist()
    assert _seeds(seed).tolist() == [a * n_spl + c for a in range(len(basis.nodes))
                                     for c in (0, 1)]
    assert not solver.shift_plan(basis, False, len(basis.nodes))[1].any()
    # n_steps_for takes a dt whose steps miss t_final by rounding; the samples
    # then shift by other than whole knots, and nothing is shifted
    basis = ControlBasis(grid31, "w1", DT, T_FINAL, 10)
    assert solver.shift_plan(basis, True, len(basis.nodes))[1].any()
    dt = DT + 1e-12
    assert n_steps_for(dt, T_FINAL) == NT
    basis = ControlBasis(grid31, "w1", dt, T_FINAL, 10)
    seed, lag = solver.shift_plan(basis, True, len(basis.nodes))
    assert not lag.any() and len(_seeds(seed)) == len(basis)


def test_shifted_pass_reports_the_first_failing_element(op31, grid31):
    # a huge coupling from the second w1 node overflows the drive of its
    # elements some steps after their splines start; the first of them fails
    # first, in the pass over every element and in the shifted pass alike
    basis = ControlBasis(grid31, "w1", DT, T_FINAL, 10)
    matrix = op31.matrix.copy()
    matrix[basis.nodes[1], grid31.omega[4]] = 1e308
    op = dataclasses.replace(op31, matrix=matrix)
    with np.errstate(all="ignore"), pytest.raises(StepFailureError) as every:
        _every_element(op, None, basis, DT)
    with (np.errstate(all="ignore"), pytest.raises(StepFailureError) as shifted,
          mock.patch.object(solver, "_step_linear", wraps=solver._step_linear) as step):
        solver.solve_linear_basis(op, None, basis, lambda u, v: u)
    assert [c.args[1].shape[1] for c in step.call_args_list] == [len(basis.nodes)]
    assert len(basis.nodes) < len(basis)
    assert every.value.element == len(basis.tsplines)
    assert (shifted.value.element, shifted.value.step) == (every.value.element,
                                                           every.value.step)
    assert 1 < shifted.value.step < NT
    assert f"of basis element {every.value.element}:" in str(shifted.value)
