"""Exterior measurement pairings on windows and the discrete transposition identities.

The measurement of a solution u against a window test function psi is

    <M u, psi> = int_0^T [ <(-Dx)^{s/2} u, (-Dx)^{s/2} psi>
                         + <(-Dx)^{s/2} u_t, (-Dx)^{s/2} psi> ] dt,

realized discretely as a trapezoidal time sum of h * psi·L(u + v).  Identities
verified here: the adjoint relation under time reversal of the potential, the
potential-difference integral identity, and its nonlinear counterpart.
"""

import numpy as np

from .controls import ExteriorControl
from .solver import (_expand_potential, n_steps_for, solve_linear, solve_linear_basis,
                     solve_linear_difference, solve_nonlinear, steps_controls,
                     trapezoid_weights)


class DNMapError(ValueError):
    pass


def time_reverse(control):
    """Time reversal t -> T - t of an ExteriorControl: its values flipped and
    its dvalues flipped and negated.  Applying it twice returns the input.
    """
    if not isinstance(control, ExteriorControl):
        raise DNMapError(f"cannot time-reverse a {type(control).__name__}; "
                         "pass an ExteriorControl")
    return ExteriorControl(values=control.values[::-1].copy(),
                           dvalues=-control.dvalues[::-1].copy(),
                           window=control.window, dt=control.dt)


def dn_pairing(op, traj, probe):
    """Trapezoidal pairing of a trajectory against a window probe.

    The probe must be an exterior control (either window); its values enter,
    its time derivative does not.
    """
    if not isinstance(probe, ExteriorControl):
        raise DNMapError("probe must be an ExteriorControl")
    if probe.values.shape != traj.u.shape:
        raise DNMapError(f"probe sampled as {probe.values.shape}, "
                         f"trajectory is {traj.u.shape}")
    grid = op.grid
    w = trapezoid_weights(traj.n_steps)
    flux = (traj.u + traj.v) @ op.matrix
    series = grid.h * np.sum(probe.values * flux, axis=-1)
    return float(traj.dt * np.dot(w, series))


def _pair_fluxes(flux, probe_basis):
    """Trapezoidal pairings of flux histories against time-reversed probe elements.

    flux holds h L(u + v) at the probe nodes, time on the next-to-last axis,
    on the basis's time grid, and the nodes on the last; the result replaces
    both axes by the basis elements, in their node-major, spline-minor order.
    """
    weighted = probe_basis.values * trapezoid_weights(probe_basis.n_steps)[None, :]
    block = probe_basis.dt * (weighted @ flux)                  # (..., n_tspl, n_nodes)
    # a level's spline rows read backwards are its splines reversed in time
    return np.swapaxes(block[..., ::-1, :], -1, -2).reshape(flux.shape[:-2] + (-1,))


def _pair_against_basis(op, traj, probe_basis):
    """Pairings of one trajectory against every time-reversed probe element."""
    flux = (traj.u + traj.v) @ op.matrix[:, probe_basis.nodes]
    return _pair_fluxes(op.grid.h * flux, probe_basis)


def _probe_flux(op, control_basis, probe_basis):
    """observe of a w1 basis pass measured against a w2 probe basis: h L(u + v)
    through L's omega-to-probe columns.  Bases on other windows, or on two
    time grids, raise :class:`DNMapError`."""
    if control_basis.window != "w1":
        raise DNMapError("control basis must live on window w1")
    if probe_basis.window != "w2":
        raise DNMapError("probe basis must live on window w2")
    if (probe_basis.dt, probe_basis.n_steps) != (control_basis.dt, control_basis.n_steps):
        raise DNMapError(f"probe basis time grid, {probe_basis.n_steps} steps of "
                         f"{probe_basis.dt}, is not the control basis's")
    cols = op.matrix[np.ix_(op.grid.omega, probe_basis.nodes)]
    return lambda u, v: op.grid.h * ((u + v) @ cols)


def dn_matrix_linear(op, q, control_basis, probe_basis):
    """Measurement matrix P of the linear model: controls on w1, probes on w2.

    P[i, j] = <M_q phi_i, psi_j*> pairs control i with probe j reversed in
    time: the responses on omega, plus what the control's own samples add
    through L's w1-to-w2 block, kron(L[w1 nodes, w2 nodes], T), with T
    pairing the control splines (value plus derivative) against the reversed
    probe splines.  Both bases share one time grid.
    """
    flux = solve_linear_basis(op, q, control_basis,
                              _probe_flux(op, control_basis, probe_basis))
    x = control_basis.values + control_basis.dvalues
    t_pair = (control_basis.dt * op.grid.h
              * (x * trapezoid_weights(control_basis.n_steps)[None, :])
              @ probe_basis.values.T)
    block = op.matrix[np.ix_(control_basis.nodes, probe_basis.nodes)]
    return _pair_fluxes(flux, probe_basis) + np.kron(block, t_pair[:, ::-1])


def dn_difference_linear(q, background, probe_basis):
    """Difference of q's measurement matrix from that of a background.

    background is the ``inversion.BackgroundStates`` of the control basis
    under the background potential; the result is dn_matrix_linear of q minus
    that of the background potential, in the same layout.  It is measured,
    not subtracted: it pairs the responses of the difference equation
    (:func:`solver.solve_linear_difference`), driven by the background's
    states, so it keeps its relative accuracy however close q is to
    the background potential.
    """
    op, control_basis = background.op, background.basis
    flux = solve_linear_difference(op, q, background.q, control_basis, background.states_of,
                                   _probe_flux(op, control_basis, probe_basis))
    return _pair_fluxes(flux, probe_basis)


def dn_moments_linear(q, recovery):
    """The moments m = coeff1 dP coeff2^T that ``recovery.estimate`` reads,
    of dP, the difference of q's measurement matrix from the background's.

    recovery is an ``inversion.LinearRecovery``, whose ``data_pass`` says
    which rows step, given the answer of ``solver.steps_controls``, and
    schedules its kernel.  Where the synthesized w1 controls step, coeff1 dP
    is measured directly: the measurement is linear in the control, so it
    is the difference pass (:func:`solver.solve_linear_difference`) of those
    controls, driven by their states, paired against the probes.  Otherwise
    the elements give dP (:func:`dn_difference_linear`).
    """
    background, probe_basis = recovery.background, recovery.probe_basis
    op, basis, n = background.op, background.basis, len(recovery.coeff1)
    with recovery.data_pass(steps_controls(basis, q, background.q, n)) as controls:
        if not controls:
            return recovery.moments(dn_difference_linear(q, background, probe_basis))
        flux = solve_linear_difference(op, q, background.q, basis, recovery.states_of,
                                       _probe_flux(op, basis, probe_basis), n_controls=n)
        return _pair_fluxes(flux, probe_basis) @ recovery.coeff2.T


def dn_remainders_nonlinear(op, f, psi, probe_basis, eps_list):
    """What the nonlinearity adds to the measurement of eps * psi, per amplitude.

    Returns the linear trajectory driven by psi, its pairings p_lin against
    the reversed elements of probe_basis, and a dict mapping each distinct
    eps of eps_list to the reversed pairings of the nonlinear trajectory
    driven by eps * psi minus eps * p_lin.  The solves run on the probe
    basis's time grid, which psi must be sampled on.
    """
    dt, t_final = probe_basis.dt, probe_basis.t_final
    lin = solve_linear(op, None, psi, dt, t_final)
    p_lin = _pair_against_basis(op, lin, probe_basis)
    remainders = {}
    for eps in sorted(set(eps_list)):
        scaled = ExteriorControl(values=eps * psi.values, dvalues=eps * psi.dvalues,
                                 window=psi.window, dt=psi.dt)
        p_nl = _pair_against_basis(op, solve_nonlinear(op, f, scaled, dt, t_final),
                                   probe_basis)
        remainders[eps] = p_nl - eps * p_lin
    return lin, p_lin, remainders


def _check_windows(phi1, phi2):
    if phi1.window != "w1":
        raise DNMapError(f"phi1 must be supported on w1, got {phi1.window}")
    if phi2.window != "w2":
        raise DNMapError(f"phi2 must be supported on w2, got {phi2.window}")


def self_adjointness_residual(op, q, phi1, phi2, dt, t_final):
    """|<M_q phi1, phi2*> - <M_{q*} phi2, phi1*>|, which vanishes in the limit.

    Two forward solves: the q-model driven from w1 and the reversed-potential
    model driven from w2, each paired against the other control reversed.
    """
    _check_windows(phi1, phi2)
    q_rev = _expand_potential(q, n_steps_for(dt, t_final), op.grid.omega.size)[0][::-1]
    lhs = dn_pairing(op, solve_linear(op, q, phi1, dt, t_final),
                     time_reverse(phi2))
    rhs = dn_pairing(op, solve_linear(op, q_rev, phi2, dt, t_final),
                     time_reverse(phi1))
    return abs(lhs - rhs), lhs, rhs


def _interior_weighted_sum(grid, dt, weight, f1, f2):
    """Trapezoidal space-time sum over omega of weight * f1 * f2_reversed."""
    nt = f1.shape[0] - 1
    w = trapezoid_weights(nt)
    prod = weight * f1 * f2[::-1]
    return float(dt * grid.h * np.dot(w, prod.sum(axis=-1)))


def alessandrini_residual(op, q1, q2, phi1, phi2, dt, t_final):
    """Residual of the potential-difference integral identity.

    lhs = <(M_{q1} - M_{q2*}) phi1, phi2*> where q2* is the time-reversed
    second potential; rhs = space-time sum of (q1 - q2*) u1 u2* with u1 the
    q1-solution driven by phi1 and u2 the q2-solution driven by phi2.  Both
    sides coincide up to discretization error.  For time-independent q2 the
    lhs is the plain measurement difference of the two models.

    Returns (lhs, rhs, |lhs - rhs|).
    """
    _check_windows(phi1, phi2)
    nt = n_steps_for(dt, t_final)
    om = op.grid.omega
    q1s = _expand_potential(q1, nt, om.size)[0]
    q2s = _expand_potential(q2, nt, om.size)[0]

    u1 = solve_linear(op, q1, phi1, dt, t_final)
    u2 = solve_linear(op, q2, phi2, dt, t_final)
    phi2_rev = time_reverse(phi2)
    lhs = (dn_pairing(op, u1, phi2_rev)
           - dn_pairing(op, solve_linear(op, q2s[::-1], phi1, dt, t_final),
                        phi2_rev))
    diff = q1s - q2s[::-1]
    rhs = _interior_weighted_sum(op.grid, dt, diff, u1.u[:, om], u2.u[:, om])
    return lhs, rhs, abs(lhs - rhs)


def nonlinear_integral_identity_residual(op, f1, f2, phi1, phi2, dt, t_final):
    """Residual of the nonlinearity-difference integral identity.

    lhs = <(M_{f1} - M_{f2}) phi1, phi2*>; rhs pairs f1(u^(1)) - f2(u^(2))
    against the reversed linear background response to phi2, where u^(j) is
    the f_j-solution driven by phi1.

    Returns (lhs, rhs, |lhs - rhs|).
    """
    _check_windows(phi1, phi2)
    om = op.grid.omega
    u11 = solve_nonlinear(op, f1, phi1, dt, t_final)
    u12 = solve_nonlinear(op, f2, phi1, dt, t_final)
    phi2_rev = time_reverse(phi2)
    lhs = dn_pairing(op, u11, phi2_rev) - dn_pairing(op, u12, phi2_rev)
    u2 = solve_linear(op, None, phi2, dt, t_final)
    g = f1.value(u11.u[:, om]) - f2.value(u12.u[:, om])
    rhs = _interior_weighted_sum(op.grid, dt, 1.0, g, u2.u[:, om])
    return lhs, rhs, abs(lhs - rhs)
