"""Exterior measurement pairings on windows and the discrete transposition identities.

The measurement of a solution u against a window test function psi is

    <M u, psi> = int_0^T [ <(-Dx)^{s/2} u, (-Dx)^{s/2} psi>
                         + <(-Dx)^{s/2} u_t, (-Dx)^{s/2} psi> ] dt,

realized discretely as a trapezoidal time sum of h * psi·L(u + v).  Identities
verified here: the adjoint relation under time reversal of the potential, the
potential-difference integral identity, and its nonlinear counterpart.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .controls import ControlBasis, ExteriorControl
from .solver import (_expand_potential, n_steps_for, solve_linear, solve_linear_basis,
                     solve_linear_difference, solve_nonlinear, trapezoid_weights)


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


def reverse_potential(q):
    """Reversal of potential samples; static potentials are fixed points."""
    if q is None:
        return None
    q = np.asarray(q, dtype=float)
    if q.ndim <= 1:
        return q
    return q[::-1].copy()


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
    """Trapezoidal pairings of flux histories against every element of a probe basis.

    flux holds h L(u + v) at the probe nodes, time on the next-to-last axis,
    on the basis's time grid, and the nodes on the last; the result replaces
    both axes by the basis elements, in their node-major, spline-minor order.
    """
    weighted = probe_basis.values * trapezoid_weights(probe_basis.n_steps)[None, :]
    block = probe_basis.dt * np.tensordot(weighted, flux, axes=(1, -2))  # (n_tspl, ..., n_nodes)
    return np.moveaxis(block, 0, -1).reshape(flux.shape[:-2] + (-1,))


def _pair_against_basis(op, traj, probe_basis):
    """Pairings of one trajectory against every element of a separable probe basis."""
    flux = (traj.u + traj.v) @ op.matrix[:, probe_basis.nodes]
    return _pair_fluxes(op.grid.h * flux, probe_basis)


@dataclass(frozen=True)
class DNRecord:
    """Measurement matrix of a model over a control basis and a probe basis.

    pairings[i, j] pairs the response to element i of controls with element
    j of probes; the record's time grid is that of its control basis.
    """

    s: float
    controls: ControlBasis
    probes: ControlBasis
    pairings: np.ndarray = field(repr=False)
    tag: str = ""
    dt = property(lambda self: self.controls.dt)
    t_final = property(lambda self: self.controls.t_final)

    def to_dict(self):
        """JSON layout: each basis as its window and spline level."""
        return {"s": self.s, "dt": self.dt, "t_final": self.t_final,
                "tag": self.tag,
                "controls": {"window": self.controls.window,
                             "n_segments": self.controls.n_segments},
                "probes": {"window": self.probes.window,
                           "n_segments": self.probes.n_segments},
                "pairings": self.pairings.tolist()}

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1)

    @staticmethod
    def load(path, grid):
        """Read a saved record and rebuild its two bases on grid."""
        with open(path) as fh:
            d = json.load(fh)
        controls, probes = (ControlBasis(grid, d[key]["window"], d["dt"], d["t_final"],
                                         d[key]["n_segments"])
                            for key in ("controls", "probes"))
        return DNRecord(s=float(d["s"]), tag=d.get("tag", ""), controls=controls,
                        probes=probes, pairings=np.asarray(d["pairings"], dtype=float))


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


def dn_matrix_linear(op, q, control_basis, probe_basis, tag=""):
    """Measurement matrix of the linear model: controls on w1, probes on w2.

    The pairings of the responses on omega, plus what each control's own
    samples add through L's w1-to-w2 block: kron(L[w1 nodes, w2 nodes], T),
    with T pairing the control splines (value plus derivative) against the
    probe splines.  Both bases share one time grid.
    """
    flux = solve_linear_basis(op, q, control_basis,
                              _probe_flux(op, control_basis, probe_basis))
    x = control_basis.values + control_basis.dvalues
    t_pair = (control_basis.dt * op.grid.h
              * (x * trapezoid_weights(control_basis.n_steps)[None, :])
              @ probe_basis.values.T)
    exterior = np.kron(op.matrix[np.ix_(control_basis.nodes, probe_basis.nodes)], t_pair)
    return DNRecord(s=op.s, tag=tag, controls=control_basis, probes=probe_basis,
                    pairings=_pair_fluxes(flux, probe_basis) + exterior)


def dn_difference_linear(q, background, probe_basis, tag=""):
    """Difference of q's measurement matrix from that of a background.

    background is the ``inversion.BackgroundStates`` of the control basis
    under the background potential; the record holds the pairings of
    dn_matrix_linear of q minus those of the background potential.  They are
    measured, not subtracted: they pair the responses of the difference
    equation (:func:`solver.solve_linear_difference`), driven by the
    background's stored states, so they keep their relative accuracy however
    close q is to the background potential.
    """
    op, control_basis = background.op, background.basis
    flux = solve_linear_difference(op, q, background.q, control_basis, background.states,
                                   _probe_flux(op, control_basis, probe_basis))
    return DNRecord(s=op.s, tag=tag, controls=control_basis, probes=probe_basis,
                    pairings=_pair_fluxes(flux, probe_basis))


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
    perm = probe_basis.reversal_permutation()
    p_lin = _pair_against_basis(op, lin, probe_basis)[perm]
    remainders = {}
    for eps in sorted(set(eps_list)):
        scaled = ExteriorControl(values=eps * psi.values, dvalues=eps * psi.dvalues,
                                 window=psi.window, dt=psi.dt)
        p_nl = _pair_against_basis(op, solve_nonlinear(op, f, scaled, dt, t_final),
                                   probe_basis)[perm]
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
    lhs = dn_pairing(op, solve_linear(op, q, phi1, dt, t_final),
                     time_reverse(phi2))
    rhs = dn_pairing(op, solve_linear(op, reverse_potential(q), phi2, dt, t_final),
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
           - dn_pairing(op, solve_linear(op, reverse_potential(q2), phi1, dt, t_final),
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
