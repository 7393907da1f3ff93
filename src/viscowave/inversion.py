"""Recovery of the potential and the nonlinearity from boundary measurements.

The workhorse is approximate controllability: for a target interior state we
synthesize an exterior control, supported on one window, whose solution tracks
the target in the interior energy norm.  Measured pairing differences between
two operators then turn into interior integrals against products of achieved
states, and a small regularized least-squares problem returns the coefficient.
"""

from dataclasses import dataclass, field
import json

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .controls import ControlBasis, ExteriorControl, bump_control, time_bump
from .dnmap import _pair_against_basis
from .solver import (n_steps_for, solve_linear, solve_linear_basis, solve_nonlinear,
                     trapezoid_weights)


class InversionError(RuntimeError):
    """Inversion-stage failure."""


class IllConditionedError(InversionError):
    """Normal equations too ill-conditioned to factor."""

    def __init__(self, message, cond_estimate):
        super().__init__(f"{message} (condition estimate {cond_estimate:.3e})")
        self.cond_estimate = cond_estimate


class InconclusiveError(InversionError):
    """Measured differences too small to estimate the homogeneity exponent."""


@dataclass(frozen=True)
class RungeProblem:
    """Target interior state to be tracked by a control on one window.

    target has shape (n_steps + 1, n_omega); alpha is the control-cost weight
    and n_segments fixes the time-spline refinement of the control basis.
    """

    target: np.ndarray
    window: str
    alpha: float = 1e-10
    n_segments: int = 16


class BackgroundStates:
    """Interior states reached by each element of a control basis.

    Solves the evolution once per basis element (background potential q, zero
    source), all elements in one basis pass, and caches the interior
    trajectories together with the Gram data needed for control synthesis in
    the L2-in-time energy norm.
    """

    def __init__(self, op, q, basis, dt, t_final):
        self.op = op
        self.basis = basis
        self.dt = float(dt)
        self.t_final = float(t_final)
        self.n_steps = n_steps_for(dt, t_final)
        grid = op.grid
        self.states = np.empty((len(basis), self.n_steps + 1, grid.omega.size))
        for elements, u, _v in solve_linear_basis(op, q, basis, self.dt, self.t_final):
            self.states[elements] = u.transpose(1, 0, 2)
        self.time_weights = self.dt * trapezoid_weights(self.n_steps)
        k_omega = grid.h * op.omega_block
        k_states = self.states @ k_omega
        sw = self.states * self.time_weights[None, :, None]
        flat = k_states.reshape(len(basis), -1)
        self.gram = sw.reshape(len(basis), -1) @ flat.T
        self.gram = 0.5 * (self.gram + self.gram.T)
        self._sw_flat = sw.reshape(len(basis), -1)
        self.control_gram = self._control_gram()
        self._factors = {}  # synthesis Cholesky factors by alpha

    def _control_gram(self):
        tm = self.basis.time_matrix(self.dt, self.n_steps)
        gt = (tm * self.time_weights[None, :]) @ tm.T
        g = np.kron(np.eye(len(self.basis.nodes)), self.op.grid.h * gt)
        return 0.5 * (g + g.T)

    def synthesize(self, target, alpha):
        """Coefficients minimizing tracking error plus alpha * control cost.

        target is one (nt+1, n_omega) interior state or a stack of them,
        (n, nt+1, n_omega); a stack is solved as one system with n right-hand
        sides.  Returns the coefficients, the achieved states and the
        tracking errors, one per target.  alpha is dimensionless: the
        control-cost Gram is rescaled so its trace matches the state Gram
        before weighting, making alpha the relative spectral cutoff of the
        synthesis.
        """
        target = np.asarray(target, dtype=float)
        shape = (self.n_steps + 1, len(self.op.grid.omega))
        if target.ndim not in (2, 3) or target.shape[-2:] != shape:
            raise InversionError(f"target shape {target.shape} does not match {shape}")
        k_omega = self.op.grid.h * self.op.omega_block
        stack = target.reshape((-1,) + shape)
        b = self._sw_flat @ (stack @ k_omega).reshape(len(stack), -1).T
        coeffs = cho_solve(self._synthesis_factor(alpha), b).T
        achieved = (coeffs @ self.states.reshape(len(self.basis), -1)).reshape(stack.shape)
        diff = achieved - stack
        err2 = np.einsum("itj,itj->it", diff, diff @ k_omega) @ self.time_weights
        errors = np.sqrt(np.maximum(err2, 0.0))
        if target.ndim == 2:
            return coeffs[0], achieved[0], errors[0]
        return coeffs, achieved, errors

    def _synthesis_factor(self, alpha):
        """Cholesky factor of gram + alpha * scale * control_gram, once per alpha."""
        cho = self._factors.get(alpha)
        if cho is None:
            scale = np.trace(self.gram) / np.trace(self.control_gram)
            mat = self.gram + alpha * scale * self.control_gram
            try:
                cho = cho_factor(mat)
            except np.linalg.LinAlgError as exc:
                raise IllConditionedError("control normal equations failed",
                                          np.linalg.cond(mat)) from exc
            self._factors[alpha] = cho
        return cho

    def control_from_coeffs(self, coeffs):
        """Assemble the synthesized exterior control Sum_m c_m * element_m."""
        nt = self.n_steps
        n = self.op.grid.n_nodes
        values = np.zeros((nt + 1, n))
        dvalues = np.zeros((nt + 1, n))
        tm = self.basis.time_matrix(self.dt, nt)
        dtm = self.basis.time_dmatrix(self.dt, nt)
        n_spl = len(self.basis.tsplines)
        for a, node in enumerate(self.basis.nodes):
            c_node = coeffs[a * n_spl:(a + 1) * n_spl]
            values[:, node] = c_node @ tm
            dvalues[:, node] = c_node @ dtm
        return ExteriorControl(values=values, dvalues=dvalues,
                               window=self.basis.window, dt=self.dt, spec=None)


def _synthesize_targets(bg, targets, alpha):
    """bg.synthesize over all the targets at once: coefficients, achieved states, errors."""
    fields = [tgt.materialize(bg.op.grid, bg.dt, bg.n_steps) for tgt in targets]
    return bg.synthesize(np.asarray(fields), alpha)


def synthesize_control(op, q_background, problem, dt, t_final):
    """Control on problem.window whose state tracks problem.target.

    Returns (control, achieved_error) with the error measured in the
    L2-in-time interior energy norm.
    """
    basis = ControlBasis(op.grid, problem.window, t_final, problem.n_segments)
    bg = BackgroundStates(op, q_background, basis, dt, t_final)
    coeffs, _, err = bg.synthesize(problem.target, problem.alpha)
    return bg.control_from_coeffs(coeffs), float(err)


@dataclass(frozen=True)
class LocalizedTarget:
    """Spatial bump at one interior node times a smooth time bump."""

    node: int
    t0: float
    t1: float
    space_width: float

    def materialize(self, grid, dt, n_steps):
        x = grid.x
        om = grid.omega
        prof = np.exp(-((x[om] - x[self.node]) / self.space_width) ** 2)
        t = dt * np.arange(n_steps + 1)
        theta, _ = time_bump(t, self.t0, self.t1)
        return np.outer(theta, prof)


def interior_targets(grid, t_final, nodes=None, space_width=None,
                     time_windows=None):
    """Localized targets: interior nodes crossed with staggered time bumps.

    The default three overlapping time windows give the pairing matrix enough
    temporal diversity to resolve the potential; a single window flattens the
    system onto too small a subspace.
    """
    if nodes is None:
        nodes = grid.omega
    if space_width is None:
        space_width = 2.0 * grid.h
    if time_windows is None:
        time_windows = [(0.10 * t_final, 0.50 * t_final),
                        (0.30 * t_final, 0.70 * t_final),
                        (0.50 * t_final, 0.90 * t_final)]
    return [LocalizedTarget(int(n), float(a), float(b), float(space_width))
            for n in nodes for (a, b) in time_windows]


@dataclass
class Reconstruction:
    """Recovered coefficient with masks and solver diagnostics."""

    values: np.ndarray
    nodes: np.ndarray
    node_coords: np.ndarray
    covered: np.ndarray
    r: float | None = None
    coeff: np.ndarray | None = None
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self):
        out = {
            "q_est": np.asarray(self.values).tolist(),
            "nodes": np.asarray(self.nodes).tolist(),
            "node_coords": np.asarray(self.node_coords).tolist(),
            "covered": np.asarray(self.covered).astype(bool).tolist(),
            "diagnostics": self.diagnostics,
        }
        out["r_est"] = None if self.r is None else float(self.r)
        if self.coeff is not None:
            out["coeff"] = np.asarray(self.coeff).tolist()
        return out

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)

    def save_csv(self, path, q_true=None):
        """Rows x,q_true,q_est (q_true column empty when unknown)."""
        vals = np.asarray(self.values)
        if vals.ndim > 1:
            vals = vals[:, 0]  # static column of a time-dependent estimate
        with open(path, "w") as fh:
            fh.write("x,q_true,q_est\n")
            for i, xi in enumerate(np.asarray(self.node_coords)):
                true_s = "" if q_true is None else repr(float(q_true[i]))
                fh.write(f"{float(xi)!r},{true_s},{float(vals[i])!r}\n")

    @staticmethod
    def load(path):
        with open(path) as fh:
            raw = json.load(fh)
        return Reconstruction(
            values=np.asarray(raw["q_est"], dtype=float),
            nodes=np.asarray(raw["nodes"], dtype=int),
            node_coords=np.asarray(raw["node_coords"], dtype=float),
            covered=np.asarray(raw["covered"], dtype=bool),
            r=raw.get("r_est"),
            coeff=None if raw.get("coeff") is None else np.asarray(raw["coeff"], dtype=float),
            diagnostics=raw.get("diagnostics", {}),
        )


def _rebuild_bases(op, record):
    basis1 = ControlBasis.from_specs(op.grid, record.controls)
    basis2 = ControlBasis.from_specs(op.grid, record.probes)
    if basis1.window != "w1" or basis2.window != "w2":
        raise InversionError("expected controls on w1 and probes on w2")
    return basis1, basis2


def _check_record(rec, op, dt, t_final):
    if abs(rec.s - op.s) > 1e-12:
        raise InversionError(f"record order {rec.s} does not match operator {op.s}")
    if abs(rec.dt - dt) > 1e-12 or abs(rec.t_final - t_final) > 1e-12:
        raise InversionError("record time grid does not match requested one")


def _time_hats(n_coarse, dt, n_steps):
    """Piecewise-linear partition of unity on a coarse uniform time grid."""
    t = dt * np.arange(n_steps + 1)
    knots = np.linspace(0.0, dt * n_steps, n_coarse)
    width = knots[1] - knots[0]
    rows = [np.clip(1.0 - np.abs(t - tk) / width, 0.0, None) for tk in knots]
    return np.asarray(rows), knots


def _second_difference(n):
    d2 = np.zeros((max(n - 2, 0), n))
    for i in range(n - 2):
        d2[i, i:i + 3] = (1.0, -2.0, 1.0)
    return d2


def _regularized_solve(kern, rhs, pen, alpha, what):
    """Least squares kern x ~ rhs penalized by alpha * pen, via Cholesky.

    alpha is dimensionless: pen is rescaled so its trace matches the Gram
    matrix, and a 1e-12 relative ridge keeps the factorization defined.
    """
    gram = kern.T @ kern
    n = gram.shape[0]
    scale = np.trace(gram) / max(np.trace(pen), 1e-300)
    ridge = 1e-12 * np.trace(gram) / max(n, 1)
    mat = gram + alpha * scale * pen + ridge * np.eye(n)
    try:
        cho = cho_factor(mat)
    except np.linalg.LinAlgError as exc:
        raise IllConditionedError(f"{what} normal equations failed",
                                  np.linalg.cond(mat)) from exc
    return cho_solve(cho, kern.T @ rhs)


def recover_linear_potential(dn_difference, op, targets, alpha_inv, dt, t_final,
                             synth_alpha=1e-10, q_time_basis=None, frame="direct",
                             q_background=None):
    """Potential increment from a difference record over a background.

    dn_difference holds the measurement differences of the data from the
    background q_background, as ``dnmap.dn_difference_linear`` measures
    them.  targets is a list of LocalizedTarget; both windows synthesize
    controls towards each of them, and the differences m_ij are matched to
    interior integrals of the potential against products of the achieved
    background states (the first-order expansion of the measurement map at
    q_background, so the returned values estimate q_data - q_background).
    Smoothness-regularized least squares with weight alpha_inv picks the
    estimate.  frame="direct" parameterizes the unknown on the forward time
    axis; frame="reversed" parameterizes its time reversal, the natural frame
    when the unknown is modeled from the receiving side.  With
    q_time_basis=None the unknown is static; an integer requests that many
    piecewise-linear time profiles.
    """
    if frame not in ("direct", "reversed"):
        raise InversionError(f"unknown frame {frame!r}")
    if q_background is not None and np.asarray(q_background).ndim > 1:
        raise InversionError("q_background must be static (scalar or one row)")
    _check_record(dn_difference, op, dt, t_final)
    basis1, basis2 = _rebuild_bases(op, dn_difference)
    n_steps = n_steps_for(dt, t_final)
    grid = op.grid
    om = grid.omega

    bg1 = BackgroundStates(op, q_background, basis1, dt, t_final)
    bg2 = BackgroundStates(op, q_background, basis2, dt, t_final)

    # achieved states: (n_targets, nt+1, n_omega)
    coeff1, achieved1, errs1 = _synthesize_targets(bg1, targets, synth_alpha)
    coeff2, achieved2, errs2 = _synthesize_targets(bg2, targets, synth_alpha)

    perm = basis2.reversal_permutation()
    m = coeff1 @ dn_difference.pairings[:, perm] @ coeff2.T  # (n_targets, n_targets)

    wt = dt * trapezoid_weights(n_steps)
    if q_time_basis is None:
        gamma = np.ones((1, n_steps + 1))
    else:
        gamma, _ = _time_hats(int(q_time_basis), dt, n_steps)
    n_gamma = gamma.shape[0]

    if frame == "direct":
        fld1, fld2 = achieved1, achieved2[:, ::-1, :]
    else:
        fld1, fld2 = achieved1[:, ::-1, :], achieved2
    # rows (i, k), columns (node j, time profile m)
    wg = gamma * wt[None, :]
    kern = grid.h * np.einsum("itj,ktj,mt->ikjm", fld1, fld2, wg, optimize=True)
    n_pairs = len(targets) ** 2
    kern = kern.reshape(n_pairs, len(om) * n_gamma)
    rhs = m.reshape(-1)

    col = np.sqrt(np.einsum("pj,pj->j", kern, kern)).reshape(len(om), n_gamma)
    colnorm = np.sqrt(np.sum(col ** 2, axis=1))
    if colnorm.max() == 0.0:
        raise InversionError("probing system is identically zero")
    unresolved = np.flatnonzero(colnorm == 0.0)
    if unresolved.size:
        raise InversionError("probing system leaves omega nodes unresolved: "
                             f"{[int(om[j]) for j in unresolved]}")
    covered = colnorm >= 1e-8 * colnorm.max()

    d2s = _second_difference(len(om))
    pen = np.kron(d2s.T @ d2s, np.eye(n_gamma))
    if n_gamma >= 3:
        d2t = _second_difference(n_gamma)
        pen = pen + np.kron(np.eye(len(om)), d2t.T @ d2t)
    qvec = _regularized_solve(kern, rhs, pen, alpha_inv, "inversion")

    qmat = qvec.reshape(len(om), n_gamma)
    if q_time_basis is None:
        values = qmat[:, 0]
    else:
        values = qmat @ gamma  # (n_omega, nt+1) sampled profile

    residual = float(np.linalg.norm(kern @ qvec - rhs))
    diagnostics = {
        "frame": frame,
        "runge_errors_w1": [float(e) for e in errs1],
        "runge_errors_w2": [float(e) for e in errs2],
        "fit_residual": residual,
        "rhs_norm": float(np.linalg.norm(rhs)),
        "n_pairs": n_pairs,
    }
    return Reconstruction(values=values, nodes=om.copy(),
                          node_coords=grid.x[om].copy(), covered=covered,
                          diagnostics=diagnostics)


def _nonlinear_remainders(op, f, psi, basis2, eps_list, dt, t_final):
    """What the nonlinearity adds to the measurement of eps * psi, per eps.

    Returns the linear trajectory driven by psi, its pairings p_lin against
    the reversed probe elements of basis2, and for each eps the reversed
    pairings of the nonlinear trajectory driven by eps * psi minus eps * p_lin.
    """
    lin = solve_linear(op, None, psi, dt, t_final)
    perm = basis2.reversal_permutation()
    time_mat = basis2.time_matrix(dt, n_steps_for(dt, t_final))
    p_lin = _pair_against_basis(op, lin, basis2, time_mat)[perm]
    remainders = []
    for eps in eps_list:
        scaled = ExteriorControl(values=eps * psi.values, dvalues=eps * psi.dvalues,
                                 window=psi.window, dt=psi.dt, spec=None)
        nl = solve_nonlinear(op, f, scaled, dt, t_final)
        p_nl = _pair_against_basis(op, nl, basis2, time_mat)[perm]
        remainders.append(p_nl - eps * p_lin)
    return lin, p_lin, remainders


def estimate_homogeneity_exponent(op, f, psi, basis2, eps_list, dt, t_final):
    """Homogeneity degree of the nonlinearity from the scaling of pairings.

    Drives the system with eps * psi, measures the difference between the
    nonlinear and linear responses against the reversed probe elements, and
    reads the exponent off a log-log fit: slope minus one.
    """
    eps_list = sorted(float(e) for e in eps_list)
    if len(eps_list) < 2:
        raise InversionError("need at least two amplitudes")
    _lin, p_lin, remainders = _nonlinear_remainders(op, f, psi, basis2, eps_list,
                                                    dt, t_final)
    sizes = np.asarray([np.linalg.norm(d) for d in remainders])
    floor = 1e-10 * max(np.linalg.norm(p_lin) * max(eps_list), 1e-300)
    if np.any(sizes < floor):
        raise InconclusiveError(
            f"pairing differences {sizes} at or below noise floor {floor:.3e}")
    slope = np.polyfit(np.log(eps_list), np.log(sizes), 1)[0]
    return float(slope - 1.0), {"eps": eps_list, "differences": sizes.tolist(),
                                "slope": float(slope)}


def recover_nonlinear_coefficient(op, f, r_known, targets, eps0, alpha_inv,
                                  dt, t_final, psi=None, synth_alpha=1e-10,
                                  n_segments=16, coverage_floor=1e-8):
    """Nodal coefficient of a homogeneous nonlinearity from small-amplitude data.

    The leading pairing difference at amplitude eps scales like eps**(r+1) and
    pairs q(x) |v0|^r v0 against reversed achieved probe states, where v0 is
    the linear response to psi.  A two-amplitude Richardson step (eps0 and
    eps0/2, error order r) removes the next correction before the moment
    system is solved for q on the covered nodes.
    """
    grid = op.grid
    om = grid.omega
    n_steps = n_steps_for(dt, t_final)
    if psi is None:
        psi = bump_control(grid, "w1", 0.1 * t_final, 0.9 * t_final, dt, n_steps)
    basis2 = ControlBasis(grid, "w2", t_final, n_segments)
    bg2 = BackgroundStates(op, None, basis2, dt, t_final)

    coeff2, achieved2, errs2 = _synthesize_targets(bg2, targets, synth_alpha)

    eps_pair = (eps0, 0.5 * eps0)
    lin, _p_lin, remainders = _nonlinear_remainders(op, f, psi, basis2, eps_pair, dt, t_final)
    v0 = lin.u[:, om]

    r = float(r_known)
    w1, w2m = [coeff2 @ d / eps ** (r + 1) for eps, d in zip(eps_pair, remainders)]
    y = (2.0 ** r * w2m - w1) / (2.0 ** r - 1.0)

    wt = dt * trapezoid_weights(n_steps)
    gsrc = np.abs(v0) ** r * v0
    v2_rev = achieved2[:, ::-1, :]
    zeta = grid.h * np.einsum("tj,t,ktj->kj", gsrc, wt, v2_rev)

    colnorm = np.linalg.norm(zeta, axis=0)
    covered = colnorm >= coverage_floor * colnorm.max()
    values = np.full(len(om), np.nan)
    sub = zeta[:, covered]
    d2 = _second_difference(sub.shape[1])
    values[covered] = _regularized_solve(sub, y, d2.T @ d2, alpha_inv, "moment")

    diagnostics = {
        "r": r,
        "eps": [float(eps0), float(0.5 * eps0)],
        "runge_errors_w2": [float(e) for e in errs2],
        "moment_residual": float(np.linalg.norm(sub @ values[covered] - y)),
        "moment_norm": float(np.linalg.norm(y)),
        "n_covered": int(np.sum(covered)),
    }
    return Reconstruction(values=values, nodes=om.copy(),
                          node_coords=grid.x[om].copy(), covered=covered,
                          r=r, coeff=values.copy(), diagnostics=diagnostics)
