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

from . import solver
from .controls import ControlBasis, time_bump
from .solver import solve_linear_basis, trapezoid_weights

# Nothing here calls it: inversion reads measurements made by dnmap.  The name
# stays bound because perfbench/test_smoke.py's tracer test restores it.
solve_linear = solver.solve_linear


class InversionError(RuntimeError):
    """Inversion-stage failure."""


class IllConditionedError(InversionError):
    """Normal equations too ill-conditioned to factor."""

    def __init__(self, message, cond_estimate):
        super().__init__(f"{message} (condition estimate {cond_estimate:.3e})")
        self.cond_estimate = cond_estimate


class InconclusiveError(InversionError):
    """Measured differences too small to estimate the homogeneity exponent."""


def cho_factor(mat, what):
    """Upper Cholesky factor of the normal equations mat, as (u, False).

    The tuple has the (factor, lower) shape of ``scipy.linalg.cho_factor``, so
    either library's ``cho_solve`` takes it.  A non-finite or indefinite
    matrix raises :class:`IllConditionedError`, naming the system by what.
    """
    if not np.isfinite(mat).all():
        raise IllConditionedError(f"{what} normal equations not finite", np.nan)
    try:
        return np.linalg.cholesky(mat, upper=True), False
    except np.linalg.LinAlgError as exc:
        raise IllConditionedError(f"{what} normal equations failed",
                                  np.linalg.cond(mat)) from exc


def cho_solve(cho, b):
    """Solve u^T u x = b for the factor (u, False) of :func:`cho_factor`.

    Each triangular solve is a dense solve of an upper triangular matrix,
    whose LU is the matrix itself with no row swapped: the forward one on u^T
    with its rows and columns reversed, the back one on u.
    """
    u, _lower = cho
    y = np.linalg.solve(u[::-1, ::-1].T, b[::-1])[::-1]
    return np.linalg.solve(u, y)


def _energy_factor(k_omega):
    """Lower Cholesky factor C of the interior energy matrix, k_omega = C C^T.

    A non-finite or indefinite k_omega raises :class:`InversionError`.
    """
    if np.isfinite(k_omega).all():
        try:
            return np.linalg.cholesky(k_omega)
        except np.linalg.LinAlgError:
            pass
    raise InversionError("interior energy matrix is not finite and positive definite")


class BackgroundStates:
    """Interior states reached by each element of a control basis.

    Solves the evolution for the basis (background potential q, zero
    source) on the basis's time grid in one basis pass,
    ``solver.solve_linear_basis``, keeping each
    element's interior displacement history, together with the Gram data
    needed for control synthesis in the L2-in-time energy norm.  The Gram
    sum_t w_t S_t K S_t^T, with K = h omega_block and w the trapezoid
    weights, is formed as E E^T of the energy coordinates
    E_t = sqrt(w_t) S_t C, where K = C C^T is the Cholesky factor; an omega
    block that is not finite and positive definite raises
    :class:`InversionError`.  The states also drive the difference equation
    of ``dnmap.dn_difference_linear``, which reads q from here.
    """

    def __init__(self, op, q, basis):
        self.op = op
        self.q = q
        self.basis = basis
        self.states = solve_linear_basis(op, q, basis, lambda u, v: u)
        self.time_weights = basis.dt * trapezoid_weights(basis.n_steps)
        # one symmetric product of energy coordinates (numpy's SYRK, exactly
        # symmetric); it is within 1.1e-15 of its largest entry of the
        # time-weighted states against states @ K, which moves synthesized
        # states by up to 1.8e-8 relative at alpha 1e-8 and 9.3e-5 at 1e-12
        energy = self.states @ _energy_factor(op.grid.h * op.omega_block)
        energy *= np.sqrt(self.time_weights)[None, :, None]
        flat = energy.reshape(len(basis), -1)
        self.gram = flat @ flat.T
        self.control_gram = self._control_gram()

    def _control_gram(self):
        tm = self.basis.values
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
        shape = (self.basis.n_steps + 1, len(self.op.grid.omega))
        if target.ndim not in (2, 3) or target.shape[-2:] != shape:
            raise InversionError(f"target shape {target.shape} does not match {shape}")
        k_omega = self.op.grid.h * self.op.omega_block
        stack = target.reshape((-1,) + shape)
        # the time weights go onto the targets' energy, in place, so that the
        # states are the only copy kept of them
        energy = stack @ k_omega
        energy *= self.time_weights[None, :, None]
        flat = self.states.reshape(len(self.basis), -1)
        coeffs = cho_solve(self._synthesis_factor(alpha),
                           flat @ energy.reshape(len(stack), -1).T).T
        achieved = (coeffs @ flat).reshape(stack.shape)
        diff = achieved - stack
        err2 = np.einsum("itj,itj->it", diff, diff @ k_omega) @ self.time_weights
        errors = np.sqrt(np.maximum(err2, 0.0))
        if target.ndim == 2:
            return coeffs[0], achieved[0], errors[0]
        return coeffs, achieved, errors

    def _synthesis_factor(self, alpha):
        """Cholesky factor of gram + alpha * scale * control_gram."""
        scale = np.trace(self.gram) / np.trace(self.control_gram)
        return cho_factor(self.gram + alpha * scale * self.control_gram, "control")


def synthesize_control(op, q_background, target, window, dt, t_final, alpha, n_segments):
    """Control on window whose state tracks target, (n_steps + 1, n_omega).

    alpha is the control-cost weight and n_segments the time-spline level of
    the control basis.  Returns (control, achieved_error) with the error
    measured in the L2-in-time interior energy norm.
    """
    basis = ControlBasis(op.grid, window, dt, t_final, n_segments)
    coeffs, _, err = BackgroundStates(op, q_background, basis).synthesize(target, alpha)
    return basis.control(coeffs), float(err)


@dataclass(frozen=True)
class LocalizedTarget:
    """Spatial bump at one interior node times a smooth time bump."""

    node: int
    t0: float
    t1: float
    space_width: float

    def profile(self, grid):
        """The spatial bump on the omega nodes."""
        x = grid.x
        return np.exp(-((x[grid.omega] - x[self.node]) / self.space_width) ** 2)

    def materialize(self, grid, dt, n_steps):
        t = dt * np.arange(n_steps + 1)
        theta, _ = time_bump(t, self.t0, self.t1)
        return np.outer(theta, self.profile(grid))


def materialize_targets(targets, grid, dt, n_steps):
    """The targets' samples as one (n_targets, n_steps + 1, n_omega) stack.

    Equal to materializing each target, with each distinct time window's
    bump evaluated once.
    """
    t = dt * np.arange(n_steps + 1)
    thetas = {}
    out = np.empty((len(targets), n_steps + 1, grid.omega.size))
    for i, tgt in enumerate(targets):
        window = (tgt.t0, tgt.t1)
        if window not in thetas:
            thetas[window] = time_bump(t, *window)[0]
        np.multiply(thetas[window][:, None], tgt.profile(grid)[None, :], out=out[i])
    return out


def interior_targets(grid, t_final, nodes=None, space_width=None):
    """Localized targets: interior nodes crossed with staggered time bumps.

    Three overlapping time windows give the pairing matrix enough temporal
    diversity to resolve the potential; a single window flattens the system
    onto too small a subspace.
    """
    if nodes is None:
        nodes = grid.omega
    if space_width is None:
        space_width = 2.0 * grid.h
    return [LocalizedTarget(int(n), a * t_final, b * t_final, float(space_width))
            for n in nodes for (a, b) in ((0.10, 0.50), (0.30, 0.70), (0.50, 0.90))]


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


def _check_record(rec, background):
    op = background.op
    if abs(rec.s - op.s) > 1e-12:
        raise InversionError(f"record order {rec.s} does not match operator {op.s}")
    basis = background.basis
    if any((b.dt, b.n_steps) != (basis.dt, basis.n_steps) for b in (rec.controls, rec.probes)):
        raise InversionError("record time grid does not match the background's")
    if rec.controls.window != "w1" or rec.probes.window != "w2":
        raise InversionError("expected controls on w1 and probes on w2")
    if (basis.window, basis.n_segments) != (rec.controls.window, rec.controls.n_segments):
        raise InversionError("record controls are not the background's basis")
    shape = (len(rec.controls), len(rec.probes))
    if rec.pairings.shape != shape:
        raise InversionError(f"record pairings are {rec.pairings.shape}, its bases {shape}")


def _time_hats(n_coarse, dt, n_steps):
    """Piecewise-linear partition of unity on a coarse uniform time grid."""
    t = dt * np.arange(n_steps + 1)
    knots = np.linspace(0.0, dt * n_steps, n_coarse)
    width = knots[1] - knots[0]
    rows = [np.clip(1.0 - np.abs(t - tk) / width, 0.0, None) for tk in knots]
    return np.asarray(rows)


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
    cho = cho_factor(gram + alpha * scale * pen + ridge * np.eye(n), what)
    return cho_solve(cho, kern.T @ rhs)


def _probing_kernel(fld1, fld2, weights):
    """Sum over t of fld1[i, t, j] fld2[k, t, j] weights[m, t].

    Rows are the pairs (i, k), columns (node j, time profile m); each time
    profile is one matmul batched over the nodes.
    """
    right = np.ascontiguousarray(fld2.transpose(2, 1, 0))       # (j, t, k)
    left = np.ascontiguousarray(fld1.transpose(2, 0, 1))        # (j, i, t)
    kern = np.empty((len(fld1), len(fld2), fld1.shape[2], len(weights)))
    for m, w in enumerate(weights):
        kern[..., m] = ((left * w) @ right).transpose(1, 2, 0)
    return kern.reshape(len(fld1) * len(fld2), -1)


def recover_linear_potential(dn_difference, background, targets, alpha_inv,
                             synth_alpha=1e-10, q_time_basis=None):
    """Potential increment from a difference record over a background.

    background is the :class:`BackgroundStates` of the record's w1 controls
    under a static potential q_bg, and dn_difference the measurement
    differences of the data from it, as ``dnmap.dn_difference_linear``
    measures them; the background's operator and time grid are the
    recovery's.  targets is a list of LocalizedTarget; both windows
    synthesize controls towards each of them, and the differences m_ij are
    matched to interior integrals of the potential against products of the
    achieved background states (the first-order expansion of the
    measurement map at q_bg, so the returned values estimate q_data - q_bg).
    Smoothness-regularized least squares with weight alpha_inv picks the
    estimate.
    With q_time_basis=None the unknown is static; an integer requests that
    many piecewise-linear time profiles on the forward time axis.
    """
    if np.ndim(background.q) > 1:
        raise InversionError("background potential must be static (scalar or one row)")
    _check_record(dn_difference, background)
    op, dt, n_steps = background.op, background.basis.dt, background.basis.n_steps
    grid = op.grid
    om = grid.omega

    basis2 = dn_difference.probes
    bg2 = BackgroundStates(op, background.q, basis2)

    # achieved states: (n_targets, nt+1, n_omega)
    stack = materialize_targets(targets, grid, dt, n_steps)
    coeff1, achieved1, errs1 = background.synthesize(stack, synth_alpha)
    coeff2, achieved2, errs2 = bg2.synthesize(stack, synth_alpha)
    del stack

    perm = basis2.reversal_permutation()
    m = coeff1 @ dn_difference.pairings[:, perm] @ coeff2.T  # (n_targets, n_targets)

    wt = dt * trapezoid_weights(n_steps)
    if q_time_basis is None:
        gamma = np.ones((1, n_steps + 1))
    else:
        gamma = _time_hats(int(q_time_basis), dt, n_steps)
    n_gamma = gamma.shape[0]

    kern = grid.h * _probing_kernel(achieved1, achieved2[:, ::-1, :], gamma * wt[None, :])
    n_pairs = len(targets) ** 2
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
        "runge_errors_w1": [float(e) for e in errs1],
        "runge_errors_w2": [float(e) for e in errs2],
        "fit_residual": residual,
        "rhs_norm": float(np.linalg.norm(rhs)),
        "n_pairs": n_pairs,
    }
    return Reconstruction(values=values, nodes=om.copy(),
                          node_coords=grid.x[om].copy(), covered=covered,
                          diagnostics=diagnostics)


def estimate_homogeneity_exponent(eps_list, remainders, p_lin):
    """Homogeneity degree of the nonlinearity from the scaling of pairings.

    remainders maps each amplitude eps of eps_list to what the nonlinearity
    adds to the measurement of eps * psi, and p_lin is the linear
    measurement of psi, as ``dnmap.dn_remainders_nonlinear`` returns them.
    The exponent is read off a log-log fit over eps_list, a repeated
    amplitude counting once per entry: slope minus one.
    """
    eps_list = sorted(float(e) for e in eps_list)
    if len(eps_list) < 2:
        raise InversionError("need at least two amplitudes")
    sizes = np.asarray([np.linalg.norm(remainders[eps]) for eps in eps_list])
    floor = 1e-10 * max(np.linalg.norm(p_lin) * max(eps_list), 1e-300)
    if np.any(sizes < floor):
        raise InconclusiveError(
            f"pairing differences {sizes} at or below noise floor {floor:.3e}")
    slope = np.polyfit(np.log(eps_list), np.log(sizes), 1)[0]
    return float(slope - 1.0), {"eps": eps_list, "differences": sizes.tolist(),
                                "slope": float(slope)}


def recover_nonlinear_coefficient(op, lin, remainders, probe_basis, r_known, targets, eps0,
                                  alpha_inv, synth_alpha=1e-10):
    """Nodal coefficient of a homogeneous nonlinearity from small-amplitude data.

    lin and remainders are the linear response to a probe psi and, at eps0
    and eps0/2, what the nonlinearity adds to the measurement of eps * psi
    against the reversed elements of probe_basis, as
    ``dnmap.dn_remainders_nonlinear`` returns them.  The leading remainder at
    amplitude eps scales like eps**(r+1) and pairs q(x) |v0|^r v0 against
    reversed achieved probe states, where v0 = lin on omega.  A two-amplitude
    Richardson step (eps0 and eps0/2, error order r) removes the next
    correction before the moment system is solved for q on the covered nodes.
    """
    grid, om = op.grid, op.grid.omega
    bg2 = BackgroundStates(op, None, probe_basis)
    coeff2, achieved2, errs2 = bg2.synthesize(
        materialize_targets(targets, grid, probe_basis.dt, probe_basis.n_steps), synth_alpha)

    r = float(r_known)
    eps_pair = (eps0, 0.5 * eps0)
    w1, w2m = [coeff2 @ remainders[eps] / eps ** (r + 1) for eps in eps_pair]
    y = (2.0 ** r * w2m - w1) / (2.0 ** r - 1.0)

    v0 = lin.u[:, om]
    gsrc = np.abs(v0) ** r * v0
    zeta = grid.h * np.einsum("tj,t,ktj->kj", gsrc, bg2.time_weights, achieved2[:, ::-1, :])

    colnorm = np.linalg.norm(zeta, axis=0)
    covered = colnorm >= 1e-8 * colnorm.max()
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
