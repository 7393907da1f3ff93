"""Recovery of the potential and the nonlinearity from boundary measurements.

The workhorse is approximate controllability: for a target interior state we
synthesize an exterior control, supported on one window, whose solution tracks
the target in the interior energy norm.  Measured pairing differences between
two operators then turn into interior integrals against products of achieved
states, and a small regularized least-squares problem returns the coefficient.
"""

import contextlib
from dataclasses import dataclass, field
import json
import threading

import numpy as np

from . import solver
from .controls import time_bump
from .solver import solve_linear_basis, solve_modal_basis, trapezoid_weights

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
    """Upper Cholesky factor u of the normal equations mat = u^T u.

    A non-finite or indefinite matrix raises :class:`IllConditionedError`,
    naming the system by what.
    """
    if not np.isfinite(mat).all():
        raise IllConditionedError(f"{what} normal equations not finite", np.nan)
    try:
        return np.linalg.cholesky(mat, upper=True)
    except np.linalg.LinAlgError as exc:
        raise IllConditionedError(f"{what} normal equations failed",
                                  np.linalg.cond(mat)) from exc


# Rows of each diagonal block of cho_solve's triangular substitutions.  With
# 99 right-hand sides and BLAS at one thread, 220, 660 and 990 unknowns took
# 1.3, 6.7 and 12.7 ms at 64 rows, 1.7, 8.1 and 14.6 ms at 128, and 2.7, 28
# and 68 ms as two dense solves
CHO_BLOCK = 64


def cho_solve(u, b):
    """Solve u^T u x = b for the upper factor u of :func:`cho_factor`.

    Two blocked triangular substitutions, CHO_BLOCK rows at a time: each
    diagonal block is a dense solve of a triangular matrix, and one product
    updates the rows left.  A dense solve of an upper triangular matrix
    factors it as itself, with no row swapped, so the forward substitution
    solves on u^T's blocks with their rows and columns reversed, the back
    one on u's.
    """
    x = np.array(b, dtype=float)
    starts = range(0, u.shape[0], CHO_BLOCK)
    for s in starts:                    # u^T y = b, from the top
        d = slice(s, s + CHO_BLOCK)
        x[d] = np.linalg.solve(u[d, d][::-1, ::-1].T, x[d][::-1])[::-1]
        x[d.stop:] -= u[d, d.stop:].T @ x[d]
    for s in reversed(starts):          # u x = y, from the bottom
        d = slice(s, s + CHO_BLOCK)
        x[d] = np.linalg.solve(u[d, d], x[d])
        x[:s] -= u[:s, d] @ x[d]
    return x


# Largest float whose square is a float: a vector whose largest magnitude is
# below SQUARE_LIMIT / sqrt(its size) has a norm whose sum of squares is finite
SQUARE_LIMIT = np.sqrt(np.finfo(float).max)


def l2_norm(x, weights=None):
    """sqrt(sum(weights * x**2)) over every entry of x, weights broadcast
    against x and at most 1 (numpy's norm of x when weights is None).

    Where the squares could overflow, x is first divided by its largest
    magnitude and the norm multiplied by it, so that a finite x has a finite
    norm up to the largest float; elsewhere the norm is formed as written.
    """
    x = np.asarray(x, dtype=float)
    peak = np.max(np.abs(x), initial=0.0)
    if peak < SQUARE_LIMIT / np.sqrt(max(x.size, 1)) or not np.isfinite(peak):
        return np.linalg.norm(x) if weights is None else np.sqrt(np.sum(weights * x ** 2))
    with np.errstate(over="ignore"):    # a norm past the largest float is inf
        return peak * l2_norm(x / peak, weights)


class BackgroundStates:
    """Interior states reached by each element of a control basis.

    Holds what control synthesis in the L2-in-time energy norm needs of the
    states of the basis (background potential q, zero source) on the basis's
    time grid: the Gram sum_t w_t S_t K S_t^T, with K = h omega_block and w
    the trapezoid weights, and the states themselves, which also drive the
    difference equation of ``dnmap.dn_difference_linear`` (through
    :meth:`states_of`; it reads q from here).

    Both work in the operator's eigenbasis L_omega = V diag(lam) V^T, where K
    is diag(h lam), and in one form, whatever q: a coupling a[i, m] of each
    node i to each mode and each mode's response g[m, c, t] to each spline,
    so that element (node i, spline c) reaches sum_m a[i, m] g[m, c, t] V[:, m].
    At a static q that is zero everywhere each mode steps on its own
    (``solver.solve_modal_basis``): the nodes are the window's, a is
    ``solver.modal_coupling`` and the Gram is
    sum_m h lam_m (a_m a_m^T) kron (g_m W g_m^T), with W = diag(w).  A
    background of the same operator over a basis with the same dt, t_final
    and n_segments, whose splines are then the same, lends its g, like, so a
    second window steps no pass of its own.  Any other q steps the basis in
    one pass, ``solver.solve_linear_basis``, and is one node with unit
    coupling whose splines are the basis elements: g holds every element's
    mode coordinates, and the Gram is E E^T of the energy coordinates
    E_t = S_t V diag(sqrt(w_t h lam)).  static is the solver's reading of q.
    """

    def __init__(self, op, q, basis, like=None):
        self.op = op
        self.q = q
        self.basis = basis
        self.time_weights = basis.dt * trapezoid_weights(basis.n_steps)
        qs, self.static = solver._expand_potential(q, basis.n_steps, op.grid.omega.size)
        self.modal = self.static and not qs[0].any()
        if self.modal:
            self._coupling = solver.modal_coupling(op, basis)
            if like is not None and like.modal and like.op is op and all(
                    getattr(like.basis, k) == getattr(basis, k)
                    for k in ("dt", "t_final", "n_segments")):
                self._by_mode = like._by_mode
            else:
                self._by_mode = np.ascontiguousarray(solve_modal_basis(op, basis).T)
            self.gram = self._modal_gram()
        else:
            coords = solve_linear_basis(op, q, basis, lambda u, v: u @ op.modes)  # (e, t, m)
            self._by_mode = np.ascontiguousarray(coords.transpose(2, 0, 1))
            # one symmetric product (numpy's SYRK, exactly symmetric) of the energy
            # coordinates, weighted in place; the pass's array goes before the control Gram
            coords *= np.sqrt(self.time_weights[:, None] * self._weights)
            flat = coords.reshape(len(basis), -1)
            self.gram = flat @ flat.T
            del coords, flat
            self._coupling = np.ones((1, op.eigenvalues.size))
        self.control_gram = self._control_gram()

    @property
    def _weights(self):
        """h lam: K = h omega_block in the eigenbasis of L_omega."""
        return self.op.grid.h * self.op.eigenvalues

    def _modal_gram(self):
        """sum_m h lam_m (a_m a_m^T) kron (g_m W g_m^T), made exactly symmetric."""
        g, a = self._by_mode, self._coupling.T
        n_modes, n_spl = g.shape[:2]
        n_nodes = a.shape[1]
        spline_gram = (g * self.time_weights) @ g.transpose(0, 2, 1)      # (m, c, c')
        node_gram = (self._weights[:, None, None] * a[:, :, None]) * a[:, None, :]
        gram = node_gram.reshape(n_modes, -1).T @ spline_gram.reshape(n_modes, -1)
        gram = gram.reshape(n_nodes, n_nodes, n_spl, n_spl).transpose(0, 2, 1, 3)
        gram = gram.reshape(len(self.basis), len(self.basis))
        return 0.5 * (gram + gram.T)

    def _control_gram(self):
        tm = self.basis.values
        gt = (tm * self.time_weights[None, :]) @ tm.T
        g = np.kron(np.eye(len(self.basis.nodes)), self.op.grid.h * gt)
        return 0.5 * (g + g.T)

    def states_of(self, elements):
        """Displacements on omega of the basis elements at the indices
        elements: a fresh time-major (nt+1, len(elements), n_omega) block."""
        g = self._by_mode
        node, spline = np.divmod(np.asarray(elements), g.shape[1])
        modal = np.multiply(g[:, spline].T, self._coupling[node], order="C")  # (t, e, m)
        return modal @ self.op.modes.T

    def synthesize(self, thetas, profiles, alpha):
        """Coefficients minimizing tracking error plus alpha * control cost.

        The targets are separable: target (j, w) is profiles[j] on omega
        times thetas[w] on the basis's time nodes, ordered node-major and
        window-minor, and all len(profiles) * len(thetas) of them are solved
        as one system.  Returns the coefficients, the achieved states as an
        (n, nt+1, n_omega) view and the tracking errors, one per target.
        alpha is dimensionless: the control-cost Gram is rescaled so its
        trace matches the state Gram before weighting, making alpha the
        relative spectral cutoff of the synthesis.  The solve runs in the
        eigenbasis of L_omega, where K is diagonal and target (j, w) is
        thetas[w] times p[j] = profiles[j] V: no target is sampled.
        """
        thetas = np.asarray(thetas, dtype=float)
        profiles = np.asarray(profiles, dtype=float)
        n_times, (n_omega, n_modes) = self.basis.n_steps + 1, self.op.modes.shape
        if thetas.shape[1:] != (n_times,) or profiles.shape[1:] != (n_omega,):
            raise InversionError(f"target factors {thetas.shape} and {profiles.shape} do not "
                                 f"match (windows, {n_times}) and (nodes, {n_omega})")
        n = len(profiles) * len(thetas)
        scale = np.trace(self.gram) / np.trace(self.control_gram)
        factor = cho_factor(self.gram + alpha * scale * self.control_gram, "control")
        p = profiles @ self.op.modes                                       # (j, m)
        kp = p * (weights := self._weights)
        paced = thetas * self.time_weights                                 # (w, t)
        # element (node i, spline c): sum_m a[i, m] h lam_m p[j, m] (g_m W theta_w)[c]
        g = self._by_mode                                                  # (m, c, t)
        n_spl = g.shape[1]
        paired = g @ paced.T                                               # (m, c, w)
        # the right-hand side, a chunk of target nodes at a time, and the
        # reached states, a chunk of modes at a time, so that no product
        # over (mode, element, target) is held whole
        rhs = np.empty((len(self._coupling), n_spl, len(p), len(thetas)))  # (i, c, j, w)
        for j in _chunks(len(p), n_modes * n_spl * len(thetas)):
            per_target = kp.T[:, None, j, None] * paired[:, :, None, :]    # (m, c, j, w)
            rhs[:, :, j] = (self._coupling @ per_target.reshape(n_modes, -1)).reshape(
                rhs[:, :, j].shape)
        coeffs = cho_solve(factor, rhs.reshape(len(self.basis), n)).T
        reached = np.empty((n_modes, n, n_times))
        for m in _chunks(n_modes, n * n_spl):
            per_mode = self._coupling[:, m].T @ coeffs.reshape(n, -1, n_spl)  # (n, m, c)
            np.matmul(per_mode.transpose(1, 0, 2), g[m], out=reached[m])      # (m, n, t)
        achieved = self.op.modes @ reached.reshape(n_modes, -1)
        achieved = achieved.reshape(n_omega, n, n_times).transpose(1, 2, 0)
        # each mode's misses of the targets, in place over its reached states
        err2 = np.zeros(n)
        for m, miss in enumerate(reached):
            miss -= np.multiply.outer(p[:, m], thetas).reshape(n, n_times)
            miss *= miss
            err2 += weights[m] * (miss @ self.time_weights)
        return coeffs, achieved, np.sqrt(err2)


# Entries of the largest product that synthesis forms a chunk at a time: a
# modal background fits whole (36k entries at 101 nodes), while a nodal
# background's (mode, element, target) products, 5.7 MB each at 101 nodes,
# are formed in chunks of about 1 MB
SYNTH_CHUNK = 1 << 17


def _chunks(n, size):
    """Slices covering range(n), each of at most SYNTH_CHUNK // size items (at least one)."""
    step = max(1, SYNTH_CHUNK // size)
    return [slice(k, k + step) for k in range(0, n, step)]


# Three overlapping time windows, as fractions of t_final, give the pairing
# matrix enough temporal diversity to resolve the potential; a single window
# flattens the system onto too small a subspace.
TARGET_WINDOWS = ((0.10, 0.50), (0.30, 0.70), (0.50, 0.90))


def interior_targets(basis, nodes=None, space_width=None):
    """Factors of the localized interior targets on the time grid of basis.

    Each target is a gaussian of width space_width (default 2h) centred at
    one omega node of nodes (default every omega node), times the smooth
    time bump on one window of ``TARGET_WINDOWS``.  Returns the factors
    (thetas, profiles): the bumps sampled on the time nodes,
    (len(TARGET_WINDOWS), n_steps + 1), and the gaussians on omega,
    (len(nodes), n_omega), as :meth:`BackgroundStates.synthesize` takes
    them; the targets are their products, node-major and window-minor.
    """
    grid, n_steps, t_final = basis.grid, basis.n_steps, basis.t_final
    x, om = grid.x, grid.omega
    if nodes is None:
        nodes = om
    if space_width is None:
        space_width = 2.0 * grid.h
    t = basis.dt * np.arange(n_steps + 1)
    thetas = np.asarray([time_bump(t, a * t_final, b * t_final)[0]
                         for a, b in TARGET_WINDOWS])
    with np.errstate(over="ignore"):    # a width far below h: exp(-inf) = 0 off the node
        profiles = np.exp(-((x[om][None, :] - x[nodes][:, None]) / space_width) ** 2)
    return thetas, profiles


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
        """Rows x,q_true,q_est of a static estimate (q_true empty when unknown)."""
        vals = np.asarray(self.values)
        with open(path, "w") as fh:
            fh.write("x,q_true,q_est\n")
            for i, xi in enumerate(np.asarray(self.node_coords)):
                true_s = "" if q_true is None else repr(float(q_true[i]))
                fh.write(f"{float(xi)!r},{true_s},{float(vals[i])!r}\n")


def _time_hats(n_coarse, dt, n_steps):
    """Piecewise-linear partition of unity on a coarse uniform time grid."""
    t = dt * np.arange(n_steps + 1)
    knots = np.linspace(0.0, dt * n_steps, n_coarse)
    width = knots[1] - knots[0]
    rows = [np.clip(1.0 - np.abs(t - tk) / width, 0.0, None) for tk in knots]
    return np.asarray(rows)


def _second_difference(n):
    return np.diff(np.eye(n), 2, axis=0)


def _regularized_factor(kern, pen, alpha):
    """Cholesky factor of the inversion's normal equations, those of
    kern x ~ rhs penalized by alpha * pen, for :func:`cho_solve` with kern^T rhs.

    alpha is dimensionless: pen is rescaled so its trace matches the Gram
    matrix, and a 1e-12 relative ridge keeps the factorization defined.
    """
    gram = kern.T @ kern
    n = gram.shape[0]
    scale = np.trace(gram) / max(np.trace(pen), 1e-300)
    ridge = 1e-12 * np.trace(gram) / max(n, 1)
    return cho_factor(gram + alpha * scale * pen + ridge * np.eye(n), "inversion")


# Omega nodes whose products the probing kernel forms at a time: at 101
# nodes its two buffers hold 1.3 and 0.6 MB, where products over all 33
# nodes held 5.2 and 2.6 MB
KERNEL_CHUNK = 8


def _kernel_arrays(n1, n2, n_times, n_nodes, n_profiles):
    """The probing kernel's array, (n1, n2, n_nodes, n_profiles), and the two
    buffers that :func:`_probing_kernel` forms it through, unfilled.  The
    weighted right operand, (chunk, n_times, n2), is laid out time-minor,
    as numpy lays out the weights times the time-reversed (j, t, k) view of
    achieved states: BLAS sums a time-major one differently at 31 nodes
    (5e-16 relative), though not at 101."""
    chunk = min(KERNEL_CHUNK, n_nodes)
    return (np.empty((n1, n2, n_nodes, n_profiles)),
            np.empty((chunk, n2, n_times)).transpose(0, 2, 1), np.empty((chunk, n1, n2)))


def _probing_kernel(fld1, fld2, weights, scale, kern, weighted, product, failed):
    """Fill kern[i, k, j, m] with scale times the sum over t of
    fld1[i, t, j] fld2[k, t, j] weights[m, t].

    Each time profile is one matmul batched over a chunk of nodes, as many
    as the buffers of :func:`_kernel_arrays` hold: fld1's (j, i, t) view
    times fld2's (j, t, k) view weighted into the buffer weighted, into the
    buffer product, scaled there and copied into kern.  Achieved states as
    :meth:`BackgroundStates.synthesize` returns them are laid out (j, i, t),
    so the left operand is contiguous.  It may run on
    :class:`LinearRecovery`'s worker thread, so it allocates no array but
    views, calls numpy alone, and appends what it raises to failed, for the
    thread that reads kern to raise.
    """
    try:
        left, right = fld1.transpose(2, 0, 1), fld2.transpose(2, 1, 0)
        step = len(product)
        for s in range(0, len(left), step):
            j, n = slice(s, s + step), min(step, len(left) - s)
            for m, w in enumerate(weights):
                np.multiply(right[j], w[:, None], out=weighted[:n])
                np.matmul(left[j], weighted[:n], out=product[:n])
                product[:n] *= scale
                kern[:, :, j, m] = product[:n].transpose(1, 2, 0)
    except BaseException as exc:
        failed.append(exc)


class Recovery:
    """A recovery of a coefficient from its moments, built once.

    The moments integrate the unknown against products of two sides' states
    on omega: the given source rows, (rows, nt+1, n_omega) on the time grid
    of probes, the :class:`BackgroundStates` of the w2 basis, and the states
    achieved by the w2 probe controls, synthesized at synth_alpha towards
    each target that :func:`interior_targets` samples at target_nodes and
    target_width (coeff2, one row per target), reversed in time; the
    moments are (rows, n_targets).  The probing kernel of the two sides is
    formed on its first read, checked and factored with the Cholesky factor
    of its normal equations, regularized for smoothness with weight
    alpha_inv; the w2 states go once it is formed.  With q_time_basis=None
    the unknown is static; an integer requests that many piecewise-linear
    time profiles, at least 2, on the forward time axis.
    """

    _errs1 = ()     # a given source side misses no target

    def __init__(self, source, probes, alpha_inv, synth_alpha, q_time_basis=None,
                 target_nodes=None, target_width=None):
        basis = self.probe_basis = probes.basis
        self.grid = probes.op.grid
        states = (basis.n_steps + 1, self.grid.omega.size)
        if np.shape(source)[1:] != states:
            raise InversionError(f"source is {np.shape(source)}, not (rows, *{states})")
        targets = interior_targets(basis, target_nodes, target_width)
        self.coeff2, achieved2, self._errs2 = probes.synthesize(*targets, synth_alpha)
        # the time profiles of a time-dependent unknown, None for a static one
        self._hats = (None if q_time_basis is None
                      else _time_hats(int(q_time_basis), basis.dt, basis.n_steps))
        gamma = np.ones((1, basis.n_steps + 1)) if self._hats is None else self._hats
        self._alpha_inv = alpha_inv
        self._shape = (len(source), len(self.coeff2))
        self._kernel_job = (source, achieved2[:, ::-1, :], gamma * probes.time_weights[None, :],
                            self.grid.h, *_kernel_arrays(*self._shape, *states, len(gamma)), [])
        self._worker = self._factor = None

    def _normal_equations(self):
        """The probing kernel and the Cholesky factor of its normal equations,
        formed, checked and factored on the first call; the w2 states go once
        the kernel is formed."""
        if self._factor is None:
            if self._kernel_job is not None:
                if self._worker is None:
                    _probing_kernel(*self._kernel_job)
                else:
                    self._worker.join()
                    self._worker = None
                failed = self._kernel_job[-1]
                if failed:
                    raise failed.pop()
                self.kernel = self._kernel_job[4].reshape(self._shape[0] * self._shape[1], -1)
                self._kernel_job = None
            om = self.grid.omega
            col = np.sqrt(np.einsum("pj,pj->j", self.kernel, self.kernel)).reshape(len(om), -1)
            colnorm = np.sqrt(np.sum(col ** 2, axis=1))
            if colnorm.max() == 0.0:
                raise InversionError("probing system is identically zero")
            unresolved = np.flatnonzero(colnorm == 0.0)
            if unresolved.size:
                raise InversionError("probing system leaves omega nodes unresolved: "
                                     f"{[int(om[j]) for j in unresolved]}")
            self.covered = colnorm >= 1e-8 * colnorm.max()

            n_gamma = col.shape[1]
            d2s = _second_difference(len(om))
            pen = np.kron(d2s.T @ d2s, np.eye(n_gamma))
            if n_gamma >= 3:
                d2t = _second_difference(n_gamma)
                pen = pen + np.kron(np.eye(len(om)), d2t.T @ d2t)
            self._factor = _regularized_factor(self.kernel, pen, self._alpha_inv)
        return self.kernel, self._factor

    def estimate(self, m):
        """The :class:`Reconstruction` of the unknown whose moments are m,
        (source rows, n_targets), which must be finite: its values on every
        omega node, and covered where the kernel reaches the node at 1e-8 of
        its best-reached node or more."""
        if np.shape(m) != self._shape:
            raise InversionError(f"moments are {np.shape(m)}, the targets {self._shape}")
        if not np.isfinite(m).all():
            raise InversionError("moment data are not finite")
        kernel, factor = self._normal_equations()
        grid, om = self.grid, self.grid.omega
        rhs = np.asarray(m, dtype=float).reshape(-1)
        qvec = cho_solve(factor, kernel.T @ rhs)
        qmat = qvec.reshape(len(om), -1)
        values = qmat[:, 0] if self._hats is None else qmat @ self._hats
        diagnostics = {
            "runge_errors_w1": [float(e) for e in self._errs1],
            "runge_errors_w2": [float(e) for e in self._errs2],
            "fit_residual": float(l2_norm(kernel @ qvec - rhs)),
            "rhs_norm": float(l2_norm(rhs)),
            "n_pairs": self._shape[0] * self._shape[1],
        }
        return Reconstruction(values=values, nodes=om.copy(), node_coords=grid.x[om].copy(),
                              covered=self.covered.copy(), diagnostics=diagnostics)


class LinearRecovery(Recovery):
    """The :class:`Recovery` of a potential increment, whose source side is
    the w1 controls synthesized towards the probes' targets over background,
    the :class:`BackgroundStates` of the w1 basis under a static q_bg, with
    probe_basis on its time grid: coeff1, and achieved1, their achieved
    states (n, nt+1, n_omega).  To first order at q_bg, the moments
    m = coeff1 dP coeff2^T of a pairing difference dP are those of the
    potential increment; each data pass that measures them runs in
    :meth:`data_pass`, which schedules the kernel beside it.
    """

    def __init__(self, background, probe_basis, alpha_inv, synth_alpha, q_time_basis=None,
                 target_nodes=None, target_width=None):
        basis1 = background.basis
        if not background.static:
            raise InversionError("background potential must be static")
        if q_time_basis is not None and int(q_time_basis) < 2:
            raise InversionError(f"q_time_basis must be at least 2, got {q_time_basis}")
        if (probe_basis.dt, probe_basis.n_steps) != (basis1.dt, basis1.n_steps):
            raise InversionError("probe basis time grid does not match the background's")
        if basis1.window != "w1" or probe_basis.window != "w2":
            raise InversionError("expected controls on w1 and probes on w2")
        self.background = background
        probes = BackgroundStates(background.op, background.q, probe_basis, like=background)
        targets = interior_targets(basis1, target_nodes, target_width)
        self.coeff1, self.achieved1, self._errs1 = background.synthesize(*targets, synth_alpha)
        super().__init__(self.achieved1, probes, alpha_inv, synth_alpha, q_time_basis,
                         target_nodes, target_width)

    @contextlib.contextmanager
    def data_pass(self, controls):
        """Schedule the probing kernel beside a data pass, and yield whether
        the pass steps the synthesized controls: controls, the answer of
        ``solver.steps_controls``, while the recovery still holds achieved1.

        If so, a worker thread runs :func:`_probing_kernel` while the block
        runs, into the arrays the constructor allocated, so that the thread
        allocates nothing large (glibc keeps the blocks a thread frees in
        its own arena, and the process's peak grows), and calls no other
        function of the package (the benchmark tracer, which wraps some,
        keeps one span stack for the process).  :meth:`estimate` joins it,
        and so does leaving the block, by an exception too.  If not, the
        kernel and its factor are formed on this thread first and the w1
        states released, so that no achieved state is alive over the pass;
        every later pass then steps the elements.
        """
        controls = bool(controls) and self.achieved1 is not None
        if not controls:
            self._normal_equations()
            self.achieved1 = None
        elif self._kernel_job is not None and self._worker is None:
            self._worker = threading.Thread(target=_probing_kernel, args=self._kernel_job,
                                            name="probing-kernel")
            self._worker.start()
        try:
            yield controls
        finally:
            if self._worker is not None:
                self._worker.join()

    def states_of(self, rows):
        """Achieved w1 background states of the controls at the indices rows:
        a fresh time-major (nt+1, len(rows), n_omega) block, as
        :meth:`BackgroundStates.states_of` gives those of elements, for the
        difference pass of ``dnmap.dn_moments_linear``, which overwrites it."""
        return np.ascontiguousarray(self.achieved1[rows].transpose(1, 0, 2))

    def moments(self, pairings):
        """m = coeff1 pairings coeff2^T of a (controls, probes) pairing matrix."""
        with np.errstate(over="ignore", invalid="ignore"):   # estimate reports it
            return self.coeff1 @ pairings @ self.coeff2.T


def recover_linear_potential(pairings, background, probe_basis, alpha_inv, synth_alpha,
                             q_time_basis=None, target_nodes=None, target_width=None):
    """Potential increment from measured pairing differences over a background.

    pairings[i, j] is the difference of the data from the background in the
    pairing of control i of background's basis with probe j of probe_basis
    reversed in time, as ``dnmap.dn_difference_linear`` measures them; they
    must be finite.  Returns the estimate of the :class:`LinearRecovery`
    built with the other arguments from the moments of the pairings, which
    estimates q_data - q_bg.
    """
    shape = (len(background.basis), len(probe_basis))
    if np.shape(pairings) != shape:
        raise InversionError(f"pairings are {np.shape(pairings)}, the bases {shape}")
    if not np.isfinite(pairings).all():
        raise InversionError("pairings are not finite")
    recovery = LinearRecovery(background, probe_basis, alpha_inv, synth_alpha, q_time_basis,
                              target_nodes, target_width)
    return recovery.estimate(recovery.moments(pairings))


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


def recover_nonlinear_coefficient(op, lin, remainders, probe_basis, r_known, eps0, alpha_inv,
                                  synth_alpha, target_nodes=None, target_width=None):
    """Nodal coefficient of a homogeneous nonlinearity from small-amplitude data.

    lin and remainders are the linear response to a probe psi and, at eps0
    and eps0/2, what the nonlinearity adds to the measurement of eps * psi
    against the reversed elements of probe_basis, as
    ``dnmap.dn_remainders_nonlinear`` returns them.  The leading remainder at
    amplitude eps scales like eps**(r+1) and pairs q(x) |v0|^r v0 against
    reversed achieved probe states, where v0 = lin on omega: it has the
    moments of the :class:`Recovery` from source |v0|^r v0 over the
    q = 0 background of probe_basis, which takes synth_alpha, target_nodes
    and target_width.  A two-amplitude Richardson step (eps0 and eps0/2,
    error order r) removes the next correction before that recovery
    estimates q on every omega node, covered as by any recovery.
    """
    eps_pair = (eps0, 0.5 * eps0)
    r = float(r_known)
    if not r > 0.0:     # the Richardson step divides by 2**r - 1
        raise InversionError(f"nonlinearity exponent must be positive, got r={r!r}")
    if probe_basis.window != "w2":
        raise InversionError(f"expected probes on w2, got {probe_basis.window}")
    if (lin.dt, lin.n_steps) != (probe_basis.dt, probe_basis.n_steps):
        raise InversionError("linear response time grid does not match the probe basis's")
    for eps in eps_pair:
        if eps not in remainders:
            raise InversionError(f"no remainder measured at eps={eps}")
        if np.shape(remainders[eps]) != (len(probe_basis),):
            raise InversionError(f"remainder at eps={eps} is {np.shape(remainders[eps])}, "
                                 f"the probe basis has {len(probe_basis)} elements")
    v0 = lin.u[:, op.grid.omega]
    recovery = Recovery((np.abs(v0) ** r * v0)[None], BackgroundStates(op, None, probe_basis),
                        alpha_inv, synth_alpha, None, target_nodes, target_width)
    w1, w2m = [recovery.coeff2 @ remainders[eps] / eps ** (r + 1) for eps in eps_pair]
    y = (2.0 ** r * w2m - w1) / (2.0 ** r - 1.0)
    recon = recovery.estimate(y[None])
    d = recon.diagnostics
    recon.r, recon.coeff = r, recon.values.copy()
    recon.diagnostics = {"r": r, "eps": [float(eps0), float(0.5 * eps0)],
                         "runge_errors_w2": d["runge_errors_w2"],
                         "moment_residual": d["fit_residual"], "moment_norm": d["rhs_norm"],
                         "n_covered": int(np.sum(recon.covered))}
    return recon
