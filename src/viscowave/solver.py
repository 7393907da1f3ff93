"""Crank-Nicolson time stepping for the damped nonlocal wave equation.

The second-order equation

    u_tt + L u_t + L u + q u = h      on the interior nodes,
    u = control                        on the exterior nodes,
    u(0) = u0,  u_t(0) = v0,

with L the assembled fractional Laplacian, is integrated as a first-order
system (u, v = u_t) with the trapezoidal rule.  Exterior nodes are pinned
strongly to the control samples and their time derivatives, for all steps
before the loop; interior updates solve a dense symmetric system per step on
the contiguous omega slice, each step one LAPACK ``getrs`` on an LU factor.
One step loop serves a single control and a block of controls alike: a
measurement matrix steps the controls of a basis a block at a time, with the
bits of one solve per control, and factors its potential once for all of
them.  Nonlinear runs replace q u by f(x, u) and solve each step with a
Newton iteration on the same Jacobian structure.  A non-finite interior
update is reported, by the first step that produced one, after the last step.
"""

import csv
import itertools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import lu_factor
from scipy.linalg.lapack import dgetrf, dgetrs

from . import nonlinearity as nl
from .operator import norm_l2, seminorm_hs


class SolverError(RuntimeError):
    pass


class StepFailureError(SolverError):
    def __init__(self, step, message):
        super().__init__(f"time step {step}: {message}")
        self.step = step


class NewtonDivergenceError(SolverError):
    def __init__(self, step, residual, iterations):
        super().__init__(f"Newton failed to converge at step {step}: "
                         f"residual {residual:.3e} after {iterations} iterations")
        self.step = step
        self.residual = residual
        self.iterations = iterations


@dataclass(frozen=True)
class Trajectory:
    """Full-grid displacement and velocity histories on the time-node grid."""

    u: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)
    dt: float
    newton_iters: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def n_steps(self):
        return self.u.shape[0] - 1

    @property
    def t_final(self):
        return self.n_steps * self.dt

    @property
    def t(self):
        return self.dt * np.arange(self.u.shape[0])


def n_steps_for(dt, t_final):
    nt = int(round(t_final / dt))
    if nt < 2 or abs(nt * dt - t_final) > 1e-9 * max(1.0, t_final):
        raise SolverError(f"dt={dt} does not divide t_final={t_final}")
    return nt


def _expand_potential(q, nt, n_omega):
    """Normalize q to (nt+1, n_omega) samples plus a static flag.

    A static q is one row broadcast over the time nodes.
    """
    shape = (nt + 1, n_omega)
    q = np.asarray(0.0 if q is None else q, dtype=float)
    if q.ndim == 1 and q.shape[0] != n_omega:
        raise SolverError(f"static potential has {q.shape[0]} entries, omega has {n_omega}")
    if q.ndim >= 2:
        if q.shape != shape:
            raise SolverError(f"potential shape {q.shape} != {shape}")
        if not np.all(q == q[0]):
            return q, False
        q = q[0]
    return np.broadcast_to(q, shape), True


def _expand_field(g, nt, grid, name):
    """Normalize an interior field (source / initial data) to omega columns."""
    if g is None:
        return None
    g = np.asarray(g, dtype=float)
    nom = grid.omega.size
    if g.ndim == 1:
        if g.shape[0] == grid.n_nodes:
            ext = np.delete(g, grid.omega)
            if ext.size and np.max(np.abs(ext)) != 0.0:
                raise SolverError(f"{name} has support outside omega")
            return g[grid.omega]
        if g.shape[0] == nom:
            return g
        raise SolverError(f"{name} length {g.shape[0]} matches neither grid nor omega")
    if g.shape == (nt + 1, grid.n_nodes):
        return g[:, grid.omega]
    if g.shape == (nt + 1, nom):
        return g
    raise SolverError(f"{name} shape {g.shape} not understood")


def _check_control(control, grid, dt, nt):
    if control is None:
        z = np.zeros((nt + 1, grid.n_nodes))
        return z, z
    if control.values.shape != (nt + 1, grid.n_nodes):
        raise SolverError(f"control sampled on {control.values.shape[0] - 1} steps, "
                          f"solver wants {nt}")
    if abs(control.dt - dt) > 1e-12 * max(1.0, dt):
        raise SolverError(f"control dt={control.dt} != solver dt={dt}")
    return control.values, control.dvalues


def _crank_nicolson(op, control, dt, nt, source, u0, v0, explicit, implicit):
    """The shared trapezoidal step loop; returns read-only (u, v) histories.

    control is one exterior control (or None), or a list of them.  One
    control gives (nt+1, n) histories, and the closures below see 1-D
    interior states.  A list of m controls gives time-major (nt+1, m, n)
    histories, and the closures see (m, n_omega) states, one row per control.

    Each step forms the explicit half of the update from the current state:
    the flux of L over both grids, the source, and ``explicit(k, u_k, u_base)``
    for the interior term, where u_base = u_k + dt/2 v_k on omega.
    ``implicit(k, rhs, v_k, u_base)`` then returns the new interior velocity.

    The loop body touches only the contiguous omega slice: the exterior rows
    are pinned, and the exterior part of the flux argument is formed, for all
    steps before the loop.  The flux is still the full-vector product with L,
    one product per control: cutting it to L's omega columns, or one matrix
    product over all controls, would change its summation order.  Every
    other part of a step is elementwise, so a row's bits do not depend on the
    rows beside it.  Non-finite updates are looked for once, after the last
    step, and reported for the first control that has one, at its first step.
    """
    grid = op.grid
    om = grid.omega
    lo, hi = int(om[0]), int(om[-1]) + 1
    if not np.array_equal(om, np.arange(lo, hi)):
        raise SolverError("omega must be a contiguous range of nodes")
    ext = grid.exterior
    h_src = _expand_field(source, nt, grid, "source")
    controls = control if isinstance(control, list) else [control]
    rows = slice(None) if isinstance(control, list) else 0

    n, m = grid.n_nodes, len(controls)
    u = np.zeros((nt + 1, m, n))
    v = np.zeros((nt + 1, m, n))
    # flux argument u_k + v_k + u_base + v_base of step k; its exterior part
    # is summed in that order, and v_base vanishes on omega
    flux_arg = np.zeros((nt, m, n))
    for i, c in enumerate(controls):
        phi, dphi = _check_control(c, grid, dt, nt)
        u[:, i, ext] = phi[:, ext]
        v[:, i, ext] = dphi[:, ext]
        flux_arg[:, i, ext] = ((phi[:-1, ext] + dphi[:-1, ext]) + phi[1:, ext]) + dphi[1:, ext]
    u0om = _expand_field(u0, nt, grid, "u0")
    v0om = _expand_field(v0, nt, grid, "v0")
    if u0om is not None:
        u[0, :, lo:hi] = u0om
    if v0om is not None:
        v[0, :, lo:hi] = v0om

    L = op.matrix
    hdt = 0.5 * dt
    flux = np.empty((m, n))
    for k in range(nt):
        u_k = u[k, rows, lo:hi]
        v_k = v[k, rows, lo:hi]
        x = flux_arg[k]
        u_base = u_k + hdt * v_k
        x[:, lo:hi] = (u_k + v_k) + u_base
        for i in range(m):  # the gemv of x[i] @ L, into a row kept for it
            np.dot(x[i], L, out=flux[i])
        rhs = v_k - hdt * flux[rows, lo:hi] - hdt * explicit(k, u_k, u_base)
        if h_src is not None:
            rhs = rhs + hdt * (h_src[k] + h_src[k + 1])
        w = implicit(k, rhs, v_k, u_base)
        v[k + 1, rows, lo:hi] = w
        u[k + 1, rows, lo:hi] = u_base + hdt * w

    bad = ~np.all(np.isfinite(v[1:, :, lo:hi]), axis=2)
    failed = bad.any(axis=0)
    if failed.any():
        first = int(np.argmax(failed))
        raise StepFailureError(int(np.argmax(bad[:, first])) + 1, "non-finite interior update")
    for arr in (u, v):
        arr.setflags(write=False)
    return u[:, rows], v[:, rows]


def _step_matrix(op, dt):
    """Interior step matrix I + (dt/2 + dt^2/4) L_omega, before the potential."""
    return np.eye(op.grid.omega.size) + (0.5 * dt + 0.25 * dt * dt) * op.omega_block


def _step_factors(base_mat, qs, dt):
    """LU factors of every step matrix of a time-dependent potential.

    Step k solves with base_mat + dt^2/4 diag(qs[k+1]).  Returns (lus, pivs):
    lus[k] is the Fortran-ordered ``getrf`` factor of step k, a view into one
    contiguous (nt, n, n) stack, and pivs[k] its pivots.  A singular step
    matrix raises :class:`StepFailureError` at its step.
    """
    nt, n = qs.shape[0] - 1, qs.shape[1]
    # stack[k] holds the transpose of step k's matrix, so that stack[k].T is
    # the matrix in Fortran order and getrf factors it in place
    stack = np.empty((nt, n, n))
    stack[:] = base_mat.T
    d = np.arange(n)
    stack[:, d, d] += 0.25 * dt * dt * qs[1:]
    lus = stack.transpose(0, 2, 1)
    pivs = np.empty((nt, n), dtype=np.int32)
    for k in range(nt):
        _, pivs[k], info = dgetrf(lus[k], overwrite_a=True)
        if info > 0:
            raise StepFailureError(k + 1, "linear solve failed: Singular matrix")
    return lus, pivs


def _linear_step(op, q, dt, nt):
    """The explicit and implicit closures of the linear step with potential q.

    Every step is one ``getrs`` per control, on factors made here once for
    all the controls the closures serve: one ``lu_factor`` for a static q,
    one factor per step for a time-dependent q (:func:`_step_factors`).
    """
    qs, q_static = _expand_potential(q, nt, op.grid.omega.size)
    base_mat = _step_matrix(op, dt)
    if q_static:
        try:
            lu, piv = lu_factor(base_mat + 0.25 * dt * dt * np.diag(qs[0]))
        except Exception as exc:  # lu_factor rejects a non-finite matrix
            raise StepFailureError(0, f"factorization failed: {exc}")
        lus, pivs = [lu] * nt, [piv] * nt
    else:
        lus, pivs = _step_factors(base_mat, qs, dt)

    def explicit(k, u_k, u_base):
        return qs[k] * u_k + qs[k + 1] * u_base

    def implicit(k, rhs, v_k, u_base):
        # the LAPACK solve behind lu_solve, without its per-call checks, in
        # place on each control's contiguous row: one solve with all rows as
        # right-hand sides would change the bits
        w = rhs.reshape(-1, rhs.shape[-1])
        for b in w:
            _, info = dgetrs(lus[k], pivs[k], b, overwrite_b=True)
            if info:
                raise StepFailureError(k + 1, f"getrs returned info={info}")
        return w.reshape(rhs.shape)

    return explicit, implicit


def solve_linear(op, q, control, dt, t_final, source=None, u0=None, v0=None):
    """Integrate the linear equation with potential q and exterior control.

    q may be None, a scalar, a static omega vector, or (n_time_nodes, n_omega)
    samples.  source/u0/v0 are interior fields (omega or full-grid layout).
    Returns a :class:`Trajectory` whose exterior nodes carry the control
    samples exactly.  A static q is factored once per call.
    """
    nt = n_steps_for(dt, t_final)
    explicit, implicit = _linear_step(op, q, dt, nt)
    u, v = _crank_nicolson(op, control, dt, nt, source, u0, v0, explicit, implicit)
    return Trajectory(u=u, v=v, dt=dt)


# Controls stepped together by solve_linear_controls.  The elementwise part
# of a step runs once per block; the per-control flux product and back-solve
# are what is left.  Measured on the 101-node inversions (220 controls per
# pass, 200 steps, BLAS at one thread, two 20 s benchmark runs per size):
# static wall 2.5-2.7, 2.0-2.1, 1.8-1.9 and 2.0-2.1 s at blocks 4, 8, 16 and
# 32 (4.6-4.8 s one control at a time), ramp 2.9, 2.4-2.7, 2.2-2.3 and
# 2.1-2.2 s.  Peak RSS moved by allocator noise only, 162-173 MB at every
# size against 162-169 MB one at a time; the traced numpy peak, 71.1 MB, is
# the same at blocks 1 and 16, because the synthesis Gram matrices, not the
# block, set it.
CONTROL_BLOCK = 16


def solve_linear_controls(op, q, controls, dt, t_final):
    """Yield solve_linear(op, q, control, dt, t_final) for each control, in order.

    Each trajectory has the bits solve_linear gives, but q is normalized and
    factored once for all controls, and the controls are stepped
    CONTROL_BLOCK at a time through one pass of the step loop.  controls may
    be any iterable; at most one block of it is held at a time.  A failing
    step raises :class:`StepFailureError` for the first failing control, at
    the step solve_linear reports for it.
    """
    nt = n_steps_for(dt, t_final)
    explicit, implicit = _linear_step(op, q, dt, nt)
    controls = iter(controls)
    while block := list(itertools.islice(controls, CONTROL_BLOCK)):
        u, v = _crank_nicolson(op, block, dt, nt, None, None, None, explicit, implicit)
        del block  # pinned into u and v; not kept while the next block loads
        for i in range(u.shape[1]):
            yield Trajectory(u=u[:, i], v=v[:, i], dt=dt)


def solve_nonlinear(op, f, control, dt, t_final, source=None, u0=None, v0=None,
                    newton_tol=1e-10, newton_maxit=25):
    """Integrate with interior term f(x, u) via per-step Newton iterations."""
    nt = n_steps_for(dt, t_final)
    om = op.grid.omega
    Lom = op.omega_block
    base_mat = _step_matrix(op, dt)
    iters = np.zeros(nt, dtype=int)

    def explicit(k, u_k, u_base):
        return nl.apply(f, u_k, nodes=om)

    def implicit(k, rhs, v_k, u_base):
        w = v_k
        res_norm = np.inf
        for it in range(newton_maxit):
            u_new = u_base + 0.5 * dt * w
            g = (w + (0.5 * dt + 0.25 * dt * dt) * (Lom @ w)
                 + 0.5 * dt * nl.apply(f, u_new, nodes=om) - rhs)
            res_norm = np.max(np.abs(g))
            if not np.isfinite(res_norm):
                raise NewtonDivergenceError(k + 1, res_norm, it)
            if res_norm <= newton_tol:
                iters[k] = it
                return w
            jac = base_mat + 0.25 * dt * dt * np.diag(nl.apply_derivative(f, u_new, nodes=om))
            try:
                w = w - np.linalg.solve(jac, g)
            except np.linalg.LinAlgError as exc:
                raise StepFailureError(k + 1, f"Newton linear solve failed: {exc}")
        raise NewtonDivergenceError(k + 1, res_norm, newton_maxit)

    u, v = _crank_nicolson(op, control, dt, nt, source, u0, v0, explicit, implicit)
    return Trajectory(u=u, v=v, dt=dt, newton_iters=iters)


def solve_linearized(op, f, base, control, dt, t_final):
    """Differential of the nonlinear solution map at a base trajectory.

    Solves the linear equation whose potential is d_tau f frozen along the
    base: exactly the derivative of the discrete nonlinear flow, so finite
    differences of solutions converge to it at first order in the step size.
    """
    grid = op.grid
    nt = n_steps_for(dt, t_final)
    if base.u.shape != (nt + 1, grid.n_nodes):
        raise SolverError("base trajectory does not match the requested time grid")
    if abs(base.dt - dt) > 1e-12:
        raise SolverError(f"base trajectory dt={base.dt} != requested dt={dt}")
    q_t = nl.apply_derivative(f, base.u[:, grid.omega], nodes=grid.omega)
    return solve_linear(op, q_t, control, dt, t_final)


def trapezoid_weights(nt):
    w = np.ones(nt + 1)
    w[0] = w[-1] = 0.5
    return w


@dataclass(frozen=True)
class EnergyLedger:
    """Pointwise-in-time bookkeeping of the dissipation identity."""

    t: np.ndarray = field(repr=False)
    stored: np.ndarray = field(repr=False)       # ||v||^2 + |u|_Hs^2 at each time node
    dissipated: np.ndarray = field(repr=False)   # 2 int_0^t |v|_Hs^2
    work: np.ndarray = field(repr=False)         # 2 int_0^t (<h, v> - <q u, v>)
    residual: np.ndarray = field(repr=False)

    @property
    def max_relative_residual(self):
        scale = max(np.max(self.stored + self.dissipated), 1e-300)
        return float(np.max(np.abs(self.residual)) / scale)


def energy_ledger(op, traj, q=None, source=None):
    """Residual series of the energy identity for a homogeneous-exterior run.

    stored(t) + dissipated(t) - stored(0) - work(t) should vanish; with the
    trapezoidal quadrature used here the residual is second order in dt.
    """
    grid = op.grid
    ext = grid.exterior
    if np.max(np.abs(traj.u[:, ext]), initial=0.0) != 0.0 or \
       np.max(np.abs(traj.v[:, ext]), initial=0.0) != 0.0:
        raise SolverError("energy ledger requires zero exterior data")
    nt = traj.n_steps
    om = grid.omega
    h_src = _expand_field(source, nt, grid, "source")

    stored = norm_l2(grid, traj.v) ** 2 + seminorm_hs(op, traj.u) ** 2
    diss_rate = 2.0 * seminorm_hs(op, traj.v) ** 2
    work_rate = np.zeros(nt + 1)
    if h_src is not None:
        work_rate += 2.0 * grid.h * np.sum(h_src * traj.v[:, om], axis=-1)
    if q is not None:
        qs = _expand_potential(q, nt, om.size)[0]
        work_rate -= 2.0 * grid.h * np.sum(qs * traj.u[:, om] * traj.v[:, om], axis=-1)

    dissipated = _cumtrapz(diss_rate, traj.dt)
    work = _cumtrapz(work_rate, traj.dt)
    residual = stored + dissipated - stored[0] - work
    return EnergyLedger(t=traj.t, stored=stored, dissipated=dissipated,
                        work=work, residual=residual)


def _cumtrapz(y, dt):
    out = np.zeros_like(y)
    out[1:] = np.cumsum(0.5 * dt * (y[1:] + y[:-1]))
    return out


def trajectory_to_csv(traj, grid, path):
    """One row per (time node, grid node) pair: t,node,x,u,v.

    Floats are written with ``repr`` and lines end in ``\\r\\n``, the text
    ``csv.writer`` gives, so the file reads back bit for bit; each time node
    is written as one string.
    """
    node_x = [f"{i},{x!r}," for i, x in enumerate(grid.x.tolist())]
    with open(path, "w", newline="") as fh:
        fh.write("t,node,x,u,v\r\n")
        for k, tk in enumerate(traj.t.tolist()):
            t_ = f"{tk!r},"
            fh.write("".join([f"{t_}{p}{a!r},{b!r}\r\n" for p, a, b
                              in zip(node_x, traj.u[k].tolist(), traj.v[k].tolist())]))


def trajectory_from_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        rows = [(float(r[0]), int(r[1]), float(r[3]), float(r[4]))
                for r in reader]
    n = max(r[1] for r in rows) + 1
    nt = len(rows) // n
    t = np.asarray([rows[k * n][0] for k in range(nt)])
    u = np.asarray([r[2] for r in rows]).reshape(nt, n)
    v = np.asarray([r[3] for r in rows]).reshape(nt, n)
    return Trajectory(u=u, v=v, dt=float(t[1] - t[0]))
