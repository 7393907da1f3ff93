"""Crank-Nicolson time stepping for the damped nonlocal wave equation.

The second-order equation

    u_tt + L u_t + L u + q u = h      on the interior nodes,
    u = control                        on the exterior nodes,
    u(0) = u0,  u_t(0) = v0,

with L the assembled fractional Laplacian, is integrated as a first-order
system (u, v = u_t) with the trapezoidal rule.  Exterior nodes carry the
control samples and their time derivatives; the step loop holds omega only.
Everything the exterior and the source add to a step enters the loop as one
additive right-hand side per step, formed before it, so the loop steps one
state or a block of states alike, one row per state: a control basis goes
through it a block at a time, with no full-grid control.  A linear step is
one product with L's omega block and one with the inverse of the step
matrix, inverted once per potential (once per step for a time-dependent
one).  Nonlinear runs replace q u by f(x, u) and solve each step with a
Newton iteration on the same Jacobian structure.  A non-finite interior
update is reported, by the first step that produced one, after the last step.
"""

import csv
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import lu_factor, lu_solve

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


def _crank_nicolson(op, drive, dt, u0, v0, explicit, implicit):
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
    v[0] = 0.0 if v0 is None else v0
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


def _control_drive(op, control, dt, nt, source):
    """Step right-hand sides on omega of an exterior control and a source.

    The control enters through the flux of L's exterior-to-omega block at
    both ends of each step, the source through its trapezoidal average.
    """
    grid = op.grid
    ext = grid.exterior
    phi, dphi = _check_control(control, grid, dt, nt)
    x = phi[:, ext] + dphi[:, ext]
    drive = -0.5 * dt * ((x[:-1] + x[1:]) @ op.matrix[np.ix_(ext, grid.omega)])
    h = _expand_field(source, nt, grid, "source")
    if h is not None:
        h = np.broadcast_to(h, (nt + 1, grid.omega.size))
        drive += 0.5 * dt * (h[:-1] + h[1:])
    return drive


def _basis_drive(op, basis, dt, nt, elements):
    """Step right-hand sides on omega of a slice of a node x spline basis.

    Element (node j, spline c) drives step k by -dt/2 s_c[k] L[j, omega],
    with s_c[k] the spline's value plus derivative summed over both ends of
    the step: one product of the step samples with L's rows, no full-grid
    control.  Returns (nt, m, n_omega).
    """
    x = basis.time_matrix(dt, nt) + basis.time_dmatrix(dt, nt)
    s = x[:, :-1] + x[:, 1:]                                  # (n_splines, nt)
    index = np.arange(len(basis))[elements]
    n_spl = len(basis.tsplines)
    nodes = np.asarray(basis.nodes)[index // n_spl]
    rows = op.matrix[np.ix_(nodes, op.grid.omega)]          # (m, n_omega)
    return -0.5 * dt * (s[index % n_spl].T[:, :, None] * rows[None])


def _difference_drive(dq, u, v, dt):
    """Step right-hand sides of w = u_q - u_bg, from the background histories.

    u, v are background histories on omega, (nt+1, m, n_omega), and dq the
    (nt+1, n_omega) samples of q - q_bg.  Subtracting the background step
    from the q step leaves w stepping with q and this forcing at step k:
    -dt/2 (dq_k u_k + dq_{k+1} u_base_k) - dt^2/4 dq_{k+1} v_{k+1}.
    """
    hdt = 0.5 * dt
    dq = dq[:, None, :]
    u_base = u[:-1] + hdt * v[:-1]
    return -hdt * ((dq[:-1] * u[:-1] + dq[1:] * u_base) + hdt * (dq[1:] * v[1:]))


def _step_matrix(op, dt):
    """Interior step matrix I + (dt/2 + dt^2/4) L_omega, before the potential."""
    return np.eye(op.grid.omega.size) + (0.5 * dt + 0.25 * dt * dt) * op.omega_block


def _step_inverses(base_mat, qs, q_static, dt):
    """Transposed inverses of the step matrices base_mat + dt^2/4 diag(q_{k+1}).

    One (1, n, n) inverse, through ``lu_factor``, for a static q; an (nt, n,
    n) stack of them, one per step, for a time-dependent q.  States are rows,
    so a step multiplies by the transpose.  A non-finite static matrix fails
    at step 0, a singular time-dependent one at its own step.
    """
    n = base_mat.shape[0]
    if q_static:
        try:
            lu = lu_factor(base_mat + 0.25 * dt * dt * np.diag(qs[0]))
        except ValueError as exc:  # lu_factor rejects a non-finite matrix
            raise StepFailureError(0, f"factorization failed: {exc}")
        inv = lu_solve(lu, np.eye(n))[None]
    else:
        stack = np.empty((qs.shape[0] - 1, n, n))
        stack[:] = base_mat
        d = np.arange(n)
        stack[:, d, d] += 0.25 * dt * dt * qs[1:]
        try:
            inv = np.linalg.inv(stack)
        except np.linalg.LinAlgError:
            for k, mat in enumerate(stack):  # find the first singular step
                try:
                    np.linalg.inv(mat)
                except np.linalg.LinAlgError as exc:
                    raise StepFailureError(k + 1, f"linear solve failed: {exc}") from None
            raise
    return np.ascontiguousarray(inv.transpose(0, 2, 1))


def _linear_step(op, q, dt, nt):
    """The explicit and implicit closures of the linear step with potential q.

    The implicit half is one product with a step-matrix inverse, made here
    once for all the states the closures serve.
    """
    qs, q_static = _expand_potential(q, nt, op.grid.omega.size)
    inv = _step_inverses(_step_matrix(op, dt), qs, q_static, dt)
    inv = np.broadcast_to(inv, (nt,) + inv.shape[1:])

    def explicit(k, u_k, u_base):
        return qs[k] * u_k + qs[k + 1] * u_base

    def implicit(k, rhs, v_k, u_base):
        return rhs @ inv[k]

    return explicit, implicit


def _solve_control(op, control, dt, nt, source, u0, v0, explicit, implicit):
    """One state stepped under control and source from u0, v0; full-grid (u, v).

    The interior comes from the step loop, the exterior is the control.
    """
    grid = op.grid
    drive = _control_drive(op, control, dt, nt, source)
    inner = _crank_nicolson(op, drive, dt, _expand_field(u0, nt, grid, "u0"),
                            _expand_field(v0, nt, grid, "v0"), explicit, implicit)
    out = []
    for sampled, values in zip(_check_control(control, grid, dt, nt), inner):
        full = np.array(sampled, dtype=float)
        full[:, grid.omega] = values
        full.setflags(write=False)
        out.append(full)
    return out


def solve_linear(op, q, control, dt, t_final, source=None, u0=None, v0=None):
    """Integrate the linear equation with potential q and exterior control.

    q may be None, a scalar, a static omega vector, or (n_time_nodes, n_omega)
    samples.  source/u0/v0 are interior fields (omega or full-grid layout).
    Returns a :class:`Trajectory` whose exterior nodes carry the control
    samples exactly.
    """
    nt = n_steps_for(dt, t_final)
    explicit, implicit = _linear_step(op, q, dt, nt)
    u, v = _solve_control(op, control, dt, nt, source, u0, v0, explicit, implicit)
    return Trajectory(u=u, v=v, dt=dt)


# Basis elements stepped together by solve_linear_basis.  Measured with
# perfbench/run.py at seed 0 on a 2-vCPU VM (101 nodes, 220 elements per
# basis, 200 steps, BLAS at one thread; one 20 s run per size, wall_s as the
# benchmark scales it, and peak RSS):
#   block   invert-linear-static   invert-linear-ramp
#     16    0.58 s, 147 MB         0.87 s, 152 MB
#     32    0.44 s, 145 MB         0.77 s, 152 MB
#     64    0.41 s, 147 MB         0.81 s, 149 MB
#    128    0.35 s, 145 MB         0.70 s, 158 MB
#    220    0.33 s, 167 MB         0.69 s, 167 MB
# A pass of one gemv and one getrs per control and step took 1.90 s, 164 MB
# and 2.25 s, 166 MB.  A whole basis per block brings the peak RSS back to
# that; 128 keeps most of the time.
CONTROL_BLOCK = 128


def solve_linear_basis(op, q, basis, dt, t_final):
    """Interior responses of every element of a node x spline control basis.

    Yields (elements, u, v) for each block of CONTROL_BLOCK elements, in
    basis order: elements is the slice of the basis, and u, v are read-only
    (nt+1, m, n_omega) histories on omega, time-major, one row per element.
    On the exterior, an element's samples are its control.  q is normalized
    and inverted once for all blocks.  A failing step raises
    :class:`StepFailureError` for the first failing element, at its step.
    """
    nt = n_steps_for(dt, t_final)
    explicit, implicit = _linear_step(op, q, dt, nt)
    for start in range(0, len(basis), CONTROL_BLOCK):
        elements = slice(start, min(start + CONTROL_BLOCK, len(basis)))
        drive = _basis_drive(op, basis, dt, nt, elements)
        yield (elements, *_crank_nicolson(op, drive, dt, None, None, explicit, implicit))


def solve_linear_difference(op, q, q_background, basis, dt, t_final):
    """Background responses of a basis and their change when q replaces q_background.

    Yields (elements, (u, v), (w, z)) per block, as solve_linear_basis does:
    (u, v) are the responses with q_background, and (w, z) the differences
    of the responses with q from them.  The differences are not subtracted:
    they step with q, zero initial data and zero exterior data, driven by
    the background (:func:`_difference_drive`), so they keep their relative
    accuracy however small q - q_background is.
    """
    nt = n_steps_for(dt, t_final)
    n_omega = op.grid.omega.size
    dq = (_expand_potential(q, nt, n_omega)[0]
          - _expand_potential(q_background, nt, n_omega)[0])
    explicit, implicit = _linear_step(op, q, dt, nt)
    for elements, u, v in solve_linear_basis(op, q_background, basis, dt, t_final):
        w, z = _crank_nicolson(op, _difference_drive(dq, u, v, dt), dt, None, None,
                               explicit, implicit)
        yield elements, (u, v), (w, z)


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

    u, v = _solve_control(op, control, dt, nt, source, u0, v0, explicit, implicit)
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
