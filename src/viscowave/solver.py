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
state or a block of states alike, one row per state.  A linear step is
three products with precomputed maps, v_{k+1} = u_k P_k + v_k R_k + d_k inv_k,
and three adds for u_{k+1} = u_k + dt/2 (v_k + v_{k+1}); the maps carry L's
omega block, the potential and the inverse of the step matrix, inverted once
per potential (once per step for a time-dependent one).  Nonlinear runs
replace q u by f(x, u) and solve each step with a Newton iteration on the
same Jacobian structure.  A non-finite interior update is reported, by the
first step that produced one, after the last step; a finite last state
means there is none.

A control basis goes through the loop a block of elements at a time, with
no full-grid control, and returns one observed history per element: what a
caller keeps of each block's (u, v), element first.  Only the seeds are
stepped: with a static potential the step is the same at every step, so an
element whose time spline is an earlier one delayed by a whole number of
steps responds with that element's response delayed by as many steps
(:func:`shift_plan`).  The plan stays inside this module.
"""

import csv
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .operator import norm_l2, seminorm_hs


class SolverError(RuntimeError):
    pass


class StepFailureError(SolverError):
    def __init__(self, step, message, element=None):
        where = "" if element is None else f" of basis element {element}"
        super().__init__(f"time step {step}{where}: {message}")
        self.step = step
        self.element = element


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
    if g.shape in ((grid.n_nodes,), (nt + 1, grid.n_nodes)):
        if np.any(g[..., grid.exterior] != 0.0):
            raise SolverError(f"{name} has support outside omega")
        return g[..., grid.omega]
    if g.shape in ((nom,), (nt + 1, nom)):
        return g
    if g.ndim == 1:
        raise SolverError(f"{name} length {g.shape[0]} matches neither grid nor omega")
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


def _non_finite_failure(v, elements=None):
    """The StepFailureError of v's first non-finite row, at its first non-finite step.

    elements, if given, names the basis element of each row in the error.
    """
    nt = v.shape[0] - 1
    bad = ~np.isfinite(v[1:].reshape(nt, -1, v.shape[-1])).all(axis=2)
    first = int(np.argmax(bad.any(axis=0)))
    return StepFailureError(int(np.argmax(bad[:, first])) + 1, "non-finite interior update",
                            None if elements is None else int(elements[first]))


def _step_linear(maps, drive, dt, u0, v0, elements=None):
    """The linear step loop on omega; returns read-only (u, v) histories.

    maps are the (P, R, inv) stacks of :func:`_step_maps`.  drive[k] is the
    additive right-hand side of step k: (n_omega,) for one state, or
    (m, n_omega) for a block of m states, one row each, with elements the
    basis element of each row if they are some.  The histories have shape
    (nt+1,) + drive.shape[1:] and hold omega only.  Each step is three
    products and three in-place adds.
    """
    P, R, inv = maps
    nt = drive.shape[0]
    hdt = 0.5 * dt
    u = np.empty((nt + 1,) + drive.shape[1:])
    v = np.empty_like(u)
    u[0] = 0.0 if u0 is None else u0
    v[0] = 0.0 if v0 is None else v0
    for k in range(nt):
        u_next, v_next = u[k + 1], v[k + 1]
        np.matmul(u[k], P[k], out=v_next)
        v_next += v[k] @ R[k]
        v_next += drive[k] @ inv[k]
        np.add(v[k], v_next, out=u_next)
        u_next *= hdt
        u_next += u[k]
    # a non-finite entry of a row enters every product of the next step, so
    # the row stays non-finite to the end: only a failing last state is scanned
    if not np.isfinite(v[-1]).all():
        raise _non_finite_failure(v, elements)
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


def _basis_drive(op, basis, elements):
    """Step right-hand sides on omega of some elements of a node x spline basis.

    Element (node j, spline c) drives step k by -dt/2 s_c[k] L[j, omega],
    with s_c[k] the spline's value plus derivative summed over both ends of
    the step: one product of the step samples with L's rows, no full-grid
    control.  Returns (nt, m, n_omega) on the basis's time grid.
    """
    x = basis.values + basis.dvalues
    s = x[:, :-1] + x[:, 1:]                                  # (n_splines, nt)
    index = np.arange(len(basis))[elements]
    n_spl = len(basis.tsplines)
    nodes = np.asarray(basis.nodes)[index // n_spl]
    rows = op.matrix[np.ix_(nodes, op.grid.omega)]          # (m, n_omega)
    return -0.5 * basis.dt * (s[index % n_spl].T[:, :, None] * rows[None])


def _difference_drive(dq, u, dt):
    """Step right-hand sides of w = u_q - u_bg, from the background displacements.

    u is a background displacement history on omega, (nt+1, m, n_omega),
    and dq the (nt+1, n_omega) samples of q - q_bg.  Subtracting the
    background step from the q step leaves w stepping with q and the forcing
    -dt/2 (dq_k u_k + dq_{k+1} u_{k+1}) at step k; the background velocity
    enters only through u_{k+1} = u_k + dt/2 (v_k + v_{k+1}).
    """
    dq_u = dq[:, None, :] * u
    return -0.5 * dt * (dq_u[:-1] + dq_u[1:])


def _step_matrix(op, dt):
    """Interior step matrix I + (dt/2 + dt^2/4) L_omega, before the potential."""
    return np.eye(op.grid.omega.size) + (0.5 * dt + 0.25 * dt * dt) * op.omega_block


def lu_factor(stack):
    """Inverses of a (k, n, n) stack of step matrices, one LU each.

    The one place the linear solver factors; ``perfbench/tracer.py`` counts
    the factorizations through this name.
    """
    return np.linalg.inv(stack)


def _step_inverses(base_mat, qs, q_static, dt):
    """Transposed inverses of the step matrices base_mat + dt^2/4 diag(q_{k+1}).

    One stack through ``lu_factor``: a single matrix for a static q, one per
    step, (nt, n, n), for a time-dependent q.  States are rows, so a step
    multiplies by the transpose.  A non-finite or singular static matrix
    fails at step 0, a singular time-dependent one at its own step.
    """
    n = base_mat.shape[0]
    diag = qs[:1] if q_static else qs[1:]
    stack = np.empty((diag.shape[0], n, n))
    stack[:] = base_mat
    d = np.arange(n)
    stack[:, d, d] += 0.25 * dt * dt * diag
    if q_static and not np.isfinite(stack).all():
        raise StepFailureError(0, "factorization failed: non-finite step matrix")
    try:
        inv = lu_factor(stack)
    except np.linalg.LinAlgError as exc:
        if q_static:
            raise StepFailureError(0, f"factorization failed: {exc}") from None
        for k, mat in enumerate(stack):  # find the first singular step
            try:
                np.linalg.inv(mat)
            except np.linalg.LinAlgError as err:
                raise StepFailureError(k + 1, f"linear solve failed: {err}") from None
        raise
    return np.ascontiguousarray(inv.transpose(0, 2, 1))


def _step_maps(op, q, dt, nt):
    """The (P, R, inv) maps of the linear step with potential q, (nt, n, n) each.

    With h = dt/2 and states as rows, step k of :func:`_step_linear` is

        v_{k+1} = u_k P_k + v_k R_k + d_k inv_k,
        u_{k+1} = u_k + h (v_k + v_{k+1}),

    where P_k = -h (2L + diag(q_k + q_{k+1})) inv_k,
    R_k = (I - h (1 + h) L - h^2 diag(q_{k+1})) inv_k, L is the omega block
    and inv_k the transposed step inverse of :func:`_step_inverses`: the
    trapezoidal step, solved for the new velocity.  A static q gives one
    matrix of each, broadcast over the steps.
    """
    n = op.grid.omega.size
    qs, q_static = _expand_potential(q, nt, n)
    inv = _step_inverses(_step_matrix(op, dt), qs, q_static, dt)
    q_k, q_k1 = (qs[:1], qs[:1]) if q_static else (qs[:-1], qs[1:])
    hdt = 0.5 * dt
    L = op.omega_block
    d = np.arange(n)
    a_u = np.empty(inv.shape)
    a_u[:] = -2.0 * hdt * L
    a_u[:, d, d] -= hdt * (q_k + q_k1)
    a_v = np.empty(inv.shape)
    a_v[:] = np.eye(n) - hdt * (1.0 + hdt) * L
    a_v[:, d, d] -= hdt * hdt * q_k1
    return tuple(np.broadcast_to(m, (nt, n, n)) for m in (a_u @ inv, a_v @ inv, inv))


def _on_grid(grid, control, dt, nt, inner):
    """Full-grid read-only (u, v) of interior histories: the exterior is the control."""
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
    grid = op.grid
    inner = _step_linear(_step_maps(op, q, dt, nt), _control_drive(op, control, dt, nt, source),
                         dt, _expand_field(u0, nt, grid, "u0"), _expand_field(v0, nt, grid, "v0"))
    u, v = _on_grid(grid, control, dt, nt, inner)
    return Trajectory(u=u, v=v, dt=dt)


# Seeds stepped together by a basis or difference pass.  A static pass steps
# few seeds (40 on the benchmark's 220-element basis, one block at any size
# from 64 up), so the size matters only where nothing shifts: the ramp's
# difference pass, 220 rows.  Measured with perfbench/run.py at seed 0 on a
# 2-vCPU VM (101 nodes, 200 steps, BLAS at one thread; one 20 s run per size,
# wall_s as the benchmark scales it, and peak RSS):
#   block   invert-linear-ramp   invert-linear-static
#     32    0.27 s, 129 MB       0.19 s, 126 MB
#     64    0.30 s, 125 MB       0.20 s, 123 MB
#    128    0.28 s, 125 MB       0.20 s, 123 MB
#    220    0.31 s, 139 MB       0.19 s, 123 MB
# The times differ by less than the runs spread; a whole basis per block
# costs 13 MB of peak RSS on the ramp, so 128 stays.
CONTROL_BLOCK = 128

# Largest difference, relative to a spline's largest sample, between its drive
# samples and the delayed samples of an earlier spline that it may reuse
SHIFT_RTOL = 1e-14


def shift_plan(basis, static):
    """(seed, lag) of a pass over a node x spline basis: the response to
    element e is that to element seed[e] delayed by lag[e] steps, and zero
    before; a seed is its own seed at lag 0.

    With a static potential the step is the same at every step, so when
    spline c is an earlier seed c0 delayed by lag steps, the response to
    (node, c) is that to (node, c0) delayed by lag steps.  A lag is looked
    for where the knots put one, lag = (c - c0) nt / n_segments whole, and
    taken only if c's value-plus-derivative samples, which make its drive,
    are zero before it and match c0's after it to SHIFT_RTOL: a dt that
    divides t_final only up to rounding shifts nothing.  Each spline takes
    the first seed that matches; with a time-dependent potential, or no
    match, a spline is its own seed.
    """
    x = basis.values + basis.dvalues
    nt, n_spl = basis.n_steps, len(basis.tsplines)
    seed, lag = np.arange(n_spl), np.zeros(n_spl, dtype=int)
    for c in range(n_spl if static else 0):
        for c0 in np.flatnonzero(seed[:c] == np.arange(c)):
            steps, rest = divmod((basis.tsplines[c] - basis.tsplines[c0]) * nt,
                                 basis.n_segments)
            if (rest == 0 and not x[c, :steps].any()
                    and np.abs(x[c, steps:] - x[c0, :nt + 1 - steps]).max()
                    <= SHIFT_RTOL * np.abs(x[c]).max()):
                seed[c], lag[c] = c0, steps
                break
    first = n_spl * np.arange(len(basis.nodes))[:, None]
    return (first + seed).ravel(), np.tile(lag, len(basis.nodes))


def _basis_pass(maps, plan, drive, dt, observe):
    """observe(u, v) of every element of a pass, element first.

    Only the seeds of the (seed, lag) plan are stepped, CONTROL_BLOCK at a
    time: drive(block) gives a block's step drives, and observe maps its
    read-only (nt+1, m, n_omega) histories to (nt+1, m, ...) values.  Each
    element's rows are then its seed's, lag steps late, and zero before.
    """
    seed, lag = plan
    seeds = np.flatnonzero(seed == np.arange(seed.size))
    out = None
    for start in range(0, len(seeds), CONTROL_BLOCK):
        block = seeds[start:start + CONTROL_BLOCK]
        seen = observe(*_step_linear(maps, drive(block), dt, None, None, block))
        n_times = seen.shape[0]
        if out is None:
            out = np.zeros((seed.size, n_times) + seen.shape[2:])
        of_block = np.isin(seed, block)
        for steps in np.unique(lag[of_block]):
            elements = np.flatnonzero(of_block & (lag == steps))
            rows = seen[:n_times - steps, np.searchsorted(block, seed[elements])]
            out[elements, steps:] = np.moveaxis(rows, 1, 0)
    return out


def solve_linear_basis(op, q, basis, observe):
    """observe(u, v) of the interior response to every element of a node x
    spline control basis, element first: (n_elements, nt+1, ...) on the
    basis's time grid.

    observe maps a block of read-only (nt+1, m, n_omega) displacement and
    velocity histories on omega, time-major, to (nt+1, m, ...) values; it
    runs once per block of at most CONTROL_BLOCK stepped elements, so a pass
    holds one block's histories at a time.  With a static q only the seeds
    of the shift plan are stepped (:func:`shift_plan`); every other
    element's values are its seed's, delayed, and zero before.  On the
    exterior, an element's samples are its control.  q is normalized and
    inverted once for all blocks.  A failing step raises
    :class:`StepFailureError` for the first failing element, at its step.
    """
    dt, nt = basis.dt, basis.n_steps
    plan = shift_plan(basis, _expand_potential(q, nt, op.grid.omega.size)[1])
    return _basis_pass(_step_maps(op, q, dt, nt), plan,
                       lambda seeds: _basis_drive(op, basis, seeds), dt, observe)


def solve_linear_difference(op, q, q_background, basis, states, observe):
    """Change of a basis's responses when q replaces q_background, observed.

    states holds the basis's background displacements on omega, element
    first, (n, nt+1, n_omega), as ``inversion.BackgroundStates`` keeps them.
    Returns observe(w, z) of every element as :func:`solve_linear_basis`
    does, with w, z the displacement and velocity differences of the
    responses with q from the background ones; elements shift only when both
    potentials are static.  They are not subtracted: they step with q, zero
    initial data and zero exterior data, driven by the background states
    (:func:`_difference_drive`), so they keep their relative accuracy
    however small q - q_background is.
    """
    dt, nt = basis.dt, basis.n_steps
    n_omega = op.grid.omega.size
    qs, static = _expand_potential(q, nt, n_omega)
    q_bg, bg_static = _expand_potential(q_background, nt, n_omega)
    dq = qs - q_bg
    plan = shift_plan(basis, static and bg_static)
    return _basis_pass(
        _step_maps(op, q, dt, nt), plan,
        lambda seeds: _difference_drive(dq, states[seeds].transpose(1, 0, 2), dt), dt, observe)


# Newton's stopping test on the max-norm step residual, and its iteration cap
NEWTON_TOL = 1e-10
NEWTON_MAXIT = 25


def solve_nonlinear(op, f, control, dt, t_final):
    """Integrate from rest with interior term f(x, u) via per-step Newton iterations.

    Step k forms its right-hand side from u_k, v_k and the drive; Newton then
    solves for the new velocity w, and u_{k+1} = u_k + dt/2 (v_k + w).  A
    non-finite residual raises, so the states stay finite.
    """
    nt = n_steps_for(dt, t_final)
    grid = op.grid
    drive = _control_drive(op, control, dt, nt, None)
    L = op.omega_block
    base_mat = _step_matrix(op, dt)
    hdt = 0.5 * dt
    iters = np.zeros(nt, dtype=int)
    u = np.empty((nt + 1, grid.omega.size))
    v = np.empty_like(u)
    u[0] = v[0] = 0.0
    for k in range(nt):
        u_k, v_k = u[k], v[k]
        u_base = u_k + hdt * v_k
        flux = ((u_k + v_k) + u_base) @ L
        rhs = (v_k - hdt * (flux + f.value(u_k))) + drive[k]
        w = v_k
        res_norm = np.inf
        for it in range(NEWTON_MAXIT):
            u_new = u_base + hdt * w
            g = (w + (hdt + 0.25 * dt * dt) * (L @ w) + hdt * f.value(u_new) - rhs)
            res_norm = np.max(np.abs(g))
            if not np.isfinite(res_norm):
                raise NewtonDivergenceError(k + 1, res_norm, it)
            if res_norm <= NEWTON_TOL:
                iters[k] = it
                break
            jac = base_mat + 0.25 * dt * dt * np.diag(f.dvalue(u_new))
            try:
                w = w - np.linalg.solve(jac, g)
            except np.linalg.LinAlgError as exc:
                raise StepFailureError(k + 1, f"Newton linear solve failed: {exc}")
        else:
            raise NewtonDivergenceError(k + 1, res_norm, NEWTON_MAXIT)
        v[k + 1] = w
        u[k + 1] = u_new
    u, v = _on_grid(grid, control, dt, nt, (u, v))
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
    q_t = f.dvalue(base.u[:, grid.omega])
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
