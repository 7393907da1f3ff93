"""Crank-Nicolson time stepping for the damped nonlocal wave equation.

The second-order equation

    u_tt + L u_t + L u + q u = h      on the interior nodes,
    u = control                        on the exterior nodes,
    u(0) = u0,  u_t(0) = 0,

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
replace q u by f(x, u) and solve each step with a Newton iteration whose
Jacobian is the step matrix plus the diagonal dt^2/4 f'(u): its corrections
are split on the step matrix, inverted once per run.  A non-finite interior
update is reported, by the first step that produced one, after the last
step; a finite last state means there is none.

A control basis goes through the loop a block of elements at a time, with
no full-grid control, and returns one observed history per element: what a
caller keeps of each block's (u, v), element first.  One spline pass steps
a basis: on L_omega with a row of L per window node, or at q = 0 on
diag(lam) with one unit row (:func:`_spline_pass`).  Only the seeds are
stepped: with a static potential the step is the same at every step, so an
element whose time spline is an earlier one delayed by a whole number of
steps responds with that element's response delayed by as many steps
(:func:`shift_plan`).  The plan stays inside this module, and so does the
count that says whether a difference pass steps fewer rows for a basis's
elements or for the controls synthesized over it (:func:`steps_controls`).
"""

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
    def t(self):
        return self.dt * np.arange(self.u.shape[0])


def n_steps_for(dt, t_final):
    nt = int(round(t_final / dt))
    if abs(nt * dt - t_final) > 1e-9 * max(1.0, t_final):
        raise SolverError(f"dt={dt} does not divide t_final={t_final}")
    if nt < 2:
        raise SolverError(f"dt={dt} gives {nt} step(s) over t_final={t_final}; "
                          "need at least 2")
    return nt


def _expand_potential(q, nt, n_omega):
    """Normalize q to (nt+1, n_omega) samples plus a static flag.

    A static q is one row broadcast over the time nodes; samples whose rows
    are all equal, NaN matching NaN, are that row.
    """
    shape = (nt + 1, n_omega)
    q = np.asarray(0.0 if q is None else q, dtype=float)
    if q.ndim == 1 and q.shape[0] != n_omega:
        raise SolverError(f"static potential has {q.shape[0]} entries, omega has {n_omega}")
    if q.ndim >= 2:
        if q.shape != shape:
            raise SolverError(f"potential shape {q.shape} != {shape}")
        if not np.array_equal(q, np.broadcast_to(q[0], shape), equal_nan=True):
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


def _step_linear(maps, drive, dt, u0, elements=None):
    """The linear step loop on omega from displacement u0 (zero if None) and
    zero velocity; returns read-only (u, v) histories.

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
    v[0] = 0.0
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


def _difference_drive(dq, u, dt):
    """Step right-hand sides of w = u_q - u_bg, from the background displacements.

    u is a fresh time-major block of background displacements on omega,
    (nt+1, m, n_omega), which the drive overwrites, and dq the
    (nt+1, n_omega) samples of q - q_bg.  Subtracting the background step
    from the q step leaves w stepping with q and the forcing
    -dt/2 (dq_k u_k + dq_{k+1} u_{k+1}) at step k; the background velocity
    enters only through u_{k+1} = u_k + dt/2 (v_k + v_{k+1}).
    """
    u *= dq[:, None, :]
    drive = u[:-1] + u[1:]
    drive *= -0.5 * dt
    return drive


def _step_matrix(L, dt):
    """Step matrix I + (dt/2 + dt^2/4) L of the block L, before the potential."""
    return np.eye(L.shape[0]) + (0.5 * dt + 0.25 * dt * dt) * L


def lu_factor(stack):
    """Inverses of a (k, n, n) stack of step matrices, one LU each.

    Every step inverse the solver keeps, for linear steps and Newton
    corrections alike, is made here; ``perfbench/tracer.py`` counts the
    factorizations through this name.
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


def _step_maps(L, q, dt, nt):
    """The (P, R, inv) maps of the linear step with the (n, n) block L and
    potential q, (nt, n, n) each.

    With h = dt/2 and states as rows, step k of :func:`_step_linear` is

        v_{k+1} = u_k P_k + v_k R_k + d_k inv_k,
        u_{k+1} = u_k + h (v_k + v_{k+1}),

    where P_k = -h (2L + diag(q_k + q_{k+1})) inv_k,
    R_k = (I - h (1 + h) L - h^2 diag(q_{k+1})) inv_k and inv_k is the
    transposed step inverse of :func:`_step_inverses`: the trapezoidal step,
    solved for the new velocity.  L is the omega block, or diag(lam) for its
    modes (:func:`solve_modal_basis`).  A static q gives one matrix of each,
    broadcast over the steps.
    """
    n = L.shape[0]
    qs, q_static = _expand_potential(q, nt, n)
    inv = _step_inverses(_step_matrix(L, dt), qs, q_static, dt)
    q_k, q_k1 = (qs[:1], qs[:1]) if q_static else (qs[:-1], qs[1:])
    hdt = 0.5 * dt
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


def solve_linear(op, q, control, dt, t_final, source=None, u0=None):
    """Integrate the linear equation with potential q and exterior control.

    q may be None, a scalar, a static omega vector, or (n_time_nodes, n_omega)
    samples.  source and u0 are interior fields (omega or full-grid layout);
    the initial velocity is zero.
    Returns a :class:`Trajectory` whose exterior nodes carry the control
    samples exactly.
    """
    nt = n_steps_for(dt, t_final)
    grid = op.grid
    inner = _step_linear(_step_maps(op.omega_block, q, dt, nt),
                         _control_drive(op, control, dt, nt, source), dt,
                         _expand_field(u0, nt, grid, "u0"))
    u, v = _on_grid(grid, control, dt, nt, inner)
    return Trajectory(u=u, v=v, dt=dt)


# Rows stepped together by a basis or difference pass.  A static pass steps
# few seeds (40 on the benchmark's 220-element basis, 2 in a modal pass), so
# the size matters where nothing shifts: the 99 synthesized controls of a
# ramp's data pass, which runs while a recovery's kernel and w1 achieved
# states are alive, and a time-dependent potential's element pass, where the
# targets outnumber the elements.  Measured with perfbench/run.py on the ramp's
# controls pass at seeds 1 and 2 (101 nodes, 200 steps, BLAS at one thread,
# 2-vCPU VM, 8 s runs; wall_s as the benchmark scales it):
#   block   invert-linear-ramp
#     64    0.119-0.122 s, 101.0 MB
#    128    0.112-0.119 s, 112.7-112.8 MB
# so 64 saves 11.7 MB of peak RSS at a time inside the runs' spread.  On a
# ramp run (noise 1e-8, seed 0, its noise then drawn on the element
# pairings) whose element pass stepped 64, 64, 64 and 28 rows, the fastest of 8 runs in each of 8 alternating processes took
# 0.144-0.162 s at 64 and 0.140-0.200 s at 128.  The blocks fix which BLAS
# kernel computes each row of a step's products, so they fix the rows' bits:
# that run's relative_l2_error is 1915894.0428721718 at 64 and
# 1915894.0428705208 at 128.
CONTROL_BLOCK = 64

# Largest difference, relative to a spline's largest sample, between its drive
# samples and the delayed samples of an earlier spline that it may reuse
SHIFT_RTOL = 1e-14


def shift_plan(basis, static, n_rows):
    """(seed, lag) of a pass over n_rows rows times a basis's splines: the
    response to pair e = (row, spline) is that to pair seed[e] delayed by
    lag[e] steps, and zero before; a seed is its own seed at lag 0.

    With a static potential the step is the same at every step, so when
    spline c is an earlier seed c0 delayed by lag steps, the response to
    (row, c) is that to (row, c0) delayed by lag steps.  A lag is looked
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
    first = n_spl * np.arange(n_rows)[:, None]
    return (first + seed).ravel(), np.tile(lag, n_rows)


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
        seen = observe(*_step_linear(maps, drive(block), dt, None, block))
        n_times = seen.shape[0]
        if out is None:
            out = np.zeros((seed.size, n_times) + seen.shape[2:])
        of_block = np.isin(seed, block)
        for steps in np.unique(lag[of_block]):
            elements = np.flatnonzero(of_block & (lag == steps))
            rows = seen[:n_times - steps, np.searchsorted(block, seed[elements])]
            out[elements, steps:] = np.moveaxis(rows, 1, 0)
    return out


def _spline_pass(L, q, basis, rows, observe):
    """observe(u, v) of every (row r, spline c) pair, stepped on the block L
    with potential q, pair first: (len(rows) * n_splines, nt+1, ...).

    Pair (r, c) drives step k by -dt/2 s_c[k] rows[r], with s_c[k] spline
    c's value plus derivative summed over both ends of step k; only the
    seeds of :func:`shift_plan` are stepped, through :func:`_basis_pass`,
    and q is inverted once for all blocks.
    """
    dt, nt = basis.dt, basis.n_steps
    x = basis.values + basis.dvalues
    s = x[:, :-1] + x[:, 1:]
    plan = shift_plan(basis, _expand_potential(q, nt, L.shape[0])[1], len(rows))

    def drive(seeds):
        row, spline = np.divmod(seeds, len(s))
        return -0.5 * dt * (s[spline].T[:, :, None] * rows[row][None])

    return _basis_pass(_step_maps(L, q, dt, nt), plan, drive, dt, observe)


def solve_linear_basis(op, q, basis, observe):
    """observe(u, v) of the interior response to every element of a node x
    spline control basis, element first: (n_elements, nt+1, ...) on the
    basis's time grid.

    observe maps a block of read-only (nt+1, m, n_omega) displacement and
    velocity histories on omega, time-major, to (nt+1, m, ...) values; it
    runs once per block of at most CONTROL_BLOCK stepped elements, so a pass
    holds one block's histories at a time.  Element (node j, spline c) is
    the pair of :func:`_spline_pass` on L_omega whose row is L[j, omega];
    every element but a seed takes its seed's values, delayed, and zero
    before.  On the exterior, an element's samples are its control.  A
    failing step raises :class:`StepFailureError` for the first failing
    element, at its step.
    """
    rows = op.matrix[np.ix_(basis.nodes, op.grid.omega)]
    return _spline_pass(op.omega_block, q, basis, rows, observe)


def solve_linear_difference(op, q, q_background, basis, states, observe, n_controls=None):
    """Change of the responses of a basis's elements, or of n_controls
    controls synthesized over it, when q replaces q_background, observed.

    states(rows) returns the background displacements on omega of the rows
    at the indices rows as a fresh time-major (nt+1, len(rows), n_omega)
    block, as ``inversion.BackgroundStates.states_of`` does for elements
    and ``inversion.LinearRecovery.states_of`` for controls.  Returns
    observe(w, z) of every row as :func:`solve_linear_basis` does, row
    first, with w, z the displacement and velocity differences of the
    responses with q from the background ones.  Elements shift only when
    both potentials are static; controls never shift, and the difference
    equation is linear in its drive, so a control's difference is its
    coefficients times its elements'.  The differences are not
    subtracted: they step with q, zero initial data and zero exterior data,
    driven by the background states (:func:`_difference_drive`), so they
    keep their relative accuracy however small q - q_background is.
    """
    dt, nt = basis.dt, basis.n_steps
    dq, static = _potential_difference(basis, q, q_background)
    if n_controls is None:
        plan = shift_plan(basis, static, len(basis.nodes))
    else:
        plan = np.arange(n_controls), np.zeros(n_controls, dtype=int)
    return _basis_pass(
        _step_maps(op.omega_block, q, dt, nt), plan,
        lambda rows: _difference_drive(dq, states(rows), dt), dt, observe)


def _potential_difference(basis, q, q_background):
    """The samples of q - q_background on the basis's time grid, and whether
    both potentials are static."""
    nt, n_omega = basis.n_steps, basis.grid.omega.size
    qs, static = _expand_potential(q, nt, n_omega)
    q_bg, bg_static = _expand_potential(q_background, nt, n_omega)
    return qs - q_bg, static and bg_static


def steps_controls(basis, q, q_background, n_controls):
    """Whether the difference pass (:func:`solve_linear_difference`) of
    n_controls controls synthesized over a basis steps fewer rows than that
    of the basis's elements, which steps only the seeds of its shift plan."""
    static = _potential_difference(basis, q, q_background)[1]
    seed = shift_plan(basis, static, len(basis.nodes))[0]
    return n_controls < np.count_nonzero(seed == np.arange(seed.size))


def modal_coupling(op, basis):
    """a = L[basis nodes, omega] V: how each window node of a basis drives
    each mode of L_omega (:func:`solve_modal_basis`)."""
    return op.matrix[np.ix_(basis.nodes, op.grid.omega)] @ op.modes


def solve_modal_basis(op, basis):
    """g: the q = 0 responses to a basis's splines, in L_omega's modes.

    At q = 0 the damping and the stiffness are both L, so in its eigenbasis
    L_omega = V diag(lam) V^T each mode steps on its own: element (node j,
    spline c) reaches sum_m a[j, m] g[t, c, m] V[:, m], with the coupling
    a of :func:`modal_coupling` and g the :func:`_spline_pass` on diag(lam)
    with one unit row, which drives every mode alike; it steps only its
    shift plan's seeds.  g is time-major, (nt+1, n_splines, n_modes).
    """
    unit = np.ones((1, op.eigenvalues.size))
    g = _spline_pass(np.diag(op.eigenvalues), None, basis, unit, lambda u, v: u)
    return g.transpose(1, 0, 2)


# Newton's stopping test on the max-norm step residual, and its iteration cap
NEWTON_TOL = 1e-10
NEWTON_MAXIT = 25

# Largest contraction rho = ||B^-1||_inf max|d| at which a Newton correction
# is split on the step matrix inverted once (:func:`_newton_correction`); it
# takes floor(log(u) / log(rho)) sweeps, 6 at 5e-3, and above it a correction
# is a dense solve.  Measured with BLAS at one thread on a 2-vCPU VM, a random
# diagonal and the step matrices of 101 nodes at dt 5e-3 and 301 at 1e-3,
# min of 7 rounds of 2000 calls, three runs:
#   interior nodes   dense solve   sweeps: 0       2        4        6        8
#        33          30-33 us              2-3     9-10     18       25-26    33-34 us
#        99          92-164 us             3-4     10-16    19-27    31-39    46-51 us
# so 6 sweeps beat the dense solve at both sizes, and 8 tie it at 33 nodes
NEWTON_SPLIT_RHO = 5e-3
UNIT_ROUNDOFF = 0.5 * np.finfo(float).eps


def _newton_correction(g, d, inv, inv_norm, base_mat):
    """x solving (B + diag(d)) x = g, the Newton correction, for the step
    matrix B with transposed inverse inv and ||B^-1||_inf = inv_norm.

    With rho = inv_norm max|d| at most NEWTON_SPLIT_RHO, x is split as
    x <- B^-1 (g - d x) from x = B^-1 g: each sweep shrinks the error by
    rho, and x = B^-1 g is rho ||x|| from the solution, so the
    floor(log(u) / log(rho)) sweeps taken leave it below unit roundoff u
    relative to ||x||.  Above the switch x is a dense solve.
    """
    rho = inv_norm * np.max(np.abs(d))
    if rho > NEWTON_SPLIT_RHO:
        return np.linalg.solve(base_mat + np.diag(d), g)
    x = g @ inv
    for _ in range(int(np.log(UNIT_ROUNDOFF) / np.log(rho)) if rho > 0.0 else 0):
        x = (g - d * x) @ inv
    return x


def solve_nonlinear(op, f, control, dt, t_final):
    """Integrate from rest with interior term f(x, u) via per-step Newton iterations.

    Step k forms its right-hand side from u_k, v_k, f(u_k) and the drive;
    Newton then solves for the new velocity w, and
    u_{k+1} = u_k + dt/2 (v_k + w).  Its Jacobian is the step matrix
    B = I + (dt/2 + dt^2/4) L plus dt^2/4 diag(f'(u)), so B is inverted
    once per call (:func:`_step_inverses`) and each correction is split on
    it, or solved densely where f'(u) is large (:func:`_newton_correction`).
    f at the accepted iterate is carried into the next step's right-hand
    side.  A non-finite residual raises, so the states stay finite.
    """
    nt = n_steps_for(dt, t_final)
    grid = op.grid
    drive = _control_drive(op, control, dt, nt, None)
    L = op.omega_block
    n = L.shape[0]
    base_mat = _step_matrix(L, dt)
    inv = _step_inverses(base_mat, np.zeros((1, n)), True, dt)[0]
    inv_norm = np.abs(inv).sum(axis=0).max()       # inv is B^-1 transposed
    hdt = 0.5 * dt
    iters = np.zeros(nt, dtype=int)
    u = np.empty((nt + 1, n))
    v = np.empty_like(u)
    u[0] = v[0] = 0.0
    f_u = f.value(u[0])
    for k in range(nt):
        u_k, v_k = u[k], v[k]
        u_base = u_k + hdt * v_k
        flux = ((u_k + v_k) + u_base) @ L
        rhs = (v_k - hdt * (flux + f_u)) + drive[k]
        w = v_k
        res_norm = np.inf
        for it in range(NEWTON_MAXIT):
            u_new = u_base + hdt * w
            f_u = f.value(u_new)
            g = (w + (hdt + 0.25 * dt * dt) * (L @ w) + hdt * f_u - rhs)
            res_norm = np.max(np.abs(g))
            if not np.isfinite(res_norm):
                raise NewtonDivergenceError(k + 1, res_norm, it)
            if res_norm <= NEWTON_TOL:
                iters[k] = it
                break
            d = 0.25 * dt * dt * f.dvalue(u_new)
            try:
                w = w - _newton_correction(g, d, inv, inv_norm, base_mat)
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

