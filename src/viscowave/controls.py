"""Smooth space-time exterior data supported on a grid window.

Controls are built from separable profiles: a spatial profile over the window
nodes times a smooth time profile vanishing (with its derivative) at t = 0.
Time profiles are either compactly supported mollifier bumps or uniform cubic
B-splines whose supports stay strictly inside (0, T); the spline families are
nested under dyadic refinement and map onto themselves under time reversal.
"""

from dataclasses import dataclass, field

import numpy as np

from .solver import n_steps_for


class ControlError(ValueError):
    pass


def _mollifier(z):
    """exp(1 - 1/(1-z^2)) on |z| < 1, zero outside, and its derivative in z;
    peak value 1 at z = 0."""
    z = np.asarray(z, dtype=float)
    val, der = np.zeros_like(z), np.zeros_like(z)
    inside = np.abs(z) < 1.0
    zi = z[inside]
    w = 1.0 - zi * zi
    val[inside] = e = np.exp(1.0 - 1.0 / w)
    der[inside] = e * (-2.0 * zi / (w * w))
    return val, der


def time_bump(t, t0, t1):
    """Mollifier bump supported on (t0, t1); returns (values, derivatives)."""
    mid = 0.5 * (t0 + t1)
    half = 0.5 * (t1 - t0)
    val, der = _mollifier((np.asarray(t, dtype=float) - mid) / half)
    return val, der / half


def _cubic_bspline(x):
    """Uniform cubic B-spline on the knots 0..4 and its derivative, at x.

    By symmetry about x = 2, each piece is a polynomial in the distance y,
    0..1, from the knot of its own that lies nearer the end of the support:
    y^3/6 on the outer pieces, (1 + 3y + 3y^2 - 3y^3)/6 on the inner ones,
    forms whose terms never cancel.
    """
    x = np.asarray(x, dtype=float)
    near = np.minimum(x, 4.0 - x)           # distance to the nearer end, 0..2 inside
    outer = near < 1.0
    y = np.where(outer, near, near - 1.0)
    value = np.where(outer, y ** 3 / 6.0, (1.0 + 3.0 * y * (1.0 + y - y * y)) / 6.0)
    slope = np.where(outer, 0.5 * y * y, 0.5 * (1.0 + y * (2.0 - 3.0 * y)))
    inside = (x > 0.0) & (x < 4.0)
    return (np.where(inside, value, 0.0),
            np.where(inside, np.where(x <= 2.0, slope, -slope), 0.0))


def _spline_samples(t, t_final, n_segments):
    """(values, derivatives) at the times t of every spline of a level, one row
    per spline index: cubic B-splines on uniform knots over [0, t_final] with
    supports inside (0, T), spline k starting at knot k."""
    delta = t_final / n_segments
    starts = delta * np.asarray(spline_indices(n_segments), dtype=float)
    value, slope = _cubic_bspline((np.asarray(t, dtype=float)[None, :] - starts[:, None])
                                  / delta)
    return value, slope / delta


def spline_indices(n_segments):
    """Admissible time-spline indices at a refinement level (supports inside (0, T))."""
    if n_segments < 7:
        raise ControlError(f"spline level needs at least 7 segments, got {n_segments}")
    return list(range(1, n_segments - 4))


def space_bump(grid, window, lo=None, hi=None):
    """Smooth spatial bump over [lo, hi] (defaults to the window interval), sampled at nodes."""
    idx = grid.window(window)
    if lo is None:
        lo = grid.w1_lo if window == "w1" else grid.w2_lo
    if hi is None:
        hi = grid.w1_hi if window == "w1" else grid.w2_hi
    prof = np.zeros(grid.n_nodes)
    z = (grid.x[idx] - 0.5 * (lo + hi)) / (0.5 * (hi - lo))
    prof[idx] = _mollifier(z)[0]
    return prof


@dataclass(frozen=True)
class ExteriorControl:
    """Sampled control values and time derivatives on the full time-node grid.

    values/dvalues have shape (n_time_nodes, n_grid_nodes), are supported on
    the declared window, and vanish at the first two time nodes so that zero
    initial data are matched.
    """

    values: np.ndarray = field(repr=False)
    dvalues: np.ndarray = field(repr=False)
    window: str
    dt: float

    @property
    def n_steps(self):
        return self.values.shape[0] - 1

    @property
    def t_final(self):
        return self.n_steps * self.dt


def make_control(grid, values, dvalues, window, dt):
    """Validate and freeze an exterior control."""
    values = np.asarray(values, dtype=float)
    dvalues = np.asarray(dvalues, dtype=float)
    if values.shape != dvalues.shape or values.ndim != 2 or values.shape[1] != grid.n_nodes:
        raise ControlError("control arrays must both be (n_time_nodes, n_grid_nodes)")
    idx = grid.window(window)
    mask = np.ones(grid.n_nodes, dtype=bool)
    mask[idx] = False
    if values[:, mask].any() or dvalues[:, mask].any():
        raise ControlError(f"control has support outside window {window}")
    if values[0].any() or values[1].any() or dvalues[0].any():
        raise ControlError("control incompatible with zero initial data: "
                           "values must vanish at the first two time nodes")
    for arr in (values, dvalues):
        arr.setflags(write=False)
    return ExteriorControl(values=values, dvalues=dvalues, window=window, dt=float(dt))


def materialize(basis, index):
    """Element index of a basis, sampled on the basis's time grid."""
    if not 0 <= index < len(basis):
        raise ControlError(f"element {index} outside 0..{len(basis) - 1}")
    unit = np.zeros(len(basis))
    unit[index] = 1.0
    return basis.control(unit)


def bump_control(grid, window, t0, t1, dt, n_steps, amplitude=1.0, space=None):
    """Convenience: smooth spatial bump over the window times a mollifier in time."""
    prof = space_bump(grid, window, *(space or ()))
    tv, td = time_bump(dt * np.arange(n_steps + 1), float(t0), float(t1))
    amplitude = float(amplitude)
    return make_control(grid, amplitude * tv[:, None] * prof[None, :],
                        amplitude * td[:, None] * prof[None, :], window, dt)


class ControlBasis:
    """Separable basis: one element per (window node) x (interior time spline),
    sampled on the time grid k*dt, k = 0..n_steps, of a horizon t_final.

    values and dvalues hold the read-only spline samples and time
    derivatives, one row per spline, (n_tsplines, n_steps+1).  The basis
    refines nestedly when n_segments doubles, and time reversal maps the
    element list onto itself by permuting the spline index.
    """

    def __init__(self, grid, window, dt, t_final, n_segments):
        self.grid = grid
        self.window = window
        self.dt = float(dt)
        self.t_final = float(t_final)
        self.n_steps = n_steps_for(self.dt, self.t_final)
        self.n_segments = int(n_segments)
        if self.n_segments != n_segments:
            raise ControlError(f"spline level {n_segments!r} is not an integer")
        self.nodes = list(grid.window(window).tolist())
        self.tsplines = spline_indices(self.n_segments)
        self.values, self.dvalues = _spline_samples(
            self.dt * np.arange(self.n_steps + 1), self.t_final, self.n_segments)
        for arr in (self.values, self.dvalues):
            arr.setflags(write=False)

    def __len__(self):
        return len(self.nodes) * len(self.tsplines)

    def control(self, coeffs):
        """The exterior control Sum_m coeffs[m] * element_m on the basis's time grid.

        Elements are node-major, spline-minor: element a * n_tsplines + k is
        spline tsplines[k] at window node nodes[a].
        """
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (len(self),):
            raise ControlError(f"{coeffs.shape} coefficients for a basis of {len(self)}")
        values = np.zeros((self.n_steps + 1, self.grid.n_nodes))
        dvalues = np.zeros_like(values)
        for node, c_node in zip(self.nodes, coeffs.reshape(len(self.nodes), -1)):
            values[:, node] = c_node @ self.values
            dvalues[:, node] = c_node @ self.dvalues
        return make_control(self.grid, values, dvalues, self.window, self.dt)

    def reversal_permutation(self):
        """perm with element perm[i] the time reversal of element i.

        Spline k reverses to spline n_segments - 4 - k at the same node, so
        perm reads the spline axis of the node-major layout backwards.
        """
        return np.arange(len(self)).reshape(len(self.nodes), -1)[:, ::-1].ravel()
