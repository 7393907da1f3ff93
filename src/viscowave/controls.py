"""Smooth space-time exterior data supported on a grid window.

Controls are built from separable profiles: a spatial profile over the window
nodes times a smooth time profile vanishing (with its derivative) at t = 0.
Time profiles are either compactly supported mollifier bumps or uniform cubic
B-splines whose supports stay strictly inside (0, T); the spline families are
nested under dyadic refinement and map onto themselves under time reversal.
"""

import functools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np


class ControlError(ValueError):
    pass


def _mollifier(z):
    """exp(1 - 1/(1-z^2)) on |z| < 1, zero outside; peak value 1 at z = 0."""
    z = np.asarray(z, dtype=float)
    out = np.zeros_like(z)
    inside = np.abs(z) < 1.0
    zi = z[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - zi * zi))
    return out


def _mollifier_dz(z):
    z = np.asarray(z, dtype=float)
    out = np.zeros_like(z)
    inside = np.abs(z) < 1.0
    zi = z[inside]
    w = 1.0 - zi * zi
    out[inside] = np.exp(1.0 - 1.0 / w) * (-2.0 * zi / (w * w))
    return out


def time_bump(t, t0, t1):
    """Mollifier bump supported on (t0, t1); returns (values, derivatives)."""
    mid = 0.5 * (t0 + t1)
    half = 0.5 * (t1 - t0)
    z = (np.asarray(t, dtype=float) - mid) / half
    return _mollifier(z), _mollifier_dz(z) / half


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


def _spline_pair(t_final, n_segments, index):
    """Cubic B-spline on uniform knots over [0, t_final] with support inside (0, T)."""
    n_segments, index = int(n_segments), int(index)
    if n_segments < 7:
        raise ControlError(f"spline level needs at least 7 segments, got {n_segments}")
    if not 1 <= index <= n_segments - 5:
        raise ControlError(f"spline index {index} outside 1..{n_segments - 5}")
    delta = t_final / n_segments
    start = delta * index  # the first knot

    def value(t):
        return _cubic_bspline((np.asarray(t, dtype=float) - start) / delta)[0]

    def deriv(t):
        return _cubic_bspline((np.asarray(t, dtype=float) - start) / delta)[1] / delta

    return value, deriv


@functools.lru_cache(maxsize=128)
def _spline_samples(t_final, n_segments, index, dt, n_steps):
    """Read-only (values, derivatives) of a time spline at k*dt, k = 0..n_steps."""
    value, deriv = _spline_pair(t_final, n_segments, index)
    t = dt * np.arange(n_steps + 1)
    samples = value(t), deriv(t)
    for arr in samples:
        arr.setflags(write=False)
    return samples


def spline_indices(n_segments):
    """Admissible time-spline indices at a refinement level (supports inside (0, T))."""
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
    prof[idx] = _mollifier(z)
    return prof


@dataclass(frozen=True)
class ControlSpec:
    """Serializable description of a separable window control."""

    window: str
    space_kind: str          # "node" | "bump"
    space_params: tuple      # ("node", (index,)) or ("bump", (lo, hi))
    time_kind: str           # "bump" | "spline"
    time_params: tuple       # ("bump", (t0, t1)) or ("spline", (t_final, n_segments, index))
    amplitude: float = 1.0
    # (spec, horizon) of a bump spec made by time_reversed: reversing back
    # over that horizon returns spec itself, where T - (T - t0) would round
    _reverses: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def to_dict(self):
        return {"window": self.window, "space_kind": self.space_kind,
                "space_params": list(self.space_params), "time_kind": self.time_kind,
                "time_params": list(self.time_params), "amplitude": self.amplitude}

    @staticmethod
    def from_dict(d):
        return ControlSpec(window=d["window"], space_kind=d["space_kind"],
                           space_params=tuple(d["space_params"]),
                           time_kind=d["time_kind"],
                           time_params=tuple(d["time_params"]),
                           amplitude=float(d.get("amplitude", 1.0)))

    def time_reversed(self, t_final):
        """Spec of the control whose samples equal this one reversed in time.

        Reversing twice over the same horizon gives back an equal spec.
        """
        if self.time_kind == "bump":
            if self._reverses is not None and self._reverses[1] == t_final:
                return self._reverses[0]
            t0, t1 = self.time_params
            reversed_spec = ControlSpec(self.window, self.space_kind, self.space_params,
                                        self.time_kind, (t_final - t1, t_final - t0),
                                        self.amplitude)
            object.__setattr__(reversed_spec, "_reverses", (self, t_final))
            return reversed_spec
        tf, n_seg, index = self.time_params
        if abs(tf - t_final) > 1e-12:
            raise ControlError("spline horizon differs from requested reversal horizon")
        return ControlSpec(self.window, self.space_kind, self.space_params,
                           self.time_kind, (tf, n_seg, n_seg - 4 - index), self.amplitude)


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
    spec: Optional[ControlSpec] = None

    @property
    def n_steps(self):
        return self.values.shape[0] - 1

    @property
    def t_final(self):
        return self.n_steps * self.dt


def make_control(grid, values, dvalues, window, dt, spec=None):
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
    return ExteriorControl(values=values, dvalues=dvalues, window=window,
                           dt=float(dt), spec=spec)


def materialize(spec, grid, dt, n_steps):
    """Sample a :class:`ControlSpec` on the time grid k*dt, k = 0..n_steps."""
    if spec.time_kind == "bump":
        tv, td = time_bump(dt * np.arange(n_steps + 1), *spec.time_params)
    elif spec.time_kind == "spline":
        tv, td = _spline_samples(*spec.time_params, dt, n_steps)
    else:
        raise ControlError(f"unknown time profile kind {spec.time_kind!r}")
    if spec.space_kind == "node":
        prof = np.zeros(grid.n_nodes)
        node = int(spec.space_params[0])
        if node not in set(grid.window(spec.window).tolist()):
            raise ControlError(f"node {node} not in window {spec.window}")
        prof[node] = 1.0
    elif spec.space_kind == "bump":
        prof = space_bump(grid, spec.window, *spec.space_params)
    else:
        raise ControlError(f"unknown space profile kind {spec.space_kind!r}")
    values = spec.amplitude * tv[:, None] * prof[None, :]
    dvalues = spec.amplitude * td[:, None] * prof[None, :]
    return make_control(grid, values, dvalues, spec.window, dt, spec=spec)


def bump_control(grid, window, t0, t1, dt, n_steps, amplitude=1.0, space=None):
    """Convenience: smooth spatial bump over the window times a mollifier in time."""
    lo = {"w1": grid.w1_lo, "w2": grid.w2_lo}[window] if space is None else space[0]
    hi = {"w1": grid.w1_hi, "w2": grid.w2_hi}[window] if space is None else space[1]
    spec = ControlSpec(window=window, space_kind="bump", space_params=(lo, hi),
                       time_kind="bump", time_params=(float(t0), float(t1)),
                       amplitude=float(amplitude))
    return materialize(spec, grid, dt, n_steps)


class ControlBasis:
    """Separable basis: one element per (window node) x (interior time spline).

    The basis refines nestedly when n_segments doubles, and time reversal maps
    the element list onto itself by permuting the spline index.
    """

    def __init__(self, grid, window, t_final, n_segments):
        self.grid = grid
        self.window = window
        self.t_final = float(t_final)
        self.n_segments = int(n_segments)
        self.nodes = list(grid.window(window).tolist())
        self.tsplines = spline_indices(self.n_segments)
        self.specs = [
            ControlSpec(window=window, space_kind="node", space_params=(node,),
                        time_kind="spline",
                        time_params=(self.t_final, self.n_segments, k))
            for node in self.nodes for k in self.tsplines
        ]

    def __len__(self):
        return len(self.specs)

    def time_matrix(self, dt, n_steps):
        """Spline values sampled on the time grid, shape (n_tsplines, n_steps+1)."""
        return self._sample_splines(dt, n_steps, 0)

    def time_dmatrix(self, dt, n_steps):
        """Spline time derivatives, in the layout of :meth:`time_matrix`."""
        return self._sample_splines(dt, n_steps, 1)

    def _sample_splines(self, dt, n_steps, which):
        return np.asarray([_spline_samples(self.t_final, self.n_segments, k, dt,
                                           n_steps)[which]
                           for k in self.tsplines])

    def reversal_permutation(self):
        """perm with materialize(specs[perm[i]]) == time reversal of materialize(specs[i])."""
        perm = np.empty(len(self.specs), dtype=int)
        pos = {(sp.space_params[0], sp.time_params[2]): i for i, sp in enumerate(self.specs)}
        for i, sp in enumerate(self.specs):
            k_rev = self.n_segments - 4 - sp.time_params[2]
            perm[i] = pos[(sp.space_params[0], k_rev)]
        return perm

    @staticmethod
    def from_specs(grid, specs):
        """Rebuild a basis from serialized specs, checking the separable layout."""
        if not specs:
            raise ControlError("empty basis")
        windows = {sp.window for sp in specs}
        if len(windows) != 1:
            raise ControlError("basis mixes windows")
        if any(sp.space_kind != "node" or sp.time_kind != "spline" or sp.amplitude != 1.0
               for sp in specs):
            raise ControlError("basis must consist of node x spline elements of amplitude 1")
        t_final = specs[0].time_params[0]
        n_seg = int(specs[0].time_params[1])
        basis = ControlBasis(grid, windows.pop(), t_final, n_seg)
        nodes = sorted({int(sp.space_params[0]) for sp in specs})
        basis.nodes = nodes
        basis.specs = list(specs)
        expected = [(n, k) for n in nodes for k in basis.tsplines]
        got = [(int(sp.space_params[0]), int(sp.time_params[2])) for sp in specs]
        if got != expected:
            raise ControlError("basis specs are not in node-major spline-minor order")
        return basis
