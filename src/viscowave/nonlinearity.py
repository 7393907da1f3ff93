"""Pointwise (superposition) nonlinearities f(x, u) and their derivative pairs."""

import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np


class NonlinearityError(ValueError):
    pass


@dataclass(frozen=True)
class Nonlinearity:
    """Carathéodory pair (value, dvalue) acting node-by-node.

    ``value_fn``/``dvalue_fn`` take (nodes, tau) where ``nodes`` is an integer
    index array selecting grid nodes (for the x-dependence) and ``tau`` is a
    float array broadcastable against it; both return arrays of tau's shape.
    ``r`` is the homogeneity degree minus one when ``homogeneous`` is set:
    f(x, lam*tau) = lam^(r+1) f(x, tau) for lam > 0.
    """

    value_fn: Callable = field(repr=False)
    dvalue_fn: Callable = field(repr=False)
    r: Optional[float] = None
    coeff: Optional[np.ndarray] = field(default=None, repr=False)
    homogeneous: bool = False

    def value(self, tau, nodes=None):
        return self.value_fn(nodes, np.asarray(tau, dtype=float))

    def dvalue(self, tau, nodes=None):
        return self.dvalue_fn(nodes, np.asarray(tau, dtype=float))


def zero_nonlinearity():
    return Nonlinearity(value_fn=lambda nodes, tau: np.zeros_like(tau),
                        dvalue_fn=lambda nodes, tau: np.zeros_like(tau),
                        r=0.0, coeff=None, homogeneous=True)


def power_nonlinearity(coeff, r):
    """f(x, tau) = coeff(x) * |tau|^r * tau with d_tau f = (r+1) coeff(x) |tau|^r.

    coeff may be a scalar, a nodal array over the full grid (indexed by the
    node labels the solver passes in), or an array with one entry per passed
    node; r >= 0.
    """
    if r < 0:
        raise NonlinearityError(f"power exponent r={r} must be nonnegative")
    coeff = np.asarray(coeff, dtype=float)
    if not np.all(np.isfinite(coeff)):
        raise NonlinearityError("power-law coefficient must be finite")

    def pick(nodes):
        if coeff.ndim == 0 or nodes is None:
            return coeff
        nodes = np.asarray(nodes)
        if len(coeff) > int(nodes.max()):
            return coeff[nodes]
        if len(coeff) == len(nodes):
            return coeff
        raise NonlinearityError(
            f"coefficient length {len(coeff)} matches neither the grid nor "
            f"the {len(nodes)} evaluation nodes")

    def value_fn(nodes, tau):
        return pick(nodes) * np.abs(tau) ** r * tau

    def dvalue_fn(nodes, tau):
        return (r + 1.0) * pick(nodes) * np.abs(tau) ** r

    return Nonlinearity(value_fn=value_fn, dvalue_fn=dvalue_fn, r=float(r),
                        coeff=coeff, homogeneous=True)


def apply(f, u, nodes=None):
    """Evaluate f at a spacetime field u (time on the first axis).

    When ``nodes`` is given, columns of u are understood to sit at those grid
    nodes; otherwise the x-dependence falls back to broadcasting the coefficient.
    """
    u = np.asarray(u, dtype=float)
    out = f.value(u, nodes)
    if not np.all(np.isfinite(out)):
        raise NonlinearityError("nonlinearity produced a non-finite value")
    return out


def apply_derivative(f, u, nodes=None):
    """Evaluate d_tau f at a spacetime field u; the multiplier of the Fréchet differential."""
    u = np.asarray(u, dtype=float)
    out = f.dvalue(u, nodes)
    if not np.all(np.isfinite(out)):
        raise NonlinearityError("nonlinearity derivative produced a non-finite value")
    return out


@dataclass(frozen=True)
class GrowthReport:
    A: float
    B: float
    r: float
    max_violation: float
    tau_lo: float
    tau_hi: float

    def to_dict(self):
        return {"A": self.A, "B": self.B, "r": self.r,
                "max_violation": self.max_violation,
                "tau_range": [self.tau_lo, self.tau_hi]}


def certify_growth(f, tau_range, n_samples=512, nodes=None, r=None):
    """Fit |d_tau f| <= A + B|tau|^r over sampled tau and report the worst violation.

    (A, B) come from a nonnegative least-squares fit of |dvalue| against
    (1, |tau|^r); for an exact power law the fit reproduces (0, (r+1)*max|coeff|)
    and the violation vanishes, while growth faster than |tau|^r leaves a
    strictly positive violation.
    """
    from scipy.optimize import nnls  # the only user; importing it costs set-up time

    if r is None:
        r = f.r
    if r is None:
        raise NonlinearityError("certify_growth needs an exponent r")
    lo, hi = map(float, tau_range)
    tau = np.linspace(lo, hi, n_samples)
    if nodes is None:
        y = np.abs(f.dvalue(tau, None))
    else:
        y = np.abs(f.dvalue(tau[:, None], np.asarray(nodes)[None, :])).max(axis=1)
    design = np.column_stack([np.ones_like(tau), np.abs(tau) ** r])
    sol, _ = nnls(design, y)
    A, B = float(sol[0]), float(sol[1])
    viol = float(np.max(y - (A + B * np.abs(tau) ** r), initial=0.0))
    return GrowthReport(A=A, B=B, r=float(r), max_violation=max(viol, 0.0),
                        tau_lo=lo, tau_hi=hi)


def check_exponent_constraints(s, r=None, p=None):
    """Warn when (s, r, p) sit outside the admissible one-dimensional ranges.

    For spatial dimension one: a source integrability exponent p must satisfy
    p >= 1/s when 2s < 1, p > 2 when 2s = 1, and p >= 2 when 2s > 1; a
    homogeneity degree r is unrestricted when 2s >= 1 and must satisfy
    r <= 2s/(1-2s) when 2s < 1.  Returns the list of warning messages emitted.
    """
    msgs = []
    if p is not None:
        if 2 * s < 1 and p < 1.0 / s:
            msgs.append(f"integrability exponent p={p} below 1/s={1.0 / s:.3f} for s={s}")
        elif 2 * s == 1 and not p > 2:
            msgs.append(f"integrability exponent p={p} must exceed 2 when 2s = 1")
        elif 2 * s > 1 and p < 2:
            msgs.append(f"integrability exponent p={p} below 2 for s={s}")
    if r is not None and 2 * s < 1:
        rmax = 2 * s / (1 - 2 * s)
        if r > rmax:
            msgs.append(f"homogeneity degree r={r} above the admissible bound "
                        f"2s/(1-2s)={rmax:.3f} for s={s}")
    for m in msgs:
        warnings.warn(m, stacklevel=2)
    return msgs
