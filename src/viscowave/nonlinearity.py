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

    ``value_fn``/``dvalue_fn`` take a float array tau whose last axis runs
    over the omega nodes (for the x-dependence) and return arrays of its
    shape.  ``r``, when set, is the homogeneity degree minus one:
    f(x, lam*tau) = lam^(r+1) f(x, tau) for lam > 0.
    """

    value_fn: Callable = field(repr=False)
    dvalue_fn: Callable = field(repr=False)
    r: Optional[float] = None
    coeff: Optional[np.ndarray] = field(default=None, repr=False)

    def value(self, tau):
        return self.value_fn(np.asarray(tau, dtype=float))

    def dvalue(self, tau):
        return self.dvalue_fn(np.asarray(tau, dtype=float))


def zero_nonlinearity():
    return Nonlinearity(value_fn=np.zeros_like, dvalue_fn=np.zeros_like,
                        r=0.0, coeff=None)


def power_nonlinearity(coeff, r):
    """f(x, tau) = coeff(x) * |tau|^r * tau with d_tau f = (r+1) coeff(x) |tau|^r.

    coeff is a scalar or holds one entry per omega node, matched against the
    last axis of tau; r >= 0.
    """
    if r < 0:
        raise NonlinearityError(f"power exponent r={r} must be nonnegative")
    coeff = np.asarray(coeff, dtype=float)
    if coeff.ndim > 1:
        raise NonlinearityError(f"coefficient of shape {coeff.shape} is neither a scalar "
                                "nor one entry per node")
    if not np.all(np.isfinite(coeff)):
        raise NonlinearityError("power-law coefficient must be finite")

    def pick(tau):
        if coeff.ndim and tau.shape[-1:] != coeff.shape:
            raise NonlinearityError(f"coefficient length {coeff.size} matches neither "
                                    f"a scalar nor the columns of a {tau.shape} field")
        return coeff

    def value_fn(tau):
        return pick(tau) * np.abs(tau) ** r * tau

    def dvalue_fn(tau):
        return (r + 1.0) * pick(tau) * np.abs(tau) ** r

    return Nonlinearity(value_fn=value_fn, dvalue_fn=dvalue_fn, r=float(r),
                        coeff=coeff)


def apply(f, u):
    """Evaluate f at a spacetime field u (time on the first axis, omega nodes on the last)."""
    u = np.asarray(u, dtype=float)
    out = f.value(u)
    if not np.all(np.isfinite(out)):
        raise NonlinearityError("nonlinearity produced a non-finite value")
    return out


def apply_derivative(f, u):
    """Evaluate d_tau f at a spacetime field u; the multiplier of the Fréchet differential."""
    u = np.asarray(u, dtype=float)
    out = f.dvalue(u)
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


def _nonnegative_fit(design, y):
    """Least squares design @ c ~ y over c >= 0, for a two-column design.

    The unconstrained fit when both coefficients come out nonnegative;
    otherwise the optimum lies on a face c_j = 0, so it is the better of the
    two one-column fits, each clipped at 0.
    """
    sol = np.linalg.lstsq(design, y, rcond=None)[0]
    if np.all(sol >= 0.0):
        return sol
    faces = np.diag(np.maximum(design.T @ y, 0.0) / np.sum(design * design, axis=0))
    return min(faces, key=lambda c: np.sum((design @ c - y) ** 2))


def certify_growth(f, tau_range, n_samples=512, r=None):
    """Fit |d_tau f| <= A + B|tau|^r over sampled tau and report the worst violation.

    (A, B) come from a nonnegative least-squares fit of |dvalue| against
    (1, |tau|^r); for an exact power law the fit reproduces (0, (r+1)*max|coeff|)
    and the violation vanishes, while growth faster than |tau|^r leaves a
    strictly positive violation.
    """
    if r is None:
        r = f.r
    if r is None:
        raise NonlinearityError("certify_growth needs an exponent r")
    lo, hi = map(float, tau_range)
    tau = np.linspace(lo, hi, n_samples)
    # one row per sample, and one column per node of a nodal coefficient
    y = np.abs(f.dvalue(tau[:, None] * np.ones(np.shape(f.coeff)[-1:] or 1))).max(axis=1)
    design = np.column_stack([np.ones_like(tau), np.abs(tau) ** r])
    A, B = map(float, _nonnegative_fit(design, y))
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
