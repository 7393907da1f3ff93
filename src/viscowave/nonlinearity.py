"""Pointwise (superposition) nonlinearities f(x, u) and their derivative pairs."""

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


def check_exponent_constraints(s, r):
    """Messages for a homogeneity degree r outside the admissible one-dimensional range.

    For spatial dimension one, r is unrestricted when 2s >= 1 and must
    satisfy r <= 2s/(1-2s) when 2s < 1.  Returns the list of messages, empty
    inside the range.
    """
    # r(1-2s) > 2s, with room for the rounding of decimal inputs: the double
    # nearest 0.3 lies below 0.3, so r = 1.5 would exceed its exact bound
    if 2 * s < 1 and r * (1 - 2 * s) > 2 * s * (1 + 1e-12):
        return [f"homogeneity degree r={r} above the admissible bound "
                f"2s/(1-2s)={2 * s / (1 - 2 * s):.3f} for s={s}"]
    return []
