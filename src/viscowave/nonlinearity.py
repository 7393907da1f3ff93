"""Homogeneous power-law nonlinearities f(x, u) = q(x) |u|^r u and their derivatives."""

from dataclasses import dataclass, field

import numpy as np


class NonlinearityError(ValueError):
    pass


@dataclass(frozen=True)
class Nonlinearity:
    """f(x, tau) = coeff(x) * |tau|^r * tau, acting node by node.

    coeff is a scalar or holds one entry per omega node, matched against the
    last axis of tau; f(x, lam*tau) = lam^(r+1) f(x, tau) for lam > 0.  Both
    evaluations raise NonlinearityError on a result that is not finite.
    """

    coeff: np.ndarray = field(repr=False)
    r: float

    def _tau(self, tau):
        tau = np.asarray(tau, dtype=float)
        if self.coeff.ndim and tau.shape[-1:] != self.coeff.shape:
            raise NonlinearityError(f"coefficient length {self.coeff.size} matches neither "
                                    f"a scalar nor the columns of a {tau.shape} field")
        return tau

    def value(self, tau):
        """f at tau, e.g. a spacetime field with time first and omega nodes last."""
        tau = self._tau(tau)
        return _finite(self.coeff * np.abs(tau) ** self.r * tau, "nonlinearity")

    def dvalue(self, tau):
        """d_tau f at tau: (r+1) coeff |tau|^r, the multiplier of the Fréchet differential."""
        tau = self._tau(tau)
        return _finite((self.r + 1.0) * self.coeff * np.abs(tau) ** self.r,
                       "nonlinearity derivative")


def _finite(out, what):
    if not np.all(np.isfinite(out)):
        raise NonlinearityError(f"{what} produced a non-finite value")
    return out


def zero_nonlinearity():
    return power_nonlinearity(0.0, 0.0)


def power_nonlinearity(coeff, r):
    """The Nonlinearity coeff(x) * |tau|^r * tau, for r >= 0 and a finite coeff
    that is a scalar or holds one entry per omega node."""
    if r < 0:
        raise NonlinearityError(f"power exponent r={r} must be nonnegative")
    coeff = np.asarray(coeff, dtype=float)
    if coeff.ndim > 1:
        raise NonlinearityError(f"coefficient of shape {coeff.shape} is neither a scalar "
                                "nor one entry per node")
    if not np.all(np.isfinite(coeff)):
        raise NonlinearityError("power-law coefficient must be finite")
    return Nonlinearity(coeff, float(r))


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
