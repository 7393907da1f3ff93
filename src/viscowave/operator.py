"""Dense matrix discretization of the 1D fractional Laplacian and the norms built on it.

The operator acts on nodal vectors that vanish identically outside the grid box.
Assembly integrates the hypersingular kernel against the piecewise-linear nodal
interpolant cell by cell: the singular cell is replaced by a second-difference
term that is exact for locally quadratic functions, every other cell is
integrated in closed form, and the kernel mass beyond the box (where the
function is zero) is added analytically to the diagonal.  The result is
symmetric, strictly diagonally dominant (hence positive definite) and has
nonpositive off-diagonal entries.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import Grid


class OperatorError(ValueError):
    pass


def fraclap_normalization(s):
    """Kernel constant making the continuum symbol exactly |xi|^(2s)."""
    if not 0.0 < s < 1.0:
        raise OperatorError(f"order s={s} outside (0, 1)")
    return 2.0 ** (2 * s) * s * math.gamma(s + 0.5) / (np.sqrt(np.pi) * math.gamma(1.0 - s))


def _collocation_weights(s, h, nmax):
    """Weights w_j, j = 1..nmax, of the interaction with the node j cells away.

    Row form of the operator: (Lv)_i = sum_{j != 0} w_|j| (v_i - v_{i+j}) over
    the infinite lattice, with v frozen to zero beyond the box.
    """
    a = 2.0 * s
    c = fraclap_normalization(s)
    k = np.arange(1, nmax + 2, dtype=float)
    # I_k = int_{kh}^{(k+1)h} y^(-1-a) dy,  J_k = int_{kh}^{(k+1)h} y^(-a) dy
    I = ((k * h) ** (-a) - ((k + 1) * h) ** (-a)) / a
    e = 1.0 - a
    if abs(e) < 1e-12:
        J = np.log1p(1.0 / k)
    else:
        # stable for a near 1: (kh)^e * ((1+1/k)^e - 1) / e
        J = (k * h) ** e * np.expm1(e * np.log1p(1.0 / k)) / e
    T = np.empty(nmax)
    T[0] = 2.0 * I[0] - J[0] / h
    j = np.arange(2, nmax + 1)
    T[1:] = J[j - 2] / h - (j - 1) * I[j - 2] + (j + 1) * I[j - 1] - J[j - 1] / h
    w = c * T
    # singular cell: second-difference regularization, exact for quadratics
    w[0] += c * h ** (-a) / (2.0 - 2.0 * s)
    return w


@dataclass(frozen=True)
class FracLapOperator:
    """Assembled operator with its grid, order, and the eigenpairs of its
    omega block.

    omega_block = modes diag(eigenvalues) modes^T, with the eigenvalues
    ascending and the modes orthonormal columns; lambda_min is the smallest
    eigenvalue.  Everything that works in the interior energy basis reads
    them here, so each operator is decomposed once.
    """

    grid: Grid
    s: float
    matrix: np.ndarray = field(repr=False, compare=False)
    lambda_min: float
    eigenvalues: np.ndarray = field(repr=False, compare=False)
    modes: np.ndarray = field(repr=False, compare=False)

    @property
    def omega_block(self):
        om = self.grid.omega
        return self.matrix[np.ix_(om, om)]


def assemble_fraclap(grid, s):
    """Assemble the operator matrix on the grid for order s in (0, 1)."""
    if not isinstance(grid, Grid):
        raise OperatorError("assemble_fraclap needs a Grid")
    if not 0.0 < s < 1.0:
        raise OperatorError(f"order s={s} outside (0, 1)")
    n = grid.n_nodes
    h = grid.h
    w = _collocation_weights(s, h, n - 1)
    # diagonal = full lattice row sum 2*sum_j w_j, available in closed form
    diag = fraclap_normalization(s) * h ** (-2 * s) / (s * (1.0 - s))
    offsets = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
    L = -w[np.clip(offsets - 1, 0, n - 2)]
    np.fill_diagonal(L, diag)
    L.setflags(write=False)

    om = grid.omega
    lam, modes = np.linalg.eigh(L[np.ix_(om, om)])
    if not lam[0] > 0.0:
        raise OperatorError(f"interior block not positive definite: lambda_min={lam[0]}")
    lam.setflags(write=False)
    modes.setflags(write=False)
    return FracLapOperator(grid=grid, s=s, matrix=L, lambda_min=float(lam[0]),
                           eigenvalues=lam, modes=modes)


def norm_l2(grid, v):
    """Discrete L2 norm sqrt(h * v·v); accepts stacked fields on the last axis."""
    v = np.asarray(v, dtype=float)
    return np.sqrt(grid.h * np.sum(v * v, axis=-1))


def seminorm_hs(op, v):
    """Energy seminorm sqrt(h * v·Lv) of a nodal vector supported in the box."""
    v = np.asarray(v, dtype=float)
    q = np.sum(v * (v @ op.matrix), axis=-1)
    return np.sqrt(op.grid.h * np.maximum(q, 0.0))


def dualnorm_hminus(op, g):
    """Dual norm sqrt(h * g·inv(L_omega)·g) = sqrt(h sum_m (V^T g)_m^2 / lam_m) of a
    functional g supported on omega, given on the full grid (zero outside omega)."""
    g = np.asarray(g, dtype=float)
    outside = np.delete(g, op.grid.omega, axis=-1)
    if outside.size and np.max(np.abs(outside)) != 0.0:
        raise OperatorError("dual norm argument has support outside omega")
    coords = g[..., op.grid.omega] @ op.modes
    q = np.sum(coords * coords / op.eigenvalues, axis=-1)
    return np.sqrt(op.grid.h * np.maximum(q, 0.0))
