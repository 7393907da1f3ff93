"""Uniform 1D grid on a truncation box with interior region and two exterior windows."""

from dataclasses import dataclass, field

import numpy as np


class GridError(ValueError):
    """Raised when the requested geometry violates a construction constraint."""


@dataclass(frozen=True)
class Grid:
    """Nodes of a uniform grid on [box_lo, box_hi].

    ``omega`` holds the indices of nodes strictly inside the interior interval,
    ``w1``/``w2`` the indices of the two disjoint exterior windows.  Functions on
    the grid are represented by nodal vectors of length ``n_nodes`` and are
    understood to vanish identically outside the box.
    """

    box_lo: float
    box_hi: float
    n_nodes: int
    omega_lo: float
    omega_hi: float
    w1_lo: float
    w1_hi: float
    w2_lo: float
    w2_hi: float
    x: np.ndarray = field(repr=False, compare=False, default=None)
    omega: np.ndarray = field(repr=False, compare=False, default=None)
    w1: np.ndarray = field(repr=False, compare=False, default=None)
    w2: np.ndarray = field(repr=False, compare=False, default=None)

    @property
    def h(self):
        return (self.box_hi - self.box_lo) / (self.n_nodes - 1)

    @property
    def exterior(self):
        """Indices of all nodes not strictly inside the interior interval."""
        mask = np.ones(self.n_nodes, dtype=bool)
        mask[self.omega] = False
        return np.nonzero(mask)[0]

    def window(self, name):
        if name == "w1":
            return self.w1
        if name == "w2":
            return self.w2
        raise GridError(f"unknown window {name!r}, expected 'w1' or 'w2'")


def build_grid(box, omega, w1, w2, n_nodes):
    """Construct a :class:`Grid`.

    box, omega, w1, w2 : (lo, hi) coordinate pairs
    n_nodes : number of uniformly spaced nodes on the box, endpoints included

    Interior membership is strict (open interval); window membership is
    half-open, lo <= x < hi.  Raises :class:`GridError` naming the violated
    constraint for overlapping windows, windows touching the closed interior,
    a missing exterior collar, or an empty index set.
    """
    box_lo, box_hi = map(float, box)
    omega_lo, omega_hi = map(float, omega)
    w1_lo, w1_hi = map(float, w1)
    w2_lo, w2_hi = map(float, w2)

    if not box_lo < box_hi:
        raise GridError("degenerate box: box_lo must be < box_hi")
    if n_nodes < 16:
        raise GridError(f"n_nodes={n_nodes} too small, need at least 16")
    if not (omega_lo < omega_hi):
        raise GridError("degenerate interior interval")
    if not (box_lo < omega_lo and omega_hi < box_hi):
        raise GridError("no exterior collar: interior must be compactly contained in the box")
    for name, (lo, hi) in (("w1", (w1_lo, w1_hi)), ("w2", (w2_lo, w2_hi))):
        if not lo < hi:
            raise GridError(f"degenerate window {name}")
        if not (box_lo <= lo and hi <= box_hi):
            raise GridError(f"window {name} extends outside the box")
        if lo < omega_hi and hi > omega_lo:
            raise GridError(f"window {name} intersects the closed interior interval")
    if w1_lo < w2_hi and w1_hi > w2_lo:
        raise GridError("windows overlap")

    x = np.linspace(box_lo, box_hi, n_nodes)
    om = np.nonzero((x > omega_lo) & (x < omega_hi))[0]
    i1 = np.nonzero((x >= w1_lo) & (x < w1_hi))[0]
    i2 = np.nonzero((x >= w2_lo) & (x < w2_hi))[0]
    if om.size == 0:
        raise GridError("empty omega: no node falls strictly inside the interior interval")
    if i1.size == 0:
        raise GridError("empty window w1: no node falls in [w1_lo, w1_hi)")
    if i2.size == 0:
        raise GridError("empty window w2: no node falls in [w2_lo, w2_hi)")

    for arr in (x, om, i1, i2):
        arr.setflags(write=False)
    return Grid(box_lo, box_hi, n_nodes, omega_lo, omega_hi, w1_lo, w1_hi,
                w2_lo, w2_hi, x=x, omega=om, w1=i1, w2=i2)
