"""Grid construction: index sets, membership rules, and geometry errors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import BOX, OMEGA, W1, W2, standard_grid
from viscowave import GridError, build_grid


def test_worked_example_61_nodes():
    g = standard_grid(61)
    assert g.h == pytest.approx(0.05)
    # nodes strictly inside (0, 1): 0.05, 0.10, ..., 0.95
    assert len(g.omega) == 19
    # half-open windows [-0.8, -0.2) and [1.2, 1.8) each hold 12 nodes
    assert len(g.w1) == 12
    assert len(g.w2) == 12
    assert_allclose(g.x, -1.0 + 0.05 * np.arange(61), atol=1e-14)


def test_index_sets_disjoint_and_exterior_complement():
    g = standard_grid(61)
    om, w1, w2 = set(g.omega), set(g.w1), set(g.w2)
    assert not om & w1 and not om & w2 and not w1 & w2
    assert w1 | w2 <= set(g.exterior)
    assert om | set(g.exterior) == set(range(g.n_nodes))


def test_membership_is_strict_interior_half_open_windows():
    g = standard_grid(61)
    assert_allclose(g.x[g.omega].min(), 0.05)
    assert_allclose(g.x[g.omega].max(), 0.95)
    # window left endpoints included, right endpoints excluded
    assert_allclose(g.x[g.w1].min(), -0.8)
    assert_allclose(g.x[g.w1].max(), -0.25)
    assert_allclose(g.x[g.w2].min(), 1.2)
    assert_allclose(g.x[g.w2].max(), 1.75)


def test_window_lookup():
    g = standard_grid(31)
    assert np.array_equal(g.window("w1"), g.w1)
    assert np.array_equal(g.window("w2"), g.w2)
    with pytest.raises(GridError, match="unknown window"):
        g.window("w3")


def test_overlapping_windows_rejected():
    with pytest.raises(GridError, match="windows overlap"):
        build_grid(BOX, OMEGA, (-0.8, -0.2), (-0.5, -0.1), 61)


def test_window_inside_interior_rejected():
    with pytest.raises(GridError, match="intersects the closed interior"):
        build_grid(BOX, OMEGA, (0.2, 0.4), W2, 61)


def test_no_exterior_collar_rejected():
    with pytest.raises(GridError, match="collar"):
        build_grid((-1.0, 1.0), (0.0, 1.0), W1, (-0.95, -0.9), 61)


def test_too_few_nodes_rejected():
    with pytest.raises(GridError, match="too small"):
        build_grid(BOX, OMEGA, W1, W2, 8)


def test_empty_window_rejected():
    with pytest.raises(GridError, match="empty window"):
        build_grid(BOX, OMEGA, (-0.213, -0.211), W2, 61)
    with pytest.raises(GridError, match="^empty window w2"):
        build_grid(BOX, OMEGA, W1, (1.21, 1.22), 31)


def test_empty_omega_rejected():
    # nodes 0.0 and 0.05 straddle the interior interval
    with pytest.raises(GridError, match="^empty omega"):
        build_grid(BOX, (0.01, 0.04), W1, W2, 61)


def test_degenerate_intervals_rejected():
    with pytest.raises(GridError):
        build_grid((2.0, -1.0), OMEGA, W1, W2, 61)
    with pytest.raises(GridError):
        build_grid(BOX, (1.0, 0.0), W1, W2, 61)
    with pytest.raises(GridError, match="degenerate window"):
        build_grid(BOX, OMEGA, (-0.2, -0.8), W2, 61)


def test_window_outside_box_rejected():
    with pytest.raises(GridError, match="outside the box"):
        build_grid(BOX, OMEGA, (-1.5, -0.2), W2, 61)


@settings(max_examples=30, deadline=None)
@given(n_nodes=st.integers(min_value=16, max_value=200))
def test_index_sets_consistent_at_any_resolution(n_nodes):
    g = standard_grid(n_nodes)
    assert g.omega.size > 0
    om, w1, w2 = set(g.omega), set(g.w1), set(g.w2)
    assert not om & w1 and not om & w2 and not w1 & w2
    assert np.all((g.x[g.omega] > 0.0) & (g.x[g.omega] < 1.0))
    assert np.all((g.x[g.w1] >= -0.8) & (g.x[g.w1] < -0.2))
    assert np.all((g.x[g.w2] >= 1.2) & (g.x[g.w2] < 1.8))


def test_grid_arrays_immutable():
    g = standard_grid(31)
    with pytest.raises(ValueError):
        g.x[0] = 0.0
    with pytest.raises(ValueError):
        g.omega[0] = 0
