"""Window controls: compatibility, spline families, reversal, basis elements."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import binom

from viscowave import ControlError, bump_control, make_control, space_bump, time_bump
from viscowave.controls import (ControlBasis, _cubic_bspline, _spline_samples, materialize,
                                spline_indices)
from viscowave.grid import GridError


def test_time_bump_support_and_derivative():
    t = np.linspace(0.0, 1.0, 4001)
    val, der = time_bump(t, 0.2, 0.7)
    outside = (t <= 0.2) | (t >= 0.7)
    assert_allclose(val[outside], 0.0)
    assert_allclose(der[outside], 0.0)
    assert val.max() == pytest.approx(1.0, abs=1e-6)
    # derivative against central differences away from the support edges
    mid = (t > 0.25) & (t < 0.65)
    fd = np.gradient(val, t)
    assert np.max(np.abs(der[mid] - fd[mid])) < 1e-3 * np.max(np.abs(der))


def test_bump_control_compatibility_and_support(grid31):
    dt, nt = 0.02, 50
    ctl = bump_control(grid31, "w1", 0.1, 0.9, dt, nt)
    assert_allclose(ctl.values[0], 0.0)
    assert_allclose(ctl.values[1], 0.0)
    assert_allclose(ctl.dvalues[0], 0.0)
    mask = np.ones(grid31.n_nodes, dtype=bool)
    mask[grid31.w1] = False
    assert not ctl.values[:, mask].any()
    assert ctl.values[:, grid31.w1].any()
    assert ctl.t_final == pytest.approx(1.0)


def test_bump_control_amplitude_scales_linearly(grid31):
    a = bump_control(grid31, "w2", 0.1, 0.9, 0.02, 50, amplitude=1.0)
    b = bump_control(grid31, "w2", 0.1, 0.9, 0.02, 50, amplitude=2.5)
    assert_allclose(b.values, 2.5 * a.values, rtol=1e-14)
    assert_allclose(b.dvalues, 2.5 * a.dvalues, rtol=1e-14)


def test_make_control_rejects_bad_support(grid31):
    nt = 10
    vals = np.zeros((nt + 1, grid31.n_nodes))
    vals[3, grid31.omega[0]] = 1.0
    with pytest.raises(ControlError, match="outside window"):
        make_control(grid31, vals, np.zeros_like(vals), "w1", 0.1)


def test_make_control_rejects_nonzero_initial_data(grid31):
    nt = 10
    vals = np.zeros((nt + 1, grid31.n_nodes))
    vals[1, grid31.w1[0]] = 1.0
    with pytest.raises(ControlError, match="zero initial data"):
        make_control(grid31, vals, np.zeros_like(vals), "w1", 0.1)


def test_make_control_rejects_shape_mismatch(grid31):
    vals = np.zeros((11, grid31.n_nodes))
    with pytest.raises(ControlError, match="n_time_nodes"):
        make_control(grid31, vals, vals[:-1], "w1", 0.1)


def test_space_bump_supported_on_window(grid31):
    prof = space_bump(grid31, "w1")
    mask = np.ones(grid31.n_nodes, dtype=bool)
    mask[grid31.w1] = False
    assert_allclose(prof[mask], 0.0)
    assert prof[grid31.w1].max() > 0.5


def test_spline_family_counts_and_interior_support():
    assert spline_indices(8) == [1, 2, 3]
    assert spline_indices(16) == list(range(1, 12))
    assert len(spline_indices(32)) == 27
    t = np.linspace(0.0, 1.0, 301)
    for val, der in zip(*_spline_samples(t, 1.0, 8)):
        assert val[0] == 0.0 and val[-1] == 0.0
        assert der[0] == 0.0
        assert val.max() > 0.4


def test_spline_level_validation():
    with pytest.raises(ControlError, match="at least 7"):
        _spline_samples(np.linspace(0.0, 1.0, 11), 1.0, 6)


@pytest.mark.parametrize("t_final", [1.0, 0.7])
def test_closed_form_spline_matches_scipy_basis_element(t_final):
    # scipy rounds each knot k*delta on its own, so the two agree to a few
    # ulp of the knot index, not to the last bit
    from scipy.interpolate import BSpline

    for n_seg in (7, 8, 16, 32):
        delta = t_final / n_seg
        for k in spline_indices(n_seg):
            knots = delta * np.arange(k, k + 5, dtype=float)
            ref = BSpline.basis_element(knots, extrapolate=False)
            t = np.concatenate([np.linspace(0.0, t_final, 1001), knots])
            val, der = (samples[k - 1] for samples in _spline_samples(t, t_final, n_seg))
            for got, want in ((val, ref(t)), (der, ref.derivative()(t))):
                want = np.nan_to_num(want, nan=0.0)
                assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_spline_samples_are_read_only_and_unchanged(grid31):
    dt, nt = 0.02, 50
    val, der = _spline_samples(dt * np.arange(nt + 1), 1.0, 16)
    basis = ControlBasis(grid31, "w1", dt, 1.0, 16)
    tv, td = basis.values, basis.dvalues
    assert tv.tobytes() == val.tobytes() and td.tobytes() == der.tobytes()
    assert not tv.flags.writeable and not td.flags.writeable


# (dt, t_final, level): the benchmark's grid, a horizon that dt divides only
# up to rounding, 1,000 steps, and a level with more segments than steps
SAMPLING_GRIDS = [(0.02, 1.0, 8), (5e-3, 1.0, 16), (0.003, 0.9, 16), (0.01, 0.7, 10),
                  (1e-3, 1.0, 32), (0.25, 1.0, 7)]


@pytest.mark.parametrize("dt,t_final,n_seg", SAMPLING_GRIDS)
def test_basis_samples_every_spline_as_its_own_bspline(grid31, dt, t_final, n_seg):
    # the one vectorized sampling equals sampling each spline on its own,
    # to the last bit
    basis = ControlBasis(grid31, "w2", dt, t_final, n_seg)
    t = dt * np.arange(basis.n_steps + 1)
    delta = t_final / n_seg
    for row, k in enumerate(spline_indices(n_seg)):
        val, slope = _cubic_bspline((t - delta * k) / delta)
        assert basis.values[row].tobytes() == val.tobytes()
        assert basis.dvalues[row].tobytes() == (slope / delta).tobytes()
    for arr in (basis.values, basis.dvalues):
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0


def test_spline_dyadic_nesting():
    # two-scale relation: a level-8 spline is an exact combination of
    # level-16 splines with binomial weights (1,4,6,4,1)/8
    t = np.linspace(0.0, 1.0, 517)
    coarse, fine_levels = _spline_samples(t, 1.0, 8)[0], _spline_samples(t, 1.0, 16)[0]
    for k in (1, 2, 3):
        fine = np.zeros_like(t)
        for j in range(5):
            fine += binom(4, j) / 8.0 * fine_levels[2 * k + j - 1]
        assert_allclose(coarse[k - 1], fine, atol=1e-12)


def test_basis_layout_and_time_matrix(grid31):
    basis = ControlBasis(grid31, "w1", 0.02, 1.0, 8)
    assert len(basis) == len(grid31.w1) * 3
    tm = basis.values
    assert tm.shape == (3, 51)
    controls = [materialize(basis, i) for i in range(len(basis))]
    assert len(controls) == len(basis)
    # element order is node-major, spline-minor: each element lives on one
    # node, and the first three share the first node
    supports = [np.flatnonzero(c.values.any(axis=0)).tolist() for c in controls]
    assert supports[:4] == [[basis.nodes[0]]] * 3 + [[basis.nodes[1]]]
    assert supports[-1] == [basis.nodes[-1]]
    # time-matrix rows are the samples of each element at its node
    dtm = basis.dvalues
    node = basis.nodes[0]
    for k, ctrl in enumerate(controls[:3]):
        assert np.array_equal(ctrl.values[:, node], tm[k])
        assert np.array_equal(ctrl.dvalues[:, node], dtm[k])


def test_control_of_a_unit_vector_is_the_element(grid31):
    basis = ControlBasis(grid31, "w2", 0.02, 1.0, 8)
    tm, dtm = basis.values, basis.dvalues
    for i in (0, 4, len(basis) - 1):
        unit = np.zeros(len(basis))
        unit[i] = 1.0
        ctrl = basis.control(unit)
        node, k = basis.nodes[i // 3], i % 3
        assert ctrl.values[:, node].tobytes() == tm[k].tobytes()
        assert ctrl.dvalues[:, node].tobytes() == dtm[k].tobytes()
        assert not np.delete(ctrl.values, node, axis=1).any()
        assert not np.delete(ctrl.dvalues, node, axis=1).any()
        elem = materialize(basis, i)
        assert elem.values.tobytes() == ctrl.values.tobytes()
        assert elem.dvalues.tobytes() == ctrl.dvalues.tobytes()


def test_control_is_linear_in_its_coefficients(grid31, rng):
    basis = ControlBasis(grid31, "w1", 0.02, 1.0, 8)
    coeffs = rng.normal(size=len(basis))
    ctrl = basis.control(coeffs)
    summed = sum(c * materialize(basis, i).values for i, c in enumerate(coeffs))
    assert_allclose(ctrl.values, summed, rtol=1e-13, atol=1e-15)
    with pytest.raises(ControlError, match="coefficients"):
        basis.control(coeffs[:-1])


def test_reversal_permutation_is_involution(grid31):
    basis = ControlBasis(grid31, "w2", 0.02, 1.0, 16)
    perm = basis.reversal_permutation()
    assert np.array_equal(perm[perm], np.arange(len(basis)))


def test_reversal_permutation_reverses_samples(grid31):
    basis = ControlBasis(grid31, "w1", 0.02, 1.0, 8)
    perm = basis.reversal_permutation()
    controls = [materialize(basis, i) for i in range(len(basis))]
    for i in (0, 1, 2, 7):
        rev = controls[perm[i]]
        assert_allclose(rev.values, controls[i].values[::-1], atol=1e-12)


def test_materialize_rejects_out_of_range_index(grid31):
    basis = ControlBasis(grid31, "w1", 0.02, 1.0, 8)
    for index in (len(basis), -1):
        with pytest.raises(ControlError, match="outside"):
            materialize(basis, index)


def test_basis_rejects_bad_level_and_window(grid31):
    # checked when the basis is built, before any spline is sampled
    with pytest.raises(ControlError, match="at least 7"):
        ControlBasis(grid31, "w1", 0.02, 1.0, 6)
    with pytest.raises(GridError, match="unknown window"):
        ControlBasis(grid31, "omega", 0.02, 1.0, 8)


def test_control_arrays_immutable(grid31):
    ctl = bump_control(grid31, "w1", 0.1, 0.9, 0.02, 50)
    with pytest.raises(ValueError):
        ctl.values[0, 0] = 1.0
