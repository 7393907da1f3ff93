"""Window controls: compatibility, spline families, reversal, serialization."""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import binom

from viscowave import ControlError, bump_control, make_control, space_bump, time_bump
from viscowave.controls import (ControlBasis, ControlSpec, materialize,
                                spline_indices, _spline_pair, _spline_samples)


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
    for k in spline_indices(8):
        val, der = _spline_pair(1.0, 8, k)
        assert val(0.0) == 0.0 and val(1.0) == 0.0
        assert der(0.0) == 0.0
        assert val(t).max() > 0.4


def test_spline_level_validation():
    with pytest.raises(ControlError, match="at least 7"):
        _spline_pair(1.0, 6, 1)
    with pytest.raises(ControlError, match="outside"):
        _spline_pair(1.0, 8, 4)


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
            val, der = _spline_pair(t_final, n_seg, k)
            for got, want in ((val(t), ref(t)), (der(t), ref.derivative()(t))):
                want = np.nan_to_num(want, nan=0.0)
                assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_spline_samples_are_cached_read_only_and_unchanged():
    dt, nt = 0.02, 50
    val, der = _spline_pair(1.0, 16, 3)
    t = dt * np.arange(nt + 1)
    tv, td = _spline_samples(1.0, 16, 3, dt, nt)
    assert tv.tobytes() == val(t).tobytes() and td.tobytes() == der(t).tobytes()
    assert not tv.flags.writeable and not td.flags.writeable
    assert _spline_samples(1.0, 16, 3, dt, nt)[0] is tv


def test_spline_dyadic_nesting():
    # two-scale relation: a level-8 spline is an exact combination of
    # level-16 splines with binomial weights (1,4,6,4,1)/8
    t = np.linspace(0.0, 1.0, 517)
    for k in (1, 2, 3):
        coarse, _ = _spline_pair(1.0, 8, k)
        fine = np.zeros_like(t)
        for j in range(5):
            val, _ = _spline_pair(1.0, 16, 2 * k + j)
            fine += binom(4, j) / 8.0 * val(t)
        assert_allclose(coarse(t), fine, atol=1e-12)


def test_basis_layout_and_time_matrix(grid31):
    basis = ControlBasis(grid31, "w1", 1.0, 8)
    assert len(basis) == len(grid31.w1) * 3
    tm = basis.time_matrix(0.02, 50)
    assert tm.shape == (3, 51)
    controls = [materialize(sp, grid31, 0.02, 50) for sp in basis.specs]
    assert len(controls) == len(basis)
    # element order is node-major, spline-minor
    assert basis.specs[0].space_params[0] == basis.nodes[0]
    assert basis.specs[1].space_params[0] == basis.nodes[0]
    assert basis.specs[0].time_params[2] == 1
    assert basis.specs[1].time_params[2] == 2
    # time-matrix rows are the samples of each element at its node
    dtm = basis.time_dmatrix(0.02, 50)
    node = basis.nodes[0]
    for k, ctrl in enumerate(controls[:3]):
        assert np.array_equal(ctrl.values[:, node], tm[k])
        assert np.array_equal(ctrl.dvalues[:, node], dtm[k])


def test_reversal_permutation_is_involution(grid31):
    basis = ControlBasis(grid31, "w2", 1.0, 16)
    perm = basis.reversal_permutation()
    assert np.array_equal(perm[perm], np.arange(len(basis)))


def test_reversal_permutation_reverses_samples(grid31):
    dt, nt = 0.02, 50
    basis = ControlBasis(grid31, "w1", 1.0, 8)
    perm = basis.reversal_permutation()
    controls = [materialize(sp, grid31, dt, nt) for sp in basis.specs]
    for i in (0, 1, 2, 7):
        rev = controls[perm[i]]
        assert_allclose(rev.values, controls[i].values[::-1], atol=1e-12)


def test_spec_serialization_round_trip():
    spec = ControlSpec(window="w1", space_kind="node", space_params=(4,),
                       time_kind="spline", time_params=(1.0, 8, 2),
                       amplitude=0.7)
    assert ControlSpec.from_dict(spec.to_dict()) == spec


def test_spec_time_reversed_bump():
    spec = ControlSpec(window="w2", space_kind="bump", space_params=(1.2, 1.8),
                       time_kind="bump", time_params=(0.1, 0.4))
    rev = spec.time_reversed(1.0)
    assert rev.time_params == (0.6, 0.9)
    back = rev.time_reversed(1.0)
    assert_allclose(back.time_params, spec.time_params, rtol=1e-15)
    # exactly, although 1.0 - 0.9 != 0.1 in floating point
    assert back.time_params == spec.time_params
    assert back.time_reversed(1.0).time_params == rev.time_params
    # a spec read back from its dict is reversed afresh
    assert ControlSpec.from_dict(rev.to_dict()).time_reversed(1.0).time_params == (
        1.0 - 0.9, 1.0 - 0.6)


def test_materialize_rejects_bad_specs(grid31):
    bad_node = ControlSpec(window="w1", space_kind="node",
                           space_params=(grid31.omega[0],),
                           time_kind="spline", time_params=(1.0, 8, 1))
    with pytest.raises(ControlError, match="not in window"):
        materialize(bad_node, grid31, 0.02, 50)
    bad_kind = ControlSpec(window="w1", space_kind="blob", space_params=(),
                           time_kind="spline", time_params=(1.0, 8, 1))
    with pytest.raises(ControlError, match="space profile"):
        materialize(bad_kind, grid31, 0.02, 50)


def test_from_specs_round_trip(grid31):
    basis = ControlBasis(grid31, "w1", 1.0, 8)
    rebuilt = ControlBasis.from_specs(grid31, list(basis.specs))
    assert rebuilt.specs == basis.specs
    assert rebuilt.nodes == basis.nodes
    assert rebuilt.n_segments == basis.n_segments


def test_from_specs_validation(grid31):
    basis1 = ControlBasis(grid31, "w1", 1.0, 8)
    basis2 = ControlBasis(grid31, "w2", 1.0, 8)
    with pytest.raises(ControlError, match="empty"):
        ControlBasis.from_specs(grid31, [])
    with pytest.raises(ControlError, match="mixes windows"):
        ControlBasis.from_specs(grid31, [basis1.specs[0], basis2.specs[0]])
    shuffled = list(basis1.specs)
    shuffled[0], shuffled[1] = shuffled[1], shuffled[0]
    with pytest.raises(ControlError, match="order"):
        ControlBasis.from_specs(grid31, shuffled)
    bump = ControlSpec(window="w1", space_kind="bump", space_params=(-0.8, -0.2),
                       time_kind="bump", time_params=(0.1, 0.4))
    with pytest.raises(ControlError, match="node x spline"):
        ControlBasis.from_specs(grid31, [bump])
    # a basis pass steps unit elements; it never samples a spec's amplitude
    scaled = [dataclasses.replace(sp, amplitude=2.0) for sp in basis1.specs]
    with pytest.raises(ControlError, match="amplitude 1"):
        ControlBasis.from_specs(grid31, scaled)


def test_control_arrays_immutable(grid31):
    ctl = bump_control(grid31, "w1", 0.1, 0.9, 0.02, 50)
    with pytest.raises(ValueError):
        ctl.values[0, 0] = 1.0
