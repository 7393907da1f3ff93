"""Power-law nonlinearities: worked values, homogeneity, exponent range."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from viscowave import (NonlinearityError, check_exponent_constraints, power_nonlinearity,
                       zero_nonlinearity)


def test_worked_example_cubic():
    f = power_nonlinearity(1.0, 2)
    assert f.value(2.0) == pytest.approx(8.0)
    assert f.dvalue(2.0) == pytest.approx(12.0)


def test_worked_example_quadratic_negative_argument():
    f = power_nonlinearity(1.0, 1)
    assert f.value(-3.0) == pytest.approx(-9.0)
    assert f.dvalue(-3.0) == pytest.approx(6.0)


def test_value_and_derivative_vanish_at_zero():
    for r in (0.5, 1, 2):
        f = power_nonlinearity(2.3, r)
        assert f.value(0.0) == 0.0
        assert f.dvalue(0.0) == 0.0


def test_zero_nonlinearity():
    f = zero_nonlinearity()
    tau = np.linspace(-3, 3, 7)
    assert_allclose(f.value(tau), 0.0)
    assert_allclose(f.dvalue(tau), 0.0)


@settings(max_examples=50, deadline=None)
@given(tau=st.floats(min_value=-10, max_value=10,
                     allow_nan=False, allow_infinity=False),
       lam=st.sampled_from([0.5, 2.0, 10.0]),
       r=st.sampled_from([0.5, 1.0, 2.0]))
def test_homogeneity_identity(tau, lam, r):
    f = power_nonlinearity(1.7, r)
    left = f.value(lam * tau)
    right = lam ** (r + 1.0) * f.value(tau)
    assert_allclose(left, right, rtol=1e-12, atol=1e-300)


def test_scaling_worked_example():
    # lambda = 2, r = 1: f(2u) = 4 f(u) pointwise
    f = power_nonlinearity(1.0, 1)
    u = np.array([[0.3, -1.2], [2.0, 0.0]])
    assert_allclose(f.value(2 * u), 4.0 * f.value(u), rtol=1e-14)


def test_nodal_coefficient_full_grid_and_per_node():
    # one coefficient per node, matched against the field's last axis; a
    # full-grid coefficient is not picked from by node labels any more
    coeff = np.arange(10, dtype=float)
    nodes = np.array([2, 5, 7])
    tau = np.array([[1.0, -2.0, 3.0], [0.5, 0.0, -1.0]])
    f = power_nonlinearity(coeff[nodes], 1)
    assert_allclose(f.value(tau), coeff[nodes] * np.abs(tau) * tau)
    assert_allclose(f.dvalue(tau), 2.0 * coeff[nodes] * np.abs(tau))
    with pytest.raises(NonlinearityError, match="matches neither"):
        power_nonlinearity(coeff, 1).value(tau)


def test_nodal_coefficient_length_mismatch():
    f = power_nonlinearity(np.ones(4), 1)
    for tau in (np.ones(3), np.ones((5, 3)), 1.0):
        with pytest.raises(NonlinearityError, match="matches neither"):
            f.value(tau)
    with pytest.raises(NonlinearityError, match="matches neither"):
        f.dvalue(np.ones(5))
    with pytest.raises(NonlinearityError, match="neither a scalar"):
        power_nonlinearity(np.ones((2, 4)), 1)


def test_negative_exponent_rejected():
    with pytest.raises(NonlinearityError, match="nonnegative"):
        power_nonlinearity(1.0, -0.5)


def test_nonfinite_coefficient_rejected():
    with pytest.raises(NonlinearityError, match="finite"):
        power_nonlinearity(np.array([1.0, np.nan]), 1)


def test_apply_matches_pointwise(rng):
    # value and dvalue are the closed forms, bitwise, for a scalar and a
    # per-node coefficient
    u = rng.normal(size=(5, 6))
    for coeff in (1.7, rng.normal(size=6)):
        f = power_nonlinearity(coeff, 2)
        assert np.array_equal(f.value(u), coeff * np.abs(u) ** 2.0 * u)
        assert np.array_equal(f.dvalue(u), 3.0 * coeff * np.abs(u) ** 2.0)


def test_apply_zero_field_is_zero():
    f = power_nonlinearity(3.0, 2)
    u = np.zeros((4, 5))
    assert_allclose(f.value(u), 0.0)


def test_apply_rejects_nonfinite_output():
    f = power_nonlinearity(1.0, 2)
    with np.errstate(over="ignore"):
        with pytest.raises(NonlinearityError, match="nonlinearity produced a non-finite"):
            f.value(np.array([[1e300]]))
        with pytest.raises(NonlinearityError, match="derivative produced a non-finite"):
            f.dvalue(np.array([[1e300]]))


def test_directional_difference_first_order(rng):
    # [f(u + eps h) - f(u)]/eps approaches the differential at rate eps
    f = power_nonlinearity(1.0, 2)
    u = 1.0 + 0.3 * rng.normal(size=20)
    hdir = rng.normal(size=20)
    errs = []
    eps_list = (1e-2, 1e-3, 1e-4)
    for eps in eps_list:
        fd = (f.value(u + eps * hdir) - f.value(u)) / eps
        errs.append(np.linalg.norm(fd - f.dvalue(u) * hdir))
    slope = np.polyfit(np.log(eps_list), np.log(errs), 1)[0]
    assert slope == pytest.approx(1.0, abs=0.05)


def test_frechet_remainder_superlinear(rng):
    # || f(u+h) - f(u) - df(u) h || = o(||h||) for r in {1, 2}
    u = 0.5 * rng.normal(size=30)
    hdir = rng.normal(size=30)
    for r in (1, 2):
        f = power_nonlinearity(1.0, r)
        norms, rems = [], []
        for eps in (1e-1, 1e-2, 1e-3):
            h = eps * hdir
            rem = f.value(u + h) - f.value(u) - f.dvalue(u) * h
            norms.append(np.linalg.norm(h))
            rems.append(np.linalg.norm(rem))
        ratios = np.asarray(rems) / np.asarray(norms)
        assert ratios[2] < ratios[1] < ratios[0]


def test_continuity_along_convergent_sequence(rng):
    f = power_nonlinearity(1.0, 2)
    u = rng.normal(size=(6, 8))
    noise = rng.normal(size=(6, 8))
    prev = np.inf
    for k in (1, 4, 16, 64):
        uk = u + noise / k
        err = np.max(np.abs(f.value(uk) - f.value(u)))
        assert err < prev or err == 0.0
        prev = err


def test_exponent_constraints_return_messages_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert check_exponent_constraints(0.3, 4.0) == [
            "homogeneity degree r=4.0 above the admissible bound 2s/(1-2s)=1.500 for s=0.3"]
        assert check_exponent_constraints(0.3, 1.0) == []
        # the bound itself is admissible, though 2s/(1-2s) rounds below 1.5
        assert check_exponent_constraints(0.3, 1.5) == []
        assert check_exponent_constraints(0.5, 10.0) == []
        assert check_exponent_constraints(0.8, 2.0) == []
