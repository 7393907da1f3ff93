"""Operator assembly against direct kernel quadrature and Fourier-symbol oracles."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from conftest import OMEGA, W1, W2, standard_grid
from viscowave import (OperatorError, assemble_fraclap, build_grid,
                       dualnorm_hminus, fraclap_normalization, norm_l2, seminorm_hs)

ORDERS = (0.3, 0.5, 0.8)


def hat_weight_oracle(s, h, m):
    """Kernel mass of the P1 hat at node m: C int hat_m(y) |y|^(-1-2s) dy."""
    c = fraclap_normalization(s)
    val, _ = quad(lambda y: (1.0 - abs(y / h - m)) * y ** (-1.0 - 2.0 * s),
                  (m - 1) * h, (m + 1) * h, points=[m * h], limit=200)
    return c * val


def test_normalization_half_order_closed_form():
    # 2^(2s) s Gamma(s + 1/2) / (sqrt(pi) Gamma(1 - s)) at s = 1/2 is 1/pi
    assert fraclap_normalization(0.5) == pytest.approx(1.0 / np.pi, rel=1e-14)


def test_normalization_rejects_bad_order():
    for s in (0.0, 1.0, -0.3, 1.7):
        with pytest.raises(OperatorError, match="outside"):
            fraclap_normalization(s)


@pytest.mark.parametrize("s", ORDERS)
def test_offdiagonal_entries_match_kernel_quadrature(s):
    g = standard_grid(61)
    op = assemble_fraclap(g, s)
    i = g.n_nodes // 2
    for m in (2, 3, 5, 10, 25):
        assert_allclose(-op.matrix[i, i + m], hat_weight_oracle(s, g.h, m),
                        rtol=1e-9)


@pytest.mark.parametrize("s", ORDERS)
def test_first_offdiagonal_splits_into_quadrature_and_singular_cell(s):
    # decaying half of the hat at distance h by quadrature; the rising half
    # is replaced by the second-difference weight h^(-2s) / (2 - 2s)
    g = standard_grid(61)
    op = assemble_fraclap(g, s)
    c = fraclap_normalization(s)
    h = g.h
    smooth, _ = quad(lambda y: (2.0 - y / h) * y ** (-1.0 - 2.0 * s), h, 2 * h)
    singular = h ** (-2.0 * s) / (2.0 - 2.0 * s)
    i = g.n_nodes // 2
    assert_allclose(-op.matrix[i, i + 1], c * (smooth + singular), rtol=1e-9)


@pytest.mark.parametrize("s", ORDERS)
def test_diagonal_equals_total_kernel_mass(s):
    # row identity: diag = 2 sum_m w_m + tail, where the tail completes the
    # partial hat coverage of [Mh, (M+1)h] and integrates the kernel beyond
    g = standard_grid(61)
    op = assemble_fraclap(g, s)
    i = g.n_nodes // 2
    h = g.h
    M = i                                   # neighbors reach M cells each side
    body = -np.sum(op.matrix[i]) + op.matrix[i, i]  # sum_m w_m over both sides
    c = fraclap_normalization(s)
    rise, _ = quad(lambda y: (y / h - M) * y ** (-1.0 - 2.0 * s),
                   M * h, (M + 1) * h)
    beyond = ((M + 1) * h) ** (-2.0 * s) / (2.0 * s)
    tail = 2.0 * c * (rise + beyond)
    assert_allclose(op.matrix[i, i], body + tail, rtol=1e-10)


def test_offdiagonal_decay_rate():
    g = standard_grid(61)
    for s in ORDERS:
        op = assemble_fraclap(g, s)
        i = g.n_nodes // 2
        m = np.array([5, 10, 20])
        w = -op.matrix[i, i + m]
        slope = np.polyfit(np.log(m), np.log(w), 1)[0]
        assert slope == pytest.approx(-(1.0 + 2.0 * s), abs=0.05)


@pytest.mark.parametrize("s", ORDERS)
def test_matrix_invariants(s):
    op = assemble_fraclap(standard_grid(61), s)
    L = op.matrix
    assert np.array_equal(L, L.T)          # exact symmetry
    off = L - np.diag(np.diag(L))
    assert np.all(off <= 0.0)              # kernel sign
    evals = np.linalg.eigvalsh(L)
    assert evals.min() >= -1e-10 * evals.max()   # PSD
    assert op.lambda_min > 0.0             # interior block definite


@pytest.mark.parametrize("s", ORDERS)
def test_plane_wave_symbol(s):
    # large box at the desk spacing; interior response over a cosine
    # approximates |xi|^(2s) to a few percent for wavelengths >= 10h
    g = build_grid((-20.0, 20.0), OMEGA, W1, W2, 801)
    op = assemble_fraclap(g, s)
    for lam in (10 * g.h, 20 * g.h):
        xi = 2.0 * np.pi / lam
        v = np.cos(xi * g.x)
        ratio = (op.matrix @ v) / v
        center = np.abs(g.x) < 2.0
        safe = center & (np.abs(v) > 0.5)
        rel = np.abs(ratio[safe] - xi ** (2.0 * s)) / xi ** (2.0 * s)
        assert rel.max() < 0.05


def test_symbol_error_decreases_with_spacing():
    # fixed frequency, dyadic spacings inside the asymptotic regime; the
    # measured order is reported, not asserted (the consistency order of the
    # hat quadrature is 2 - 2s and the preasymptotic error oscillates)
    s = 0.5
    xi = 2.0 * np.pi
    errs, hs = [], []
    for n in (801, 1601, 3201):
        g = build_grid((-20.0, 20.0), OMEGA, W1, W2, n)
        op = assemble_fraclap(g, s)
        v = np.cos(xi * g.x)
        safe = (np.abs(g.x) < 2.0) & (np.abs(v) > 0.5)
        rel = np.abs((op.matrix @ v)[safe] / v[safe] - xi) / xi
        errs.append(rel.max())
        hs.append(g.h)
        del op
    assert errs[2] < errs[1] < errs[0]
    order = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    print(f"symbol consistency: errors {errs}, measured order {order:.2f}")


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_interior_solve_converges_to_the_exact_solution(s):
    # L_omega u = 1 with zero exterior data is solved by
    # (1/4 - (x - 1/2)^2)^s / Gamma(1 + 2s) on omega = (0, 1) (Dyda 2012).
    # On aligned grids (n_nodes - 1 a multiple of 3) omega's ends are nodes;
    # measured errors 3.7e-2 -> 1.1e-2 (s = 0.25), 4.6e-2 -> 1.2e-2 (0.5)
    # and 3.8e-2 -> 1.24e-2 (0.75), observed orders 0.69-0.86, limited by
    # the d(x)^s behaviour at the boundary
    errs, hs = [], []
    for n in (61, 151, 301):
        g = standard_grid(n)
        op = assemble_fraclap(g, s)
        u = np.linalg.solve(op.omega_block, np.ones(g.omega.size))
        x = g.x[g.omega]
        exact = (0.25 - (x - 0.5) ** 2) ** s / math.gamma(1.0 + 2.0 * s)
        errs.append(np.linalg.norm(u - exact) / np.linalg.norm(exact))
        hs.append(g.h)
    assert errs[2] < errs[1] < errs[0]
    assert errs[2] <= 0.015
    orders = np.log(np.divide(errs[:-1], errs[1:])) / np.log(np.divide(hs[:-1], hs[1:]))
    assert orders.min() >= 0.6


def test_norms_zero_field(op31):
    z = np.zeros(op31.grid.n_nodes)
    assert norm_l2(op31.grid, z) == 0.0
    assert seminorm_hs(op31, z) == 0.0
    assert dualnorm_hminus(op31, z) == 0.0


def test_seminorm_parallelogram(op31, rng):
    n = op31.grid.n_nodes
    v, w = rng.normal(size=n), rng.normal(size=n)
    lhs = seminorm_hs(op31, v + w) ** 2 + seminorm_hs(op31, v - w) ** 2
    rhs = 2.0 * (seminorm_hs(op31, v) ** 2 + seminorm_hs(op31, w) ** 2)
    assert_allclose(lhs, rhs, rtol=1e-11)


@pytest.mark.parametrize("n_nodes", [31, 101])
def test_operator_keeps_the_eigenpairs_of_its_omega_block(request, n_nodes):
    # assembly's one decomposition, which every background reads: eigh of the
    # same block, so the modal outputs are those of decomposing it there;
    # V diag(lam) V^T measured within 1.4e-15 (31) and 1.8e-15 (101) of the
    # block's largest entry
    op = request.getfixturevalue(f"op{n_nodes}")
    block = op.omega_block
    lam, vecs = np.linalg.eigh(block)
    assert op.eigenvalues.tobytes() == lam.tobytes()
    assert op.modes.tobytes() == vecs.tobytes()
    assert op.lambda_min == op.eigenvalues[0]
    assert not (op.eigenvalues.flags.writeable or op.modes.flags.writeable)
    rebuilt = (op.modes * op.eigenvalues) @ op.modes.T
    assert np.abs(rebuilt - block).max() <= 1e-14 * np.abs(block).max()


def test_poincare_ratio_bounded_by_recorded_constant(op61, rng):
    g = op61.grid
    bound = np.sqrt(1.0 / op61.lambda_min)
    for _ in range(100):
        v = np.zeros(g.n_nodes)
        v[g.omega] = rng.normal(size=g.omega.size)
        assert norm_l2(g, v) <= bound * seminorm_hs(op61, v) * (1 + 1e-10)


def test_poincare_constant_is_sharp(op61):
    # the constant 1 / lambda_min is attained by the lowest interior eigenvector
    g = op61.grid
    v = np.zeros(g.n_nodes)
    v[g.omega] = op61.modes[:, 0]
    ratio = norm_l2(g, v) / seminorm_hs(op61, v)
    assert_allclose(ratio, np.sqrt(1.0 / op61.lambda_min), rtol=1e-8)


def test_dual_norm_inverts_seminorm(op31, rng):
    # g = L_omega w on omega has dual norm equal to the seminorm of w
    grid = op31.grid
    w = np.zeros(grid.n_nodes)
    w[grid.omega] = rng.normal(size=grid.omega.size)
    g = np.zeros(grid.n_nodes)
    g[grid.omega] = op31.omega_block @ w[grid.omega]
    assert_allclose(dualnorm_hminus(op31, g), seminorm_hs(op31, w), rtol=1e-10)


@pytest.mark.parametrize("s", [0.2, 0.9])
@pytest.mark.parametrize("n_nodes", [31, 101, 301])
def test_dual_norm_from_the_eigenpairs_is_the_solve(rng, n_nodes, s):
    # h sum_m (V^T g)_m^2 / lam_m against h g . solve(L_omega, g), on a stack
    # of functionals; measured within 4.3e-14 relative at 31-301 nodes, s 0.2-0.9
    op = assemble_fraclap(standard_grid(n_nodes), s)
    om = op.grid.omega
    g = np.zeros((5, op.grid.n_nodes))
    g[:, om] = rng.normal(size=(5, om.size))
    ref = np.sqrt(op.grid.h * np.sum(g[:, om] * np.linalg.solve(op.omega_block, g[:, om].T).T,
                                     axis=-1))
    assert_allclose(dualnorm_hminus(op, g), ref, rtol=1e-12)


def test_dual_norm_rejects_exterior_support(op31):
    g = np.zeros(op31.grid.n_nodes)
    g[op31.grid.w1[0]] = 1.0
    with pytest.raises(OperatorError, match="outside omega"):
        dualnorm_hminus(op31, g)


def test_stacked_norms_match_loop(op31, rng):
    fields = rng.normal(size=(4, op31.grid.n_nodes))
    assert_allclose(norm_l2(op31.grid, fields),
                    [norm_l2(op31.grid, f) for f in fields])
    assert_allclose(seminorm_hs(op31, fields),
                    [seminorm_hs(op31, f) for f in fields])


def test_assemble_rejects_bad_inputs(grid31):
    with pytest.raises(OperatorError, match="outside"):
        assemble_fraclap(grid31, 1.2)
    with pytest.raises(OperatorError, match="needs a Grid"):
        assemble_fraclap("not a grid", 0.5)
