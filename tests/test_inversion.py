"""Recovery machinery: control synthesis, potential and nonlinearity estimates."""

import contextlib
import dataclasses
import gc
import io
import json
import pathlib
import re
import tracemalloc
import warnings
import weakref
from unittest import mock

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from viscowave import (BackgroundStates, IllConditionedError,
                       InconclusiveError, InversionError, LinearRecovery,
                       Reconstruction, Recovery, bump_control,
                       dn_difference_linear, dn_matrix_linear, dn_remainders_nonlinear,
                       estimate_homogeneity_exponent,
                       interior_targets, potential_from_spec, power_nonlinearity,
                       recover_linear_potential, recover_nonlinear_coefficient,
                       StepFailureError, solve_linear, zero_nonlinearity)
from conftest import standard_grid
from viscowave import assemble_fraclap, inversion, solver
from viscowave.controls import ControlBasis, materialize, time_bump
from viscowave.harness import DEFAULTS, _merge, _setup
from viscowave.inversion import _probing_kernel
from viscowave.solver import (modal_coupling, n_steps_for, shift_plan, solve_linear_basis,
                              solve_modal_basis, trapezoid_weights)

DT, NT = 0.02, 50
T_FINAL = 1.0
BENCH_DT = 5e-3


def gaussian_target(grid, nt, dt=DT, center=0.35, width=0.22):
    """The factors (thetas, profiles) of one target: a time bump, (1, nt+1),
    times a gaussian on omega, (1, n_omega)."""
    om = grid.omega
    t = dt * np.arange(nt + 1)
    theta, _ = time_bump(t, 0.2 * T_FINAL, 0.8 * T_FINAL)
    prof = np.exp(-((grid.x[om] - center) / width) ** 2)
    return theta[None], prof[None]


def _stack(targets):
    """The (n, nt+1, n_omega) samples of the targets of factors (thetas,
    profiles), node-major and window-minor, as interior_targets once
    returned them."""
    thetas, profiles = targets
    stack = thetas[None, :, :, None] * profiles[:, None, None, :]
    return stack.reshape(-1, thetas.shape[1], profiles.shape[1])


def synthesized(op, target, window, alpha, n_segments):
    """(control, tracking error) of the synthesis towards one target, given by
    its factors, over the basis of a spline level on window, at q = 0."""
    basis = ControlBasis(op.grid, window, DT, T_FINAL, n_segments)
    coeffs, _, errors = BackgroundStates(op, None, basis).synthesize(*target, alpha)
    return basis.control(coeffs[0]), errors[0]


# ---------------------------------------------------------------- synthesis


def test_synthesize_zero_target_gives_zero_control(op31, grid31):
    target = (np.zeros((1, NT + 1)), np.zeros((1, grid31.omega.size)))
    ctl, err = synthesized(op31, target, "w1", 1e-10, 8)
    assert err == 0.0
    assert np.abs(ctl.values).max() == 0.0


@pytest.mark.parametrize("q", [None, 0.3])
def test_zero_target_among_others_gives_exactly_zero(op31, grid31, q):
    # the errors are formed in place from the reached states of every
    # target: a zero profile's row stays exactly zero on both paths
    basis = ControlBasis(grid31, "w1", DT, T_FINAL, 8)
    thetas, profile = gaussian_target(grid31, NT)
    profiles = np.concatenate([profile, np.zeros_like(profile), 0.5 * profile])
    coeffs, achieved, errors = BackgroundStates(op31, q, basis).synthesize(
        np.concatenate([thetas, 0.5 * thetas]), profiles, 1e-10)
    assert errors[2] == errors[3] == 0.0
    assert not coeffs[2:4].any() and not achieved[2:4].any()
    assert (errors[[0, 1, 4, 5]] > 0.0).all()


def test_synthesis_error_decreases_with_nested_refinement(op31, grid31):
    target = gaussian_target(grid31, NT)
    errs = []
    for nseg in (8, 16, 32):
        _, err = synthesized(op31, target, "w1", 1e-10, nseg)
        errs.append(err)
    assert errs[1] <= errs[0] * (1 + 1e-9)
    assert errs[2] <= errs[1] * (1 + 1e-9)


def test_synthesis_error_nondecreasing_in_alpha(op31, grid31):
    target = gaussian_target(grid31, NT)
    basis = ControlBasis(grid31, "w1", DT, T_FINAL, 16)
    bg = BackgroundStates(op31, None, basis)
    errs = [bg.synthesize(*target, alpha)[2][0]
            for alpha in (1e-12, 1e-8, 1e-4, 1e0, 1e4)]
    assert np.all(np.diff(errs) >= -1e-12 * errs[-1])


def test_synthesis_factors_once_per_call(op31, grid31, monkeypatch):
    from viscowave import inversion

    theta, profile = gaussian_target(grid31, NT)
    basis = ControlBasis(grid31, "w1", DT, T_FINAL, 8)
    bg = BackgroundStates(op31, None, basis)
    factored = []
    real_factor = inversion.cho_factor

    def counting_factor(a, *args, **kwargs):
        factored.append(a)
        return real_factor(a, *args, **kwargs)

    monkeypatch.setattr(inversion, "cho_factor", counting_factor)
    bg.synthesize(theta, profile, 1e-10)
    repeated = bg.synthesize(theta, 0.5 * profile, 1e-10)
    bg.synthesize(theta, np.concatenate([profile, 0.5 * profile]), 1e-6)
    assert len(factored) == 3
    # a call leaves nothing behind that changes the next one
    fresh = BackgroundStates(op31, None, basis).synthesize(theta, 0.5 * profile, 1e-10)
    for a, b in zip(repeated, fresh):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


def test_large_alpha_suppresses_control(op31, grid31):
    target = gaussian_target(grid31, NT)
    basis = ControlBasis(grid31, "w1", DT, T_FINAL, 16)
    bg = BackgroundStates(op31, None, basis)
    k = grid31.h * op31.omega_block
    sampled = _stack(target)[0]
    target_norm = np.sqrt(np.sum(
        bg.time_weights * np.einsum("tj,tj->t", sampled, sampled @ k)))
    ctl, err = synthesized(op31, target, "w1", 1e8, 16)
    assert err == pytest.approx(target_norm, rel=1e-4)
    assert np.abs(ctl.values).max() < 1e-4 * np.abs(sampled).max()


def test_synthesize_rejects_bad_target_shape(op31, grid31):
    basis = ControlBasis(grid31, "w1", DT, T_FINAL, 8)
    bg = BackgroundStates(op31, None, basis)
    n_omega = grid31.omega.size
    # one target is a row of each factor: (windows, nt+1) and (nodes, n_omega)
    for shapes in (((1, NT + 1), (1, 3)), ((1, NT), (1, n_omega)),
                   ((NT + 1,), (1, n_omega)), ((1, NT + 1), (n_omega,)),
                   ((1, 1, NT + 1), (1, n_omega)), ((1, NT + 1), (1, NT + 1, n_omega))):
        with pytest.raises(InversionError, match="^target factors "):
            bg.synthesize(*(np.zeros(shape) for shape in shapes), 1e-10)


def test_synthesized_control_lives_on_requested_window(op31, grid31):
    target = gaussian_target(grid31, NT)
    ctl, _ = synthesized(op31, target, "w2", 1e-8, 8)
    assert ctl.window == "w2"
    outside = np.setdiff1d(np.arange(grid31.n_nodes), grid31.w2)
    assert np.abs(ctl.values[:, outside]).max() == 0.0


# ---------------------------------------------------------------- targets


def test_interior_targets_default_count(grid31):
    thetas, profiles = interior_targets(ControlBasis(grid31, "w1", DT, T_FINAL, 8))
    assert thetas.shape == (3, NT + 1)
    assert profiles.shape == (grid31.omega.size, grid31.omega.size)


def test_localized_target_materialize(grid31):
    node = int(grid31.omega[4])
    basis = ControlBasis(grid31, "w1", DT, T_FINAL, 8)
    t = DT * np.arange(NT + 1)
    for field, (t0, t1) in zip(_stack(interior_targets(basis, nodes=[node], space_width=0.2)),
                               inversion.TARGET_WINDOWS):
        assert field.shape == (NT + 1, grid31.omega.size)
        assert np.abs(field[(t <= t0) | (t >= t1)]).max() == 0.0
        peak = np.argmax(field[np.argmax(field.sum(axis=1))])
        assert grid31.omega[peak] == node


def _target_loop(basis, nodes, space_width):
    """Each target sampled on its own, node-major and window-minor, as one
    gaussian at its node times one time bump on its window."""
    grid = basis.grid
    t = basis.dt * np.arange(basis.n_steps + 1)
    fields = []
    for node in nodes:
        profile = np.exp(-((grid.x[grid.omega] - grid.x[node]) / space_width) ** 2)
        for a, b in ((0.10, 0.50), (0.30, 0.70), (0.50, 0.90)):
            theta, _ = time_bump(t, a * basis.t_final, b * basis.t_final)
            fields.append(np.outer(theta, profile))
    return np.asarray(fields)


@pytest.mark.parametrize("n_nodes", [31, 101])
def test_target_stack_is_materializing_each_bitwise(grid31, grid101, n_nodes):
    grid = grid31 if n_nodes == 31 else grid101
    dt = DT if n_nodes == 31 else BENCH_DT
    basis = ControlBasis(grid, "w1", dt, T_FINAL, 16)
    # every node at the default width 2h, and nodes out of order at another width
    for nodes, width in ((None, None), (grid.omega[::-5].tolist(), 0.1)):
        stack = _stack(interior_targets(basis, nodes=nodes, space_width=width))
        ref = _target_loop(basis, grid.omega if nodes is None else nodes,
                           2.0 * grid.h if width is None else width)
        assert stack.shape == ref.shape
        assert stack.tobytes() == ref.tobytes()


def _reference_background(op, q, basis, dt, t_final):
    """States and Gram matrix of BackgroundStates.__init__ as they stood before
    the blocked pass, kept verbatim but for self."""
    n_steps = n_steps_for(dt, t_final)
    grid = op.grid
    om = grid.omega
    states = np.empty((len(basis), n_steps + 1, om.size))
    for i in range(len(basis)):
        control = materialize(basis, i)
        states[i] = solve_linear(op, q, control, dt, t_final).u[:, om]
    return states, _reference_weighting(op, states, dt)[0]


def _reference_weighting(op, states, dt):
    """Gram matrix of the states and their time-weighted copy, as
    BackgroundStates.__init__ made them when it kept the copy, from which
    synthesize formed its right-hand side."""
    time_weights = dt * trapezoid_weights(states.shape[1] - 1)
    k_omega = op.grid.h * op.omega_block
    k_states = states @ k_omega
    sw = states * time_weights[None, :, None]
    flat = k_states.reshape(len(states), -1)
    gram = sw.reshape(len(states), -1) @ flat.T
    gram = 0.5 * (gram + gram.T)
    return gram, sw.reshape(len(states), -1)


def _cholesky_gram(bg):
    """The nodal Gram as BackgroundStates.__init__ made it from a Cholesky
    factor C of K = h omega_block, K = C C^T, kept verbatim but for self: one
    symmetric product of the energy coordinates sqrt(w_t) S_t C of the basis
    pass's states."""
    states = solve_linear_basis(bg.op, bg.q, bg.basis, lambda u, v: u)
    energy = states @ np.linalg.cholesky(bg.op.grid.h * bg.op.omega_block)
    energy *= np.sqrt(bg.time_weights)[None, :, None]
    flat = energy.reshape(len(bg.basis), -1)
    return flat @ flat.T


def _potential(grid, dt, q):
    """For q None, "static" or "ramp": None, 0.3 on omega, or the ramp
    gaussian of the invert-linear benchmark."""
    if q == "static":
        return 0.3 * np.ones(grid.omega.size)
    if q == "ramp":
        return potential_from_spec(grid, {"kind": "gaussian", "amplitude": 0.5,
                                          "center": 0.5, "width": 0.141421356,
                                          "time": "ramp"}, dt, T_FINAL)
    return None


# measured maxima, relative to the largest entry, of the nodal Gram (states in
# the eigenbasis of L_omega) against the Cholesky product it replaced:
# 1.1e-15 to 2.8e-15 at 31 and 101 nodes, static and ramp
CHOLESKY_RTOL = 1e-14


def _assert_close(got, ref, rtol):
    """got within rtol of ref, relative to ref's largest entry."""
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= rtol * np.abs(ref).max()


def _all_states(bg):
    """Every element's displacement history of a background, element first."""
    return bg.states_of(np.arange(len(bg.basis))).transpose(1, 0, 2)


def _reference_synthesis(bg, states, stack, dt):
    """Right-hand side, achieved states and tracking errors of the synthesis
    at alpha 1e-8 towards a sampled target stack, from the reference
    weighting of states, solved with bg's Gram."""
    op = bg.op
    k_omega = op.grid.h * op.omega_block
    sw_flat = _reference_weighting(op, states, dt)[1]
    rhs = sw_flat @ (stack @ k_omega).reshape(len(stack), -1).T
    scale = np.trace(bg.gram) / np.trace(bg.control_gram)
    coeffs = cho_solve(cho_factor(bg.gram + 1e-8 * scale * bg.control_gram), rhs).T
    achieved = (coeffs @ states.reshape(len(states), -1)).reshape(stack.shape)
    miss = stack - achieved
    errors = np.sqrt(np.einsum("ntj,ntj,t->n", miss, miss @ k_omega, bg.time_weights))
    return rhs, achieved, errors


@pytest.mark.parametrize("window", ["w1", "w2"])
@pytest.mark.parametrize("static_q", [False, True])
def test_background_states_match_reference_loop_bitwise(op31, grid31, window, static_q):
    # the basis pass, and at q = 0 the modes, sum in another order than one
    # solve per control
    q = 0.3 * np.ones(grid31.omega.size) if static_q else None
    basis = ControlBasis(grid31, window, DT, T_FINAL, 8)
    bg = BackgroundStates(op31, q, basis)
    states, gram = _reference_background(op31, q, basis, DT, T_FINAL)
    _assert_close(_all_states(bg), states, 1e-12)
    _assert_close(bg.gram, gram, 1e-12)


@pytest.mark.parametrize("static_q", [False, True])
def test_synthesis_matches_reference_path(op31, grid31, static_q, monkeypatch):
    # the right-hand side weights the targets' energy in time, not a stored
    # weighted copy of the states; the Gram is a product of energy
    # coordinates, or at q = 0 a sum over modes, so it matches the reference
    # to rounding, and the reference solve uses it; coefficients are too
    # ill-conditioned to pin
    from viscowave import inversion

    q = 0.3 * np.ones(grid31.omega.size) if static_q else None
    basis = ControlBasis(grid31, "w1", DT, T_FINAL, 8)
    bg = BackgroundStates(op31, q, basis)
    states = _all_states(bg)
    _assert_close(bg.gram, _reference_weighting(op31, states, DT)[0], 1e-12)
    targets = interior_targets(basis, nodes=grid31.omega[::3])
    rhs, achieved = _reference_synthesis(bg, states, _stack(targets), DT)[:2]

    solved = []
    monkeypatch.setattr(inversion, "cho_solve",
                        lambda u, b: solved.append(b) or cho_solve((u, False), b))
    _assert_close(bg.synthesize(*targets, 1e-8)[1], achieved, 1e-10)
    _assert_close(solved[0], rhs, 1e-15)


# measured maxima, relative to the largest entry, of the factor synthesis's
# achieved states and tracking errors against the reference stack path at
# alpha 1e-8, 31 nodes: 3.2e-13 and 2.8e-14 at q = 0, 3.9e-13 and 5.6e-14
# at the static q = 0.3
FACTOR_RTOL = 1e-10


@pytest.mark.parametrize("q", [None, 0.3])
def test_factor_synthesis_matches_the_sampled_stack_path(op31, grid31, q):
    # the synthesis from the targets' factors, p V and thetas, against the
    # reference's sampled target stack, on the modal (q = 0) and the nodal
    # (static q) paths, each with its own blocked solve
    basis = ControlBasis(grid31, "w1", DT, T_FINAL, 8)
    bg = BackgroundStates(op31, q, basis)
    assert bg.modal is (q is None)
    targets = interior_targets(basis, nodes=grid31.omega[::2], space_width=0.1)
    _rhs, achieved, errors = _reference_synthesis(bg, _all_states(bg), _stack(targets), DT)
    _coeffs, got_achieved, got_errors = bg.synthesize(*targets, 1e-8)
    _assert_close(got_achieved, achieved, FACTOR_RTOL)
    _assert_close(got_errors, errors, FACTOR_RTOL)


def _benchmark_background(op101, grid101, ramp):
    """BackgroundStates(w1) of the invert-linear benchmark: 101 nodes, 16
    segments, 200 steps, with q = 0 or the ramp potential."""
    basis = ControlBasis(grid101, "w1", BENCH_DT, T_FINAL, 16)
    return BackgroundStates(op101, _potential(grid101, BENCH_DT, "ramp" if ramp else None),
                            basis)


@pytest.mark.parametrize("ramp", [False, True])
def test_gram_at_benchmark_size_matches_reference(op101, grid101, ramp):
    # with q = 0 the Gram is a sum over the modes of L_omega, with no pass;
    # the ramp's pass steps all 220 elements
    bg = _benchmark_background(op101, grid101, ramp)
    assert bg.modal is not ramp
    seed, _lag = shift_plan(bg.basis, not ramp, len(bg.basis.nodes))
    assert np.count_nonzero(seed == np.arange(seed.size)) == (len(bg.basis) if ramp else 40)
    _assert_close(bg.gram, _reference_weighting(op101, _all_states(bg), BENCH_DT)[0], 1e-12)
    assert bg.gram.tobytes() == bg.gram.T.tobytes()


def test_modal_background_init_peak_holds_no_state_stack(op101, grid101):
    # traced peak of one benchmark-size BackgroundStates(w1) with q = 0:
    # measured 1.8 MB, against 24.8 MB for the nodal pass at a static
    # q = 0.3; the 220-element state stack alone would be 11.7 MB
    _benchmark_background(op101, grid101, False)
    tracemalloc.start()
    try:
        bg = _benchmark_background(op101, grid101, False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bg.modal and not hasattr(bg, "states")
    assert peak < 3.0e6


def test_synthesis_peak_holds_no_target_stack(op101, grid101):
    # traced peak of one benchmark-size synthesis at q = 0 towards its 99
    # targets: measured 12.1 MB, the reached and the achieved states (5.3 MB
    # each) and small arrays; the sampled-stack synthesis peaked at 17.8 MB
    # beside its 5.3 MB target stack
    bg = _benchmark_background(op101, grid101, False)
    targets = interior_targets(bg.basis)
    bg.synthesize(*targets, 1e-12)
    tracemalloc.start()
    try:
        achieved = bg.synthesize(*targets, 1e-12)[1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert achieved.shape == (99, 201, 33)
    assert peak < 2.5 * achieved.nbytes


def test_nodal_synthesis_peak_holds_no_mode_element_target_product(op101, grid101):
    # traced peak of one benchmark-size synthesis over a nodal background (a
    # static q = 0.3) towards its 99 targets: measured 12.2 MB, against
    # 22.2 MB when its right-hand side and its reached states each formed a
    # (mode, element, target) product whole, 5.7 MB apiece
    basis = ControlBasis(grid101, "w1", BENCH_DT, T_FINAL, 16)
    bg = BackgroundStates(op101, _potential(grid101, BENCH_DT, "static"), basis)
    targets = interior_targets(basis)
    bg.synthesize(*targets, 1e-12)
    tracemalloc.start()
    try:
        achieved = bg.synthesize(*targets, 1e-12)[1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not bg.modal and achieved.shape == (99, 201, 33)
    assert peak < 2.5 * achieved.nbytes


# measured maxima, relative to the largest entry, of a nodal synthesis in
# chunks against the whole products, at alpha 1e-8 (coefficients, achieved
# states, errors): 0 with BLAS at one thread, where each chunk's entries are
# the whole product's; with two threads, 1.0e-13 to 5.0e-13, 5.3e-13 to
# 7.5e-13 and 5.1e-15 at 101 nodes, static and ramp
CHUNK_RTOL = 1e-11


@pytest.mark.parametrize("q", [None, "static", "ramp"])
def test_synthesis_in_chunks_matches_the_whole_products(op101, grid101, monkeypatch, q):
    # a modal background's products fit one chunk, so its synthesis is the
    # whole products' bit for bit
    basis = ControlBasis(grid101, "w1", BENCH_DT, T_FINAL, 16)
    bg = BackgroundStates(op101, _potential(grid101, BENCH_DT, q), basis)
    targets = interior_targets(basis)
    got = bg.synthesize(*targets, 1e-8)
    monkeypatch.setattr(inversion, "SYNTH_CHUNK", 1 << 62)
    ref = bg.synthesize(*targets, 1e-8)
    for g, r in zip(got, ref):
        if q is None:
            assert np.array_equal(g, r)
        _assert_close(g, r, CHUNK_RTOL)


# measured maxima, relative to the largest entry, of the q = 0 background's
# modal Gram, states and achieved states (alpha 1e-8, the same Gram) against
# the nodal pass: 31 nodes 1.5e-15, 1.9e-15, 1.5e-12; 101 nodes 5.2e-15,
# 6.4e-15, 8.9e-12
MODAL_RTOL = {31: (3e-15, 3e-15, 3e-12), 101: (1e-14, 1e-14, 2e-11)}


@pytest.mark.parametrize("window", ["w1", "w2"])
@pytest.mark.parametrize("n_nodes", [31, 101])
def test_modal_background_matches_the_nodal_pass(request, window, n_nodes):
    op = request.getfixturevalue(f"op{n_nodes}")
    dt, n_segments = (DT, 8) if n_nodes == 31 else (BENCH_DT, 16)
    basis = ControlBasis(op.grid, window, dt, T_FINAL, n_segments)
    bg = BackgroundStates(op, None, basis)
    assert bg.modal
    states = solve_linear_basis(op, None, basis, lambda u, v: u)
    gram_rtol, states_rtol, achieved_rtol = MODAL_RTOL[n_nodes]
    _assert_close(bg.gram, _reference_weighting(op, states, dt)[0], gram_rtol)
    _assert_close(_all_states(bg), states, states_rtol)
    targets = interior_targets(basis, nodes=op.grid.omega[::3])
    achieved = _reference_synthesis(bg, states, _stack(targets), dt)[1]
    _assert_close(bg.synthesize(*targets, 1e-8)[1], achieved, achieved_rtol)


def _modal_states_deviation(op, got, ref):
    """Largest deviation of the element states a g V^T of modal responses
    and couplings got = (g, a) from those of ref, and ref's largest entry;
    one window node at a time, so no stack of every element is held."""
    dev = top = 0.0
    for a_got, a_ref in zip(got[1], ref[1]):
        s_got, s_ref = (a_got * got[0]) @ op.modes.T, (a_ref * ref[0]) @ op.modes.T
        dev, top = max(dev, np.abs(s_got - s_ref).max()), max(top, np.abs(s_ref).max())
    return dev, top


def _dense_modal_pass(op, basis):
    """(g, a) of the modal pass as it stood: every spline stepped on
    diag(lam) in one dense block, driven by its step samples in every mode,
    and the coupling -dt/2 L[basis nodes, omega] V."""
    x = basis.values + basis.dvalues
    s = x[:, :-1] + x[:, 1:]
    lam = op.eigenvalues
    drive = np.broadcast_to(s.T[:, :, None], (basis.n_steps, len(s), lam.size))
    maps = solver._step_maps(np.diag(lam), None, basis.dt, basis.n_steps)
    g = solver._step_linear(maps, drive, basis.dt, None)[0]
    rows = op.matrix[np.ix_(basis.nodes, op.grid.omega)]
    return g, -0.5 * basis.dt * (rows @ op.modes)


# measured maxima of the element states a g V^T of the modal pass, which
# steps its shift plan's seeds with the -dt/2 in their drive, against the
# dense pass of every spline with the -dt/2 in the coupling, relative to the
# largest entry, on either window: 5.9e-16 at 31 nodes, 2.5e-15 at 101,
# 2.6e-15 at 301
MODAL_PASS_RTOL = 1e-14


@pytest.mark.parametrize("window", ["w1", "w2"])
@pytest.mark.parametrize("n_nodes", [31, 101, 301])
def test_modal_pass_matches_the_dense_pass_of_every_spline(request, window, n_nodes):
    # the modal pass steps only its seeds, 2 of the 11 splines at 16
    # segments and 200 steps; nothing shifts at 31 nodes
    op = (assemble_fraclap(standard_grid(301), 0.5) if n_nodes == 301
          else request.getfixturevalue(f"op{n_nodes}"))
    dt, n_segments = (DT, 8) if n_nodes == 31 else (BENCH_DT, 16)
    basis = ControlBasis(op.grid, window, dt, T_FINAL, n_segments)
    with mock.patch.object(solver, "_step_linear", wraps=solver._step_linear) as step:
        g = solve_modal_basis(op, basis)
    a = modal_coupling(op, basis)
    seed, _lag = shift_plan(basis, True, 1)
    n_seeds = np.count_nonzero(seed == np.arange(seed.size))
    assert [c.args[1].shape[1] for c in step.call_args_list] == [n_seeds]
    assert n_seeds == (len(basis.tsplines) if n_nodes == 31 else 2)
    assert g.shape == (basis.n_steps + 1, len(basis.tsplines), op.eigenvalues.size)
    assert a.tobytes() == (op.matrix[np.ix_(basis.nodes, op.grid.omega)] @ op.modes).tobytes()
    dev, top = _modal_states_deviation(op, (g, a), _dense_modal_pass(op, basis))
    assert dev <= MODAL_PASS_RTOL * top


def test_non_finite_modal_step_fails_at_step_zero(op31, grid31):
    # a NaN eigenvalue makes the modal step matrix non-finite, which the
    # solver refuses before the first step
    lam = op31.eigenvalues.copy()
    lam[4] = np.nan
    op = dataclasses.replace(op31, eigenvalues=lam)
    with pytest.raises(StepFailureError, match="non-finite step matrix") as err:
        BackgroundStates(op, None, ControlBasis(grid31, "w1", DT, T_FINAL, 8))
    assert err.value.step == 0


@pytest.mark.parametrize("q", ["static", "ramp"])
@pytest.mark.parametrize("n_nodes", [31, 101])
def test_nodal_gram_matches_the_cholesky_product(request, n_nodes, q):
    # at a nonzero q the Gram is formed from the states' mode coordinates,
    # where K is diag(h lam), in place of a Cholesky factor of K
    op = request.getfixturevalue(f"op{n_nodes}")
    dt, n_segments = (DT, 8) if n_nodes == 31 else (BENCH_DT, 16)
    basis = ControlBasis(op.grid, "w1", dt, T_FINAL, n_segments)
    bg = BackgroundStates(op, _potential(op.grid, dt, q), basis)
    assert not bg.modal
    _assert_close(bg.gram, _cholesky_gram(bg), CHOLESKY_RTOL)
    assert bg.gram.tobytes() == bg.gram.T.tobytes()


def test_w2_background_reuses_the_w1_modal_responses(op31, grid31, monkeypatch):
    # bases on the two windows at one spline level and time grid drive the
    # modes alike: the w2 background takes the w1 responses, which are
    # bitwise a fresh pass over the w2 basis, and only its own coupling
    basis1, basis2 = (ControlBasis(grid31, w, DT, T_FINAL, 8) for w in ("w1", "w2"))
    bg1, fresh = (BackgroundStates(op31, None, basis) for basis in (basis1, basis2))
    g, a = solve_modal_basis(op31, basis2), modal_coupling(op31, basis2)
    passes = []
    monkeypatch.setattr(inversion, "solve_modal_basis",
                        lambda op, basis: passes.append(basis) or solve_modal_basis(op, basis))
    bg2 = BackgroundStates(op31, None, basis2, like=bg1)
    assert passes == []
    assert bg2._by_mode is bg1._by_mode
    assert bg2._by_mode.tobytes() == np.ascontiguousarray(g.T).tobytes()
    assert bg2._coupling.tobytes() == a.tobytes()
    for name in ("gram", "control_gram"):
        assert getattr(bg2, name).tobytes() == getattr(fresh, name).tobytes(), name
    # a basis on another spline level, or a lender at a nonzero q, steps its own pass
    finer = ControlBasis(grid31, "w2", DT, T_FINAL, 16)
    own = BackgroundStates(op31, None, finer, like=bg1)
    assert passes == [finer] and own._by_mode is not bg1._by_mode
    nodal = BackgroundStates(op31, 0.3, basis1)
    BackgroundStates(op31, None, basis2, like=nodal)
    assert passes == [finer, basis2]


def _reference_nodal_synthesis(bg, thetas, profiles, alpha):
    """Coefficients, achieved states and tracking errors of the synthesis at a
    nonzero potential as it stood with its own element-first state stack:
    the right-hand side (paced @ states) @ kp^T and the reached states
    coeffs @ states, kept verbatim but for self."""
    op, basis = bg.op, bg.basis
    states = solve_linear_basis(op, bg.q, basis, lambda u, v: u @ op.modes)   # (e, t, m)
    weights = op.grid.h * op.eigenvalues
    n_times, (n_omega, n_modes) = basis.n_steps + 1, op.modes.shape
    n = len(profiles) * len(thetas)
    scale = np.trace(bg.gram) / np.trace(bg.control_gram)
    factor = inversion.cho_factor(bg.gram + alpha * scale * bg.control_gram, "control")
    p = profiles @ op.modes
    kp = p * weights
    paced = thetas * bg.time_weights
    rhs = ((paced @ states) @ kp.T).transpose(0, 2, 1)                        # (e, j, w)
    coeffs = inversion.cho_solve(factor, rhs.reshape(len(basis), n)).T
    flat = states.reshape(len(basis), -1)
    reached = (coeffs @ flat).reshape(n, n_times, n_modes).transpose(2, 0, 1)
    achieved = op.modes @ reached.reshape(n_modes, -1)
    achieved = achieved.reshape(n_omega, n, n_times).transpose(1, 2, 0)
    err2 = np.zeros(n)
    for m, miss in enumerate(reached):
        miss -= np.multiply.outer(p[:, m], thetas).reshape(n, n_times)
        miss *= miss
        err2 += weights[m] * (miss @ bg.time_weights)
    return coeffs, achieved, np.sqrt(err2)


# measured maxima, relative to the largest entry, of the synthesis of a
# nonzero-q background, one node with unit coupling, against the stack
# formulas at synth_alpha 1e-4, 31 and 101 nodes, static and ramp q:
# achieved states 5.7e-14, tracking errors 1.1e-14, coefficients 5.0e-12;
# at 1e-8 and 1e-12 the achieved states moved by 4.7e-12 and 3.4e-10
ACHIEVED_RTOL, COEFF_RTOL = 1e-12, 1e-10


@pytest.mark.parametrize("q", ["static", "ramp"])
@pytest.mark.parametrize("n_nodes", [31, 101])
def test_nodal_synthesis_matches_the_stack_formulas(request, n_nodes, q):
    # a nonzero q is one node with unit coupling whose splines are the
    # elements: the modal formulas then differ from the stack's only in the
    # order of their sums
    op = request.getfixturevalue(f"op{n_nodes}")
    dt, n_segments = (DT, 8) if n_nodes == 31 else (BENCH_DT, 16)
    basis = ControlBasis(op.grid, "w1", dt, T_FINAL, n_segments)
    bg = BackgroundStates(op, _potential(op.grid, dt, q), basis)
    assert not bg.modal and bg._coupling.tobytes() == np.ones((1, op.eigenvalues.size)).tobytes()
    assert bg._by_mode.shape == (op.eigenvalues.size, len(basis), basis.n_steps + 1)
    targets = interior_targets(basis)
    coeffs, achieved, errors = bg.synthesize(*targets, 1e-4)
    ref_coeffs, ref_achieved, ref_errors = _reference_nodal_synthesis(bg, *targets, 1e-4)
    _assert_close(achieved, ref_achieved, ACHIEVED_RTOL)
    _assert_close(errors, ref_errors, ACHIEVED_RTOL)
    _assert_close(coeffs, ref_coeffs, COEFF_RTOL)


def _time_major_states(bg, elements):
    """states_of as it stood, from a time-major copy of the responses: at
    q = 0 the modal pass's (t, c, m) history times each element's coupling,
    at any other q the element-first pass's rows, transposed."""
    op, basis = bg.op, bg.basis
    if bg.modal:
        responses = solve_modal_basis(op, basis)
        node, spline = np.divmod(np.asarray(elements), responses.shape[1])
        modal = responses[:, spline] * modal_coupling(op, basis)[node]
    else:
        states = solve_linear_basis(op, bg.q, basis, lambda u, v: u @ op.modes)
        modal = states[elements].transpose(1, 0, 2)
    return modal @ op.modes.T


@pytest.mark.parametrize("q", [None, "static", "ramp"])
@pytest.mark.parametrize("n_nodes", [31, 101])
def test_states_of_is_the_time_major_product_bitwise(request, n_nodes, q):
    # a scattered selection, repeats and all, and a block of the benchmark's
    # passes, from the mode-major responses gathered time-major
    op = request.getfixturevalue(f"op{n_nodes}")
    dt, n_segments = (DT, 8) if n_nodes == 31 else (BENCH_DT, 16)
    basis = ControlBasis(op.grid, "w1", dt, T_FINAL, n_segments)
    bg = BackgroundStates(op, _potential(op.grid, dt, q), basis)
    assert bg.modal is (q is None)
    scattered = np.random.default_rng(7).integers(0, len(basis), 20)
    for elements in (scattered, np.arange(len(basis))[1::2], np.arange(len(basis))[-92:]):
        got = bg.states_of(elements)
        assert got.flags.c_contiguous
        assert got.tobytes() == _time_major_states(bg, elements).tobytes()


@pytest.mark.parametrize("q", [None, 0.3])
def test_background_is_freed_without_the_cyclic_gc(op31, grid31, q):
    # a background holds nothing that refers back to it, so dropping the last
    # reference frees it at once, states and all
    bg = BackgroundStates(op31, q, ControlBasis(grid31, "w1", DT, T_FINAL, 8))
    assert bg.modal is (q is None)
    ref = weakref.ref(bg)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del bg
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("nseg", [8, 16])
def test_cho_factor_is_scipys_upper_factor_bitwise(op31, nseg):
    basis = ControlBasis(op31.grid, "w1", DT, T_FINAL, nseg)
    bg = BackgroundStates(op31, None, basis)
    scale = np.trace(bg.gram) / np.trace(bg.control_gram)
    mat = bg.gram + 1e-8 * scale * bg.control_gram
    u = inversion.cho_factor(mat, "control")
    assert u.tobytes() == np.triu(cho_factor(mat)[0]).tobytes()


def test_cho_solve_matches_scipys_achieved_states(op101, grid101, monkeypatch):
    basis = ControlBasis(grid101, "w1", DT, T_FINAL, 16)
    bg = BackgroundStates(op101, None, basis)
    targets = interior_targets(basis, nodes=grid101.omega[::7])
    achieved = bg.synthesize(*targets, 1e-8)[1]
    monkeypatch.setattr(inversion, "cho_solve", lambda u, b: cho_solve((u, False), b))
    _assert_close(achieved, bg.synthesize(*targets, 1e-8)[1], 1e-11)


@pytest.mark.parametrize("n", [1, inversion.CHO_BLOCK - 1, inversion.CHO_BLOCK,
                               inversion.CHO_BLOCK + 1, 220, 660])
def test_blocked_cho_solve_matches_scipy(rng, n):
    # blocks of CHO_BLOCK rows: one row, a block short of a row, a full
    # block, a block and a row, and the benchmark's 220 and the 301-node
    # rung's 660 unknowns; one right-hand
    # side and many.  Measured: at most 8.8e-16 relative to the largest entry
    a = rng.normal(size=(n, n))
    u = inversion.cho_factor(a @ a.T + n * np.eye(n), "control")
    for b in (rng.normal(size=n), rng.normal(size=(n, 33))):
        ref = cho_solve((u, False), b)
        _assert_close(inversion.cho_solve(u, b), ref, 1e-14)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_cho_factor_rejects_non_finite_normal_equations(bad):
    mat = np.eye(4)
    mat[1, 2] = mat[2, 1] = bad
    with pytest.raises(IllConditionedError, match="moment normal equations not finite"):
        inversion.cho_factor(mat, "moment")


def test_cho_factor_reports_the_condition_of_an_indefinite_matrix():
    # a finite matrix with eigenvalues 3 and -1 has no Cholesky factor; the
    # error carries its condition number, 3
    with pytest.raises(IllConditionedError, match=r"^control normal equations failed "
                                                  r"\(condition estimate 3\.000e\+00\)$") as err:
        inversion.cho_factor(np.array([[1.0, 2.0], [2.0, 1.0]]), "control")
    assert err.value.cond_estimate == pytest.approx(3.0, rel=1e-12)


def test_synthesis_of_a_target_stack_matches_one_at_a_time(op31, grid31):
    basis = ControlBasis(grid31, "w1", DT, T_FINAL, 8)
    bg = BackgroundStates(op31, None, basis)
    thetas, profiles = interior_targets(basis, nodes=grid31.omega[::3])
    n = len(profiles) * len(thetas)
    coeffs, achieved, errors = bg.synthesize(thetas, profiles, 1e-8)
    assert coeffs.shape == (n, len(basis))
    assert achieved.shape == (n, NT + 1, grid31.omega.size) and errors.shape == (n,)
    for i in (0, n - 1):
        node, window = divmod(i, len(thetas))
        c, a, e = bg.synthesize(thetas[window:window + 1], profiles[node:node + 1], 1e-8)
        _assert_close(coeffs[i], c[0], 1e-8)
        _assert_close(achieved[i], a[0], 1e-8)
        assert errors[i] == pytest.approx(e[0], rel=1e-8)


# ------------------------------------------------------ linear potential


def test_l2_norm_is_numpys_unless_the_squares_overflow(rng):
    # the runner's norms keep their bits below the overflow, and above it
    # read the norm of x over its largest magnitude, times that magnitude
    x = rng.normal(size=(9, 51))
    w = solver.trapezoid_weights(50)[None, :]
    assert inversion.l2_norm(x) == np.linalg.norm(x)
    assert inversion.l2_norm(x, w) == np.sqrt(np.sum(w * x ** 2))
    big = 1e300 * x
    assert inversion.l2_norm(big) == pytest.approx(1e300 * np.linalg.norm(x), rel=1e-14)
    assert inversion.l2_norm(big, w) == pytest.approx(1e300 * inversion.l2_norm(x, w),
                                                      rel=1e-14)
    assert inversion.l2_norm(np.full(4, 1e308)) == np.inf     # 2e308, past the largest float
    assert np.isnan(inversion.l2_norm(np.array([1.0, np.nan])))


def _kernel(fld1, fld2, weights, scale=1.0):
    """The probing kernel of two fields, formed into the arrays that
    LinearRecovery allocates for it."""
    n1, n_times, n_nodes = fld1.shape
    kern, *buffers = inversion._kernel_arrays(n1, len(fld2), n_times, n_nodes, len(weights))
    failed = []
    _probing_kernel(fld1, fld2, weights, scale, kern, *buffers, failed)
    assert failed == []
    return kern.reshape(n1 * len(fld2), -1)


@pytest.mark.parametrize("n_profiles", [1, 3])
def test_probing_kernel_matches_einsum(rng, n_profiles):
    # the kernel was one einsum; a field reversed in time is a strided view,
    # as the recovery's second field is
    fld1 = rng.normal(size=(7, NT + 1, 5))[:, ::-1, :]
    fld2 = rng.normal(size=(6, NT + 1, 5))
    weights = rng.uniform(size=(n_profiles, NT + 1))
    ref = np.einsum("itj,ktj,mt->ikjm", fld1, fld2, weights, optimize=True)
    _assert_close(_kernel(fld1, fld2, weights), ref.reshape(7 * 6, -1), 1e-12)


@pytest.mark.parametrize("chunk", [1, 2, 4])
def test_probing_kernel_is_the_same_a_chunk_of_nodes_at_a_time(rng, monkeypatch, chunk):
    # each node's product is one matmul whatever the chunk, so the kernel is
    # bitwise that of one chunk over all five nodes (the last chunk part
    # full at 2 and 4), and the scale is applied as h * x was
    fld1 = rng.normal(size=(5, 7, NT + 1)).transpose(1, 2, 0)     # laid out (j, i, t)
    fld2 = rng.normal(size=(5, 6, NT + 1)).transpose(1, 2, 0)[:, ::-1, :]
    weights = rng.uniform(size=(3, NT + 1))
    whole = 0.3 * _kernel(fld1, fld2, weights)
    monkeypatch.setattr(inversion, "KERNEL_CHUNK", chunk)
    assert _kernel(fld1, fld2, weights, 0.3).tobytes() == whole.tobytes()


def _copying_probing_kernel(fld1, fld2, weights):
    """_probing_kernel as it stood: a contiguous copy of the reversed right
    operand, and each time profile's weights on the left one."""
    right = np.ascontiguousarray(fld2.transpose(2, 1, 0))       # (j, t, k)
    left = np.ascontiguousarray(fld1.transpose(2, 0, 1))        # (j, i, t)
    kern = np.empty((len(fld1), len(fld2), fld1.shape[2], len(weights)))
    for m, w in enumerate(weights):
        kern[..., m] = ((left * w) @ right).transpose(1, 2, 0)
    return kern.reshape(len(fld1) * len(fld2), -1)


# measured maxima, relative to the largest entry, of the kernel weighting
# its right operand against the copying one, on the achieved states of the
# recovery, one and three time profiles: 4.7e-16 at 31 nodes, 3.9e-16 at 101
KERNEL_RTOL = 2e-15


@pytest.mark.parametrize("n_profiles", [None, 3])
@pytest.mark.parametrize("n_nodes", [31, 101])
def test_probing_kernel_matches_the_copying_kernel(request, n_nodes, n_profiles):
    op = request.getfixturevalue(f"op{n_nodes}")
    dt, n_segments = (DT, 8) if n_nodes == 31 else (BENCH_DT, 16)
    bases = [ControlBasis(op.grid, w, dt, T_FINAL, n_segments) for w in ("w1", "w2")]
    bg1 = BackgroundStates(op, None, bases[0])
    bg2 = BackgroundStates(op, None, bases[1], like=bg1)
    targets = interior_targets(bases[0])
    achieved1, achieved2 = (bg.synthesize(*targets, 1e-12)[1] for bg in (bg1, bg2))
    nt = bases[0].n_steps
    gamma = (np.ones((1, nt + 1)) if n_profiles is None
             else inversion._time_hats(n_profiles, dt, nt))
    weights = gamma * bg1.time_weights
    fld2 = achieved2[:, ::-1, :]
    _assert_close(_kernel(achieved1, fld2, weights),
                  _copying_probing_kernel(achieved1, fld2, weights), KERNEL_RTOL)


@pytest.mark.parametrize("q_time_basis", [None, 3])
def test_recover_linear_potential_is_the_built_recovery_estimate(op31, grid31, q_time_basis):
    # the recovery is built once over the background and reads the data only
    # through their moments, c1 pairings c2^T
    basis1, basis2 = (ControlBasis(grid31, w, DT, T_FINAL, 8) for w in ("w1", "w2"))
    background = BackgroundStates(op31, None, basis1)
    pairings = dn_difference_linear(_potential(grid31, DT, "ramp"), background, basis2)
    kwargs = dict(q_time_basis=q_time_basis, target_nodes=grid31.omega[::2])
    got = recover_linear_potential(pairings, background, basis2, 1e-1, 1e-10, **kwargs)
    recovery = LinearRecovery(background, basis2, 1e-1, 1e-10, **kwargs)
    ref = recovery.estimate(recovery.coeff1 @ pairings @ recovery.coeff2.T)
    assert got.values.tobytes() == ref.values.tobytes()
    assert got.covered.tobytes() == ref.covered.tobytes()
    assert got.diagnostics == ref.diagnostics
    # the second estimate of one recovery is its first
    again = recovery.estimate(recovery.moments(pairings))
    assert again.values.tobytes() == ref.values.tobytes()


# Largest entry of |moments(sigma E) - sigma c1 E c2^T| over the largest of
# sigma c1 E c2^T: 20 draws at levels 1e-8, 1e-3 and 1 of std(P_bg) gave
# at most 5.5e-16 at 31 nodes and 2.3e-15 at 101 (BLAS at one thread)
NOISE_MOMENT_RTOL = 1e-13


@pytest.mark.parametrize("n_nodes, n_segments, dt", [(31, 8, DT), (101, 16, BENCH_DT)])
def test_noise_enters_as_its_moments(op31, op101, n_nodes, n_segments, dt):
    # noise sigma E, iid on the (controls, probes) pairings, reaches the
    # recovery as sigma c1 E c2^T, so the runner adds its moments to the data's
    op = op31 if n_nodes == 31 else op101
    basis1, basis2 = (ControlBasis(op.grid, w, dt, T_FINAL, n_segments) for w in ("w1", "w2"))
    recovery = LinearRecovery(BackgroundStates(op, None, basis1), basis2, 1e-1, 1e-12)
    sigma = 1e-8 * np.std(dn_matrix_linear(op, None, basis1, basis2))
    draw = np.random.default_rng(0).standard_normal((len(basis1), len(basis2)))
    ref = sigma * (recovery.coeff1 @ draw @ recovery.coeff2.T)
    got = recovery.moments(sigma * draw)
    assert got.shape == (len(recovery.coeff1), len(recovery.coeff2))
    assert np.max(np.abs(got - ref)) <= NOISE_MOMENT_RTOL * np.max(np.abs(ref))


def test_built_recovery_keeps_the_w1_synthesis(op31, grid31):
    # coeff1, coeff2 and achieved1 are those of the two syntheses; of the
    # achieved states only the w1 ones stay once the kernel is formed
    basis1, basis2 = (ControlBasis(grid31, w, DT, T_FINAL, 8) for w in ("w1", "w2"))
    background = BackgroundStates(op31, None, basis1)
    recovery = LinearRecovery(background, basis2, 1e-1, 1e-10)
    targets = interior_targets(basis1)
    coeff1, achieved1, _ = background.synthesize(*targets, 1e-10)
    coeff2 = BackgroundStates(op31, None, basis2).synthesize(*targets, 1e-10)[0]
    assert recovery.coeff1.tobytes() == coeff1.tobytes()
    assert recovery.coeff2.tobytes() == coeff2.tobytes()
    assert np.array_equal(recovery.achieved1, achieved1)
    held = [v for v in vars(recovery).values() if isinstance(v, np.ndarray) and v.ndim == 3]
    assert len(held) == 1 and held[0] is recovery.achieved1
    with pytest.raises(InversionError, match=r"^moments are \(2, 2\), the targets \(27, 27\)$"):
        recovery.estimate(np.zeros((2, 2)))


def test_exact_recovery_from_synthetic_first_order_data(op31, grid31):
    # data built directly from the first-order model the solver inverts
    om = grid31.omega
    basis1 = ControlBasis(grid31, "w1", DT, T_FINAL, 8)
    basis2 = ControlBasis(grid31, "w2", DT, T_FINAL, 8)
    bg1 = BackgroundStates(op31, None, basis1)
    bg2 = BackgroundStates(op31, None, basis2)

    q_true = 1.0 + 0.5 * np.sin(np.pi * grid31.x[om])
    wt = DT * trapezoid_weights(NT)
    inner = grid31.h * np.einsum("atj,j,t,btj->ab", _all_states(bg1), q_true, wt,
                                 _all_states(bg2)[:, ::-1, :], optimize=True)
    est = recover_linear_potential(inner, bg1, basis2, alpha_inv=1e-12, synth_alpha=1e-12)
    rel = np.linalg.norm(est.values - q_true) / np.linalg.norm(q_true)
    assert rel < 1e-5
    assert est.covered.all()
    assert est.diagnostics["n_pairs"] == (3 * om.size) ** 2


def test_time_reversal_consistency_of_estimates(op61, grid61):
    # mirrored data sets yield mutually time-reversed estimates
    om = grid61.omega
    dt, nt = 0.01, 100
    g = np.exp(-((grid61.x[om] - 0.5) / 0.2) ** 2)
    tgrid = np.linspace(0, T_FINAL, nt + 1)
    basis1 = ControlBasis(grid61, "w1", dt, T_FINAL, 16)
    basis2 = ControlBasis(grid61, "w2", dt, T_FINAL, 16)
    bg1 = BackgroundStates(op61, None, basis1)
    rec_f = dn_difference_linear(np.outer(tgrid, g), bg1, basis2)
    rec_r = dn_difference_linear(np.outer(T_FINAL - tgrid, g), bg1, basis2)
    kwargs = dict(alpha_inv=1e-1, synth_alpha=1e-12, q_time_basis=3)
    # each estimate read in the reversed frame, as a function of T - t
    est_f, est_r = (recover_linear_potential(rec, bg1, basis2, **kwargs).values[:, ::-1]
                    for rec in (rec_f, rec_r))
    mutual = (np.linalg.norm(est_f - est_r[:, ::-1])
              / np.linalg.norm(est_f))
    assert mutual < 0.05
    truth_rev = np.outer(g, T_FINAL - tgrid)  # reversed frame estimates this
    rel = np.linalg.norm(est_f - truth_rev) / np.linalg.norm(truth_rev)
    assert rel < 0.10


def _zero_case(op, grid):
    """Zero pairings over the w1 and w2 bases of level 8, the q = 0 background
    of the w1 basis, and the w2 basis."""
    basis1 = ControlBasis(grid, "w1", DT, T_FINAL, 8)
    basis2 = ControlBasis(grid, "w2", DT, T_FINAL, 8)
    return (np.zeros((len(basis1), len(basis2))),
            BackgroundStates(op, None, basis1), basis2)


def test_recover_rejects_mismatched_records(op31, grid31):
    # pairings measured over other controls than the background's basis
    pairings, _, basis2 = _zero_case(op31, grid31)
    finer = BackgroundStates(op31, None, ControlBasis(grid31, "w1", DT, T_FINAL, 16))
    with pytest.raises(InversionError, match=r"^pairings are \(18, 18\), the bases \(66, 18\)$"):
        recover_linear_potential(pairings, finer, basis2, 1e-6, 1e-10)


def test_recover_rejects_swapped_windows(op31, grid31):
    pairings, bg, basis2 = _zero_case(op31, grid31)
    with pytest.raises(InversionError, match="expected controls on w1"):
        recover_linear_potential(pairings, bg, bg.basis, 1e-6, 1e-10)
    on_w2 = BackgroundStates(op31, None, basis2)
    with pytest.raises(InversionError, match="expected controls on w1"):
        recover_linear_potential(pairings, on_w2, basis2, 1e-6, 1e-10)


def test_recover_checks_the_record_before_any_solve(op31, grid31, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the pairings were checked")

    pairings, bg, basis2 = _zero_case(op31, grid31)
    monkeypatch.setattr(inversion, "BackgroundStates", no_solve)
    with pytest.raises(InversionError, match="pairings"):
        recover_linear_potential(pairings[:, :-1], bg, basis2, 1e-6, 1e-10)
    finer = ControlBasis(grid31, "w2", DT, T_FINAL, 16)
    with pytest.raises(InversionError, match="pairings"):
        recover_linear_potential(pairings, bg, finer, 1e-6, 1e-10)
    longer = ControlBasis(grid31, "w2", DT, 2 * T_FINAL, 8)
    with pytest.raises(InversionError, match="time grid"):
        recover_linear_potential(pairings, bg, longer, 1e-6, 1e-10)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_recover_rejects_non_finite_pairings_before_any_solve(op31, grid31, monkeypatch, bad):
    pairings, bg, basis2 = _zero_case(op31, grid31)
    pairings[3, 4] = bad
    monkeypatch.setattr(inversion, "BackgroundStates", None)
    with pytest.raises(InversionError, match="^pairings are not finite$"):
        recover_linear_potential(pairings, bg, basis2, 1e-6, 1e-10)


def test_recover_rejects_moments_that_overflow_without_a_warning(op31, grid31):
    # finite pairings near the top of the float range overflow the moment
    # data m = coeff1 pairings coeff2^T, which would fill the report with NaN
    pairings, bg, basis2 = _zero_case(op31, grid31)
    pairings[:] = 1e307
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InversionError, match="^moment data are not finite$"):
            recover_linear_potential(pairings, bg, basis2, 1e-6, 1e-10)


def test_recover_rejects_a_probe_basis_on_another_time_grid(op31, grid31, monkeypatch):
    # same windows, level and pairings shape: only the probes' grid differs
    # from the background's, and the probes are refused before any solve
    pairings, bg, basis2 = _zero_case(op31, grid31)
    monkeypatch.setattr(inversion, "BackgroundStates", None)
    for probes in (ControlBasis(grid31, "w2", 0.01, T_FINAL, 8),
                   ControlBasis(grid31, "w2", DT, 2 * T_FINAL, 8)):
        assert len(probes) == len(basis2)
        with pytest.raises(InversionError, match="^probe basis time grid"):
            recover_linear_potential(pairings, bg, probes, 1e-6, 1e-10)


def test_recover_rejects_bad_frame_and_background(op31, grid31):
    pairings, bg, basis2 = _zero_case(op31, grid31)
    # the recovery takes no frame: it estimates on the forward time axis, the
    # runner orients the estimate, and the reader rejects an unknown frame
    moving = BackgroundStates(op31, np.outer(DT * np.arange(NT + 1),
                                             np.ones(grid31.omega.size)), bg.basis)
    with pytest.raises(InversionError, match="must be static"):
        recover_linear_potential(pairings, moving, basis2, 1e-6, 1e-10)


def test_recover_takes_a_static_background_given_as_time_samples(op31, grid31):
    # a background potential sampled on the time nodes but the same at each
    # is static, as the background states and the data pass take it: its
    # recovery is that of its one-row form, bit for bit
    basis1, basis2 = (ControlBasis(grid31, w, DT, T_FINAL, 8) for w in ("w1", "w2"))
    row = np.full(grid31.omega.size, 0.3)
    q = row + 0.2 * np.exp(-((grid31.x[grid31.omega] - 0.5) / 0.2) ** 2)
    values = []
    for q_bg in (row, np.tile(row, (NT + 1, 1))):
        background = BackgroundStates(op31, q_bg, basis1)
        pairings = dn_difference_linear(q, background, basis2)
        values.append(recover_linear_potential(pairings, background, basis2, 1e-1, 1e-10).values)
    assert np.isfinite(values[0]).all() and values[0].any()
    assert values[1].tobytes() == values[0].tobytes()


@pytest.mark.parametrize("q_time_basis", [1, 0])
def test_recover_rejects_fewer_than_two_time_profiles(op31, grid31, monkeypatch, q_time_basis):
    # a time profile is a hat between two knots: the count is refused before
    # any synthesis
    pairings, bg, basis2 = _zero_case(op31, grid31)
    monkeypatch.setattr(inversion, "BackgroundStates", None)
    with pytest.raises(InversionError,
                       match=f"^q_time_basis must be at least 2, got {q_time_basis}$"):
        recover_linear_potential(pairings, bg, basis2, 1e-6, 1e-10,
                                 q_time_basis=q_time_basis)


def test_recover_detects_zero_probing_system(op31, grid31, monkeypatch):
    pairings, bg, basis2 = _zero_case(op31, grid31)
    # zero targets synthesize zero states on both windows
    monkeypatch.setattr(inversion, "interior_targets",
                        lambda basis, nodes, width: (np.zeros((3, NT + 1)),
                                                     np.zeros((1, grid31.omega.size))))
    with pytest.raises(InversionError, match="identically zero"):
        recover_linear_potential(pairings, bg, basis2, 1e-6, 1e-10)


# --------------------------------------------------------- nonlinearity


def _exponent(op, f, psi, basis2, eps_list):
    """The exponent estimate from one remainder sweep over eps_list."""
    _lin, p_lin, remainders = dn_remainders_nonlinear(op, f, psi, basis2, eps_list)
    return estimate_homogeneity_exponent(eps_list, remainders, p_lin)


def test_exponent_estimate_scale_invariant(op31, grid31):
    om = grid31.omega
    q0 = 1.0 + 0.3 * np.cos(np.pi * grid31.x[om])
    psi = bump_control(grid31, "w1", 0.1, 0.9, DT, NT)
    basis2 = ControlBasis(grid31, "w2", DT, T_FINAL, 8)
    r1, d1 = _exponent(op31, power_nonlinearity(q0, 1), psi, basis2, [0.1, 0.03])
    r2, d2 = _exponent(op31, power_nonlinearity(7.0 * q0, 1), psi, basis2, [0.1, 0.03])
    assert abs(d1["slope"] - d2["slope"]) <= 0.02
    assert r1 == pytest.approx(1.0, abs=0.05)


def test_exponent_estimate_zero_nonlinearity_inconclusive(op31, grid31):
    psi = bump_control(grid31, "w1", 0.1, 0.9, DT, NT)
    basis2 = ControlBasis(grid31, "w2", DT, T_FINAL, 8)
    with pytest.raises(InconclusiveError, match="noise floor"):
        _exponent(op31, zero_nonlinearity(), psi, basis2, [0.1, 0.03])


def test_exponent_estimate_needs_two_amplitudes(op31, grid31):
    psi = bump_control(grid31, "w1", 0.1, 0.9, DT, NT)
    basis2 = ControlBasis(grid31, "w2", DT, T_FINAL, 8)
    with pytest.raises(InversionError, match="two amplitudes"):
        _exponent(op31, power_nonlinearity(1.0, 2), psi, basis2, [0.1])


def test_wrong_exponent_inflates_moment_residual(op31, grid31):
    om = grid31.omega
    coeff = 1.0 + 0.3 * np.sin(np.pi * grid31.x[om] + 1.0)
    f = power_nonlinearity(coeff, 2)
    psi = bump_control(grid31, "w1", 0.1, 0.9, DT, NT, amplitude=50.0)
    basis2 = ControlBasis(grid31, "w2", DT, T_FINAL, 8)
    lin, _, remainders = dn_remainders_nonlinear(op31, f, psi, basis2, (0.1, 0.05))
    rel = {}
    for rk in (1, 2, 3):
        rec = recover_nonlinear_coefficient(
            op31, lin, remainders, basis2, rk, eps0=0.1, alpha_inv=1e-2,
            synth_alpha=1e-12)
        d = rec.diagnostics
        rel[rk] = d["moment_residual"] / d["moment_norm"]
    assert rel[2] < 0.1 * rel[1]
    assert rel[2] < 0.1 * rel[3]


def test_nonlinear_coefficient_accuracy(op31, grid31):
    om = grid31.omega
    coeff = 1.0 + 0.3 * np.sin(np.pi * grid31.x[om] + 1.0)
    f = power_nonlinearity(coeff, 2)
    psi = bump_control(grid31, "w1", 0.1, 0.9, DT, NT, amplitude=50.0)
    basis2 = ControlBasis(grid31, "w2", DT, T_FINAL, 8)
    lin, _, remainders = dn_remainders_nonlinear(op31, f, psi, basis2, (0.1, 0.05))
    rec = recover_nonlinear_coefficient(
        op31, lin, remainders, basis2, 2, eps0=0.1, alpha_inv=1e-2, synth_alpha=1e-12)
    cov = rec.covered
    assert cov.sum() >= 1
    rel = (np.linalg.norm(rec.values[cov] - coeff[cov])
           / np.linalg.norm(coeff[cov]))
    assert rel < 0.05
    assert rec.r == 2.0


def _einsum_source_kernel(source, achieved2, time_weights, h):
    """The nonlinear recovery's kernel as it stood, one einsum: h times the
    sum over t of source[t, j] w_t achieved2[k, nt - t, j]."""
    return h * np.einsum("tj,t,ktj->kj", source, time_weights, achieved2[:, ::-1, :])


def _runner_probe(op, dt, n_segments):
    """The invert-nonlinear runner's probe psi, amplitude 50, and the w2
    basis of n_segments it is paired against."""
    psi = bump_control(op.grid, "w1", 0.1, 0.9, dt, n_steps_for(dt, T_FINAL), amplitude=50.0)
    return psi, ControlBasis(op.grid, "w2", dt, T_FINAL, n_segments)


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("n_nodes", [31, 101])
def test_source_kernel_matches_the_einsum_kernel(request, n_nodes, r):
    # the recovery's one kernel function forms the nonlinear kernel from one
    # source row, |v0|^r v0, against the reversed achieved probe states;
    # the matmul and the einsum sum in different orders
    op = request.getfixturevalue(f"op{n_nodes}")
    dt, n_segments = (DT, 8) if n_nodes == 31 else (BENCH_DT, 16)
    psi, basis2 = _runner_probe(op, dt, n_segments)
    v0 = solve_linear(op, None, psi, dt, T_FINAL).u[:, op.grid.omega]
    source = np.abs(v0) ** r * v0
    probes = BackgroundStates(op, None, basis2)
    recovery = Recovery(source[None], probes, 1e-2, 1e-12)
    kernel, _ = recovery._normal_equations()
    achieved2 = probes.synthesize(*interior_targets(basis2), 1e-12)[1]
    _assert_close(kernel, _einsum_source_kernel(source, achieved2, probes.time_weights,
                                                op.grid.h), 1e-14)


def test_a_given_source_recovery_only_estimates(op31):
    # a Recovery of a given source has no synthesized controls: no moments
    # of a pairing matrix, no states to step and no data pass to schedule;
    # a source off the probes' grid is refused before any synthesis
    psi, basis2 = _runner_probe(op31, DT, 8)
    probes = BackgroundStates(op31, None, basis2)
    source = solve_linear(op31, None, psi, DT, T_FINAL).u[None, :, op31.grid.omega]
    recovery = Recovery(source, probes, 1e-2, 1e-12)
    assert not any(hasattr(recovery, name) for name in ("moments", "states_of", "data_pass"))
    est = recovery.estimate(np.zeros((1, len(recovery.coeff2))))
    assert est.diagnostics["runge_errors_w1"] == [] and not est.values.any()
    states = f"{(NT + 1, op31.grid.omega.size)}"
    message = re.escape(f"source is {states}, not (rows, *{states})")
    with pytest.raises(InversionError, match=f"^{message}$"):
        Recovery(source[0], probes, 1e-2, 1e-12)


def _subset_estimate(zeta, y, alpha_inv):
    """The nonlinear estimate as it stood: zeta q ~ y solved, penalized by
    alpha_inv times the second differences, on the nodes whose columns of
    zeta reach 1e-8 of the largest, NaN elsewhere; and those nodes."""
    colnorm = np.linalg.norm(zeta, axis=0)
    covered = colnorm >= 1e-8 * colnorm.max()
    sub = zeta[:, covered]
    d2 = np.diff(np.eye(sub.shape[1]), 2, axis=0)
    gram, pen = sub.T @ sub, d2.T @ d2
    n = len(gram)
    mat = (gram + alpha_inv * np.trace(gram) / np.trace(pen) * pen
           + 1e-12 * np.trace(gram) / n * np.eye(n))
    values = np.full(zeta.shape[1], np.nan)
    values[covered] = np.linalg.solve(mat, sub.T @ y)
    return values, covered


# r_est of the acceptance configs, measured before the nonlinear estimate
# went through LinearRecovery; the exponent fit reads no recovery
TEST_10_R_EST = {1: 0.9968640985013004, 2: 1.9987179534351776}


@pytest.mark.parametrize("r", [1, 2])
def test_nonlinear_estimate_is_the_subset_solve_on_the_acceptance_configs(r):
    # test_10's configs: every omega node is covered, so the recovery's
    # all-node solve under the smoothness penalty is the subset solve it
    # replaced.  Measured against it, with BLAS at one and at two threads:
    # values within 8e-12 of the largest, the coefficient error within
    # 7.5e-10 relative
    run, op = _setup(_merge(DEFAULTS, {
        "grid": {"n_nodes": 101}, "dt": 5e-3,
        "model": {"kind": "nonlinear", "r": r,
                  "coeff": {"kind": "sine", "offset": 1.0, "amplitude": 0.3, "frequency": 1.0}},
        "experiment": {"kind": "invert-nonlinear", "psi_amplitude": 50.0, "eps0": 0.1,
                       "eps_list": [0.1, 0.03, 0.01]},
        "regularization": {"alpha_inv": 1e-2, "synth_alpha": 1e-12}}))
    psi, basis2 = _runner_probe(op, run.dt, run.basis_segments)
    lin, p_lin, remainders = dn_remainders_nonlinear(op, run.f, psi, basis2,
                                                     [0.1, 0.05, 0.03, 0.01])
    r_est, _ = estimate_homogeneity_exponent(run.eps_list, remainders, p_lin)
    assert r_est == pytest.approx(TEST_10_R_EST[r], abs=1e-6)
    rec = recover_nonlinear_coefficient(op, lin, remainders, basis2, r, run.eps0, run.alpha_inv,
                                        run.synth_alpha, run.target_nodes, run.target_width)

    probes = BackgroundStates(op, None, basis2)
    coeff2, achieved2, _ = probes.synthesize(
        *interior_targets(basis2, run.target_nodes, run.target_width), run.synth_alpha)
    w1, w2m = [coeff2 @ remainders[eps] / eps ** (r + 1) for eps in (0.1, 0.05)]
    v0 = lin.u[:, op.grid.omega]
    zeta = _einsum_source_kernel(np.abs(v0) ** r * v0, achieved2, probes.time_weights, op.grid.h)
    ref, covered = _subset_estimate(zeta, (2.0 ** r * w2m - w1) / (2.0 ** r - 1.0), 1e-2)
    assert covered.all() and rec.covered.all() and rec.diagnostics["n_covered"] == 33
    _assert_close(rec.values, ref, 1e-10)
    coeff = run.f.coeff
    err, ref_err = (np.linalg.norm(v - coeff) / np.linalg.norm(coeff) for v in (rec.values, ref))
    assert err == pytest.approx(ref_err, rel=1e-8)


def test_nonlinear_source_with_a_zero_column_leaves_its_node_unresolved(op31):
    # a node where the linear response vanishes at every time is one the
    # source side cannot reach: refused as invert-linear refuses it
    psi, basis2 = _runner_probe(op31, DT, 8)
    lin = solve_linear(op31, None, psi, DT, T_FINAL)
    remainders = {eps: np.ones(len(basis2)) for eps in (0.1, 0.05)}
    om = op31.grid.omega
    u = lin.u.copy()
    u[:, om[4]] = 0.0
    with pytest.raises(InversionError, match=re.escape(
            f"probing system leaves omega nodes unresolved: [{om[4]}]")):
        recover_nonlinear_coefficient(op31, dataclasses.replace(lin, u=u), remainders,
                                      basis2, 2, eps0=0.1, alpha_inv=1e-2, synth_alpha=1e-10)
    with pytest.raises(InversionError, match="^probing system is identically zero$"):
        recover_nonlinear_coefficient(op31, dataclasses.replace(lin, u=np.zeros_like(u)),
                                      remainders, basis2, 2, eps0=0.1, alpha_inv=1e-2,
                                      synth_alpha=1e-10)


@pytest.mark.parametrize("probes, message", [
    (("w1", DT, 8), "^expected probes on w2, got w1$"),
    (("w2", 0.01, 8), "^linear response time grid does not match the probe basis's$"),
    (("w2", DT, 16), r"^remainder at eps=0.1 is \(18,\), the probe basis has 66 elements$")])
def test_nonlinear_recovery_checks_its_probes_before_any_synthesis(op31, grid31, monkeypatch,
                                                                    probes, message):
    # remainders measured on the level-8 w2 basis, read against probes on
    # the other window, on another time grid, or of another level
    psi = bump_control(grid31, "w1", 0.1, 0.9, DT, NT, amplitude=50.0)
    measured = ControlBasis(grid31, "w2", DT, T_FINAL, 8)
    lin, _, remainders = dn_remainders_nonlinear(op31, power_nonlinearity(1.0, 2), psi,
                                                 measured, (0.1, 0.05))
    monkeypatch.setattr(inversion, "BackgroundStates", None)
    window, dt, n_segments = probes
    with pytest.raises(InversionError, match=message):
        recover_nonlinear_coefficient(op31, lin, remainders,
                                      ControlBasis(grid31, window, dt, T_FINAL, n_segments),
                                      2, eps0=0.1, alpha_inv=1e-2, synth_alpha=1e-10)


def test_nonlinear_recovery_names_a_missing_amplitude(op31, grid31, monkeypatch):
    # the Richardson step reads eps0 and eps0/2: remainders measured at other
    # amplitudes are refused before any synthesis
    psi = bump_control(grid31, "w1", 0.1, 0.9, DT, NT, amplitude=50.0)
    basis2 = ControlBasis(grid31, "w2", DT, T_FINAL, 8)
    lin, _, remainders = dn_remainders_nonlinear(op31, power_nonlinearity(1.0, 2), psi,
                                                 basis2, (0.1, 0.03))
    monkeypatch.setattr(inversion, "BackgroundStates", None)
    with pytest.raises(InversionError, match="^no remainder measured at eps=0.05$"):
        recover_nonlinear_coefficient(op31, lin, remainders, basis2, 2, eps0=0.1,
                                      alpha_inv=1e-2, synth_alpha=1e-10)
    with pytest.raises(InversionError, match="^no remainder measured at eps=0.2$"):
        recover_nonlinear_coefficient(op31, lin, remainders, basis2, 2, eps0=0.2,
                                      alpha_inv=1e-2, synth_alpha=1e-10)


@pytest.mark.parametrize("r_known", [0, 0.0, -1.0])
def test_nonlinear_recovery_refuses_a_non_positive_exponent(op31, grid31, monkeypatch, r_known):
    # the Richardson step divides by 2**r - 1, which is zero at r = 0: refused
    # before any synthesis, not turned into a NaN reconstruction
    psi = bump_control(grid31, "w1", 0.1, 0.9, DT, NT, amplitude=50.0)
    basis2 = ControlBasis(grid31, "w2", DT, T_FINAL, 8)
    lin, _, remainders = dn_remainders_nonlinear(op31, power_nonlinearity(1.0, 2), psi,
                                                 basis2, (0.1, 0.05))
    monkeypatch.setattr(inversion, "BackgroundStates", None)
    with pytest.raises(InversionError, match="^" + re.escape(
            f"nonlinearity exponent must be positive, got r={float(r_known)!r}") + "$"):
        recover_nonlinear_coefficient(op31, lin, remainders, basis2, r_known, eps0=0.1,
                                      alpha_inv=1e-2, synth_alpha=1e-10)


# -------------------------------------------------------- serialization


def test_reconstruction_json_round_trip(tmp_path):
    vals = np.array([1.0, np.nan, 3.0])
    rec = Reconstruction(values=vals, nodes=np.array([4, 5, 6]),
                         node_coords=np.array([0.1, 0.2, 0.3]),
                         covered=np.array([True, False, True]),
                         r=2.0, coeff=vals.copy(),
                         diagnostics={"fit_residual": 0.5})
    path = tmp_path / "reconstruction.json"
    rec.save(path)
    with open(path) as fh:
        saved = json.load(fh)
    assert np.array_equal(np.asarray(saved["q_est"], dtype=float), vals, equal_nan=True)
    assert np.array_equal(saved["nodes"], rec.nodes)
    assert np.array_equal(saved["covered"], rec.covered)
    assert saved["r_est"] == 2.0
    assert np.array_equal(np.asarray(saved["coeff"], dtype=float), vals, equal_nan=True)
    assert saved["diagnostics"] == {"fit_residual": 0.5}


def test_reconstruction_csv_format(tmp_path):
    rec = Reconstruction(values=np.array([1.5, 2.5]), nodes=np.array([4, 5]),
                         node_coords=np.array([0.1, 0.2]),
                         covered=np.array([True, True]))
    path = tmp_path / "reconstruction.csv"
    rec.save_csv(path, q_true=np.array([1.0, 2.0]))
    lines = path.read_text().splitlines()
    assert lines[0] == "x,q_true,q_est"
    x, qt, qe = lines[1].split(",")
    assert float(x) == 0.1 and float(qt) == 1.0 and float(qe) == 1.5
    rec.save_csv(path)  # unknown truth leaves the column empty
    assert path.read_text().splitlines()[1].split(",")[1] == ""


def test_ill_conditioned_error_carries_estimate():
    err = IllConditionedError("normal equations failed", 3.2e17)
    assert err.cond_estimate == 3.2e17
    assert "3.200e+17" in str(err)


# ----------------------------------------- the difference pairings at 101 nodes
# The test_09 static configuration.  Measurements are about 960 times their
# difference from the background, so a subtracted matrix would carry every
# rounding change of either side into the estimate.


def _gaussian_case(grid, op, amplitude):
    """The difference pairings of a static gaussian, and its recovery error."""
    dt = 5e-3
    basis1 = ControlBasis(grid, "w1", dt, T_FINAL, 16)
    basis2 = ControlBasis(grid, "w2", dt, T_FINAL, 16)
    q = amplitude * np.exp(-((grid.x[grid.omega] - 0.5) / 0.141421356) ** 2)
    background = BackgroundStates(op, None, basis1)
    diff = dn_difference_linear(q, background, basis2)

    def error(pairings):
        est = recover_linear_potential(pairings, background, basis2, alpha_inv=1e-1,
                                       synth_alpha=1e-12)
        return np.linalg.norm(est.values - q) / np.linalg.norm(q)

    return diff, error


def test_weak_static_potential_is_recovered(grid101, op101):
    # a subtracted matrix gave 48% here
    diff, error = _gaussian_case(grid101, op101, 0.05)
    assert error(diff) <= 0.10


def test_recovery_is_stable_under_ulp_perturbation_of_the_record(grid101, op101):
    # a subtracted matrix moved from 0.020 to between 0.013 and 0.037
    diff, error = _gaussian_case(grid101, op101, 0.5)
    base = error(diff)
    assert base <= 0.10
    rng = np.random.default_rng(5)
    for _ in range(3):
        noisy = diff * (1 + 1e-16 * rng.normal(size=diff.shape))
        assert abs(error(noisy) - base) < 0.01 * base


# ------------------------------------------------- the README's library use


def test_readme_library_example_runs():
    # the README's one python block runs as written, so the documented calls
    # stay those of the package; it prints its relative error, 0.1294
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```python\n(.*?)```", readme.read_text(), flags=re.S)
    assert len(blocks) == 1
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(blocks[0], str(readme), "exec"), {})
    assert float(printed.getvalue()) < 0.2
