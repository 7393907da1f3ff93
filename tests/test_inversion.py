"""Recovery machinery: control synthesis, potential and nonlinearity estimates."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import cho_factor, cho_solve

from viscowave import (BackgroundStates, IllConditionedError,
                       InconclusiveError, InversionError, LocalizedTarget,
                       Reconstruction, bump_control,
                       dn_difference_linear, dn_remainders_nonlinear,
                       estimate_homogeneity_exponent,
                       interior_targets, potential_from_spec, power_nonlinearity,
                       recover_linear_potential, recover_nonlinear_coefficient,
                       solve_linear, synthesize_control, zero_nonlinearity)
from viscowave import inversion
from viscowave.controls import ControlBasis, materialize, time_bump
from viscowave.dnmap import DNRecord
from viscowave.inversion import _probing_kernel
from viscowave.solver import n_steps_for, shift_plan, trapezoid_weights

DT, NT = 0.02, 50
T_FINAL = 1.0
BENCH_DT = 5e-3


def gaussian_target(grid, nt, dt=DT, center=0.35, width=0.22):
    om = grid.omega
    t = dt * np.arange(nt + 1)
    theta, _ = time_bump(t, 0.2 * T_FINAL, 0.8 * T_FINAL)
    prof = np.exp(-((grid.x[om] - center) / width) ** 2)
    return np.outer(theta, prof)


def zero_record(op, basis1, basis2):
    shape = (len(basis1), len(basis2))
    return DNRecord(s=op.s, controls=basis1, probes=basis2, pairings=np.zeros(shape))


# ---------------------------------------------------------------- synthesis


def test_synthesize_zero_target_gives_zero_control(op31, grid31):
    target = np.zeros((NT + 1, grid31.omega.size))
    ctl, err = synthesize_control(op31, None, target, "w1", DT, T_FINAL, 1e-10, 8)
    assert err == 0.0
    assert np.abs(ctl.values).max() == 0.0


def test_synthesis_error_decreases_with_nested_refinement(op31, grid31):
    target = gaussian_target(grid31, NT)
    errs = []
    for nseg in (8, 16, 32):
        _, err = synthesize_control(op31, None, target, "w1", DT, T_FINAL, 1e-10, nseg)
        errs.append(err)
    assert errs[1] <= errs[0] * (1 + 1e-9)
    assert errs[2] <= errs[1] * (1 + 1e-9)


def test_synthesis_error_nondecreasing_in_alpha(op31, grid31):
    target = gaussian_target(grid31, NT)
    basis = ControlBasis(grid31, "w1", DT, T_FINAL, 16)
    bg = BackgroundStates(op31, None, basis)
    errs = [bg.synthesize(target, alpha)[2]
            for alpha in (1e-12, 1e-8, 1e-4, 1e0, 1e4)]
    assert np.all(np.diff(errs) >= -1e-12 * errs[-1])


def test_synthesis_factors_once_per_call(op31, grid31, monkeypatch):
    from viscowave import inversion

    target = gaussian_target(grid31, NT)
    basis = ControlBasis(grid31, "w1", DT, T_FINAL, 8)
    bg = BackgroundStates(op31, None, basis)
    factored = []
    real_factor = inversion.cho_factor

    def counting_factor(a, *args, **kwargs):
        factored.append(a)
        return real_factor(a, *args, **kwargs)

    monkeypatch.setattr(inversion, "cho_factor", counting_factor)
    bg.synthesize(target, 1e-10)
    repeated = bg.synthesize(0.5 * target, 1e-10)
    bg.synthesize(np.stack([target, 0.5 * target]), 1e-6)
    assert len(factored) == 3
    # a call leaves nothing behind that changes the next one
    fresh = BackgroundStates(op31, None, basis).synthesize(0.5 * target, 1e-10)
    for a, b in zip(repeated, fresh):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


def test_large_alpha_suppresses_control(op31, grid31):
    target = gaussian_target(grid31, NT)
    basis = ControlBasis(grid31, "w1", DT, T_FINAL, 16)
    bg = BackgroundStates(op31, None, basis)
    k = grid31.h * op31.omega_block
    target_norm = np.sqrt(np.sum(
        bg.time_weights * np.einsum("tj,tj->t", target, target @ k)))
    ctl, err = synthesize_control(op31, None, target, "w1", DT, T_FINAL, 1e8, 16)
    assert err == pytest.approx(target_norm, rel=1e-4)
    assert np.abs(ctl.values).max() < 1e-4 * np.abs(target).max()


def test_synthesize_rejects_bad_target_shape(op31, grid31):
    basis = ControlBasis(grid31, "w1", DT, T_FINAL, 8)
    bg = BackgroundStates(op31, None, basis)
    with pytest.raises(InversionError, match="target shape"):
        bg.synthesize(np.zeros((NT + 1, 3)), 1e-10)


def test_synthesized_control_lives_on_requested_window(op31, grid31):
    target = gaussian_target(grid31, NT)
    ctl, _ = synthesize_control(op31, None, target, "w2", DT, T_FINAL, 1e-8, 8)
    assert ctl.window == "w2"
    outside = np.setdiff1d(np.arange(grid31.n_nodes), grid31.w2)
    assert np.abs(ctl.values[:, outside]).max() == 0.0


# ---------------------------------------------------------------- targets


def test_interior_targets_default_count(grid31):
    targets = interior_targets(grid31, T_FINAL)
    assert len(targets) == 3 * grid31.omega.size


def test_localized_target_materialize(grid31):
    node = int(grid31.omega[4])
    tgt = LocalizedTarget(node=node, t0=0.2, t1=0.6, space_width=0.2)
    field = tgt.materialize(grid31, DT, NT)
    assert field.shape == (NT + 1, grid31.omega.size)
    t = DT * np.arange(NT + 1)
    assert np.abs(field[(t <= 0.2) | (t >= 0.6)]).max() == 0.0
    peak = np.argmax(field[np.argmax(field.sum(axis=1))])
    assert grid31.omega[peak] == node


@pytest.mark.parametrize("n_nodes", [31, 101])
def test_target_stack_is_materializing_each_bitwise(grid31, grid101, n_nodes):
    grid = grid31 if n_nodes == 31 else grid101
    dt = DT if n_nodes == 31 else BENCH_DT
    nt = n_steps_for(dt, T_FINAL)
    targets = interior_targets(grid, T_FINAL)
    # windows out of order and repeated, and targets of another width
    targets = (targets[::-1] + interior_targets(grid, T_FINAL, nodes=grid.omega[::5],
                                                space_width=0.1)
               + [LocalizedTarget(int(grid.omega[3]), 0.2, 0.6, 0.2)])
    stack = inversion.materialize_targets(targets, grid, dt, nt)
    ref = np.asarray([t.materialize(grid, dt, nt) for t in targets])
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


def _assert_close(got, ref, rtol):
    """got within rtol of ref, relative to ref's largest entry."""
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= rtol * np.abs(ref).max()


@pytest.mark.parametrize("window", ["w1", "w2"])
@pytest.mark.parametrize("static_q", [False, True])
def test_background_states_match_reference_loop_bitwise(op31, grid31, window, static_q):
    # the basis pass sums in another order than one solve per control
    q = 0.3 * np.ones(grid31.omega.size) if static_q else None
    basis = ControlBasis(grid31, window, DT, T_FINAL, 8)
    bg = BackgroundStates(op31, q, basis)
    states, gram = _reference_background(op31, q, basis, DT, T_FINAL)
    _assert_close(bg.states, states, 1e-12)
    _assert_close(bg.gram, gram, 1e-12)


@pytest.mark.parametrize("static_q", [False, True])
def test_synthesis_matches_reference_path(op31, grid31, static_q, monkeypatch):
    # the right-hand side weights the targets' energy in time, not a stored
    # weighted copy of the states; the Gram is a product of energy
    # coordinates, so it matches the reference to rounding, and the reference
    # solve uses it; coefficients are too ill-conditioned to pin
    from viscowave import inversion

    q = 0.3 * np.ones(grid31.omega.size) if static_q else None
    basis = ControlBasis(grid31, "w1", DT, T_FINAL, 8)
    bg = BackgroundStates(op31, q, basis)
    gram, sw_flat = _reference_weighting(op31, bg.states, DT)
    _assert_close(bg.gram, gram, 1e-12)
    targets = interior_targets(grid31, T_FINAL, nodes=grid31.omega[::3])
    stack = np.asarray([t.materialize(grid31, DT, NT) for t in targets])
    rhs = sw_flat @ (stack @ (grid31.h * op31.omega_block)).reshape(len(stack), -1).T
    scale = np.trace(bg.gram) / np.trace(bg.control_gram)
    coeffs = cho_solve(cho_factor(bg.gram + 1e-8 * scale * bg.control_gram), rhs).T
    achieved = (coeffs @ bg.states.reshape(len(basis), -1)).reshape(stack.shape)

    solved = []
    monkeypatch.setattr(inversion, "cho_solve",
                        lambda cho, b: solved.append(b) or cho_solve(cho, b))
    _assert_close(bg.synthesize(stack, 1e-8)[1], achieved, 1e-10)
    _assert_close(solved[0], rhs, 1e-15)


def _benchmark_background(op101, grid101, ramp):
    """BackgroundStates(w1) of the invert-linear benchmark: 101 nodes, 16
    segments, 200 steps, with q = 0 or the ramp potential."""
    basis = ControlBasis(grid101, "w1", BENCH_DT, T_FINAL, 16)
    q = None
    if ramp:
        q = potential_from_spec(grid101, {"kind": "gaussian", "amplitude": 0.5,
                                          "center": 0.5, "width": 0.141421356,
                                          "time": "ramp"}, BENCH_DT, T_FINAL)
    return BackgroundStates(op101, q, basis)


@pytest.mark.parametrize("ramp", [False, True])
def test_gram_at_benchmark_size_matches_reference(op101, grid101, ramp):
    # with q = 0 the pass steps 40 seeds and delays them into the other 180
    # elements; the ramp steps all 220
    bg = _benchmark_background(op101, grid101, ramp)
    seed, _lag = shift_plan(bg.basis, not ramp)
    assert np.count_nonzero(seed == np.arange(seed.size)) == (len(bg.basis) if ramp else 40)
    _assert_close(bg.gram, _reference_weighting(op101, bg.states, BENCH_DT)[0], 1e-12)
    assert bg.gram.tobytes() == bg.gram.T.tobytes()


def test_background_init_peak_is_states_and_one_more_array(op101, grid101):
    # traced peak of one benchmark-size BackgroundStates(w1) with q = 0:
    # measured 28.9 MB, 2.47 times its 11.7 MB states: the states, their
    # energy coordinates and the basis pass's last block of 40 seeds (4.2 MB);
    # one more element-major array would take it past 3.4 times
    _benchmark_background(op101, grid101, False)
    tracemalloc.start()
    try:
        bg = _benchmark_background(op101, grid101, False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.0 * bg.states.nbytes


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
def test_energy_factor_rejects_a_non_finite_or_indefinite_block(bad):
    k_omega = np.eye(4)
    k_omega[2, 2] = bad
    with pytest.raises(InversionError,
                       match="^interior energy matrix is not finite and positive definite$"):
        inversion._energy_factor(k_omega)


@pytest.mark.parametrize("nseg", [8, 16])
def test_cho_factor_is_scipys_upper_factor_bitwise(op31, nseg):
    basis = ControlBasis(op31.grid, "w1", DT, T_FINAL, nseg)
    bg = BackgroundStates(op31, None, basis)
    scale = np.trace(bg.gram) / np.trace(bg.control_gram)
    mat = bg.gram + 1e-8 * scale * bg.control_gram
    u, lower = inversion.cho_factor(mat, "control")
    assert lower is False
    assert u.tobytes() == np.triu(cho_factor(mat)[0]).tobytes()


def test_cho_solve_matches_scipys_achieved_states(op101, grid101, monkeypatch):
    nt = n_steps_for(DT, T_FINAL)
    basis = ControlBasis(grid101, "w1", DT, T_FINAL, 16)
    bg = BackgroundStates(op101, None, basis)
    targets = interior_targets(grid101, T_FINAL, nodes=grid101.omega[::7])
    stack = np.asarray([t.materialize(grid101, DT, nt) for t in targets])
    achieved = bg.synthesize(stack, 1e-8)[1]
    monkeypatch.setattr(inversion, "cho_solve", cho_solve)
    _assert_close(achieved, bg.synthesize(stack, 1e-8)[1], 1e-11)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_cho_factor_rejects_non_finite_normal_equations(bad):
    mat = np.eye(4)
    mat[1, 2] = mat[2, 1] = bad
    with pytest.raises(IllConditionedError, match="moment normal equations not finite"):
        inversion.cho_factor(mat, "moment")


def test_synthesis_of_a_target_stack_matches_one_at_a_time(op31, grid31):
    basis = ControlBasis(grid31, "w1", DT, T_FINAL, 8)
    bg = BackgroundStates(op31, None, basis)
    targets = interior_targets(grid31, T_FINAL, nodes=grid31.omega[::3])
    fields = np.asarray([t.materialize(grid31, DT, NT) for t in targets])
    coeffs, achieved, errors = bg.synthesize(fields, 1e-8)
    assert coeffs.shape == (len(targets), len(basis))
    assert achieved.shape == fields.shape and errors.shape == (len(targets),)
    for i in (0, len(targets) - 1):
        c, a, e = bg.synthesize(fields[i], 1e-8)
        _assert_close(coeffs[i], c, 1e-8)
        _assert_close(achieved[i], a, 1e-8)
        assert errors[i] == pytest.approx(e, rel=1e-8)


# ------------------------------------------------------ linear potential


@pytest.mark.parametrize("n_profiles", [1, 3])
def test_probing_kernel_matches_einsum(rng, n_profiles):
    # the kernel was one einsum; a field reversed in time is a strided view,
    # as the recovery's second field is
    fld1 = rng.normal(size=(7, NT + 1, 5))[:, ::-1, :]
    fld2 = rng.normal(size=(6, NT + 1, 5))
    weights = rng.uniform(size=(n_profiles, NT + 1))
    ref = np.einsum("itj,ktj,mt->ikjm", fld1, fld2, weights, optimize=True)
    _assert_close(_probing_kernel(fld1, fld2, weights), ref.reshape(7 * 6, -1), 1e-12)


def test_exact_recovery_from_synthetic_first_order_data(op31, grid31):
    # data built directly from the first-order model the solver inverts
    om = grid31.omega
    basis1 = ControlBasis(grid31, "w1", DT, T_FINAL, 8)
    basis2 = ControlBasis(grid31, "w2", DT, T_FINAL, 8)
    bg1 = BackgroundStates(op31, None, basis1)
    bg2 = BackgroundStates(op31, None, basis2)

    q_true = 1.0 + 0.5 * np.sin(np.pi * grid31.x[om])
    wt = DT * trapezoid_weights(NT)
    inner = grid31.h * np.einsum("atj,j,t,btj->ab", bg1.states, q_true, wt,
                                 bg2.states[:, ::-1, :], optimize=True)
    perm = basis2.reversal_permutation()
    rec_data = DNRecord(s=op31.s, controls=basis1, probes=basis2, pairings=inner[:, perm])

    est = recover_linear_potential(rec_data, bg1, interior_targets(grid31, T_FINAL),
                                   alpha_inv=1e-12, synth_alpha=1e-12)
    rel = np.linalg.norm(est.values - q_true) / np.linalg.norm(q_true)
    assert rel < 1e-5
    assert est.covered.all()
    assert est.diagnostics["n_pairs"] == len(interior_targets(grid31, T_FINAL)) ** 2


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
    targets = interior_targets(grid61, T_FINAL)
    kwargs = dict(alpha_inv=1e-1, synth_alpha=1e-12, q_time_basis=3)
    # each estimate read in the reversed frame, as a function of T - t
    est_f, est_r = (recover_linear_potential(rec, bg1, targets, **kwargs).values[:, ::-1]
                    for rec in (rec_f, rec_r))
    mutual = (np.linalg.norm(est_f - est_r[:, ::-1])
              / np.linalg.norm(est_f))
    assert mutual < 0.05
    truth_rev = np.outer(g, T_FINAL - tgrid)  # reversed frame estimates this
    rel = np.linalg.norm(est_f - truth_rev) / np.linalg.norm(truth_rev)
    assert rel < 0.10


def _zero_case(op, grid):
    """A zero record over the w1 and w2 bases of level 8, and its q = 0 background."""
    basis1 = ControlBasis(grid, "w1", DT, T_FINAL, 8)
    basis2 = ControlBasis(grid, "w2", DT, T_FINAL, 8)
    return (zero_record(op, basis1, basis2),
            BackgroundStates(op, None, basis1))


def test_recover_rejects_mismatched_records(op31, grid31):
    rec, bg = _zero_case(op31, grid31)
    targets = interior_targets(grid31, T_FINAL)
    bad_s = DNRecord(s=0.7, controls=rec.controls,
                     probes=rec.probes, pairings=rec.pairings)
    with pytest.raises(InversionError, match="record order"):
        recover_linear_potential(bad_s, bg, targets, 1e-6)
    bad_dt = DNRecord(s=op31.s, controls=ControlBasis(grid31, "w1", 0.04, T_FINAL, 8),
                      probes=rec.probes, pairings=rec.pairings)
    with pytest.raises(InversionError, match="time grid"):
        recover_linear_potential(bad_dt, bg, targets, 1e-6)


def test_recover_rejects_swapped_windows(op31, grid31):
    _, bg = _zero_case(op31, grid31)
    basis2 = ControlBasis(grid31, "w2", DT, T_FINAL, 8)
    rec = DNRecord(s=op31.s, controls=basis2, probes=basis2,
                   pairings=np.zeros((len(basis2), len(basis2))))
    with pytest.raises(InversionError, match="expected controls on w1"):
        recover_linear_potential(rec, bg, interior_targets(grid31, T_FINAL), 1e-6)


def test_recover_checks_the_record_before_any_solve(op31, grid31, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the record was checked")

    rec, bg = _zero_case(op31, grid31)
    monkeypatch.setattr(inversion, "BackgroundStates", no_solve)
    targets = interior_targets(grid31, T_FINAL)
    short = dataclasses.replace(rec, pairings=rec.pairings[:, :-1])
    with pytest.raises(InversionError, match="pairings"):
        recover_linear_potential(short, bg, targets, 1e-6)
    finer = dataclasses.replace(rec, probes=ControlBasis(grid31, "w2", DT, T_FINAL, 16))
    with pytest.raises(InversionError, match="pairings"):
        recover_linear_potential(finer, bg, targets, 1e-6)
    longer = dataclasses.replace(rec, controls=ControlBasis(grid31, "w1", DT, 2 * T_FINAL, 8))
    with pytest.raises(InversionError, match="time grid"):
        recover_linear_potential(longer, bg, targets, 1e-6)
    other = dataclasses.replace(rec, controls=ControlBasis(grid31, "w1", DT, T_FINAL, 16))
    with pytest.raises(InversionError, match="not the background's basis"):
        recover_linear_potential(other, bg, targets, 1e-6)


def test_recover_rejects_a_probe_basis_on_another_time_grid(op31, grid31, monkeypatch):
    # same windows, level and pairings shape: only the probes' grid differs
    # from the background's, and the record is refused before any solve
    rec, bg = _zero_case(op31, grid31)
    monkeypatch.setattr(inversion, "BackgroundStates", None)
    targets = interior_targets(grid31, T_FINAL)
    for probes in (ControlBasis(grid31, "w2", 0.01, T_FINAL, 8),
                   ControlBasis(grid31, "w2", DT, 2 * T_FINAL, 8)):
        assert len(probes) == len(rec.probes)
        moved = dataclasses.replace(rec, probes=probes)
        with pytest.raises(InversionError, match="^record time grid"):
            recover_linear_potential(moved, bg, targets, 1e-6)


def test_recover_rejects_bad_frame_and_background(op31, grid31):
    rec, bg = _zero_case(op31, grid31)
    targets = interior_targets(grid31, T_FINAL)
    # the recovery takes no frame: it estimates on the forward time axis, the
    # runner orients the estimate, and the reader rejects an unknown frame
    moving = BackgroundStates(op31, np.zeros((NT + 1, grid31.omega.size)), bg.basis)
    with pytest.raises(InversionError, match="must be static"):
        recover_linear_potential(rec, moving, targets, 1e-6)


def test_recover_detects_zero_probing_system(op31, grid31):
    rec, bg = _zero_case(op31, grid31)
    # time window beyond t_final materializes to the zero target
    dead = [LocalizedTarget(int(grid31.omega[4]), 2.0, 3.0, 0.2)]
    with pytest.raises(InversionError, match="identically zero"):
        recover_linear_potential(rec, bg, dead, 1e-6)


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
    targets = interior_targets(grid31, T_FINAL)
    basis2 = ControlBasis(grid31, "w2", DT, T_FINAL, 8)
    lin, _, remainders = dn_remainders_nonlinear(op31, f, psi, basis2, (0.1, 0.05))
    rel = {}
    for rk in (1, 2, 3):
        rec = recover_nonlinear_coefficient(
            op31, lin, remainders, basis2, rk, targets, eps0=0.1, alpha_inv=1e-2,
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
        op31, lin, remainders, basis2, 2, interior_targets(grid31, T_FINAL), eps0=0.1,
        alpha_inv=1e-2, synth_alpha=1e-12)
    cov = rec.covered
    assert cov.sum() >= 1
    rel = (np.linalg.norm(rec.values[cov] - coeff[cov])
           / np.linalg.norm(coeff[cov]))
    assert rel < 0.05
    assert rec.r == 2.0


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
    loaded = Reconstruction.load(path)
    assert np.array_equal(loaded.values, vals, equal_nan=True)
    assert np.array_equal(loaded.nodes, rec.nodes)
    assert np.array_equal(loaded.covered, rec.covered)
    assert loaded.r == 2.0
    assert np.array_equal(loaded.coeff, vals, equal_nan=True)
    assert loaded.diagnostics == {"fit_residual": 0.5}


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


# ------------------------------------------ the difference record at 101 nodes
# The test_09 static configuration.  Measurements are about 960 times their
# difference from the background, so a subtracted record would carry every
# rounding change of either side into the estimate.


def _gaussian_case(grid, op, amplitude):
    """The difference record of a static gaussian, and its recovery error."""
    dt = 5e-3
    basis1 = ControlBasis(grid, "w1", dt, T_FINAL, 16)
    basis2 = ControlBasis(grid, "w2", dt, T_FINAL, 16)
    q = amplitude * np.exp(-((grid.x[grid.omega] - 0.5) / 0.141421356) ** 2)
    background = BackgroundStates(op, None, basis1)
    diff = dn_difference_linear(q, background, basis2)
    targets = interior_targets(grid, T_FINAL)

    def error(record):
        est = recover_linear_potential(record, background, targets, alpha_inv=1e-1,
                                       synth_alpha=1e-12)
        return np.linalg.norm(est.values - q) / np.linalg.norm(q)

    return diff, error


def test_weak_static_potential_is_recovered(grid101, op101):
    # a subtracted record gave 48% here
    diff, error = _gaussian_case(grid101, op101, 0.05)
    assert error(diff) <= 0.10


def test_recovery_is_stable_under_ulp_perturbation_of_the_record(grid101, op101):
    # a subtracted record moved from 0.020 to between 0.013 and 0.037
    diff, error = _gaussian_case(grid101, op101, 0.5)
    base = error(diff)
    assert base <= 0.10
    rng = np.random.default_rng(5)
    for _ in range(3):
        noisy = dataclasses.replace(
            diff, pairings=diff.pairings * (1 + 1e-16 * rng.normal(size=diff.pairings.shape)))
        assert abs(error(noisy) - base) < 0.01 * base
