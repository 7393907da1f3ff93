"""Recovery machinery: control synthesis, potential and nonlinearity estimates."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from viscowave import (BackgroundStates, IllConditionedError,
                       InconclusiveError, InversionError, LocalizedTarget,
                       Reconstruction, RungeProblem, bump_control,
                       dn_difference_linear, estimate_homogeneity_exponent,
                       interior_targets, power_nonlinearity,
                       recover_linear_potential, recover_nonlinear_coefficient,
                       solve_linear, synthesize_control, zero_nonlinearity)
from viscowave.controls import ControlBasis, materialize, time_bump
from viscowave.dnmap import DNRecord
from viscowave.solver import n_steps_for, trapezoid_weights

DT, NT = 0.02, 50
T_FINAL = 1.0


def gaussian_target(grid, nt, dt=DT, center=0.35, width=0.22):
    om = grid.omega
    t = dt * np.arange(nt + 1)
    theta, _ = time_bump(t, 0.2 * T_FINAL, 0.8 * T_FINAL)
    prof = np.exp(-((grid.x[om] - center) / width) ** 2)
    return np.outer(theta, prof)


def zero_record(op, basis1, basis2, dt, t_final):
    shape = (len(basis1), len(basis2))
    return DNRecord(s=op.s, dt=dt, t_final=t_final,
                    controls=list(basis1.specs), probes=list(basis2.specs),
                    pairings=np.zeros(shape))


# ---------------------------------------------------------------- synthesis


def test_synthesize_zero_target_gives_zero_control(op31, grid31):
    target = np.zeros((NT + 1, grid31.omega.size))
    ctl, err = synthesize_control(
        op31, None, RungeProblem(target, "w1", alpha=1e-10, n_segments=8),
        DT, T_FINAL)
    assert err == 0.0
    assert np.abs(ctl.values).max() == 0.0


def test_synthesis_error_decreases_with_nested_refinement(op31, grid31):
    target = gaussian_target(grid31, NT)
    errs = []
    for nseg in (8, 16, 32):
        _, err = synthesize_control(
            op31, None, RungeProblem(target, "w1", alpha=1e-10,
                                     n_segments=nseg), DT, T_FINAL)
        errs.append(err)
    assert errs[1] <= errs[0] * (1 + 1e-9)
    assert errs[2] <= errs[1] * (1 + 1e-9)


def test_synthesis_error_nondecreasing_in_alpha(op31, grid31):
    target = gaussian_target(grid31, NT)
    basis = ControlBasis(grid31, "w1", T_FINAL, 16)
    bg = BackgroundStates(op31, None, basis, DT, T_FINAL)
    errs = [bg.synthesize(target, alpha)[2]
            for alpha in (1e-12, 1e-8, 1e-4, 1e0, 1e4)]
    assert np.all(np.diff(errs) >= -1e-12 * errs[-1])


def test_synthesis_factors_once_per_alpha(op31, grid31, monkeypatch):
    from viscowave import inversion

    target = gaussian_target(grid31, NT)
    basis = ControlBasis(grid31, "w1", T_FINAL, 8)
    bg = BackgroundStates(op31, None, basis, DT, T_FINAL)
    factored = []
    real_factor = inversion.cho_factor

    def counting_factor(a, *args, **kwargs):
        factored.append(a)
        return real_factor(a, *args, **kwargs)

    monkeypatch.setattr(inversion, "cho_factor", counting_factor)
    bg.synthesize(target, 1e-10)
    reused = bg.synthesize(0.5 * target, 1e-10)
    bg.synthesize(target, 1e-6)
    assert len(factored) == 2
    fresh = BackgroundStates(op31, None, basis, DT, T_FINAL).synthesize(0.5 * target, 1e-10)
    for a, b in zip(reused, fresh):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


def test_large_alpha_suppresses_control(op31, grid31):
    target = gaussian_target(grid31, NT)
    basis = ControlBasis(grid31, "w1", T_FINAL, 16)
    bg = BackgroundStates(op31, None, basis, DT, T_FINAL)
    k = grid31.h * op31.omega_block
    target_norm = np.sqrt(np.sum(
        bg.time_weights * np.einsum("tj,tj->t", target, target @ k)))
    ctl, err = synthesize_control(
        op31, None, RungeProblem(target, "w1", alpha=1e8, n_segments=16),
        DT, T_FINAL)
    assert err == pytest.approx(target_norm, rel=1e-4)
    assert np.abs(ctl.values).max() < 1e-4 * np.abs(target).max()


def test_synthesize_rejects_bad_target_shape(op31, grid31):
    basis = ControlBasis(grid31, "w1", T_FINAL, 8)
    bg = BackgroundStates(op31, None, basis, DT, T_FINAL)
    with pytest.raises(InversionError, match="target shape"):
        bg.synthesize(np.zeros((NT + 1, 3)), 1e-10)


def test_synthesized_control_lives_on_requested_window(op31, grid31):
    target = gaussian_target(grid31, NT)
    ctl, _ = synthesize_control(
        op31, None, RungeProblem(target, "w2", alpha=1e-8, n_segments=8),
        DT, T_FINAL)
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


def _reference_background(op, q, basis, dt, t_final):
    """States and Gram matrix of BackgroundStates.__init__ as they stood before
    the blocked pass, kept verbatim but for self."""
    n_steps = n_steps_for(dt, t_final)
    grid = op.grid
    om = grid.omega
    states = np.empty((len(basis), n_steps + 1, om.size))
    for i, spec in enumerate(basis.specs):
        control = materialize(spec, grid, dt, n_steps)
        states[i] = solve_linear(op, q, control, dt, t_final).u[:, om]
    time_weights = dt * trapezoid_weights(n_steps)
    k_omega = grid.h * op.omega_block
    k_states = states @ k_omega
    sw = states * time_weights[None, :, None]
    flat = k_states.reshape(len(basis), -1)
    gram = sw.reshape(len(basis), -1) @ flat.T
    gram = 0.5 * (gram + gram.T)
    return states, gram


def _assert_close(got, ref, rtol):
    """got within rtol of ref, relative to ref's largest entry."""
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= rtol * np.abs(ref).max()


@pytest.mark.parametrize("window", ["w1", "w2"])
@pytest.mark.parametrize("static_q", [False, True])
def test_background_states_match_reference_loop_bitwise(op31, grid31, window, static_q):
    # the basis pass sums in another order than one solve per control
    q = 0.3 * np.ones(grid31.omega.size) if static_q else None
    basis = ControlBasis(grid31, window, T_FINAL, 8)
    bg = BackgroundStates(op31, q, basis, DT, T_FINAL)
    states, gram = _reference_background(op31, q, basis, DT, T_FINAL)
    _assert_close(bg.states, states, 1e-12)
    _assert_close(bg.gram, gram, 1e-12)


def test_synthesis_of_a_target_stack_matches_one_at_a_time(op31, grid31):
    basis = ControlBasis(grid31, "w1", T_FINAL, 8)
    bg = BackgroundStates(op31, None, basis, DT, T_FINAL)
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


def test_exact_recovery_from_synthetic_first_order_data(op31, grid31):
    # data built directly from the first-order model the solver inverts
    om = grid31.omega
    basis1 = ControlBasis(grid31, "w1", T_FINAL, 8)
    basis2 = ControlBasis(grid31, "w2", T_FINAL, 8)
    bg1 = BackgroundStates(op31, None, basis1, DT, T_FINAL)
    bg2 = BackgroundStates(op31, None, basis2, DT, T_FINAL)

    q_true = 1.0 + 0.5 * np.sin(np.pi * grid31.x[om])
    wt = DT * trapezoid_weights(NT)
    inner = grid31.h * np.einsum("atj,j,t,btj->ab", bg1.states, q_true, wt,
                                 bg2.states[:, ::-1, :], optimize=True)
    perm = basis2.reversal_permutation()
    rec_data = DNRecord(s=op31.s, dt=DT, t_final=T_FINAL,
                        controls=list(basis1.specs), probes=list(basis2.specs),
                        pairings=inner[:, perm])

    est = recover_linear_potential(rec_data, op31,
                                   interior_targets(grid31, T_FINAL),
                                   alpha_inv=1e-12, dt=DT, t_final=T_FINAL,
                                   synth_alpha=1e-12)
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
    basis1 = ControlBasis(grid61, "w1", T_FINAL, 16)
    basis2 = ControlBasis(grid61, "w2", T_FINAL, 16)
    _, rec_f = dn_difference_linear(op61, np.outer(tgrid, g), basis1, basis2,
                                    dt, T_FINAL)
    _, rec_r = dn_difference_linear(op61, np.outer(T_FINAL - tgrid, g), basis1,
                                    basis2, dt, T_FINAL)
    targets = interior_targets(grid61, T_FINAL)
    kwargs = dict(alpha_inv=1e-1, dt=dt, t_final=T_FINAL, synth_alpha=1e-12,
                  q_time_basis=3, frame="reversed")
    est_f = recover_linear_potential(rec_f, op61, targets, **kwargs)
    est_r = recover_linear_potential(rec_r, op61, targets, **kwargs)
    mutual = (np.linalg.norm(est_f.values - est_r.values[:, ::-1])
              / np.linalg.norm(est_f.values))
    assert mutual < 0.05
    truth_rev = np.outer(g, T_FINAL - tgrid)  # reversed frame estimates this
    rel = np.linalg.norm(est_f.values - truth_rev) / np.linalg.norm(truth_rev)
    assert rel < 0.10


def test_recover_rejects_mismatched_records(op31, grid31):
    basis1 = ControlBasis(grid31, "w1", T_FINAL, 8)
    basis2 = ControlBasis(grid31, "w2", T_FINAL, 8)
    rec = zero_record(op31, basis1, basis2, DT, T_FINAL)
    targets = interior_targets(grid31, T_FINAL)
    bad_s = DNRecord(s=0.7, dt=DT, t_final=T_FINAL, controls=rec.controls,
                     probes=rec.probes, pairings=rec.pairings)
    with pytest.raises(InversionError, match="record order"):
        recover_linear_potential(bad_s, op31, targets, 1e-6, DT, T_FINAL)
    bad_dt = DNRecord(s=op31.s, dt=0.04, t_final=T_FINAL, controls=rec.controls,
                      probes=rec.probes, pairings=rec.pairings)
    with pytest.raises(InversionError, match="time grid"):
        recover_linear_potential(bad_dt, op31, targets, 1e-6, DT, T_FINAL)


def test_recover_rejects_swapped_windows(op31, grid31):
    basis2 = ControlBasis(grid31, "w2", T_FINAL, 8)
    rec = DNRecord(s=op31.s, dt=DT, t_final=T_FINAL,
                   controls=list(basis2.specs), probes=list(basis2.specs),
                   pairings=np.zeros((len(basis2), len(basis2))))
    with pytest.raises(InversionError, match="expected controls on w1"):
        recover_linear_potential(rec, op31, interior_targets(grid31, T_FINAL),
                                 1e-6, DT, T_FINAL)


def test_recover_rejects_bad_frame_and_background(op31, grid31):
    basis1 = ControlBasis(grid31, "w1", T_FINAL, 8)
    basis2 = ControlBasis(grid31, "w2", T_FINAL, 8)
    rec = zero_record(op31, basis1, basis2, DT, T_FINAL)
    targets = interior_targets(grid31, T_FINAL)
    with pytest.raises(InversionError, match="unknown frame"):
        recover_linear_potential(rec, op31, targets, 1e-6, DT, T_FINAL,
                                 frame="backwards")
    with pytest.raises(InversionError, match="must be static"):
        recover_linear_potential(rec, op31, targets, 1e-6, DT, T_FINAL,
                                 q_background=np.zeros((3, grid31.omega.size)))


def test_recover_detects_zero_probing_system(op31, grid31):
    basis1 = ControlBasis(grid31, "w1", T_FINAL, 8)
    basis2 = ControlBasis(grid31, "w2", T_FINAL, 8)
    rec = zero_record(op31, basis1, basis2, DT, T_FINAL)
    # time window beyond t_final materializes to the zero target
    dead = [LocalizedTarget(int(grid31.omega[4]), 2.0, 3.0, 0.2)]
    with pytest.raises(InversionError, match="identically zero"):
        recover_linear_potential(rec, op31, dead, 1e-6, DT, T_FINAL)


# --------------------------------------------------------- nonlinearity


def test_exponent_estimate_scale_invariant(op31, grid31):
    om = grid31.omega
    q0 = 1.0 + 0.3 * np.cos(np.pi * grid31.x[om])
    psi = bump_control(grid31, "w1", 0.1, 0.9, DT, NT)
    basis2 = ControlBasis(grid31, "w2", T_FINAL, 8)
    r1, d1 = estimate_homogeneity_exponent(
        op31, power_nonlinearity(q0, 1), psi, basis2, [0.1, 0.03], DT, T_FINAL)
    r2, d2 = estimate_homogeneity_exponent(
        op31, power_nonlinearity(7.0 * q0, 1), psi, basis2, [0.1, 0.03],
        DT, T_FINAL)
    assert abs(d1["slope"] - d2["slope"]) <= 0.02
    assert r1 == pytest.approx(1.0, abs=0.05)


def test_exponent_estimate_zero_nonlinearity_inconclusive(op31, grid31):
    psi = bump_control(grid31, "w1", 0.1, 0.9, DT, NT)
    basis2 = ControlBasis(grid31, "w2", T_FINAL, 8)
    with pytest.raises(InconclusiveError, match="noise floor"):
        estimate_homogeneity_exponent(op31, zero_nonlinearity(), psi, basis2,
                                      [0.1, 0.03], DT, T_FINAL)


def test_exponent_estimate_needs_two_amplitudes(op31, grid31):
    psi = bump_control(grid31, "w1", 0.1, 0.9, DT, NT)
    basis2 = ControlBasis(grid31, "w2", T_FINAL, 8)
    with pytest.raises(InversionError, match="two amplitudes"):
        estimate_homogeneity_exponent(op31, power_nonlinearity(1.0, 2), psi,
                                      basis2, [0.1], DT, T_FINAL)


def test_wrong_exponent_inflates_moment_residual(op31, grid31):
    om = grid31.omega
    coeff = 1.0 + 0.3 * np.sin(np.pi * grid31.x[om] + 1.0)
    f = power_nonlinearity(coeff, 2)
    psi = bump_control(grid31, "w1", 0.1, 0.9, DT, NT, amplitude=50.0)
    targets = interior_targets(grid31, T_FINAL)
    rel = {}
    for rk in (1, 2, 3):
        rec = recover_nonlinear_coefficient(
            op31, f, rk, targets, eps0=0.1, alpha_inv=1e-2, dt=DT,
            t_final=T_FINAL, psi=psi, synth_alpha=1e-12, n_segments=8)
        d = rec.diagnostics
        rel[rk] = d["moment_residual"] / d["moment_norm"]
    assert rel[2] < 0.1 * rel[1]
    assert rel[2] < 0.1 * rel[3]


def test_nonlinear_coefficient_accuracy(op31, grid31):
    om = grid31.omega
    coeff = 1.0 + 0.3 * np.sin(np.pi * grid31.x[om] + 1.0)
    f = power_nonlinearity(coeff, 2)
    psi = bump_control(grid31, "w1", 0.1, 0.9, DT, NT, amplitude=50.0)
    rec = recover_nonlinear_coefficient(
        op31, f, 2, interior_targets(grid31, T_FINAL), eps0=0.1,
        alpha_inv=1e-2, dt=DT, t_final=T_FINAL, psi=psi, synth_alpha=1e-12,
        n_segments=8)
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
    basis1 = ControlBasis(grid, "w1", T_FINAL, 16)
    basis2 = ControlBasis(grid, "w2", T_FINAL, 16)
    dt = 5e-3
    q = amplitude * np.exp(-((grid.x[grid.omega] - 0.5) / 0.141421356) ** 2)
    _, diff = dn_difference_linear(op, q, basis1, basis2, dt, T_FINAL)
    targets = interior_targets(grid, T_FINAL)

    def error(record):
        est = recover_linear_potential(record, op, targets, alpha_inv=1e-1, dt=dt,
                                       t_final=T_FINAL, synth_alpha=1e-12)
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
        noisy = DNRecord(s=diff.s, dt=diff.dt, t_final=diff.t_final,
                         controls=diff.controls, probes=diff.probes,
                         pairings=diff.pairings * (1 + 1e-16 * rng.normal(size=diff.pairings.shape)))
        assert abs(error(noisy) - base) < 0.01 * base
