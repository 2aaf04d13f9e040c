"""Regime classification, thresholds, efficiencies and fluctuation bounds."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings

from unital_otto import (
    ControlSpec,
    CycleParams,
    PhysicsError,
    Regime,
    classify_regime_array,
    closed_form_first_second,
    cumulant_ratio_scan,
    cumulants_from_block,
    efficiency_block,
    enumerate_paths,
    is_rounding_residue,
    positive_work_threshold,
    verify_bounds_block,
)

from conftest import close, cycle_params, finite, probs, regime_of

FIG3 = CycleParams(0.5, 1.0, 2.0, 0.1, 0.1)


def test_classification_sign_table():
    points = [  # (w_mean, qm_mean, qt_mean, beta, regime)
        (0.5, 1.0, -0.5, 0.7, Regime.ENGINE),
        (-0.5, 1.0, -1.5, 0.7, Regime.ACCELERATOR),
        (-0.5, -0.2, -0.3, 0.7, Regime.HEATER),
        (0.5, 0.2, 0.3, -0.7, Regime.ENGINE_PRIME),
        (0.5, -0.2, 0.7, -0.7, Regime.ENGINE),
        (-0.5, -0.7, 0.2, -0.7, Regime.ACCELERATOR),
        (0.0, 0.0, 0.0, 0.0, Regime.UNDETERMINED),
        # inconsistent pattern: positive bath heat at positive temperature
        (0.5, 1.0, 0.5, 0.7, Regime.UNDETERMINED),
    ]
    *flows, want = zip(*points)
    # each flow its own magnitude: only an exact zero is undetermined
    assert list(classify_regime_array(*flows, np.abs(flows[:3]))) == list(want)


def test_classify_accepts_cumulant_records():
    cums = cumulants_from_block(enumerate_paths(FIG3, 0.3))
    assert regime_of(cums, FIG3.beta) is Regime.ENGINE
    first = closed_form_first_second(FIG3, 0.3)
    assert regime_of(first, FIG3.beta) is Regime.ENGINE


def test_heater_to_engine_prime_under_bath_inversion():
    hot = CycleParams(0.7, 1.0, 2.0, 0.6, 0.6)
    assert regime_of(closed_form_first_second(hot, 0.3), 0.7) is Regime.HEATER
    cold = CycleParams(-0.7, 1.0, 2.0, 0.6, 0.6)
    prime = closed_form_first_second(cold, 0.3)
    assert regime_of(prime, -0.7) is Regime.ENGINE_PRIME
    # the unit-efficiency regime: all absorbed heat leaves as work
    assert prime.w_mean / (prime.qm_mean + prime.qt_mean) == pytest.approx(1.0, rel=1e-14)


def test_threshold_formula_marks_zero_work():
    for theta in (0.2, 0.7):
        for delta in (0.05, 0.2, 0.4):
            params = CycleParams(0.7, 1.0, 2.0, delta, delta)
            nu2_min = positive_work_threshold(params, theta, "symmetric").nu2_min
            at_threshold = CycleParams(0.7, 1.0, nu2_min, delta, delta)
            assert closed_form_first_second(at_threshold, theta).w_mean == pytest.approx(
                0.0, abs=1e-14
            )


def test_threshold_requires_heat_absorption():
    with pytest.raises(PhysicsError):
        positive_work_threshold(CycleParams(0.7, 1.0, 2.0, 0.6, 0.6), 0.2, "symmetric")
    assert math.isinf(
        positive_work_threshold(CycleParams(0.7, 1.0, 2.0, 0.1, 0.1), 0.0, "symmetric").nu2_min
    )
    assert math.isinf(
        positive_work_threshold(CycleParams(0.7, 1.0, 2.0, 0.7, 0.6), 0.3, "asymmetric").nu2_min
    )


@pytest.mark.parametrize("theta", [1.5, -0.1, math.nan, math.inf])
@pytest.mark.parametrize("mode", ["symmetric", "asymmetric", "cs"])
def test_threshold_checks_theta_in_every_mode(mode, theta):
    params = CycleParams(0.7, 1.0, 2.0, 0.1, 0.2)
    with pytest.raises(ValueError, match=r"^theta must lie in \[0, 1\]$"):
        positive_work_threshold(params, theta, mode, ControlSpec(0.3, "minus"))


def test_threshold_strictness_flags():
    params = CycleParams(0.7, 1.0, 2.0, 0.1, 0.2)
    assert positive_work_threshold(params, 0.3, "symmetric").strict
    assert not positive_work_threshold(params, 0.3, "asymmetric").strict


def test_asymmetric_threshold_marks_zero_summed_work():
    params = CycleParams(0.7, 1.0, 2.0, 0.1, 0.25)
    nu2_min = positive_work_threshold(params, 0.3, "asymmetric").nu2_min
    at = CycleParams(0.7, 1.0, nu2_min, 0.1, 0.25)
    total = (
        closed_form_first_second(at, 0.3).w_mean
        + closed_form_first_second(at, 0.3, "backward").w_mean
    )
    assert total == pytest.approx(0.0, abs=1e-14)


def test_cs_threshold_shifts_with_branch():
    params = CycleParams(0.7, 1.0, 2.0, 0.1, 0.1)
    plain = positive_work_threshold(params, 0.2, "symmetric").nu2_min
    minus = positive_work_threshold(params, 0.2, "cs", ControlSpec(0.5, "minus")).nu2_min
    plus = positive_work_threshold(params, 0.2, "cs", ControlSpec(0.5, "plus")).nu2_min
    assert minus < plain < plus
    at = CycleParams(0.7, 1.0, minus, 0.1, 0.1)
    flip = ControlSpec(0.5, "minus").flip_probability(0.2)
    assert closed_form_first_second(at, flip).w_mean == pytest.approx(0.0, abs=1e-14)


def test_cs_threshold_matches_paper_numerator():
    # the paper's cs threshold: nu2 > num nu1 / (theta (1 - 2 delta)) with
    # num = theta + 2 delta (1 - delta) (1 - 2 theta) +- 2 delta (1 - delta) c
    gen = np.random.default_rng(31)
    for _ in range(5000):
        d, theta = 0.5 * gen.random(), 0.5 * gen.random()
        params = CycleParams(0.7, gen.uniform(1e-3, 3.0), 2.0, d, d)
        ctrl = ControlSpec(gen.random(), "plus" if gen.random() < 0.5 else "minus")
        num = (
            theta
            + 2.0 * d * (1.0 - d) * (1.0 - 2.0 * theta)
            + ctrl.sign * 2.0 * d * (1.0 - d) * ctrl.coherence
        )
        paper = num * params.nu1 / (theta * (1.0 - 2.0 * d))
        got = positive_work_threshold(params, theta, "cs", ctrl)
        assert got.mode == "cs" and got.strict
        assert close(got.nu2_min, paper, 1e-14)


def test_efficiency_adiabatic_limit_is_otto():
    cycle = (0.5, 1.0, 2.0, 0.0, 0.0, 0.3)
    assert efficiency_block(*cycle, "symmetric") == pytest.approx(0.5, abs=1e-15)
    for branch in ("plus", "minus"):
        eta = efficiency_block(*cycle, "cs", 0.5, branch)
        assert eta == pytest.approx(0.5, abs=1e-14)


def test_efficiency_below_otto_over_engine_sweep():
    # Otto ceiling 0.5 for nu1 = 1, nu2 = 2
    delta = np.linspace(0.0, 0.49, 50)
    assert (efficiency_block(0.5, 1.0, 2.0, delta, delta, 0.4, "symmetric") <= 0.5 + 1e-12).all()


def test_efficiency_needs_heat():
    assert np.isnan(efficiency_block(0.0, 1.0, 2.0, 0.1, 0.1, 0.3, "symmetric"))
    assert np.isnan(efficiency_block(0.7, 1.0, 2.0, 0.5, 0.5, 0.3, "symmetric"))


def test_cancelled_forward_and_backward_heat_is_no_heat():
    # delta + zeta = 1 up to rounding: forward and backward heat cancel
    params = CycleParams(1.3, 0.7, 3.0, float(np.linspace(0.0, 1.0, 41)[38]), 0.05)
    ctrl = ControlSpec(0.3, "minus")
    flip = ctrl.flip_probability(0.3)
    fwd = closed_form_first_second(params, flip)
    bwd = closed_form_first_second(params, flip, direction="backward")
    assert 0.0 < abs(fwd.qm_mean + bwd.qm_mean) < 1e-14
    assert is_rounding_residue(fwd.qm_mean + bwd.qm_mean, abs(fwd.qm_mean))
    assert np.isnan(efficiency_block(*params, 0.3, "cs", ctrl.alpha, ctrl.branch))
    near = (1.3, 0.7, 3.0, 0.925, 0.05, 0.3)
    assert math.isfinite(efficiency_block(*near, "cs", ctrl.alpha, ctrl.branch))
    # the rule is relative to the magnitude: 32 eps of it, at every scale
    bound = 32.0 * np.finfo(float).eps
    for magnitude in (2.0**-1000, 1e-12, 1.0, 1e12, 2.0**1000):
        edge = bound * magnitude
        assert is_rounding_residue(np.array([-edge, 0.0, edge]), magnitude).all()
        beyond = np.nextafter(np.array([-edge, edge]), [-np.inf, np.inf])
        assert not is_rounding_residue(beyond, magnitude).any()


def test_bounds_all_hold_in_engine_regime():
    params = CycleParams(0.5, 1.0, 2.0, 0.1, 0.1)
    reports = {r.name: r for r in verify_bounds_block(*params, 0.3, "symmetric")}
    assert regime_of(closed_form_first_second(params, 0.3), 0.5) is Regime.ENGINE
    for name in ("qt_nonpositive", "eta_le_otto", "eta_sq_le_ratio", "ratio_le_one",
                 "otto_sq_le_ratio"):
        assert reports[name].applicable, name
        assert reports[name].satisfied, name
    assert not reports["equal_gap_work_nonpositive"].applicable


def test_bound_reports_own_their_cells():
    # a constant bound is copied to the block's shape, not one stride-0
    # cell that every point shares
    reports = verify_bounds_block(0.7, 1.0, np.array([2.0, 3.0]), 0.1, 0.1, 0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for r in reports:
            assert all(x.shape == (2,) and x.flags.writeable for x in (r.left, r.right, r.applicable))
    right = reports[0].right
    right[0] = 1.0
    assert right[1] == 0.0


def test_heater_reverses_relative_fluctuation_order():
    params = CycleParams(0.7, 1.0, 2.0, 0.6, 0.6)
    first = closed_form_first_second(params, 0.3)
    assert regime_of(first, 0.7) is Regime.HEATER
    rf_w = first.w_var / first.w_mean**2
    rf_q = first.qm_var / first.qm_mean**2
    assert rf_w < rf_q


def test_violated_upper_bound_is_reported_inapplicable():
    # when the variance-ratio precondition fails the ratio exceeds one,
    # and the report must carry applicable=False rather than a violation
    found = False
    for delta in np.linspace(0.05, 0.45, 41):
        params = CycleParams(0.5, 1.0, 1.05, float(delta), float(delta))
        first = closed_form_first_second(params, 0.15)
        if regime_of(first, 0.5) is not Regime.ACCELERATOR:
            continue
        reports = {r.name: r for r in verify_bounds_block(*params, 0.15, "symmetric")}
        rep = reports["ratio_le_one"]
        if not rep.applicable:
            assert not rep.satisfied
            assert rep.left >= 1.0 - 1e-10
            found = True
    assert found


def test_cs_bounds_hold_for_engine_tuple():
    for branch in ("plus", "minus"):
        reports = verify_bounds_block(0.7, 1.0, 2.0, 0.05, 0.05, 0.4, "cs", 0.5, branch)
        reports = {r.name: r for r in reports}
        assert reports["cs_qt_nonpositive"].applicable
        assert reports["cs_qt_nonpositive"].satisfied
        if reports["cs_eta_le_otto"].applicable:
            assert reports["cs_eta_le_otto"].satisfied
        if reports["cs_eta_branch_order"].applicable:
            assert reports["cs_eta_branch_order"].satisfied


def test_cs_branch_efficiency_ordering():
    cycle = (0.7, 1.0, 2.0, 0.1, 0.1, 0.4)
    eta_minus = efficiency_block(*cycle, "cs", 0.5, "minus")
    eta_plain = efficiency_block(*cycle, "symmetric")
    eta_plus = efficiency_block(*cycle, "cs", 0.5, "plus")
    assert eta_minus >= eta_plain >= eta_plus


def test_ratio_scan_adiabatic_identity():
    params = CycleParams(0.8, 1.0, 2.5, 0.0, 0.0)
    otto = 1.0 - 1.0 / 2.5
    for order in (2, 3, 4):
        record = cumulant_ratio_scan(params, 0.3, order)
        assert close(record.ratio, otto**order, 1e-12)
        assert not record.sign_mismatch
        assert not record.above_one


def test_ratio_scan_finds_corridor_escapes():
    # the theta sweep of the engine/accelerator crossover region shows
    # third and fourth cumulant ratios outside [eta^n, 1], some negative
    seen_out3 = seen_out4 = seen_neg3 = seen_neg4 = False
    for theta in np.linspace(0.01, 1.0, 150):
        r3 = cumulant_ratio_scan(FIG3, float(theta), 3)
        r4 = cumulant_ratio_scan(FIG3, float(theta), 4)
        if r3.below_eta_power or r3.above_one:
            seen_out3 = True
        if r4.below_eta_power or r4.above_one:
            seen_out4 = True
        seen_neg3 = seen_neg3 or (not r3.undefined and r3.ratio < 0.0)
        seen_neg4 = seen_neg4 or (not r4.undefined and r4.ratio < 0.0)
    assert seen_out3 and seen_out4 and seen_neg3 and seen_neg4


def test_ratio_scan_undefined_flag():
    record = cumulant_ratio_scan(CycleParams(0.5, 1.0, 2.0, 0.1, 0.1), 0.0, 3)
    assert record.undefined
    assert math.isnan(record.ratio)


def test_ratio_scan_is_scale_invariant():
    # every energy scaled by s scales kappa_n by s^n in both marginals
    records = [
        cumulant_ratio_scan(CycleParams(0.7 / s, 1.0 * s, 2.3 * s, 0.2, 0.3), 0.4, 4)
        for s in (1.0, 1e-2, 1e-4)
    ]
    assert not any(r.undefined for r in records)
    for r in records[1:]:
        assert close(r.ratio, records[0].ratio, 1e-9)


def test_ratio_scan_takes_no_efficiency_from_cancelled_heat():
    # delta = 1/2 makes <Q_M> = 0; the enumeration leaves a residue of ~6e-17
    params = CycleParams(0.7, 1.0, 2.3, 0.5, 0.2)
    assert cumulants_from_block(enumerate_paths(params, 0.3)).qm_mean != 0.0
    for order in (2, 3, 4):
        record = cumulant_ratio_scan(params, 0.3, order)
        assert math.isnan(record.eta_power)
        assert not record.below_eta_power


def test_ratio_scan_order_validation():
    with pytest.raises(ValueError):
        cumulant_ratio_scan(FIG3, 0.3, 1)


@given(params=cycle_params(), theta=probs)
@settings(max_examples=300, deadline=None)
def test_equal_gaps_forbid_work(params, theta):
    if params.beta < 0:
        params = CycleParams(-params.beta, params.nu1, params.nu2, params.delta, params.zeta)
    equal = CycleParams(params.beta, params.nu1, params.nu1, params.delta, params.zeta)
    total = (
        closed_form_first_second(equal, theta).w_mean
        + closed_form_first_second(equal, theta, "backward").w_mean
    )
    assert total <= 1e-12


@given(params=cycle_params(symmetric=True), theta=finite(0.01, 1.0))
@settings(max_examples=300, deadline=None)
def test_engine_efficiency_capped_by_otto(params, theta):
    first = closed_form_first_second(params, theta)
    if regime_of(first, params.beta) is not Regime.ENGINE:
        return
    eta = first.w_mean / first.qm_mean
    assert eta <= 1.0 - params.nu1 / params.nu2 + 1e-12


def test_asymmetric_rf_difference_matches_factorised_form():
    # the symmetrised RF difference equals its published factorisation,
    # whose second factor is nonnegative (so the sign is carried
    # entirely by the work-threshold factor)
    gen = np.random.default_rng(21)
    for _ in range(300):
        beta = gen.uniform(0.05, 2.0)
        params = CycleParams(beta, gen.uniform(0.05, 3.0), gen.uniform(0.05, 3.0),
                             gen.random(), gen.random())
        theta = gen.uniform(0.01, 1.0)
        d, z = params.delta, params.zeta
        if abs(d + z - 1.0) < 1e-3:
            continue
        fwd = closed_form_first_second(params, theta)
        bwd = closed_form_first_second(params, theta, "backward")
        if min(abs(fwd.w_mean + bwd.w_mean), abs(fwd.qm_mean + bwd.qm_mean)) < 1e-6:
            continue
        lhs = (
            2 * (fwd.w_var + bwd.w_var) / (fwd.w_mean + bwd.w_mean) ** 2
            - 2 * (fwd.qm_var + bwd.qm_var) / (fwd.qm_mean + bwd.qm_mean) ** 2
        )
        s = d + z - 2 * d * z
        g = theta + (1 - 2 * theta) * s
        coth2 = 1.0 / math.tanh(beta * params.nu1) ** 2
        second = -(
            theta * (d - z) ** 2 * g
            + (d**2 * theta + d * (-1 + 2 * z - 2 * theta * z) + z * (-1 + theta * z))
            * coth2
        )
        rhs = (
            params.nu1
            * (-g * params.nu1 + 2 * theta * (1 - d - z) * params.nu2)
            / (theta * (d + z - 1.0) ** 2)
            * second
            / ((g * params.nu1 + theta * (d + z - 1.0) * params.nu2) ** 2)
        )
        assert close(lhs, rhs, 1e-8)
        assert second >= -1e-12


def test_factorisation_second_factor_nonnegative_on_grid():
    # worst case of the coth^2 factor is 1; dense grid over the cube
    d, z, th = np.meshgrid(
        np.linspace(0, 1, 51), np.linspace(0, 1, 51), np.linspace(0, 1, 51)
    )
    s = d + z - 2 * d * z
    a_value = s - th * (d - z) ** 2 * (1 + th + (1 - 2 * th) * s)
    assert a_value.min() >= -1e-12
