"""Regime classification, thresholds, efficiencies and fluctuation bounds."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

from unital_otto import trajectory
from unital_otto import (
    ControlSpec,
    CycleParams,
    InputError,
    Regime,
    classify_regime_array,
    closed_form_first_second,
    cumulant_ratio_block,
    cumulants_from_block,
    efficiency_block,
    enumerate_block,
    enumerate_paths,
    is_rounding_residue,
    verify_bounds_block,
    work_threshold_block,
)
from unital_otto.formulas import _first_two

from conftest import close, cycle_params, finite, probs, regime_of
from references import exact_cumulants, exact_means, exact_work_line, symbolic_pair_work

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
            nu2_min = float(work_threshold_block(0.7, 1.0, 2.0, delta, delta, theta))
            at_threshold = CycleParams(0.7, 1.0, nu2_min, delta, delta)
            assert closed_form_first_second(at_threshold, theta).w_mean == pytest.approx(
                0.0, abs=1e-14
            )


def test_threshold_requires_heat_absorption():
    # the pair absorbs no heat at delta + zeta >= 1: no gap works, and no error
    assert math.isinf(work_threshold_block(0.7, 1.0, 2.0, 0.6, 0.6, 0.2))
    assert math.isinf(work_threshold_block(0.7, 1.0, 2.0, 0.6, 0.6, 0.2, 0.3, "plus"))
    assert math.isinf(work_threshold_block(0.7, 1.0, 2.0, 0.1, 0.1, 0.0))
    assert math.isinf(work_threshold_block(0.7, 1.0, 2.0, 0.7, 0.6, 0.3))


@pytest.mark.parametrize("theta", [1.5, -0.1, math.nan, math.inf])
@pytest.mark.parametrize("mode", ["symmetric", "asymmetric", "cs"])
def test_threshold_checks_theta_in_every_mode(mode, theta):
    zeta = 0.1 if mode == "symmetric" else 0.2
    control = (0.3, "minus") if mode == "cs" else ()
    with pytest.raises(ValueError, match=r"^theta must lie in \[0, 1\]$"):
        work_threshold_block(0.7, 1.0, 2.0, 0.1, zeta, theta, *control)


def test_asymmetric_threshold_marks_zero_summed_work():
    nu2_min = float(work_threshold_block(0.7, 1.0, 2.0, 0.1, 0.25, 0.3))
    at = CycleParams(0.7, 1.0, nu2_min, 0.1, 0.25)
    total = (
        closed_form_first_second(at, 0.3).w_mean
        + closed_form_first_second(at, 0.3, "backward").w_mean
    )
    assert total == pytest.approx(0.0, abs=1e-14)


def test_cs_threshold_shifts_with_branch():
    cycle = (0.7, 1.0, 2.0, 0.1, 0.1, 0.2)
    plain = work_threshold_block(*cycle)
    minus = float(work_threshold_block(*cycle, 0.5, "minus"))
    plus = work_threshold_block(*cycle, 0.5, "plus")
    assert minus < plain < plus
    at = CycleParams(0.7, 1.0, minus, 0.1, 0.1)
    flip = ControlSpec(0.5, "minus").flip_probability(0.2)
    assert closed_form_first_second(at, flip).w_mean == pytest.approx(0.0, abs=1e-14)


def test_cs_threshold_matches_paper_numerator():
    # the paper's cs threshold: nu2 > num nu1 / (theta (1 - 2 delta)) with
    # num = theta + 2 delta (1 - delta) (1 - 2 theta) +- 2 delta (1 - delta) c
    gen = np.random.default_rng(31)
    n = 5000
    d, theta = 0.5 * gen.random(n), 0.5 * gen.random(n)
    nu1 = gen.uniform(1e-3, 3.0, n)
    alpha = gen.random(n)
    sign = np.where(gen.random(n) < 0.5, 1.0, -1.0)
    for branch, side in (("plus", 1.0), ("minus", -1.0)):
        mine = sign == side
        coherence = np.sqrt(alpha * (1.0 - alpha))
        num = theta + 2.0 * d * (1.0 - d) * (1.0 - 2.0 * theta) + side * 2.0 * d * (1.0 - d) * coherence
        paper = num * nu1 / (theta * (1.0 - 2.0 * d))
        got = work_threshold_block(0.7, nu1[mine], 2.0, d[mine], d[mine], theta[mine],
                                   alpha[mine], branch)
        assert all(close(g, p, 1e-14) for g, p in zip(got.tolist(), paper[mine].tolist()))


def affine_work(t, nu1, d, z, flip):
    """Integers (A, B) with the exact mean work that every mode reads (A + B
    nu2) / L for some L > 0: forward plus backward, at the flip probability
    ``flip``.  Both directions sum their records at the same scale, L."""
    lines = [exact_work_line(t, nu1, *pair, flip) for pair in ((d, z), (z, d))]
    return sum(a for a, _ in lines), sum(b for _, b in lines)


def assert_exact_thresholds(t, nu1, delta, zeta, flip, nu2_min):
    """Where ``nu2_min`` is finite, the exact mean work A + B nu2 rises
    through zero (B > 0) at a gap within 4 ulps of it; elsewhere no
    gap makes it positive (A <= 0 and B <= 0)."""
    for i in range(len(nu2_min)):
        point = (float(nu1[i]), float(delta[i]), float(zeta[i]), float(flip[i]))
        a, b = affine_work(float(t[i]), *point)
        if not math.isfinite(nu2_min[i]):
            assert a <= 0 and b <= 0, i
            continue
        assert b > 0, i
        exact = -a / b  # the quotient of two ints is correctly rounded
        num, den = float(nu2_min[i]).as_integer_ratio()
        ulp_num, ulp_den = math.ulp(exact).as_integer_ratio()
        # |num / den + a / b| <= 4 ulp, multiplied through by den b ulp_den
        assert abs(num * b + a * den) * ulp_den <= 4 * ulp_num * den * b, i


@pytest.mark.parametrize("case", ["symmetric", "asymmetric", "cs-plus", "cs-minus"])
def test_threshold_is_the_exact_zero_of_the_mean_work(case):
    # beta > 0: the mean work is zero at the threshold, positive above it
    # and negative below
    mode, _, branch = case.partition("-")
    gen = np.random.default_rng(29)
    n = 20000
    beta = gen.uniform(1e-3, 2.0, n)
    nu1 = np.exp(gen.uniform(math.log(1e-2), math.log(20.0), n))
    delta, zeta, theta = gen.random(n), gen.random(n), gen.random(n)
    if case == "symmetric":
        delta = zeta = 0.5 * delta
    else:
        # delta + zeta < 1, exactly: 1 - x is exact for these draws
        folded = delta + zeta >= 1.0
        delta[folded], zeta[folded] = 1.0 - delta[folded], 1.0 - zeta[folded]
    # edges: theta at its ends (1/2 in cs, where 1 can fail the flip
    # bound), adiabatic strokes, delta = 1/2, delta + zeta = 1
    theta[:100], theta[100:200] = 0.0, 1.0
    delta[200:300] = zeta[200:300] = 0.0
    delta[300:400] = 0.5
    zeta[300:400] = 0.5 if mode == "symmetric" else 1.0 - delta[300:400]
    control, flip = (), theta
    if mode == "cs":
        theta *= 0.5
        control = (gen.random(n), branch)
        flip = trajectory._controlled_flip(theta, *control)
    nu2_min = work_threshold_block(beta, nu1, 1.0, delta, zeta, theta, *control)
    assert np.isfinite(nu2_min[400:]).all() and not np.isfinite(nu2_min[:100]).any()
    assert_exact_thresholds(trajectory._tanh_columns(beta, nu1), nu1, delta, zeta, flip, nu2_min)


def test_threshold_reads_the_work_that_the_efficiency_reads():
    # every mode reads the forward plus backward work; the efficiency turns
    # positive between the gaps
    cycle = (0.1, 0.3, 0.2)
    for control, below, above in (((0.3, "minus"), 2.06, 2.07), ((), 3.36, 3.37)):
        nu2_min = work_threshold_block(0.7, 1.0, 2.0, *cycle, *control)
        assert below < nu2_min < above
        for nu2, sign in ((below, -1.0), (above, 1.0)):
            assert sign * efficiency_block(0.7, 1.0, nu2, *cycle, *control) > 0.0


def pair_margin():
    """The pair's margin m of work_threshold_block in sympy, and its symbols
    (x, delta, zeta, theta) with x = nu2, of :func:`symbolic_pair_work`."""
    _, (_, x, d, z, theta) = symbolic_pair_work()
    s = d + z - 2 * d * z
    return ((1 - theta) * s + 2 * theta * d * z) / (theta * (1 - d - z)), (x, d, z, theta)


def test_threshold_margin_is_an_exact_identity():
    # the pair's mean work is linear in nu2 (nu1 = 1): its root lies above
    # nu1 by a quotient of nonnegative terms wherever heat is absorbed.  A
    # record's Q_M is the nu2 part of its W, so the pair's heat is the
    # work's slope times nu2, and the efficiency is 1 - (nu1 / nu2)(1 + m)
    import sympy

    work, _ = symbolic_pair_work()
    margin, (x, *_) = pair_margin()
    slope, intercept = sympy.Poly(work, x).all_coeffs()
    assert sympy.cancel(-intercept / slope - 1 - margin) == 0
    assert sympy.cancel(work / (slope * x) - (1 - (1 + margin) / x)) == 0


def exact_efficiency(t, nu1, nu2, delta, zeta, flip):
    """The pair's <W> / <Q_M> as an exact Fraction of the float inputs, from
    :func:`exact_means`; None where the exact heat is 0."""
    fwd = exact_means(t, nu1, nu2, delta, zeta, flip)
    bwd = exact_means(t, nu1, nu2, zeta, delta, flip)
    heat = fwd[2] + bwd[2]
    return None if heat == 0 else (fwd[0] + bwd[0]) / heat


def assert_near_exact(eta, exact, where):
    """A float efficiency within 4 eps max(1, |1 - eta|) of the exact one:
    1 - eta = nu2_min / nu2 wherever nu2_min is finite."""
    scale = max(1, abs(1 - exact))
    assert abs(Fraction(eta) - exact) <= 4 * Fraction(np.finfo(float).eps) * scale, where


def test_efficiency_is_the_exact_quotient_to_four_eps():
    # 1 - (nu1 / nu2)(1 + m) against the exact pair quotient, a third of the
    # points with 1 - delta - zeta between 1e-12 and 1e-3 of 1 - delta,
    # where the pair's work and heat each cancel to a few digits
    gen = np.random.default_rng(36)
    n = 10_000
    beta = gen.uniform(0.05, 2.0, n) * gen.choice([-1.0, 1.0], n)
    nu1, nu2 = np.exp(gen.uniform(math.log(1e-2), math.log(20.0), (2, n)))
    delta, zeta, theta = gen.random(n), gen.random(n), 1.0 - gen.random(n)
    near = n // 3
    delta[:near] *= 0.9
    zeta[:near] = (1.0 - delta[:near]) * (
        1.0 - np.exp(gen.uniform(math.log(1e-12), math.log(1e-3), near)))
    eta = efficiency_block(beta, nu1, nu2, delta, zeta, theta)
    assert np.isfinite(eta).all()
    t = trajectory._tanh_columns(beta, nu1)
    for i in range(n):
        point = [float(c[i]) for c in (t, nu1, nu2, delta, zeta, theta)]
        assert_near_exact(float(eta[i]), exact_efficiency(*point), i)


def test_efficiency_does_not_read_beta():
    # t = tanh(beta nu1) cancels from the pair's <W> / <Q_M>: the same float
    # at every beta != 0 whose t is normal, of either sign, with and without
    # control
    gen = np.random.default_rng(38)
    n = 10_000
    nu1, nu2 = np.exp(gen.uniform(math.log(1e-2), math.log(20.0), (2, n)))
    delta, zeta, theta, alpha = gen.random((4, n))
    betas = [sign * np.exp(gen.uniform(math.log(1e-200), math.log(1e3), n)) / nu1
             for sign in (1.0, -1.0, 1.0, -1.0)]
    for control in ((), (alpha, "plus"), (alpha, "minus")):
        half = 0.5 * theta if control else theta  # within the flip bound
        etas = [efficiency_block(beta, nu1, nu2, delta, zeta, half, *control) for beta in betas]
        assert np.isfinite(etas[0]).sum() > 9990
        for eta in etas[1:]:
            assert np.array_equal(bits(eta), bits(etas[0]))


@pytest.mark.parametrize("branch, rises", [("minus", True), ("plus", False)])
def test_coherence_moves_the_efficiency_as_certified(branch, rises):
    # dm/dtheta = -s / (theta^2 (1 - delta - zeta)), exactly: where
    # delta + zeta < 1 and s > 0 the margin falls and the efficiency rises
    # with the flip probability theta / (1 -+ c), and the coherence
    # c = sqrt(alpha (1 - alpha)) rises with alpha on [0, 1/2]; so coherence
    # raises the minus branch's efficiency and lowers the plus branch's
    import sympy

    margin, (_, d, z, theta) = pair_margin()
    s = d + z - 2 * d * z
    assert sympy.cancel(sympy.diff(margin, theta) + s / (theta**2 * (1 - d - z))) == 0
    gen = np.random.default_rng(37)
    n = 10_000
    beta = gen.uniform(0.05, 2.0, n) * gen.choice([-1.0, 1.0], n)
    nu1, nu2 = np.exp(gen.uniform(math.log(1e-2), math.log(20.0), (2, n)))
    delta, zeta = gen.random((2, n))
    folded = delta + zeta >= 1.0
    delta[folded], zeta[folded] = 1.0 - delta[folded], 1.0 - zeta[folded]
    # theta <= 1/2 keeps the minus branch within its flip bound
    low, high = np.sort(0.5 * gen.random((2, n)), axis=0)
    cycle = (beta, nu1, nu2, delta, zeta, 0.5 * (1.0 - gen.random(n)))
    before, after = (efficiency_block(*cycle, alpha, branch) for alpha in (low, high))
    change = after - before if rises else before - after
    # each efficiency is within 4 eps max(1, |1 - eta|) of its exact value
    magnitude = np.maximum(1.0, np.abs(1.0 - before)) + np.maximum(1.0, np.abs(1.0 - after))
    seen = ~is_rounding_residue(change, magnitude)
    assert seen.sum() > 9000 and (change[seen] > 0.0).all()


@pytest.mark.parametrize("case", ["symmetric", "asymmetric", "cs-plus", "cs-minus"])
def test_no_gap_below_nu1_gives_positive_work(case):
    # beta > 0, theta > 0 and delta + zeta < 1: the margin above is
    # nonnegative, and the computed threshold keeps nu2_min >= nu1
    mode, _, branch = case.partition("-")
    gen = np.random.default_rng(33)
    n = 10000
    beta = gen.uniform(1e-3, 2.0, n)
    nu1 = np.exp(gen.uniform(math.log(1e-2), math.log(20.0), n))
    delta, zeta, theta = gen.random(n), gen.random(n), 1.0 - gen.random(n)
    if mode == "symmetric":
        delta = zeta = 0.5 * delta
    folded = delta + zeta >= 1.0
    delta[folded], zeta[folded] = 1.0 - delta[folded], 1.0 - zeta[folded]
    control = ()
    if mode == "cs":
        theta *= 0.5
        control = (gen.random(n), branch)
    keep = delta + zeta < 1.0
    nu2_min = work_threshold_block(beta, nu1, 1.0, delta, zeta, theta, *control)
    assert keep.sum() > 9990 and (nu2_min[keep] >= nu1[keep]).all()


def test_a_control_weight_always_means_control():
    # the controlled cycle at the control's flip probability, in all three
    # block functions, and the uncontrolled one without alpha
    cycle = (0.7, 1.0, 2.0, 0.1, 0.3, 0.2)
    flip = ControlSpec(0.3, "plus").flip_probability(0.2)
    at_flip = CycleParams(*cycle[:5])
    pair = [closed_form_first_second(at_flip, flip, d) for d in ("forward", "backward")]
    eta = (pair[0].w_mean + pair[1].w_mean) / (pair[0].qm_mean + pair[1].qm_mean)
    assert efficiency_block(*cycle, 0.3, "plus") == pytest.approx(eta, rel=1e-14)
    assert efficiency_block(*cycle, 0.3, "plus") == pytest.approx(-1.3325, abs=1e-4)
    assert work_threshold_block(*cycle, 0.3, "plus") == work_threshold_block(*cycle[:5], flip)
    assert work_threshold_block(*cycle, 0.3, "plus") != work_threshold_block(*cycle)
    names = [r.name for r in verify_bounds_block(*cycle, alpha=0.3, branch="plus")]
    assert names == ["cs_qt_nonpositive", "cs_eta_le_otto", "cs_eta_branch_order"]
    # zeta = delta under control is still the controlled cycle
    names = [r.name for r in verify_bounds_block(*cycle[:4], 0.1, 0.2, 0.3)]
    assert names == ["cs_qt_nonpositive", "cs_eta_le_otto", "cs_eta_branch_order"]


def test_default_calls_take_unequal_strokes():
    # no control and delta != zeta: the asymmetric cycle, without the
    # symmetric cycle's bound; at delta = zeta the bound is added
    cycle = (0.7, 1.0, 2.0, 0.1, 0.3, 0.2)
    assert efficiency_block(*cycle) == pytest.approx(-0.6833, abs=1e-4)
    assert work_threshold_block(*cycle) == pytest.approx(3.3667, abs=1e-4)
    names = [r.name for r in verify_bounds_block(*cycle)]
    assert names == ["qt_nonpositive", "equal_gap_work_nonpositive", "eta_le_otto",
                     "eta_sq_le_ratio", "ratio_le_one"]
    delta, zeta = np.array([0.1, 0.1]), np.array([0.1, 0.3])
    unequal = [r.name for r in verify_bounds_block(0.7, 1.0, 2.0, delta, zeta, 0.2)]
    equal = [r.name for r in verify_bounds_block(0.7, 1.0, 2.0, delta, delta, 0.2)]
    assert unequal == names and equal == names + ["otto_sq_le_ratio"]


def test_threshold_is_never_below_nu1():
    # nu1 + nu1 m with a margin m of nonnegative terms: never an ulp below
    # nu1, adiabatic strokes (delta = zeta = 0, where nu2_min is nu1)
    # included, with and without control
    gen = np.random.default_rng(35)
    n = 100_000
    nu1 = np.exp(gen.uniform(math.log(1e-3), math.log(1e3), n))
    delta, zeta, theta = gen.random(n), gen.random(n), gen.random(n)
    delta[:20_000] = zeta[:20_000] = 0.0
    zeta[20_000:30_000] = delta[20_000:30_000]
    theta[::7] = 1.0
    alpha = gen.random(n)
    for control in ((), (alpha, "plus"), (alpha, "minus")):
        half = 0.5 * theta if control else theta  # within the flip bound
        nu2_min = work_threshold_block(0.7, nu1, 1.0, delta, zeta, half, *control)
        finite = np.isfinite(nu2_min)
        assert finite[:20_000].all() and (nu2_min[:20_000] == nu1[:20_000]).all()
        assert finite.sum() > n // 2 and (nu2_min[finite] >= nu1[finite]).all()


def test_threshold_keeps_four_ulps_where_the_quotient_form_lost_them():
    # nu1 (p + (1 - 2 p) s) / (p (1 - delta - zeta)) as one quotient was
    # 4.23 ulps from the exact zero of the mean work here
    point = [np.array([x]) for x in
             (2.983361268137372, 0.17674459797838699, 0.3127188643445681, 0.9826200434049244)]
    nu1, delta, zeta, theta = point
    nu2_min = work_threshold_block(1.0, nu1, 1.0, delta, zeta, theta)
    assert_exact_thresholds(trajectory._tanh_columns(1.0, nu1), nu1, delta, zeta, theta, nu2_min)


def bits(x) -> np.ndarray:
    """The doubles of ``x`` as integers: equal bits, the sign of zero included."""
    return np.asarray(x, dtype=float).view(np.int64)


def test_symmetric_mode_is_the_pair_at_equal_strokes():
    # at delta = zeta the pair doubles the forward cycle's flows exactly, so
    # every residue test keeps the forward cycle's bits, and the efficiency
    # is the forward cycle's exact quotient to 4 eps
    gen = np.random.default_rng(34)
    n = 200_000
    beta = gen.uniform(-2.0, 2.0, n)
    nu1, nu2 = np.exp(gen.uniform(math.log(1e-2), math.log(20.0), (2, n)))
    delta, theta = gen.random(n), gen.random(n)
    beta[:2000] = 0.0
    theta[2000:4000], theta[4000:6000] = 0.0, 1.0
    delta[6000:8000] = 0.5
    nu2[8000:10000] = nu1[8000:10000]
    cycle = (beta, nu1, nu2, delta, delta, theta)
    eta = efficiency_block(*cycle)
    t = trajectory._tanh_columns(beta, nu1)
    fwd, fwd_mag = (_first_two(t, *cycle[1:], magnitudes=m) for m in (False, True))
    assert np.array_equal(np.isnan(eta), is_rounding_residue(fwd.qm_mean, fwd_mag.qm_mean))
    for i in np.flatnonzero(~np.isnan(eta))[::100]:
        point = [float(c[i]) for c in (t, nu1, nu2, delta, delta, theta)]
        assert_near_exact(float(eta[i]), exact_efficiency(*point), i)
    # zeta = delta everywhere adds the symmetric cycle's bound, and the
    # corridor precondition in the symmetric cycle's own form (1 - 2 delta
    # for 1 - delta - zeta) holds where the pair's form holds
    reports = {r.name: r for r in verify_bounds_block(*cycle)}
    assert list(reports)[-1] == "otto_sq_le_ratio"

    def corridor(sub):
        return sub(2.0 * sub(1.0, 2.0 * delta) * theta * nu2,
                   (theta + 2.0 * delta * sub(1.0, delta) * sub(1.0, 2.0 * theta)) * nu1)

    value, magnitude = corridor(np.subtract), corridor(np.add)
    held = (value >= 0.0) | is_rounding_residue(value, magnitude)
    defined = ~np.isnan(reports["ratio_le_one"].left) & ~np.isnan(eta)
    assert np.array_equal(reports["ratio_le_one"].applicable, held & defined)
    assert np.isnan(eta).any() and np.isfinite(eta).any()


def test_asymmetric_threshold_keeps_its_accuracy_near_cancelling_strokes():
    # delta + zeta near 1 with delta's last bits below 2**-53, so that
    # 1 - delta rounds, and theta up to 1, where theta + (1 - 2 theta) s
    # written as such would cancel
    gen = np.random.default_rng(30)
    n = 2000
    delta = 0.3 * gen.random(n) + 0.01
    zeta = 1.0 - delta - gen.uniform(1e-3, 0.2, n) * delta
    theta = gen.random(n)
    theta[:100] = 1.0
    nu2_min = work_threshold_block(1.0, 1.0, 1.0, delta, zeta, theta)
    assert_exact_thresholds(np.full(n, math.tanh(1.0)), np.ones(n), delta, zeta, theta, nu2_min)


def test_efficiency_adiabatic_limit_is_otto():
    cycle = (0.5, 1.0, 2.0, 0.0, 0.0, 0.3)
    assert efficiency_block(*cycle) == pytest.approx(0.5, abs=1e-15)
    for branch in ("plus", "minus"):
        eta = efficiency_block(*cycle, 0.5, branch)
        assert eta == pytest.approx(0.5, abs=1e-14)


def test_efficiency_below_otto_over_engine_sweep():
    # Otto ceiling 0.5 for nu1 = 1, nu2 = 2
    delta = np.linspace(0.0, 0.49, 50)
    assert (efficiency_block(0.5, 1.0, 2.0, delta, delta, 0.4) <= 0.5 + 1e-12).all()


def test_efficiency_needs_heat():
    assert np.isnan(efficiency_block(0.0, 1.0, 2.0, 0.1, 0.1, 0.3))
    assert np.isnan(efficiency_block(0.7, 1.0, 2.0, 0.5, 0.5, 0.3))


def test_efficiency_reads_heat_whose_magnitude_overflows():
    # the heat's terms are finite and their magnitudes' sum is not: the
    # residue test reads the terms without their common factor 2 nu2, so
    # the efficiency is that of the gaps' ratio, 1/2, at any scale
    huge = efficiency_block(2.0, 2.5e307, 5e307, 0.1, 0.1, 0.9)
    assert huge == efficiency_block(2.0, 1.0, 2.0, 0.1, 0.1, 0.9) == pytest.approx(0.475)
    # forward and backward heat that cancel are still no heat
    assert np.isnan(efficiency_block(2.0, 2.5e307, 5e307, 0.3, 0.7, 0.9))
    # where the terms themselves overflow, to inf - inf
    assert np.isnan(efficiency_block(2.0, 1e308, 1.7e308, 0.0, 1.0, 0.9))


def test_cancelled_forward_and_backward_heat_is_no_heat():
    # delta + zeta = 1 up to rounding: forward and backward heat cancel
    params = CycleParams(1.3, 0.7, 3.0, float(np.linspace(0.0, 1.0, 41)[38]), 0.05)
    ctrl = ControlSpec(0.3, "minus")
    flip = ctrl.flip_probability(0.3)
    fwd = closed_form_first_second(params, flip)
    bwd = closed_form_first_second(params, flip, direction="backward")
    assert 0.0 < abs(fwd.qm_mean + bwd.qm_mean) < 1e-14
    assert is_rounding_residue(fwd.qm_mean + bwd.qm_mean, abs(fwd.qm_mean))
    assert np.isnan(efficiency_block(*params, 0.3, ctrl.alpha, ctrl.branch))
    near = (1.3, 0.7, 3.0, 0.925, 0.05, 0.3)
    assert math.isfinite(efficiency_block(*near, ctrl.alpha, ctrl.branch))
    # the rule is relative to the magnitude: 32 eps of it, at every scale
    bound = 32.0 * np.finfo(float).eps
    for magnitude in (2.0**-1000, 1e-12, 1.0, 1e12, 2.0**1000):
        edge = bound * magnitude
        assert is_rounding_residue(np.array([-edge, 0.0, edge]), magnitude).all()
        beyond = np.nextafter(np.array([-edge, edge]), [-np.inf, np.inf])
        assert not is_rounding_residue(beyond, magnitude).any()


def test_bounds_all_hold_in_engine_regime():
    params = CycleParams(0.5, 1.0, 2.0, 0.1, 0.1)
    reports = {r.name: r for r in verify_bounds_block(*params, 0.3)}
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
        reports = {r.name: r for r in verify_bounds_block(*params, 0.15)}
        rep = reports["ratio_le_one"]
        if not rep.applicable:
            assert not rep.satisfied
            assert rep.left >= 1.0 - 1e-10
            found = True
    assert found


def test_cs_bounds_hold_for_engine_tuple():
    for branch in ("plus", "minus"):
        reports = verify_bounds_block(0.7, 1.0, 2.0, 0.05, 0.05, 0.4, 0.5, branch)
        reports = {r.name: r for r in reports}
        assert reports["cs_qt_nonpositive"].applicable
        assert reports["cs_qt_nonpositive"].satisfied
        if reports["cs_eta_le_otto"].applicable:
            assert reports["cs_eta_le_otto"].satisfied
        if reports["cs_eta_branch_order"].applicable:
            assert reports["cs_eta_branch_order"].satisfied


def test_cs_branch_efficiency_ordering():
    cycle = (0.7, 1.0, 2.0, 0.1, 0.1, 0.4)
    eta_minus = efficiency_block(*cycle, 0.5, "minus")
    eta_plain = efficiency_block(*cycle)
    eta_plus = efficiency_block(*cycle, 0.5, "plus")
    assert eta_minus >= eta_plain >= eta_plus


def test_ratio_scan_adiabatic_identity():
    dist = enumerate_paths(CycleParams(0.8, 1.0, 2.5, 0.0, 0.0), 0.3)
    otto = 1.0 - 1.0 / 2.5
    for order in (2, 3, 4):
        record = cumulant_ratio_block(dist, order)
        assert close(record.ratio, otto**order, 1e-12)
        assert not record.sign_mismatch
        assert not record.above_one
        # the ratio is eta^n up to rounding, which decides no flag
        assert not record.below_eta_power


def test_ratio_scan_finds_corridor_escapes():
    # the theta sweep of the engine/accelerator crossover region shows
    # third and fourth cumulant ratios outside [eta^n, 1], some negative
    block = enumerate_block(*FIG3, np.linspace(0.01, 1.0, 150))
    r3, r4 = (cumulant_ratio_block(block, order) for order in (3, 4))
    assert (r3.below_eta_power | r3.above_one).any()
    assert (r4.below_eta_power | r4.above_one).any()
    assert (~r3.undefined & (r3.ratio < 0.0)).any()
    assert (~r4.undefined & (r4.ratio < 0.0)).any()


# The third and fourth cumulant ratios leave [eta^n, 1] on both sides:
# (t, theta, nu2, order, the exact ratio, the flag it raises) at nu1 = 1 and
# delta = zeta = 1/20, the ratio from the 16 path records in rationals
ESCAPES = [
    (Fraction(1, 2), Fraction(1, 10), 2, 3, Fraction(-47833, 5280375), "below_eta_power"),
    (Fraction(7, 10), Fraction(2, 5), 2, 3, Fraction(3651858617, 3503616000), "above_one"),
    (Fraction(9, 10), Fraction(1, 4), Fraction(3, 2), 4,
     Fraction(17540677414912, 7390229248125), "above_one"),
    (Fraction(1, 2), Fraction(1, 2), Fraction(3, 2), 4, Fraction(-177743, 895617),
     "below_eta_power"),
]


@pytest.mark.parametrize("t, theta, nu2, order, ratio, flag", ESCAPES)
def test_cumulant_ratios_escape_the_corridor_at_exact_points(t, theta, nu2, order, ratio, flag):
    fifth = Fraction(1, 20)
    w, q = exact_cumulants(t, 1, nu2, fifth, fifth, theta)
    assert w[order - 1] / q[order - 1] == ratio
    eta = w[0] / q[0]
    assert ratio < eta**order if flag == "below_eta_power" else ratio > 1
    # the same point in floats, at beta = atanh(t)
    block = enumerate_block(math.atanh(t), 1.0, float(nu2), 0.05, 0.05, float(theta))
    record = cumulant_ratio_block(block, order)
    assert record.ratio == pytest.approx(float(ratio), rel=1e-12)
    assert getattr(record, flag)
    other = "above_one" if flag == "below_eta_power" else "below_eta_power"
    assert not getattr(record, other) and not record.undefined
    # a negative ratio is a kappa_n(W) of the opposite sign to kappa_n(Q_M)
    assert record.sign_mismatch == (ratio < 0)


def test_ratio_scan_undefined_flag():
    record = cumulant_ratio_block(enumerate_paths(CycleParams(0.5, 1.0, 2.0, 0.1, 0.1), 0.0), 3)
    assert record.undefined
    assert math.isnan(record.ratio)
    assert not (record.below_eta_power or record.above_one or record.sign_mismatch)


def test_ratio_scan_is_scale_invariant():
    # every energy scaled by s scales kappa_n by s^n in both marginals
    s = np.array([1.0, 1e-2, 1e-4])
    records = cumulant_ratio_block(enumerate_block(0.7 / s, 1.0 * s, 2.3 * s, 0.2, 0.3, 0.4), 4)
    assert not records.undefined.any()
    for ratio in records.ratio[1:]:
        assert close(ratio, records.ratio[0], 1e-9)


def test_ratio_scan_takes_no_efficiency_from_cancelled_heat():
    # delta = 1/2 makes <Q_M> = 0; the enumeration leaves a residue of ~6e-17
    dist = enumerate_paths(CycleParams(0.7, 1.0, 2.3, 0.5, 0.2), 0.3)
    assert cumulants_from_block(dist).qm_mean != 0.0
    for order in (2, 3, 4):
        record = cumulant_ratio_block(dist, order)
        assert math.isnan(record.eta_power)
        assert not record.below_eta_power


def test_ratio_scan_order_validation():
    dist = enumerate_paths(FIG3, 0.3)
    # a float equal to an order is no order: it would index the cumulants
    for order in (1, 5, 2.0, 3.0, np.float64(4.0), "2", None):
        with pytest.raises(InputError, match="^order must be 2, 3 or 4$"):
            cumulant_ratio_block(dist, order)
    # numpy's integers are integers
    for order in (2, 3, 4):
        got, want = cumulant_ratio_block(dist, np.int64(order)), cumulant_ratio_block(dist, order)
        assert all(np.array_equal(a, b, equal_nan=True) for a, b in zip(got, want))


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
