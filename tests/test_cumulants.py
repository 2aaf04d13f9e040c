"""Characteristic functions and the three cumulant routes against each other."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings

from unital_otto import (
    ControlSpec,
    CycleParams,
    InputError,
    cf_derivative_check,
    closed_form_block,
    closed_form_first_second,
    cs_first_cumulants,
    cumulants_from_block,
    enumerate_paths,
)

from conftest import close, cycle_params, finite, mp_cumulants, probs, random_params
from references import (
    cf_unital, flip_h, flip_theta, path_table_cf, pauli_kraus, transition_matrix,
)

REF = CycleParams(0.7, 1.0, 2.0, 0.1, 0.1)


def brute_cf(dist, gw, gm):
    return complex(np.sum(dist.prob * np.exp(1j * (gw * dist.w + gm * dist.q_m))))


def paper_cs_cf(params, theta, ctrl, gw, gm):
    """The paper's chi_cs = ((1 - theta +- c) chi_id + theta chi_ch) / (2 p_+-),
    c = sqrt(alpha (1 - alpha)), with its two brackets written out."""
    t = params.tanh_beta_nu1
    nu1, nu2, d, z = params.nu1, params.nu2, params.delta, params.zeta

    def cos_ratio(u, sign):  # 2 cos(u + sign i beta nu1) / Z
        return complex(math.cos(u), -sign * math.sin(u) * t)

    s = d + z - 2.0 * d * z
    chi_id = 1.0 + (cos_ratio(2.0 * gw * nu1, +1) - 1.0) * s
    chi_ch = (1.0 - d) * (
        z * cos_ratio(2.0 * (gw + gm) * nu2, -1)
        + (1.0 - z) * cos_ratio(2.0 * (gw * (nu2 - nu1) + gm * nu2), -1)
    ) + d * (
        (1.0 - z) * cos_ratio(2.0 * (gw + gm) * nu2, +1)
        + z * cos_ratio(2.0 * ((nu1 + nu2) * gw + gm * nu2), +1)
    )
    weight_id = 1.0 - theta + ctrl.sign * ctrl.coherence
    return (weight_id * chi_id + theta * chi_ch) / (2.0 * ctrl.branch_probability)


def paper_cs_means(params, theta, ctrl, direction="forward"):
    """The paper's closed-form (<W>, <Q_M>, <Q_T>) of the coherently
    controlled cycle; backward swaps delta and zeta."""
    if direction == "backward":
        params = params.swapped
    t = params.tanh_beta_nu1
    nu1, nu2, d, z = params.nu1, params.nu2, params.delta, params.zeta
    s = d + z - 2.0 * d * z
    g = theta + (1.0 - 2.0 * theta) * s
    den = 1.0 + ctrl.sign * ctrl.coherence
    qm = 2.0 * (1.0 - 2.0 * d) * theta * nu2 * t / den
    qt = (-2.0 * g * nu1 * t - ctrl.sign * 2.0 * ctrl.coherence * s * nu1 * t) / den
    return qm + qt, qm, qt


def random_cs_points(seed, count):
    """(params, theta, ctrl) with both branches, delta = zeta and
    delta != zeta, theta up to 1 but flip probability at most 1."""
    gen = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        params = random_params(gen)
        if gen.random() < 0.3:
            params = CycleParams(params.beta, params.nu1, params.nu2, params.delta, params.delta)
        ctrl = ControlSpec(gen.random(), "plus" if gen.random() < 0.5 else "minus")
        theta = gen.random()
        if theta <= 2.0 * ctrl.branch_probability:
            out.append((params, theta, ctrl))
    return out


def test_cf_normalisation():
    assert cf_unital(REF, 0.2, 0.0, 0.0) == pytest.approx(1.0, abs=1e-15)
    ctrl = ControlSpec(0.5, "minus")
    assert cf_unital(REF, ctrl.flip_probability(0.2), 0.0, 0.0) == pytest.approx(1.0, abs=1e-15)
    matrix = transition_matrix(pauli_kraus(0.4, 0.3, 0.2, 0.1))
    assert path_table_cf(REF, matrix, 0.0, 0.0) == pytest.approx(1.0, abs=1e-14)


def test_cf_unital_matches_discrete_transform_at_fixed_point():
    dist = enumerate_paths(REF, 0.2)
    gw, gm = 0.3, -0.2
    assert abs(cf_unital(REF, 0.2, gw, gm) - brute_cf(dist, gw, gm)) < 1e-14


@given(params=cycle_params(), theta=probs, seed=finite(0.0, 1.0))
@settings(max_examples=150, deadline=None)
def test_cf_unital_is_transform_of_enumeration(params, theta, seed):
    dist = enumerate_paths(params, theta)
    gen = np.random.default_rng(int(seed * 2**31))
    for gw, gm in gen.uniform(-4.0, 4.0, size=(10, 2)):
        diff = abs(cf_unital(params, theta, gw, gm) - brute_cf(dist, gw, gm))
        assert diff < 1e-12


def test_backward_cf_is_swapped_forward():
    params = CycleParams(0.6, 1.0, 1.7, 0.1, 0.35)
    back = enumerate_paths(params.swapped, 0.3)
    gen = np.random.default_rng(8)
    for gw, gm in gen.uniform(-4.0, 4.0, size=(20, 2)):
        swapped = cf_unital(params.swapped, 0.3, gw, gm)
        assert abs(swapped - brute_cf(back, gw, gm)) < 1e-13


def test_cf_general_reduces_to_unital():
    gen = np.random.default_rng(3)
    for _ in range(20):
        weights = gen.dirichlet(np.ones(4))
        kraus = pauli_kraus(*weights)
        params = random_params(gen)
        for gw, gm in gen.uniform(-3.0, 3.0, size=(5, 2)):
            unital = cf_unital(params, flip_theta(kraus), gw, gm)
            general = path_table_cf(params, transition_matrix(kraus), gw, gm)
            assert abs(unital - general) < 1e-12


def test_cf_general_diagonal_kraus_ignores_heat_variable():
    gen = np.random.default_rng(4)
    phases = np.exp(1j * gen.uniform(0, 2 * math.pi, size=4))
    kraus = [
        math.sqrt(0.3) * np.diag(phases[:2]),
        math.sqrt(0.7) * np.diag(phases[2:]),
    ]
    assert flip_theta(kraus) == 0.0
    matrix = transition_matrix(kraus)
    for gw in (0.0, 0.4, -1.3):
        base = path_table_cf(REF, matrix, gw, 0.0)
        for gm in (0.5, -2.0, 3.3):
            assert abs(path_table_cf(REF, matrix, gw, gm) - base) < 1e-14


def test_cf_general_nonunital_channel_is_normalised():
    gamma = 0.35
    kraus = [
        np.array([[1.0, 0.0], [0.0, math.sqrt(1 - gamma)]]),
        np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]]),
    ]
    assert flip_h(kraus) == pytest.approx(1 - gamma, abs=1e-15)
    assert path_table_cf(REF, transition_matrix(kraus), 0.0, 0.0) == pytest.approx(1.0, abs=1e-14)


def paper_cf_general(params, kraus, gamma_w, gamma_m):
    """The paper's eight path groups, written out by hand.

    The channel enters only through theta and
    h = sum_j <-|K_j K_j^dag|->; an oracle for non-unital channels.
    """
    th, h = flip_theta(kraus), flip_h(kraus)
    t = params.tanh_beta_nu1
    a, b = 0.5 * (1.0 + t), 0.5 * (1.0 - t)
    nu1, nu2 = params.nu1, params.nu2
    d, z = params.delta, params.zeta
    ew = 2.0 * gamma_w
    em = 2.0 * gamma_m

    def e(x):
        return cmath.exp(1j * x)

    stay, flip_down, flip_up = h - th, th, 1.0 - h + th
    chi = (1.0 - d) * (1.0 - z) * (a * stay + b * (1.0 - th))
    chi += (1.0 - d) * z * (a * e(-ew * nu1) * stay + b * e(ew * nu1) * (1.0 - th))
    chi += (1.0 - d) * z * (
        a * flip_up * e(ew * nu2 + em * nu2) + b * e(-ew * nu2 - em * nu2) * flip_down
    )
    chi += (1.0 - d) * (1.0 - z) * (
        a * flip_up * e(ew * (nu2 - nu1) + em * nu2)
        + b * e(-ew * (nu2 - nu1) - em * nu2) * flip_down
    )
    chi += d * (1.0 - z) * (
        a * e(-ew * nu2 - em * nu2) * flip_down + b * e(ew * nu2 + em * nu2) * flip_up
    )
    chi += d * z * (
        a * e(-ew * (nu1 + nu2) - em * nu2) * flip_down
        + b * e(ew * (nu1 + nu2) + em * nu2) * flip_up
    )
    chi += d * z * (a * (1.0 - th) + b * stay)
    chi += d * (1.0 - z) * (a * e(-ew * nu1) * (1.0 - th) + b * e(ew * nu1) * stay)
    return chi


def amplitude_damping(gamma, decay_to_ground):
    """Kraus pair of amplitude damping towards |-> or, reversed, |+>."""
    r = math.sqrt(1 - gamma)
    if decay_to_ground:
        return [np.diag([r, 1.0]), np.array([[0.0, 0.0], [math.sqrt(gamma), 0.0]])]
    return [np.diag([1.0, r]), np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]])]


@pytest.mark.parametrize(
    "kraus",
    [
        amplitude_damping(0.35, decay_to_ground=True),
        amplitude_damping(0.35, decay_to_ground=False),
        pauli_kraus(*np.random.default_rng(11).dirichlet(np.ones(4))),
    ],
    ids=["damping-to-ground", "damping-to-excited", "pauli"],
)
def test_cf_general_matches_paper_path_groups(kraus):
    # the path table at a channel's own transition matrix, which for
    # amplitude damping is not symmetric
    matrix = transition_matrix(kraus)
    gen = np.random.default_rng(12)
    for _ in range(20):
        params = random_params(gen)
        for gw, gm in gen.uniform(-3.0, 3.0, size=(5, 2)):
            oracle = paper_cf_general(params, kraus, gw, gm)
            assert abs(path_table_cf(params, matrix, gw, gm) - oracle) <= 1e-14


def test_cf_real_at_infinite_temperature():
    params = CycleParams(0.0, 1.0, 2.0, 0.15, 0.35)
    gen = np.random.default_rng(5)
    for gw, gm in gen.uniform(-4.0, 4.0, size=(25, 2)):
        assert abs(cf_unital(params, 0.4, gw, gm).imag) < 1e-15


def test_single_outcome_has_no_higher_cumulants():
    dist = enumerate_paths(CycleParams(40.0, 1.0, 2.0, 0.0, 0.0), 1.0)
    cums = cumulants_from_block(dist)
    assert cums.w[1:].tolist() == [0.0, 0.0, 0.0]
    assert cums.q_m[1:].tolist() == [0.0, 0.0, 0.0]


def test_quoted_work_statistics():
    # maximum work point delta = zeta = 0 for theta = 0.2 and 0.7
    params = CycleParams(0.7, 1.0, 2.0, 0.0, 0.0)
    for theta, mean, rf in ((0.2, 0.241747, 12.6889), (0.7, 0.846115, 2.9111)):
        cums = cumulants_from_block(enumerate_paths(params, theta))
        assert cums.w[0] == pytest.approx(mean, abs=1e-5)
        assert cums.w[1] / cums.w[0] ** 2 == pytest.approx(rf, rel=1e-3)


def test_inverted_bath_endpoint_work():
    # at beta < 0 the fully non-adiabatic endpoint delta = zeta = 1
    # carries the quoted work values, with the same RF as delta = 0
    params = CycleParams(-0.7, 1.0, 2.0, 1.0, 1.0)
    for theta, endpoint in ((0.2, 0.725241), (0.7, 2.53834)):
        cums = cumulants_from_block(enumerate_paths(params, theta))
        assert cums.w[0] == pytest.approx(endpoint, abs=1e-5)
        rf_origin = cumulants_from_block(
            enumerate_paths(CycleParams(0.7, 1.0, 2.0, 0.0, 0.0), theta)
        )
        assert cums.w[1] / cums.w[0] ** 2 == pytest.approx(
            rf_origin.w[1] / rf_origin.w[0] ** 2, rel=1e-12
        )


def test_inverted_bath_sweep_maximum_location():
    # the endpoint is the true delta-sweep maximum only for theta >= 1/2;
    # below that the quadratic work profile peaks inside the interval
    def work(theta, delta):
        params = CycleParams(-0.7, 1.0, 2.0, delta, delta)
        return closed_form_first_second(params, theta).w_mean

    grid = np.linspace(0.0, 1.0, 2001)
    sweep_07 = [work(0.7, float(d)) for d in grid]
    assert np.argmax(sweep_07) == len(grid) - 1
    sweep_02 = [work(0.2, float(d)) for d in grid]
    best = int(np.argmax(sweep_02))
    assert grid[best] == pytest.approx(5.0 / 6.0, abs=1e-3)
    assert sweep_02[best] > work(0.2, 1.0) + 0.01


def test_closed_form_reference_point():
    first = closed_form_first_second(REF, 0.2)
    assert first.qm_mean == pytest.approx(0.386795, abs=1e-6)
    assert first.qt_mean == pytest.approx(-0.372290, abs=1e-6)
    assert first.w_mean == pytest.approx(0.014505, abs=1e-6)


def test_closed_form_adiabatic_work_variance():
    for theta in (0.15, 0.5, 0.95):
        params = CycleParams(0.9, 1.0, 2.4, 0.0, 0.0)
        first = closed_form_first_second(params, theta)
        t2 = math.tanh(0.9) ** 2
        expected = 4 * theta * (2.4 - 1.0) ** 2 * (1 - theta * t2)
        assert first.w_var == pytest.approx(expected, rel=1e-14)


def test_closed_form_infinite_temperature():
    params = CycleParams(0.0, 1.0, 2.0, 0.2, 0.4)
    first = closed_form_first_second(params, 0.3)
    assert first.w_mean == 0.0
    assert first.qm_mean == 0.0
    assert first.qt_mean == 0.0
    assert first.qm_var == pytest.approx(4 * 0.3 * 4.0, rel=1e-14)
    assert first.w_var > 0.0


@given(params=cycle_params(), theta=probs)
@settings(max_examples=500, deadline=None)
def test_enumeration_matches_closed_form(params, theta):
    cums = cumulants_from_block(enumerate_paths(params, theta))
    first = closed_form_first_second(params, theta)
    assert close(cums.w[0], first.w_mean, 1e-12)
    assert close(cums.w[1], first.w_var, 1e-12)
    assert close(cums.q_m[0], first.qm_mean, 1e-12)
    assert close(cums.q_m[1], first.qm_var, 1e-12)
    assert close(cums.qt_mean, first.qt_mean, 1e-12)

    back = cumulants_from_block(enumerate_paths(params.swapped, theta))
    first_b = closed_form_first_second(params, theta, direction="backward")
    assert close(back.w[0], first_b.w_mean, 1e-12)
    assert close(back.w[1], first_b.w_var, 1e-12)


@given(params=cycle_params(), theta=probs)
@settings(max_examples=200, deadline=None)
def test_channel_heat_vanishes_without_flips(params, theta):
    cums = cumulants_from_block(enumerate_paths(params, 0.0))
    assert cums.q_m.tolist() == [0.0, 0.0, 0.0, 0.0]


@given(params=cycle_params(), theta=probs)
@settings(max_examples=200, deadline=None)
def test_beta_flip_parity(params, theta):
    cums = cumulants_from_block(enumerate_paths(params, theta))
    flipped = cumulants_from_block(
        enumerate_paths(
            CycleParams(-params.beta, params.nu1, params.nu2, params.delta, params.zeta),
            theta,
        )
    )
    for orig, mirror in ((cums.w, flipped.w), (cums.q_m, flipped.q_m)):
        assert close(orig[0], -mirror[0], 1e-12)
        assert close(orig[1], mirror[1], 1e-12)
        assert close(orig[2], -mirror[2], 1e-12)
        assert close(orig[3], mirror[3], 1e-12)


@given(params=cycle_params(), theta=probs)
@settings(max_examples=300, deadline=None)
def test_bath_heat_never_positive_for_cold_bath(params, theta):
    if params.beta <= 0:
        params = CycleParams(-params.beta, params.nu1, params.nu2, params.delta, params.zeta)
    cums = cumulants_from_block(enumerate_paths(params, theta))
    assert cums.qt_mean <= 1e-12
    assert close(cums.w[0], cums.q_m[0] + cums.qt_mean, 1e-12)


def test_adiabatic_cumulant_ratios():
    gen = np.random.default_rng(11)
    otto = 1.0 - 1.0 / 2.4
    params = CycleParams(0.8, 1.0, 2.4, 0.0, 0.0)
    cums = cumulants_from_block(enumerate_paths(params, 0.3))
    for n in range(4):
        ratio = cums.w[n] / cums.q_m[n]
        assert close(ratio, otto ** (n + 1), 1e-12)


def test_cs_cf_matches_distribution_transform():
    ctrl = ControlSpec(0.5, "minus")
    dist = enumerate_paths(REF, 0.2, ctrl)
    gen = np.random.default_rng(6)
    for gw, gm in gen.uniform(-4.0, 4.0, size=(50, 2)):
        chi = cf_unital(REF, ctrl.flip_probability(0.2), gw, gm)
        assert abs(chi - brute_cf(dist, gw, gm)) < 1e-12


def test_cs_cf_alpha_zero_is_unital_cf():
    gen = np.random.default_rng(7)
    for branch in ("plus", "minus"):
        ctrl = ControlSpec(0.0, branch)
        assert ctrl.flip_probability(0.2) == 0.2
        for gw, gm in gen.uniform(-4.0, 4.0, size=(20, 2)):
            paper = paper_cs_cf(REF, 0.2, ctrl, gw, gm)
            assert abs(paper - cf_unital(REF, 0.2, gw, gm)) < 1e-15


def test_paper_cs_cf_is_unital_cf_at_flip_probability():
    gen = np.random.default_rng(8)
    for params, theta, ctrl in random_cs_points(81, 2000):
        flip = ctrl.flip_probability(theta)
        for gw, gm in gen.uniform(-4.0, 4.0, size=(3, 2)):
            paper = paper_cs_cf(params, theta, ctrl, gw, gm)
            assert abs(paper - cf_unital(params, flip, gw, gm)) <= 1e-14


def test_paper_cs_means_are_unital_means_at_flip_probability():
    for params, theta, ctrl in random_cs_points(82, 5000):
        scale = 2.0 * (params.nu1 + params.nu2)
        for direction in ("forward", "backward"):
            closed = closed_form_first_second(params, ctrl.flip_probability(theta), direction)
            paper = paper_cs_means(params, theta, ctrl, direction)
            got = (closed.w_mean, closed.qm_mean, closed.qt_mean)
            assert max(abs(a - b) for a, b in zip(got, paper)) <= 1e-14 * scale


@given(params=cycle_params(), theta=finite(0.0, 0.5), alpha=probs)
@settings(max_examples=300, deadline=None)
def test_cs_first_cumulants_match_distribution_route(params, theta, alpha):
    for branch in ("plus", "minus"):
        ctrl = ControlSpec(alpha, branch)
        closed = cs_first_cumulants(params, theta, ctrl)
        cums = cumulants_from_block(enumerate_paths(params, theta, ctrl))
        assert close(closed.w_mean, cums.w[0], 1e-12)
        assert close(closed.qm_mean, cums.q_m[0], 1e-12)
        assert close(closed.qt_mean, cums.qt_mean, 1e-12)


def test_cs_first_cumulants_alpha_zero_reduction():
    plain = closed_form_first_second(REF, 0.2)
    for branch in ("plus", "minus"):
        ctrl = ControlSpec(0.0, branch)
        assert ctrl.flip_probability(0.2) == 0.2
        assert cs_first_cumulants(REF, 0.2, ctrl) == plain
        paper = paper_cs_means(REF, 0.2, ctrl)
        assert paper == pytest.approx((plain.w_mean, plain.qm_mean, plain.qt_mean), abs=1e-15)


def test_closed_form_rows_are_points_of_the_block():
    # backward is the forward cycle at (zeta, delta); the control is a column
    params, ctrl = CycleParams(0.7, 1.0, 2.0, 0.1, 0.35), ControlSpec(0.3, "plus")
    for direction, strokes in (("forward", (0.1, 0.35)), ("backward", (0.35, 0.1))):
        block = closed_form_block(0.7, 1.0, 2.0, *strokes, 0.4)
        assert closed_form_first_second(params, 0.4, direction) == tuple(map(float, block))
        block = closed_form_block(0.7, 1.0, 2.0, *strokes, 0.4, ctrl.alpha, ctrl.branch)
        assert cs_first_cumulants(params, 0.4, ctrl, direction) == tuple(map(float, block))
    for call in (lambda: closed_form_first_second(params, 0.4, "sideways"),
                 lambda: cs_first_cumulants(params, 0.4, ctrl, "sideways")):
        with pytest.raises(InputError, match="^direction must be 'forward' or 'backward'$"):
            call()


def test_cs_closed_form_checks_theta_before_the_flip_bound():
    # theta = 1.5 also breaks the minus branch's flip bound; the theta range
    # is checked first, as for the distribution
    params, ctrl = CycleParams(0.7, 1.0, 2.0, 0.1, 0.2), ControlSpec(0.3, "minus")
    for call in (lambda: cs_first_cumulants(params, 1.5, ctrl),
                 lambda: enumerate_paths(params, 1.5, ctrl)):
        with pytest.raises(InputError, match=r"^theta must lie in \[0, 1\]$"):
            call()


def test_cs_adiabatic_work():
    # delta = zeta = 0: W+- = 2 theta (nu2-nu1) tanh(beta nu1)/(1 +- coh)
    params = CycleParams(0.7, 1.0, 2.0, 0.0, 0.0)
    for branch, sign in (("plus", 1), ("minus", -1)):
        ctrl = ControlSpec(0.3, branch)
        closed = closed_form_first_second(params, ctrl.flip_probability(0.2))
        coh = math.sqrt(0.3 * 0.7)
        expected = 2 * 0.2 * 1.0 * math.tanh(0.7) / (1 + sign * coh)
        assert closed.w_mean == pytest.approx(expected, rel=1e-14)


def test_cs_minus_branch_beats_incoherent_work():
    ctrl = ControlSpec(0.5, "minus")
    assert (
        closed_form_first_second(REF, ctrl.flip_probability(0.2)).w_mean
        > closed_form_first_second(REF, 0.2).w_mean
    )


def test_derivative_route_first_order():
    exact = cumulants_from_block(enumerate_paths(REF, 0.2))
    fd = cf_derivative_check(*REF, 0.2)
    assert abs(fd.w[0] - exact.w[0]) < 1e-8
    assert abs(fd.q_m[0] - exact.q_m[0]) < 1e-8


def test_derivative_route_fourth_order():
    exact = cumulants_from_block(enumerate_paths(REF, 0.2))
    fd = cf_derivative_check(*REF, 0.2)
    for got, ref in ((fd.w[3], exact.w[3]), (fd.q_m[3], exact.q_m[3])):
        assert abs(got - ref) < max(1e-6, 1e-6 * abs(ref))


def test_derivative_route_odd_orders_vanish_at_infinite_temperature():
    params = CycleParams(0.0, 1.0, 2.0, 0.15, 0.35)
    fd = cf_derivative_check(*params, 0.4)
    for kappas in (fd.w, fd.q_m):
        assert kappas[0] == 0.0
        assert kappas[2] == 0.0


def test_derivative_route_variance_of_a_certain_heat_is_zero():
    # theta = delta = 1 and t = -1: every record pays Q_M = 2 nu2, and at
    # this gap mu_2 - mu_1^2 rounds to a residue below zero
    params = CycleParams(-52.51936446075948, 0.8772885040320562, 1854.5650753270318, 1.0, 0.8574958478957697)
    assert cumulants_from_block(enumerate_paths(params, 1.0)).q_m[1] == 0.0
    assert cf_derivative_check(*params, 1.0).q_m[1] == 0.0


def test_derivative_route_is_a_checked_point():
    fd = cf_derivative_check(*REF, 0.2)
    assert fd.w.shape == fd.q_m.shape == (4,) and fd.qt_mean.shape == ()
    # the series coefficients overflow at these gaps
    with pytest.raises(ValueError, match="^cumulants must be finite$"):
        cf_derivative_check(0.5, 1e80, 2e80, 0.1, 0.1, 0.2)


def test_derivative_route_cs_variant():
    ctrl = ControlSpec(0.5, "minus")
    exact = cumulants_from_block(enumerate_paths(REF, 0.2, ctrl))
    fd = cf_derivative_check(*REF, 0.2, ctrl.alpha, ctrl.branch)
    assert close(fd.w[0], exact.w[0], 1e-6)
    assert close(fd.w[1], exact.w[1], 1e-6)


def _oracle_point(gen, i):
    """(beta, nu1, nu2, delta, zeta, theta, alpha, branch) for the exact-route
    oracle: gaps log-uniform in [1e-3, 50], with one edge case in every
    other draw."""
    nu1, nu2 = np.exp(gen.uniform(math.log(1e-3), math.log(50.0), size=2))
    beta = gen.uniform(-3.0, 3.0)
    delta, zeta, theta = gen.random(3)
    alpha, branch = None, "minus"
    edge = i % 14
    if edge == 1:  # t -> +-1
        beta = gen.choice((-1.0, 1.0)) * gen.uniform(20.0, 1e3) / nu1
    elif edge == 2:
        nu1, nu2 = gen.choice((1e-3, 50.0), size=2)
    elif edge == 3:
        theta = float(gen.choice((0.0, 1.0)))
    elif edge == 4:
        zeta = delta
    elif edge == 5:
        delta = float(gen.choice((0.0, 0.5, 1.0)))
    elif edge == 6:
        delta, zeta = gen.choice((0.0, 0.5, 1.0), size=2)
    elif edge == 7:
        beta = gen.choice((-1.0, 1.0)) * 1e3 / nu1
        delta, zeta = gen.choice((0.0, 1.0), size=2)
        theta = float(gen.choice((0.0, 1.0)))
    elif edge in (8, 9):
        alpha, branch = gen.random(), ("plus", "minus")[edge - 8]
        limit = 1.0 - math.sqrt(alpha * (1.0 - alpha)) if branch == "minus" else 1.0
        theta *= limit
    return beta, nu1, nu2, delta, zeta, theta, alpha, branch


def test_derivative_route_matches_exact_oracle():
    """Every cumulant of the exact series route is within 1e-14 E^k of the
    60-digit record sum, E the largest |outcome| (2(nu1 + nu2) for W, 2 nu2
    for Q_M)."""
    gen = np.random.default_rng(6060)
    worst = 0.0
    for i in range(2100):
        beta, nu1, nu2, delta, zeta, theta, alpha, branch = _oracle_point(gen, i)
        got = cf_derivative_check(beta, nu1, nu2, delta, zeta, theta, alpha, branch)
        ref = mp_cumulants(beta, nu1, nu2, delta, zeta, theta, alpha, branch)
        for values, exact, scale in ((got.w, ref.w, 2.0 * (nu1 + nu2)), (got.q_m, ref.q_m, 2.0 * nu2)):
            for k in range(4):
                worst = max(worst, abs(values[k] - exact[k]) / scale ** (k + 1))
    assert worst <= 1e-14


def test_outcome_sums_add_in_outcome_order_on_any_layout():
    # the one moment rule (formulas._moments) adds in table order: a grid's
    # cumulants are a point's in floats, bit for bit, in either memory
    # layout and for a lone point, and kappa_1 is formulas._sum of p x,
    # term by term from the first outcome; the compensated centred sums lie
    # within 2 eps of the sum of their terms' magnitudes (Kahan's bound is
    # eps + O(n eps^2))
    from fractions import Fraction

    from unital_otto.cumulants import _block_moments
    from unital_otto.formulas import DistributionBlock, _point_cumulants, _sum

    rng = np.random.default_rng(40)
    w, q = rng.standard_normal((2, 300, 9)) * 10.0 ** rng.integers(-8, 8, (2, 300, 9))
    prob = np.where(rng.random((300, 9)) < 0.2, 0.0, rng.random((300, 9)))
    rows = [DistributionBlock(*row) for row in zip(w.tolist(), q.tolist(), prob.tolist())]
    want = np.array([_point_cumulants(row)[:2] for row in rows])  # (300, 2, 4)

    def moments(*fields):
        return np.moveaxis(_block_moments(DistributionBlock(*fields)), 0, -2)

    for layout in (np.array, np.asfortranarray, lambda x: x.reshape(20, 15, 9)):
        assert moments(*map(layout, (w, q, prob))).reshape(want.shape).tobytes() == want.tobytes()
    for i in (0, 7):
        lone = moments(w[i], q[i], prob[i])
        assert lone.tobytes() == moments(w[i:i + 1], q[i:i + 1], prob[i:i + 1])[0].tobytes()
        assert lone.tobytes() == want[i].tobytes()
    eps = Fraction(2.0**-52)
    for row, got in zip(rows, want):
        for x, (mean, c2, c3, _) in zip(row[:2], got):
            assert mean == _sum(p * v for p, v in zip(row.prob, x))
            # the terms of the centred sums, about the most probable value
            x0 = x[row.prob.index(max(row.prob))]
            centre = x0 + _sum(p * (v - x0) for p, v in zip(row.prob, x))
            centred = [v - centre if p != 0.0 else 0.0 for p, v in zip(row.prob, x)]
            for total, power in ((c2, 2), (c3, 3)):
                terms = [Fraction(p * (d * d if power == 2 else d * d * d))
                         for p, d in zip(row.prob, centred)]
                assert abs(Fraction(total) - sum(terms)) <= 2 * eps * sum(map(abs, terms))
    # eight terms that a plain sum drops one by one: the centred squares of
    # the magnitudes (|x| + 1)^2, mean 1, weighed by p are 4 and 4e-16
    small = [1.0] + [0.0] * 8
    prob = [1.0] + [4e-16] * 8
    terms = [p * (x + 1.0) ** 2 for p, x in zip(prob, small)]
    assert _sum(terms) == 4.0
    c2 = _block_moments(DistributionBlock(*map(np.array, (small, small, prob))), True)[0, 1]
    assert c2 == float(sum(map(Fraction, terms))) > 4.0
