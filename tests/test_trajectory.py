"""Path enumeration, the backward and controlled cycles and the sampler."""

import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

from unital_otto import (
    ControlSpec,
    CycleParams,
    DistributionBlock,
    InputError,
    PhysicsError,
    cumulants_from_block,
    enumerate_block,
    enumerate_paths,
    sample,
    trajectory,
)
from unital_otto.formulas import _binomial
from unital_otto.trajectory import _SUM_BOUND

from conftest import cycle_params, probs, sample_errors


def w_support(params):
    n1, n2 = params.nu1, params.nu2
    return {
        0.0, 2 * n1, -2 * n1, 2 * n2, -2 * n2,
        2 * (n2 - n1), -2 * (n2 - n1), 2 * (n1 + n2), -2 * (n1 + n2),
    }


def test_theta_zero_kills_channel_heat():
    dist = enumerate_paths(CycleParams(0.7, 1.0, 2.0, 0.3, 0.4), 0.0)
    assert np.all(dist.q_m == 0.0)
    assert set(dist.w) <= {0.0, 2.0, -2.0}


def test_degenerate_limit_single_path():
    # delta = zeta = 0 and theta = 1 at zero temperature: the only
    # surviving record is ground -> ground -> flip -> stay
    dist = enumerate_paths(CycleParams(40.0, 1.0, 2.0, 0.0, 0.0), 1.0)
    assert dist.w.size == 1
    assert dist.w[0] == 2.0 * (2.0 - 1.0)
    assert dist.q_m[0] == 2.0 * 2.0
    assert dist.prob[0] == pytest.approx(1.0, abs=1e-12)


def test_mean_channel_heat_matches_closed_form():
    params = CycleParams(0.7, 1.0, 2.0, 0.1, 0.1)
    dist = enumerate_paths(params, 0.2)
    mean_qm = float(np.dot(dist.prob, dist.q_m))
    expected = 2 * (1 - 2 * 0.1) * 0.2 * 2.0 * math.tanh(0.7)
    assert mean_qm == pytest.approx(expected, rel=1e-14)
    assert mean_qm == pytest.approx(0.386795, abs=1e-6)


def test_theta_out_of_range():
    params = CycleParams(0.5, 1.0, 2.0, 0.1, 0.1)
    with pytest.raises(ValueError):
        enumerate_paths(params, 1.2)
    with pytest.raises(ValueError):
        enumerate_paths(params, -0.1)


def test_backward_is_delta_zeta_swap():
    params = CycleParams(0.6, 1.0, 1.7, 0.1, 0.3)
    back = enumerate_paths(params.swapped, 0.25)
    fwd_swapped = enumerate_paths(CycleParams(0.6, 1.0, 1.7, 0.3, 0.1), 0.25)
    assert np.array_equal(back.w, fwd_swapped.w)
    assert np.array_equal(back.prob, fwd_swapped.prob)

    sym = CycleParams(0.6, 1.0, 1.7, 0.2, 0.2)
    assert np.array_equal(
        enumerate_paths(sym.swapped, 0.25).prob, enumerate_paths(sym, 0.25).prob
    )


def test_no_work_without_gap_change():
    params = CycleParams(0.8, 1.3, 1.3, 0.15, 0.4)
    fwd = enumerate_paths(params, 0.6)
    bwd = enumerate_paths(params.swapped, 0.6)
    total = float(np.dot(fwd.prob, fwd.w) + np.dot(bwd.prob, bwd.w))
    assert total <= 1e-12


def test_cs_alpha_zero_equals_plain():
    params = CycleParams(0.7, 1.0, 2.0, 0.1, 0.1)
    plain = enumerate_paths(params, 0.2)
    for branch in ("plus", "minus"):
        mixed = enumerate_paths(params, 0.2, ControlSpec(0.0, branch))
        assert np.array_equal(mixed.w, plain.w)
        assert np.array_equal(mixed.q_m, plain.q_m)
        assert np.max(np.abs(mixed.prob - plain.prob)) < 1e-15


def test_cs_minus_branch_stays_a_distribution():
    params = CycleParams(0.7, 1.0, 2.0, 0.1, 0.1)
    dist = enumerate_paths(params, 0.5, ControlSpec(0.5, "minus"))
    assert dist.prob.min() >= 0.0
    assert dist.prob.sum() == pytest.approx(1.0, abs=1e-12)


def test_cs_unphysical_theta_raises():
    # theta beyond 1/2 is unreachable by the measurement channel; the
    # minus branch then mixes to a negative weight
    params = CycleParams(0.7, 1.0, 2.0, 0.1, 0.1)
    with pytest.raises(PhysicsError):
        enumerate_paths(params, 0.9, ControlSpec(0.5, "minus"))


def test_negative_probability_rejected():
    dist = DistributionBlock(np.array([0.0, 1.0]), np.zeros(2), np.array([1.1, -0.1]))
    with pytest.raises(InputError, match="negative"):
        sample(dist, 10, seed=1)


def test_enumeration_sums_are_checked_against_their_rounding(monkeypatch):
    # a row 1e-12 off 1 is far beyond the 18 roundings of its sum
    evaluate = trajectory._evaluate

    def skewed(*args):
        block = evaluate(*args)
        block.prob[1, 0] += 1e-12
        return block

    theta = np.array([0.1, 0.2, 0.3])
    enumerate_block(0.7, 1.0, 2.0, 0.1, 0.2, theta)
    monkeypatch.setattr(trajectory, "_evaluate", skewed)
    # the row's sum in outcome order, on any CPU
    with pytest.raises(PhysicsError, match=r"^probabilities sum to 1\.0000000000010003, not 1$"):
        enumerate_block(0.7, 1.0, 2.0, 0.1, 0.2, theta)


@given(params=cycle_params(), theta=probs)
@settings(max_examples=300, deadline=None)
def test_distribution_invariants(params, theta):
    dist = enumerate_paths(params, theta)
    assert abs(dist.prob.sum() - 1.0) <= _SUM_BOUND
    assert set(dist.q_m) <= {0.0, 2 * params.nu2, -2 * params.nu2}
    assert set(dist.w) <= w_support(params)
    # unique outcomes after merging
    pairs = list(zip(dist.w, dist.q_m))
    assert len(pairs) == len(set(pairs))


@given(params=cycle_params(), theta=probs)
@settings(max_examples=200, deadline=None)
def test_beta_flip_mirrors_outcomes(params, theta):
    dist = enumerate_paths(params, theta)
    flipped = enumerate_paths(
        CycleParams(-params.beta, params.nu1, params.nu2, params.delta, params.zeta),
        theta,
    )
    mirrored = sorted(zip(-flipped.w, -flipped.q_m, flipped.prob))
    original = sorted(zip(dist.w, dist.q_m, dist.prob))
    assert len(mirrored) == len(original)
    for (w1, q1, p1), (w2, q2, p2) in zip(mirrored, original):
        assert w1 == w2 and q1 == q2
        assert abs(p1 - p2) < 1e-15


@given(params=cycle_params(), theta=probs)
@settings(max_examples=100, deadline=None)
def test_infinite_temperature_is_symmetric(params, theta):
    hot = CycleParams(0.0, params.nu1, params.nu2, params.delta, params.zeta)
    dist = enumerate_paths(hot, theta)
    table = {(w, q): p for w, q, p in zip(dist.w, dist.q_m, dist.prob)}
    for (w, q), p in table.items():
        assert abs(table.get((-w, -q), 0.0) - p) < 1e-15


def same(a, b) -> bool:
    """Whether two distributions have the same arrays, bit for bit."""
    return all(np.array_equal(x, y) for x, y in zip(a, b))


def test_sampler_single_outcome():
    dist = enumerate_paths(CycleParams(40.0, 1.0, 2.0, 0.0, 0.0), 1.0)
    drawn = sample(dist, 1, seed=5)
    assert same(drawn, dist)
    cums = cumulants_from_block(drawn)
    assert cums.w[0] == dist.w[0]
    assert cums.w[1] == 0.0


def test_sampler_deterministic():
    dist = enumerate_paths(CycleParams(0.7, 1.0, 2.0, 0.1, 0.2), 0.3)
    assert same(sample(dist, 5000, seed=123), sample(dist, 5000, seed=123))
    assert not same(sample(dist, 5000, seed=123), sample(dist, 5000, seed=124))


def test_sampler_agrees_with_enumeration():
    params = CycleParams(0.7, 1.0, 2.0, 0.1, 0.1)
    dist = enumerate_paths(params, 0.2)
    drawn = cumulants_from_block(sample(dist, 10**6, seed=99))
    exact_qm = float(np.dot(dist.prob, dist.q_m))
    mean_err, _ = sample_errors(cumulants_from_block(dist).q_m, 10**6)
    assert abs(drawn.q_m[0] - exact_qm) < 5 * mean_err
    assert abs(exact_qm - 0.386795) < 1e-6


def test_sampler_needs_draws():
    dist = enumerate_paths(CycleParams(0.7, 1.0, 2.0, 0.1, 0.1), 0.2)
    # the counts are taken as int64, which holds at most 2**63 - 1
    for n in (0, 2**63):
        with pytest.raises(ValueError):
            sample(dist, n, seed=1)
    assert sample(dist, 2**63 - 1, seed=1).prob.sum() == pytest.approx(1.0, abs=1e-15)


def test_sampler_checks_its_distribution():
    # a negative probability: test_negative_probability_rejected
    w, q = np.array([0.0, 1.0]), np.zeros(2)
    eps = np.finfo(float).eps
    cases = {
        "sum to": DistributionBlock(w, q, np.array([0.5, 0.5 + 64 * eps])),
        "equal length": DistributionBlock(w, q, np.array([1.0])),
        "1-d": DistributionBlock(w[None], q[None], np.array([[0.5, 0.5]])),
        "finite": DistributionBlock(np.array([0.0, np.inf]), q, np.array([0.5, 0.5])),
    }
    for message, dist in cases.items():
        with pytest.raises(InputError, match=message):
            sample(dist, 10, seed=1)
    # a sum within the package's one bound is a distribution
    assert 64 * eps > _SUM_BOUND >= 4 * eps
    sample(DistributionBlock(w, q, np.array([0.5, 0.5 + 4 * eps])), 10, seed=1)


def test_sampler_moments_are_those_of_the_draws():
    dist = enumerate_paths(CycleParams(0.7, 1.0, 2.0, 0.1, 0.2), 0.3)
    assert np.cumsum(dist.prob)[-2] <= 1.0  # the clamp leaves this distribution as it is
    drawn = sample(dist, 20000, seed=11)
    # the same stream's chain of binomials, each outcome drawing from what
    # the earlier ones left: the returned probabilities are the counts / n
    rng, left, rest, counts = random.Random(11), 20000, 1.0, []
    for p in dist.prob[:-1].tolist():
        counts.append(_binomial(rng, left, p / rest))
        left, rest = left - counts[-1], rest - p
    counts.append(left)
    assert np.array_equal(drawn.w, dist.w) and np.array_equal(drawn.q_m, dist.q_m)
    assert np.array_equal(drawn.prob, np.array(counts) / 20000)
    # and its cumulants are the mean and variance of the draws themselves
    idx = np.repeat(np.arange(dist.w.size), counts)
    cums = cumulants_from_block(drawn)
    for kappa, values in ((cums.w, dist.w), (cums.q_m, dist.q_m)):
        assert kappa[0] == pytest.approx(float(np.mean(values[idx])), rel=1e-13, abs=1e-13)
        assert kappa[1] == pytest.approx(float(np.var(values[idx])), rel=1e-13, abs=1e-13)


def test_sampler_variance_is_exact_at_a_large_mean():
    # raw moments lose the variance of outcomes 1e8 apart from 0: the second
    # raw moment minus the squared mean cancelled 8/9 to 0 here
    dist = DistributionBlock(np.array([1e8, 1e8 + 2.0]), np.zeros(2), np.array([0.5, 0.5]))
    for seed in range(4):
        drawn = sample(dist, 3, seed)
        counts = [round(3 * p) for p in drawn.prob.tolist()]
        assert drawn.prob.tolist() == [c / 3 for c in counts]
        values = [Fraction(x) for x in drawn.w.tolist()]
        mean = sum(c * x for c, x in zip(counts, values)) / 3
        exact = float(sum(c * (x - mean) ** 2 for c, x in zip(counts, values)) / 3)
        variance = float(cumulants_from_block(drawn).w[1])
        assert abs(variance - exact) <= 4 * math.ulp(exact)
        if seed == 0:
            assert counts == [1, 2] and exact == 8 / 9


def test_sampler_z_scores_look_standard_normal_over_seeds():
    # seeds 1-200 of one distribution: the z-scores of the sample mean and
    # variance of both variables against the exact cumulants, over the
    # standard errors the exact cumulants give, 800 in all;
    # 0.27% of a standard normal lies beyond |z| = 3, 2.2 of 800 expected
    dist = enumerate_paths(CycleParams(0.7, 1.0, 2.0, 0.1, 0.2), 0.3)
    exact = cumulants_from_block(dist)
    z = []
    for seed in range(1, 201):
        drawn = cumulants_from_block(sample(dist, 10**6, seed))
        for empirical, kappa in ((drawn.w, exact.w), (drawn.q_m, exact.q_m)):
            mean_err, var_err = sample_errors(kappa, 10**6)
            z.append((empirical[0] - kappa[0]) / mean_err)
            z.append((empirical[1] - kappa[1]) / var_err)
    z = np.array(z)
    assert abs(z.mean()) < 0.15 and 0.85 < z.var() < 1.15
    # eight or more beyond 3 would have probability below 0.3%
    assert np.count_nonzero(np.abs(z) > 3.0) <= 7


def test_sampler_clamps_partial_sums_at_one():
    # ten tenths: the partial sums stay below 1, and the last outcome takes
    # what the others leave
    tenths = DistributionBlock(np.arange(10.0), np.zeros(10), np.full(10, 0.1))
    assert np.cumsum(tenths.prob)[-1] < 1.0
    drawn = cumulants_from_block(sample(tenths, 10**12, seed=5))
    assert drawn.w[0] == pytest.approx(4.5, abs=1e-4)


def test_sampler_memory_does_not_grow_with_draws():
    dist = enumerate_paths(CycleParams(0.7, 1.0, 2.0, 0.1, 0.2), 0.3)
    tracemalloc.start()
    try:
        sample(dist, 2 * 10**6, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def _chi2_critical(df: int, z: float = 4.0) -> float:
    """The chi-square quantile z standard deviations up, by Wilson-Hilferty."""
    c = 2.0 / (9.0 * df)
    return df * (1.0 - c + z * math.sqrt(c)) ** 3


@pytest.mark.parametrize("n", [5, 40, 1000])
@pytest.mark.parametrize("p", [0.1, 0.5, 0.93])
def test_binomial_counts_follow_the_binomial_pmf(n, p):
    # 10 000 draws binned against the exact pmf, adjacent counts merged
    # until each bin expects at least 20
    draws = 10_000
    rng = random.Random(1000 * n + round(100 * p))
    seen = Counter(_binomial(rng, n, p) for _ in range(draws))
    assert set(seen) <= set(range(n + 1))
    stat, bins, expected, observed = 0.0, 0, 0.0, 0
    for k in range(n + 1):
        expected += draws * math.comb(n, k) * p**k * (1.0 - p) ** (n - k)
        observed += seen[k]
        if expected >= 20.0 or k == n:
            stat += (observed - expected) ** 2 / expected
            bins, expected, observed = bins + 1, 0.0, 0
    assert stat < _chi2_critical(bins - 1)


@pytest.mark.parametrize("n", [10**6, 10**12, 2**50, 2**62])
def test_binomial_count_variance_is_npq(n):
    # the variance of 2000 draws about the exact mean n p, against n p q:
    # its relative standard error is sqrt(2 / 2000) = 0.032; the median's
    # normal limit keeps 2**62 draws there (Gamma draws of Cheng's
    # algorithm alone give about 1.6 n p q)
    draws, p = 2000, 0.3
    rng = random.Random(n)
    counts = [_binomial(rng, n, p) for _ in range(draws)]
    npq = n * p * (1.0 - p)
    mean = sum(counts) / draws
    assert abs(mean - n * p) < 5.0 * math.sqrt(npq / draws)
    variance = sum((c - n * p) ** 2 for c in counts) / draws
    assert abs(variance / npq - 1.0) < 5.0 * math.sqrt(2.0 / draws)
