"""Path enumeration, backward/controlled variants and the sampler."""

import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

from unital_otto import trajectory
from unital_otto import (
    ControlSpec,
    CycleParams,
    JointDistribution,
    PhysicsError,
    SampleStats,
    backward_distribution,
    cs_distribution,
    distribution_to_csv,
    enumerate_paths,
    sample,
)

from conftest import cycle_params, probs


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
    assert len(dist) == 1
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
    back = backward_distribution(params, 0.25)
    fwd_swapped = enumerate_paths(CycleParams(0.6, 1.0, 1.7, 0.3, 0.1), 0.25)
    assert back.direction == "backward"
    assert np.array_equal(back.w, fwd_swapped.w)
    assert np.array_equal(back.prob, fwd_swapped.prob)

    sym = CycleParams(0.6, 1.0, 1.7, 0.2, 0.2)
    assert np.array_equal(
        backward_distribution(sym, 0.25).prob, enumerate_paths(sym, 0.25).prob
    )


def test_no_work_without_gap_change():
    params = CycleParams(0.8, 1.3, 1.3, 0.15, 0.4)
    fwd = enumerate_paths(params, 0.6)
    bwd = backward_distribution(params, 0.6)
    total = float(np.dot(fwd.prob, fwd.w) + np.dot(bwd.prob, bwd.w))
    assert total <= 1e-12


def test_cs_alpha_zero_equals_plain():
    params = CycleParams(0.7, 1.0, 2.0, 0.1, 0.1)
    plain = enumerate_paths(params, 0.2)
    for branch in ("plus", "minus"):
        mixed = cs_distribution(params, 0.2, ControlSpec(0.0, branch))
        assert np.array_equal(mixed.w, plain.w)
        assert np.array_equal(mixed.q_m, plain.q_m)
        assert np.max(np.abs(mixed.prob - plain.prob)) < 1e-15


def test_cs_minus_branch_stays_a_distribution():
    params = CycleParams(0.7, 1.0, 2.0, 0.1, 0.1)
    dist = cs_distribution(params, 0.5, ControlSpec(0.5, "minus"))
    assert dist.prob.min() >= 0.0
    assert dist.prob.sum() == pytest.approx(1.0, abs=1e-12)
    assert dist.control is not None and dist.control.branch == "minus"


def test_cs_unphysical_theta_raises():
    # theta beyond 1/2 is unreachable by the measurement channel; the
    # minus branch then mixes to a negative weight
    params = CycleParams(0.7, 1.0, 2.0, 0.1, 0.1)
    with pytest.raises(PhysicsError):
        cs_distribution(params, 0.9, ControlSpec(0.5, "minus"))


def test_negative_probability_rejected():
    with pytest.raises(PhysicsError):
        JointDistribution(
            np.array([0.0, 1.0]), np.array([0.0, 0.0]), np.array([1.1, -0.1])
        )


def test_probability_dust_clamped():
    dist = JointDistribution(
        np.array([0.0, 1.0]), np.array([0.0, 0.0]), np.array([1.0, -1e-12])
    )
    assert dist.prob[1] == 0.0


@given(params=cycle_params(), theta=probs)
@settings(max_examples=300, deadline=None)
def test_distribution_invariants(params, theta):
    dist = enumerate_paths(params, theta)
    assert abs(dist.prob.sum() - 1.0) < 1e-10
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


def test_sampler_single_outcome():
    dist = enumerate_paths(CycleParams(40.0, 1.0, 2.0, 0.0, 0.0), 1.0)
    stats = sample(dist, 1, seed=5)
    assert stats.w.mean == dist.w[0]
    assert stats.w.variance == 0.0
    assert stats.count == 1


def test_sampler_deterministic():
    dist = enumerate_paths(CycleParams(0.7, 1.0, 2.0, 0.1, 0.2), 0.3)
    assert sample(dist, 5000, seed=123) == sample(dist, 5000, seed=123)
    assert sample(dist, 5000, seed=123) != sample(dist, 5000, seed=124)


def test_sampler_agrees_with_enumeration():
    params = CycleParams(0.7, 1.0, 2.0, 0.1, 0.1)
    dist = enumerate_paths(params, 0.2)
    stats = sample(dist, 10**6, seed=99)
    exact_qm = float(np.dot(dist.prob, dist.q_m))
    assert abs(stats.q_m.mean - exact_qm) < 5 * stats.q_m.mean_stderr
    assert abs(exact_qm - 0.386795) < 1e-6


def test_sampler_needs_draws():
    dist = enumerate_paths(CycleParams(0.7, 1.0, 2.0, 0.1, 0.1), 0.2)
    with pytest.raises(ValueError):
        sample(dist, 0, seed=1)


def test_csv_round_trip():
    dist = enumerate_paths(CycleParams(0.7, 1.0, 2.0, 0.1, 0.2), 0.3)
    buf = io.StringIO()
    distribution_to_csv(dist, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "w,q_m,prob"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == len(dist)
    for (w_text, q_text, p_text), w, q, p in zip(rows, dist.w, dist.q_m, dist.prob):
        assert float(w_text) == w
        assert float(q_text) == q
        assert float(p_text) == p  # 17 significant digits round-trip


def test_sampler_moments_are_those_of_the_draws():
    dist = enumerate_paths(CycleParams(0.7, 1.0, 2.0, 0.1, 0.2), 0.3)
    stats = sample(dist, 20000, seed=11)
    # the same stream and indices, moments taken over the draws themselves
    rng = np.random.default_rng(11)
    idx = np.searchsorted(np.cumsum(dist.prob), rng.random(20000), side="right")
    idx = np.minimum(idx, len(dist) - 1)
    for summary, values in ((stats.w, dist.w), (stats.q_m, dist.q_m)):
        for k, raw in enumerate(summary.raw, 1):
            assert raw == pytest.approx(float(np.mean(values[idx] ** k)), rel=1e-13, abs=1e-13)


def _searchsorted_stats(dist, n, seed):
    """SampleStats from one random(n) call indexed by searchsorted and
    clipped to the last outcome, as the sampler drew before it streamed."""
    rng = np.random.default_rng(seed)
    idx = np.searchsorted(np.cumsum(dist.prob), rng.random(n), side="right")
    freq = np.bincount(np.minimum(idx, len(dist) - 1), minlength=len(dist)) / n

    def moments(values):
        return trajectory.MomentSummary(count=n, raw=tuple(float(freq @ values**k) for k in (1, 2, 3, 4)))

    return SampleStats(count=n, seed=seed, w=moments(dist.w), q_m=moments(dist.q_m))


def test_streamed_counts_equal_one_searchsorted_over_the_stream():
    chunk = trajectory._SAMPLE_CHUNK
    dists = [
        enumerate_paths(CycleParams(0.7, 1.0, 2.0, 0.1, 0.2), 0.3),
        # zero-probability outcomes, the last one among them
        JointDistribution([0.0, 1.0, 2.0, 3.0, 4.0, 5.0], [0.0] * 6, [0.3, 0.0, 0.2, 0.0, 0.5, 0.0]),
        # ten tenths: the last cdf entry rounds to 0.9999999999999999
        JointDistribution(np.arange(10.0), np.arange(10.0) ** 2, [0.1] * 10),
    ]
    assert np.cumsum(dists[2].prob)[-1] < 1.0
    for dist in dists:
        for n in (1, chunk - 1, chunk, chunk + 1, 3 * chunk + 7):
            assert sample(dist, n, seed=n) == _searchsorted_stats(dist, n, n)


def test_sampler_memory_does_not_grow_with_draws():
    dist = enumerate_paths(CycleParams(0.7, 1.0, 2.0, 0.1, 0.2), 0.3)
    tracemalloc.start()
    try:
        sample(dist, 2 * 10**6, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
