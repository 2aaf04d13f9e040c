"""Grid evaluation: the block evaluator against the scalar path table."""

import math

import numpy as np
import pytest

from unital_otto import (
    ControlSpec,
    CycleParams,
    Regime,
    classify_regime_array,
    classify_regime_means,
    cs_distribution,
    cumulants_from_block,
    cumulants_from_distribution,
    enumerate_block,
    enumerate_paths,
    trajectory,
)
from unital_otto.cli import SWEEPABLE, main


def scalar_cumulants(beta, nu1, nu2, delta, zeta, theta, alpha=None, branch="minus"):
    params = CycleParams(beta, nu1, nu2, delta, zeta)
    if alpha is None:
        return cumulants_from_distribution(enumerate_paths(params, theta))
    return cumulants_from_distribution(
        cs_distribution(params, theta, ControlSpec(alpha, branch))
    )


def assert_cumulants_match(block_w, block_q, block_qt, ref, gap_sum):
    """Each order k within 1e-14 E^k of the scalar route, E = 2 (nu1 + nu2)
    the largest |W| outcome.  (Against 60-digit values both routes round
    kappa_4 to about 1.7e-14 (nu1 + nu2)^4, so nu1 + nu2 alone is too tight.)"""
    energy = 2.0 * gap_sum
    for k in range(4):
        tol = 1e-14 * energy ** (k + 1)
        assert abs(block_w[k] - ref.w[k]) <= tol
        assert abs(block_q[k] - ref.q_m[k]) <= tol
    assert abs(block_qt - ref.qt_mean) <= 1e-14 * energy


def random_points(rng, n, symmetric):
    beta = rng.uniform(-2.0, 2.0, n)
    nu1 = np.exp(rng.uniform(math.log(1e-2), math.log(20.0), n))
    nu2 = np.exp(rng.uniform(math.log(1e-2), math.log(20.0), n))
    delta = rng.random(n)
    zeta = delta if symmetric else rng.random(n)
    # exact edges of every probability
    delta[:4] = (0.0, 1.0, 0.5, 0.0)
    if not symmetric:
        zeta[:4] = (1.0, 0.0, 0.5, 0.0)
    theta = rng.random(n)
    theta[:4] = (0.0, 1.0, 0.5, 0.0)
    return beta, nu1, nu2, delta, zeta, theta


@pytest.mark.parametrize("symmetric", [True, False])
def test_block_cumulants_match_scalar_route(rng, symmetric):
    points = random_points(rng, 400, symmetric)
    cums = cumulants_from_block(enumerate_block(*points))
    for i in range(400):
        point = [float(x[i]) for x in points]
        ref = scalar_cumulants(*point)
        assert_cumulants_match(
            cums.w[i], cums.q_m[i], cums.qt_mean[i], ref, point[1] + point[2]
        )


@pytest.mark.parametrize("branch", ["plus", "minus"])
def test_controlled_block_matches_cs_distribution(rng, branch):
    beta, nu1, nu2, delta, zeta, theta = random_points(rng, 300, False)
    theta = 0.5 * theta  # the measurement channel's range
    alpha = rng.random(300)
    alpha[:3] = (0.0, 1.0, 0.5)
    cums = cumulants_from_block(
        enumerate_block(beta, nu1, nu2, delta, zeta, theta, alpha, branch)
    )
    for i in range(300):
        point = [float(x[i]) for x in (beta, nu1, nu2, delta, zeta, theta, alpha)]
        ref = scalar_cumulants(*point, branch=branch)
        assert_cumulants_match(
            cums.w[i], cums.q_m[i], cums.qt_mean[i], ref, point[1] + point[2]
        )


def test_block_keeps_grid_shape_and_sums_to_one():
    delta = np.linspace(0.0, 1.0, 5)[:, None]
    theta = np.linspace(0.0, 1.0, 3)[None, :]
    block = enumerate_block(0.7, 1.0, 2.0, delta, delta, theta)
    assert block.prob.shape == block.w.shape == block.q_m.shape == (5, 3, 9)
    assert np.allclose(block.prob.sum(axis=-1), 1.0, atol=1e-15)
    cums = cumulants_from_block(block)
    assert cums.w.shape == cums.q_m.shape == (5, 3, 4)
    assert cums.qt_mean.shape == (5, 3)


def test_block_distribution_holds_the_scalar_outcomes():
    params = CycleParams(0.4, 0.8, 2.1, 0.15, 0.35)
    block = enumerate_block(*(getattr(params, k) for k in ("beta", "nu1", "nu2", "delta", "zeta")), 0.3)
    dist = enumerate_paths(params, 0.3)
    got = {
        (w, q): p for w, q, p in zip(block.w.tolist(), block.q_m.tolist(), block.prob.tolist())
        if p != 0.0
    }
    want = dict(zip(zip(dist.w.tolist(), dist.q_m.tolist()), dist.prob.tolist()))
    assert got.keys() == want.keys()
    for key, p in want.items():
        assert abs(got[key] - p) <= 1e-16


def scalar_error(call):
    with pytest.raises(ValueError) as info:
        call()
    return type(info.value), str(info.value)


def test_block_raises_the_error_of_the_first_failing_point():
    delta = np.array([0.1, 0.2, 1.5, 0.3])
    with pytest.raises(ValueError, match=r"delta and zeta must lie in \[0, 1\]"):
        enumerate_block(0.5, 1.0, 2.0, delta, 0.1, 0.2)
    # point 1 breaks the flip bound, point 2 the cycle: point 1 decides
    theta = np.array([0.2, 0.6, 0.2, 0.2])
    kind, message = scalar_error(
        lambda: ControlSpec(0.3, "minus").flip_probability(0.6)
    )
    with pytest.raises(kind) as info:
        enumerate_block(0.5, 1.0, 2.0, delta, 0.1, theta, 0.3, "minus")
    assert str(info.value) == message
    with pytest.raises(ValueError, match=r"alpha must lie in \[0, 1\]"):
        enumerate_block(0.5, 1.0, 2.0, 0.1, 0.1, 0.2, np.array([0.5, math.nan]))
    with pytest.raises(ValueError, match=r"theta must lie in \[0, 1\]"):
        enumerate_block(0.5, 1.0, 2.0, 0.1, 0.1, np.array([0.5, 1.5]))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_block_cumulant_overflow_is_the_scalar_error():
    params = CycleParams(0.5, 1e80, 2e80, 0.1, 0.1)
    kind, message = scalar_error(
        lambda: cumulants_from_distribution(enumerate_paths(params, 0.2))
    )
    block = enumerate_block(0.5, np.array([1.0, 1e80]), np.array([2.0, 2e80]), 0.1, 0.1, 0.2)
    with pytest.raises(kind, match=message):
        cumulants_from_block(block)


def test_regime_array_matches_scalar_rule():
    values = [-1.0, -1e-13, 0.0, 1e-13, 1.0]
    grid = np.array(np.meshgrid(values, values, values, values, indexing="ij")).reshape(4, -1)
    beta, w, q, t = grid
    got = classify_regime_array(w, q, t, beta)
    want = [classify_regime_means(*point) for point in zip(w, q, t, beta)]
    assert list(got) == want
    assert Regime.ENGINE in want and Regime.ENGINE_PRIME in want and Regime.HEATER in want
    loose = classify_regime_array(w, q, t, beta, tol=1e-14)
    assert list(loose) == [
        classify_regime_means(*point, tol=1e-14) for point in zip(w, q, t, beta)
    ]


# --- the CLI's grids --------------------------------------------------------

BASES = {
    "symmetric-theta": {"beta": 0.7, "nu1": 1.0, "nu2": 2.0, "delta": 0.1, "zeta": 0.1, "theta": 0.3},
    "asymmetric-pauli": {"beta": -0.9, "nu1": 0.6, "nu2": 1.7, "delta": 0.2, "zeta": 0.45,
                         "p0": 0.5, "p1": 0.2, "p2": 0.1, "p3": 0.2},
    "symmetric-alpha-m-cs-plus": {"beta": 1.2, "nu1": 0.8, "nu2": 2.5, "delta": 0.3, "zeta": 0.3,
                                  "alpha_m": 1.1, "cs_alpha": 0.3, "branch": "plus"},
    "asymmetric-theta-cs-minus": {"beta": 0.4, "nu1": 1.3, "nu2": 0.9, "delta": 0.05, "zeta": 0.6,
                                  "theta": 0.25, "cs_alpha": 0.5, "branch": "minus"},
}

RANGES = {
    "beta": (-2.0, 2.0), "nu1": (0.2, 3.0), "nu2": (0.2, 3.0), "delta": (0.0, 1.0),
    "zeta": (0.0, 1.0), "theta": (0.0, 0.5), "cs-alpha": (0.0, 1.0), "alpha-m": (0.0, 3.0),
}


def flags(base):
    out = []
    for key, value in base.items():
        out += ["--" + key.replace("_", "-"), str(value)]
    return out


def point_cumulants(base, axis, value):
    """The documented rules of one sweep point, written out independently."""
    point = dict(base)
    if axis in ("delta", "zeta") and base["delta"] == base["zeta"]:
        point["delta"] = point["zeta"] = value
    point[axis.replace("-", "_")] = value
    if axis == "alpha-m":
        point.pop("theta", None)
    if "theta" in point:
        theta = point["theta"]
    elif "p1" in point:
        theta = point["p1"] + point["p2"]
    else:
        theta = math.sin(point["alpha_m"]) ** 2 / 2.0
    cycle = [point[k] for k in ("beta", "nu1", "nu2", "delta", "zeta")]
    if "cs_alpha" in point:
        return point, scalar_cumulants(*cycle, theta, point["cs_alpha"], point.get("branch", "minus"))
    return point, scalar_cumulants(*cycle, theta)


@pytest.mark.parametrize("base", sorted(BASES))
@pytest.mark.parametrize("axis", SWEEPABLE)
def test_sweep_rows_match_scalar_route(capsys, axis, base):
    lo, hi = RANGES[axis]
    code = main(["sweep", *flags(BASES[base]), "--axis", axis, "--start", str(lo),
                 "--stop", str(hi), "--steps", "7"])
    out = capsys.readouterr().out
    assert code == 0
    rows = out.splitlines()[2:]
    assert len(rows) == 7
    for row in rows:
        cells = row.split(",")
        value = float(cells[0])
        point, ref = point_cumulants(BASES[base], axis, value)
        numbers = [float(c) for c in cells[1:10]]
        assert_cumulants_match(
            numbers[0:4], numbers[4:8], numbers[8], ref, point["nu1"] + point["nu2"]
        )
        assert cells[12] == str(classify_regime_means(
            ref.w_mean, ref.qm_mean, ref.qt_mean, point["beta"]))


@pytest.mark.parametrize("axes", [("delta", "theta"), ("cs-alpha", "zeta"), ("alpha-m", "beta")])
def test_classify_cells_match_scalar_route(capsys, axes):
    base = BASES["asymmetric-theta-cs-minus"]
    lo1, hi1 = RANGES[axes[0]]
    lo2, hi2 = RANGES[axes[1]]
    code = main(["classify", *flags(base), "--axis", axes[0], "--start", str(lo1),
                 "--stop", str(hi1), "--steps", "5", "--axis2", axes[1], "--start2",
                 str(lo2), "--stop2", str(hi2), "--steps2", "4"])
    rows = capsys.readouterr().out.splitlines()[2:]
    assert code == 0 and len(rows) == 20
    for row in rows:
        v1, v2, w, q, qt, regime = row.split(",")
        point = dict(base)
        point[axes[0].replace("-", "_")] = float(v1)
        if axes[0] == "alpha-m":
            point.pop("theta")
        point, ref = point_cumulants(point, axes[1], float(v2))
        energy = 2.0 * (point["nu1"] + point["nu2"])
        assert abs(float(w) - ref.w_mean) <= 1e-14 * energy
        assert abs(float(q) - ref.qm_mean) <= 1e-14 * energy
        assert abs(float(qt) - ref.qt_mean) <= 1e-14 * energy
        assert regime == str(classify_regime_means(
            ref.w_mean, ref.qm_mean, ref.qt_mean, point["beta"]))


def test_classify_makes_no_per_point_scalar_call(capsys, monkeypatch):
    calls = []
    for name in ("enumerate_paths", "cs_distribution"):
        original = getattr(trajectory, name)
        monkeypatch.setattr(
            trajectory, name, lambda *a, _f=original, **k: calls.append(1) or _f(*a, **k)
        )
    for extra in ([], ["--cs-alpha", "0.3"]):
        code = main(["classify", *flags(BASES["symmetric-theta"]), *extra,
                     "--axis", "delta", "--start", "0", "--stop", "0.5", "--steps", "6",
                     "--axis2", "theta", "--start2", "0", "--stop2", "0.5", "--steps2", "5"])
        assert code == 0
    assert len(capsys.readouterr().out.splitlines()) == 2 * 32
    assert calls == []


def classify_error(capsys, *argv):
    code = main(["classify", *flags(BASES["symmetric-theta"]), *argv])
    return code, capsys.readouterr().err


def test_invalid_grids_keep_the_scalar_exit_code_and_message(capsys):
    code, err = classify_error(
        capsys, "--axis", "delta", "--start", "0", "--stop", "1.5", "--steps", "4",
        "--axis2", "theta", "--start2", "0", "--stop2", "1", "--steps2", "3",
    )
    assert code == 2
    assert err == "config error: delta and zeta must lie in [0, 1]\n"

    # first failing point in grid order: theta = 0.6 at cs-alpha = 0.3, minus
    code, err = classify_error(
        capsys, "--cs-alpha", "0.3", "--axis", "theta", "--start", "0", "--stop", "0.9",
        "--steps", "4", "--axis2", "delta", "--start2", "0", "--stop2", "0.5", "--steps2", "3",
    )
    first = float(np.linspace(0.0, 0.9, 4)[2])
    _, message = scalar_error(lambda: ControlSpec(0.3, "minus").flip_probability(first))
    assert code == 3
    assert err == f"physics error: {message}\n"

    # the cycle fails at (theta 0, delta 1.5) before the flip bound at theta 0.9
    code, err = classify_error(
        capsys, "--cs-alpha", "0.3", "--axis", "theta", "--start", "0", "--stop", "0.9",
        "--steps", "2", "--axis2", "delta", "--start2", "0", "--stop2", "1.5", "--steps2", "2",
    )
    assert code == 2
    assert err == "config error: delta and zeta must lie in [0, 1]\n"
