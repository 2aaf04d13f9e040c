"""Grid evaluation: the block evaluator against a 60-digit reference."""

import inspect
import itertools
import math
import warnings

import numpy as np
import pytest

from unital_otto import (
    ControlSpec,
    CycleParams,
    InputError,
    PhysicsError,
    Regime,
    analysis,
    cf_derivative_check,
    classify_regime_array,
    closed_form_block,
    closed_form_first_second,
    cumulants_from_block,
    efficiency_block,
    enumerate_block,
    enumerate_paths,
    trajectory,
    verify_bounds_block,
    work_threshold_block,
)
from unital_otto.cli import _DECODE_SAMPLES, _GROUPS, SWEEPABLE, _campaign_draws, _Draws, main
from unital_otto.pcg64 import PCG64

from conftest import mp_cumulants
from references import regime_sign_rule, residue


def assert_cumulants_match(block_w, block_q, block_qt, ref, gap_sum):
    """Each order k within 1e-14 E^k of the 60-digit reference, E = 2 (nu1 +
    nu2) the largest |W| outcome.  (The evaluator rounds kappa_4 to about
    1.7e-14 (nu1 + nu2)^4, so nu1 + nu2 alone is too tight.)"""
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
    # exact edges of every probability, and near-adiabatic, near-identity
    # points where the heat moments are small beside the outcomes
    delta[:5] = (0.0, 1.0, 0.5, 0.0, 1e-9)
    if not symmetric:
        zeta[:5] = (1.0, 0.0, 0.5, 0.0, 1e-9)
    theta = rng.random(n)
    theta[:6] = (0.0, 1.0, 0.5, 0.0, 0.5, 1e-12)
    return beta, nu1, nu2, delta, zeta, theta


@pytest.mark.parametrize("symmetric", [True, False])
def test_block_cumulants_match_scalar_route(rng, symmetric):
    points = random_points(rng, 400, symmetric)
    cums = cumulants_from_block(enumerate_block(*points))
    for i in range(400):
        point = [float(x[i]) for x in points]
        ref = mp_cumulants(*point)
        assert_cumulants_match(
            cums.w[i], cums.q_m[i], cums.qt_mean[i], ref, point[1] + point[2]
        )


@pytest.mark.parametrize("branch", ["plus", "minus"])
def test_controlled_block_matches_the_oracle(rng, branch):
    beta, nu1, nu2, delta, zeta, theta = random_points(rng, 300, False)
    theta = 0.5 * theta  # the measurement channel's range
    alpha = rng.random(300)
    alpha[:3] = (0.0, 1.0, 0.5)
    cums = cumulants_from_block(
        enumerate_block(beta, nu1, nu2, delta, zeta, theta, alpha, branch)
    )
    for i in range(300):
        point = [float(x[i]) for x in (beta, nu1, nu2, delta, zeta, theta, alpha)]
        ref = mp_cumulants(*point, branch=branch)
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
    # one evaluator: the single-point distribution is the block's row
    assert got == want


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
    assert scalar_error(lambda: cumulants_from_block(enumerate_paths(params, 0.2))) == (
        InputError, "cumulants must be finite")
    block = enumerate_block(0.5, np.array([1.0, 1e80]), np.array([2.0, 2e80]), 0.1, 0.1, 0.2)
    assert scalar_error(lambda: cumulants_from_block(block)) == (
        InputError, "cumulants must be finite")


def test_first_failing_point_decides_the_cumulant_error():
    # a (3, 4) cumulant block: point 0 has a negative variance, point 1
    # infinite cumulants, point 2 is valid; the first failing point's own
    # error is raised, though finiteness is checked before the variances
    w = np.array([[0.0, 1.0], [1e200, -1e200], [0.0, 1.0]])
    prob = np.array([[1.5, -0.5], [0.5, 0.5], [0.5, 0.5]])
    block = trajectory.DistributionBlock(w, np.zeros_like(w), prob)
    with pytest.raises(ValueError, match="^variances must be nonnegative$"):
        cumulants_from_block(block)
    with pytest.raises(ValueError, match="^cumulants must be finite$"):
        cumulants_from_block(trajectory.DistributionBlock(*(x[1:] for x in block)))
    valid = cumulants_from_block(trajectory.DistributionBlock(*(x[2:] for x in block)))
    assert valid.w.tolist() == [[0.5, 0.25, 0.0, -0.125]]


def test_regime_array_matches_scalar_rule():
    # flows relative to a magnitude of 1: the residue bound 32 eps, just
    # within it, just beyond it, and a clear sign; the labels are the same
    # at every scale of the flows and their magnitudes
    bound = 32.0 * np.finfo(float).eps
    values = [-1.0, -np.nextafter(bound, 1.0), -bound, 0.0, 0.5 * bound, np.nextafter(bound, 1.0), 1.0]
    grid = np.array(np.meshgrid(values, values, values, values, indexing="ij")).reshape(4, -1)
    beta, w, q, t = grid
    want = [regime_sign_rule(*point, (1.0, 1.0, 1.0)) for point in zip(w, q, t, beta)]
    for scale in (1.0, 2.0**-600, 1e-12, 1e12, 2.0**600):
        got = classify_regime_array(w * scale, q * scale, t * scale, beta / scale, [scale] * 3)
        assert list(got) == want
    assert Regime.ENGINE in want and Regime.ENGINE_PRIME in want and Regime.HEATER in want
    assert Regime.UNDETERMINED in [want[i] for i in range(len(want)) if 0.0 not in grid[:, i]]


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


def point_cumulants(base, *swept):
    """The documented rules of one grid point, written out independently:
    ``swept`` holds its (axis, value) pairs.  On a symmetric base a swept
    delta or zeta moves the other with it, unless both are swept."""
    point = dict(base)
    axes = {axis for axis, _ in swept}
    coupled = base["delta"] == base["zeta"] and not {"delta", "zeta"} <= axes
    for axis, value in swept:
        if coupled and axis in ("delta", "zeta"):
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
        return point, mp_cumulants(*cycle, theta, point["cs_alpha"], point.get("branch", "minus"))
    return point, mp_cumulants(*cycle, theta)


# a swept alpha-m on Pauli weights is a configuration error, which
# test_cli.py::test_swept_alpha_m_on_pauli_weights_is_config_error checks
SWEEPS = [(axis, base) for axis in SWEEPABLE for base in sorted(BASES)
          if (axis, base) != ("alpha-m", "asymmetric-pauli")]


@pytest.mark.parametrize("axis, base", SWEEPS, ids=[f"{axis}-{base}" for axis, base in SWEEPS])
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
        point, ref = point_cumulants(BASES[base], (axis, value))
        numbers = [float(c) for c in cells[1:10]]
        assert_cumulants_match(
            numbers[0:4], numbers[4:8], numbers[8], ref, point["nu1"] + point["nu2"]
        )
        assert cells[12] == str(regime_sign_rule(
            ref.w_mean, ref.qm_mean, ref.qt_mean, point["beta"], ref.magnitudes))


# the delta axis (0, 0.25, ...) of the asymmetric-theta grid hits its base zeta
ASYMMETRIC_THETA = {"beta": 0.5, "nu1": 1.0, "nu2": 2.0, "delta": 0.1, "zeta": 0.25, "theta": 0.3}


@pytest.mark.parametrize(
    "base, axes",
    [
        (BASES["asymmetric-theta-cs-minus"], ("delta", "theta")),
        (BASES["asymmetric-theta-cs-minus"], ("cs-alpha", "zeta")),
        (BASES["asymmetric-theta-cs-minus"], ("alpha-m", "beta")),
        (BASES["symmetric-theta"], ("delta", "zeta")),
        (BASES["symmetric-theta"], ("zeta", "delta")),
        (BASES["symmetric-theta"], ("delta", "theta")),
        (ASYMMETRIC_THETA, ("delta", "zeta")),
    ],
    ids=[f"axes{i}" for i in range(7)],
)
def test_classify_cells_match_scalar_route(capsys, base, axes):
    lo1, hi1 = RANGES[axes[0]]
    lo2, hi2 = RANGES[axes[1]]
    code = main(["classify", *flags(base), "--axis", axes[0], "--start", str(lo1),
                 "--stop", str(hi1), "--steps", "5", "--axis2", axes[1], "--start2",
                 str(lo2), "--stop2", str(hi2), "--steps2", "4"])
    rows = capsys.readouterr().out.splitlines()[2:]
    assert code == 0 and len(rows) == 20
    for row in rows:
        v1, v2, w, q, qt, regime = row.split(",")
        point, ref = point_cumulants(base, (axes[0], float(v1)), (axes[1], float(v2)))
        energy = 2.0 * (point["nu1"] + point["nu2"])
        assert abs(float(w) - ref.w_mean) <= 1e-14 * energy
        assert abs(float(q) - ref.qm_mean) <= 1e-14 * energy
        assert abs(float(qt) - ref.qt_mean) <= 1e-14 * energy
        assert regime == str(regime_sign_rule(
            ref.w_mean, ref.qm_mean, ref.qt_mean, point["beta"], ref.magnitudes))


def test_classify_makes_no_per_point_scalar_call(capsys, monkeypatch):
    calls = []
    original = trajectory.enumerate_paths
    monkeypatch.setattr(
        trajectory, "enumerate_paths", lambda *a, **k: calls.append(1) or original(*a, **k)
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


# --- bounds and efficiency --------------------------------------------------


def reference_closed_form(beta, nu1, nu2, d, z, theta):
    """(w_mean, w_var, qm_mean, qm_var, qt_mean) in plain Python floats, with
    libm tanh and ``** 2`` through libm pow: the scalar rule the bound
    verdicts and regimes of the blocks are checked against."""
    t = math.tanh(beta * nu1)
    s = d + z - 2.0 * d * z
    g = theta + (1.0 - 2.0 * theta) * s
    qm_mean = 2.0 * (1.0 - 2.0 * d) * theta * nu2 * t
    qm_var = 4.0 * theta * nu2**2 * (1.0 - (1.0 - 2.0 * d) ** 2 * theta * t * t)
    qt_mean = -2.0 * g * nu1 * t
    w_var = (
        4.0 * g * nu1**2
        + 8.0 * theta * (d + z - 1.0) * nu1 * nu2
        + 4.0 * theta * nu2**2
        - 4.0 * (g * nu1 + (2.0 * d - 1.0) * theta * nu2) ** 2 * t * t
    )
    return qm_mean + qt_mean, w_var, qm_mean, qm_var, qt_mean


def reference_magnitudes(beta, nu1, nu2, d, z, theta):
    """The magnitudes of :func:`reference_closed_form`'s values in plain
    Python: each written with every difference a - b as |a| + |b|."""
    t = abs(math.tanh(beta * nu1))
    g = theta + (1.0 + 2.0 * theta) * (d + z + 2.0 * d * z)
    qm_mean = 2.0 * (1.0 + 2.0 * d) * theta * nu2 * t
    qm_var = 4.0 * theta * nu2**2 * (1.0 + (1.0 + 2.0 * d) ** 2 * theta * t * t)
    qt_mean = 2.0 * g * nu1 * t
    w_var = (
        4.0 * g * nu1**2
        + 8.0 * theta * (d + z + 1.0) * nu1 * nu2
        + 4.0 * theta * nu2**2
        + 4.0 * (g * nu1 + (2.0 * d + 1.0) * theta * nu2) ** 2 * t * t
    )
    return qm_mean + qt_mean, w_var, qm_mean, qm_var, qt_mean


def reference_quotient(num, den, num_mag, den_mag):
    """num / den and the magnitude of its rounding; nan where den is a
    rounding residue."""
    if residue(den, den_mag):
        return math.nan, math.nan
    q = num / den
    return q, (num_mag + abs(q) * den_mag) / abs(den)


def reference_means(beta, nu1, nu2, d, z, theta):
    """(values, magnitudes) of the closed form every mode reads, forward plus
    backward, then the forward cycle's."""
    fwd = reference_closed_form(beta, nu1, nu2, d, z, theta)
    fwd_mag = reference_magnitudes(beta, nu1, nu2, d, z, theta)
    bwd = reference_closed_form(beta, nu1, nu2, z, d, theta)
    bwd_mag = reference_magnitudes(beta, nu1, nu2, z, d, theta)
    both = [a + b for a, b in zip(fwd, bwd)]
    return both, [a + b for a, b in zip(fwd_mag, bwd_mag)], fwd, fwd_mag


def reference_efficiency(beta, nu1, nu2, d, z, theta, mode, alpha=None, branch="minus"):
    """The scalar efficiency rule in plain Python, with the magnitude of its
    rounding; nan where the heat is a rounding residue."""
    if mode == "cs":
        theta = ControlSpec(alpha, branch).flip_probability(theta)
    means, mags, _, _ = reference_means(beta, nu1, nu2, d, z, theta)
    return reference_quotient(means[0], means[2], mags[0], mags[2])


def reference_bounds(beta, nu1, nu2, d, z, theta, mode, alpha=None, branch="minus"):
    """The proved inequalities checked one point at a time in plain Python:
    (name, left, right, applicable, satisfied, margin) per bound.  A
    comparison holds where right - left is nonnegative or a rounding
    residue of the operands' magnitudes."""

    def report(name, left, right, applicable, magnitude):
        margin = right - left
        holds = margin >= 0.0 or residue(margin, magnitude)
        return (name, left, right, bool(applicable), bool(holds), margin)

    def at_least_zero(value, magnitude):
        return value >= 0.0 or residue(value, magnitude)

    flip = ControlSpec(alpha, branch).flip_probability(theta) if mode == "cs" else theta
    means, mags, fwd, fwd_mag = reference_means(beta, nu1, nu2, d, z, flip)
    otto, otto_mag = 1.0 - nu1 / nu2, 1.0 + nu1 / nu2
    out = []
    if mode != "cs":
        out.append(report("qt_nonpositive", fwd[4], 0.0, beta > 0.0, fwd_mag[4]))
        out.append(report(
            "equal_gap_work_nonpositive", means[0], 0.0, beta > 0.0 and nu1 == nu2, mags[0]
        ))
    else:
        out.append(report(
            "cs_qt_nonpositive", fwd[4], 0.0, beta > 0.0 and theta <= 0.5, fwd_mag[4]
        ))
    magnitudes = (mags[0], mags[2], fwd_mag[4])
    engine = regime_sign_rule(means[0], means[2], fwd[4], beta, magnitudes) is Regime.ENGINE
    eta, eta_mag = reference_quotient(means[0], means[2], mags[0], mags[2])
    if mode == "cs":
        out.append(report("cs_eta_le_otto", eta, otto, engine, eta_mag + otto_mag))
        plain, plain_mag = reference_efficiency(beta, nu1, nu2, d, z, theta, "asymmetric")
        order = (plain, eta) if branch == "minus" else (eta, plain)
        comparable = engine and math.isfinite(plain)
        out.append(report("cs_eta_branch_order", *order, comparable, plain_mag + eta_mag))
        return out
    w_ratio, ratio_mag = reference_quotient(means[1], means[3], mags[1], mags[3])
    defined = not math.isnan(w_ratio) and not math.isnan(eta)
    if mode == "symmetric":
        corridor = at_least_zero(
            2.0 * (1.0 - 2.0 * d) * theta * nu2
            - (theta + 2.0 * d * (1.0 - d) * (1.0 - 2.0 * theta)) * nu1,
            2.0 * (1.0 + 2.0 * d) * theta * nu2
            + (theta + 2.0 * d * (1.0 + d) * (1.0 + 2.0 * theta)) * nu1,
        )
    else:
        s, s_mag = d + z - 2.0 * d * z, d + z + 2.0 * d * z
        corridor = at_least_zero(
            2.0 * theta * (1.0 - d - z) * nu2 - (theta + (1.0 - 2.0 * theta) * s) * nu1,
            2.0 * theta * (1.0 + d + z) * nu2 + (theta + (1.0 + 2.0 * theta) * s_mag) * nu1,
        )
    eta_sq_mag = 2.0 * abs(eta) * eta_mag + ratio_mag
    out.append(report("eta_le_otto", eta, otto, engine, eta_mag + otto_mag))
    out.append(report("eta_sq_le_ratio", eta * eta, w_ratio, corridor and defined, eta_sq_mag))
    out.append(report("ratio_le_one", w_ratio, 1.0, corridor and defined, ratio_mag))
    if mode == "symmetric":
        hopm = at_least_zero(
            (1.0 - 2.0 * d) * theta * nu2 - (1.0 - d) * (d + theta - 2.0 * d * theta) * nu1,
            (1.0 + 2.0 * d) * theta * nu2 + (1.0 + d) * (d + theta + 2.0 * d * theta) * nu1,
        )
        otto_sq_mag = 2.0 * abs(otto) * otto_mag + ratio_mag
        applicable = hopm and not math.isnan(w_ratio)
        out.append(report("otto_sq_le_ratio", otto * otto, w_ratio, applicable, otto_sq_mag))
    return out


def same_bits(a, b) -> bool:
    """Equal as doubles, the sign of zero included; nan matches nan."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    same = np.where(np.isnan(a), np.isnan(b), (a == b) & (np.signbit(a) == np.signbit(b)))
    return bool(same.all())


def bound_points(rng, n, mode, branch):
    """Random cycles with the {0, 1/2, 1} edges of delta, zeta and theta in
    every combination, delta + zeta = 1 (forward and backward heat
    cancel), equal gaps, beta = 0, |beta nu1| where tanh saturates and
    points on the boundary of each bound's precondition."""
    beta = rng.uniform(-2.0, 2.0, n)
    nu1 = np.exp(rng.uniform(math.log(1e-2), math.log(20.0), n))
    nu2 = np.exp(rng.uniform(math.log(1e-2), math.log(20.0), n))
    delta, zeta, theta = rng.random(n), rng.random(n), rng.random(n)
    edges = [0.0, 0.5, 1.0]
    corners = np.array(list(itertools.product(edges, repeat=3))).T
    for column, values in zip((delta, zeta, theta), corners):
        column[: len(values)] = values
        column[27:54] = values
    zeta[60:120] = 1.0 - delta[60:120]
    nu2[120:180] = nu1[120:180]
    beta[180:200] = 0.0
    beta[200:220] = rng.choice([-40.0, 40.0], 20)
    # delta = zeta = 0, theta = 1/2: the corridor preconditions hold with
    # equality at nu1 = 2 nu2, the Otto-squared one at nu1 = nu2
    delta[220:280] = zeta[220:280] = 0.0
    theta[220:280] = 0.5
    nu1[220:250] = 2.0 * nu2[220:250]
    nu1[250:280] = nu2[250:280]
    if mode == "symmetric":
        zeta = delta.copy()
    alpha = None
    if mode == "cs":
        alpha = rng.random(n)
        alpha[:54] = np.resize(edges, 54)
        # keep theta within 2 p_branch, its edge included
        doubled = 1.0 + (1.0 if branch == "plus" else -1.0) * np.sqrt(alpha * (1.0 - alpha))
        theta = np.minimum(theta, doubled)
    return (beta, nu1, nu2, delta, zeta, theta), alpha


MODES = [("symmetric", "minus"), ("asymmetric", "minus"), ("cs", "plus"), ("cs", "minus")]


def edge_points(mode):
    """|beta nu1| up to 1e3, where tanh saturates, theta down to 0, and delta
    at its edges, in every combination."""
    grid = itertools.product(
        (-50.0, -0.5, 0.5, 50.0), (0.05, 20.0), (0.05, 20.0), (0.0, 0.3, 1.0),
        (0.0, 1e-300, 1e-12, 1.0),
    )
    beta, nu1, nu2, delta, theta = np.array(list(grid)).T
    zeta = delta if mode == "symmetric" else 1.0 - 0.5 * delta
    return beta, nu1, nu2, delta, zeta, theta


def within_oracle(got, ref, energy, rel) -> bool:
    """Order k of ``got`` (k = 1, 2, ...) within rel energy^k of the 60-digit
    reference."""
    return all(abs(g - r) <= rel * energy**k for k, (g, r) in enumerate(zip(got, ref), 1))


@pytest.mark.parametrize("mode, branch", MODES)
def test_closed_form_and_enumeration_blocks_match_the_oracle(rng, mode, branch):
    cycle, alpha = bound_points(rng, 5000, mode, branch)
    # every fourth of the structured points, then every 30th random one
    pick = np.r_[0:280:4, 280:5000:30]
    edges = edge_points(mode)
    cycle = [np.concatenate([c[pick], e]) for c, e in zip(cycle, edges)]
    if alpha is not None:
        alpha = np.concatenate([alpha[pick], np.full(len(edges[0]), 0.3)])
        doubled = 1.0 + (1.0 if branch == "plus" else -1.0) * np.sqrt(alpha * (1.0 - alpha))
        cycle[5] = np.minimum(cycle[5], doubled)
    control = () if alpha is None else (alpha, branch)
    cums = cumulants_from_block(enumerate_block(*cycle, *control))
    # forward, then backward: the forward cycle at (zeta, delta)
    closed = [closed_form_block(*cycle[:3], *strokes, cycle[5], *control)
              for strokes in ((cycle[3], cycle[4]), (cycle[4], cycle[3]))]
    for i in range(len(cycle[5])):
        point = [float(c[i]) for c in cycle]
        ctrl = () if alpha is None else (float(alpha[i]), branch)
        # the largest |W| and |Q_M| outcomes; Q_T is measured against W's
        e_w, e_q = 2.0 * (point[1] + point[2]), 2.0 * point[2]
        ref = mp_cumulants(*point, *ctrl)
        assert within_oracle(cums.w[i], ref.w, e_w, 2e-15), (i, point)
        assert within_oracle(cums.q_m[i], ref.q_m, e_q, 2e-15), (i, point)
        assert within_oracle([cums.qt_mean[i]], [ref.qt_mean], e_w, 2e-15), (i, point)
        swapped = point[:3] + [point[4], point[3], point[5]]
        for block, ref in zip(closed, (ref, mp_cumulants(*swapped, *ctrl))):
            assert within_oracle([block.w_mean[i], block.w_var[i]], ref.w, e_w, 1e-15), i
            assert within_oracle([block.qm_mean[i], block.qm_var[i]], ref.q_m, e_q, 1e-15), i
            assert within_oracle([block.qt_mean[i]], [ref.qt_mean], e_w, 1e-15), i


# Points whose bound verdict, applicability, efficiency nan or regime may
# differ from the plain-Python rule because the deciding quantity lies
# within rounding of zero, listed by mode and branch as {index: reason}.
# None of the 5000 points of any mode does, on x86-64 with numpy 2.4.
ROUNDING_TIES: dict[tuple[str, str], dict[int, str]] = {mode: {} for mode in MODES}


def verdict_cells(applicable, satisfied):
    return np.where(applicable, np.where(satisfied, "ok", "violated"), "n/a")


@pytest.mark.parametrize("mode, branch", MODES)
def test_bound_and_efficiency_blocks_match_scalar_rule_verdicts(rng, mode, branch):
    n = 5000
    cycle, alpha = bound_points(rng, n, mode, branch)
    reports = verify_bounds_block(*cycle, alpha, branch)
    etas = efficiency_block(*cycle, alpha, branch)
    flip = cycle[5] if alpha is None else trajectory._controlled_flip(cycle[5], alpha, branch)
    means, mags, fwd, fwd_mag = analysis._pair_means((*cycle[:5], flip))
    magnitudes = (mags.w_mean, mags.qm_mean, fwd_mag.qt_mean)
    regimes = classify_regime_array(means.w_mean, means.qm_mean, fwd.qt_mean, cycle[0], magnitudes)
    cells = [verdict_cells(r.applicable, r.satisfied) for r in reports]
    differ = set()
    for i in range(n):
        point = [float(c[i]) for c in cycle]
        control = (None, branch) if alpha is None else (float(alpha[i]), branch)
        want = reference_bounds(*point, mode, *control)
        assert [r.name for r in reports] == [w[0] for w in want]
        got = [(bool(r.applicable[i]), str(c[i])) for r, c in zip(reports, cells)]
        if got != [(w[3], str(verdict_cells(w[3], w[4]))) for w in want]:
            differ.add(i)
        if np.isnan(etas[i]) != math.isnan(reference_efficiency(*point, mode, *control)[0]):
            differ.add(i)
        ref, ref_mag, ref_fwd, ref_fwd_mag = reference_means(*point[:5], float(flip[i]))
        flows = (ref[0], ref[2], ref_fwd[4])
        if regimes[i] != regime_sign_rule(*flows, point[0], (ref_mag[0], ref_mag[2], ref_fwd_mag[4])):
            differ.add(i)
    assert differ <= set(ROUNDING_TIES[mode, branch]), sorted(differ)
    # every bound is applicable somewhere and inapplicable somewhere, and
    # the efficiency is undefined somewhere
    assert all(r.applicable.any() and not r.applicable.all() for r in reports)
    assert np.isnan(etas).any() and np.isfinite(etas).any()


def outcomes(w, q, prob) -> dict:
    return {(a, b): p for a, b, p in zip(w.tolist(), q.tolist(), prob.tolist()) if p != 0.0}


@pytest.mark.parametrize("mode, branch", MODES)
def test_scalar_bounds_and_efficiency_are_rows_of_the_block(rng, mode, branch):
    # a single point is a 0-d block: its cells are those of the point in a
    # longer block
    points, alphas = bound_points(rng, 400, mode, branch)
    # block lengths around numpy's SIMD widths and the command line's
    # 256-point blocks: a ufunc such as np.tanh treats a block's tail apart
    # from its body
    for n in (*range(1, 21), 255, 256, 257):
        pick = rng.choice(400, n, replace=False)
        cycle = [c[pick] for c in points]
        alpha = None if alphas is None else alphas[pick]
        reports = verify_bounds_block(*cycle, alpha, branch)
        etas = efficiency_block(*cycle, alpha, branch)
        closed = closed_form_block(*cycle)
        dists = enumerate_block(*cycle, *(() if alpha is None else (alpha, branch)))
        for i in range(n):
            point = [float(c[i]) for c in cycle]
            params, theta = CycleParams(*point[:5]), point[5]
            ctrl = None if alpha is None else ControlSpec(float(alpha[i]), branch)
            control = (None, branch) if ctrl is None else (ctrl.alpha, branch)
            row = verify_bounds_block(*point, *control)
            for r, block in zip(row, reports):
                assert np.shape(r.left) == np.shape(r.applicable) == ()
                assert r.name == block.name
                assert same_bits(
                    [r.left, r.right, r.applicable, r.satisfied, r.margin],
                    [block.left[i], block.right[i], block.applicable[i], block.satisfied[i],
                     block.margin[i]],
                ), (n, i)
            assert same_bits(efficiency_block(*point, *control), etas[i]), (n, i)
            one = closed_form_first_second(params, theta)
            fields = ("w_mean", "w_var", "qm_mean", "qm_var", "qt_mean")
            assert same_bits([getattr(one, f) for f in fields],
                             [getattr(closed, f)[i] for f in fields]), (n, i)
            dist = enumerate_paths(params, theta, ctrl)
            assert outcomes(dist.w, dist.q_m, dist.prob) == outcomes(
                dists.w[i], dists.q_m[i], dists.prob[i]), (n, i)


def test_bound_blocks_keep_the_broadcast_shape():
    delta = np.linspace(0.0, 0.5, 4)[:, None]
    theta = np.linspace(0.0, 0.5, 3)
    for zeta, alpha in ((delta, None), (0.2, None), (0.2, 0.3)):
        reports = verify_bounds_block(0.7, 1.0, 2.0, delta, zeta, theta, alpha)
        for r in reports:
            for field in (r.left, r.right, r.applicable, r.satisfied, r.margin):
                assert np.shape(field) == (4, 3)
        assert efficiency_block(0.7, 1.0, 2.0, delta, zeta, theta, alpha).shape == (4, 3)
    # the control weight broadcasts with the cycle
    alpha = np.linspace(0.0, 1.0, 5)[:, None, None]
    reports = verify_bounds_block(0.7, 1.0, 2.0, delta, 0.2, theta, alpha, "plus")
    assert all(np.shape(r.left) == np.shape(r.applicable) == (5, 4, 3) for r in reports)
    assert efficiency_block(0.7, 1.0, 2.0, 0.1, 0.2, 0.3, alpha[:, 0, 0]).shape == (5,)


def test_controlled_flip_is_the_control_spec_value_bitwise(rng):
    theta = rng.random(2000)
    alpha = rng.random(2000)
    alpha[:3] = (0.0, 0.5, 1.0)
    beyond = 0
    for branch in ("plus", "minus"):
        got = trajectory._controlled_flip(theta, alpha, branch)
        for a, t, flip in zip(alpha.tolist(), theta.tolist(), got.tolist()):
            ctrl = ControlSpec(a, branch)
            if t <= 2.0 * ctrl.branch_probability:
                assert same_bits(flip, ctrl.flip_probability(t))
            else:
                # beyond 2 p_branch the array form leaves the flip above 1
                # and the scalar raises
                beyond += 1
                assert flip > 1.0
                with pytest.raises(PhysicsError, match="exceeds 2 p_branch"):
                    ctrl.flip_probability(t)
    assert beyond > 100


def test_bound_blocks_raise_the_error_of_a_failing_point():
    theta = np.array([0.2, 0.6, 0.2])
    _, message = scalar_error(lambda: ControlSpec(0.3, "minus").flip_probability(0.6))
    for call in (verify_bounds_block, efficiency_block):
        with pytest.raises(PhysicsError) as info:
            call(0.5, 1.0, 2.0, 0.1, 0.1, theta, 0.3, "minus")
        assert str(info.value) == message
        with pytest.raises(ValueError, match=r"delta and zeta must lie in \[0, 1\]"):
            call(0.5, 1.0, 2.0, np.array([0.1, 1.5]), 0.1, 0.2)
        with pytest.raises(ValueError, match=r"theta must lie in \[0, 1\]"):
            call(0.5, 1.0, 2.0, 0.1, 0.1, np.array([0.5, 1.5]))


def test_every_block_function_raises_the_first_failing_points_error():
    point = CycleParams(0.5, 1.0, 2.0, 0.1, 0.1)
    cases = [
        # point 0 breaks the cycle, point 1 the flip bound: point 0 decides
        ((0.5, 1.0, 2.0, np.array([1.5, 0.1, 0.1]), 0.1), np.array([0.2, 0.6, 0.2]), 0.3, "minus",
         lambda: CycleParams(0.5, 1.0, 2.0, 1.5, 0.1)),
        # the theta range is checked before the flip bound
        ((0.5, 1.0, 2.0, 0.1, 0.1), 1.5, 0.3, "minus",
         lambda: enumerate_paths(point, 1.5, ControlSpec(0.3, "minus"))),
        ((0.5, 1.0, 2.0, 0.1, 0.1), 0.2, 0.3, "sideways",
         lambda: ControlSpec(0.3, "sideways")),
    ]
    for cycle, theta, alpha, branch, scalar in cases:
        kind, message = scalar_error(scalar)
        calls = [
            lambda: enumerate_block(*cycle, theta, alpha, branch),
            lambda: closed_form_block(*cycle, theta, alpha, branch),
            lambda: efficiency_block(*cycle, theta, alpha, branch),
            lambda: verify_bounds_block(*cycle, theta, alpha, branch),
        ]
        for call in calls:
            assert scalar_error(call) == (kind, message)
    # 0-d blocks raise what the controlled distribution raises
    kind, message = scalar_error(lambda: enumerate_paths(point, 1.5, ControlSpec(0.3, "minus")))
    for call in (efficiency_block, verify_bounds_block):
        got = scalar_error(lambda: call(0.5, 1.0, 2.0, 0.1, 0.1, 1.5, 0.3, "minus"))
        assert got == (kind, message) == (InputError, "theta must lie in [0, 1]")


# The block layer: every function takes the same columns and checks them in
# one routine, in the order one point is checked.
BLOCK_FUNCTIONS = [enumerate_block, closed_form_block, efficiency_block, work_threshold_block,
                   verify_bounds_block, cf_derivative_check]
BLOCK_COLUMNS = [("beta", inspect.Parameter.empty), ("nu1", inspect.Parameter.empty),
                 ("nu2", inspect.Parameter.empty), ("delta", inspect.Parameter.empty),
                 ("zeta", inspect.Parameter.empty), ("theta", inspect.Parameter.empty),
                 ("alpha", None), ("branch", "minus")]

# One failing point per check, in the order they run, then theta above 1
# where the flip bound fails too: (columns, alpha, branch, error, message).
FAILING_POINTS = [
    ((math.nan, 1.0, 2.0, 0.1, 0.2, 0.3), None, "minus", InputError, "beta must be finite"),
    ((0.7, 1.0, math.inf, 0.1, 0.2, 0.3), 0.3, "minus", InputError, "nu2 must be finite"),
    ((0.7, 0.0, 2.0, 0.1, 0.2, 0.3), None, "minus", InputError,
     "gaps nu1, nu2 must be positive"),
    ((0.7, 1.0, 2.0, 0.1, -0.2, 0.3), None, "minus", InputError,
     "delta and zeta must lie in [0, 1]"),
    ((0.7, 1.0, 2.0, 0.1, 0.2, 0.3), 1.5, "minus", InputError, "alpha must lie in [0, 1]"),
    ((0.7, 1.0, 2.0, 0.1, 0.2, 0.3), 0.3, "sideways", InputError,
     "branch must be 'plus' or 'minus'"),
    ((0.7, 1.0, 2.0, 0.1, 0.2, 1.5), None, "minus", InputError, "theta must lie in [0, 1]"),
    ((0.7, 1.0, 2.0, 0.1, 0.2, math.nan), 0.3, "plus", InputError, "theta must lie in [0, 1]"),
    ((0.7, 1.0, 2.0, 0.1, 0.2, 0.9), 0.3, "minus", PhysicsError,
     f"minus branch: theta 0.9 exceeds 2 p_branch = {1.0 - math.sqrt(0.3 * 0.7)!r}, "
     "the flip probability would exceed 1"),
    ((0.7, 1.0, 2.0, 0.1, 0.2, 1.5), 0.3, "minus", InputError, "theta must lie in [0, 1]"),
]


@pytest.mark.parametrize("function", BLOCK_FUNCTIONS, ids=lambda f: f.__name__)
def test_block_functions_share_signature_and_errors(function):
    params = inspect.signature(function).parameters.values()
    assert [(p.name, p.default) for p in params] == BLOCK_COLUMNS
    for columns, alpha, branch, kind, message in FAILING_POINTS:
        # the single point's own error, as the scalar types raise it
        scalar = (kind, message)
        assert scalar_error(lambda: enumerate_paths(
            CycleParams(*columns[:5]), columns[5],
            None if alpha is None else ControlSpec(alpha, branch))) == scalar
        assert scalar_error(lambda: function(*columns, alpha, branch)) == scalar, columns


def test_closed_form_under_control_is_the_unital_one_at_the_flip_bitwise(rng):
    for branch in ("plus", "minus"):
        cycle, alpha = bound_points(rng, 2000, "cs", branch)
        flip = trajectory._controlled_flip(cycle[5], alpha, branch)
        got = closed_form_block(*cycle, alpha, branch)
        assert same_bits(list(got), list(closed_form_block(*cycle[:5], flip)))
        # and a point of it is the scalar control's flip probability's
        for i in range(0, 2000, 97):
            point = [float(c[i]) for c in cycle]
            ctrl = ControlSpec(float(alpha[i]), branch)
            one = closed_form_block(*point[:5], ctrl.flip_probability(point[5]))
            assert same_bits(list(one), [field[i] for field in got])


def test_cf_derivative_check_takes_one_point():
    one = cf_derivative_check(0.7, 1.0, 2.0, 0.1, 0.2, np.array([0.3]), np.array([[0.4]]))
    point = cf_derivative_check(0.7, 1.0, 2.0, 0.1, 0.2, 0.3, 0.4)
    assert all(same_bits(a, b) for a, b in zip(one, point))
    for theta in (np.array([0.2, 0.3]), np.empty(0)):
        with pytest.raises(InputError, match="^cf_derivative_check takes one point$"):
            cf_derivative_check(0.7, 1.0, 2.0, 0.1, 0.2, theta)


def test_flip_bound_holds_to_the_last_float(rng):
    """At theta = 2 p_branch = 1 +- c(alpha) the flip is 1 and the point
    passes; one float above, the flip exceeds 1 and every block raises the
    scalar's error.  On the plus branch 1 + c lies above 1 unless c = 0, so
    there the theta range fails first."""
    alphas = [0.0, 0.5, 1.0, *rng.random(200).tolist()]
    cycle = (0.7, 1.0, 2.0, 0.1, 0.2)
    for branch, sign in (("plus", 1.0), ("minus", -1.0)):
        for alpha in alphas:
            ctrl = ControlSpec(alpha, branch)
            edge = 1.0 + sign * ctrl.coherence
            beyond = math.nextafter(edge, math.inf)
            assert trajectory._controlled_flip(edge, alpha, branch) == 1.0
            assert trajectory._controlled_flip(beyond, alpha, branch) > 1.0
            error = scalar_error(lambda: ctrl.flip_probability(beyond))
            assert error[0] is (PhysicsError if beyond <= 1.0 else InputError)
            if edge <= 1.0:
                assert ctrl.flip_probability(edge) == 1.0
                enumerate_block(*cycle, np.array([0.2, edge]), alpha, branch)
            else:
                assert scalar_error(lambda: ctrl.flip_probability(edge))[0] is InputError
            assert scalar_error(
                lambda: enumerate_block(*cycle, np.array([0.2, beyond]), alpha, branch)) == error
    # every block function at one edge, alpha = 1/2 on the minus branch
    edge = 1.0 - ControlSpec(0.5).coherence
    error = scalar_error(lambda: ControlSpec(0.5).flip_probability(math.nextafter(edge, 2.0)))
    for function in BLOCK_FUNCTIONS:
        function(*cycle, edge, 0.5)
        assert scalar_error(lambda: function(*cycle, math.nextafter(edge, 2.0), 0.5)) == error


def test_bound_blocks_warn_nowhere():
    # zero heat, zero variance and cancelled forward/backward heat
    cycle = (0.7, 1.0, 2.0, np.array([0.5, 0.0, 0.3, 0.2]), np.array([0.5, 0.0, 0.7, 0.2]),
             np.array([0.3, 1.0, 0.3, 0.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for zeta in (cycle[3], cycle[4]):
            verify_bounds_block(*cycle[:4], zeta, cycle[5])
            efficiency_block(*cycle[:4], zeta, cycle[5])
        verify_bounds_block(*cycle, 0.0, "plus")


@pytest.mark.parametrize("mode, control", [("symmetric", ()), ("asymmetric", ()),
                                           ("cs", (0.3, "plus")), ("cs", (0.3, "minus"))],
                         ids=["symmetric", "asymmetric", "cs-plus", "cs-minus"])
def test_verify_bounds_block_checks_its_columns_once(mode, control, monkeypatch):
    from unital_otto import analysis, cumulants

    calls = []
    original = trajectory._checked_columns
    # each layer that calls the front door holds it under its own name
    for module in (trajectory, cumulants, analysis):
        monkeypatch.setattr(module, "_checked_columns",
                            lambda *a, **k: calls.append(1) or original(*a, **k))
    delta = np.linspace(0.0, 0.4, 5)
    zeta = delta if mode == "symmetric" else delta[::-1]
    verify_bounds_block(0.7, 1.0, 2.0, delta, zeta, 0.3, *control)
    assert len(calls) == 1


@pytest.mark.parametrize("argv", [
    ["sweep", "--delta", "0.1", "--zeta", "0.1"],
    ["sweep", "--delta", "0.1", "--zeta", "0.2"],
    ["sweep", "--delta", "0.1", "--zeta", "0.1", "--cs-alpha", "0.3"],
    ["classify", "--delta", "0.1", "--zeta", "0.1", "--axis2", "beta", "--start2", "0.5",
     "--stop2", "1", "--steps2", "25"],
], ids=["sweep-symmetric", "sweep-asymmetric", "sweep-cs", "classify"])
def test_grid_commands_check_each_block_once(argv, monkeypatch, capsys):
    from unital_otto import analysis, cumulants

    calls = []
    original = trajectory._checked_columns
    # each layer that calls the front door holds it under its own name
    for module in (trajectory, cumulants, analysis):
        monkeypatch.setattr(module, "_checked_columns",
                            lambda *a, **k: calls.append(1) or original(*a, **k))
    steps = "1000" if argv[0] == "sweep" else "40"
    axis = ["--axis", "nu2", "--start", "1", "--stop", "3", "--steps", steps]
    assert main([*argv, "--beta", "0.7", "--nu1", "1", "--theta", "0.3", *axis]) == 0
    capsys.readouterr()
    # 1000 points in blocks of 256
    assert len(calls) == 4


# --- the work threshold and the cumulant-ratio corridor --------------------

def corridor_points(rng, n, mode, branch):
    """:func:`bound_points` with theta = 1 at a further 60 points (0 in
    ``cs``, where 1 can pass the flip bound), and the block's control: none
    outside ``cs``."""
    cycle, alpha = bound_points(rng, n, mode, branch)
    cycle[5][280:340] = 0.0 if mode == "cs" else 1.0
    return cycle, () if alpha is None else (alpha, branch)


# The corridor flags of orders 2, 3 and 4 together at the 5000 points of
# ``corridor_points`` per mode: (below_eta_power, above_one, sign_mismatch,
# undefined).  They were set while the scalar rule that the ratio block
# replaced was still compared with it point by point on these points:
# ratio, sign_mismatch and undefined agreed bit for bit, and the corridor
# flags agreed apart from 69 below_eta_power flags that the scalar rule
# set on margins within their operands' rounding.
PINNED_CORRIDOR = {
    ("symmetric", "minus"): (10029, 9094, 2153, 90),
    ("asymmetric", "minus"): (9719, 9210, 2303, 90),
    ("cs", "plus"): (9881, 8969, 2605, 272),
    ("cs", "minus"): (9310, 9111, 1992, 269),
}


@pytest.mark.parametrize("mode, branch", MODES)
def test_threshold_and_ratio_blocks_keep_their_pinned_values(rng, mode, branch):
    cycle, control = corridor_points(rng, 5000, mode, branch)
    nu2_min = analysis.work_threshold_block(*cycle, *control)
    flip = cycle[5] if not control else trajectory._controlled_flip(cycle[5], *control)
    # inf where no gap works: theta = 0 or delta + zeta >= 1
    works = (flip > 0.0) & (cycle[3] + cycle[4] < 1.0)
    assert np.array_equal(np.isinf(nu2_min), ~works) and not np.isnan(nu2_min).any()
    assert (nu2_min[works] > 0.0).all()
    block = enumerate_block(*cycle, *control)
    ratios = [analysis.cumulant_ratio_block(block, order) for order in (2, 3, 4)]
    counts = tuple(sum(int(getattr(r, f).sum()) for r in ratios)
                   for f in ("below_eta_power", "above_one", "sign_mismatch", "undefined"))
    assert counts == PINNED_CORRIDOR[mode, branch]
    for r in ratios:
        # an undefined ratio flags nothing else
        flagged = r.below_eta_power | r.above_one | r.sign_mismatch
        assert np.array_equal(r.undefined, np.isnan(r.ratio)) and not (flagged & r.undefined).any()


@pytest.mark.parametrize("mode, branch", MODES)
def test_threshold_and_ratio_blocks_are_rows_of_the_block(rng, mode, branch):
    points, alphas = bound_points(rng, 400, mode, branch)
    # block lengths around numpy's SIMD widths and the command line's blocks
    for n in (1, 2, 3, 7, 8, 9, 16, 17, 257):
        pick = rng.choice(400, n, replace=False)
        cycle = [c[pick] for c in points]
        control = () if alphas is None else (alphas[pick], branch)
        nu2_min = analysis.work_threshold_block(*cycle, *control)
        block = enumerate_block(*cycle, *control)
        ratios = [analysis.cumulant_ratio_block(block, order) for order in (2, 3, 4)]
        for i in range(n):
            point = [float(c[i]) for c in cycle]
            one = () if alphas is None else (float(control[0][i]), branch)
            assert same_bits(analysis.work_threshold_block(*point, *one), nu2_min[i])
            order = 2 + i % 3
            got = analysis.cumulant_ratio_block(enumerate_block(*point, *one), order)
            assert all(np.shape(x) == () for x in got)
            assert same_bits(got, [x[i] for x in ratios[order - 2]]), (n, i, order)


def test_mixed_threshold_block_has_inf_where_heat_is_never_absorbed():
    delta = np.array([0.1, 0.5, 0.3, 0.7])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for control in ((), (0.3, "plus")):
            nu2_min = analysis.work_threshold_block(0.7, 1.0, 2.0, delta, delta, 0.2, *control)
            assert np.array_equal(np.isinf(nu2_min), delta >= 0.5)
            assert np.isfinite(nu2_min[[0, 2]]).all()


# --- the bound campaign's draws ---------------------------------------------


def scalar_campaign_draws(rng, count):
    """The campaign's samples drawn as the per-sample loop drew them, with
    ``uniform`` and ``choice``, grouped like ``cli._campaign_draws`` by draw
    code: the cycle's index, plus the branch's index in cs."""
    groups = {}
    for _ in range(count):
        beta = rng.uniform(-2.0, 2.0)
        if abs(beta) < 1e-9:
            continue
        nu1, nu2 = rng.uniform(1e-3, 3.0), rng.uniform(1e-3, 3.0)
        delta, zeta, theta = rng.random(), rng.random(), rng.random()
        mode = str(rng.choice(("symmetric", "asymmetric", "cs")))
        branch = alpha = None
        if mode == "symmetric":
            zeta = delta
        elif mode == "cs":
            theta *= 0.5
            alpha = rng.random()
            branch = str(rng.choice(("plus", "minus")))
        code = ("symmetric", "asymmetric", "cs").index(mode) + (branch == "minus")
        groups.setdefault(code, []).append((beta, nu1, nu2, delta, zeta, theta, alpha))
    return groups


def campaign_rows(groups):
    """``cli._campaign_draws``'s columns as the scalar draws' tuples."""
    return {
        key: [row + (None,) * (7 - len(row)) for row in zip(*columns)]
        for key, columns in groups.items()
    }


def assert_replays_the_scalar_stream(blocks, reference, draws):
    """The campaign's ``draws``, block after block, are the samples that
    numpy's Generator ``reference`` draws one call at a time, and both
    streams end in step; returns the samples."""
    want = scalar_campaign_draws(reference, sum(blocks))
    got = {}
    for count in blocks:
        for key, points in campaign_rows(_campaign_draws(draws, count)).items():
            got.setdefault(key, []).extend(points)
    assert got == want
    state = reference.bit_generator.state
    assert (draws.words.state, draws.buffered, draws.half) == (
        state["state"]["state"], state["has_uint32"], state["uinteger"])
    assert draws.random() == reference.random()
    return got


@pytest.mark.parametrize("seed", [1, 2, 101, 12345])
def test_campaign_draws_replay_the_scalar_stream(seed):
    blocks = [256] * 11 + [184]  # block after block, as the campaign draws
    reference, draws = np.random.default_rng(seed), _Draws(PCG64.from_seed(seed))
    got = assert_replays_the_scalar_stream(blocks, reference, draws)
    assert sorted(got) == [0, 1, 2, 3]


# PCG64 steps its 128-bit state s -> s * M + inc, then outputs the XSL-RR
# word rotr(hi ^ lo, s >> 122); a state with its top six bits clear outputs
# hi ^ lo.  Stepping back with M's inverse puts a chosen word anywhere.
PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def generators_with_word(word, position):
    """numpy's Generator and the campaign's draws, on one PCG64 state whose
    raw word number ``position`` (from 0) is ``word``."""
    inc = np.random.PCG64(0).state["state"]["inc"]
    high = 0x0123456789ABCDEF
    state = (high << 64) | (high ^ word)
    inverse = pow(PCG64_MULTIPLIER, -1, 2**128)
    for _ in range(position + 1):
        state = (state - inc) * inverse % 2**128
    bitgen = np.random.PCG64()
    bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                    "has_uint32": 0, "uinteger": 0}
    return np.random.Generator(bitgen), _Draws(PCG64(state, inc))


def test_generators_with_word_put_the_word_in_place():
    live, draws = generators_with_word(0xDEADBEEF00000000, 6)
    assert live.bit_generator.random_raw(8)[6] == 0xDEADBEEF00000000
    assert draws.words.peek(8)[6] == 0xDEADBEEF00000000


def test_campaign_draws_redraw_a_zero_low_half():
    # the first sample's mode reads the low half of word 6: 0, so Lemire's
    # method redraws, from the high half of the same word
    high = 0xDEADBEEF
    live, draws = generators_with_word(high << 32, 6)
    live.random(6)
    for _ in range(6):
        draws.random()
    assert live.integers(0, 3) == draws.integers(3) == (high * 3) >> 32 == 2
    assert_replays_the_scalar_stream([40], *generators_with_word(high << 32, 6))


def test_campaign_draws_redraw_a_zero_buffered_half():
    # word 6 = 1: the first sample is symmetric ((1 * 3) >> 32 = 0) and
    # keeps the high half, 0, which the second sample's mode reads after
    # words 7-12 and redraws from the low half of word 13
    live, _ = generators_with_word(1, 6)
    word13 = int(generators_with_word(1, 6)[0].bit_generator.random_raw(14)[13])
    live.random(6)
    assert live.integers(0, 3) == 0
    live.random(6)
    assert live.integers(0, 3) == ((word13 & 0xFFFFFFFF) * 3) >> 32
    assert live.bit_generator.state["uinteger"] == word13 >> 32
    assert_replays_the_scalar_stream([40], *generators_with_word(1, 6))


def test_buffered_half_crosses_a_block_boundary():
    _, draws = generators_with_word(1, 6)
    _campaign_draws(draws, 1)
    assert (draws.buffered, draws.half) == (True, 0)  # word 6's high half
    assert_replays_the_scalar_stream([1, 1, 5, 1, 64, 3], *generators_with_word(1, 6))


# beta = -2 + 4 (w >> 11) 2**-53 is within 1e-9 of 0 for w >> 11 = 2**52 + k,
# |k| <= 2251799; the sample is skipped, drawing nothing more
@pytest.mark.parametrize("k, kept", [(0, False), (2251799, False), (-2251799, False),
                                     (2251800, True), (-2251800, True)])
def test_campaign_draws_skip_a_beta_near_zero(k, kept):
    word = ((2**52 + k) << 11) | 0x5A5
    live, _ = generators_with_word(word, 0)
    beta = -2.0 + 4.0 * live.random()
    assert (abs(beta) < 1e-9) is not kept
    assert_replays_the_scalar_stream([30], *generators_with_word(word, 0))
    groups = _campaign_draws(generators_with_word(word, 0)[1], 1)
    assert sum(len(columns[0]) for columns in groups.values()) == int(kept)


def next_sample(word, position, samples):
    """After ``samples`` campaign samples of the stream with ``word`` at
    ``position``: whether a 32-bit half is buffered, the next sample's beta,
    and the 32-bit half its mode would read."""
    live, _ = generators_with_word(word, position)
    scalar_campaign_draws(live, samples)
    buffered = live.bit_generator.state["has_uint32"]
    beta = -2.0 + 4.0 * live.random()
    live.random(5)
    state = live.bit_generator.state
    if state["has_uint32"]:
        return buffered, beta, state["uinteger"]
    return buffered, beta, int(live.bit_generator.random_raw()) & 0xFFFFFFFF


def test_campaign_draws_skip_a_beta_with_a_buffered_half():
    # the first sample is not cs: it reads words 0-6 and keeps the high half
    # of word 6, and the second starts at word 7 with beta = 0; skipped, it
    # leaves that half to the third sample's mode
    word = 2**63 | 1  # w >> 11 = 2**52
    assert next_sample(word, 7, 1)[:2] == (1, 0.0)
    assert_replays_the_scalar_stream([40], *generators_with_word(word, 7))


# Crafted so that the last sample of the first decode chunk starts at word
# 3563 with beta = 0 (a skip), or reads the zero low half of word 3545 as
# its mode (a redraw, from the high half 0x1C).
@pytest.mark.parametrize("word, position, zero", [(2**63 | 0xA, 3563, "beta"),
                                                  (0x1C << 32, 3545, "mode half")],
                         ids=["skip", "redraw"])
def test_campaign_draws_on_the_last_sample_of_a_decode_chunk(word, position, zero):
    last = _DECODE_SAMPLES - 1
    _, beta, half = next_sample(word, position, last)
    assert (beta if zero == "beta" else half) == 0
    for blocks in ([last + 1, 40], [last + 41]):
        assert_replays_the_scalar_stream(blocks, *generators_with_word(word, position))


@pytest.mark.parametrize("samples, seed", [(600, 3), (257, 12345)])
def test_campaign_tallies_are_those_of_the_scalar_rows(capsys, samples, seed):
    tallies = {}
    for code, points in scalar_campaign_draws(np.random.default_rng(seed), samples).items():
        for *cycle, theta, alpha in points:
            for r in verify_bounds_block(*cycle, theta, alpha, _GROUPS[code] or "minus"):
                slot = tallies.setdefault(r.name, [0, 0, 0])
                slot[0 if r.applicable and r.satisfied else 1 if r.applicable else 2] += 1
    assert main(["verify-bounds", "--samples", str(samples), "--seed", str(seed)]) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert rows == [f"{name},{sat},{vio},{inap}" for name, (sat, vio, inap) in sorted(tallies.items())]


# The whole stdout of four campaigns, captured from the sample-at-a-time
# draw loop that the raw-word decoder replaced: the benchmark's seed-1 input,
# one sample, 4097 samples (one past two 2048-sample blocks) and a long run.
# The reference model checks only the per-mode sums, so the
# satisfied/inapplicable split is pinned here.
PINNED_CAMPAIGNS = {
    (15000, 376577454): """\
# command=verify-bounds samples=15000 seed=376577454
bound_name,satisfied,violated,inapplicable
cs_eta_branch_order,1255,0,3740
cs_eta_le_otto,1255,0,3740
cs_qt_nonpositive,2507,0,2488
equal_gap_work_nonpositive,0,0,10005
eta_le_otto,2494,0,7511
eta_sq_le_ratio,1776,0,8229
otto_sq_le_ratio,706,0,4246
qt_nonpositive,5043,0,4962
ratio_le_one,1776,0,8229
""",
    (1, 1): """\
# command=verify-bounds samples=1 seed=1
bound_name,satisfied,violated,inapplicable
equal_gap_work_nonpositive,0,0,1
eta_le_otto,0,0,1
eta_sq_le_ratio,0,0,1
otto_sq_le_ratio,0,0,1
qt_nonpositive,1,0,0
ratio_le_one,0,0,1
""",
    (4097, 2): """\
# command=verify-bounds samples=4097 seed=2
bound_name,satisfied,violated,inapplicable
cs_eta_branch_order,322,0,1001
cs_eta_le_otto,322,0,1001
cs_qt_nonpositive,679,0,644
equal_gap_work_nonpositive,0,0,2774
eta_le_otto,700,0,2074
eta_sq_le_ratio,520,0,2254
otto_sq_le_ratio,202,0,1190
qt_nonpositive,1356,0,1418
ratio_le_one,520,0,2254
""",
    (40000, 12345): """\
# command=verify-bounds samples=40000 seed=12345
bound_name,satisfied,violated,inapplicable
cs_eta_branch_order,3287,0,9822
cs_eta_le_otto,3287,0,9822
cs_qt_nonpositive,6532,0,6577
equal_gap_work_nonpositive,0,0,26891
eta_le_otto,6756,0,20135
eta_sq_le_ratio,4853,0,22038
otto_sq_le_ratio,1899,0,11543
qt_nonpositive,13472,0,13419
ratio_le_one,4853,0,22038
""",
}


@pytest.mark.parametrize("samples, seed", sorted(PINNED_CAMPAIGNS))
def test_campaign_csv_is_pinned(capsys, samples, seed):
    assert main(["verify-bounds", "--samples", str(samples), "--seed", str(seed)]) == 0
    assert capsys.readouterr().out == PINNED_CAMPAIGNS[samples, seed]
