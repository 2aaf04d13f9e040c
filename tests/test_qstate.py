"""States, channels and coherent control."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unital_otto import (
    ControlSpec,
    MeasurementChannel,
    PhysicsError,
)

from unital_otto.cli import _resolve_theta

from conftest import bloch_states, finite, probs
from references import (
    SIGMA,
    DensityMatrix,
    apply_channel,
    flip_h,
    flip_theta,
    hamiltonian,
    measurement_kraus,
    pauli_kraus,
    superpose_apply,
    thermal_state,
    transition_matrix,
)


def test_thermal_state_infinite_temperature():
    rho = thermal_state(0.0, 1.0)
    assert np.allclose(rho, np.eye(2) / 2, atol=1e-15)


def test_thermal_state_zero_temperature_limit():
    rho = thermal_state(1e3, 1.0)
    assert np.allclose(rho, np.diag([0.0, 1.0]), atol=1e-15)
    inverted = thermal_state(-1e3, 1.0)
    assert np.allclose(inverted, np.diag([1.0, 0.0]), atol=1e-15)


def test_thermal_state_gibbs_ratio():
    rho = thermal_state(0.7, 1.0)
    expected = math.exp(-0.7) / (math.exp(0.7) + math.exp(-0.7))
    assert abs(rho[0, 0] - expected) < 1e-15
    assert abs(rho[0, 0] - 0.197816) < 1e-6


def test_thermal_state_is_a_valid_state_unchanged_by_validation():
    # |beta nu| up to 1e4 and either sign of beta: the validator's
    # symmetrising and renormalising change no bit of a Gibbs state
    gen = np.random.default_rng(29)
    betas = gen.choice([-1.0, 1.0], 1000) * 10.0 ** gen.uniform(-3.0, 2.0, 1000)
    nus = 10.0 ** gen.uniform(-3.0, 2.0, 1000)
    betas[:4], nus[:4] = [350.0, -350.0, 0.0, -1e3], 1.0
    products = np.abs(betas * nus)
    assert (products >= 350.0).sum() >= 40 and (betas < 0.0).sum() >= 400
    for beta, nu in zip(betas.tolist(), nus.tolist()):
        rho = thermal_state(beta, nu)
        assert np.array_equal(DensityMatrix(rho, gap=nu).mat, rho)
        assert rho[0, 1] == rho[1, 0] == 0.0 and rho[0, 0] + rho[1, 1] == 1.0


def test_thermal_state_rejects_bad_input():
    with pytest.raises(ValueError):
        thermal_state(math.nan, 1.0)
    with pytest.raises(ValueError):
        thermal_state(1.0, -2.0)
    with pytest.raises(ValueError):
        thermal_state(math.inf, 1.0)


def test_density_matrix_validation():
    with pytest.raises(PhysicsError):
        DensityMatrix(np.array([[0.9, 0.0], [0.0, 0.9]]))  # trace drift
    with pytest.raises(PhysicsError):
        DensityMatrix(np.array([[1.2, 0.0], [0.0, -0.2]]))  # negative eigenvalue
    with pytest.raises(PhysicsError):
        DensityMatrix(np.array([[0.5, 0.4], [0.1, 0.5]]))  # not hermitian


def test_apply_pauli_population_mixing():
    # diagonal input diag(1-a, a): excited population moves to
    # 1 - (a + (1-2a) q) with q = p1 + p2
    a, q = 0.8, 0.3
    kraus = pauli_kraus(0.5, 0.2, 0.1, 0.2)
    assert abs(flip_theta(kraus) - q) < 1e-15
    out = apply_channel(kraus, DensityMatrix(np.diag([1 - a, a])))
    assert abs(out.populations[0] - (1 - (a + (1 - 2 * a) * q))) < 1e-14


def test_apply_channel_fixed_point():
    maximally_mixed = DensityMatrix(np.eye(2) / 2)
    for kraus in (
        pauli_kraus(0.1, 0.2, 0.3, 0.4),
        measurement_kraus(MeasurementChannel(0.8, 1.3)),
        pauli_kraus(0.0, 1.0, 0.0, 0.0),
    ):
        out = apply_channel(kraus, maximally_mixed)
        assert np.allclose(out.mat, maximally_mixed.mat, atol=1e-14)


def test_apply_channel_dephases_and_flips():
    # p1 = p2 = 1/2 kills the off-diagonals (factor p1 - p2) and swaps
    # the populations
    vx, vy, vz = 0.3, 0.1, 0.4
    rho = DensityMatrix(
        0.5 * np.array([[1 + vz, vx - 1j * vy], [vx + 1j * vy, 1 - vz]])
    )
    out = apply_channel(pauli_kraus(0.0, 0.5, 0.5, 0.0), rho)
    assert abs(out.mat[0, 1]) < 1e-15
    # v_z = rho_00 - rho_11
    assert abs((out.mat[0, 0] - out.mat[1, 1]).real + vz) < 1e-14


def test_channel_projects_the_bloch_vector_onto_its_axis():
    # sum_j pi_j rho pi_j has Bloch vector (n.r) n, n the axis
    gen = np.random.default_rng(5)
    for _ in range(50):
        ch = MeasurementChannel(gen.uniform(0.0, math.pi), gen.uniform(-4.0, 4.0))
        r = gen.uniform(-1.0, 1.0, 3) / math.sqrt(3.0)
        rho = DensityMatrix(0.5 * (SIGMA[0] + sum(x * s for x, s in zip(r, SIGMA[1:]))))
        out = apply_channel(measurement_kraus(ch), rho).mat
        got = [np.trace(out @ s).real for s in SIGMA[1:]]
        n = np.array(ch.axis)
        assert np.allclose(got, np.dot(n, r) * n, atol=1e-15)
        assert np.dot(n, n) == pytest.approx(1.0, abs=1e-15)


def test_theta_values():
    assert flip_theta(pauli_kraus(0.4, 0.3, 0.2, 0.1)) == pytest.approx(0.5, abs=1e-15)
    assert MeasurementChannel(math.pi / 2).theta == pytest.approx(0.5, abs=1e-15)
    ch0 = MeasurementChannel(0.0)
    assert ch0.theta == 0.0
    # alpha_m = 0 projectors commute with the Hamiltonian
    h2 = hamiltonian(2.0)
    for k in measurement_kraus(ch0):
        assert np.allclose(k @ h2 - h2 @ k, 0.0, atol=1e-15)


ANGLES = (1e-9, 1e-5, math.pi / 2, math.pi - 1e-5)


@pytest.mark.parametrize("alpha_m", ANGLES)
def test_measurement_theta_is_exact_at_every_angle(alpha_m):
    """theta = sin^2(alpha_m) / 2 within 2 ulp, from the channel and from the
    command line's angle, alone and as a column."""
    with mpmath.workdps(60):
        exact = float(mpmath.sin(mpmath.mpf(alpha_m)) ** 2 / 2)
    column = _resolve_theta({"alpha_m": np.array(ANGLES)})[ANGLES.index(alpha_m)]
    for theta in (MeasurementChannel(alpha_m).theta, _resolve_theta({"alpha_m": alpha_m}),
                  column):
        assert abs(theta - exact) <= 2.0 * math.ulp(exact), (theta, exact)


def test_general_channel_from_pauli_kraus():
    # a Pauli channel is unital, and flips with probability p1 + p2
    kraus = pauli_kraus(0.4, 0.3, 0.2, 0.1)
    assert abs(flip_h(kraus) - 1.0) < 1e-13
    assert abs(flip_theta(kraus) - 0.5) < 1e-13


def test_transition_matrix_holds_flip_probabilities():
    gamma = 0.3
    kraus = [np.diag([1.0, math.sqrt(1 - gamma)]), np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]])]
    t = transition_matrix(kraus)
    assert np.allclose(t, [[1.0, gamma], [0.0, 1.0 - gamma]], atol=1e-15)
    assert np.allclose(t.sum(axis=0), 1.0, atol=1e-15)
    assert t[1, 0] == pytest.approx(flip_theta(kraus), abs=1e-15)
    assert t[1].sum() == pytest.approx(flip_h(kraus), abs=1e-15)


def test_superpose_alpha_zero_reduces_to_plain_channel():
    ch = MeasurementChannel(1.1, 0.4)
    rho = DensityMatrix(thermal_state(0.6, 2.0), gap=2.0)
    for branch in ("plus", "minus"):
        out, p = superpose_apply(ch, rho, ControlSpec(0.0, branch))
        assert abs(p - 0.5) < 1e-15
        assert np.allclose(out.mat, apply_channel(measurement_kraus(ch), rho).mat, atol=1e-12)


def test_superpose_half_alpha_branch_probabilities():
    ch = MeasurementChannel(0.9)
    rho = DensityMatrix(np.diag([0.7, 0.3]), gap=2.0)
    out_minus, p_minus = superpose_apply(ch, rho, ControlSpec(0.5, "minus"))
    assert abs(p_minus - 0.25) < 1e-15
    out_plus, p_plus = superpose_apply(ch, rho, ControlSpec(0.5, "plus"))
    assert abs(p_plus - 0.75) < 1e-15
    # state proportional to sum_j pi_j rho pi_j -+ rho / 2
    direct = sum(k @ rho.mat @ k.conj().T for k in measurement_kraus(ch))
    expected = (direct - 0.5 * rho.mat) / (2 * 0.25)
    assert np.allclose(out_minus.mat, expected, atol=1e-14)
    expected = (direct + 0.5 * rho.mat) / (2 * 0.75)
    assert np.allclose(out_plus.mat, expected, atol=1e-14)


def test_superposed_populations_follow_flip_matrix_at_flip_probability():
    # the density-matrix definition of ControlSpec.flip_probability: on a
    # thermal state the kept branch moves populations like a plain flip
    # channel with theta / (2 p_branch)
    gen = np.random.default_rng(13)
    for _ in range(2000):
        ch = MeasurementChannel(gen.uniform(0.0, math.pi), gen.uniform(-math.pi, math.pi))
        nu = gen.uniform(0.01, 3.0)
        rho = DensityMatrix(thermal_state(gen.uniform(-3.0, 3.0), nu), gap=nu)
        ctrl = ControlSpec(gen.random(), "plus" if gen.random() < 0.5 else "minus")
        out, _ = superpose_apply(ch, rho, ctrl)
        flip = ctrl.flip_probability(ch.theta)
        excited, ground = rho.populations
        expected = ((1.0 - flip) * excited + flip * ground, flip * excited + (1.0 - flip) * ground)
        assert max(abs(a - b) for a, b in zip(out.populations, expected)) < 1e-14


@given(p1=probs, p2=probs, p3=probs)
def test_pauli_unitality(p1, p2, p3):
    total = p1 + p2 + p3
    if total > 1.0:
        scale = total * (1.0 + 1e-12)
        p1, p2, p3 = p1 / scale, p2 / scale, p3 / scale
    kraus = pauli_kraus(max(0.0, 1.0 - p1 - p2 - p3), p1, p2, p3)
    out = apply_channel(kraus, DensityMatrix(np.eye(2) / 2))
    assert np.allclose(out.mat, np.eye(2) / 2, atol=1e-14)


@given(alpha_m=finite(0.0, math.pi), chi=finite(0.0, 2 * math.pi))
def test_measurement_channel_theta_capped(alpha_m, chi):
    ch = MeasurementChannel(alpha_m, chi)
    assert -1e-15 <= ch.theta <= 0.5 + 1e-12
    k1, k2 = measurement_kraus(ch)
    assert np.allclose(k1 + k2, np.eye(2), atol=1e-12)
    assert np.allclose(k1 @ k1, k1, atol=1e-12)
    assert np.allclose(k2 @ k2, k2, atol=1e-12)


@given(rho=bloch_states(), alpha_m=finite(0.0, math.pi), alpha=probs)
@settings(max_examples=200)
def test_branch_probabilities_sum_to_one(rho, alpha_m, alpha):
    ch = MeasurementChannel(alpha_m)
    _, p_plus = superpose_apply(ch, rho, ControlSpec(alpha, "plus"))
    _, p_minus = superpose_apply(ch, rho, ControlSpec(alpha, "minus"))
    assert abs(p_plus + p_minus - 1.0) < 1e-14
    assert 0.25 - 1e-12 <= p_plus <= 0.75 + 1e-12


@given(rho=bloch_states(), alpha_m=finite(0.0, math.pi))
@settings(max_examples=100)
def test_superpose_extremes_match_plain_application(rho, alpha_m):
    ch = MeasurementChannel(alpha_m)
    plain = apply_channel(measurement_kraus(ch), rho)
    for alpha in (0.0, 1.0):
        out, p = superpose_apply(ch, rho, ControlSpec(alpha, "minus"))
        assert abs(p - 0.5) < 1e-14
        assert np.max(np.abs(out.mat - plain.mat)) < 1e-12


@given(
    weights=st.lists(finite(0.01, 1.0), min_size=2, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=100)
def test_unital_kraus_sets_have_unit_h(weights, seed):
    # random mixtures of random unitaries are exactly unital
    gen = np.random.default_rng(seed)
    weights = np.array(weights) / sum(weights)
    kraus = []
    for w in weights:
        z = gen.normal(size=(2, 2)) + 1j * gen.normal(size=(2, 2))
        q, _ = np.linalg.qr(z)
        kraus.append(math.sqrt(w) * q)
    assert abs(flip_h(kraus) - 1.0) < 1e-12


def test_superpose_branch_mismatch_is_physics_error(monkeypatch):
    ch = MeasurementChannel(1.0, 0.0)
    rho = DensityMatrix(thermal_state(0.7, 1.0))
    monkeypatch.setattr(ControlSpec, "branch_probability", property(lambda self: 0.9))
    with pytest.raises(PhysicsError, match="branch probability"):
        superpose_apply(ch, rho, ControlSpec(0.3, "minus"))
