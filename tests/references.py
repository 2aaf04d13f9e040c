"""Reference routes that the tests compare the package against.

Each one computes, by a second argument, something the package computes
by its own:

* :func:`apply_channel` and :func:`superpose_apply` propagate the density
  matrix through a channel and through its coherently superposed version.
  They are the density-matrix argument for the package's reduction of a
  controlled cycle to the plain channel at theta / (2 p_branch).
* :func:`pauli_kraus`, :func:`transition_matrix`, :func:`flip_theta`,
  :func:`flip_h` and :func:`path_table_cf` describe any qubit channel by a
  Kraus set, as plain functions.  The package sees a channel only through
  its 2x2 population transition matrix; these build that matrix from the
  Kraus operators and take the discrete transform of the package's path
  table at it, to be checked against the paper's eight path groups.
* :func:`regime_sign_rule` is the operating-mode sign rule written as
  plain-Python comparisons, against which the array classifier
  ``analysis.classify_regime_array`` is checked.
"""

import math

import numpy as np

from unital_otto import ControlSpec, DensityMatrix, MeasurementChannel, PhysicsError, Regime
from unital_otto.trajectory import _evaluate

# Pauli matrices in the package's storage basis, |+> (excited) first.
SIGMA = (
    np.eye(2, dtype=complex),
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


def apply_channel(kraus, rho: DensityMatrix) -> DensityMatrix:
    """Apply the channel of a Kraus set, sum_j K_j rho K_j^dag, preserving
    the gap label."""
    out = sum(k @ rho.mat @ k.conj().T for k in kraus)
    return DensityMatrix(out, gap=rho.gap)


def pauli_kraus(p0, p1, p2, p3) -> list[np.ndarray]:
    """Kraus operators sqrt(p_i) sigma_i of the Pauli channel with weights
    p0..p3 (the generic unital qubit channel); zero weights are dropped."""
    return [math.sqrt(p) * s for p, s in zip((p0, p1, p2, p3), SIGMA) if p > 0.0]


def transition_matrix(kraus) -> np.ndarray:
    """T[k, m] = sum_j |<k| K_j |m>|^2, the probability of m -> k, in the
    storage basis (0 excited, 1 ground); each column sums to 1."""
    return sum(np.abs(k) ** 2 for k in kraus)


def flip_theta(kraus) -> float:
    """sum_j |<-| K_j |+>|^2, the excited-to-ground flip probability."""
    return float(sum(abs(k[1, 0]) ** 2 for k in kraus))


def flip_h(kraus) -> float:
    """sum_j <-| K_j K_j^dag |->; equals 1 exactly for unital channels."""
    return float(sum((k @ k.conj().T)[1, 1].real for k in kraus))


def path_table_cf(params, matrix, gamma_w, gamma_m) -> complex:
    """sum_k p_k e^{i gw W_k + i gm Q_M,k} over the package's path table
    (``trajectory._evaluate``) at one cycle point, for a channel given by its
    transition matrix in the storage basis.  The table counts the ground
    state first, so both indices of ``matrix`` are reversed."""
    channel = np.asarray(matrix, dtype=float)[None, ::-1, ::-1]
    block = _evaluate(*(np.array([x]) for x in params), channel)
    phase = np.exp(1j * (gamma_w * block.w[0] + gamma_m * block.q_m[0]))
    return complex(np.sum(block.prob[0] * phase))


def superpose_apply(
    channel: MeasurementChannel, rho: DensityMatrix, ctrl: ControlSpec
) -> tuple[DensityMatrix, float]:
    """Apply a measurement channel on both arms of a superposed control.

    Returns the normalised post-selected state

        (1 / 2 p_branch) (sum_j pi_j rho pi_j +- sqrt(alpha(1-alpha)) rho)

    together with the branch probability.  The branch probability is
    evaluated from the interference trace rather than assumed; for a
    projector pair summing to the identity the two coincide, and
    :class:`PhysicsError` is raised if they do not.
    """
    if not isinstance(channel, MeasurementChannel):
        raise TypeError("coherent superposition is defined for the measurement channel")
    kraus = channel.kraus_ops()
    n_ops = len(kraus)
    direct = sum(k @ rho.mat @ k.conj().T for k in kraus)
    ksum = sum(kraus)
    cross = ksum @ rho.mat @ ksum.conj().T
    coh = ctrl.coherence
    p_branch = 0.5 + ctrl.sign * coh * float(np.trace(cross).real) / n_ops
    if not abs(p_branch - ctrl.branch_probability) < 1e-12:
        raise PhysicsError(
            f"interference trace gives branch probability {p_branch!r}, "
            f"not {ctrl.branch_probability!r}"
        )
    numer = 0.5 * direct + ctrl.sign * (coh / n_ops) * cross
    eigs = np.linalg.eigvalsh(0.5 * (numer + numer.conj().T))
    if eigs[0] < -1e-10 * max(1.0, p_branch):
        raise PhysicsError(
            f"superposed branch produced negative weight {eigs[0]:.3g}"
        )
    return DensityMatrix(numer / p_branch, gap=rho.gap), p_branch


# Keyed by (beta > 0, <W> > 0, <Q_M> > 0, <Q_T> > 0): a positive-temperature
# bath must not feed heat in (Q_T <= 0), a negative-temperature one must
# (Q_T > 0).  Patterns not listed are undetermined.
_REGIMES = {
    (True, True, True, False): Regime.ENGINE,
    (True, False, True, False): Regime.ACCELERATOR,
    (True, False, False, False): Regime.HEATER,
    (False, True, False, True): Regime.ENGINE,
    (False, False, False, True): Regime.ACCELERATOR,
    (False, True, True, True): Regime.ENGINE_PRIME,
}


def regime_sign_rule(w_mean, qm_mean, qt_mean, beta) -> Regime:
    """Operating mode of one point from the signs of its three mean energy
    flows; any flow or beta within 1e-12 of zero, or an inconsistent sign
    pattern, is undetermined."""
    tol = 1e-12
    if abs(beta) <= tol or beta == 0.0:
        return Regime.UNDETERMINED
    if abs(w_mean) <= tol or abs(qm_mean) <= tol or abs(qt_mean) <= tol:
        return Regime.UNDETERMINED
    signs = (beta > 0.0, w_mean > 0.0, qm_mean > 0.0, qt_mean > 0.0)
    return _REGIMES.get(signs, Regime.UNDETERMINED)
