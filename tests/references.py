"""Reference routes that the tests compare the package against.

Each one computes, by a second argument, something the package computes
by its own:

* :func:`apply_channel` and :func:`superpose_apply` propagate the density
  matrix through a channel and through its coherently superposed version.
  They are the density-matrix argument for the package's reduction of a
  controlled cycle to the plain channel at theta / (2 p_branch).
* :func:`regime_sign_rule` is the operating-mode sign rule written as
  plain-Python comparisons, against which the array classifier
  ``analysis.classify_regime_array`` is checked.
"""

import numpy as np

from unital_otto import ControlSpec, DensityMatrix, MeasurementChannel, PhysicsError, Regime


def apply_channel(channel, rho: DensityMatrix) -> DensityMatrix:
    """Apply a channel, sum_j K_j rho K_j^dag, preserving the gap label."""
    out = sum(k @ rho.mat @ k.conj().T for k in channel.kraus_ops())
    return DensityMatrix(out, gap=rho.gap)


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


def regime_sign_rule(w_mean, qm_mean, qt_mean, beta, tol=1e-12) -> Regime:
    """Operating mode of one point from the signs of its three mean energy
    flows; any flow or beta within ``tol`` of zero, or an inconsistent sign
    pattern, is undetermined."""
    if abs(beta) <= tol or beta == 0.0:
        return Regime.UNDETERMINED
    if abs(w_mean) <= tol or abs(qm_mean) <= tol or abs(qt_mean) <= tol:
        return Regime.UNDETERMINED
    signs = (beta > 0.0, w_mean > 0.0, qm_mean > 0.0, qt_mean > 0.0)
    return _REGIMES.get(signs, Regime.UNDETERMINED)
