"""Qubit states and channels for the unital Otto cycle.

Everything lives in a declared energy eigenbasis: index 0 is the excited
state |+> (energy +nu), index 1 the ground state |-> (energy -nu).  States
are immutable 2x2 density matrices tagged with the gap nu of the
Hamiltonian they are expressed in.  Channels come in three flavours:

* :class:`PauliChannel` -- a probabilistic mixture of the four Pauli
  unitaries; the generic unital qubit channel.
* :class:`MeasurementChannel` -- the rank-1 projective (measurement)
  channel built from two orthogonal projectors; its flip probability
  theta never exceeds 1/2.
* :class:`GeneralQubitChannel` -- an arbitrary Kraus set, not
  necessarily unital.

:class:`ControlSpec` prepares a control qubit that sends the state
through the channel on both arms of a superposition and post-selects the
control in the Fourier basis.  On the monitored populations the kept
branch acts as the plain channel at the flip probability
theta / (2 p_branch) (:meth:`ControlSpec.flip_probability`), so every
statistic of a controlled cycle is computed through that one number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PhysicsError",
    "DensityMatrix",
    "PauliChannel",
    "MeasurementChannel",
    "GeneralQubitChannel",
    "ControlSpec",
    "hamiltonian",
    "thermal_state",
]

# Pauli matrices in the energy eigenbasis, |+> first.
SIGMA = (
    np.eye(2, dtype=complex),
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)

_TRACE_DRIFT_TOL = 1e-10
_EIGVAL_TOL = 1e-12


class PhysicsError(ValueError):
    """A physically inconsistent quantity was produced or requested."""


def _as_matrix(mat) -> np.ndarray:
    out = np.asarray(mat, dtype=complex)
    if out.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {out.shape}")
    if not np.all(np.isfinite(out.view(float))):
        raise ValueError("matrix entries must be finite")
    return out


@dataclass(frozen=True)
class DensityMatrix:
    """A valid qubit state in the energy eigenbasis of a gap-``nu`` Hamiltonian.

    The constructor symmetrises (rho + rho^dag)/2 and renormalises the
    trace as long as the drift stays below 1e-10; larger drift or
    eigenvalues outside [-1e-12, 1 + 1e-12] raise :class:`PhysicsError`
    instead of being silently repaired.
    """

    mat: np.ndarray
    gap: float = 1.0

    def __post_init__(self):
        mat = _as_matrix(self.mat)
        if not math.isfinite(self.gap):
            raise ValueError("gap label must be finite")
        herm_drift = np.max(np.abs(mat - mat.conj().T))
        trace_drift = abs(mat.trace() - 1.0)
        if herm_drift > _TRACE_DRIFT_TOL or trace_drift > _TRACE_DRIFT_TOL:
            raise PhysicsError(
                f"not a density matrix: hermiticity drift {herm_drift:.3g}, "
                f"trace drift {trace_drift:.3g}"
            )
        mat = 0.5 * (mat + mat.conj().T)
        mat = mat / mat.trace().real
        eigs = np.linalg.eigvalsh(mat)
        if eigs[0] < -_EIGVAL_TOL or eigs[-1] > 1.0 + _EIGVAL_TOL:
            raise PhysicsError(f"eigenvalues {eigs} outside [0, 1]")
        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)

    @property
    def populations(self) -> tuple[float, float]:
        """(excited, ground) diagonal occupations."""
        return (self.mat[0, 0].real, self.mat[1, 1].real)


def hamiltonian(nu: float) -> np.ndarray:
    """H = nu (|+><+| - |-><-|) as a matrix in the storage basis."""
    if not math.isfinite(nu):
        raise ValueError("gap must be finite")
    return np.array([[nu, 0.0], [0.0, -nu]], dtype=complex)


def thermal_state(beta: float, nu: float) -> DensityMatrix:
    """Gibbs state exp(-beta H)/Z for the gap-``nu`` Hamiltonian.

    Negative beta (population inversion) is allowed; beta and nu must be
    finite and nu positive.  Populations are computed through logistic
    forms so extreme |beta nu| saturates cleanly to a pure state.
    """
    if not (math.isfinite(beta) and math.isfinite(nu)):
        raise ValueError("beta and nu must be finite")
    if nu <= 0.0:
        raise ValueError("gap nu must be positive")
    # p_excited = e^{-beta nu}/Z, stable for any sign and size of beta nu
    x = 2.0 * beta * nu
    p_exc = 1.0 / (1.0 + math.exp(x)) if x < 700.0 else 0.0
    return DensityMatrix(np.diag([p_exc, 1.0 - p_exc]), gap=nu)


@dataclass(frozen=True)
class PauliChannel:
    """Unital qubit channel sum_i p_i sigma_i rho sigma_i."""

    p0: float
    p1: float
    p2: float
    p3: float

    def __post_init__(self):
        probs = (self.p0, self.p1, self.p2, self.p3)
        if not all(math.isfinite(p) and p >= 0.0 for p in probs):
            raise ValueError("Pauli weights must be finite and nonnegative")
        if abs(sum(probs) - 1.0) > 1e-12:
            raise PhysicsError(f"Pauli weights sum to {sum(probs)!r}, not 1")

    @property
    def theta(self) -> float:
        """Excited-to-ground flip probability p1 + p2; anywhere in [0, 1]."""
        return self.p1 + self.p2

    def kraus_ops(self) -> list[np.ndarray]:
        return [
            math.sqrt(p) * s
            for p, s in zip((self.p0, self.p1, self.p2, self.p3), SIGMA)
            if p > 0.0
        ]


@dataclass(frozen=True)
class MeasurementChannel:
    """Projective measurement channel with Kraus projectors pi_1, pi_2.

    The measurement axis is tilted by the polar angle ``alpha_m`` in
    [0, pi] with azimuthal phase ``chi``:

        |psi_1> = e^{-i chi} sin(alpha_m/2)|+> - cos(alpha_m/2)|->
        |psi_2> =            cos(alpha_m/2)|+> + e^{i chi} sin(alpha_m/2)|->

    Its flip probability is theta = sin^2(alpha_m)/2, which can never
    exceed 1/2 (it equals 2 p (1-p) with p = |<-|psi_1>|^2).
    """

    alpha_m: float
    chi: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.alpha_m) and math.isfinite(self.chi)):
            raise ValueError("angles must be finite")
        if not 0.0 <= self.alpha_m <= math.pi:
            raise ValueError("alpha_m must lie in [0, pi]")

    @property
    def theta(self) -> float:
        # not 2 p (1 - p), which cancels at small alpha_m; s * s rounds as
        # the command line's np.square does
        s = math.sin(self.alpha_m)
        return s * s / 2.0

    def kraus_ops(self) -> list[np.ndarray]:
        c, s = math.cos(self.alpha_m / 2.0), math.sin(self.alpha_m / 2.0)
        phase = np.exp(-1.0j * self.chi)
        psi1 = np.array([phase * s, -c])
        psi2 = np.array([c, np.conj(phase) * s])
        return [np.outer(psi1, psi1.conj()), np.outer(psi2, psi2.conj())]


@dataclass(frozen=True)
class GeneralQubitChannel:
    """Arbitrary qubit channel given by a finite Kraus set."""

    kraus: tuple[np.ndarray, ...]

    def __init__(self, kraus):
        mats = tuple(_as_matrix(k) for k in kraus)
        if not mats:
            raise ValueError("need at least one Kraus operator")
        total = sum(k.conj().T @ k for k in mats)
        if np.max(np.abs(total - np.eye(2))) > 1e-12:
            raise PhysicsError("Kraus operators do not satisfy sum K^dag K = 1")
        for k in mats:
            k.setflags(write=False)
        object.__setattr__(self, "kraus", mats)

    @property
    def h(self) -> float:
        """sum_j <-| K_j K_j^dag |->; equals 1 exactly for unital channels."""
        return float(sum((k @ k.conj().T)[1, 1].real for k in self.kraus))

    @property
    def theta(self) -> float:
        """sum_j |<-| K_j |+>|^2, the excited-to-ground flip probability."""
        return float(sum(abs(k[1, 0]) ** 2 for k in self.kraus))

    def transition_matrix(self) -> np.ndarray:
        """T[k, m] = sum_j |<k| K_j |m>|^2, the probability of m -> k.

        Indices follow this module's storage basis (0 excited, 1 ground);
        each column sums to 1.
        """
        return sum(np.abs(k) ** 2 for k in self.kraus)

    def kraus_ops(self) -> list[np.ndarray]:
        return list(self.kraus)


@dataclass(frozen=True)
class ControlSpec:
    """Control-qubit preparation for a coherently superposed channel.

    ``alpha`` is the weight of the |0> arm in sqrt(alpha)|0> +
    sqrt(1-alpha)|1>; ``branch`` selects which Fourier-basis outcome of
    the control measurement is kept.
    """

    alpha: float
    branch: str = "minus"

    def __post_init__(self):
        if not math.isfinite(self.alpha) or not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if self.branch not in ("plus", "minus"):
            raise ValueError("branch must be 'plus' or 'minus'")

    @property
    def sign(self) -> int:
        return 1 if self.branch == "plus" else -1

    @property
    def coherence(self) -> float:
        """sqrt(alpha (1 - alpha)), the interference weight in [0, 1/2]."""
        return math.sqrt(self.alpha * (1.0 - self.alpha))

    @property
    def branch_probability(self) -> float:
        """p_+- = (1 +- sqrt(alpha(1-alpha)))/2, always in [1/4, 3/4]."""
        return 0.5 * (1.0 + self.sign * self.coherence)

    def flip_probability(self, theta: float) -> float:
        """Flip probability of the plain channel equivalent to this branch.

        The kept branch maps rho to (Phi(rho) +- sqrt(alpha(1-alpha)) rho)
        / (2 p_+-).  On populations a flip channel Phi acts through the
        transition matrix (1 - theta) Id + theta X (X swaps the levels),
        so the branch acts through ((1 - theta +- sqrt(alpha(1-alpha))) Id
        + theta X) / (2 p_+-); with 2 p_+- = 1 +- sqrt(alpha(1-alpha)) the
        columns still sum to 1, and this is the flip matrix of
        theta / (2 p_+-).  Path probabilities of the monitored cycle are
        linear in that matrix, so every statistic of the controlled cycle
        is the unital cycle's at this flip probability.  Above 1 (theta >
        2 p_-, reachable only on the minus branch beyond the measurement
        channel's theta <= 1/2) the matrix has negative entries, the cycle
        has no distribution and :class:`PhysicsError` is raised.  This is
        the last check of a controlled point, after the cycle's, the
        control's and theta in [0, 1], at one point and in every block.
        """
        doubled = 2.0 * self.branch_probability
        if theta > doubled:
            raise PhysicsError(
                f"{self.branch} branch: theta {theta!r} exceeds 2 p_branch = "
                f"{doubled!r}, the flip probability would exceed 1"
            )
        return theta / doubled
