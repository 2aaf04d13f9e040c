"""The measurement channel, the control qubit and the package's errors.

Everything lives in a declared energy eigenbasis: index 0 is the excited
state |+> (energy +nu), index 1 the ground state |-> (energy -nu).  The
monitored cycle sees a channel only through its flip probability theta.
:class:`MeasurementChannel` is the rank-1 projective channel built from
two orthogonal projectors, whose theta never exceeds 1/2; the
Landau-Zener propagation applies it to the qubit's Bloch vector, which it
projects onto the channel's measurement axis.

:class:`ControlSpec` prepares a control qubit that sends the state
through the channel on both arms of a superposition and post-selects the
control in the Fourier basis.  On the monitored populations the kept
branch acts as the plain channel at the flip probability
theta / (2 p_branch) (:meth:`ControlSpec.flip_probability`), so every
statistic of a controlled cycle is computed through that one number.
"""

from __future__ import annotations

import math
from collections import namedtuple

__all__ = [
    "InputError",
    "PhysicsError",
    "MeasurementChannel",
    "ControlSpec",
]


class InputError(ValueError):
    """An argument failed an input check."""


class PhysicsError(ValueError):
    """A physically inconsistent quantity was produced or requested."""


def _check_theta(theta: float) -> None:
    if not 0.0 <= theta <= 1.0:  # nan too
        raise InputError("theta must lie in [0, 1]")


class _Checked:
    """Base of the package's validated named tuples: ``_make``, and so
    ``_replace``, builds through the constructor and its checks."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class MeasurementChannel(_Checked, namedtuple("MeasurementChannel", "alpha_m chi")):
    """Projective measurement channel with Kraus projectors pi_1, pi_2.

    The measurement axis is tilted by the polar angle ``alpha_m`` in
    [0, pi] with azimuthal phase ``chi``:

        |psi_1> = e^{-i chi} sin(alpha_m/2)|+> - cos(alpha_m/2)|->
        |psi_2> =            cos(alpha_m/2)|+> + e^{i chi} sin(alpha_m/2)|->

    Its flip probability is theta = sin^2(alpha_m)/2, which can never
    exceed 1/2 (it equals 2 p (1-p) with p = |<-|psi_1>|^2).
    """

    __slots__ = ()

    def __new__(cls, alpha_m: float, chi: float = 0.0):
        if not (math.isfinite(alpha_m) and math.isfinite(chi)):
            raise InputError("angles must be finite")
        if not 0.0 <= alpha_m <= math.pi:
            raise InputError("alpha_m must lie in [0, pi]")
        return super().__new__(cls, alpha_m, chi)

    @property
    def theta(self) -> float:
        # not 2 p (1 - p), which cancels at small alpha_m; s * s rounds as
        # the command line's np.square does
        s = math.sin(self.alpha_m)
        return s * s / 2.0

    @property
    def axis(self) -> tuple[float, float, float]:
        """n = (sin alpha_m cos chi, sin alpha_m sin chi, cos alpha_m), the
        Bloch vector of |psi_2>; the channel maps a Bloch vector r to
        (n.r) n."""
        s = math.sin(self.alpha_m)
        return s * math.cos(self.chi), s * math.sin(self.chi), math.cos(self.alpha_m)


class ControlSpec(_Checked, namedtuple("ControlSpec", "alpha branch")):
    """Control-qubit preparation for a coherently superposed channel.

    ``alpha`` is the weight of the |0> arm in sqrt(alpha)|0> +
    sqrt(1-alpha)|1>; ``branch`` selects which Fourier-basis outcome of
    the control measurement is kept.
    """

    __slots__ = ()

    def __new__(cls, alpha: float, branch: str = "minus"):
        if not math.isfinite(alpha) or not 0.0 <= alpha <= 1.0:
            raise InputError("alpha must lie in [0, 1]")
        if branch not in ("plus", "minus"):
            raise InputError("branch must be 'plus' or 'minus'")
        return super().__new__(cls, alpha, branch)

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
        control's and theta in [0, 1] (:class:`InputError`, checked here
        first), at one point and in every block.
        """
        _check_theta(theta)
        doubled = 2.0 * self.branch_probability
        if theta > doubled:
            raise PhysicsError(
                f"{self.branch} branch: theta {theta!r} exceeds 2 p_branch = "
                f"{doubled!r}, the flip probability would exceed 1"
            )
        return theta / doubled
