"""Characteristic functions and cumulants of work and channel heat.

Three independent routes to the same numbers:

1. exact enumeration -- raw/central moments of the finite joint
   distribution, converted algebraically to cumulants (the ground
   truth; no differentiation error); :func:`cumulants_from_block` does
   the same for every point of a grid at once;
2. closed forms -- the first and second cumulants transcribed from the
   analytic expressions (third and fourth have no published closed
   form and are deliberately not transcribed), over whole grids with
   :func:`closed_form_block`;
3. characteristic-function derivatives -- the exact Taylor coefficients
   of ln(chi) at 0, from the closed-form characteristic function of the
   unital cycle and independent of the path table, kept as a
   cross-check.

The closed-form characteristic function of the unital cycle is six
terms weight * (cos x -+ i t sin x) with t = tanh(beta nu1), the form
cos(x + i*beta*nu1) / Z collapses to, so nothing overflows at large
|beta nu1|.  :func:`cf_unital` sums them and :func:`cf_derivative_check`
reads their series coefficients, so the closed form is written once.
The characteristic function of an arbitrary channel is the discrete
transform of the path table.  The coherently controlled cycle is the
unital one at :meth:`~unital_otto.qstate.ControlSpec.flip_probability`,
so every closed form here covers it too.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .qstate import ControlSpec, GeneralQubitChannel
from .trajectory import (
    CycleParams,
    DistributionBlock,
    JointDistribution,
    _channel_distribution,
    _check_theta,
    _checked_columns,
)

__all__ = [
    "CumulantSet",
    "CumulantBlock",
    "FirstTwoCumulants",
    "cf_unital",
    "cf_general",
    "cumulants_from_distribution",
    "cumulants_from_block",
    "closed_form_first_second",
    "closed_form_block",
    "cs_first_cumulants",
    "cf_derivative_check",
    "is_rounding_residue",
]


# Rounding may leave a variance this far below zero.
_VARIANCE_TOL = 1e-10
_RESIDUE_ULPS = 8.0 * sys.float_info.epsilon


def is_rounding_residue(total, largest):
    """Whether ``total``, a sum whose largest summand has magnitude
    ``largest``, is within a few ulps of that summand: what is left of
    summands that cancel, not a value.  Elementwise on arrays."""
    return abs(total) <= _RESIDUE_ULPS * largest


@dataclass(frozen=True)
class CumulantSet:
    """First four cumulants of W and Q_M plus the mean bath heat."""

    w: tuple[float, float, float, float]
    q_m: tuple[float, float, float, float]
    qt_mean: float
    direction: str = "forward"

    def __post_init__(self):
        values = (*self.w, *self.q_m, self.qt_mean)
        if not all(math.isfinite(v) for v in values):
            raise ValueError("cumulants must be finite")
        if self.w[1] < -_VARIANCE_TOL or self.q_m[1] < -_VARIANCE_TOL:
            raise ValueError("variances must be nonnegative")

    @property
    def w_mean(self) -> float:
        return self.w[0]

    @property
    def qm_mean(self) -> float:
        return self.q_m[0]


@dataclass(frozen=True)
class FirstTwoCumulants:
    """Closed-form means and variances (second route): floats at one point,
    arrays over a block."""

    w_mean: float
    w_var: float
    qm_mean: float
    qm_var: float
    qt_mean: float
    direction: str = "forward"


def _unital_terms(params: CycleParams, theta: float) -> tuple:
    """The unital characteristic function as six
    ``(weight, W frequency, Q_M frequency, sign)`` terms:
    chi = sum weight * (cos x - i sign t sin x), x = f_W gamma_W + f_Q gamma_Q,
    t = tanh(beta nu1).  Each bracket is 2 cos(x + sign i beta nu1) / Z."""
    _check_theta(theta)
    nu1, nu2 = params.nu1, params.nu2
    d, z = params.delta, params.zeta
    s = d + z - 2.0 * d * z
    return (
        ((1.0 - theta) * (1.0 - s), 0.0, 0.0, 1),
        ((1.0 - theta) * s, 2.0 * nu1, 0.0, 1),
        (theta * (1.0 - d) * z, 2.0 * nu2, 2.0 * nu2, -1),
        (theta * (1.0 - d) * (1.0 - z), 2.0 * (nu2 - nu1), 2.0 * nu2, -1),
        (theta * d * (1.0 - z), 2.0 * nu2, 2.0 * nu2, 1),
        (theta * d * z, 2.0 * (nu1 + nu2), 2.0 * nu2, 1),
    )


def cf_unital(
    params: CycleParams, theta: float, gamma_w: float, gamma_m: float
) -> complex:
    """Forward characteristic function for a unital channel.

    Equals the discrete transform of :func:`~unital_otto.trajectory.
    enumerate_paths`; the backward variant is obtained by evaluating at
    ``params.swapped``.
    """
    t = params.tanh_beta_nu1
    chi = 0j
    for weight, f_w, f_q, sign in _unital_terms(params, theta):
        x = f_w * gamma_w + f_q * gamma_m
        chi += weight * complex(math.cos(x), -sign * t * math.sin(x))
    return chi


def cf_general(
    params: CycleParams,
    channel: GeneralQubitChannel,
    gamma_w: float,
    gamma_m: float,
) -> complex:
    """Forward characteristic function for an arbitrary qubit channel.

    The discrete transform of the path table with the channel's own
    transition matrix; for unital channels it equals :func:`cf_unital`.
    """
    dist = _channel_distribution(params, channel)
    return dist.characteristic_value(gamma_w, gamma_m)


def _marginal_cumulants(values: np.ndarray, prob: np.ndarray) -> tuple:
    """First four cumulants of each distribution along the last axis."""
    # powers of outcomes near the float limit overflow to inf; the callers'
    # finiteness checks report that, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        mean = np.vecdot(prob, values)
        centred = values - mean[..., None]
        sq = centred * centred
        c2 = np.vecdot(prob, sq)
        c3 = np.vecdot(prob, sq * centred)
        c4 = np.vecdot(prob, sq * sq)
        return (mean, c2, c3, c4 - 3.0 * c2 * c2)


def cumulants_from_distribution(dist: JointDistribution) -> CumulantSet:
    """Exact first four cumulants of both marginals of a joint distribution.

    The moment-to-cumulant identities (kappa1 = mu1, kappa2 = mu2 - mu1^2,
    kappa3 = mu3 - 3 mu2 mu1 + 2 mu1^3, kappa4 = mu4 - 4 mu3 mu1 - 3 mu2^2
    + 12 mu2 mu1^2 - 6 mu1^4) are evaluated in centred form, which is
    algebraically identical and numerically exact on a finite support.
    The mean bath heat follows from energy conservation,
    <Q_T> = <W> - <Q_M>.
    """
    kw = tuple(map(float, _marginal_cumulants(dist.w, dist.prob)))
    kq = tuple(map(float, _marginal_cumulants(dist.q_m, dist.prob)))
    return CumulantSet(
        w=kw, q_m=kq, qt_mean=kw[0] - kq[0], direction=dist.direction
    )


@dataclass(frozen=True)
class CumulantBlock:
    """First four cumulants over a grid: ``w`` and ``q_m`` shaped (..., 4)."""

    w: np.ndarray
    q_m: np.ndarray
    qt_mean: np.ndarray

    @property
    def w_mean(self) -> np.ndarray:
        return self.w[..., 0]

    @property
    def qm_mean(self) -> np.ndarray:
        return self.q_m[..., 0]


def cumulants_from_block(block: DistributionBlock) -> CumulantBlock:
    """:func:`cumulants_from_distribution` at every point of a block.

    The checks of :class:`CumulantSet` run over the whole block; where
    points fail, its error at the first of them (in C order) is raised.
    """
    kw = np.stack(_marginal_cumulants(block.w, block.prob), axis=-1)
    kq = np.stack(_marginal_cumulants(block.q_m, block.prob), axis=-1)
    qt = kw[..., 0] - kq[..., 0]
    ok = np.isfinite(kw).all(-1) & np.isfinite(kq).all(-1) & np.isfinite(qt)
    ok &= ~((kw[..., 1] < -_VARIANCE_TOL) | (kq[..., 1] < -_VARIANCE_TOL))
    if not ok.all():
        i = np.unravel_index(np.argmin(ok), ok.shape)
        CumulantSet(tuple(map(float, kw[i])), tuple(map(float, kq[i])), float(qt[i]))
    return CumulantBlock(w=kw, q_m=kq, qt_mean=qt)


def closed_form_block(
    beta, nu1, nu2, delta, zeta, theta, direction: str = "forward"
) -> FirstTwoCumulants:
    """:func:`closed_form_first_second` at every point of broadcast parameter
    arrays; the fields of the result are arrays of the broadcast shape.

    A point's values are bitwise those of the point on its own.  Where
    points are invalid, the error of the single-point checks at the first
    of them (in C order) is raised.
    """
    cycle = _checked_columns(beta, nu1, nu2, delta, zeta, theta)[:6]
    return _closed_form(*cycle, direction)


# overflow gives inf and inf - inf nan, silently, as Python floats do
@np.errstate(over="ignore", invalid="ignore")
def _closed_form(beta, nu1, nu2, d, z, theta, direction: str = "forward") -> FirstTwoCumulants:
    """:func:`closed_form_block` on columns that passed its checks."""
    if direction == "backward":
        d, z = z, d
    elif direction != "forward":
        raise ValueError("direction must be 'forward' or 'backward'")
    t = np.tanh(beta * nu1)
    s = d + z - 2.0 * d * z
    g = theta + (1.0 - 2.0 * theta) * s
    qm_mean = 2.0 * (1.0 - 2.0 * d) * theta * nu2 * t
    nu2_sq = nu2 * nu2
    qm_var = 4.0 * theta * nu2_sq * (1.0 - np.square(1.0 - 2.0 * d) * theta * t * t)
    qt_mean = -2.0 * g * nu1 * t
    w_mean = qm_mean + qt_mean
    w_var = (
        4.0 * g * np.square(nu1)
        + 8.0 * theta * (d + z - 1.0) * nu1 * nu2
        + 4.0 * theta * nu2_sq
        - 4.0 * np.square(g * nu1 + (2.0 * d - 1.0) * theta * nu2) * t * t
    )
    return FirstTwoCumulants(
        w_mean=w_mean,
        w_var=w_var,
        qm_mean=qm_mean,
        qm_var=qm_var,
        qt_mean=qt_mean,
        direction=direction,
    )


def closed_form_first_second(
    params: CycleParams, theta: float, direction: str = "forward"
) -> FirstTwoCumulants:
    """Closed-form means and variances of W and Q_M, plus the mean of Q_T:
    one row of :func:`closed_form_block`.

    The backward direction applies the delta <-> zeta correspondence.
    """
    cycle = (params.beta, params.nu1, params.nu2, params.delta, params.zeta, theta)
    row = closed_form_block(*cycle, direction=direction)
    values = (row.w_mean, row.w_var, row.qm_mean, row.qm_var, row.qt_mean)
    return FirstTwoCumulants(*map(float, values), direction=direction)


def cs_first_cumulants(
    params: CycleParams, theta: float, ctrl: ControlSpec, direction: str = "forward"
) -> FirstTwoCumulants:
    """Closed-form cumulants of the coherently controlled cycle: those of
    the unital cycle at ``ctrl.flip_probability(theta)``."""
    return closed_form_first_second(params, ctrl.flip_probability(theta), direction)


def cf_derivative_check(params: CycleParams, theta: float) -> CumulantSet:
    """Cumulants from the exact derivatives of ln(chi) at 0 (third route).

    Reads the terms of :func:`cf_unital`, not the path table; for the
    coherently controlled cycle pass ``ctrl.flip_probability(theta)`` as
    ``theta``.  Along one variable, a term with frequency f has Taylor
    coefficients a_n = (-i f)^n / n!, times sign * t when n is odd.  The
    coefficients b_n of ln(chi) follow from the log-series recurrence
    b_n = a_n - (1/n) sum_{k<n} k b_k a_{n-k}, and kappa_n = n! b_n / i^n.
    No step size is involved.
    """
    terms = _unital_terms(params, theta)
    t = params.tanh_beta_nu1

    def kappas(index: int) -> tuple[float, float, float, float]:
        a = [0j] * 5
        for term in terms:
            coeff, f, sign = term[0], term[index], term[3]
            for n in range(5):
                a[n] += coeff * sign * t if n % 2 else coeff
                coeff *= -1j * f / (n + 1)
        b = [0j] * 5
        for n in range(1, 5):
            b[n] = a[n] - sum(k * b[k] * a[n - k] for k in range(1, n)) / n
        # + 0.0 turns the negative zeros of vanishing coefficients into 0
        k1, k2, k3, k4 = (
            (math.factorial(n) * b[n] / 1j**n).real + 0.0 for n in range(1, 5)
        )
        # kappa_2 = mu_2 - mu_1^2 cancels where the variable is nearly
        # certain; rounding below zero there is no variance
        if k2 < 0.0 and is_rounding_residue(k2, -2.0 * a[2].real):
            k2 = 0.0
        return k1, k2, k3, k4

    kw, kq = kappas(1), kappas(2)
    return CumulantSet(w=kw, q_m=kq, qt_mean=kw[0] - kq[0])
