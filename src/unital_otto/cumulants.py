"""Characteristic functions and cumulants of work and channel heat.

Three independent routes to the same numbers:

1. exact enumeration -- raw/central moments of the finite joint
   distribution, converted algebraically to cumulants (the ground
   truth; no differentiation error); :func:`cumulants_from_block` does
   the same for every point of a grid at once;
2. closed forms -- the first and second cumulants transcribed from the
   analytic expressions (third and fourth have no published closed
   form and are deliberately not transcribed);
3. characteristic-function derivatives -- central finite differences of
   ln(chi) with Richardson extrapolation, kept as a cross-check.

The closed-form characteristic function of the unital cycle only ever
needs cos(x + i*beta*nu1) divided by the partition function, which
collapses to cos(x) -+ i sin(x) tanh(beta nu1); that identity is used
throughout so nothing overflows at large |beta nu1|.  It feeds the
derivative route.  The characteristic function of an arbitrary channel
is the discrete transform of the path table.  The coherently controlled
cycle is the unital one at
:meth:`~unital_otto.qstate.ControlSpec.flip_probability`, so every
closed form here covers it too.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .qstate import ControlSpec, GeneralQubitChannel
from .trajectory import (
    CycleParams,
    DistributionBlock,
    JointDistribution,
    _channel_distribution,
)

__all__ = [
    "CumulantSet",
    "CumulantBlock",
    "CFPoint",
    "FirstTwoCumulants",
    "DerivativeStepError",
    "cf_unital",
    "cf_general",
    "cumulants_from_distribution",
    "cumulants_from_block",
    "closed_form_first_second",
    "cs_first_cumulants",
    "cf_derivative_check",
]


# Rounding may leave a variance this far below zero.
_VARIANCE_TOL = 1e-10


class DerivativeStepError(ValueError):
    """Two step sizes disagree: the finite-difference step is unusable."""


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
    """Closed-form means and variances (second route)."""

    w_mean: float
    w_var: float
    qm_mean: float
    qm_var: float
    qt_mean: float
    direction: str = "forward"


@dataclass(frozen=True)
class CFPoint:
    """One evaluation of a characteristic function at real arguments."""

    gamma_w: float
    gamma_m: float
    value: complex

    def __post_init__(self):
        if abs(self.value) > 1.0 + 1e-9:
            raise ValueError(f"|chi| = {abs(self.value)} exceeds 1")


def _cos_ratio(u: float, sign: int, tanh_b: float) -> complex:
    """2 cos(u + sign * i * beta nu1) / Z without complex exponentials."""
    return complex(math.cos(u), -sign * math.sin(u) * tanh_b)


def cf_unital(
    params: CycleParams, theta: float, gamma_w: float, gamma_m: float
) -> complex:
    """Forward characteristic function for a unital channel.

    Equals the discrete transform of :func:`~unital_otto.trajectory.
    enumerate_paths`; the backward variant is obtained by evaluating at
    ``params.swapped``.
    """
    if not 0.0 <= theta <= 1.0:
        raise ValueError("theta must lie in [0, 1]")
    t = params.tanh_beta_nu1
    nu1, nu2 = params.nu1, params.nu2
    d, z = params.delta, params.zeta
    s = d + z - 2.0 * d * z
    identity = 1.0 + (_cos_ratio(2.0 * gamma_w * nu1, +1, t) - 1.0) * s
    channel = (1.0 - d) * (
        z * _cos_ratio(2.0 * (gamma_w + gamma_m) * nu2, -1, t)
        + (1.0 - z)
        * _cos_ratio(2.0 * (gamma_w * (nu2 - nu1) + gamma_m * nu2), -1, t)
    ) + d * (
        (1.0 - z) * _cos_ratio(2.0 * (gamma_w + gamma_m) * nu2, +1, t)
        + z * _cos_ratio(2.0 * ((nu1 + nu2) * gamma_w + gamma_m * nu2), +1, t)
    )
    return (1.0 - theta) * identity + theta * channel


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
    mean = np.vecdot(prob, values)
    centred = values - mean[..., None]
    c2 = np.vecdot(prob, centred**2)
    c3 = np.vecdot(prob, centred**3)
    c4 = np.vecdot(prob, centred**4)
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


def closed_form_first_second(
    params: CycleParams, theta: float, direction: str = "forward"
) -> FirstTwoCumulants:
    """Closed-form means and variances of W and Q_M, plus the mean of Q_T.

    The backward direction applies the delta <-> zeta correspondence.
    """
    if not 0.0 <= theta <= 1.0:
        raise ValueError("theta must lie in [0, 1]")
    if direction == "backward":
        params = params.swapped
    elif direction != "forward":
        raise ValueError("direction must be 'forward' or 'backward'")
    t = params.tanh_beta_nu1
    nu1, nu2 = params.nu1, params.nu2
    d, z = params.delta, params.zeta
    s = d + z - 2.0 * d * z
    g = theta + (1.0 - 2.0 * theta) * s
    qm_mean = 2.0 * (1.0 - 2.0 * d) * theta * nu2 * t
    qm_var = 4.0 * theta * nu2**2 * (1.0 - (1.0 - 2.0 * d) ** 2 * theta * t * t)
    qt_mean = -2.0 * g * nu1 * t
    w_mean = qm_mean + qt_mean
    w_var = (
        4.0 * g * nu1**2
        + 8.0 * theta * (d + z - 1.0) * nu1 * nu2
        + 4.0 * theta * nu2**2
        - 4.0 * (g * nu1 + (2.0 * d - 1.0) * theta * nu2) ** 2 * t * t
    )
    return FirstTwoCumulants(
        w_mean=w_mean,
        w_var=w_var,
        qm_mean=qm_mean,
        qm_var=qm_var,
        qt_mean=qt_mean,
        direction=direction,
    )


def cs_first_cumulants(
    params: CycleParams, theta: float, ctrl: ControlSpec, direction: str = "forward"
) -> FirstTwoCumulants:
    """Closed-form cumulants of the coherently controlled cycle: those of
    the unital cycle at ``ctrl.flip_probability(theta)``."""
    return closed_form_first_second(params, ctrl.flip_probability(theta), direction)


# 4th-derivative central stencil spanning +-4h, accurate to O(h^6).
_STENCIL4 = (
    (4, 7.0 / 240.0),
    (3, -2.0 / 5.0),
    (2, 169.0 / 60.0),
    (1, -122.0 / 15.0),
    (0, 91.0 / 8.0),
    (-1, -122.0 / 15.0),
    (-2, 169.0 / 60.0),
    (-3, -2.0 / 5.0),
    (-4, 7.0 / 240.0),
)

_DETECT_TOL = 1e-3


# ln(chi) carries an absolute rounding error of a few ulps; a stencil
# numerator this close to it is pure cancellation noise
_NOISE_FLOOR = 64.0 * 2.220446049250313e-16

_STENCILS: dict[int, tuple[tuple[int, float], ...]] = {
    1: ((1, 0.5), (-1, -0.5)),
    2: ((1, 1.0), (0, -2.0), (-1, 1.0)),
    3: ((2, 0.5), (1, -1.0), (-1, 1.0), (-2, -0.5)),
    4: _STENCIL4,
}


def _log_cf_derivative(
    log_chi: Callable[[float], complex], order: int, step: float
) -> complex:
    """d^order ln(chi) / d gamma^order at 0 by central differences.

    Each derivative is evaluated at two step sizes (h and 2h) and
    Richardson-extrapolated.  A numerator at the rounding floor of
    ln(chi), or estimates that disagree beyond 0.1%, flag a step that
    has fallen into cancellation (or gross truncation) and raise
    :class:`DerivativeStepError`.
    """
    if order not in _STENCILS:
        raise ValueError("order must be between 1 and 4")

    def stencil(h: float) -> complex:
        values = [(coeff, log_chi(offset * h)) for offset, coeff in _STENCILS[order]]
        numerator = sum(coeff * val for coeff, val in values)
        largest = max(abs(val) for _, val in values)
        noise = _NOISE_FLOOR * max(1.0, largest)
        # a sub-noise numerator is fine when the implied value is itself
        # negligible; it is fatal when rounding could masquerade as a
        # cumulant of visible size
        if 0.0 < abs(numerator) < noise and noise / h**order > 1e-6:
            raise DerivativeStepError(
                f"order-{order} stencil at step {h:g} is dominated by rounding"
            )
        return numerator / h**order

    accuracy = 6 if order == 4 else 2
    ratio = 2.0
    d_fine = stencil(step)
    d_coarse = stencil(ratio * step)
    if abs(d_fine - d_coarse) > _DETECT_TOL * max(1.0, abs(d_fine)):
        raise DerivativeStepError(
            f"order-{order} derivative estimates at steps {step:g} and "
            f"{ratio * step:g} disagree by {abs(d_fine - d_coarse):.3g}"
        )
    scale = ratio**accuracy
    return (scale * d_fine - d_coarse) / (scale - 1.0)


def cf_derivative_check(
    params: CycleParams,
    theta: float,
    step: float = 1e-3,
    step4: float = 2e-2,
    orders: tuple[int, ...] = (1, 2, 3, 4),
) -> CumulantSet:
    """Cumulants from numerical derivatives of ln(chi) (third route).

    Uses the unital characteristic function; for the coherently
    controlled cycle pass ``ctrl.flip_probability(theta)`` as ``theta``.
    Orders not requested come back as 0.  Each variable is differentiated in
    gamma * E, with E half its largest outcome (nu1 + nu2 for W, nu2 for
    Q_M), and order k is multiplied back by E^k; the steps are therefore
    dimensionless.  The order-4 stencil needs the larger default step to
    stay clear of roundoff.
    """
    def kappas(
        chi: Callable[[float], complex], scale: float
    ) -> tuple[float, float, float, float]:
        log_chi = lambda x: cmath.log(chi(x / scale))
        out = [0.0, 0.0, 0.0, 0.0]
        for order in orders:
            h = step4 if order == 4 else step
            deriv = _log_cf_derivative(log_chi, order, h)
            out[order - 1] = (deriv / 1j**order).real * scale**order
        return tuple(out)

    kw = kappas(lambda g: cf_unital(params, theta, g, 0.0), params.nu1 + params.nu2)
    kq = kappas(lambda g: cf_unital(params, theta, 0.0, g), params.nu2)
    return CumulantSet(w=kw, q_m=kq, qt_mean=kw[0] - kq[0])
