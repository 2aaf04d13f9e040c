"""Characteristic functions and cumulants of work and channel heat.

Three independent routes to the same numbers:

1. exact enumeration -- raw/central moments of the finite joint
   distribution, converted algebraically to cumulants (the ground
   truth; no differentiation error) by :func:`cumulants_from_block`, at
   every point of a grid at once or at the one point of a
   :class:`~unital_otto.trajectory.JointDistribution`;
2. closed forms -- the first and second cumulants transcribed from the
   analytic expressions (third and fourth have no published closed
   form and are deliberately not transcribed), over whole grids with
   :func:`closed_form_block`;
3. characteristic-function derivatives -- the exact Taylor coefficients
   of ln(chi) at 0, from the closed-form characteristic function of the
   unital cycle and independent of the path table, kept as a
   cross-check at one point by :func:`cf_derivative_check`.

The closed-form characteristic function of the unital cycle is six
terms weight * (cos x -+ i t sin x) with t = tanh(beta nu1), the form
cos(x + i*beta*nu1) / Z collapses to, so nothing overflows at large
|beta nu1|; :func:`cf_derivative_check` reads their series coefficients.
Both take the block columns (beta, nu1, nu2, delta, zeta, theta,
alpha=None, branch="minus") of one cycle: the backward cycle is the
forward one at (zeta, delta), and a control weight ``alpha`` gives the
coherently controlled cycle, the unital one at
:meth:`~unital_otto.qstate.ControlSpec.flip_probability`.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np

from .qstate import ControlSpec, InputError
from .trajectory import CycleParams, DistributionBlock, JointDistribution, _checked_columns

__all__ = [
    "CumulantBlock",
    "FirstTwoCumulants",
    "cumulants_from_block",
    "closed_form_first_second",
    "closed_form_block",
    "cs_first_cumulants",
    "cf_derivative_check",
    "is_rounding_residue",
    "mean_magnitudes",
]


_RESIDUE = 32.0 * sys.float_info.epsilon  # c eps of is_rounding_residue


def is_rounding_residue(total, magnitude):
    """Whether ``total`` is what rounding leaves of an exact zero,
    elementwise: the package's one zero test for an energy-valued quantity.
    ``magnitude`` is the sum of the magnitudes of the summands ``total``
    came from: sum p |x| for an enumerated mean (:func:`mean_magnitudes`),
    the terms of a closed form, the trace bound of a Landau-Zener energy
    difference.

    The rule is |total| <= c eps magnitude with c = 32.  With u = eps / 2
    per rounding, a sum reached through chains of at most n roundings lies
    within gamma_n M of its exact value, gamma_n = n u / (1 - n u) and M the
    exact magnitude; M is at most M' / (1 - gamma_n) for the computed M', so
    the error is at most n u / (1 - 2 n u) M', below 32 eps M' for every
    n <= 63.  The longest chains are 21 roundings for an enumerated mean
    (four factors 1 - x, three products, four paths an outcome, p x, nine
    outcomes, <Q_T> = <W> - <Q_M>) and under 40 for the Landau-Zener work;
    c = 16 would cover only n <= 31.  So an exact zero always reads as a
    residue, a value beyond it has its exact sign (inputs taken as exact,
    underflow aside), and the test is the same in every energy unit.
    """
    return abs(total) <= _RESIDUE * magnitude


def mean_magnitudes(block: DistributionBlock | JointDistribution) -> tuple:
    """The magnitudes of the mean flows at every point of a block, for
    :func:`is_rounding_residue`: sum p |W|, sum p |Q_M| and, for
    <Q_T> = <W> - <Q_M>, their sum."""
    w = np.vecdot(block.prob, np.abs(block.w))
    q = np.vecdot(block.prob, np.abs(block.q_m))
    return w, q, w + q


class FirstTwoCumulants(NamedTuple):
    """Closed-form means and variances (second route): floats at one point,
    arrays over a block."""

    w_mean: float
    w_var: float
    qm_mean: float
    qm_var: float
    qt_mean: float


def _unital_terms(nu1: float, nu2: float, d: float, z: float, theta: float) -> tuple:
    """The unital characteristic function at one checked point as six
    ``(weight, W frequency, Q_M frequency, sign)`` terms:
    chi = sum weight * (cos x - i sign t sin x), x = f_W gamma_W + f_Q gamma_Q,
    t = tanh(beta nu1).  Each bracket is 2 cos(x + sign i beta nu1) / Z."""
    s = d + z - 2.0 * d * z
    return (
        ((1.0 - theta) * (1.0 - s), 0.0, 0.0, 1),
        ((1.0 - theta) * s, 2.0 * nu1, 0.0, 1),
        (theta * (1.0 - d) * z, 2.0 * nu2, 2.0 * nu2, -1),
        (theta * (1.0 - d) * (1.0 - z), 2.0 * (nu2 - nu1), 2.0 * nu2, -1),
        (theta * d * (1.0 - z), 2.0 * nu2, 2.0 * nu2, 1),
        (theta * d * z, 2.0 * (nu1 + nu2), 2.0 * nu2, 1),
    )


def _marginal_cumulants(values: np.ndarray, prob: np.ndarray, magnitudes: bool = False) -> tuple:
    """First four cumulants of each distribution along the last axis.  With
    ``magnitudes``, the same sums over |x| with every difference a - b read
    as a + b: the magnitude of each, for :func:`is_rounding_residue`."""
    sub = np.add if magnitudes else np.subtract
    # powers of outcomes near the float limit overflow to inf; the callers'
    # finiteness checks report that, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.abs(values) if magnitudes else values
        mean = np.vecdot(prob, values)
        centred = sub(values, mean[..., None])
        sq = centred * centred
        c2 = np.vecdot(prob, sq)
        c3 = np.vecdot(prob, sq * centred)
        c4 = np.vecdot(prob, sq * sq)
        return (mean, c2, c3, sub(c4, 3.0 * c2 * c2))


class CumulantBlock(NamedTuple):
    """First four cumulants of W and Q_M plus the mean bath heat: ``w`` and
    ``q_m`` shaped (..., 4), ``qt_mean`` shaped (...); one point is a 0-d
    block."""

    w: np.ndarray
    q_m: np.ndarray
    qt_mean: np.ndarray

    @property
    def w_mean(self) -> np.ndarray:
        return self.w[..., 0]

    @property
    def qm_mean(self) -> np.ndarray:
        return self.q_m[..., 0]


# a mean bath heat that overflows or is nan fails the finiteness check
@np.errstate(over="ignore", invalid="ignore")
def _checked_block(kw: np.ndarray, kq: np.ndarray) -> CumulantBlock:
    """The cumulant block of ``kw`` and ``kq``, the first four cumulants or
    the means alone (a last axis of length 4 or 1), its mean bath heat from
    energy conservation, <Q_T> = <W> - <Q_M>.

    Every point must be finite and have nonnegative variances (an
    enumerated variance is a sum of nonnegative terms, and the
    characteristic-function route clamps its rounding residue); where points
    fail, the first of them (in C order) raises its error, finiteness
    checked before the variances.
    """
    qt = kw[..., 0] - kq[..., 0]
    finite = np.isfinite(kw).all(-1) & np.isfinite(kq).all(-1) & np.isfinite(qt)
    ok = finite & (kw[..., 1:2] >= 0.0).all(-1) & (kq[..., 1:2] >= 0.0).all(-1)
    if not ok.all():
        i = np.unravel_index(np.argmin(ok), ok.shape)
        raise InputError("variances must be nonnegative" if finite[i]
                         else "cumulants must be finite")
    return CumulantBlock(w=kw, q_m=kq, qt_mean=qt)


def cumulants_from_block(block: DistributionBlock | JointDistribution) -> CumulantBlock:
    """Exact first four cumulants of both marginals at every point of a
    block; a :class:`JointDistribution` is a block of one point.

    The moment-to-cumulant identities (kappa1 = mu1, kappa2 = mu2 - mu1^2,
    kappa3 = mu3 - 3 mu2 mu1 + 2 mu1^3, kappa4 = mu4 - 4 mu3 mu1 - 3 mu2^2
    + 12 mu2 mu1^2 - 6 mu1^4) are evaluated in centred form, which is
    algebraically identical and numerically exact on a finite support.
    """
    kw = np.stack(_marginal_cumulants(block.w, block.prob), axis=-1)
    kq = np.stack(_marginal_cumulants(block.q_m, block.prob), axis=-1)
    return _checked_block(kw, kq)


def closed_form_block(
    beta, nu1, nu2, delta, zeta, theta, alpha=None, branch: str = "minus"
) -> FirstTwoCumulants:
    """Closed-form means and variances of W and Q_M, plus the mean of Q_T,
    of the forward cycle at every point of broadcast parameter arrays, under
    control at the controlled flip probability: arrays of the broadcast
    shape, 0-d at one point.  Where points fail, the first of them (in C
    order) raises its own error."""
    *cycle, _, flip = _checked_columns(beta, nu1, nu2, delta, zeta, theta, alpha, branch)
    return _closed_form(*cycle, flip)


# overflow gives inf and inf - inf nan, silently, as Python floats do
@np.errstate(over="ignore", invalid="ignore")
def _closed_form(beta, nu1, nu2, d, z, theta, magnitudes: bool = False) -> FirstTwoCumulants:
    """:func:`closed_form_block` on checked columns and the flip probability
    ``theta``.  With ``magnitudes``, the same expressions with |t| and every
    difference a - b read as a + b: every input is then nonnegative, so each
    field is the sum of its terms' magnitudes, for
    :func:`is_rounding_residue`."""
    sub = np.add if magnitudes else np.subtract
    t = np.tanh(beta * nu1)
    t = np.abs(t) if magnitudes else t
    s = sub(d + z, 2.0 * d * z)
    g = theta + sub(1.0, 2.0 * theta) * s
    qm_mean = 2.0 * sub(1.0, 2.0 * d) * theta * nu2 * t
    nu2_sq = nu2 * nu2
    qm_var = 4.0 * theta * nu2_sq * sub(1.0, np.square(sub(1.0, 2.0 * d)) * theta * t * t)
    bath = 2.0 * g * nu1 * t  # the heat given to the bath, -<Q_T>
    w_var = sub(
        4.0 * g * np.square(nu1) + 8.0 * theta * sub(d + z, 1.0) * nu1 * nu2 + 4.0 * theta * nu2_sq,
        4.0 * np.square(g * nu1 + sub(2.0 * d, 1.0) * theta * nu2) * t * t,
    )
    return FirstTwoCumulants(
        w_mean=sub(qm_mean, bath),
        w_var=w_var,
        qm_mean=qm_mean,
        qm_var=qm_var,
        qt_mean=bath if magnitudes else -bath,
    )


def _row(params: CycleParams, theta: float, direction: str, *control) -> FirstTwoCumulants:
    """One point of :func:`closed_form_block` as floats, the backward
    direction read at ``params.swapped``."""
    if direction not in ("forward", "backward"):
        raise InputError("direction must be 'forward' or 'backward'")
    cycle = params.swapped if direction == "backward" else params
    return FirstTwoCumulants(*map(float, closed_form_block(*cycle, theta, *control)))


def closed_form_first_second(
    params: CycleParams, theta: float, direction: str = "forward"
) -> FirstTwoCumulants:
    """Closed-form means and variances of W and Q_M, plus the mean of Q_T:
    one row of :func:`closed_form_block`, forward or backward."""
    return _row(params, theta, direction)


def cs_first_cumulants(
    params: CycleParams, theta: float, ctrl: ControlSpec, direction: str = "forward"
) -> FirstTwoCumulants:
    """Closed-form cumulants of the coherently controlled cycle: one row of
    :func:`closed_form_block` under the control ``ctrl``."""
    return _row(params, theta, direction, ctrl.alpha, ctrl.branch)


def cf_derivative_check(
    beta, nu1, nu2, delta, zeta, theta, alpha=None, branch: str = "minus"
) -> CumulantBlock:
    """Cumulants from the exact derivatives of ln(chi) at 0 (third route), at
    the one point of the columns, checked as every block function checks
    them; columns of more than one point raise :class:`InputError`.

    Reads the characteristic function's terms, not the path table, at theta
    or the control's flip probability.  Along one variable, a term with
    frequency f has Taylor coefficients a_n = (-i f)^n / n!, times sign * t
    when n is odd.  The coefficients b_n of ln(chi) follow from the
    log-series recurrence b_n = a_n - (1/n) sum_{k<n} k b_k a_{n-k}, and
    kappa_n = n! b_n / i^n.  No step size is involved.  The result is a 0-d
    block, checked as :func:`cumulants_from_block` checks its points.
    """
    columns = _checked_columns(beta, nu1, nu2, delta, zeta, theta, alpha, branch)
    if columns[0].size != 1:
        raise InputError("cf_derivative_check takes one point")
    beta, nu1, nu2, d, z, _, flip = (x.item() for x in columns)
    terms = _unital_terms(nu1, nu2, d, z, flip)
    t = math.tanh(beta * nu1)  # as CycleParams.tanh_beta_nu1

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
        if k2 < 0.0 and is_rounding_residue(k2, -2.0 * a[2].real + k1 * k1):
            k2 = 0.0
        return k1, k2, k3, k4

    return _checked_block(np.array(kappas(1)), np.array(kappas(2)))
