"""Characteristic functions and cumulants of work and channel heat.

Three independent routes to the same numbers:

1. exact enumeration -- raw/central moments of the finite joint
   distribution, converted algebraically to cumulants (the ground
   truth; no differentiation error) by :func:`cumulants_from_block`, at
   every point of a :class:`~unital_otto.trajectory.DistributionBlock`
   at once, a grid's or one point's (the sampler's draws are one too);
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

The closed forms and the series are written once, in :mod:`.formulas`, for
floats and arrays alike; the functions here evaluate them on numpy columns.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .formulas import (
    CycleParams, DistributionBlock, FirstTwoCumulants, _first_two, _series_cumulants,
    is_rounding_residue,
)
from .qstate import ControlSpec, InputError
from .trajectory import _checked_columns, _outcome_sum

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


def mean_magnitudes(block: DistributionBlock) -> tuple:
    """The magnitudes of the mean flows at every point of a block, for
    :func:`is_rounding_residue`: sum p |W|, sum p |Q_M| and, for
    <Q_T> = <W> - <Q_M>, their sum."""
    w, q = (_outcome_sum(block.prob * np.abs(x)) for x in (block.w, block.q_m))
    return w, q, w + q


def _marginal_cumulants(values: np.ndarray, prob: np.ndarray, magnitudes: bool = False) -> tuple:
    """First four cumulants of each distribution along the last axis.  With
    ``magnitudes``, the same sums over |x| with every difference a - b read
    as a + b: the magnitude of each, for :func:`is_rounding_residue`."""
    sub = np.add if magnitudes else np.subtract
    # powers of outcomes near the float limit overflow to inf; the callers'
    # finiteness checks report that, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.abs(values) if magnitudes else values
        mean = _outcome_sum(prob * values)
        # centred on the most probable value x0 plus the mean of x - x0, so a
        # variable of one value has kappa_2..4 exactly 0 (magnitudes: the mean)
        x0 = np.take_along_axis(values, prob.argmax(-1)[..., None], -1)
        centre = mean if magnitudes else x0[..., 0] + _outcome_sum(prob * (values - x0))
        # an outcome of probability 0 adds 0 to every sum, even where its
        # centred powers would overflow to inf (0 * inf is nan)
        centred = np.where(prob != 0.0, sub(values, centre[..., None]), 0.0)
        sq = centred * centred
        c2, c3, c4 = _compensated_sum(prob * np.stack((sq, sq * centred, sq * sq)))
        return (mean, c2, c3, sub(c4, 3.0 * c2 * c2))


def _compensated_sum(terms: np.ndarray) -> np.ndarray:
    """``terms`` summed over the last axis in outcome order with Kahan's
    compensation: within about eps of the sum of the terms' magnitudes."""
    total = carry = 0.0
    for row in np.ascontiguousarray(np.moveaxis(terms, -1, 0)):
        term = row - carry
        new = total + term
        total, carry = new, (new - total) - term
    return total


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


def cumulants_from_block(block: DistributionBlock) -> CumulantBlock:
    """Exact first four cumulants of both marginals at every point of a
    block; a block of 1-d arrays is one point.

    The moment-to-cumulant identities (kappa1 = mu1, kappa2 = mu2 - mu1^2,
    kappa3 = mu3 - 3 mu2 mu1 + 2 mu1^3, kappa4 = mu4 - 4 mu3 mu1 - 3 mu2^2
    + 12 mu2 mu1^2 - 6 mu1^4) are evaluated in centred form, which is
    algebraically identical and numerically exact on a finite support.
    """
    return _checked_block(*(np.stack(_marginal_cumulants(x, block.prob), axis=-1)
                            for x in (block.w, block.q_m)))


# overflow gives inf and inf - inf nan, silently, as Python floats do
@np.errstate(over="ignore", invalid="ignore")
def closed_form_block(
    beta, nu1, nu2, delta, zeta, theta, alpha=None, branch: str = "minus"
) -> FirstTwoCumulants:
    """Closed-form means and variances of W and Q_M, plus the mean of Q_T,
    of the forward cycle at every point of broadcast parameter arrays, under
    control at the controlled flip probability: arrays of the broadcast
    shape, 0-d at one point.  Where points fail, the first of them (in C
    order) raises its own error."""
    t, _, *cycle, _, flip = _checked_columns(beta, nu1, nu2, delta, zeta, theta, alpha, branch)
    return _first_two(t, *cycle, flip)


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
    or the control's flip probability, through the log-series recurrence of
    :func:`~unital_otto.formulas._series_cumulants`; no step size is
    involved.  The result is a 0-d block, checked as
    :func:`cumulants_from_block` checks its points.
    """
    columns = _checked_columns(beta, nu1, nu2, delta, zeta, theta, alpha, branch)
    if columns[0].size != 1:
        raise InputError("cf_derivative_check takes one point")
    t, _, nu1, nu2, d, z, _, flip = (x.item() for x in columns)
    return _checked_block(*map(np.array, _series_cumulants(t, nu1, nu2, d, z, flip)))
