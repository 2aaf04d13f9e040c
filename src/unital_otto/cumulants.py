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

The moment rule, the closed forms and the series are written once, in
:mod:`.formulas`, for floats and arrays alike; the functions here evaluate
them on numpy columns.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .formulas import (
    CycleParams, DistributionBlock, FirstTwoCumulants, _checked, _first_two, _moments,
    _series_cumulants, _sum, is_rounding_residue,
)
from .qstate import ControlSpec, InputError
from .trajectory import _checked_columns

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


def _outcome_major(block: DistributionBlock) -> tuple:
    """A block's probabilities and values, shaped (9, 1, ...) and (9, 2, ...),
    W's values above Q_M's: one entry per outcome in table order."""
    axes = (-1, *range(block.prob.ndim - 1))
    w, q, prob = (x.transpose(axes)[:, None] for x in block)
    return prob, np.concatenate((w, q), 1)


def _mean_flows(block: DistributionBlock) -> tuple:
    """The sums p W and p Q_M at every point, the means of
    :func:`cumulants_from_block` bit for bit, and :func:`mean_magnitudes`."""
    flows = np.multiply(*_outcome_major(block))  # p x, and |p x| = p |x| as p >= 0
    w, q, w_mag, q_mag = _sum(np.concatenate((flows, np.abs(flows)), 1))
    return (w, q), (w_mag, q_mag, w_mag + q_mag)


def mean_magnitudes(block: DistributionBlock) -> tuple:
    """The magnitudes of the mean flows at every point of a block, for
    :func:`is_rounding_residue`: sum p |W|, sum p |Q_M| and, for
    <Q_T> = <W> - <Q_M>, their sum."""
    return _mean_flows(block)[1]


def _block_moments(block: DistributionBlock, magnitudes: bool = False) -> np.ndarray:
    """:func:`~unital_otto.formulas._moments` at every point of a block, W and
    Q_M at once: (2, ..., 4), the cumulants of W, then of Q_M, or magnitudes."""
    prob, values = _outcome_major(block)
    prob = np.concatenate((prob, prob), 1)  # so that no operation broadcasts
    # each point's most probable value, the first of equals
    pivot = np.take_along_axis(values, prob[:, :1].argmax(0)[None], 0)[0]
    # where no outcome has probability 0, masking changes nothing
    mask = (lambda p, x: x) if prob.all() else (lambda p, x: np.where(p != 0.0, x, 0.0))
    # powers of outcomes near the float limit overflow to inf, which the
    # callers' finiteness checks report
    with np.errstate(over="ignore", invalid="ignore"):
        kappas = np.array(_moments(values, prob, pivot, mask, magnitudes))
    return kappas.transpose(*range(1, kappas.ndim), 0)


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
    energy conservation, <Q_T> = <W> - <Q_M>.  Every point is checked as
    :func:`~unital_otto.formulas._checked` checks one (an enumerated variance
    is a sum of nonnegative terms, and the characteristic-function route
    clamps its rounding residue); the first failing point (in C order)
    raises its error."""
    qt = kw[..., 0] - kq[..., 0]
    ok = np.isfinite(kw).all(-1) & np.isfinite(kq).all(-1) & np.isfinite(qt)
    ok &= (kw[..., 1:2] >= 0.0).all(-1) & (kq[..., 1:2] >= 0.0).all(-1)
    if not ok.all():  # ``ok`` holds exactly the point's checks, so this raises
        i = np.unravel_index(np.argmin(ok), ok.shape)
        _checked(kw[i].tolist(), kq[i].tolist())
    return CumulantBlock(w=kw, q_m=kq, qt_mean=qt)


def cumulants_from_block(block: DistributionBlock) -> CumulantBlock:
    """Exact first four cumulants of both marginals at every point of a
    block; a block of 1-d arrays is one point.

    The moment-to-cumulant identities (kappa1 = mu1, kappa2 = mu2 - mu1^2,
    kappa3 = mu3 - 3 mu2 mu1 + 2 mu1^3, kappa4 = mu4 - 4 mu3 mu1 - 3 mu2^2
    + 12 mu2 mu1^2 - 6 mu1^4) are evaluated in centred form, which is
    algebraically identical and numerically exact on a finite support.
    """
    return _checked_block(*_block_moments(block))


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
