"""Exact two-point-measurement statistics of the unital Otto cycle.

The cycle runs A -> B -> C -> D: projective energy measurement in the
gap-nu1 basis, driving unitary U (transition probability delta),
measurement in the gap-nu2 basis, a unital channel with flip
probability theta, another measurement, compression unitary V
(transition probability zeta), and a final gap-nu1 measurement.  The
sixteen measurement records form one path table: each record's
probability is a thermal weight times one entry each of the stroke
matrix U, the channel's 2x2 transition matrix T and the stroke matrix
V, and its outcome has integer coefficients, W = a nu1 + b nu2 and
Q_M = b nu2.  Summing the table on the keys (a, b) gives the joint
distribution of the stochastic work W and channel heat Q_M; everything
downstream (cumulants, bounds, regime maps) is exact arithmetic on this
finite list.  A unital channel enters as the symmetric flip matrix of
its flip probability theta.

The backward cycle is the forward one with delta and zeta swapped
(:attr:`CycleParams.swapped`).  The coherently controlled variant is the
unital cycle at the flip probability theta / (2 p_branch) of
:meth:`~unital_otto.qstate.ControlSpec.flip_probability`.

One array routine evaluates the table at any number of points.
:func:`enumerate_block` returns its rows for whole parameter grids (a
:class:`DistributionBlock`, one row of the nine outcome keys per point),
with or without coherent control; one point is a 0-d block.
:func:`enumerate_paths` is one point evaluated in floats, that row with its
zero-probability outcomes dropped and the rest sorted, as 1-d arrays.
:func:`sample` draws from such a point and returns the draws' empirical
distribution as a block of the same outcomes: the package's one
distribution type.  The table, :class:`CycleParams` with the rule for t,
the block type, the outcome sum and the binomial chain live in
:mod:`.formulas`, which imports no numpy; a grid's sums add its outcome
columns in table order, with no BLAS call.  Every block function checks
its columns and computes t once, in :func:`_checked_columns`; the first
failing point (in C order) raises the error it raises alone.
"""

from __future__ import annotations

import math

import numpy as np

from .formulas import (
    _SUM_BOUND, CycleParams, DistributionBlock, _checked_point, _flip, _outcomes,
    _point_distribution, _shares, _sum, _support,
)
from .qstate import ControlSpec, InputError, PhysicsError

__all__ = [
    "CycleParams",
    "DistributionBlock",
    "enumerate_paths",
    "enumerate_block",
    "sample",
]


@np.errstate(over="ignore")  # a product beyond the float range is inf, as in floats
def _tanh_columns(beta, nu1) -> np.ndarray:
    """:attr:`CycleParams.tanh_beta_nu1` at every entry of the columns: the
    C library's tanh of each product, which numpy rounds as Python does."""
    product = np.multiply(beta, nu1)
    t = map(math.tanh, product.ravel().tolist())
    return np.fromiter(t, float, product.size).reshape(product.shape)


def _evaluate(t, nu1, nu2, delta, zeta, channel) -> DistributionBlock:
    """The path table (:func:`~unital_otto.formulas._outcomes`) at N points:
    t and the four other cycle columns are 1-d arrays and ``channel[k][m]``,
    the (N,) probabilities that the channel takes state m to state k.  Each
    field is an (N, 9) array, one column per outcome key, laid out outcome
    major; the probabilities are neither clamped nor checked."""
    with np.errstate(all="ignore"):
        block = _outcomes(t, nu1, nu2, delta, zeta, channel)
    return DistributionBlock(*(np.stack(x).T for x in block))


def enumerate_paths(
    params: CycleParams, theta: float, ctrl: ControlSpec | None = None
) -> DistributionBlock:
    """Exact forward joint distribution of (W, Q_M): the point evaluated in
    floats, its row of :func:`enumerate_block` with the zero-probability
    outcomes dropped and the rest sorted by (W, Q_M, p), as 1-d arrays.

    W takes values in {0, +-2 nu1, +-2 nu2, +-2(nu2-nu1), +-2(nu1+nu2)}
    and Q_M in {0, +-2 nu2}; paths with the same outcome are merged.
    Under coherent control ``ctrl`` the post-selected branch is the unital
    cycle at the flip probability ``ctrl.flip_probability(theta)``.  The
    measurement channel keeps theta <= 1/2, which keeps that probability
    in [0, 1]; beyond that regime the minus branch can exceed 1 and
    :class:`PhysicsError` is raised.
    """
    dist = _point_distribution(*_checked_point(*params, theta, *(ctrl or ())))
    return DistributionBlock(*map(np.array, _support(dist)))


def _controlled_flip(theta, alpha, branch: str) -> np.ndarray:
    """``ControlSpec(alpha, branch).flip_probability(theta)`` elementwise over
    arrays, bitwise, without its checks: ``nan`` where alpha lies outside
    [0, 1] or the branch is unknown, above 1 where theta exceeds 2 p_branch."""
    sign = {"plus": 1.0, "minus": -1.0}.get(branch, math.nan)
    with np.errstate(invalid="ignore"):
        coherence = np.sqrt(alpha * (1.0 - alpha))
    # 2 p_branch = 2 (0.5 (1 +- c)) is 1 +- c exactly: halving and doubling
    # do not round
    return theta / (1.0 + sign * coherence)


def _checked_columns(beta, nu1, nu2, delta, zeta, theta, alpha=None, branch: str = "minus"):
    """t (:func:`_tanh_columns`), the six columns broadcast, and the flip
    probability: theta, or :func:`_controlled_flip` when the control's arm
    weight ``alpha`` is given.  Checks every point as
    :func:`~unital_otto.formulas._checked_point` checks one, and replays the
    first failing point (in C order) through it to raise its error."""
    inputs = [beta, nu1, nu2, delta, zeta, theta] + ([] if alpha is None else [alpha])
    columns = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in inputs))
    beta, nu1, nu2, delta, zeta, theta = columns[:6]
    flip = theta if alpha is None else _controlled_flip(theta, columns[6], branch)
    ok = np.isfinite(beta) & np.isfinite(nu1) & np.isfinite(nu2)
    ok &= np.isfinite(delta) & np.isfinite(zeta) & (nu1 > 0.0) & (nu2 > 0.0)
    ok &= (0.0 <= delta) & (delta <= 1.0) & (0.0 <= zeta) & (zeta <= 1.0)
    # a control outside ControlSpec's checks makes the flip nan
    ok &= np.isfinite(theta) & (0.0 <= theta) & (theta <= 1.0) & (flip <= 1.0)
    if not ok.all():
        # ``ok`` holds exactly the single-point checks, so this raises
        i = np.unravel_index(np.argmin(ok), ok.shape)
        _checked_point(*(float(x[i]) for x in columns), branch=branch)
    return _tanh_columns(beta, nu1), beta, nu1, nu2, delta, zeta, theta, flip


def enumerate_block(
    beta, nu1, nu2, delta, zeta, theta, alpha=None, branch: str = "minus"
) -> DistributionBlock:
    """Forward joint distributions at every point of broadcast parameter arrays.

    With the control's arm weight ``alpha`` (scalar or array) and
    ``branch``, each point is the coherently controlled cycle, the unital
    one at the controlled flip probability.  Every point is checked as a
    single point is; where points fail, the error of the first of them (in
    C order) is raised.
    """
    t, _, *cycle, _, flip = _checked_columns(beta, nu1, nu2, delta, zeta, theta, alpha, branch)
    return _enumerate(t, *cycle, flip)


def _enumerate(t, nu1, nu2, delta, zeta, flip) -> DistributionBlock:
    """:func:`enumerate_block` on checked columns, t in place of beta, and
    the flip probability.  Every path probability is a product of factors in
    [0, 1], so none is negative; a row whose sum lies further from 1 than its
    rounding allows (``_SUM_BOUND``) raises :class:`PhysicsError`, the first
    such point in C order."""
    cycle = (x.ravel() for x in (t, nu1, nu2, delta, zeta))
    block = _evaluate(*cycle, _flip(flip.ravel()))
    total = _sum(block.prob.T)
    failed = np.abs(total - 1.0) > _SUM_BOUND
    if failed.any():
        raise PhysicsError(f"probabilities sum to {float(total[np.argmax(failed)])!r}, not 1")
    return DistributionBlock(*(x.reshape(flip.shape + x.shape[-1:]) for x in block))


def sample(dist: DistributionBlock, n: int, seed: int) -> DistributionBlock:
    """Draw n i.i.d. outcomes of the one-point distribution ``dist`` with a
    seeded ``random.Random`` (the standard library's MT19937): how many fall
    on each outcome, drawn as a chain of binomials
    (:func:`~unital_otto.formulas._shares`), so neither time nor memory
    grows with n.  Returns the draws' empirical distribution: the same
    outcomes, each with the share counts / n of the draws that fell on it.

    ``dist``'s arrays must be 1-d, of equal length and finite, and its
    probabilities nonnegative, summing to 1 within ``_SUM_BOUND``; a failed
    check raises :class:`InputError`, and so do n outside [1, 2**63 - 1] and
    a negative seed.  Deterministic for a fixed seed on
    one Python version.
    """
    w, q, p = (np.array(x, dtype=float) for x in (dist.w, dist.q_m, dist.prob))
    if not (w.shape == q.shape == p.shape) or w.ndim != 1:
        raise InputError("w, q_m, prob must be 1-d arrays of equal length")
    if not np.isfinite((w, q, p)).all():
        raise InputError("outcomes and probabilities must be finite")
    if p.min(initial=0.0) < 0.0:
        raise InputError(f"outcome probability {float(p.min())!r} is negative")
    total = _sum(p.tolist())
    if abs(total - 1.0) > _SUM_BOUND:
        raise InputError(f"probabilities sum to {total!r}, not 1")
    return DistributionBlock(w, q, np.array(_shares(p.tolist(), n, seed)))
