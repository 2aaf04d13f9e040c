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
with or without coherent control; one point is a 0-d block, and
:func:`enumerate_paths` is that point with its zero-probability outcomes
dropped and the rest sorted.  One row costs more than a plain-Python
loop would, but a command-line run evaluates at most one single point.

Every block function checks its parameter columns in one routine, in
the order one point is checked: cycle, control, theta range, flip bound.
The first failing point (in C order) raises the error it raises alone.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple
from typing import NamedTuple

import numpy as np

from .qstate import ControlSpec, InputError, PhysicsError, _Checked, _check_theta

__all__ = [
    "CycleParams",
    "JointDistribution",
    "DistributionBlock",
    "SampleStats",
    "enumerate_paths",
    "enumerate_block",
    "sample",
]

_CLAMP_TOL = 1e-10  # JointDistribution's tolerances, for arrays passed in
_SUM_TOL = 1e-10
# _enumerate's bound on |row sum - 1|: a path is four factors x or 1 - x
# (a rounding each) and three products, an outcome at most 4 paths and a row
# 9 outcomes, so the nonnegative terms of an exact sum 1 pass through 18
# roundings, within the 32 eps that is_rounding_residue allows chains of 63.
_SUM_BOUND = 32.0 * np.finfo(float).eps

# The path table: one entry per measurement record (n, m, k, l), the
# state indices at the four measurements (0 ground, 1 excited), with
# the integer outcome key (a, b) of W = a nu1 + b nu2 and Q_M = b nu2.
_PATHS = [
    (n, m, k, l, (2 * (n - l), 2 * (k - m)))
    for n in (0, 1)
    for m in (0, 1)
    for k in (0, 1)
    for l in (0, 1)
]

# Outcome key -> indices of its paths in table order.
_OUTCOMES = {
    key: [i for i, (*_, other) in enumerate(_PATHS) if other == key]
    for *_, key in _PATHS
}


class CycleParams(_Checked, namedtuple("CycleParams", "beta nu1 nu2 delta zeta")):
    """All scalar inputs of one Otto cycle.

    beta is the bath inverse temperature (negative values allowed), nu1
    and nu2 the two gaps, delta and zeta the non-adiabatic transition
    probabilities of the expansion and compression strokes.
    """

    __slots__ = ()

    def __new__(cls, beta: float, nu1: float, nu2: float, delta: float, zeta: float):
        cycle = (beta, nu1, nu2, delta, zeta)
        for name, value in zip(cls._fields, cycle):
            if not math.isfinite(value):
                raise InputError(f"{name} must be finite")
        if nu1 <= 0.0 or nu2 <= 0.0:
            raise InputError("gaps nu1, nu2 must be positive")
        if not (0.0 <= delta <= 1.0 and 0.0 <= zeta <= 1.0):
            raise InputError("delta and zeta must lie in [0, 1]")
        return super().__new__(cls, *cycle)

    @property
    def tanh_beta_nu1(self) -> float:
        return math.tanh(self.beta * self.nu1)

    @property
    def swapped(self) -> "CycleParams":
        """Same cycle with delta and zeta exchanged (the backward cycle)."""
        return CycleParams(self.beta, self.nu1, self.nu2, self.zeta, self.delta)


class JointDistribution(_Checked, namedtuple("JointDistribution", "w q_m prob")):
    """Finite joint distribution of (W, Q_M), one entry per distinct outcome;
    its arrays are read-only."""

    __slots__ = ()

    def __new__(cls, w: np.ndarray, q_m: np.ndarray, prob: np.ndarray):
        # copies, so that the caller's arrays stay writable
        w = np.array(w, dtype=float)
        q = np.array(q_m, dtype=float)
        p = np.array(prob, dtype=float)
        if not (w.shape == q.shape == p.shape) or w.ndim != 1:
            raise InputError("w, q_m, prob must be 1-d arrays of equal length")
        if p.min(initial=0.0) < -_CLAMP_TOL:
            raise PhysicsError(
                f"outcome probability {p.min():.3g} below -{_CLAMP_TOL:g}"
            )
        p[p < 0.0] = 0.0
        total = p.sum()
        if abs(total - 1.0) > _SUM_TOL:
            raise PhysicsError(f"probabilities sum to {total!r}, not 1")
        for arr in (w, q, p):
            arr.setflags(write=False)
        return super().__new__(cls, w, q, p)


# The table as columns: the state index at each of the four measurements
# of every path, and the integer coefficients (a, b) of each outcome key
# in ``_OUTCOMES`` order.
_N, _M, _K, _L = (np.array(col) for col in zip(*(path[:4] for path in _PATHS)))
_KEY_A, _KEY_B = (np.array(col, dtype=float) for col in zip(*_OUTCOMES))


class DistributionBlock(NamedTuple):
    """Joint distributions of (W, Q_M) over a grid of parameter points.

    Each array is shaped ``(..., 9)``: the grid's shape, then one entry per
    integer outcome key of the path table, in one fixed order and with
    zero-probability outcomes kept, so every point has the same columns.
    """

    w: np.ndarray
    q_m: np.ndarray
    prob: np.ndarray


def _flip_matrices(p) -> np.ndarray:
    """Symmetric 2x2 transition matrices with flip probabilities p, shaped
    ``p.shape + (2, 2)``."""
    p = np.asarray(p)
    out = np.empty(p.shape + (2, 2))
    out[..., 0, 0] = out[..., 1, 1] = 1.0 - p
    out[..., 0, 1] = out[..., 1, 0] = p
    return out


def _evaluate(beta, nu1, nu2, delta, zeta, channel) -> DistributionBlock:
    """The path table at N points: the one place its probabilities are formed.

    Takes the five cycle parameters as 1-d arrays and ``channel``, the
    (N, 2, 2) transition matrices of the channel in the table's index
    order: ``channel[:, k, m]`` is the probability that it takes state m
    to state k.  Each path's probability is w[n] U[m][n] T[k][m] V[l][k],
    and the paths of each outcome key are summed in table order.  The
    (N, 9) probabilities are neither clamped nor checked.
    """
    with np.errstate(all="ignore"):
        t = np.tanh(beta * nu1)
        weights = np.stack([0.5 * (1.0 + t), 0.5 * (1.0 - t)], axis=-1)
        u, v = _flip_matrices(delta), _flip_matrices(zeta)
        paths = weights[:, _N] * u[:, _M, _N] * channel[:, _K, _M] * v[:, _L, _K]
        prob = np.empty(beta.shape + (len(_OUTCOMES),))
        for col, members in enumerate(_OUTCOMES.values()):
            total = paths[:, members[0]]
            for i in members[1:]:
                total = total + paths[:, i]
            prob[:, col] = total
        w = _KEY_A * nu1[:, None] + _KEY_B * nu2[:, None]
        q = _KEY_B * nu2[:, None]
    return DistributionBlock(w, q, prob)


def _point(block: DistributionBlock) -> JointDistribution:
    """The one point of a block, its arrays shaped (9,): the outcomes of
    nonzero probability, sorted by (W, Q_M, p)."""
    keep = block.prob != 0.0
    w, q, p = block.w[keep], block.q_m[keep], block.prob[keep]
    order = np.lexsort((p, q, w))
    return JointDistribution(w[order], q[order], p[order])


def enumerate_paths(
    params: CycleParams, theta: float, ctrl: ControlSpec | None = None
) -> JointDistribution:
    """Exact forward joint distribution of (W, Q_M): the one point of
    :func:`enumerate_block`, its zero-probability outcomes dropped and the
    rest sorted by (W, Q_M, p).

    W takes values in {0, +-2 nu1, +-2 nu2, +-2(nu2-nu1), +-2(nu1+nu2)}
    and Q_M in {0, +-2 nu2}; paths with the same outcome are merged.
    Under coherent control ``ctrl`` the post-selected branch is the unital
    cycle at the flip probability ``ctrl.flip_probability(theta)``.  The
    measurement channel keeps theta <= 1/2, which keeps that probability
    in [0, 1]; beyond that regime the minus branch can exceed 1 and
    :class:`PhysicsError` is raised.
    """
    control = () if ctrl is None else (ctrl.alpha, ctrl.branch)
    return _point(enumerate_block(*params, theta, *control))


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
    """The six columns broadcast, and the flip probability: theta, or
    :func:`_controlled_flip` when the control's arm weight ``alpha`` is given.

    Checks every point as :class:`CycleParams`, :class:`ControlSpec`, the
    theta range and the flip bound check one, in that order; the first
    failing point (in C order) is replayed through them to raise its error.
    """
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
        # ``ok`` holds exactly the single-point checks, so one of these raises
        i = np.unravel_index(np.argmin(ok), ok.shape)
        CycleParams(*(float(x[i]) for x in columns[:5]))
        if alpha is None:
            _check_theta(float(theta[i]))
        else:  # which checks theta before its bound
            ControlSpec(float(columns[6][i]), branch).flip_probability(float(theta[i]))
    return beta, nu1, nu2, delta, zeta, theta, flip


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
    *cycle, _, flip = _checked_columns(beta, nu1, nu2, delta, zeta, theta, alpha, branch)
    return _enumerate(*cycle, flip)


def _enumerate(beta, nu1, nu2, delta, zeta, flip) -> DistributionBlock:
    """:func:`enumerate_block` on checked columns and the flip probability.
    Every path probability is a product of factors in [0, 1], so none is
    negative; a row whose sum lies further from 1 than its rounding allows
    (``_SUM_BOUND``) raises :class:`PhysicsError`, the first such point in C
    order."""
    shape = flip.shape
    cycle = (x.ravel() for x in (beta, nu1, nu2, delta, zeta))
    block = _evaluate(*cycle, _flip_matrices(flip.ravel()))
    total = block.prob.sum(axis=1)
    failed = np.abs(total - 1.0) > _SUM_BOUND
    if failed.any():
        raise PhysicsError(f"probabilities sum to {float(total[np.argmax(failed)])!r}, not 1")
    out = shape + (len(_OUTCOMES),)
    return DistributionBlock(*(x.reshape(out) for x in block))


class MomentSummary(NamedTuple):
    """Empirical raw moments of one variable, orders 1 through 4."""

    count: int
    raw: tuple[float, float, float, float]

    @property
    def mean(self) -> float:
        return self.raw[0]

    @property
    def variance(self) -> float:
        return self.raw[1] - self.raw[0] ** 2


class SampleStats(NamedTuple):
    """Moments of an i.i.d. sample drawn from a JointDistribution."""

    count: int
    seed: int
    w: MomentSummary
    q_m: MomentSummary


# Above this many uniforms on either side of a median split, the median
# is drawn from its normal limit (see _binomial).
_NORMAL_MEDIAN = 2**40
# At most this many uniforms are compared with p one by one.
_DIRECT_COUNT = 16


def _binomial(rng: random.Random, n: int, p: float) -> int:
    """How many of n uniforms on [0, 1) fall below p: one Binomial(n, p)
    draw from ``rng``, in about log2(n) steps.

    Knuth's median split (TAOCP vol. 2, sec. 3.4.1): the a-th smallest of
    n uniforms, a = (n + 1) // 2, is Beta(a, b) with b = n + 1 - a.  Where
    that median x lies above p, the count is that of the a - 1 uniforms
    below x, uniform on [0, x), below p; otherwise it is a plus that of the
    n - a uniforms above x, uniform on [x, 1), below p.  The last
    ``_DIRECT_COUNT`` or fewer uniforms are compared with p directly.

    ``betavariate`` takes its Gamma draws from Cheng's algorithm, whose
    acceptance test cancels terms of size alpha to O(1) and loses that
    precision as alpha grows: the variance of Gamma(alpha) draws came out
    0.6% high at alpha = 2**46 and 2**48 (400 000 draws, 2.5 and 2.9
    standard errors), 2.5% at 2**50 and 24% at 2**53.  Where a and b both
    exceed ``_NORMAL_MEDIAN`` = 2**40, the median is drawn from its normal
    limit, of mean a / s and variance a b / (s^2 (s + 1)), s = a + b >
    2**41.  The split keeps |a - b| <= 1, so the Beta's skewness gamma is
    below 4 s^(-3/2) and its excess kurtosis kappa is -6 / (s + 3) or
    nearer 0.  To leading (Cornish-Fisher) order, the normal's quantile at
    z misplaces the Beta's by sigma (kappa (z^3 - 3 z) / 24 + gamma (z^2 -
    1) / 6), sigma ~ 1 / (2 sqrt(s)): at most |z^3 - 3 z| / (8 s^(3/2)) +
    |z^2 - 1| / (3 s^2) < 2**-56.8 for |z| <= 6, below an eighth of the
    spacing 2**-54 of doubles near the median 1/2.
    """
    count = 0
    while n > _DIRECT_COUNT and 0.0 < p < 1.0:
        a = (n + 1) // 2
        b = n + 1 - a
        if a > _NORMAL_MEDIAN:  # b >= a
            s = a + b
            x = rng.gauss(a / s, math.sqrt(a * b / (s * s * (s + 1))))
        else:
            x = rng.betavariate(a, b)
        if p < x:
            n, p = a - 1, p / x
        else:
            count += a
            n, p = n - a, (p - x) / (1.0 - x)
    if not 0.0 < p < 1.0:
        return count + (n if p >= 1.0 else 0)
    return count + sum(rng.random() < p for _ in range(n))


def _counts(rng: random.Random, n: int, prob) -> list[int]:
    """How many of n draws fall on each outcome of probabilities ``prob``:
    a chain of binomials, outcome i drawing Binomial(left, min(p_i / rest,
    1)) of the draws the earlier outcomes left, rest = 1 - p_0 - ... -
    p_(i-1), and the last outcome taking what is left."""
    counts, left, rest = [], n, 1.0
    for p in prob[:-1]:
        drawn = _binomial(rng, left, 1.0 if p >= rest else p / rest)
        counts.append(drawn)
        left -= drawn
        rest -= p
    return counts + [left]


def sample(dist: JointDistribution, n: int, seed: int) -> SampleStats:
    """Draw n i.i.d. outcomes with a seeded ``random.Random`` (the standard
    library's MT19937): how many fall on each outcome, drawn as a chain of
    binomials (:func:`_counts`), so neither time nor memory grows with n.

    Deterministic for a fixed seed on one Python version: two calls with
    identical arguments return equal :class:`SampleStats`.
    """
    if n < 1:
        raise InputError("need at least one draw")
    if n > 2**63 - 1:  # the counts are taken as int64
        raise InputError("need at most 2**63 - 1 draws")
    if seed < 0:
        raise InputError("expected non-negative integer")
    # partial sums clamped at 1, so that no leading outcomes hold more than
    # everything; the last outcome takes what the others leave
    prob = np.diff(np.minimum(np.cumsum(dist.prob), 1.0), prepend=0.0)
    counts = _counts(random.Random(seed), n, prob.tolist())
    # the moments of the draws are those of the outcomes weighted by how
    # often each was drawn
    freq = np.array(counts) / n

    def moments(values: np.ndarray) -> MomentSummary:
        raw = tuple(float(freq @ values**k) for k in (1, 2, 3, 4))
        return MomentSummary(count=n, raw=raw)

    return SampleStats(count=n, seed=seed, w=moments(dist.w), q_m=moments(dist.q_m))
