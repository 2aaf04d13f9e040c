"""The package's formulas, written once for Python floats and numpy arrays.

The path table (:func:`_outcomes`), the closed forms of the first two
cumulants (:func:`_first_two`), the characteristic function's log-series
(:func:`_series_cumulants`) and the moment rule (:func:`_moments`) are
plain arithmetic: ``+``, ``-``, ``*``, ``abs`` and :mod:`operator`.  Each
takes t = tanh(beta nu1), by its one rule (:attr:`CycleParams.tanh_beta_nu1`),
and its other columns as floats, at one point, or as numpy arrays of
points, as the array layer (:mod:`.trajectory`, :mod:`.cumulants`)
evaluates grids.  A command-line run at one point (``cumulants``,
``sample``) evaluates them in floats, checks its point with the scalar
validators that a block replays for its first failing point
(:func:`_checked_point`), sums its table as a grid sums a row
(:func:`_point_cumulants`) and draws on the binomial chain
(:func:`_shares`), so it loads no numpy.  This module imports none.
"""

from __future__ import annotations

import math
import operator
import random
import sys
from collections import namedtuple
from typing import TYPE_CHECKING, NamedTuple

from .qstate import ControlSpec, InputError, PhysicsError, _Checked, _check_theta

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "CycleParams",
    "DistributionBlock",
    "FirstTwoCumulants",
    "is_rounding_residue",
]

# The package's one bound on |sum of probabilities - 1|, in a block's rows, a
# point's and sample's: a path is four factors x or 1 - x (a rounding each)
# and three products, an outcome at most 4 paths and a row 9 outcomes, so
# the nonnegative terms of an exact sum 1 pass through 18 roundings, within
# the 32 eps that is_rounding_residue allows chains of 63.
_SUM_BOUND = 32.0 * sys.float_info.epsilon

_RESIDUE = 32.0 * sys.float_info.epsilon  # c eps of is_rounding_residue


def is_rounding_residue(total, magnitude):
    """Whether ``total`` is what rounding leaves of an exact zero,
    elementwise: the package's one zero test for an energy-valued quantity.
    ``magnitude`` is the sum of the magnitudes of the summands ``total``
    came from: sum p |x| for an enumerated mean
    (:func:`~unital_otto.cumulants.mean_magnitudes`), the terms of a closed
    form, the trace bound of a Landau-Zener energy difference.

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
        """t = tanh(beta nu1), the package's one rule: math.tanh of the product."""
        return math.tanh(self.beta * self.nu1)

    @property
    def swapped(self) -> "CycleParams":
        """Same cycle with delta and zeta exchanged (the backward cycle)."""
        return CycleParams(self.beta, self.nu1, self.nu2, self.zeta, self.delta)


class DistributionBlock(NamedTuple):
    """Joint distributions of (W, Q_M) over a grid of parameter points: the
    package's one distribution type.

    From :func:`~unital_otto.trajectory.enumerate_block` each array is
    shaped ``(..., 9)``: the grid's shape, then one entry per integer
    outcome key of the path table, in one fixed order and with
    zero-probability outcomes kept, so every point has the same columns.
    One point's distribution (:func:`~unital_otto.trajectory.enumerate_paths`,
    :func:`~unital_otto.trajectory.sample`) has 1-d arrays, one entry per
    outcome; evaluated in floats (:func:`_point_distribution`), lists.
    """

    w: np.ndarray
    q_m: np.ndarray
    prob: np.ndarray


def _flip(p) -> tuple:
    """The symmetric 2x2 transition matrix of flip probability p as nested
    pairs: ``[k][m]`` is the probability of going from state m to state k."""
    stay = 1.0 - p
    return (stay, p), (p, stay)


def _outcomes(t, nu1, nu2, delta, zeta, channel) -> DistributionBlock:
    """The path table at one point or at N points: the one place its
    probabilities are formed.

    Takes t = tanh(beta nu1), the gaps and stroke probabilities, each a
    float or an (N,) array, and ``channel``, the channel's transition matrix
    as nested pairs of them: ``channel[k][m]`` is the probability that it
    takes state m to state k.  Each path's probability is
    w[n] U[m][n] T[k][m] V[l][k], w = ((1 + t) / 2, (1 - t) / 2), multiplied
    left to right, and the paths of each outcome key are summed in table
    order.  Returns a block of lists, one entry per outcome key in
    ``_OUTCOMES`` order; the probabilities are neither clamped nor checked.
    """
    weights = (0.5 * (1.0 + t), 0.5 * (1.0 - t))
    u, v = _flip(delta), _flip(zeta)
    paths = [weights[n] * u[m][n] * channel[k][m] * v[l][k] for n, m, k, l, _ in _PATHS]
    prob = []
    for members in _OUTCOMES.values():
        total = paths[members[0]]
        for i in members[1:]:
            total = total + paths[i]
        prob.append(total)
    w = [a * nu1 + b * nu2 for a, b in _OUTCOMES]
    return DistributionBlock(w, [b * nu2 for _, b in _OUTCOMES], prob)


def _checked_point(beta, nu1, nu2, delta, zeta, theta, alpha=None, branch: str = "minus"):
    """One point's cycle as the formulas take it: t, the gaps, the strokes
    and the flip probability, theta or the control's (arm weight ``alpha``,
    ``branch``).  Checked in a block's order (cycle, control, theta range,
    flip bound; a controlled flip lies in [0, 1]), so a point raises the
    error that the same point raises in a block, which replays it."""
    params = CycleParams(beta, nu1, nu2, delta, zeta)
    flip = theta if alpha is None else ControlSpec(alpha, branch).flip_probability(theta)
    _check_theta(flip)
    return (params.tanh_beta_nu1, *params[1:], flip)


def _sum(terms) -> float:
    """The sum of ``terms``, floats or arrays, left to right (Python 3.12's
    ``sum`` compensates): every outcome sum, a point's or a grid's."""
    total = 0.0
    for term in terms:
        total += term
    return total


def _point_distribution(t: float, nu1, nu2, delta, zeta, flip) -> DistributionBlock:
    """One checked point's joint distribution in floats, a block's row as
    lists: the nine outcomes in table order, zero-probability ones kept.  A
    sum of probabilities further from 1 than ``_SUM_BOUND`` raises
    :class:`PhysicsError`, as a block's row does."""
    block = _outcomes(t, nu1, nu2, delta, zeta, _flip(flip))
    total = _sum(block.prob)
    if abs(total - 1.0) > _SUM_BOUND:
        raise PhysicsError(f"probabilities sum to {total!r}, not 1")
    return block


def _support(dist: DistributionBlock) -> DistributionBlock:
    """A point's outcomes of nonzero probability, sorted, as tuples."""
    return DistributionBlock(*zip(*sorted(row for row in zip(*dist) if row[2] != 0.0)))


def _moments(values, prob, pivot, mask, magnitudes: bool = False) -> tuple:
    """The first four cumulants of a variable, in table order: the package's
    one moment rule.  ``values`` and ``prob`` hold each outcome's value and
    probability, a float at one point or an array over points.  kappa_1 =
    sum p x; the centred sums, compensated (Kahan), are taken about pivot +
    sum p (x - pivot), ``pivot`` the most probable value, so that a certain
    variable has kappa_2..4 exactly 0.  ``mask(p, x)`` is x where p != 0,
    else 0, where x may have overflowed.  With ``magnitudes``, the same sums
    over |x| about the mean, each a - b read as a + b (as in
    :func:`_first_two`), for :func:`is_rounding_residue`."""
    sub, values = (operator.add, [abs(x) for x in values]) if magnitudes else (operator.sub, values)
    mean = _sum([p * x for p, x in zip(prob, values)])
    centre = mean if magnitudes else pivot + _sum([p * (x - pivot) for p, x in zip(prob, values)])
    total, carry = [0.0] * 3, [0.0] * 3
    for p, x in zip(prob, values):
        centred = mask(p, sub(x, centre))
        sq = centred * centred
        for j, term in enumerate((p * sq, p * (sq * centred), p * (sq * sq))):
            new = total[j] + (term := term - carry[j])
            total[j], carry[j] = new, (new - total[j]) - term
    c2, c3, c4 = total
    return mean, c2, c3, sub(c4, 3.0 * c2 * c2)


def _checked(kw: tuple, kq: tuple) -> tuple:
    """(kw, kq, <Q_T>) of one point's cumulants, <Q_T> = <W> - <Q_M>, checked,
    a block's points too: every value finite, then both variances nonnegative."""
    qt = kw[0] - kq[0]
    if not all(map(math.isfinite, (*kw, *kq, qt))):
        raise InputError("cumulants must be finite")
    if kw[1] < 0.0 or kq[1] < 0.0:
        raise InputError("variances must be nonnegative")
    return kw, kq, qt


def _point_cumulants(dist: DistributionBlock) -> tuple:
    """The first four cumulants of W and of Q_M of a point's distribution
    in floats (:func:`_moments`), and <Q_T>, checked (:func:`_checked`)."""
    i = dist.prob.index(max(dist.prob))  # the most probable outcome, the first of equals
    kappas = (_moments(x, dist.prob, x[i], lambda p, c: c if p != 0.0 else 0.0)
              for x in (dist.w, dist.q_m))
    return _checked(*kappas)


class FirstTwoCumulants(NamedTuple):
    """Closed-form means and variances (second route): floats at one point,
    arrays over a block."""

    w_mean: float
    w_var: float
    qm_mean: float
    qm_var: float
    qt_mean: float


def _first_two(t, nu1, nu2, d, z, theta, magnitudes: bool = False) -> FirstTwoCumulants:
    """The closed-form means and variances of the forward cycle at checked
    columns, t = tanh(beta nu1) and the flip probability ``theta``.  With
    ``magnitudes``, the same expressions with |t| and every difference
    a - b read as a + b: every input is then nonnegative, so each field is
    the sum of its terms' magnitudes, for :func:`is_rounding_residue`.
    Overflow gives inf and inf - inf nan, as Python floats do."""
    sub = operator.add if magnitudes else operator.sub
    t = abs(t) if magnitudes else t
    s = sub(d + z, 2.0 * d * z)
    g = theta + sub(1.0, 2.0 * theta) * s
    stroke = sub(1.0, 2.0 * d)
    qm_mean = 2.0 * stroke * theta * nu2 * t
    nu2_sq = nu2 * nu2
    qm_var = 4.0 * theta * nu2_sq * sub(1.0, stroke * stroke * theta * t * t)
    bath = 2.0 * g * nu1 * t  # the heat given to the bath, -<Q_T>
    spread = g * nu1 + sub(2.0 * d, 1.0) * theta * nu2
    w_var = sub(
        4.0 * g * (nu1 * nu1) + 8.0 * theta * sub(d + z, 1.0) * nu1 * nu2 + 4.0 * theta * nu2_sq,
        4.0 * (spread * spread) * t * t,
    )
    return FirstTwoCumulants(
        w_mean=sub(qm_mean, bath),
        w_var=w_var,
        qm_mean=qm_mean,
        qm_var=qm_var,
        qt_mean=bath if magnitudes else -bath,
    )


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


def _series_cumulants(t: float, nu1: float, nu2: float, d: float, z: float, flip: float) -> tuple:
    """The first four cumulants of W and of Q_M from the exact derivatives of
    ln(chi) at 0, at one checked point in floats, unchecked.

    Along one variable, a term of :func:`_unital_terms` with frequency f has
    Taylor coefficients a_n = (-i f)^n / n!, times sign * t when n is odd.
    The coefficients b_n of ln(chi) follow from the log-series recurrence
    b_n = a_n - (1/n) sum_{k<n} k b_k a_{n-k}, and kappa_n = n! b_n / i^n.
    No step size is involved.
    """
    terms = _unital_terms(nu1, nu2, d, z, flip)

    def kappas(index: int) -> tuple[float, float, float, float]:
        # the coefficients of chi and, for is_rounding_residue, the sums of
        # their terms' magnitudes, |coefficient| |f|^n, with the log
        # series' recurrence run on both
        a, a_mag = [0j] * 5, [0.0] * 5
        for term in terms:
            coeff, f, sign = term[0], term[index], term[3]
            for n in range(5):
                a[n] += coeff * sign * t if n % 2 else coeff
                a_mag[n] += abs(coeff) * abs(t) if n % 2 else abs(coeff)
                coeff *= -1j * f / (n + 1)
        b, b_mag = [0j] * 5, [0.0] * 5
        for n in range(1, 5):
            b[n] = a[n] - sum(k * b[k] * a[n - k] for k in range(1, n)) / n
            b_mag[n] = a_mag[n] + sum(k * b_mag[k] * a_mag[n - k] for k in range(1, n)) / n
        # + 0.0 turns the negative zeros of vanishing coefficients into 0
        k1, *higher = ((math.factorial(n) * b[n] / 1j**n).real + 0.0 for n in range(1, 5))
        # kappa_2..4 cancel where the variable is nearly certain: what
        # rounding leaves of them there is no cumulant
        return k1, *(0.0 if is_rounding_residue(k, math.factorial(n) * b_mag[n]) else k
                     for n, k in enumerate(higher, 2))

    return kappas(1), kappas(2)


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


def _shares(prob, n: int, seed: int) -> list[float]:
    """The shares counts / n of n i.i.d. draws from a checked one-point
    distribution of probabilities ``prob``, drawn as a chain of binomials
    (:func:`_counts`) on a seeded ``random.Random`` (the standard library's
    MT19937), so neither time nor memory grows with n.  Raises
    :class:`InputError` unless 1 <= n <= 2**63 - 1 and seed >= 0."""
    if n < 1:
        raise InputError("need at least one draw")
    if n > 2**63 - 1:  # sample's counts are int64
        raise InputError("need at most 2**63 - 1 draws")
    if seed < 0:
        raise InputError("expected non-negative integer")
    # partial sums clamped at 1, so that no leading outcomes hold more than
    # everything; the last outcome takes what the others leave
    clamped, total, below = [], 0.0, 0.0
    for p in prob:
        total += p
        top = min(total, 1.0)
        clamped.append(top - below)
        below = top
    # each count and n rounded to a float first, as numpy divides them
    return [float(count) / float(n) for count in _counts(random.Random(seed), n, clamped)]
