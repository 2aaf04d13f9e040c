"""Operating regimes, efficiencies, thresholds, fluctuation bounds and the
cumulant-ratio corridor.

The cycle acts as an Engine, Accelerator or Heater for a positive-
temperature bath, and as an Accelerator, Engine or unit-efficiency
EnginePrime when the bath temperature is negative.  Work extraction
requires opening the gap (nu2 > nu1) beyond a theta- and delta-
dependent threshold, and in the engine regime the ratio of work and
heat fluctuations is squeezed between the squared efficiency (indeed
the squared Otto efficiency) and one; the third and fourth cumulant
ratios escape that corridor.  Every bound carries its own applicability
condition: a report can be "violated" only where its precondition
actually held.

Thresholds, efficiencies and bound checks are array arithmetic over
broadcast parameter columns, scalars included: one point is a 0-d block.
Each checks its columns as every block function does, in the order
cycle, control, theta range, flip bound, and raises the first failing
point's own error.  A control weight ``alpha`` puts the points under
coherent control.  Every cycle reads the forward plus backward pair, the
symmetric cycle (V^dagger = U) being its delta = zeta case, and a block
with zeta = delta at every point is checked against the symmetric
cycle's bound too.  Cumulant ratios are read from an enumerated block.

An energy-valued quantity is zero here when it is a rounding residue of
its summands' magnitudes (:func:`~unital_otto.cumulants.is_rounding_residue`),
a comparison holds up to its operands' rounding, beta is zero only at 0
and equal gaps are nu1 == nu2.  A regime, an efficiency, a bound verdict
or a corridor flag is therefore the same in every energy unit.
"""

from __future__ import annotations

import math
from enum import IntEnum
from typing import NamedTuple

import numpy as np

# closed_form_first_second and enumerate_paths are not called here:
# perfbench's tracer and its tests look both names up on this module
from .cumulants import (
    FirstTwoCumulants, _block_moments, _first_two, closed_form_first_second,
    cumulants_from_block, is_rounding_residue,
)
from .qstate import InputError
from .trajectory import DistributionBlock, _checked_columns, enumerate_paths

__all__ = [
    "Regime",
    "BoundReport",
    "CumulantRatioBlock",
    "classify_regime_array",
    "work_threshold_block",
    "efficiency_block",
    "verify_bounds_block",
    "cumulant_ratio_block",
]

# The printed name of each regime, indexed by its code.
_REGIME_LABELS = ("Engine", "Accelerator", "Heater", "EnginePrime", "Undetermined")


class Regime(IntEnum):
    """An operating regime; its value is its code in the arrays of
    :func:`classify_regime_array`, and ``str`` gives its printed name."""

    ENGINE = 0
    ACCELERATOR = 1
    HEATER = 2
    ENGINE_PRIME = 3
    UNDETERMINED = 4

    def __str__(self) -> str:
        return _REGIME_LABELS[self]


# The sign rule, indexed by (beta > 0, <W> > 0, <Q_M> > 0, <Q_T> > 0): a
# positive-temperature bath must not feed heat in (Q_T <= 0), a
# negative-temperature one must (Q_T > 0).  Patterns not set are
# undetermined.
_REGIMES = np.full((2, 2, 2, 2), Regime.UNDETERMINED, dtype=np.int8)
_REGIMES[1, 1, 1, 0] = Regime.ENGINE
_REGIMES[1, 0, 1, 0] = Regime.ACCELERATOR
_REGIMES[1, 0, 0, 0] = Regime.HEATER
_REGIMES[0, 1, 0, 1] = Regime.ENGINE
_REGIMES[0, 0, 0, 1] = Regime.ACCELERATOR
_REGIMES[0, 1, 1, 1] = Regime.ENGINE_PRIME


def classify_regime_array(w_mean, qm_mean, qt_mean, beta, magnitudes) -> np.ndarray:
    """Operating mode from the signs of the three mean energy flows, at
    every point of broadcast arrays: an int8 array of :class:`Regime`
    codes.  ``magnitudes`` holds the flows' magnitudes in the same order,
    as :func:`~unital_otto.cumulants.mean_magnitudes` gives them for an
    enumerated block.  A flow that is a rounding residue
    (:func:`~unital_otto.cumulants.is_rounding_residue`), an inconsistent
    sign pattern, or beta = 0 is UNDETERMINED, so the label does not
    depend on the energy unit."""
    beta, *flows = np.broadcast_arrays(beta, w_mean, qm_mean, qt_mean, *magnitudes)
    flows, magnitudes = flows[:3], flows[3:]
    signs = tuple(np.asarray(x > 0.0, dtype=np.intp) for x in (beta, *flows))
    regimes = np.asarray(_REGIMES[signs])
    zero = beta == 0.0
    for flow, magnitude in zip(flows, magnitudes):
        zero |= is_rounding_residue(flow, magnitude)
    regimes[zero] = Regime.UNDETERMINED
    return regimes


def _quotient(num, den, num_magnitude, den_magnitude) -> tuple:
    """num / den and the magnitude of its rounding to first order,
    (M_num + |q| M_den) / |den|; both ``nan`` where den is a rounding
    residue (:func:`~unital_otto.cumulants.is_rounding_residue`)."""
    defined = ~is_rounding_residue(den, den_magnitude)
    q = np.divide(num, den, out=np.full(np.shape(num), math.nan), where=defined)
    magnitude = num_magnitude + np.abs(q) * den_magnitude
    out = np.full_like(magnitude, math.nan)
    return q, np.divide(magnitude, np.abs(den), out=out, where=defined)


def efficiency_block(
    beta, nu1, nu2, delta, zeta, theta, alpha=None, branch: str = "minus"
) -> np.ndarray:
    """Mean efficiency <W> / <Q_M> at every point of broadcast parameter
    arrays; ``nan`` where no heat is absorbed from the channel.

    It reads forward and backward on an equal footing,
    (W_F + W_B) / (Q_MF + Q_MB), which restores the Otto ceiling for
    asymmetric driving: 1 - (nu1 / nu2)(1 + m) exactly, with the margin m of
    :func:`work_threshold_block`, free of t = tanh(beta nu1).  With the
    control's arm weight ``alpha`` on ``branch`` the pair is read at the
    controlled flip probability.  Heat that is a rounding residue
    (:func:`~unital_otto.cumulants.is_rounding_residue`), as where forward
    and backward heat cancel, counts as no heat.
    """
    t, _, *cycle, _, flip = _checked_columns(beta, nu1, nu2, delta, zeta, theta, alpha, branch)
    return _efficiency(t, *cycle, flip)[0]


@np.errstate(divide="ignore", invalid="ignore")  # p = 0 or delta + zeta = 1
def _margin(d, z, flip) -> tuple:
    """The margin m of :func:`work_threshold_block` and its rounding's
    magnitude |m|: nonnegative terms over p (1 - delta - zeta), the rounding
    of 1 - delta (exact, Fast2Sum) added after the cancellation."""
    num = (1.0 - flip) * (d * (1.0 - z) + z * (1.0 - d)) + 2.0 * flip * d * z
    rest = 1.0 - d
    m = num / (flip * ((rest - z) - ((rest - 1.0) + d)))
    return m, np.abs(m)


@np.errstate(over="ignore", invalid="ignore")
def _efficiency(t, nu1, nu2, d, z, flip) -> tuple:
    """:func:`efficiency_block` on checked columns, t in place of beta, and
    the flip probability, 1 - r (1 + m) with r = nu1 / nu2, then r m and its
    magnitude: ``nan`` where the pair's heat, the closed form's
    2 (1 - 2 x) p nu2 t at x = delta and zeta, is a rounding residue.  Where
    the heat's magnitude overflows, the test, homogeneous in the terms'
    common factor 2 nu2, reads the terms without it."""
    # the two terms, then their magnitudes, with and without 2 nu2
    terms = [(sub(1.0, 2.0 * x), u) for sub, u in ((np.subtract, t), (np.add, np.abs(t)))
             for x in (d, z)]
    heat = [2.0 * a * flip * nu2 * u for a, u in terms]
    reduced = [a * flip * u for a, u in terms]
    residue = np.where(np.isfinite(heat[2] + heat[3]),
                       *(is_rounding_residue(x[0] + x[1], x[2] + x[3]) for x in (heat, reduced)))
    r = np.where(residue, math.nan, nu1 / nu2)
    m, m_mag = _margin(d, z, flip)
    return 1.0 - r * (1.0 + m), r * m, r * m_mag


def _pair_means(t, nu1, nu2, d, z, flip) -> tuple:
    """The closed form that every cycle reads, forward plus backward field by
    field, and its magnitudes; then the forward cycle's.  At delta = zeta
    (the symmetric cycle) each sum doubles the forward field exactly, so
    every quotient and residue test reads as on the forward cycle.  The
    backward cycle is the forward one at (zeta, delta)."""
    fwd, fwd_mag, bwd, bwd_mag = (_first_two(t, nu1, nu2, *strokes, flip, magnitudes)
                                  for strokes in ((d, z), (z, d))
                                  for magnitudes in (False, True))
    pair = FirstTwoCumulants(*map(np.add, fwd, bwd))
    return pair, FirstTwoCumulants(*map(np.add, fwd_mag, bwd_mag)), fwd, fwd_mag


def work_threshold_block(
    beta, nu1, nu2, delta, zeta, theta, alpha=None, branch: str = "minus"
) -> np.ndarray:
    """The gap nu2_min at which the mean work turns positive, at every point
    of broadcast parameter arrays checked as :func:`efficiency_block` checks
    them; beta and nu2 are not read.  It reads the work that
    :func:`efficiency_block` reads, forward plus backward, at theta or the
    control's flip probability p: nu2_min = nu1 + nu1 m with the margin
    m = [(1 - p) s + 2 p delta zeta] / (p (1 - delta - zeta)),
    s = delta + zeta - 2 delta zeta.  m is computed from nonnegative terms,
    so nu2_min is at least nu1 in floats as it is exactly.  For beta > 0
    the work is zero at nu2_min and positive beyond.  ``inf`` wherever no
    gap works: theta = 0 or delta + zeta >= 1."""
    _, _, nu1, _, d, z, _, flip = _checked_columns(
        beta, nu1, nu2, delta, zeta, theta, alpha, branch
    )
    # the pair's work over 4 t is
    # p (1 - delta - zeta) (nu2 - nu1) - ((1 - p) s + 2 p delta zeta) nu1
    with np.errstate(over="ignore"):
        nu2_min = nu1 + nu1 * _margin(d, z, flip)[0]
    return np.where((flip > 0.0) & (d + z < 1.0), nu2_min, math.inf)


class BoundReport(NamedTuple):
    """Outcome of checking one inequality ``left <= right`` at every point
    of a block: arrays of its shape, 0-d at one point."""

    name: str
    left: np.ndarray
    right: np.ndarray
    applicable: np.ndarray
    satisfied: np.ndarray
    margin: np.ndarray


def _report(name: str, left, right, applicable, magnitude, margin=None) -> BoundReport:
    """The report of ``left <= right`` where ``applicable``.  The comparison
    holds where right - left, or ``margin`` given as that difference free of
    cancellation, is nonnegative or a rounding residue of ``magnitude``, its
    magnitude: the operands' rounding and nothing more.  Each field is an array of the block's shape with
    cells of its own: an operand of another shape (a constant bound) is
    broadcast and copied."""
    shape = np.broadcast(left, right, applicable).shape
    left, right, applicable = (
        np.asarray(x) if np.shape(x) == shape else np.full(shape, x)
        for x in (left, right, applicable)
    )
    margin = right - left if margin is None else margin
    return BoundReport(
        name=name,
        left=left,
        right=right,
        applicable=applicable,
        satisfied=(margin >= 0.0) | is_rounding_residue(margin, magnitude),
        margin=margin,
    )


def verify_bounds_block(
    beta, nu1, nu2, delta, zeta, theta, alpha=None, branch: str = "minus"
) -> list[BoundReport]:
    """Evaluate every proved inequality of the cycle at every point of
    broadcast parameter arrays: one :class:`BoundReport` per bound, its
    fields arrays of the broadcast shape.

    Each report records the stated applicability condition separately
    from whether the comparison held, so an out-of-precondition
    violation is never counted against the proof.  The control (``alpha``,
    ``branch``) is that of :func:`efficiency_block`, whose means the bounds
    read.  Under control the bounds are the coherently controlled cycle's;
    otherwise they are the unital cycle's, and where zeta = delta at every
    point the symmetric cycle's ``otto_sq_le_ratio`` is added.
    """
    columns = _checked_columns(beta, nu1, nu2, delta, zeta, theta, alpha, branch)
    control = None if alpha is None else branch
    return _bounds(*columns, control, bool((columns[4] == columns[5]).all()))


@np.errstate(over="ignore", invalid="ignore")
def _bounds(t, beta, nu1, nu2, d, z, theta, flip, control, symmetric: bool) -> list[BoundReport]:
    """:func:`verify_bounds_block` on its checked columns, t first: beta is
    read for its sign alone, ``control`` is the control's branch or None,
    and ``symmetric`` whether zeta = delta at every point."""
    cycle = (t, nu1, nu2, d, z)
    means, mags, fwd, fwd_mag = _pair_means(*cycle, flip)
    otto, otto_mag = 1.0 - nu1 / nu2, 1.0 + nu1 / nu2
    reports: list[BoundReport] = []

    if control is not None:
        heated = (beta > 0.0) & (theta <= 0.5)
        reports.append(_report("cs_qt_nonpositive", fwd.qt_mean, 0.0, heated, fwd_mag.qt_mean))
    else:
        reports.append(_report("qt_nonpositive", fwd.qt_mean, 0.0, beta > 0.0, fwd_mag.qt_mean))
        # equal gaps are nu1 == nu2: nu1 - nu2 is exact for gaps within a
        # factor of 2 of each other (Sterbenz), so a tolerance on it would
        # only admit unequal gaps
        equal = (beta > 0.0) & (nu1 == nu2)
        reports.append(
            _report("equal_gap_work_nonpositive", means.w_mean, 0.0, equal, mags.w_mean)
        )
    flows = (means.w_mean, means.qm_mean, fwd.qt_mean)
    magnitudes = (mags.w_mean, mags.qm_mean, fwd_mag.qt_mean)
    engine = classify_regime_array(*flows, beta, magnitudes) == Regime.ENGINE
    eta, below, below_mag = _efficiency(*cycle, flip)  # eta = otto - below

    if control is not None:
        reports.append(_report("cs_eta_le_otto", eta, otto, engine, below_mag, below))
        # Branch ordering around the incoherent cycle: eta - plain on minus
        plain, plain_below, plain_mag = _efficiency(*cycle, theta)
        sign = 1.0 if control == "minus" else -1.0
        reports.append(_report("cs_eta_branch_order", *(plain, eta)[::int(sign)],
                               engine & np.isfinite(plain), plain_mag + below_mag,
                               sign * (plain_below - below)))
        return reports

    # Eq-level preconditions, kept in multiplied-out form so no division by
    # (1 - 2 delta) is needed.  Each is written once with ``sub`` for a - b:
    # its value, and with a + b (on nonnegative inputs) its magnitude; a
    # residue counts as 0, which meets the precondition.
    def held(precondition) -> np.ndarray:
        value, magnitude = precondition(np.subtract), precondition(np.add)
        return (value >= 0.0) | is_rounding_residue(value, magnitude)

    # the corridor eta^2 <= ratio <= 1, with s = delta + zeta - 2 delta zeta
    corridor = held(lambda sub: sub(
        2.0 * theta * sub(sub(1.0, d), z) * nu2,
        (theta + sub(1.0, 2.0 * theta) * sub(d + z, 2.0 * d * z)) * nu1,
    ))
    ratio, ratio_mag = _quotient(means.w_var, means.qm_var, mags.w_var, mags.qm_var)
    corridor &= ~np.isnan(ratio) & ~np.isnan(eta)
    reports.append(_report("eta_le_otto", eta, otto, engine, below_mag, below))
    eta_sq_mag = 2.0 * np.abs(eta) * (otto_mag + below_mag) + ratio_mag
    reports.append(_report("eta_sq_le_ratio", eta * eta, ratio, corridor, eta_sq_mag))
    reports.append(_report("ratio_le_one", ratio, 1.0, corridor, ratio_mag))
    if symmetric:
        hopm = held(lambda sub: sub(
            sub(1.0, 2.0 * d) * theta * nu2, sub(1.0, d) * sub(d + theta, 2.0 * d * theta) * nu1
        ))
        otto_sq_mag = 2.0 * np.abs(otto) * otto_mag + ratio_mag
        spread = ~np.isnan(ratio)
        reports.append(_report("otto_sq_le_ratio", otto * otto, ratio, hopm & spread, otto_sq_mag))
    return reports


class CumulantRatioBlock(NamedTuple):
    """kappa_n(W) / kappa_n(Q_M) and where it leaves the corridor [eta^n, 1]:
    arrays of the block's shape, 0-d at one point."""

    ratio: np.ndarray
    eta_power: np.ndarray
    below_eta_power: np.ndarray
    above_one: np.ndarray
    sign_mismatch: np.ndarray
    undefined: np.ndarray


@np.errstate(over="ignore", invalid="ignore")
def cumulant_ratio_block(block: DistributionBlock, order: int) -> CumulantRatioBlock:
    """kappa_n(W) / kappa_n(Q_M), n = ``order`` in 2..4, at every point of an
    enumerated block (:func:`~unital_otto.trajectory.enumerate_block`, or one
    point's distribution), and eta^n, eta = <W> / <Q_M>.  Each quotient is
    ``nan`` where its denominator is a rounding residue; a ``nan`` ratio is
    ``undefined`` and sets no other flag.  The corridor flags mark
    comparisons that fail beyond their operands' rounding, ``sign_mismatch``
    a kappa_n(W) beyond its residue of the opposite sign to kappa_n(Q_M).
    The second cumulants keep to [eta^2, 1] under the precondition of the
    ``eta_sq_le_ratio`` bound; the third and fourth escape on both sides.
    """
    # an integer, numpy's included: a float 2.0 equals 2 but indexes nothing
    if not isinstance(order, (int, np.integer)) or order not in (2, 3, 4):
        raise InputError("order must be 2, 3 or 4")
    cums = cumulants_from_block(block)
    mw, mq = _block_moments(block, magnitudes=True)
    n = order - 1
    eta, eta_mag = _quotient(cums.w[..., 0], cums.q_m[..., 0], mw[..., 0], mq[..., 0])
    num, den = cums.w[..., n], cums.q_m[..., n]
    ratio, ratio_mag = _quotient(num, den, mw[..., n], mq[..., n])
    eta_power = eta**order
    # to first order, d(eta^n) = n eta^(n-1) d eta
    power_mag = order * np.abs(eta) ** n * eta_mag
    undefined = np.isnan(ratio)
    # the corridor's two comparisons, where both sides are numbers
    lower = _report("eta_power_le_ratio", eta_power, ratio, ~np.isnan(ratio - eta_power),
                    ratio_mag + power_mag)
    upper = _report("ratio_le_one", ratio, 1.0, ~undefined, ratio_mag)
    return CumulantRatioBlock(
        ratio=ratio,
        eta_power=eta_power,
        below_eta_power=lower.applicable & ~lower.satisfied,
        above_one=upper.applicable & ~upper.satisfied,
        sign_mismatch=~undefined & ~is_rounding_residue(num, mw[..., n]) & (num * den < 0.0),
        undefined=undefined,
    )
