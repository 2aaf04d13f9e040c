"""Operating regimes, efficiencies, thresholds and fluctuation bounds.

The cycle acts as an Engine, Accelerator or Heater for a positive-
temperature bath, and as an Accelerator, Engine or unit-efficiency
EnginePrime when the bath temperature is negative.  Work extraction
requires opening the gap (nu2 > nu1) beyond a theta- and delta-
dependent threshold, and in the engine regime the ratio of work and
heat fluctuations is squeezed between the squared efficiency (indeed
the squared Otto efficiency) and one.  Every bound carries its own
applicability condition: a report can be "violated" only where its
precondition actually held.

Efficiencies and bound checks are array arithmetic over broadcast
parameter columns (:func:`efficiency_block`, :func:`verify_bounds_block`),
scalars included: one point is a 0-d block.  Both check their columns as
every block function does, in the order cycle, control, theta range, flip
bound, and raise the first failing point's own error.
"""

from __future__ import annotations

import math
from enum import IntEnum
from typing import NamedTuple

import numpy as np

# closed_form_first_second is not called here: perfbench's tracer and its
# tests look the name up on this module
from .cumulants import (
    _closed_form, closed_form_first_second, cumulants_from_block, is_rounding_residue,
)
from .qstate import ControlSpec, PhysicsError
from .trajectory import CycleParams, _check_theta, _checked_columns, enumerate_paths

__all__ = [
    "Regime",
    "BoundReport",
    "WorkThreshold",
    "CumulantRatioRecord",
    "bound_reports_to_csv",
    "classify_regime_array",
    "positive_work_threshold",
    "efficiency_block",
    "verify_bounds_block",
    "cumulant_ratio_scan",
]

_REGIME_TOL = 1e-12
_BOUND_SLACK = 1e-10


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


def classify_regime_array(w_mean, qm_mean, qt_mean, beta) -> np.ndarray:
    """Operating mode from the signs of the three mean energy flows, at
    every point of broadcast arrays: an int8 array of :class:`Regime`
    codes.  A flow within ``_REGIME_TOL`` of zero, an inconsistent sign
    pattern, or beta within ``_REGIME_TOL`` of 0 is UNDETERMINED."""
    flows = np.broadcast_arrays(beta, w_mean, qm_mean, qt_mean)
    signs = tuple(np.asarray(x > 0.0, dtype=np.intp) for x in flows)
    regimes = np.asarray(_REGIMES[signs])
    beta = flows[0]
    small = (np.abs(beta) <= _REGIME_TOL) | (beta == 0.0)
    for flow in flows[1:]:
        small |= np.abs(flow) <= _REGIME_TOL
    regimes[small] = Regime.UNDETERMINED
    return regimes


class WorkThreshold(NamedTuple):
    """Minimal nu2 for positive mean work; ``strict`` records > vs >=."""

    nu2_min: float
    strict: bool
    mode: str


def positive_work_threshold(
    params: CycleParams,
    theta: float,
    mode: str = "symmetric",
    ctrl: ControlSpec | None = None,
) -> WorkThreshold:
    """Gap threshold above which the mean extracted work turns positive.

    Modes: ``symmetric`` (delta = zeta cycle, forward work),
    ``asymmetric`` (positivity of the forward + backward sum) and
    ``cs`` (coherently controlled symmetric cycle; needs ``ctrl``; the
    symmetric threshold at ``ctrl.flip_probability(theta)``).
    Returns ``inf`` when no finite gap can make work positive.
    """
    _check_theta(theta)
    d, z, nu1 = params.delta, params.zeta, params.nu1
    if mode == "cs":
        if ctrl is None:
            raise ValueError("cs mode needs a ControlSpec")
        theta = ctrl.flip_probability(theta)
    if mode in ("symmetric", "cs"):
        if d >= 0.5:
            raise PhysicsError(f"no {mode} threshold: delta >= 1/2 makes Q_M <= 0")
        if theta <= 0.0:
            return WorkThreshold(math.inf, True, mode)
        num = theta + 2.0 * d * (1.0 - 2.0 * theta) * (1.0 - d)
        return WorkThreshold(num * nu1 / (theta * (1.0 - 2.0 * d)), True, mode)
    if mode == "asymmetric":
        if theta <= 0.0 or d + z >= 1.0:
            return WorkThreshold(math.inf, False, mode)
        s = d + z - 2.0 * d * z
        num = theta + (1.0 - 2.0 * theta) * s
        return WorkThreshold(num * nu1 / (theta * (1.0 - d - z)), False, mode)
    raise ValueError(f"unknown mode {mode!r}")


def _checked(beta, nu1, nu2, delta, zeta, theta, mode: str, alpha, branch: str) -> tuple:
    """Checked columns and the flip probability of ``mode``."""
    if mode not in ("symmetric", "asymmetric", "cs"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "cs" and alpha is None:
        raise ValueError("cs mode needs a control weight alpha")
    control = (alpha, branch) if mode == "cs" else ()
    return _checked_columns(beta, nu1, nu2, delta, zeta, theta, *control)


def _divide(num, den, defined) -> np.ndarray:
    """num / den where ``defined``, nan elsewhere."""
    return np.divide(num, den, out=np.full(np.shape(num), math.nan), where=defined)


def efficiency_block(
    beta, nu1, nu2, delta, zeta, theta, mode: str = "symmetric",
    alpha=None, branch: str = "minus",
) -> np.ndarray:
    """Mean efficiency <W> / <Q_M> at every point of broadcast parameter
    arrays; ``nan`` where no heat is absorbed from the channel.

    ``symmetric`` uses the forward cycle alone (meant for delta = zeta);
    ``asymmetric`` and ``cs`` treat forward and backward on an equal
    footing, (W_F + W_B) / (Q_MF + Q_MB), which is what restores the
    Otto ceiling for asymmetric driving; ``cs`` is ``asymmetric`` at the
    flip probability of the control with arm weight ``alpha`` on
    ``branch``.  Forward and backward heat that cancel to rounding
    residue count as no heat.
    """
    *cycle, _, flip = _checked(beta, nu1, nu2, delta, zeta, theta, mode, alpha, branch)
    return _efficiency(*cycle, flip, mode)


@np.errstate(over="ignore", invalid="ignore")
def _efficiency(beta, nu1, nu2, delta, zeta, flip, mode: str) -> np.ndarray:
    """:func:`efficiency_block` on checked columns and the flip probability."""
    cycle = (beta, nu1, nu2, delta, zeta)
    fwd = _closed_form(*cycle, flip)
    if mode == "symmetric":
        work, heat = fwd.w_mean, fwd.qm_mean
        largest = np.abs(heat)
    else:
        bwd = _closed_form(*cycle, flip, "backward")
        work, heat = fwd.w_mean + bwd.w_mean, fwd.qm_mean + bwd.qm_mean
        largest = np.maximum(np.abs(fwd.qm_mean), np.abs(bwd.qm_mean))
    no_heat = (np.abs(heat) < 1e-300) | is_rounding_residue(heat, largest)
    return _divide(work, heat, ~no_heat)


class BoundReport(NamedTuple):
    """Outcome of checking one inequality ``left <= right`` at every point
    of a block: arrays of its shape, 0-d at one point."""

    name: str
    left: np.ndarray
    right: np.ndarray
    applicable: np.ndarray
    satisfied: np.ndarray
    margin: np.ndarray


def _report(name: str, left, right, applicable) -> BoundReport:
    """The report of ``left <= right`` where ``applicable``.  Each field is
    an array of the block's shape with cells of its own: an operand of
    another shape (a constant bound) is broadcast and copied."""
    shape = np.broadcast(left, right, applicable).shape
    left, right, applicable = (
        np.asarray(x) if np.shape(x) == shape else np.full(shape, x)
        for x in (left, right, applicable)
    )
    return BoundReport(
        name=name,
        left=left,
        right=right,
        applicable=applicable,
        satisfied=left <= right + _BOUND_SLACK,
        margin=right - left,
    )


def verify_bounds_block(
    beta, nu1, nu2, delta, zeta, theta, mode: str = "symmetric",
    alpha=None, branch: str = "minus",
) -> list[BoundReport]:
    """Evaluate every proved inequality of ``mode`` at every point of
    broadcast parameter arrays: one :class:`BoundReport` per bound, its
    fields arrays of the broadcast shape.

    Each report records the stated applicability condition separately
    from whether the comparison held, so an out-of-precondition
    violation is never counted against the proof.  Modes and the control
    (``alpha``, ``branch``) are those of :func:`efficiency_block`.
    """
    columns = _checked(beta, nu1, nu2, delta, zeta, theta, mode, alpha, branch)
    return _bounds(*columns, mode, branch)


@np.errstate(over="ignore", invalid="ignore")
def _bounds(beta, nu1, nu2, d, z, theta, flip, mode: str, branch: str) -> list[BoundReport]:
    """:func:`verify_bounds_block` on checked columns and the flip probability."""
    cycle = (beta, nu1, nu2, d, z)
    fwd = _closed_form(*cycle, flip)
    bwd = _closed_form(*cycle, flip, "backward")
    work, heat = fwd.w_mean + bwd.w_mean, fwd.qm_mean + bwd.qm_mean
    otto = 1.0 - nu1 / nu2
    reports: list[BoundReport] = []

    if mode == "cs":
        reports.append(
            _report("cs_qt_nonpositive", fwd.qt_mean, 0.0, (beta > 0.0) & (theta <= 0.5))
        )
    else:
        reports.append(_report("qt_nonpositive", fwd.qt_mean, 0.0, beta > 0.0))
        reports.append(
            _report(
                "equal_gap_work_nonpositive",
                work,
                0.0,
                (beta > 0.0) & (np.abs(nu1 - nu2) <= 1e-12),
            )
        )
    if mode == "symmetric":
        work, heat = fwd.w_mean, fwd.qm_mean  # the forward cycle alone
    engine = classify_regime_array(work, heat, fwd.qt_mean, beta) == Regime.ENGINE
    eta = _divide(work, heat, np.abs(heat) > 0.0)

    if mode == "cs":
        reports.append(_report("cs_eta_le_otto", eta, otto, engine))
        # Branch ordering of efficiencies around the incoherent cycle.
        eta_plain = _efficiency(*cycle, theta, "asymmetric")
        comparable = engine & np.isfinite(eta_plain)
        pair = (eta_plain, eta) if branch == "minus" else (eta, eta_plain)
        reports.append(_report("cs_eta_branch_order", *pair, comparable))
        return reports

    # Eq-level preconditions of the corridor eta^2 <= ratio <= 1, kept in
    # multiplied-out form so no division by (1 - 2 delta) is needed.
    if mode == "symmetric":
        w_var, qm_var = fwd.w_var, fwd.qm_var
        corridor = (
            2.0 * (1.0 - 2.0 * d) * theta * nu2
            - (theta + 2.0 * d * (1.0 - d) * (1.0 - 2.0 * theta)) * nu1
            >= 0.0
        )
    else:
        w_var, qm_var = fwd.w_var + bwd.w_var, fwd.qm_var + bwd.qm_var
        s = d + z - 2.0 * d * z
        corridor = (
            2.0 * theta * (1.0 - d - z) * nu2
            - (theta + (1.0 - 2.0 * theta) * s) * nu1
            >= 0.0
        )
    ratio = _divide(w_var, qm_var, qm_var > 0.0)
    corridor &= (qm_var > 0.0) & (np.abs(heat) > 0.0)
    reports.append(_report("eta_le_otto", eta, otto, engine))
    reports.append(_report("eta_sq_le_ratio", eta * eta, ratio, corridor))
    reports.append(_report("ratio_le_one", ratio, 1.0, corridor))
    if mode == "symmetric":
        hopm = (
            (1.0 - 2.0 * d) * theta * nu2
            - (1.0 - d) * (d + theta - 2.0 * d * theta) * nu1
            >= 0.0
        )
        reports.append(_report("otto_sq_le_ratio", otto * otto, ratio, hopm & (qm_var > 0.0)))
    return reports


def bound_reports_to_csv(reports, fileobj) -> None:
    """Serialise the reports of one point (0-d blocks) with one row per
    inequality; a negative zero prints as 0."""
    fileobj.write("bound_name,left,right,applicable,satisfied,margin\n")
    for r in reports:
        fileobj.write(
            f"{r.name},{r.left + 0.0:.17g},{r.right + 0.0:.17g},"
            f"{str(r.applicable).lower()},{str(r.satisfied).lower()},{r.margin + 0.0:.17g}\n"
        )


class CumulantRatioRecord(NamedTuple):
    """kappa_n(W) / kappa_n(Q_M) with its bound-violation flags."""

    order: int
    ratio: float
    eta_power: float
    below_eta_power: bool
    above_one: bool
    sign_mismatch: bool
    undefined: bool


def cumulant_ratio_scan(
    params: CycleParams, theta: float, order: int
) -> CumulantRatioRecord:
    """Flag where a cumulant ratio escapes the [eta^n, 1] corridor.

    Cumulants come from exact enumeration; eta is the forward-cycle
    efficiency.  The second-cumulant corridor is a theorem (under its
    precondition); for orders three and four escapes and sign
    mismatches do occur.
    """
    if order not in (2, 3, 4):
        raise ValueError("order must be 2, 3 or 4")
    dist = enumerate_paths(params, theta)
    cums = cumulants_from_block(dist)
    kw, kq = cums.w.tolist(), cums.q_m.tolist()  # the record holds Python floats
    # <Q_M> cancelled to rounding residue is no heat, as in efficiency
    no_heat = is_rounding_residue(kq[0], float(np.max(np.abs(dist.prob * dist.q_m))))
    eta = math.nan if no_heat else kw[0] / kq[0]
    num, den = kw[order - 1], kq[order - 1]
    eta_power = eta**order
    # den has dimension energy^order: compare it with the largest |Q_M|
    # outcome, 2 nu2, to that power
    if abs(den) < 1e-14 * (2.0 * params.nu2) ** order:
        return CumulantRatioRecord(order, math.nan, eta_power, False, False, False, True)
    ratio = num / den
    return CumulantRatioRecord(
        order=order,
        ratio=ratio,
        eta_power=eta_power,
        below_eta_power=bool(ratio < eta_power),
        above_one=bool(ratio > 1.0),
        sign_mismatch=bool(num * den < 0.0),
        undefined=False,
    )
