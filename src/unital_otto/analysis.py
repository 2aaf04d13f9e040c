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
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .cumulants import CumulantSet, closed_form_first_second, cumulants_from_distribution
from .qstate import ControlSpec, PhysicsError
from .trajectory import CycleParams, enumerate_paths

__all__ = [
    "Regime",
    "BoundReport",
    "WorkThreshold",
    "CumulantRatioRecord",
    "ShapeStats",
    "bound_reports_to_csv",
    "classify_regime",
    "classify_regime_means",
    "classify_regime_array",
    "is_rounding_residue",
    "positive_work_threshold",
    "efficiency",
    "verify_bounds",
    "cumulant_ratio_scan",
    "shape_stats",
]

_REGIME_TOL = 1e-12
_BOUND_SLACK = 1e-10
_RESIDUE_ULPS = 8.0 * sys.float_info.epsilon


class Regime(Enum):
    ENGINE = "Engine"
    ACCELERATOR = "Accelerator"
    HEATER = "Heater"
    ENGINE_PRIME = "EnginePrime"
    UNDETERMINED = "Undetermined"

    def __str__(self) -> str:
        return self.value


# The sign rule, keyed by (beta > 0, <W> > 0, <Q_M> > 0, <Q_T> > 0): a
# positive-temperature bath must not feed heat in (Q_T <= 0), a
# negative-temperature one must (Q_T > 0).  Patterns not listed are
# undetermined.
_REGIMES = {
    (True, True, True, False): Regime.ENGINE,
    (True, False, True, False): Regime.ACCELERATOR,
    (True, False, False, False): Regime.HEATER,
    (False, True, False, True): Regime.ENGINE,
    (False, False, False, True): Regime.ACCELERATOR,
    (False, True, True, True): Regime.ENGINE_PRIME,
}

# The same table as a 2 x 2 x 2 x 2 array, for whole grids.
_REGIME_ARRAY = np.full((2, 2, 2, 2), Regime.UNDETERMINED, dtype=object)
for _signs, _regime in _REGIMES.items():
    _REGIME_ARRAY[tuple(map(int, _signs))] = _regime


def classify_regime_means(
    w_mean: float,
    qm_mean: float,
    qt_mean: float,
    beta: float,
    tol: float = _REGIME_TOL,
) -> Regime:
    """Operating mode from the signs of the three mean energy flows.

    Any flow within ``tol`` of zero (or an inconsistent sign pattern,
    or beta = 0) yields UNDETERMINED.
    """
    if abs(beta) <= tol or beta == 0.0:
        return Regime.UNDETERMINED
    if abs(w_mean) <= tol or abs(qm_mean) <= tol or abs(qt_mean) <= tol:
        return Regime.UNDETERMINED
    signs = (beta > 0.0, w_mean > 0.0, qm_mean > 0.0, qt_mean > 0.0)
    return _REGIMES.get(signs, Regime.UNDETERMINED)


def classify_regime_array(w_mean, qm_mean, qt_mean, beta, tol: float = _REGIME_TOL) -> np.ndarray:
    """:func:`classify_regime_means` elementwise over broadcast arrays; an
    object array of :class:`Regime` members."""
    flows = np.broadcast_arrays(beta, w_mean, qm_mean, qt_mean)
    regimes = _REGIME_ARRAY[tuple((x > 0.0).astype(np.intp) for x in flows)]
    beta = flows[0]
    small = (np.abs(beta) <= tol) | (beta == 0.0)
    for flow in flows[1:]:
        small |= np.abs(flow) <= tol
    regimes[small] = Regime.UNDETERMINED
    return regimes


def is_rounding_residue(total, largest):
    """Whether ``total``, a sum whose largest summand has magnitude
    ``largest``, is within a few ulps of that summand: what is left of
    summands that cancel, not a value.  Elementwise on arrays."""
    return abs(total) <= _RESIDUE_ULPS * largest


def classify_regime(cumulants, beta: float, tol: float = _REGIME_TOL) -> Regime:
    """Classify any cumulant record exposing w_mean / qm_mean / qt_mean."""
    return classify_regime_means(
        cumulants.w_mean, cumulants.qm_mean, cumulants.qt_mean, beta, tol
    )


@dataclass(frozen=True)
class WorkThreshold:
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
    d, z, nu1 = params.delta, params.zeta, params.nu1
    if mode == "cs":
        theta = _cs_flip_probability(theta, ctrl)
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


def _cs_flip_probability(theta: float, ctrl: ControlSpec | None) -> float:
    if ctrl is None:
        raise ValueError("cs mode needs a ControlSpec")
    return ctrl.flip_probability(theta)


def _plain_means(params: CycleParams, theta: float):
    fwd = closed_form_first_second(params, theta)
    bwd = closed_form_first_second(params, theta, direction="backward")
    return fwd, bwd


def efficiency(
    params: CycleParams,
    theta: float,
    mode: str = "symmetric",
    ctrl: ControlSpec | None = None,
) -> float:
    """Mean efficiency <W> / <Q_M>.

    ``symmetric`` uses the forward cycle alone (meant for delta = zeta);
    ``asymmetric`` and ``cs`` treat forward and backward on an equal
    footing, (W_F + W_B) / (Q_MF + Q_MB), which is what restores the
    Otto ceiling for asymmetric driving; ``cs`` is ``asymmetric`` at
    ``ctrl.flip_probability(theta)``.  Forward and backward heat that
    cancel to rounding residue count as no heat.
    """
    if mode == "cs":
        theta, mode = _cs_flip_probability(theta, ctrl), "asymmetric"
    if mode == "symmetric":
        fwd = closed_form_first_second(params, theta)
        work, heat = fwd.w_mean, fwd.qm_mean
        largest = abs(heat)
    elif mode == "asymmetric":
        fwd, bwd = _plain_means(params, theta)
        work, heat = fwd.w_mean + bwd.w_mean, fwd.qm_mean + bwd.qm_mean
        largest = max(abs(fwd.qm_mean), abs(bwd.qm_mean))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if abs(heat) < 1e-300 or is_rounding_residue(heat, largest):
        raise PhysicsError("efficiency undefined: no heat absorbed from the channel")
    return work / heat


@dataclass(frozen=True)
class BoundReport:
    """Outcome of checking one inequality ``left <= right``."""

    name: str
    left: float
    right: float
    applicable: bool
    satisfied: bool
    margin: float


def _report(name: str, left: float, right: float, applicable: bool) -> BoundReport:
    return BoundReport(
        name=name,
        left=left,
        right=right,
        applicable=applicable,
        satisfied=bool(left <= right + _BOUND_SLACK),
        margin=right - left,
    )


def verify_bounds(
    params: CycleParams,
    theta: float,
    mode: str = "symmetric",
    ctrl: ControlSpec | None = None,
) -> list[BoundReport]:
    """Evaluate every proved inequality for this parameter point.

    Each report records the stated applicability condition separately
    from whether the comparison held, so an out-of-precondition
    violation is never counted against the proof.
    """
    beta, nu1, nu2 = params.beta, params.nu1, params.nu2
    d, z = params.delta, params.zeta
    otto = 1.0 - nu1 / nu2
    reports: list[BoundReport] = []

    if mode in ("symmetric", "asymmetric"):
        fwd, bwd = _plain_means(params, theta)
        reports.append(_report("qt_nonpositive", fwd.qt_mean, 0.0, beta > 0.0))
        reports.append(
            _report(
                "equal_gap_work_nonpositive",
                fwd.w_mean + bwd.w_mean,
                0.0,
                beta > 0.0 and abs(nu1 - nu2) <= 1e-12,
            )
        )

    if mode == "symmetric":
        work, heat = fwd.w_mean, fwd.qm_mean
        w_var, qm_var = fwd.w_var, fwd.qm_var
        engine = classify_regime_means(work, heat, fwd.qt_mean, beta) is Regime.ENGINE
        eta = work / heat if abs(heat) > 0.0 else math.nan
        ratio = w_var / qm_var if qm_var > 0.0 else math.nan
        # Eq-level preconditions, kept in multiplied-out form so no
        # division by (1 - 2 delta) is needed.
        condnu = (
            2.0 * (1.0 - 2.0 * d) * theta * nu2
            - (theta + 2.0 * d * (1.0 - d) * (1.0 - 2.0 * theta)) * nu1
            >= 0.0
        )
        hopm = (
            (1.0 - 2.0 * d) * theta * nu2
            - (1.0 - d) * (d + theta - 2.0 * d * theta) * nu1
            >= 0.0
        )
        defined = qm_var > 0.0 and abs(heat) > 0.0
        reports.append(_report("eta_le_otto", eta, otto, engine))
        reports.append(_report("eta_sq_le_ratio", eta * eta, ratio, condnu and defined))
        reports.append(_report("ratio_le_one", ratio, 1.0, condnu and defined))
        reports.append(_report("otto_sq_le_ratio", otto * otto, ratio, hopm and qm_var > 0.0))
    elif mode == "asymmetric":
        work, heat = fwd.w_mean + bwd.w_mean, fwd.qm_mean + bwd.qm_mean
        w_var = fwd.w_var + bwd.w_var
        qm_var = fwd.qm_var + bwd.qm_var
        engine = classify_regime_means(work, heat, fwd.qt_mean, beta) is Regime.ENGINE
        eta = work / heat if abs(heat) > 0.0 else math.nan
        ratio = w_var / qm_var if qm_var > 0.0 else math.nan
        s = d + z - 2.0 * d * z
        connu2 = (
            2.0 * theta * (1.0 - d - z) * nu2
            - (theta + (1.0 - 2.0 * theta) * s) * nu1
            >= 0.0
        )
        defined = qm_var > 0.0 and abs(heat) > 0.0
        reports.append(_report("eta_le_otto", eta, otto, engine))
        reports.append(_report("eta_sq_le_ratio", eta * eta, ratio, connu2 and defined))
        reports.append(_report("ratio_le_one", ratio, 1.0, connu2 and defined))
    elif mode == "cs":
        fwd, bwd = _plain_means(params, _cs_flip_probability(theta, ctrl))
        reports.append(
            _report("cs_qt_nonpositive", fwd.qt_mean, 0.0, beta > 0.0 and theta <= 0.5)
        )
        work, heat = fwd.w_mean + bwd.w_mean, fwd.qm_mean + bwd.qm_mean
        engine = classify_regime_means(work, heat, fwd.qt_mean, beta) is Regime.ENGINE
        eta = work / heat if abs(heat) > 0.0 else math.nan
        reports.append(_report("cs_eta_le_otto", eta, otto, engine))
        # Branch ordering of efficiencies around the incoherent cycle.
        try:
            eta_plain = efficiency(params, theta, "asymmetric")
        except PhysicsError:
            eta_plain = math.nan
        comparable = engine and math.isfinite(eta_plain)
        if ctrl.branch == "minus":
            reports.append(_report("cs_eta_branch_order", eta_plain, eta, comparable))
        else:
            reports.append(_report("cs_eta_branch_order", eta, eta_plain, comparable))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return reports


def bound_reports_to_csv(reports, fileobj) -> None:
    """Serialise bound reports with one row per inequality."""
    fileobj.write("bound_name,left,right,applicable,satisfied,margin\n")
    for r in reports:
        fileobj.write(
            f"{r.name},{r.left:.17g},{r.right:.17g},"
            f"{str(r.applicable).lower()},{str(r.satisfied).lower()},{r.margin:.17g}\n"
        )


@dataclass(frozen=True)
class CumulantRatioRecord:
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
    cums = cumulants_from_distribution(enumerate_paths(params, theta))
    eta = cums.w_mean / cums.qm_mean if abs(cums.qm_mean) > 0.0 else math.nan
    num = cums.w[order - 1]
    den = cums.q_m[order - 1]
    eta_power = eta**order
    if abs(den) < 1e-14:
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


@dataclass(frozen=True)
class ShapeStats:
    w_skewness: float
    w_kurtosis: float
    qm_skewness: float
    qm_kurtosis: float


def shape_stats(cumulants: CumulantSet) -> ShapeStats:
    """Skewness kappa3/kappa2^(3/2) and excess kurtosis kappa4/kappa2^2."""
    if cumulants.w[1] <= 0.0 or cumulants.q_m[1] <= 0.0:
        raise PhysicsError("shape statistics undefined for zero variance")
    return ShapeStats(
        w_skewness=cumulants.w[2] / cumulants.w[1] ** 1.5,
        w_kurtosis=cumulants.w[3] / cumulants.w[1] ** 2,
        qm_skewness=cumulants.q_m[2] / cumulants.q_m[1] ** 1.5,
        qm_kurtosis=cumulants.q_m[3] / cumulants.q_m[1] ** 2,
    )
