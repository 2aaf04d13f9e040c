"""Landau-Zener instance: monitored vs unmonitored cycle comparison.

For linear driving through an avoided crossing the stroke unitaries are
fixed up to the transition probability delta and a phase phi:

    U = sqrt(1-delta) (e^{i phi}|+><+| + e^{-i phi}|-><-|)
        + sqrt(delta) (|+><-| - |-><+|),          V = C U^dag C,

with C the entrywise complex conjugation in the energy basis.  The heat
source is the projective measurement channel tilted by alpha_m with
phase chi.  The monitored cycle sees only the transition probabilities
(theta = sin^2(alpha_m)/2) and is blind to phi and chi; the unmonitored
cycle propagates the full density matrix, so surviving coherences feed
the compression stroke and its averages pick up a cos(phi + chi)
interference term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterable

import numpy as np

from .analysis import _REGIME_TOL, Regime, _divide, classify_regime_array
from .cumulants import closed_form_block, closed_form_first_second, is_rounding_residue
from .qstate import MeasurementChannel, hamiltonian, thermal_state
from .trajectory import CycleParams

__all__ = [
    "LZParams",
    "CycleAverages",
    "ComparisonRow",
    "lz_unitaries",
    "unmonitored_cycle",
    "qm_unmonitored_closed_form",
    "monitored_averages",
    "monitored_vs_unmonitored",
    "comparison_to_csv",
]


@dataclass(frozen=True)
class LZParams:
    """Inputs of one Landau-Zener cycle; the cycle is symmetric (zeta = delta)."""

    delta: float
    phi: float
    channel: MeasurementChannel
    cycle: CycleParams

    def __post_init__(self):
        if not math.isfinite(self.phi):
            raise ValueError("phi must be finite")
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError("delta must lie in [0, 1]")
        if self.cycle.delta != self.delta or self.cycle.zeta != self.delta:
            raise ValueError("Landau-Zener cycle requires zeta = delta in CycleParams")

    @classmethod
    def build(
        cls,
        beta: float,
        nu1: float,
        nu2: float,
        delta: float,
        phi: float = 0.0,
        alpha_m: float = math.pi / 2.0,
        chi: float = 0.0,
    ) -> "LZParams":
        return cls(
            delta=delta,
            phi=phi,
            channel=MeasurementChannel(alpha_m, chi),
            cycle=CycleParams(beta, nu1, nu2, delta, delta),
        )

    def with_delta(self, delta: float) -> "LZParams":
        return LZParams.build(
            self.cycle.beta,
            self.cycle.nu1,
            self.cycle.nu2,
            delta,
            self.phi,
            self.channel.alpha_m,
            self.channel.chi,
        )


def lz_unitaries(delta, phi: float) -> tuple[np.ndarray, np.ndarray]:
    """Expansion and compression unitaries (U, V) in the energy basis, at
    every delta: stacks shaped ``np.shape(delta) + (2, 2)``.

    The phase convention is pinned by the unmonitored heat: with this U
    the interference term of <Q_M>um comes out as +cos(phi + chi).  The
    transition probabilities are |<+2|U|-1>|^2 = |<+1|V|-2>|^2 = delta
    regardless of the convention.
    """
    delta = np.asarray(delta, dtype=float)
    root_stay = np.sqrt(1.0 - delta)
    root_jump = np.sqrt(delta)
    phase = np.exp(1.0j * phi)
    u = np.empty(delta.shape + (2, 2), dtype=complex)
    u[..., 0, 0] = root_stay * phase
    u[..., 0, 1] = root_jump
    u[..., 1, 0] = -root_jump
    u[..., 1, 1] = root_stay * np.conj(phase)
    # V = C U^dag C with C the entrywise conjugation, i.e. conj(U^dag) = U^T
    v = np.swapaxes(u, -1, -2).copy()
    return u, v


@dataclass(frozen=True)
class CycleAverages:
    """Mean energies at the four cycle points and the derived flows:
    floats at one point, arrays over a delta column."""

    e1: float
    e2: float
    e3: float
    e4: float
    w: float
    q_m: float
    q_t: float
    eta: float


def _row(block: CycleAverages) -> CycleAverages:
    """The one point of a 0-d block, as floats."""
    return CycleAverages(*(float(getattr(block, f.name)) for f in fields(block)))


def unmonitored_cycle(params: LZParams) -> CycleAverages:
    """Averages of the unmonitored cycle by direct state propagation: the
    one row of :func:`_unmonitored_block` at ``params.delta``."""
    return _row(_unmonitored_block(params, np.asarray(params.delta)))


@np.errstate(over="ignore", invalid="ignore")
def _unmonitored_block(params: LZParams, delta: np.ndarray) -> CycleAverages:
    """Unmonitored averages at every delta of a checked column, the other
    inputs taken from ``params``.

    rho1 -> U rho1 U^dag -> sum_j pi_j . pi_j -> V . V^dag, with energies
    read against H1, H2, H2, H1.  No projective measurements interrupt
    the cycle, so coherence created by U survives into the compression.
    Only U and V depend on delta, so each product is one stacked matmul.
    E2 and E3 are themselves traces that cancel, so a heat within a few
    ulps of nu2 (the largest energy they can read) has no efficiency.
    """
    cyc = params.cycle
    u, v = lz_unitaries(delta, params.phi)
    h1 = hamiltonian(cyc.nu1)
    h2 = hamiltonian(cyc.nu2)
    rho1 = thermal_state(cyc.beta, cyc.nu1).mat
    rho2 = u @ rho1 @ _dagger(u)
    rho3 = sum(k @ rho2 @ _dagger(k) for k in params.channel.kraus_ops())
    rho4 = v @ rho3 @ _dagger(v)
    e1 = np.full(delta.shape, _energy(rho1, h1))
    e2 = _energy(rho2, h2)
    e3 = _energy(rho3, h2)
    e4 = _energy(rho4, h1)
    q_m = e3 - e2
    q_t = e1 - e4
    w = q_m + q_t
    no_heat = (np.abs(q_m) <= 1e-300) | is_rounding_residue(q_m, cyc.nu2)
    eta = _divide(w, q_m, ~no_heat)
    return CycleAverages(e1=e1, e2=e2, e3=e3, e4=e4, w=w, q_m=q_m, q_t=q_t, eta=eta)


def _dagger(mat: np.ndarray) -> np.ndarray:
    return np.swapaxes(mat.conj(), -1, -2)


def _energy(rho: np.ndarray, ham: np.ndarray) -> np.ndarray:
    """tr(rho H) of each matrix in a stack."""
    return np.trace(rho @ ham, axis1=-2, axis2=-1).real


def qm_unmonitored_closed_form(params: LZParams) -> float:
    """Unmonitored channel heat: the interference term rides on cos(phi+chi)."""
    a = params.channel.alpha_m
    d = params.delta
    phase = math.cos(params.phi + params.channel.chi)
    return (
        params.cycle.nu2
        * math.sin(a)
        * (
            2.0 * math.sqrt(d * (1.0 - d)) * math.cos(a) * phase
            + math.sin(a)
            - 2.0 * d * math.sin(a)
        )
        * params.cycle.tanh_beta_nu1
    )


def monitored_averages(params: LZParams) -> CycleAverages:
    """Monitored-cycle averages routed through the cumulant machinery.

    E1 and E2 are unchanged by monitoring (the first measurement
    commutes with the thermal state and E2 reads only populations); the
    measurement at B erases the coherence the projector channel would
    otherwise act on, so E3 and E4 differ from the unmonitored route.
    """
    first = closed_form_first_second(params.cycle, params.channel.theta)
    shared = unmonitored_cycle(params)
    return _row(_monitored_from(shared, first.w_mean, first.qm_mean, first.qt_mean))


@np.errstate(over="ignore", invalid="ignore")
def _monitored_from(shared: CycleAverages, w, q_m, q_t) -> CycleAverages:
    """:func:`monitored_averages` over a block, given the unmonitored
    averages and the closed-form means of W, Q_M and Q_T."""
    return CycleAverages(
        e1=shared.e1,
        e2=shared.e2,
        e3=shared.e2 + q_m,
        e4=shared.e1 - q_t,
        w=w,
        q_m=q_m,
        q_t=q_t,
        eta=_divide(w, q_m, np.abs(q_m) > 1e-300),
    )


@dataclass(frozen=True)
class ComparisonRow:
    delta: float
    w_mon: float
    eta_mon: float
    regime_mon: Regime
    w_um: float
    eta_um: float
    regime_um: Regime


def monitored_vs_unmonitored(
    params: LZParams, deltas: Iterable[float], tol: float = _REGIME_TOL
) -> list[ComparisonRow]:
    """Work, efficiency and regime of both cycle variants over a delta grid,
    each variant evaluated as one block over the whole column; a flow
    within ``tol`` of zero leaves the regime undetermined."""
    delta = np.array([float(d) for d in deltas], dtype=float)
    invalid = ~((delta >= 0.0) & (delta <= 1.0))
    if invalid.any():
        # the first failing delta raises the single-point error
        params.with_delta(float(delta[np.argmax(invalid)]))
    cyc = params.cycle
    closed = closed_form_block(cyc.beta, cyc.nu1, cyc.nu2, delta, delta, params.channel.theta)
    um = _unmonitored_block(params, delta)
    mon = _monitored_from(um, closed.w_mean, closed.qm_mean, closed.qt_mean)
    columns = (
        delta,
        mon.w,
        mon.eta,
        classify_regime_array(mon.w, mon.q_m, mon.q_t, cyc.beta, tol),
        um.w,
        um.eta,
        classify_regime_array(um.w, um.q_m, um.q_t, cyc.beta, tol),
    )
    return [ComparisonRow(*row) for row in zip(*(c.tolist() for c in columns))]


def comparison_to_csv(rows: Iterable[ComparisonRow], fileobj) -> None:
    fileobj.write("delta,w_mon,eta_mon,regime_mon,w_um,eta_um,regime_um\n")
    for r in rows:
        # + 0.0 prints a negative zero as 0
        fileobj.write(
            f"{r.delta + 0.0:.17g},{r.w_mon + 0.0:.17g},{r.eta_mon + 0.0:.17g},{r.regime_mon},"
            f"{r.w_um + 0.0:.17g},{r.eta_um + 0.0:.17g},{r.regime_um}\n"
        )
