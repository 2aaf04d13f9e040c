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
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .analysis import Regime, classify_regime_means
from .cumulants import closed_form_first_second
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


def lz_unitaries(params: LZParams) -> tuple[np.ndarray, np.ndarray]:
    """Expansion and compression unitaries (U, V) in the energy basis.

    The phase convention is pinned by the unmonitored heat: with this U
    the interference term of <Q_M>um comes out as +cos(phi + chi).  The
    transition probabilities are |<+2|U|-1>|^2 = |<+1|V|-2>|^2 = delta
    regardless of the convention.
    """
    root_stay = math.sqrt(1.0 - params.delta)
    root_jump = math.sqrt(params.delta)
    phase = np.exp(1.0j * params.phi)
    u = np.array(
        [
            [root_stay * phase, root_jump],
            [-root_jump, root_stay * np.conj(phase)],
        ]
    )
    # V = C U^dag C with C the entrywise conjugation, i.e. conj(U^dag) = U^T
    v = u.T.copy()
    return u, v


@dataclass(frozen=True)
class CycleAverages:
    """Mean energies at the four cycle points and the derived flows."""

    e1: float
    e2: float
    e3: float
    e4: float
    w: float
    q_m: float
    q_t: float
    eta: float


def unmonitored_cycle(params: LZParams) -> CycleAverages:
    """Averages of the unmonitored cycle by direct state propagation.

    rho1 -> U rho1 U^dag -> sum_j pi_j . pi_j -> V . V^dag, with energies
    read against H1, H2, H2, H1.  No projective measurements interrupt
    the cycle, so coherence created by U survives into the compression.
    """
    cyc = params.cycle
    u, v = lz_unitaries(params)
    h1 = hamiltonian(cyc.nu1)
    h2 = hamiltonian(cyc.nu2)
    rho1 = thermal_state(cyc.beta, cyc.nu1).mat
    rho2 = u @ rho1 @ u.conj().T
    rho3 = sum(k @ rho2 @ k.conj().T for k in params.channel.kraus_ops())
    rho4 = v @ rho3 @ v.conj().T
    e1 = float(np.trace(rho1 @ h1).real)
    e2 = float(np.trace(rho2 @ h2).real)
    e3 = float(np.trace(rho3 @ h2).real)
    e4 = float(np.trace(rho4 @ h1).real)
    q_m = e3 - e2
    q_t = e1 - e4
    w = q_m + q_t
    eta = w / q_m if abs(q_m) > 1e-300 else math.nan
    return CycleAverages(e1=e1, e2=e2, e3=e3, e4=e4, w=w, q_m=q_m, q_t=q_t, eta=eta)


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
    return _monitored_from(params, unmonitored_cycle(params))


def _monitored_from(params: LZParams, shared: CycleAverages) -> CycleAverages:
    """:func:`monitored_averages`, given the unmonitored averages of ``params``."""
    first = closed_form_first_second(params.cycle, params.channel.theta)
    eta = first.w_mean / first.qm_mean if abs(first.qm_mean) > 1e-300 else math.nan
    return CycleAverages(
        e1=shared.e1,
        e2=shared.e2,
        e3=shared.e2 + first.qm_mean,
        e4=shared.e1 - first.qt_mean,
        w=first.w_mean,
        q_m=first.qm_mean,
        q_t=first.qt_mean,
        eta=eta,
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
    params: LZParams, deltas: Iterable[float]
) -> list[ComparisonRow]:
    """Work, efficiency and regime of both cycle variants over a delta grid."""
    rows = []
    beta = params.cycle.beta
    for delta in deltas:
        point = params.with_delta(float(delta))
        um = unmonitored_cycle(point)
        mon = _monitored_from(point, um)
        rows.append(
            ComparisonRow(
                delta=float(delta),
                w_mon=mon.w,
                eta_mon=mon.eta,
                regime_mon=classify_regime_means(mon.w, mon.q_m, mon.q_t, beta),
                w_um=um.w,
                eta_um=um.eta,
                regime_um=classify_regime_means(um.w, um.q_m, um.q_t, beta),
            )
        )
    return rows


def comparison_to_csv(rows: Iterable[ComparisonRow], fileobj) -> None:
    fileobj.write("delta,w_mon,eta_mon,regime_mon,w_um,eta_um,regime_um\n")
    for r in rows:
        fileobj.write(
            f"{r.delta:.17g},{r.w_mon:.17g},{r.eta_mon:.17g},{r.regime_mon},"
            f"{r.w_um:.17g},{r.eta_um:.17g},{r.regime_um}\n"
        )
