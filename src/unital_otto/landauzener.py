"""Landau-Zener instance: monitored vs unmonitored cycle comparison.

For linear driving through an avoided crossing the stroke unitaries are
fixed up to the transition probability delta and a phase phi:

    U = sqrt(1-delta) (e^{i phi}|+><+| + e^{-i phi}|-><-|)
        + sqrt(delta) (|+><-| - |-><+|),          V = C U^dag C,

with C the entrywise complex conjugation in the energy basis.  The heat
source is the projective measurement channel tilted by alpha_m with
phase chi.  The monitored cycle sees only the transition probabilities
(theta = sin^2(alpha_m)/2) and is blind to phi and chi; the unmonitored
cycle keeps the qubit's coherences, so surviving coherences feed the
compression stroke and its averages pick up a cos(phi + chi)
interference term.

The unmonitored cycle starts in the diagonal Gibbs state and is read out
in energy, so it is propagated as the state's Bloch vector, in closed
form and real arithmetic: U and V rotate it and the channel projects it
onto the measurement axis (:attr:`MeasurementChannel.axis`).
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Iterable, NamedTuple

import numpy as np

from .analysis import _quotient, classify_regime_array
from .formulas import _first_two
from .qstate import InputError, MeasurementChannel, _Checked
from .trajectory import CycleParams

__all__ = [
    "LZParams",
    "CycleAverages",
    "Comparison",
    "unmonitored_cycle",
    "qm_unmonitored_closed_form",
    "monitored_averages",
    "monitored_vs_unmonitored",
]


class LZParams(_Checked, namedtuple("LZParams", "delta phi channel cycle")):
    """Inputs of one Landau-Zener cycle; the cycle is symmetric (zeta = delta)."""

    __slots__ = ()

    def __new__(cls, delta: float, phi: float, channel: MeasurementChannel, cycle: CycleParams):
        if not math.isfinite(phi):
            raise InputError("phi must be finite")
        if not 0.0 <= delta <= 1.0:
            raise InputError("delta must lie in [0, 1]")
        if cycle.delta != delta or cycle.zeta != delta:
            raise InputError("Landau-Zener cycle requires zeta = delta in CycleParams")
        return super().__new__(cls, delta, phi, channel, cycle)

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
        return LZParams.build(*self.cycle[:3], delta, self.phi, *self.channel)


class CycleAverages(NamedTuple):
    """Mean energies at the four cycle points and the derived flows, arrays
    of the delta column's shape."""

    e1: np.ndarray
    e2: np.ndarray
    e3: np.ndarray
    e4: np.ndarray
    w: np.ndarray
    q_m: np.ndarray
    q_t: np.ndarray
    eta: np.ndarray


def unmonitored_cycle(params: LZParams, delta) -> CycleAverages:
    """Averages of the unmonitored cycle by direct state propagation at
    every delta (scalar or array), the other inputs taken from ``params``.
    The first delta outside [0, 1] raises its :class:`LZParams` error.

    rho1 -> U rho1 U^dag -> sum_j pi_j . pi_j -> V . V^dag, with energies
    read against H1, H2, H2, H1.  No projective measurements interrupt
    the cycle, so coherence created by U survives into the compression.
    The state is propagated as its Bloch vector (:func:`_propagate`),
    elementwise, so a row's bits are the same alone and in any column.
    Each energy is a trace tr(rho H) with |tr(rho H)| <= nu, so the flows'
    magnitudes are the trace bounds 2 nu2 (Q_M = E3 - E2), 2 nu1 (Q_T =
    E1 - E4) and their sum (W); against 60-digit propagation of the same
    inputs the rounding of each flow stays below 2 eps times its trace
    bound.  A heat that is a rounding residue of 2 nu2 has no efficiency.
    """
    return _propagate(params, _checked_deltas(params, delta))


@np.errstate(over="ignore", invalid="ignore")
def _propagate(params: LZParams, delta: np.ndarray) -> CycleAverages:
    """:func:`unmonitored_cycle` at checked deltas.

    With t = tanh(beta nu1), s = sqrt(delta (1 - delta)), c = 1 - 2 delta
    and n the measurement axis, the Gibbs state's Bloch vector (0, 0, -t)
    becomes r2 = -t (-2 s cos phi, 2 s sin phi, c) under U; the channel
    keeps (n.r2) n; V = U^T turns that into a state whose z component is
    (n.r2) (c n_z - 2 s (n_x cos phi + n_y sin phi)).  Each energy is nu
    times the z component against its Hamiltonian.
    """
    cyc = params.cycle
    t = cyc.tanh_beta_nu1
    nx, ny, nz = params.channel.axis
    cos_phi, sin_phi = math.cos(params.phi), math.sin(params.phi)
    d = delta.reshape(-1)
    c = 1.0 - 2.0 * d
    two_s = 2.0 * np.sqrt(d * (1.0 - d))
    along = -t * (nz * c - two_s * (nx * cos_phi - ny * sin_phi))  # n.r2
    e1 = np.full(delta.shape, -cyc.nu1 * t)
    e2, e3, e4 = (e.reshape(delta.shape) for e in (
        -cyc.nu2 * (t * c),
        cyc.nu2 * (along * nz),
        cyc.nu1 * (along * (nz * c - two_s * (nx * cos_phi + ny * sin_phi))),
    ))
    q_m = e3 - e2
    q_t = e1 - e4
    w = q_m + q_t
    eta = _quotient(w, q_m, *_trace_bounds(cyc)[:2])[0]
    return CycleAverages(e1=e1, e2=e2, e3=e3, e4=e4, w=w, q_m=q_m, q_t=q_t, eta=eta)


def _checked_deltas(params: LZParams, delta) -> np.ndarray:
    """``delta`` as a float array, every entry checked: the first one
    outside [0, 1] (in C order) raises its :class:`LZParams` error."""
    delta = np.asarray(delta, dtype=float)
    invalid = ~((delta >= 0.0) & (delta <= 1.0))
    if invalid.any():
        params.with_delta(float(delta.flat[np.argmax(invalid)]))
    return delta


def _trace_bounds(cycle: CycleParams) -> tuple:
    """The magnitudes of the unmonitored W, Q_M and Q_T."""
    return 2.0 * (cycle.nu1 + cycle.nu2), 2.0 * cycle.nu2, 2.0 * cycle.nu1


def qm_unmonitored_closed_form(params: LZParams) -> float:
    """Unmonitored channel heat at ``params.delta``, nu2 tanh(beta nu1)
    sin(alpha_m) (2 sqrt(delta (1 - delta)) cos(alpha_m) cos(phi + chi) +
    (1 - 2 delta) sin(alpha_m)): the interference term rides on
    cos(phi + chi)."""
    return float(_propagate(params, np.asarray(params.delta)).q_m)


def monitored_averages(params: LZParams, delta) -> CycleAverages:
    """Monitored-cycle averages at every delta (scalar or array), routed
    through the closed-form cumulants.

    E1 and E2 are unchanged by monitoring (the first measurement
    commutes with the thermal state and E2 reads only populations); the
    measurement at B erases the coherence the projector channel would
    otherwise act on, so E3 and E4 differ from the unmonitored route.
    """
    delta = _checked_deltas(params, delta)
    return _monitored_from(params, delta, _propagate(params, delta))[0]


@np.errstate(over="ignore", invalid="ignore")
def _monitored_from(params: LZParams, delta, shared: CycleAverages) -> tuple:
    """:func:`monitored_averages` at deltas that :func:`unmonitored_cycle`
    checked, given its averages ``shared`` there, and the magnitudes of the
    monitored W, Q_M and Q_T: the closed forms' terms'."""
    inputs = (params.cycle.tanh_beta_nu1, *params.cycle[1:3], delta, delta, params.channel.theta)
    first, mag = (_first_two(*inputs, magnitudes=m) for m in (False, True))
    w, q_m, q_t = first.w_mean, first.qm_mean, first.qt_mean
    magnitudes = (mag.w_mean, mag.qm_mean, mag.qt_mean)
    averages = CycleAverages(e1=shared.e1, e2=shared.e2, e3=shared.e2 + q_m, e4=shared.e1 - q_t,
                             w=w, q_m=q_m, q_t=q_t, eta=_quotient(w, q_m, *magnitudes[:2])[0])
    return averages, magnitudes


class Comparison(NamedTuple):
    """Work, efficiency and regime of both cycle variants over a delta
    column: arrays of the column's length, the regimes as int8
    :class:`~unital_otto.analysis.Regime` codes."""

    delta: np.ndarray
    w_mon: np.ndarray
    eta_mon: np.ndarray
    regime_mon: np.ndarray
    w_um: np.ndarray
    eta_um: np.ndarray
    regime_um: np.ndarray


def monitored_vs_unmonitored(params: LZParams, deltas: Iterable[float]) -> Comparison:
    """Work, efficiency and regime of both cycle variants over a delta grid,
    each variant evaluated as one block over the whole column; regimes are
    those of :func:`~unital_otto.analysis.classify_regime_array`."""
    delta = _checked_deltas(params, [float(d) for d in deltas])
    um = _propagate(params, delta)
    mon, magnitudes = _monitored_from(params, delta, um)

    def regimes(avg: CycleAverages, magnitudes: tuple) -> np.ndarray:
        return classify_regime_array(avg.w, avg.q_m, avg.q_t, params.cycle.beta, magnitudes)

    return Comparison(delta, mon.w, mon.eta, regimes(mon, magnitudes),
                      um.w, um.eta, regimes(um, _trace_bounds(params.cycle)))
