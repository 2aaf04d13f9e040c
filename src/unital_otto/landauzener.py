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

The propagation's 2x2 products are written out in real arithmetic, with
no BLAS or LAPACK call, and what no delta changes is built once a column.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Iterable, NamedTuple

import numpy as np

from .analysis import _quotient, classify_regime_array
from .cumulants import _closed_form
from .qstate import InputError, MeasurementChannel, _Checked, hamiltonian, thermal_state
from .trajectory import CycleParams

__all__ = [
    "LZParams",
    "CycleAverages",
    "Comparison",
    "lz_unitaries",
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
    Only U and V depend on delta; every product is the written-out 2x2
    product of :func:`_product`, so a row's bits are the same alone and in
    any column.  Each energy is a trace tr(rho H) with |tr(rho H)| <= nu,
    so the flows' magnitudes are the trace bounds 2 nu2 (Q_M = E3 - E2),
    2 nu1 (Q_T = E1 - E4) and their sum (W); against 60-digit propagation
    of the same inputs the rounding of each flow stays below 2 eps times
    its trace bound.  A heat that is a rounding residue of 2 nu2 has no
    efficiency.
    """
    return _propagate(params, _checked_deltas(params, delta), _fixed_matrices(params))


def _fixed_matrices(params: LZParams) -> tuple:
    """What no delta changes, each a stack of one matrix (:func:`_split`):
    (rho1, H1, H2), the Gibbs state and the Hamiltonians, and the projectors."""
    cyc = params.cycle
    fixed = [thermal_state(cyc.beta, cyc.nu1), hamiltonian(cyc.nu1), hamiltonian(cyc.nu2)]
    return [_split(m[None]) for m in fixed], [_split(k[None]) for k in params.channel.kraus_ops()]


@np.errstate(over="ignore", invalid="ignore")
def _propagate(params: LZParams, delta: np.ndarray, fixed: tuple) -> CycleAverages:
    """:func:`unmonitored_cycle` at checked deltas, given the
    :func:`_fixed_matrices` of ``params``."""
    (rho1, h1, h2), projectors = fixed
    u, v = (_split(m) for m in lz_unitaries(delta.reshape(-1), params.phi))
    rho2 = _conjugated(u, rho1)
    (ar, ai), (br, bi) = (_conjugated(k, rho2) for k in projectors)
    rho3 = (ar + br, ai + bi)
    rho4 = _conjugated(v, rho3)
    e1 = np.full(delta.shape, _energy(rho1, h1)[0])
    e2, e3, e4 = (_energy(rho, h).reshape(delta.shape)
                  for rho, h in ((rho2, h2), (rho3, h2), (rho4, h1)))
    q_m = e3 - e2
    q_t = e1 - e4
    w = q_m + q_t
    eta = _quotient(w, q_m, *_trace_bounds(params.cycle)[:2])[0]
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


def _split(stack: np.ndarray) -> tuple:
    """A stack of n complex 2x2 matrices, shaped (n, 2, 2), as the matrices
    of :func:`_product`: a (real, imaginary) pair of (2, 2, n) arrays."""
    return np.moveaxis(stack.real, 0, -1), np.moveaxis(stack.imag, 0, -1)


def _product(a: tuple, b: tuple) -> tuple:
    """The 2x2 products a b along two stacks of :func:`_split` matrices,
    broadcast along the stack; written out in real arithmetic, so each
    entry is rounded the same way at any stack size and on any CPU, with
    no BLAS call and no fused multiply-add."""
    (ar, ai), (br, bi) = a, b
    # the terms a_ij b_jk, indexed [i, j, k]
    xr, xi, yr, yi = ar[:, :, None], ai[:, :, None], br[None], bi[None]
    re, im = xr * yr - xi * yi, xr * yi + xi * yr
    return re[:, 0] + re[:, 1], im[:, 0] + im[:, 1]


def _conjugated(k: tuple, rho: tuple) -> tuple:
    """k rho k^dag."""
    kr, ki = k
    return _product(_product(k, rho), (kr.swapaxes(0, 1), -ki.swapaxes(0, 1)))


def _energy(rho: tuple, ham: tuple) -> np.ndarray:
    """tr(rho H) of each matrix in a stack, summed as the diagonal of
    :func:`_product` would be."""
    (rr, ri), (hr, hi) = rho, ham
    re = rr * hr.swapaxes(0, 1) - ri * hi.swapaxes(0, 1)
    return (re[0, 0] + re[0, 1]) + (re[1, 0] + re[1, 1])


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


def monitored_averages(params: LZParams, delta) -> CycleAverages:
    """Monitored-cycle averages at every delta (scalar or array), routed
    through the closed-form cumulants.

    E1 and E2 are unchanged by monitoring (the first measurement
    commutes with the thermal state and E2 reads only populations); the
    measurement at B erases the coherence the projector channel would
    otherwise act on, so E3 and E4 differ from the unmonitored route.
    """
    return _monitored_from(params, delta, unmonitored_cycle(params, delta))[0]


@np.errstate(over="ignore", invalid="ignore")
def _monitored_from(params: LZParams, delta, shared: CycleAverages) -> tuple:
    """:func:`monitored_averages` at deltas that :func:`unmonitored_cycle`
    checked, given its averages ``shared`` there, and the magnitudes of the
    monitored W, Q_M and Q_T: the closed forms' terms'."""
    inputs = (*params.cycle[:3], delta, delta, params.channel.theta)
    first, mag = (_closed_form(*inputs, magnitudes=m) for m in (False, True))
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
    delta = np.array([float(d) for d in deltas], dtype=float)
    return _compare(params, _checked_deltas(params, delta), _fixed_matrices(params))


def _compare(params: LZParams, delta: np.ndarray, fixed: tuple) -> Comparison:
    """:func:`monitored_vs_unmonitored` at checked deltas, given the
    :func:`_fixed_matrices` of ``params``."""
    um = _propagate(params, delta, fixed)
    mon, magnitudes = _monitored_from(params, delta, um)

    def regimes(avg: CycleAverages, magnitudes: tuple) -> np.ndarray:
        return classify_regime_array(avg.w, avg.q_m, avg.q_t, params.cycle.beta, magnitudes)

    return Comparison(delta, mon.w, mon.eta, regimes(mon, magnitudes),
                      um.w, um.eta, regimes(um, _trace_bounds(params.cycle)))
