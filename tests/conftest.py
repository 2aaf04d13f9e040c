"""Shared strategies and helpers for the test suite."""

import itertools
from dataclasses import dataclass

import mpmath
import numpy as np
import pytest
from hypothesis import strategies as st

from unital_otto import CycleParams, DensityMatrix, classify_regime_array


def finite(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


# beta bounded away from 0 so regime signs are unambiguous where needed
betas = st.one_of(finite(-2.0, -1e-3), finite(1e-3, 2.0))
gaps = finite(0.05, 3.0)
probs = finite(0.0, 1.0)


@st.composite
def cycle_params(draw, symmetric=False):
    delta = draw(probs)
    zeta = delta if symmetric else draw(probs)
    return CycleParams(draw(betas), draw(gaps), draw(gaps), delta, zeta)


@st.composite
def bloch_states(draw, gap=1.0):
    """Random single-qubit state from a Bloch vector inside the unit ball."""
    v = np.array([draw(finite(-1.0, 1.0)) for _ in range(3)])
    norm = np.linalg.norm(v)
    if norm > 1.0:
        v = v / (norm * (1.0 + 1e-9))
    mat = 0.5 * np.array(
        [
            [1.0 + v[2], v[0] - 1j * v[1]],
            [v[0] + 1j * v[1], 1.0 - v[2]],
        ]
    )
    return DensityMatrix(mat, gap=gap)


def random_params(rng, beta_range=(-2.0, 2.0), nu_range=(1e-3, 3.0)):
    """One CycleParams draw for seeded bulk checks (non-hypothesis loops)."""
    beta = 0.0
    while abs(beta) < 1e-9:
        beta = rng.uniform(*beta_range)
    return CycleParams(
        beta,
        rng.uniform(*nu_range),
        rng.uniform(*nu_range),
        rng.random(),
        rng.random(),
    )


def regime_of(record, beta, tol=1e-12):
    """The regime of any record with w_mean, qm_mean and qt_mean: a 0-d row
    of the array classifier."""
    return classify_regime_array(record.w_mean, record.qm_mean, record.qt_mean, beta, tol).item()


def close(a, b, tol):
    """|a - b| <= tol * max(1, |a|, |b|): relative with an absolute floor."""
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


@dataclass(frozen=True)
class ReferenceCumulants:
    """First four cumulants of W and Q_M, and <Q_T>, rounded from 60 digits."""

    w: tuple
    q_m: tuple
    qt_mean: float

    @property
    def w_mean(self):
        return self.w[0]

    @property
    def qm_mean(self):
        return self.q_m[0]


def mp_cumulants(beta, nu1, nu2, delta, zeta, theta, alpha=None, branch="minus"):
    """The monitored cycle's cumulants from its 16 measurement records at
    60 digits, written from the physics rather than from the package.

    Level s = 0 (ground) or 1 (excited) has energy (2 s - 1) nu at gap nu,
    and the cycle starts in the Gibbs state of gap nu1.  A record
    (n, m, k, l) holds the level before and after the expansion stroke
    (transition probability delta), after the channel (flip probability
    theta) and after the compression stroke (zeta); it pays
    W = E1(n) - E2(m) + E2(k) - E1(l) and Q_M = E2(k) - E2(m).  Under
    coherent control the kept branch flips with probability
    theta / (1 +- sqrt(alpha (1 - alpha))).
    """
    with mpmath.workdps(60):
        b, g1, g2, d, z, th = (mpmath.mpf(x) for x in (beta, nu1, nu2, delta, zeta, theta))
        if alpha is not None:
            c = mpmath.sqrt(mpmath.mpf(alpha) * (1 - mpmath.mpf(alpha)))
            th = th / (1 + c if branch == "plus" else 1 - c)
        e1 = [(2 * s - 1) * g1 for s in (0, 1)]
        e2 = [(2 * s - 1) * g2 for s in (0, 1)]
        boltzmann = [mpmath.exp(-b * e) for e in e1]
        weight = [x / sum(boltzmann) for x in boltzmann]

        def move(p, before, after):
            return p if before != after else 1 - p

        records = []
        for n, m, k, l in itertools.product((0, 1), repeat=4):
            prob = weight[n] * move(d, n, m) * move(th, m, k) * move(z, k, l)
            records.append((e1[n] - e2[m] + e2[k] - e1[l], e2[k] - e2[m], prob))

        def cumulants(index):
            mean = sum(r[index] * r[2] for r in records)
            c2, c3, c4 = (sum((r[index] - mean) ** j * r[2] for r in records) for j in (2, 3, 4))
            return (mean, c2, c3, c4 - 3 * c2**2)

        kw, kq = cumulants(0), cumulants(1)
        return ReferenceCumulants(
            tuple(map(float, kw)), tuple(map(float, kq)), float(kw[0] - kq[0])
        )


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
