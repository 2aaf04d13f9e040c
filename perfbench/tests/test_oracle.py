"""The reference model against the program's closed forms."""

import math
import random

import numpy as np
import pytest

import oracle
from unital_otto import (
    ControlSpec,
    CycleParams,
    LZParams,
    closed_form_first_second,
    cs_first_cumulants,
    qm_unmonitored_closed_form,
)


def points(n=200, seed=11):
    r = random.Random(seed)
    for _ in range(n):
        yield (r.uniform(-2, 2), r.uniform(1e-3, 3), r.uniform(1e-3, 3), r.random(), r.random(), r.random())


@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_reproduces_closed_form_orders_one_and_two(direction):
    for beta, nu1, nu2, d, z, th in points():
        closed = closed_form_first_second(CycleParams(beta, nu1, nu2, d, z), th, direction)
        dz = (d, z) if direction == "forward" else (z, d)
        w, q, p = oracle.path_table(beta, nu1, nu2, *dz, th)
        kw, kq = oracle.cumulants(w, p), oracle.cumulants(q, p)
        scale = max(nu1, nu2)
        for got, ref, order in (
            (kw[0], closed.w_mean, 1),
            (kw[1], closed.w_var, 2),
            (kq[0], closed.qm_mean, 1),
            (kq[1], closed.qm_var, 2),
            (kw[0] - kq[0], closed.qt_mean, 1),
        ):
            assert abs(got - ref) <= oracle.RTOL * abs(ref) + oracle.ATOL * scale**order


def test_cs_mixture_reproduces_closed_first_cumulants():
    r = random.Random(3)
    for beta, nu1, nu2, d, z, th in points(100):
        th *= 0.5
        ctrl = ControlSpec(r.random(), r.choice(["plus", "minus"]))
        closed = cs_first_cumulants(CycleParams(beta, nu1, nu2, d, z), th, ctrl)
        w, q, p = oracle.cs_table(beta, nu1, nu2, d, z, th, ctrl.alpha, ctrl.sign)
        assert np.sum(p) == pytest.approx(1.0, abs=1e-14)
        w_mean, q_mean, qt_mean = oracle.means(w, q, p)
        assert w_mean == pytest.approx(closed.w_mean, rel=1e-9, abs=1e-12)
        assert q_mean == pytest.approx(closed.qm_mean, rel=1e-9, abs=1e-12)
        assert qt_mean == pytest.approx(closed.qt_mean, rel=1e-9, abs=1e-12)


def test_unmonitored_heat_matches_closed_form():
    deltas = np.linspace(0.0, 1.0, 21)
    beta, nu1, nu2, alpha_m, phi, chi = 0.5, 0.4, 0.9, math.pi / 3, 0.1, 0.4
    _, q_m, _ = oracle.lz_unmonitored(beta, nu1, nu2, deltas, alpha_m, phi, chi)
    for delta, got in zip(deltas, q_m):
        ref = qm_unmonitored_closed_form(LZParams.build(beta, nu1, nu2, float(delta), phi, alpha_m, chi))
        assert got == pytest.approx(ref, rel=1e-12, abs=1e-15)


def test_regime_sign_patterns():
    got = oracle.regime(
        np.array([1.0, -1.0, -1.0, 1.0, -1.0, 1.0, 1e-13]),
        np.array([2.0, 2.0, -1.0, -1.0, -2.0, 2.0, 1.0]),
        np.array([-1.0, -3.0, -1e-3, 2.0, 1.0, 1.0, -1.0]),
        np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0, 1.0]),
    )
    assert list(got) == [
        "Engine", "Accelerator", "Heater", "Engine", "Accelerator", "EnginePrime", "Undetermined",
    ]
