"""Monitored vs unmonitored Landau-Zener cycle."""

import io
import math

import numpy as np
import pytest

from unital_otto import (
    CycleParams,
    LZParams,
    MeasurementChannel,
    Regime,
    comparison_to_csv,
    cumulants_from_distribution,
    enumerate_paths,
    lz_unitaries,
    monitored_averages,
    monitored_vs_unmonitored,
    qm_unmonitored_closed_form,
    unmonitored_cycle,
)

FIG6A = dict(beta=0.5, nu1=0.4, nu2=0.4, phi=0.0, alpha_m=math.pi / 4, chi=0.0)
FIG6F = dict(beta=0.5, nu1=0.4, nu2=0.9, phi=0.1, alpha_m=math.pi / 3, chi=0.1)


def build(delta, **kw):
    return LZParams.build(
        kw["beta"], kw["nu1"], kw["nu2"], delta, kw["phi"], kw["alpha_m"], kw["chi"]
    )


def test_params_enforce_symmetric_cycle():
    with pytest.raises(ValueError):
        LZParams(
            delta=0.2,
            phi=0.0,
            channel=MeasurementChannel(1.0),
            cycle=CycleParams(0.5, 1.0, 2.0, 0.2, 0.3),
        )


def test_adiabatic_unitaries_are_diagonal_phases():
    u, v = lz_unitaries(LZParams.build(0.5, 1.0, 2.0, 0.0, 0.0))
    assert np.allclose(u, np.eye(2), atol=1e-15)
    assert np.allclose(v, np.eye(2), atol=1e-15)


def test_full_transition_is_swap_up_to_sign():
    u, _ = lz_unitaries(LZParams.build(0.5, 1.0, 2.0, 1.0, 0.3))
    assert np.allclose(np.abs(u), [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)


def test_unitarity_and_transition_probability_grid():
    for delta in np.linspace(0.0, 1.0, 11):
        for phi in np.linspace(0.0, 2 * math.pi, 7):
            p = LZParams.build(0.5, 1.0, 2.0, float(delta), float(phi))
            u, v = lz_unitaries(p)
            assert np.max(np.abs(u @ u.conj().T - np.eye(2))) < 1e-12
            assert np.max(np.abs(v @ v.conj().T - np.eye(2))) < 1e-12
            assert abs(abs(u[0, 1]) ** 2 - delta) < 1e-12
            assert abs(abs(v[0, 1]) ** 2 - delta) < 1e-12


def test_unmonitored_heat_matches_closed_form_on_grid():
    for delta in np.linspace(0.0, 1.0, 6):
        for alpha_m in np.linspace(0.1, math.pi - 0.1, 5):
            for phi in (0.0, 0.7, 2.1):
                for chi in (0.0, 1.3):
                    p = LZParams.build(0.5, 0.7, 1.3, float(delta), phi, float(alpha_m), chi)
                    um = unmonitored_cycle(p)
                    assert abs(um.q_m - qm_unmonitored_closed_form(p)) < 1e-12


def test_energy_bookkeeping_closes_the_cycle():
    p = build(0.35, **FIG6F)
    um = unmonitored_cycle(p)
    w1 = um.e2 - um.e1
    w2 = um.e4 - um.e3
    assert um.q_m == pytest.approx(um.e3 - um.e2, abs=1e-15)
    assert um.q_t == pytest.approx(um.e1 - um.e4, abs=1e-15)
    assert um.w == pytest.approx(-(w1 + w2), abs=1e-14)


def test_monitoring_changes_the_post_channel_energies():
    # the measurement at B erases the coherence the projector channel
    # feeds on, so the two routes split at E3 (and stay split at E4)
    p = build(0.35, **FIG6F)
    um = unmonitored_cycle(p)
    mon = monitored_averages(p)
    assert mon.e1 == um.e1
    assert mon.e2 == um.e2
    assert mon.e3 != um.e3
    assert mon.e4 != um.e4
    assert mon.q_m != pytest.approx(um.q_m, abs=1e-6)


def test_monitored_column_reproduces_cumulant_route():
    p = build(0.27, **FIG6F)
    theta = math.sin(FIG6F["alpha_m"]) ** 2 / 2.0
    assert p.channel.theta == pytest.approx(theta, abs=1e-15)
    mon = monitored_averages(p)
    cums = cumulants_from_distribution(enumerate_paths(p.cycle, theta))
    assert mon.w == pytest.approx(cums.w[0], abs=1e-14)
    assert mon.q_m == pytest.approx(cums.q_m[0], abs=1e-14)
    assert mon.q_t == pytest.approx(cums.qt_mean, abs=1e-14)


def test_zero_transition_probability_equalises_routes():
    p = build(0.0, **FIG6F)
    um = unmonitored_cycle(p)
    mon = monitored_averages(p)
    assert um.q_m == pytest.approx(mon.q_m, abs=1e-14)


def test_phases_enter_only_through_their_sum():
    base = unmonitored_cycle(LZParams.build(0.5, 0.4, 0.9, 0.3, 0.45, 1.1, 0.15))
    shifted = unmonitored_cycle(LZParams.build(0.5, 0.4, 0.9, 0.3, 0.15, 1.1, 0.45))
    assert base.q_m == pytest.approx(shifted.q_m, abs=1e-14)
    # the monitored route ignores both phases entirely
    m1 = monitored_averages(LZParams.build(0.5, 0.4, 0.9, 0.3, 0.45, 1.1, 0.15))
    m2 = monitored_averages(LZParams.build(0.5, 0.4, 0.9, 0.3, 2.75, 1.1, 4.0))
    assert m1.w == m2.w and m1.q_m == m2.q_m


def test_equal_gaps_only_unmonitored_engine():
    p = build(0.0, **FIG6A)
    rows = monitored_vs_unmonitored(p, np.linspace(0.0, 1.0, 101))
    assert max(r.w_mon for r in rows) <= 1e-12
    assert any(r.w_um > 1e-6 for r in rows)
    assert all(r.regime_mon is not Regime.ENGINE for r in rows)
    assert any(r.regime_um is Regime.ENGINE for r in rows)


def test_monitored_efficiency_under_otto_unmonitored_can_exceed():
    p = build(0.0, **FIG6F)
    otto = 1.0 - FIG6F["nu1"] / FIG6F["nu2"]
    rows = monitored_vs_unmonitored(p, np.linspace(0.001, 0.999, 199))
    mon_engine = [r.eta_mon for r in rows if r.regime_mon is Regime.ENGINE]
    um_engine = [r.eta_um for r in rows if r.regime_um is Regime.ENGINE]
    assert mon_engine and max(mon_engine) <= otto + 1e-12
    assert max(um_engine) > otto


def test_comparison_csv_header():
    p = build(0.0, **FIG6A)
    rows = monitored_vs_unmonitored(p, [0.0, 0.5])
    buf = io.StringIO()
    comparison_to_csv(rows, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "delta,w_mon,eta_mon,regime_mon,w_um,eta_um,regime_um"
    assert len(lines) == 3
    assert lines[1].split(",")[3] in {r.value for r in Regime}


def test_one_unmonitored_propagation_per_comparison_row(monkeypatch):
    from unital_otto import landauzener

    base = build(0.0, **FIG6F)
    deltas = np.linspace(0.0, 1.0, 7)
    want = [
        (monitored_averages(base.with_delta(float(d))), unmonitored_cycle(base.with_delta(float(d))))
        for d in deltas
    ]
    calls = []
    original = landauzener.unmonitored_cycle
    monkeypatch.setattr(
        landauzener, "unmonitored_cycle", lambda p: calls.append(p) or original(p)
    )
    rows = monitored_vs_unmonitored(base, deltas)
    assert len(calls) == len(deltas)
    for row, (mon, um) in zip(rows, want):
        assert (row.w_mon, row.eta_mon, row.w_um, row.eta_um) == (mon.w, mon.eta, um.w, um.eta)
