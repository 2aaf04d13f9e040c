"""Monitored vs unmonitored Landau-Zener cycle."""

import math

import numpy as np
import pytest

from unital_otto import landauzener
from unital_otto.cli import main
from unital_otto.formulas import _first_two
from unital_otto import (
    CycleParams,
    LZParams,
    MeasurementChannel,
    Regime,
    classify_regime_array,
    cumulants_from_block,
    enumerate_paths,
    is_rounding_residue,
    monitored_averages,
    monitored_vs_unmonitored,
    qm_unmonitored_closed_form,
    unmonitored_cycle,
)

from references import lz_unitaries, lz_unmonitored_mp, qm_unmonitored_paper

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
    u, v = lz_unitaries(0.0, 0.0)
    assert np.allclose(u, np.eye(2), atol=1e-15)
    assert np.allclose(v, np.eye(2), atol=1e-15)


def test_full_transition_is_swap_up_to_sign():
    u, _ = lz_unitaries(1.0, 0.3)
    assert np.allclose(np.abs(u), [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)


def test_unitarity_and_transition_probability_grid():
    delta = np.linspace(0.0, 1.0, 11)
    for phi in np.linspace(0.0, 2 * math.pi, 7):
        u, v = lz_unitaries(delta, float(phi))
        assert u.shape == v.shape == (11, 2, 2)
        for stack in (u, v):
            unit = stack @ np.swapaxes(stack.conj(), -1, -2)
            assert np.max(np.abs(unit - np.eye(2))) < 1e-12
            assert np.max(np.abs(np.abs(stack[:, 0, 1]) ** 2 - delta)) < 1e-12


def test_unmonitored_heat_matches_closed_form_on_grid():
    for delta in np.linspace(0.0, 1.0, 6):
        for alpha_m in np.linspace(0.1, math.pi - 0.1, 5):
            for phi in (0.0, 0.7, 2.1):
                for chi in (0.0, 1.3):
                    p = LZParams.build(0.5, 0.7, 1.3, float(delta), phi, float(alpha_m), chi)
                    um = unmonitored_cycle(p, p.delta)
                    assert abs(um.q_m - qm_unmonitored_paper(p)) < 1e-12
                    assert qm_unmonitored_closed_form(p) == um.q_m


def test_energy_bookkeeping_closes_the_cycle():
    p = build(0.35, **FIG6F)
    um = unmonitored_cycle(p, p.delta)
    w1 = um.e2 - um.e1
    w2 = um.e4 - um.e3
    assert um.q_m == pytest.approx(um.e3 - um.e2, abs=1e-15)
    assert um.q_t == pytest.approx(um.e1 - um.e4, abs=1e-15)
    assert um.w == pytest.approx(-(w1 + w2), abs=1e-14)


def test_monitoring_changes_the_post_channel_energies():
    # the measurement at B erases the coherence the projector channel
    # feeds on, so the two routes split at E3 (and stay split at E4)
    p = build(0.35, **FIG6F)
    um = unmonitored_cycle(p, p.delta)
    mon = monitored_averages(p, p.delta)
    assert mon.e1 == um.e1
    assert mon.e2 == um.e2
    assert mon.e3 != um.e3
    assert mon.e4 != um.e4
    assert mon.q_m != pytest.approx(um.q_m, abs=1e-6)


def test_monitored_column_reproduces_cumulant_route():
    p = build(0.27, **FIG6F)
    theta = math.sin(FIG6F["alpha_m"]) ** 2 / 2.0
    assert p.channel.theta == pytest.approx(theta, abs=1e-15)
    mon = monitored_averages(p, p.delta)
    cums = cumulants_from_block(enumerate_paths(p.cycle, theta))
    assert mon.w == pytest.approx(cums.w[0], abs=1e-14)
    assert mon.q_m == pytest.approx(cums.q_m[0], abs=1e-14)
    assert mon.q_t == pytest.approx(cums.qt_mean, abs=1e-14)


def test_zero_transition_probability_equalises_routes():
    p = build(0.0, **FIG6F)
    um = unmonitored_cycle(p, p.delta)
    mon = monitored_averages(p, p.delta)
    assert um.q_m == pytest.approx(mon.q_m, abs=1e-14)


def test_phases_enter_only_through_their_sum():
    base = unmonitored_cycle(LZParams.build(0.5, 0.4, 0.9, 0.3, 0.45, 1.1, 0.15), 0.3)
    shifted = unmonitored_cycle(LZParams.build(0.5, 0.4, 0.9, 0.3, 0.15, 1.1, 0.45), 0.3)
    assert base.q_m == pytest.approx(shifted.q_m, abs=1e-14)
    # the monitored route ignores both phases entirely
    m1 = monitored_averages(LZParams.build(0.5, 0.4, 0.9, 0.3, 0.45, 1.1, 0.15), 0.3)
    m2 = monitored_averages(LZParams.build(0.5, 0.4, 0.9, 0.3, 2.75, 1.1, 4.0), 0.3)
    assert m1.w == m2.w and m1.q_m == m2.q_m


def test_equal_gaps_only_unmonitored_engine():
    p = build(0.0, **FIG6A)
    table = monitored_vs_unmonitored(p, np.linspace(0.0, 1.0, 101))
    assert table.w_mon.max() <= 1e-12
    assert (table.w_um > 1e-6).any()
    assert not (table.regime_mon == Regime.ENGINE).any()
    assert (table.regime_um == Regime.ENGINE).any()


def test_monitored_efficiency_under_otto_unmonitored_can_exceed():
    p = build(0.0, **FIG6F)
    otto = 1.0 - FIG6F["nu1"] / FIG6F["nu2"]
    table = monitored_vs_unmonitored(p, np.linspace(0.001, 0.999, 199))
    mon_engine = table.eta_mon[table.regime_mon == Regime.ENGINE]
    um_engine = table.eta_um[table.regime_um == Regime.ENGINE]
    assert mon_engine.size and mon_engine.max() <= otto + 1e-12
    assert um_engine.max() > otto


def test_comparison_is_columns():
    deltas = [0.0, 0.25, 0.5]
    table = monitored_vs_unmonitored(build(0.0, **FIG6F), deltas)
    assert table._fields == (
        "delta", "w_mon", "eta_mon", "regime_mon", "w_um", "eta_um", "regime_um"
    )
    assert all(isinstance(column, np.ndarray) and column.shape == (3,) for column in table)
    assert table.delta.tolist() == deltas
    assert table.regime_mon.dtype == table.regime_um.dtype == np.int8


def test_one_block_propagation_per_table(monkeypatch):
    base = build(0.0, **FIG6F)
    deltas = np.linspace(0.0, 1.0, 7)
    want = [
        (monitored_averages(base, d), unmonitored_cycle(base, d))
        for d in deltas.tolist()
    ]
    calls = []
    original = landauzener._propagate
    monkeypatch.setattr(landauzener, "_propagate", lambda *a: calls.append(1) or original(*a))
    table = monitored_vs_unmonitored(base, deltas)
    assert len(calls) == 1
    for i, (mon, um) in enumerate(want):
        got = [table.w_mon[i], table.eta_mon[i], table.w_um[i], table.eta_um[i]]
        assert np.array_equal(got, [mon.w, mon.eta, um.w, um.eta], equal_nan=True)


def test_each_block_of_a_run_is_propagated_once(monkeypatch, tmp_path):
    # four blocks of 128 rows and one of 88: one propagation a block, and
    # the closed forms once for values and once for magnitudes a block
    calls = []

    def counted(name):
        original = getattr(landauzener, name)

        def count(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(landauzener, name, count)

    for name in ("_propagate", "_first_two"):
        counted(name)
    argv = ["lz-compare", "--beta", "0.5", "--nu1", "0.4", "--nu2", "0.9", "--alpha-m", "1",
            "--axis", "delta", "--start", "0", "--stop", "1", "--steps", "600"]
    out = tmp_path / "lz.csv"
    assert main([*argv, "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 2 + 600
    assert sorted(calls) == ["_first_two"] * 10 + ["_propagate"] * 5


def _random_tables(seed, count):
    rng = np.random.default_rng(seed)
    for i in range(count):
        alpha_m = (0.0, math.pi / 2, math.pi, rng.uniform(0.0, math.pi))[i % 4]
        beta = rng.uniform(0.05, 3.0) * (1 if i % 2 else -1)
        phi, chi = rng.uniform(-4.0, 4.0, 2)
        base = LZParams.build(beta, rng.uniform(0.1, 2.0), rng.uniform(0.1, 3.0), 0.0, phi, alpha_m, chi)
        deltas = np.concatenate(([0.0, 1.0, 0.5], rng.uniform(0.0, 1.0, 30)))
        yield base, deltas


def test_block_rows_equal_the_per_row_propagation_bitwise():
    for base, deltas in _random_tables(7, 40):
        block = unmonitored_cycle(base, deltas)
        table = monitored_vs_unmonitored(base, deltas)
        for i, delta in enumerate(deltas.tolist()):
            row = unmonitored_cycle(base.with_delta(delta), delta)
            want = [row.e1, row.e2, row.e3, row.e4, row.w, row.q_m, row.q_t]
            got = [block.e1[i], block.e2[i], block.e3[i], block.e4[i], block.w[i], block.q_m[i], block.q_t[i]]
            # equal with the sign of every zero
            assert [(x, math.copysign(1.0, x)) for x in got] == [
                (x, math.copysign(1.0, x)) for x in want
            ]
            assert table.w_um[i] == row.w
            # the trace bound of Q_M = E3 - E2
            residue = is_rounding_residue(row.q_m, 2.0 * base.cycle.nu2)
            assert np.array_equal(table.eta_um[i], math.nan if residue else row.w / row.q_m, equal_nan=True)


def test_flows_are_within_two_eps_of_their_trace_bounds():
    # against the cycle propagated at 60 digits on the same float inputs
    eps = np.finfo(float).eps
    for base, deltas in _random_tables(7, 40):
        block = unmonitored_cycle(base, deltas)
        cyc = base.cycle
        bounds = (2.0 * (cyc.nu1 + cyc.nu2), 2.0 * cyc.nu2, 2.0 * cyc.nu1)
        for i, delta in enumerate(deltas.tolist()):
            got = (block.w[i], block.q_m[i], block.q_t[i])
            for flow, exact, bound in zip(got, lz_unmonitored_mp(base, delta), bounds):
                assert abs(flow - exact) <= 2.0 * eps * bound, (base, delta)


def test_block_heat_matches_the_closed_form_on_random_tables():
    for base, deltas in _random_tables(8, 40):
        block = unmonitored_cycle(base, deltas)
        want = [qm_unmonitored_paper(base.with_delta(d)) for d in deltas.tolist()]
        assert np.max(np.abs(block.q_m - want)) <= 1e-13 * base.cycle.nu2


def test_invalid_delta_fails_at_the_first_failing_point():
    base = build(0.0, **FIG6F)
    with pytest.raises(ValueError, match=r"delta and zeta must lie in \[0, 1\]"):
        monitored_vs_unmonitored(base, [0.5, 1.25, math.nan])
    with pytest.raises(ValueError, match="delta must be finite"):
        monitored_vs_unmonitored(base, [0.5, math.nan, -0.25])


def test_comparison_rows_are_the_single_point_averages():
    # the table takes its monitored means from one block of closed forms
    deltas = np.linspace(0.0, 1.0, 41)
    table = monitored_vs_unmonitored(build(0.0, **FIG6F), deltas)
    for i, delta in enumerate(deltas.tolist()):
        point = build(delta, **FIG6F)
        mon, um = monitored_averages(point, delta), unmonitored_cycle(point, delta)
        got = [table.delta[i], table.w_mon[i], table.eta_mon[i], table.w_um[i], table.eta_um[i]]
        assert np.array_equal(got, [delta, mon.w, mon.eta, um.w, um.eta], equal_nan=True)
        cycle = (point.cycle.tanh_beta_nu1, *point.cycle[1:3], delta, delta)
        mag = _first_two(*cycle, point.channel.theta, magnitudes=True)
        magnitudes = (mag.w_mean, mag.qm_mean, mag.qt_mean)
        regime = classify_regime_array(mon.w, mon.q_m, mon.q_t, FIG6F["beta"], magnitudes)
        assert table.regime_mon[i] == regime.item()
