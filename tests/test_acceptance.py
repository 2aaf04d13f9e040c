"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report.  Tolerances are fixed here; relative comparisons use an absolute
floor of 1 (``|a - b| <= tol * max(1, |a|, |b|)``) so near-zero values
are compared absolutely.
"""

import math

import numpy as np

from unital_otto import (
    ControlSpec,
    CycleParams,
    LZParams,
    Regime,
    classify_regime_array,
    closed_form_block,
    closed_form_first_second,
    cumulant_ratio_block,
    cumulants_from_block,
    cf_derivative_check,
    enumerate_block,
    enumerate_paths,
    monitored_vs_unmonitored,
    sample,
    unmonitored_cycle,
)
from unital_otto.cumulants import _closed_form

from conftest import regime_of, sample_errors
from references import cf_unital, qm_unmonitored_paper


def report(num, ok, detail):
    print(f"[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def bisect(f, lo, hi, iters=80):
    f_lo = f(lo)
    assert f_lo * f(hi) < 0.0, "bisection bracket does not straddle a root"
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f_lo * f(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_criterion_1_quoted_work_and_relative_fluctuations():
    params = CycleParams(0.7, 1.0, 2.0, 0.0, 0.0)
    checks = []
    for theta, mean_ref, rf_ref in ((0.2, 0.241747, 12.6889), (0.7, 0.846115, 2.9111)):
        cums = cumulants_from_block(enumerate_paths(params, theta))
        rf = cums.w[1] / cums.w[0] ** 2
        checks.append(abs(cums.w[0] - mean_ref) < 1e-5)
        checks.append(abs(rf - rf_ref) / rf_ref < 1e-3)
    report(1, all(checks), "work means 0.241747/0.846115, RFs 12.6889/2.9111")


def test_criterion_2_zero_work_thresholds():
    beta, nu1, nu2 = 0.7, 1.0, 2.0

    def plain_work(theta):
        return lambda d: cumulants_from_block(
            enumerate_paths(CycleParams(beta, nu1, nu2, d, d), theta)
        ).w[0]

    def cs_work(theta, branch):
        ctrl = ControlSpec(0.5, branch)
        return lambda d: cumulants_from_block(
            enumerate_paths(CycleParams(beta, nu1, nu2, d, d), theta, ctrl)
        ).w[0]

    targets = [
        (plain_work(0.2), 0.10685),
        (plain_work(0.7), 0.31125),
        (cs_work(0.2, "plus"), 0.070290),
        (cs_work(0.2, "minus"), 0.20871),
        (cs_work(0.5, "plus"), 0.17712),
        (cs_work(0.5, "minus"), 0.36603),
    ]
    deviations = []
    for work, expected in targets:
        root = bisect(work, 1e-6, 0.499)
        deviations.append(abs(root - expected))
    ok = all(dev < 1e-4 for dev in deviations)
    report(2, ok, f"six bisection roots, max deviation {max(deviations):.2e}")


def test_criterion_3_regime_flip_at_exact_rational_root():
    params = CycleParams(0.5, 1.0, 2.0, 0.1, 0.1)

    def work(theta):
        return cumulants_from_block(enumerate_paths(params, theta)).w[0]

    root = bisect(work, 0.05, 0.9)
    below = regime_of(closed_form_first_second(params, root - 1e-4), 0.5)
    above = regime_of(closed_form_first_second(params, root + 1e-4), 0.5)
    ok = (
        abs(root - 0.1875) < 1e-6
        and below is Regime.ACCELERATOR
        and above is Regime.ENGINE
    )
    report(3, ok, f"accelerator -> engine at theta = {root:.9f}")


def _random_cycle(gen, symmetric=False):
    beta = 0.0
    while beta == 0.0:
        beta = gen.uniform(-2.0, 2.0)
    delta = gen.random()
    zeta = delta if symmetric else gen.random()
    return CycleParams(beta, gen.uniform(1e-3, 3.0), gen.uniform(1e-3, 3.0), delta, zeta)


def test_criterion_4_route_agreement():
    gen = np.random.default_rng(2024)
    worst_closed = worst_fd = 0.0
    for _ in range(10_000):
        params = _random_cycle(gen)
        theta = gen.random()
        cums = cumulants_from_block(enumerate_paths(params, theta))
        first = closed_form_first_second(params, theta)
        for a, b in (
            (cums.w[0], first.w_mean),
            (cums.w[1], first.w_var),
            (cums.q_m[0], first.qm_mean),
            (cums.q_m[1], first.qm_var),
            (cums.qt_mean, first.qt_mean),
        ):
            worst_closed = max(worst_closed, abs(a - b) / max(1.0, abs(a), abs(b)))
        fd = cf_derivative_check(*params, theta)
        # kappa_k rounds relative to E^k, E the largest |outcome|, which a
        # small kappa_3 or kappa_4 does not show: the floor is max(1, E^k)
        w_scale, q_scale = 2.0 * (params.nu1 + params.nu2), 2.0 * params.nu2
        for k in range(4):
            for a, b, floor in (
                (fd.w[k], cums.w[k], w_scale ** (k + 1)),
                (fd.q_m[k], cums.q_m[k], q_scale ** (k + 1)),
            ):
                worst_fd = max(worst_fd, abs(a - b) / max(1.0, floor, abs(a), abs(b)))
    worst_cf = 0.0
    for _ in range(100):
        params = _random_cycle(gen)
        theta = gen.random()
        dist = enumerate_paths(params, theta)
        gw, gm = gen.uniform(-4.0, 4.0, size=2)
        brute = complex(np.sum(dist.prob * np.exp(1j * (gw * dist.w + gm * dist.q_m))))
        worst_cf = max(worst_cf, abs(cf_unital(params, theta, gw, gm) - brute))
    ok = worst_closed <= 1e-12 and worst_fd <= 1e-13 and worst_cf <= 1e-12
    report(
        4,
        ok,
        f"closed-form {worst_closed:.2e} <= 1e-12, derivative (orders 1-4) {worst_fd:.2e} <= 1e-13, "
        f"CF points {worst_cf:.2e} <= 1e-12",
    )


def _closed_forms(points, thetas, *directions):
    """Closed forms at every (CycleParams, theta) pair: one
    closed_form_block call per direction, the backward one at (zeta,
    delta).  A row is the point's closed_form_first_second bit for bit,
    which is a 0-d row of the same block; test_block judges both against
    the 60-digit oracle."""
    beta, nu1, nu2, d, z = ([getattr(p, k) for p in points]
                            for k in ("beta", "nu1", "nu2", "delta", "zeta"))
    strokes = {"forward": (d, z), "backward": (z, d)}
    return [closed_form_block(beta, nu1, nu2, *strokes[key], thetas) for key in directions]


def test_criterion_5_proved_inequality_suite():
    gen = np.random.default_rng(551)
    margin = 1e-10
    violations = []

    def positive_beta(params):
        if params.beta < 0:
            return CycleParams(-params.beta, params.nu1, params.nu2, params.delta, params.zeta)
        return params

    # bath heat never positive at positive temperature
    points, thetas = [], []
    for _ in range(10_000):
        points.append(positive_beta(_random_cycle(gen)))
        thetas.append(gen.random())
    (fwd,) = _closed_forms(points, thetas, "forward")
    for qt in fwd.qt_mean.tolist():
        if qt > margin:
            violations.append("qt_nonpositive")

    # no work from an unchanged gap, forward + backward
    points, thetas = [], []
    for _ in range(10_000):
        base = _random_cycle(gen)
        points.append(CycleParams(abs(base.beta), base.nu1, base.nu1, base.delta, base.zeta))
        thetas.append(gen.random())
    fwd, bwd = _closed_forms(points, thetas, "forward", "backward")
    for total in (fwd.w_mean + bwd.w_mean).tolist():
        if total > margin:
            violations.append("equal_gap_work")

    # engine efficiency capped by Otto: the machine is the forward and
    # backward cycle on equal footing, so classify the summed flows
    points, thetas = [], []
    for _ in range(10_000):
        symmetric = gen.random() < 0.5
        points.append(_random_cycle(gen, symmetric=symmetric))
        thetas.append(gen.random())
    fwd, bwd = _closed_forms(points, thetas, "forward", "backward")
    work, heat = fwd.w_mean + bwd.w_mean, fwd.qm_mean + bwd.qm_mean
    # the flows' magnitudes, those of the same closed forms
    keys = ("beta", "nu1", "nu2", "delta", "zeta")
    columns = [np.array([getattr(p, k) for p in points]) for k in keys]
    fwd_mag, bwd_mag = (_closed_form(*columns[:3], *strokes, np.array(thetas), magnitudes=True)
                        for strokes in ((columns[3], columns[4]), (columns[4], columns[3])))
    magnitudes = (fwd_mag.w_mean + bwd_mag.w_mean, fwd_mag.qm_mean + bwd_mag.qm_mean,
                  fwd_mag.qt_mean)
    regimes = classify_regime_array(work, heat, fwd.qt_mean, [p.beta for p in points], magnitudes)
    engines = 0
    for params, w, q, regime in zip(points, work.tolist(), heat.tolist(), regimes):
        if regime != Regime.ENGINE:
            continue
        engines += 1
        if w / q > 1.0 - params.nu1 / params.nu2 + margin:
            violations.append("eta_le_otto")

    # symmetric cycle: eta^2 <= ratio <= 1 under its precondition, and
    # the Otto-squared lower bound under its own
    points, thetas = [], []
    for _ in range(10_000):
        points.append(_random_cycle(gen, symmetric=True))
        thetas.append(gen.random())
    (fwd,) = _closed_forms(points, thetas, "forward")
    rows = zip(
        points, thetas, fwd.w_mean.tolist(), fwd.w_var.tolist(), fwd.qm_mean.tolist(),
        fwd.qm_var.tolist(),
    )
    cond_hits = hopm_hits = 0
    for params, theta, w_mean, w_var, qm_mean, qm_var in rows:
        d, nu1, nu2 = params.delta, params.nu1, params.nu2
        if qm_var <= 0 or abs(qm_mean) < 1e-12:
            continue
        ratio = w_var / qm_var
        eta = w_mean / qm_mean
        condnu = 2 * (1 - 2 * d) * theta * nu2 >= (theta + 2 * d * (1 - d) * (1 - 2 * theta)) * nu1
        hopm = (1 - 2 * d) * theta * nu2 >= (1 - d) * (d + theta - 2 * d * theta) * nu1
        if condnu:
            cond_hits += 1
            if eta * eta > ratio + margin or ratio > 1.0 + margin:
                violations.append("symmetric_chain")
        if hopm:
            hopm_hits += 1
            if (1 - nu1 / nu2) ** 2 > ratio + margin:
                violations.append("otto_sq_lower")

    # asymmetric symmetrised chain under its precondition
    points, thetas = [], []
    for _ in range(10_000):
        points.append(_random_cycle(gen))
        thetas.append(gen.random())
    fwd, bwd = _closed_forms(points, thetas, "forward", "backward")
    rows = zip(
        points, thetas, (fwd.w_mean + bwd.w_mean).tolist(), (fwd.w_var + bwd.w_var).tolist(),
        (fwd.qm_mean + bwd.qm_mean).tolist(), (fwd.qm_var + bwd.qm_var).tolist(),
    )
    connu2_hits = 0
    for params, theta, work, w_spread, heat, spread in rows:
        d, z, nu1, nu2 = params.delta, params.zeta, params.nu1, params.nu2
        s = d + z - 2 * d * z
        if 2 * theta * (1 - d - z) * nu2 < (theta + (1 - 2 * theta) * s) * nu1:
            continue
        if spread <= 0 or abs(heat) < 1e-12:
            continue
        connu2_hits += 1
        ratio = w_spread / spread
        eta = work / heat
        if eta * eta > ratio + margin or ratio > 1.0 + margin:
            violations.append("asymmetric_chain")

    # coherently controlled bath heat for theta <= 1/2, beta > 0
    points, flips = [], []
    for _ in range(10_000):
        points.append(positive_beta(_random_cycle(gen)))
        ctrl = ControlSpec(gen.random(), "plus" if gen.random() < 0.5 else "minus")
        flips.append(ctrl.flip_probability(0.5 * gen.random()))
    (fwd,) = _closed_forms(points, flips, "forward")
    for qt in fwd.qt_mean.tolist():
        if qt > margin:
            violations.append("cs_qt_nonpositive")

    ok = not violations and engines > 100 and cond_hits > 100 and connu2_hits > 100
    report(
        5,
        ok,
        f"no violations in 6x10^4 tuples "
        f"(engine {engines}, condnu {cond_hits}, hopm {hopm_hits}, connu2 {connu2_hits}); "
        f"violated: {sorted(set(violations))}",
    )


def test_criterion_6_adiabatic_cumulant_identities():
    gen = np.random.default_rng(66)
    worst = 0.0
    for _ in range(300):
        beta = gen.uniform(-2.0, 2.0) or 0.5
        nu1 = gen.uniform(0.1, 3.0)
        nu2 = gen.uniform(0.1, 3.0)
        theta = gen.uniform(0.01, 1.0)
        params = CycleParams(beta, nu1, nu2, 0.0, 0.0)
        cums = cumulants_from_block(enumerate_paths(params, theta))
        otto = 1.0 - nu1 / nu2
        for n in range(4):
            # cross-multiplied form keeps the identity well conditioned
            # when kappa_n(Q_M) nearly cancels internally
            lhs, rhs = cums.w[n], otto ** (n + 1) * cums.q_m[n]
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))
    ok = worst <= 1e-12
    report(6, ok, f"kappa_n(W) = (1 - nu1/nu2)^n kappa_n(Q_M), worst {worst:.2e}")


def test_criterion_7_higher_cumulant_corridor_escapes():
    block = enumerate_block(0.5, 1.0, 2.0, 0.1, 0.1, np.linspace(0.01, 1.0, 500))
    r3, r4 = (cumulant_ratio_block(block, order) for order in (3, 4))
    out3 = (r3.below_eta_power | r3.above_one).any()
    out4 = (r4.below_eta_power | r4.above_one).any()
    neg3 = (~r3.undefined & (r3.ratio < 0.0)).any()
    neg4 = (~r4.undefined & (r4.ratio < 0.0)).any()
    ok = out3 and out4 and neg3 and neg4
    report(7, ok, "third/fourth ratios escape [eta^n, 1], negative cases included")


def test_criterion_8_landau_zener():
    worst = 0.0
    for delta in np.linspace(0.0, 1.0, 6):
        for alpha_m in np.linspace(0.05, math.pi - 0.05, 5):
            for phi in np.linspace(0.0, 2 * math.pi, 4):
                for chi in np.linspace(0.0, 2 * math.pi, 4):
                    p = LZParams.build(0.5, 0.7, 1.3, float(delta), float(phi),
                                       float(alpha_m), float(chi))
                    heat = unmonitored_cycle(p, p.delta).q_m
                    worst = max(worst, abs(heat - qm_unmonitored_paper(p)))
    formula_ok = worst <= 1e-12

    grid = np.linspace(0.0, 1.0, 101)
    equal_gap = LZParams.build(0.5, 0.4, 0.4, 0.0, 0.0, math.pi / 4, 0.0)
    table_a = monitored_vs_unmonitored(equal_gap, grid)
    fig6a_ok = table_a.w_mon.max() <= 1e-12 and (table_a.w_um > 1e-9).any()

    otto_ok = True
    exceeds = False
    for spec in (
        LZParams.build(0.5, 0.4, 0.4, 0.0, 0.0, math.pi / 4, 0.0),
        LZParams.build(0.5, 0.4, 0.9, 0.0, 0.1, math.pi / 3, 0.1),
    ):
        otto = 1.0 - spec.cycle.nu1 / spec.cycle.nu2
        table = monitored_vs_unmonitored(spec, np.linspace(0.001, 0.999, 199))
        if (table.eta_mon[table.regime_mon == Regime.ENGINE] > otto + 1e-12).any():
            otto_ok = False
        if (table.eta_um[table.regime_um == Regime.ENGINE] > otto + 1e-9).any():
            exceeds = True
    ok = formula_ok and fig6a_ok and otto_ok and exceeds
    report(
        8,
        ok,
        f"matrix-vs-formula {worst:.2e} <= 1e-12; equal gaps: only unmonitored works; "
        "monitored efficiency Otto-capped, unmonitored exceeds it",
    )


def test_criterion_9_monte_carlo_oracle():
    gen = np.random.default_rng(909)
    ok = True
    for trial in range(20):
        params = _random_cycle(gen)
        theta = gen.random()
        dist = enumerate_paths(params, theta)
        exact = cumulants_from_block(dist)
        stats = sample(dist, 10**6, seed=7000 + trial)
        for summary, kappa in ((stats.w, exact.w), (stats.q_m, exact.q_m)):
            mean_err, var_err = sample_errors(kappa, stats.count)
            if mean_err > 0:
                ok = ok and abs(summary.mean - kappa[0]) < 5 * mean_err
            else:
                ok = ok and summary.mean == kappa[0]
            if var_err > 0:
                ok = ok and abs(summary.variance - kappa[1]) < 5 * var_err
    repro = sample(enumerate_paths(CycleParams(0.7, 1.0, 2.0, 0.1, 0.1), 0.2), 10**5, seed=1)
    again = sample(enumerate_paths(CycleParams(0.7, 1.0, 2.0, 0.1, 0.1), 0.2), 10**5, seed=1)
    ok = ok and repro == again
    report(9, ok, "20 tuples within 5 standard errors; fixed seed bit-identical")
