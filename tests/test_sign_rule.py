"""The one zero rule for energies: every sign it decides is the exact sign,
every exact zero reads as a residue, and no verdict depends on the unit.

The exact side is ``references.exact_means``: the 16 path records summed
in rational arithmetic on the same float inputs.
"""

import contextlib
import io
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unital_otto import (
    CycleParams, Regime, analysis, cumulants_from_block, is_rounding_residue, landauzener,
    mean_magnitudes, trajectory, verify_bounds_block,
)
from unital_otto.arraycli import _block_fields
from unital_otto.cli import main

from references import exact_bounds, exact_means, exact_regime

MODES = [("symmetric", "minus"), ("asymmetric", "minus"), ("cs", "plus"), ("cs", "minus")]


def oracle_points(rng, n, mode, branch):
    """Random cycles, about half of them set on exact zeros and ties:
    dyadic delta with zeta = 1 - delta (forward and backward heat cancel),
    delta = 1/2 (no heat), theta in {0, 1/2, 1}, equal gaps, nu1 = 2 nu2,
    adiabatic strokes (eta equals the Otto efficiency), beta = 0 and beta
    nu1 where tanh saturates.  A tenth put nu2 a relative 1e-13 or 1e-11
    off the forward work threshold, where <W> has a clear sign far below
    any absolute tolerance."""
    beta = rng.uniform(-2.0, 2.0, n)
    nu1 = np.exp(rng.uniform(math.log(1e-2), math.log(20.0), n))
    nu2 = np.exp(rng.uniform(math.log(1e-2), math.log(20.0), n))
    delta, zeta, theta = rng.random(n), rng.random(n), rng.random(n)

    def some(values):
        pick = rng.random(n) < 0.15
        column = rng.choice(values, n)
        return pick, column

    pick, column = some(np.arange(65) / 64)
    delta[pick] = column[pick]
    pick = rng.random(n) < 0.2
    zeta[pick] = 1.0 - delta[pick]
    pick, column = some([0.0, 0.5, 1.0])
    theta[pick] = column[pick]
    pick, column = some([0.0, 0.0, -40.0, 40.0])
    beta[pick] = column[pick]
    pick = rng.random(n) < 0.1
    nu2[pick] = nu1[pick]
    pick = rng.random(n) < 0.05
    nu1[pick] = 2.0 * nu2[pick]
    pick = rng.random(n) < 0.1
    delta[pick] = zeta[pick] = 0.0
    if mode == "symmetric":
        zeta = delta.copy()
    alpha = None
    if mode == "cs":
        alpha = rng.random(n)
        pick, column = some([0.0, 0.5, 1.0])
        alpha[pick] = column[pick]
        doubled = 1.0 + (1.0 if branch == "plus" else -1.0) * np.sqrt(alpha * (1.0 - alpha))
        theta = np.minimum(theta, doubled)
    # <W> = 2 t ((1 - 2 delta) flip nu2 - g nu1) with g = flip + (1 - 2 flip) s
    flip = theta if alpha is None else trajectory._controlled_flip(theta, alpha, branch)
    g = flip + (1.0 - 2.0 * flip) * (delta + zeta - 2.0 * delta * zeta)
    lever = (1.0 - 2.0 * delta) * flip
    pick = (rng.random(n) < 0.1) & (lever > 0.05)
    offset = rng.choice([-1e-11, -1e-13, 1e-13, 1e-11], n)
    nu2[pick] = (g * nu1 / np.where(pick, lever, 1.0) * (1.0 + offset))[pick]
    return [beta, nu1, nu2, delta, zeta, theta], alpha


def abstains(value, magnitude, exact) -> bool:
    """Whether the package reads ``value`` as 0, checking that this is
    sound: an exact zero must read as 0, and a value read as 0 must lie
    within the residue bound of its exact value, 32 eps M for the reading
    plus 32 eps M for the rounding."""
    if not is_rounding_residue(value, magnitude):
        assert exact != 0, "an exact zero read as a sign"
        return False
    assert abs(exact) <= 64.0 * np.finfo(float).eps * magnitude, "a clear sign read as 0"
    return True


@pytest.mark.parametrize("mode, branch", MODES)
def test_printed_signs_and_verdicts_match_exact_arithmetic(rng, mode, branch):
    # 1250 points a mode, 5000 in all: the regime and every bound verdict,
    # as sweep prints them, against exact arithmetic that reads as 0 what
    # the package soundly reads as 0
    cycle, alpha = oracle_points(rng, 1250, mode, branch)
    columns = cycle + ([] if alpha is None else [alpha])
    # a seventh column is the control; zeta = delta throughout adds the
    # symmetric cycle's bound, as a sweep decides it for its whole run
    symmetric = bool((cycle[3] == cycle[4]).all())
    control = None if alpha is None else branch
    names = [r.name for r in analysis._bounds(*np.empty((8, 0)), control, symmetric)]
    fields = _block_fields(columns, branch, symmetric, {"regime", *names})
    flip = cycle[5] if alpha is None else trajectory._controlled_flip(cycle[5], alpha, branch)
    t = trajectory._tanh_columns(cycle[0], cycle[1])
    # the package's own values and magnitudes: the enumerated flows that
    # the regime reads, and the closed forms that the bounds read
    enumerated = cumulants_from_block(trajectory._enumerate(t, *cycle[1:5], flip))
    flows = (enumerated.w_mean, enumerated.qm_mean, enumerated.qt_mean)
    flow_mags = mean_magnitudes(trajectory._enumerate(t, *cycle[1:5], flip))
    means, mags, fwd, fwd_mag = analysis._pair_means(t, *cycle[1:5], flip)
    plain, plain_mag, _, _ = analysis._pair_means(t, *cycle[1:5], cycle[5])
    decided = {
        "qt": (fwd.qt_mean, fwd_mag.qt_mean),
        "work": (means.w_mean, mags.w_mean), "heat": (means.qm_mean, mags.qm_mean),
        "qm_var": (means.qm_var, mags.qm_var), "plain_heat": (plain.qm_mean, plain_mag.qm_mean),
    }
    zeros = 0
    for i in range(len(t)):
        beta, nu1, nu2, d, z, theta = (float(c[i]) for c in cycle)
        exact = exact_means(t[i], nu1, nu2, d, z, flip[i])
        read = [0 if abstains(f[i], m[i], e) else e
                for f, m, e in zip(flows, flow_mags, (exact[0], exact[2], exact[4]))]
        want = exact_regime(*read, beta)
        zeros += want is Regime.UNDETERMINED
        assert fields["regime"][i] == want, (i, exact)

        def zero(name, value):
            return abstains(decided[name][0][i], decided[name][1][i], value)

        for name, applicable, satisfied in exact_bounds(
            beta, t[i], nu1, nu2, d, z, theta, flip[i], mode, branch, zero
        ):
            verdict = (1 - satisfied) if applicable else 2
            assert fields[name][i] == verdict, (i, name)
    assert zeros > 100


def test_grid_undetermined_cells_are_the_exact_zeros():
    # delta in [0, 1/2] x theta in [0.05, 0.5] at beta 0.7, gaps 1 and 3: the
    # flows vanish on the delta = 1/2 column (no heat) and at delta = 1/4,
    # theta = 3/10 (nu2 at the work threshold 3 nu1).  The nodes are meant
    # as the decimals, and the float grid lies within an ulp of them.
    rows = rows_of(GRID + ["--beta", "0.7", "--nu1", "1", "--nu2", "3"])
    assert len(rows) == 110
    t = CycleParams(0.7, 1.0, 3.0, 0.0, 0.0).tanh_beta_nu1
    exact = set()
    for i in range(11):
        for j in range(10):
            d, theta = Fraction(i, 20), Fraction(j + 1, 20)
            means = exact_means(t, 1, 3, d, d, theta)
            if exact_regime(means[0], means[2], means[4], 1) is Regime.UNDETERMINED:
                exact.add((i, j))
    printed = {(k // 10, k % 10) for k, row in enumerate(rows) if row[5] == "Undetermined"}
    assert printed == exact == {(10, j) for j in range(10)} | {(5, 5)}


GRID = ["classify", "--axis", "delta", "--start", "0", "--stop", "0.5", "--steps", "11",
        "--axis2", "theta", "--start2", "0.05", "--stop2", "0.5", "--steps2", "10",
        "--delta", "0", "--zeta", "0", "--theta", "0.2"]


def rows_of(argv) -> list[list[str]]:
    """The cells of each row a successful command prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return [row.split(",") for row in out.getvalue().splitlines()[2:]]


def test_grid_labels_do_not_depend_on_the_energy_unit():
    def grid(s):
        flags = ["--beta", repr(0.7 / s), "--nu1", repr(s), "--nu2", repr(3.0 * s)]
        return [row[5] for row in rows_of(GRID + flags)]

    at_one = grid(1.0)
    for s in (1e-12, 1e-9, 1e-6, 1e3, 1e5, 1e8, 1e12):
        assert grid(s) == at_one, s


def special(x: str) -> str:
    """A nan or infinite cell by what it prints; a number is only a number."""
    return x if x in ("nan", "inf", "-inf") else "number"


@settings(max_examples=10, deadline=None)
@given(
    k=st.integers(-40, 40),
    beta=st.sampled_from([0.0, 0.3, -1.1, 2.0, 40.0]),
    nu1=st.sampled_from([0.01, 0.7, 1.0, 3.0]),
    ratio=st.sampled_from([0.5, 1.0, 2.0, 3.0]),
    zeta=st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
    theta=st.sampled_from([0.0, 0.3, 0.5]),
    cs=st.sampled_from([None, "plus", "minus"]),
)
def test_verdicts_are_invariant_under_a_power_of_two_energy_unit(
    k, beta, nu1, ratio, zeta, theta, cs
):
    # beta / s and s nu with s = 2^k scale every input exactly, so every
    # difference between the two runs would come from a zero test
    def run(s):
        cycle = [beta / s, nu1 * s, nu1 * ratio * s]
        flags = [f"--{name}={x!r}" for name, x in zip(("beta", "nu1", "nu2"), cycle)]
        point = flags + ["--delta", "0.25", f"--zeta={zeta!r}", f"--theta={theta!r}"]
        point += ["--cs-alpha", "0.3", "--branch", cs] if cs else []
        axis = ["--axis", "delta", "--start", "0", "--stop", "1", "--steps", "9"]
        # sweep: the axis, nine cumulants, qt_mean, w_rf and the efficiency,
        # then the labels; classify: the regime; lz-compare: the two etas
        # and regimes
        out = [[special(c) for c in row[:12]] + row[12:] for row in rows_of(["sweep", *point, *axis])]
        out += [row[5] for row in rows_of(
            ["classify", *point, *axis[:-1], "5", "--axis2", "theta", "--start2", "0",
             "--stop2", "0.5", "--steps2", "5"])]
        out += [[special(row[2]), row[3], special(row[5]), row[6]] for row in rows_of(
            ["lz-compare", *flags, f"--alpha-m={math.pi / 2!r}", *axis])]
        control = (0.3, cs) if cs else ()
        delta = np.linspace(0.0, 1.0, 9)
        for report in verify_bounds_block(*cycle, delta, zeta, theta, *control):
            out.append([report.name, report.applicable.tolist(), report.satisfied.tolist()])
        return out

    assert run(2.0**k) == run(1.0)


def test_landauzener_flows_use_the_trace_bound():
    # alpha-m = pi/2 and delta = 1/2: the unmonitored heat is 0 up to the
    # rounding of cos(alpha-m), and at phi = -3, chi = 0.3 the propagation
    # leaves a nonzero residue of its trace bound 2 nu2 (at chi = 0 it
    # cancels to 0.0), which reads as 0 in every unit
    for s in (2.0**-30, 1.0, 2.0**30):
        base = landauzener.LZParams.build(0.5 / s, 0.4 * s, 0.9 * s, 0.5, -3.0, math.pi / 2, 0.3)
        avg = landauzener.unmonitored_cycle(base, 0.5)
        assert avg.q_m != 0.0 and abs(avg.q_m) <= 64.0 * np.finfo(float).eps * 0.9 * s
        assert math.isnan(avg.eta)
        table = landauzener.monitored_vs_unmonitored(base, [0.5])
        assert table.regime_um.tolist() == table.regime_mon.tolist() == [Regime.UNDETERMINED]
