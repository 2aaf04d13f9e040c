"""Reference model of the unital Otto cycle and checkers for CLI output.

Written from the model description alone; nothing here imports
``unital_otto``.  The cycle is a finite list of sixteen measurement
records (n, m, k, l), each a sign +1 (excited) or -1 (ground):

    p = thermal(n) * T(m|n; delta) * T(k|m; theta) * T(l|k; zeta)
    W = (n - l) nu1 + (k - m) nu2,    Q_M = (k - m) nu2

with thermal weights (1 -+ tanh(beta nu1))/2 for the excited/ground
state and T(b|a; x) = x when the sign flips, 1 - x otherwise.  The
coherently controlled (cs) cycle mixes the channel table with weight
1/(2 p_b) and the identity-channel table (theta = 0) with weight
s c/(2 p_b), where c = sqrt(alpha (1 - alpha)), s = +1 (plus branch) or
-1 (minus) and p_b = (1 + s c)/2.  The unmonitored Landau-Zener route
propagates the 2x2 density matrix through U, the measurement channel
and V = U^T.

Every array function is vectorised over leading axes, so a whole
201 x 201 grid is one call.

Tolerances.  A numeric cell x passes against the reference r when

    |x - r| <= RTOL |r| + ATOL E^k

where E = max(nu1, nu2) and k is the cell's order in energy (1 for
means, n for the n-th cumulant).  Enumeration in float64 is accurate to
about 6e-13 relative, so RTOL = 1e-9 leaves three decades of margin for
a different summation order; ATOL is the floor for cells whose
reference is zero.  Regime labels must match exactly, except where a
reference flow lies within the classifier tolerance (1e-12, plus the
numeric tolerance of that flow) of zero.  Monte Carlo z-scores must stay
below Z_LIMIT in magnitude.
"""

from __future__ import annotations

import functools
import math
from types import MappingProxyType

import numpy as np

RTOL = 1e-9
ATOL = 1e-12
REGIME_TOL = 1e-12
Z_LIMIT = 6.0

# (n, m, k, l) for the sixteen records, +1 = excited
SIGNS = np.array(
    [(n, m, k, l) for n in (-1, 1) for m in (-1, 1) for k in (-1, 1) for l in (-1, 1)],
    dtype=float,
)

# Which sample of the verify-bounds campaign each inequality is checked on.
PLAIN_BOUNDS = (
    "qt_nonpositive",
    "equal_gap_work_nonpositive",
    "eta_le_otto",
    "eta_sq_le_ratio",
    "ratio_le_one",
)
BOUND_MODES = {
    **{name: ("symmetric", "asymmetric") for name in PLAIN_BOUNDS},
    "otto_sq_le_ratio": ("symmetric",),
    "cs_qt_nonpositive": ("cs",),
    "cs_eta_le_otto": ("cs",),
    "cs_eta_branch_order": ("cs",),
}


# ---------------------------------------------------------------- model


def path_table(beta, nu1, nu2, delta, zeta, theta):
    """(W, Q_M, p) arrays of shape (..., 16) for the unital cycle."""
    beta, nu1, nu2, delta, zeta, theta = (
        np.asarray(x, dtype=float)[..., None]
        for x in np.broadcast_arrays(beta, nu1, nu2, delta, zeta, theta)
    )
    n, m, k, l = SIGNS.T
    t = np.tanh(beta * nu1)

    def step(after, before, prob):
        return np.where(after != before, prob, 1.0 - prob)

    p = np.where(n > 0, 0.5 * (1.0 - t), 0.5 * (1.0 + t))
    p = p * step(m, n, delta) * step(k, m, theta) * step(l, k, zeta)
    w = (n - l) * nu1 + (k - m) * nu2
    q = (k - m) * nu2
    return w, q, p


def cs_table(beta, nu1, nu2, delta, zeta, theta, alpha, sign):
    """(W, Q_M, weight) arrays of shape (..., 32) for the cs cycle.

    The weights are signed; their sums and moments are those of the
    post-selected branch distribution.
    """
    c = np.sqrt(np.asarray(alpha, dtype=float) * (1.0 - np.asarray(alpha, dtype=float)))
    p_b = 0.5 * (1.0 + sign * c)
    w1, q1, p1 = path_table(beta, nu1, nu2, delta, zeta, theta)
    w0, q0, p0 = path_table(beta, nu1, nu2, delta, zeta, 0.0)
    p1 = p1 / (2.0 * p_b)[..., None]
    p0 = p0 * (sign * c / (2.0 * p_b))[..., None]
    return (
        np.concatenate([w1, w0], axis=-1),
        np.concatenate([q1, q0], axis=-1),
        np.concatenate([p1, p0], axis=-1),
    )


def cumulants(values, prob):
    """First four cumulants along the last axis, shape (..., 4)."""
    mean = np.sum(prob * values, axis=-1)
    c = values - mean[..., None]
    c2 = np.sum(prob * c**2, axis=-1)
    c3 = np.sum(prob * c**3, axis=-1)
    c4 = np.sum(prob * c**4, axis=-1)
    return np.stack([mean, c2, c3, c4 - 3.0 * c2 * c2], axis=-1)


def means(w, q, p):
    """(<W>, <Q_M>, <Q_T>) with <Q_T> = <W> - <Q_M>."""
    w_mean = np.sum(p * w, axis=-1)
    q_mean = np.sum(p * q, axis=-1)
    return w_mean, q_mean, w_mean - q_mean


def regime(w, qm, qt, beta, tol=REGIME_TOL):
    """Operating regime from the signs of the three mean flows.

    beta > 0 with heat dumped into the bath (Q_T <= 0): Engine when the
    channel gives heat and work is extracted, Accelerator when it gives
    heat but work is spent, Heater when both are negative.  beta < 0
    with heat drawn from the bath: Engine / Accelerator with Q_M <= 0,
    EnginePrime when Q_M and W are both positive.  Any flow (or beta)
    within ``tol`` of zero is Undetermined.
    """
    w, qm, qt, beta = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (w, qm, qt, beta)))
    sw, sq, st = w > 0.0, qm > 0.0, qt > 0.0
    out = np.full(w.shape, "Undetermined", dtype=object)
    pos = (beta > 0.0) & ~st
    neg = (beta < 0.0) & st
    out[pos & sq & sw] = "Engine"
    out[pos & sq & ~sw] = "Accelerator"
    out[pos & ~sq & ~sw] = "Heater"
    out[neg & ~sq & sw] = "Engine"
    out[neg & ~sq & ~sw] = "Accelerator"
    out[neg & sq & sw] = "EnginePrime"
    small = (np.abs(beta) <= tol) | (np.minimum(np.minimum(abs(w), abs(qm)), abs(qt)) <= tol)
    out[small] = "Undetermined"
    return out


def lz_unitary(delta, phi):
    """Expansion unitary U of shape (..., 2, 2), basis (|+>, |->).

    U = [[sqrt(1-d) e^{i phi}, sqrt(d)], [-sqrt(d), sqrt(1-d) e^{-i phi}]];
    this phase convention gives <Q_M>um the +cos(phi + chi)
    interference term of the closed form.
    """
    delta = np.asarray(delta, dtype=float)
    stay = np.sqrt(1.0 - delta) + 0j
    jump = np.sqrt(delta) + 0j
    e = np.exp(1j * phi)
    return np.stack(
        [np.stack([stay * e, jump], -1), np.stack([-jump, stay * np.conj(e)], -1)], -2
    )


def measurement_projectors(alpha_m, chi):
    """Projectors onto |psi_1>, |psi_2> of the tilted measurement channel."""
    c, s = math.cos(alpha_m / 2.0), math.sin(alpha_m / 2.0)
    e = np.exp(-1j * chi)
    psi1 = np.array([e * s, -c])
    psi2 = np.array([c, np.conj(e) * s])
    return [np.outer(v, v.conj()) for v in (psi1, psi2)]


def lz_unmonitored(beta, nu1, nu2, deltas, alpha_m, phi, chi):
    """(<W>, <Q_M>, <Q_T>) of the unmonitored cycle by density-matrix propagation."""
    t = math.tanh(beta * nu1)
    rho1 = np.diag([0.5 * (1.0 - t), 0.5 * (1.0 + t)]).astype(complex)
    u = lz_unitary(deltas, phi)
    v = np.swapaxes(u, -1, -2)

    def conj_by(a, rho):
        return a @ rho @ np.conj(np.swapaxes(a, -1, -2))

    rho2 = conj_by(u, rho1)
    rho3 = sum(conj_by(k, rho2) for k in measurement_projectors(alpha_m, chi))
    rho4 = conj_by(v, rho3)

    def energy(rho, nu):
        return nu * (rho[..., 0, 0] - rho[..., 1, 1]).real

    q_m = energy(rho3, nu2) - energy(rho2, nu2)
    q_t = energy(rho1, nu1) - energy(rho4, nu1)
    return q_m + q_t, q_m, q_t


@functools.lru_cache(maxsize=4)
def campaign_mode_counts(seed: int, samples: int) -> MappingProxyType:
    """Sample count per mode of a ``verify-bounds`` campaign.

    Replays the campaign's documented draw order on the same PCG64
    stream: beta ~ U(-2, 2) (skipped when |beta| < 1e-9), nu1, nu2 ~
    U(1e-3, 3), delta, zeta, theta ~ U(0, 1), the mode, and for cs the
    control weight and branch.
    """
    rng = np.random.default_rng(seed)
    counts = {"symmetric": 0, "asymmetric": 0, "cs": 0}
    for _ in range(samples):
        beta = rng.uniform(-2.0, 2.0)
        if abs(beta) < 1e-9:
            continue
        rng.uniform(1e-3, 3.0)
        rng.uniform(1e-3, 3.0)
        rng.random()
        rng.random()
        rng.random()
        mode = str(rng.choice(("symmetric", "asymmetric", "cs")))
        if mode == "cs":
            rng.random()
            rng.choice(("plus", "minus"))
        counts[mode] += 1
    return MappingProxyType(counts)


# ------------------------------------------------------------- checking


class Mismatches:
    """Collects the first few failed comparisons of one output."""

    LIMIT = 5

    def __init__(self):
        self.count = 0
        self.examples: list[str] = []

    def add(self, message: str, count: int = 1) -> None:
        if count <= 0:
            return
        self.count += count
        if len(self.examples) < self.LIMIT:
            self.examples.append(message)

    def __bool__(self) -> bool:
        return self.count > 0

    def __str__(self) -> str:
        return f"{self.count} mismatch(es): " + "; ".join(self.examples)


def _tolerance(ref, scale, order):
    return RTOL * np.abs(ref) + ATOL * np.asarray(scale, dtype=float) ** order


def _cells(got, ref, scale, order, label, bad: Mismatches) -> None:
    got = np.asarray(got, dtype=float)
    ref = np.asarray(ref, dtype=float)
    err = np.abs(got - ref)
    fail = ~(err <= _tolerance(ref, scale, order))
    if fail.any():
        i = np.flatnonzero(fail.ravel())[0]
        bad.add(
            f"{label}: got {got.ravel()[i]!r}, reference {ref.ravel()[i]!r}",
            int(fail.sum()),
        )


def _regimes(got, flows, beta, scale, label, bad: Mismatches) -> None:
    ref = regime(*flows, beta)
    near_zero = np.zeros(ref.shape, dtype=bool)
    for flow in flows:
        near_zero |= np.abs(flow) <= REGIME_TOL + _tolerance(flow, scale, 1)
    fail = (np.asarray(got, dtype=object) != ref) & ~near_zero
    if fail.any():
        i = np.flatnonzero(fail.ravel())[0]
        bad.add(
            f"{label}: got {np.asarray(got).ravel()[i]}, reference {ref.ravel()[i]}",
            int(fail.sum()),
        )


def _split(text: str, header: str, command: str, bad: Mismatches) -> list[list[str]]:
    lines = text.splitlines()
    if len(lines) < 2 or not lines[0].startswith(f"# command={command} "):
        bad.add(f"missing '# command={command}' comment line")
        return []
    if lines[1] != header:
        bad.add(f"header {lines[1]!r} != {header!r}")
        return []
    return [line.split(",") for line in lines[2:]]


def _float_columns(rows, columns, bad: Mismatches) -> np.ndarray | None:
    try:
        return np.array([[float(r[c]) for c in columns] for r in rows], dtype=float)
    except (ValueError, IndexError) as exc:
        bad.add(f"unparseable row: {exc}")
        return None


def check_classify(text: str, spec: dict) -> Mismatches:
    """A ``classify`` grid over (delta = zeta, theta) on a symmetric base."""
    bad = Mismatches()
    rows = _split(text, "delta,theta,w_mean,qm_mean,qt_mean,regime", "classify", bad)
    d_axis = np.linspace(spec["start"], spec["stop"], spec["steps"])
    t_axis = np.linspace(spec["start2"], spec["stop2"], spec["steps2"])
    if len(rows) != d_axis.size * t_axis.size:
        bad.add(f"{len(rows)} rows, expected {d_axis.size * t_axis.size}")
        return bad
    num = _float_columns(rows, range(5), bad)
    if num is None:
        return bad
    delta, theta = (a.ravel() for a in np.meshgrid(d_axis, t_axis, indexing="ij"))
    if not (np.array_equal(num[:, 0], delta) and np.array_equal(num[:, 1], theta)):
        bad.add("grid coordinates differ from linspace(start, stop, steps)")
        return bad
    beta, nu1, nu2 = spec["beta"], spec["nu1"], spec["nu2"]
    flows = means(*path_table(beta, nu1, nu2, delta, delta, theta))
    scale = max(nu1, nu2)
    for col, name, ref in zip((2, 3, 4), ("w_mean", "qm_mean", "qt_mean"), flows):
        _cells(num[:, col], ref, scale, 1, name, bad)
    _regimes([r[5] for r in rows], flows, beta, scale, "regime", bad)
    return bad


def check_verify_bounds(text: str, spec: dict) -> Mismatches:
    """Tallies add up to each bound's sample, and nothing applicable is violated."""
    bad = Mismatches()
    rows = _split(text, "bound_name,satisfied,violated,inapplicable", "verify-bounds", bad)
    if not rows:
        return bad
    names = [r[0] for r in rows]
    if sorted(names) != sorted(BOUND_MODES):
        bad.add(f"bound names {names} != {sorted(BOUND_MODES)}")
        return bad
    counts = campaign_mode_counts(spec["seed"], spec["samples"])
    for name, *tally in rows:
        try:
            sat, vio, inap = (int(x) for x in tally)
        except ValueError:
            bad.add(f"{name}: unparseable tally {tally}")
            continue
        expected = sum(counts[mode] for mode in BOUND_MODES[name])
        if min(sat, vio, inap) < 0 or sat + vio + inap != expected:
            bad.add(f"{name}: tallies {sat}+{vio}+{inap} != {expected}")
        if vio:
            bad.add(f"{name}: {vio} applicable violations")
    return bad


ROUTES = ("enumeration", "closed_form", "closed_form_delta", "cf_derivative", "cf_derivative_delta")
CUMULANT_ORDERS = (1, 2, 3, 4, 1, 2, 3, 4, 1)


def point_reference(spec: dict) -> np.ndarray:
    """w_k1..w_k4, qm_k1..qm_k4, qt_mean at one ``cumulants`` point."""
    args = [spec[k] for k in ("beta", "nu1", "nu2", "delta", "zeta", "theta")]
    if spec.get("cs_alpha") is None:
        w, q, p = path_table(*args)
    else:
        sign = 1.0 if spec["branch"] == "plus" else -1.0
        w, q, p = cs_table(*args, spec["cs_alpha"], sign)
    kw, kq = cumulants(w, p), cumulants(q, p)
    return np.concatenate([kw, kq, [kw[0] - kq[0]]])


def check_cumulants(text: str, spec: dict) -> Mismatches:
    """Enumeration and closed-form rows; the cf_derivative rows are a diagnostic."""
    bad = Mismatches()
    rows = _split(
        text, "route,w_k1,w_k2,w_k3,w_k4,qm_k1,qm_k2,qm_k3,qm_k4,qt_mean", "cumulants", bad
    )
    if [r[0] for r in rows] != list(ROUTES):
        if rows:
            bad.add(f"routes {[r[0] for r in rows]} != {list(ROUTES)}")
        return bad
    num = _float_columns(rows[:3], range(1, 10), bad)
    if num is None:
        return bad
    ref = point_reference(spec)
    scale = max(spec["nu1"], spec["nu2"])
    orders = np.array(CUMULANT_ORDERS)
    # closed forms exist for orders 1-2 (plain) or order 1 (cs)
    if spec.get("cs_alpha") is None:
        closed = np.array([1, 1, 0, 0, 1, 1, 0, 0, 1], dtype=bool)
    else:
        closed = np.array([1, 0, 0, 0, 1, 0, 0, 0, 1], dtype=bool)
    _cells(num[0], ref, scale, orders, "enumeration", bad)
    if not np.all(np.isnan(num[1:3, ~closed])):
        bad.add("closed_form rows must be nan beyond the closed-form orders")
    for j in np.flatnonzero(closed):
        _cells(num[1, j], ref[j], scale, orders[j], f"closed_form[{j}]", bad)
        if not abs(num[2, j]) <= 2.0 * _tolerance(ref[j], scale, orders[j]):
            bad.add(f"closed_form_delta[{j}] = {num[2, j]!r}")
    return bad


def check_sample(text: str, spec: dict) -> Mismatches:
    """Exact moments against the reference; every |z| below Z_LIMIT."""
    bad = Mismatches()
    header = (
        "variable,exact_mean,empirical_mean,mean_stderr,z_mean,"
        "exact_var,empirical_var,var_stderr,z_var"
    )
    rows = _split(text, header, "sample", bad)
    if [r[0] for r in rows] != ["w", "q_m"]:
        if rows:
            bad.add(f"variables {[r[0] for r in rows]} != ['w', 'q_m']")
        return bad
    num = _float_columns(rows, range(1, 9), bad)
    if num is None:
        return bad
    w, q, p = path_table(*(spec[k] for k in ("beta", "nu1", "nu2", "delta", "zeta", "theta")))
    scale = max(spec["nu1"], spec["nu2"])
    for row, label, values in zip(num, ("w", "q_m"), (w, q)):
        kappa = cumulants(values, p)
        _cells(row[0], kappa[0], scale, 1, f"{label} exact_mean", bad)
        _cells(row[4], kappa[1], scale, 2, f"{label} exact_var", bad)
        for z, name in ((row[3], "z_mean"), (row[7], "z_var")):
            if not abs(z) < Z_LIMIT:
                bad.add(f"{label} {name} = {z!r} beyond {Z_LIMIT}")
    return bad


def _eta_cells(eta, w_ref, q_ref, scale, label, bad: Mismatches) -> None:
    """eta = W / Q_M, checked as eta * Q_M = W so it stays well conditioned."""
    undefined = np.isnan(eta)
    degenerate = np.abs(q_ref) <= _tolerance(q_ref, scale, 1)
    bad.add(f"{label}: nan where Q_M is not zero", int(np.sum(undefined & ~degenerate)))
    ok = ~undefined
    lhs = eta[ok] * q_ref[ok]
    err = np.abs(lhs - w_ref[ok])
    allowed = RTOL * (np.abs(w_ref[ok]) + np.abs(lhs)) + ATOL * scale
    bad.add(f"{label}: eta * Q_M differs from W", int(np.sum(~(err <= allowed))))


def check_lz_compare(text: str, spec: dict) -> Mismatches:
    """Monitored columns against enumeration, unmonitored against propagation."""
    bad = Mismatches()
    header = "delta,w_mon,eta_mon,regime_mon,w_um,eta_um,regime_um"
    rows = _split(text, header, "lz-compare", bad)
    deltas = np.linspace(spec["start"], spec["stop"], spec["steps"])
    if len(rows) != deltas.size:
        bad.add(f"{len(rows)} rows, expected {deltas.size}")
        return bad
    num = _float_columns(rows, (0, 1, 2, 4, 5), bad)
    if num is None:
        return bad
    if not np.array_equal(num[:, 0], deltas):
        bad.add("delta column differs from linspace(start, stop, steps)")
        return bad
    beta, nu1, nu2 = spec["beta"], spec["nu1"], spec["nu2"]
    alpha_m, phi, chi = spec["alpha_m"], spec["phi"], spec["chi"]
    scale = max(nu1, nu2)
    theta = math.sin(alpha_m) ** 2 / 2.0
    mon = means(*path_table(beta, nu1, nu2, deltas, deltas, theta))
    um = lz_unmonitored(beta, nu1, nu2, deltas, alpha_m, phi, chi)
    _cells(num[:, 1], mon[0], scale, 1, "w_mon", bad)
    _eta_cells(num[:, 2], mon[0], mon[1], scale, "eta_mon", bad)
    _regimes([r[3] for r in rows], mon, beta, scale, "regime_mon", bad)
    _cells(num[:, 3], um[0], scale, 1, "w_um", bad)
    _eta_cells(num[:, 4], um[0], um[1], scale, "eta_um", bad)
    _regimes([r[6] for r in rows], um, beta, scale, "regime_um", bad)
    return bad


CHECKERS = {
    "classify": check_classify,
    "verify-bounds": check_verify_bounds,
    "cumulants": check_cumulants,
    "sample": check_sample,
    "lz-compare": check_lz_compare,
}


def data_rows(text: str) -> int:
    """CSV data rows: lines that are neither the comment nor the header."""
    return max(0, sum(1 for line in text.splitlines() if line and not line.startswith("#")) - 1)
