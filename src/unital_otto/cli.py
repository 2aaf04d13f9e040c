"""Command-line front end: evaluations, sweeps, regime maps, bound campaigns.

Every subcommand writes CSV (to --out or stdout) whose first line is a
``#``-comment recording the fully resolved configuration, so a rerun
with the same inputs byte-reproduces the file.  Numbers are printed
with 17 significant digits.

Exit codes: 0 success (bound violations are data, not failures),
2 configuration error, 3 physics-domain error.
"""

from __future__ import annotations

import argparse
import io
import math
import os
import sys

import numpy as np

from . import analysis, cumulants, landauzener, trajectory
from .qstate import ControlSpec, PhysicsError

SWEEPABLE = ("beta", "nu1", "nu2", "delta", "zeta", "theta", "cs-alpha", "alpha-m")

# Keys a config file may hold without a matching flag.
_FILE_ONLY_KEYS = {"tol": float}


class ConfigError(Exception):
    pass


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _read_config_file(path: str, known: dict) -> dict[str, str]:
    """Flat INI-like key = value lines; '#' starts a comment."""
    values: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
                key, _, val = line.partition("=")
                key = key.strip().replace("_", "-")
                if key not in known:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                values[key] = val.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return values


def _add_common(parser: argparse.ArgumentParser, channel: bool = True) -> None:
    parser.add_argument("--config", help="flat key=value config file; flags override")
    parser.add_argument("--beta", type=float)
    parser.add_argument("--nu1", type=float)
    parser.add_argument("--nu2", type=float)
    parser.add_argument("--delta", type=float)
    parser.add_argument("--zeta", type=float)
    parser.add_argument("--out", help="output CSV path (default: stdout)")
    if channel:
        parser.add_argument("--theta", type=float)
        parser.add_argument("--p0", type=float)
        parser.add_argument("--p1", type=float)
        parser.add_argument("--p2", type=float)
        parser.add_argument("--p3", type=float)
        parser.add_argument("--alpha-m", type=float, dest="alpha_m")
        parser.add_argument("--chi", type=float)
        parser.add_argument("--cs-alpha", type=float, dest="cs_alpha")
        parser.add_argument("--branch", choices=("plus", "minus"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unital-otto",
        description="Exact statistics of monitored unital quantum Otto cycles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cumulants", help="one parameter point, all three routes")
    _add_common(p)
    p.add_argument("--dist-out", help="also dump the joint distribution CSV here")
    p.add_argument("--bounds-out", help="also write the bound reports CSV here")

    p = sub.add_parser("sweep", help="cumulants/efficiency/regime along one axis")
    _add_common(p)
    p.add_argument("--axis", choices=SWEEPABLE)
    p.add_argument("--start", type=float)
    p.add_argument("--stop", type=float)
    p.add_argument("--steps", type=int)

    p = sub.add_parser("classify", help="regime map over a 2-D grid")
    _add_common(p)
    for suffix in ("", "2"):
        p.add_argument(f"--axis{suffix}", choices=SWEEPABLE)
        p.add_argument(f"--start{suffix}", type=float)
        p.add_argument(f"--stop{suffix}", type=float)
        p.add_argument(f"--steps{suffix}", type=int)

    p = sub.add_parser("verify-bounds", help="randomized bound-verification campaign")
    _add_common(p, channel=False)
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)

    p = sub.add_parser("sample", help="Monte Carlo draws against the enumeration")
    _add_common(p)
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)

    p = sub.add_parser("lz-compare", help="monitored vs unmonitored Landau-Zener table")
    _add_common(p, channel=False)
    p.add_argument("--alpha-m", type=float, dest="alpha_m")
    p.add_argument("--chi", type=float)
    p.add_argument("--phi", type=float)
    p.add_argument("--axis", choices=("delta",))
    p.add_argument("--start", type=float)
    p.add_argument("--stop", type=float)
    p.add_argument("--steps", type=int)

    return parser


def _config_types(
    parser: argparse.ArgumentParser, command: str
) -> dict[str, tuple[str, type, tuple | None]]:
    """Config-file key -> (destination, value type, allowed values) for
    every long flag of every subcommand, plus the file-only keys.  Allowed
    values are the flag's ``choices`` in ``command``, the subcommand that
    runs; a key only other subcommands take has none."""
    types = {key: (key, kind, None) for key, kind in _FILE_ONLY_KEYS.items()}
    subparsers = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    for name, sub in subparsers.choices.items():
        own = name == command
        for action in sub._actions:
            for flag in action.option_strings:
                key = flag[2:]
                if flag in ("--help", "--config") or not flag.startswith("--"):
                    continue
                if own or key not in types:
                    types[key] = (action.dest, action.type or str, action.choices if own else None)
    return types


def _merge_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> dict:
    """File values first, command-line flags on top."""
    merged: dict = {}
    if getattr(args, "config", None):
        types = _config_types(parser, args.command)
        for key, text in _read_config_file(args.config, types).items():
            dest, kind, choices = types[key]
            merged[dest] = kind(text)
            if choices is not None and merged[dest] not in choices:
                raise ConfigError(
                    f"{args.config}: {key} = {text}: choose from {', '.join(choices)}"
                )
    for key, val in vars(args).items():
        if key in ("command", "config"):
            continue
        if val is not None:
            merged[key] = val
    return merged


def _require(cfg: dict, *names):
    missing = [n for n in names if cfg.get(n) is None]
    if missing:
        raise ConfigError("missing required option(s): " + ", ".join(
            "--" + n.replace("_", "-") for n in missing))
    return [cfg[n] for n in names]


def _resolve_theta(cfg: dict):
    """Channel spec: --theta wins, then Pauli weights, then measurement angles.
    Swept values come back as the grid's arrays."""
    if cfg.get("theta") is not None:
        return cfg["theta"]
    pauli = [cfg.get(k) for k in ("p0", "p1", "p2", "p3")]
    if any(p is not None for p in pauli):
        if any(p is None for p in pauli):
            raise ConfigError("give all four of --p0 --p1 --p2 --p3")
        if abs(sum(pauli) - 1.0) > 1e-12 or min(pauli) < 0.0:
            raise ConfigError("Pauli weights must be nonnegative and sum to 1")
        return float(pauli[1] + pauli[2])
    if cfg.get("alpha_m") is not None:
        return _measurement_theta(cfg["alpha_m"])
    raise ConfigError("specify a channel: --theta, --p0..--p3, or --alpha-m [--chi]")


def _measurement_theta(alpha_m):
    """theta = sin^2(alpha_m) / 2; an array of angles value by value, so
    that a swept angle gives the theta of the same single point."""
    if isinstance(alpha_m, np.ndarray):
        return np.reshape([_measurement_theta(a) for a in alpha_m.ravel().tolist()], alpha_m.shape)
    return math.sin(alpha_m) ** 2 / 2.0


def _cycle_params(cfg: dict) -> trajectory.CycleParams:
    beta, nu1, nu2, delta, zeta = _require(cfg, "beta", "nu1", "nu2", "delta", "zeta")
    return trajectory.CycleParams(beta, nu1, nu2, delta, zeta)


def _control(cfg: dict) -> ControlSpec | None:
    if cfg.get("cs_alpha") is None:
        return None
    return ControlSpec(cfg["cs_alpha"], cfg.get("branch") or "minus")


def _tolerance(cfg: dict) -> float:
    """Comparison tolerance for regimes/bounds; OTTO_TOL overrides default."""
    if cfg.get("tol") is not None:
        return float(cfg["tol"])
    env = os.environ.get("OTTO_TOL")
    return float(env) if env else 1e-12


def _config_comment(command: str, cfg: dict) -> str:
    parts = [f"command={command}"]
    for key in sorted(cfg):
        if cfg[key] is not None:
            parts.append(f"{key.replace('_', '-')}={_fmt(cfg[key])}")
    return "# " + " ".join(parts) + "\n"


def _axis_values(cfg: dict, suffix: str = "") -> tuple[str, np.ndarray]:
    axis, start, stop, steps = _require(
        cfg, f"axis{suffix}", f"start{suffix}", f"stop{suffix}", f"steps{suffix}"
    )
    if steps < 2:
        raise ConfigError("steps must be >= 2")
    return axis, np.linspace(start, stop, steps)


def _grid_config(cfg: dict, axes: list[tuple[str, np.ndarray]]) -> dict:
    """The configuration of every grid point: each swept key becomes an
    array along its own dimension of the grid, axis after axis.  Sweeping
    delta (or zeta) where the cycle is symmetric moves both transition
    probabilities together, which is the delta = zeta sweep of the
    symmetric engine."""
    out = dict(cfg)
    for dim, (axis, values) in enumerate(axes):
        values = values.reshape((-1,) + (1,) * (len(axes) - 1 - dim))
        key = axis.replace("-", "_")
        if axis in ("delta", "zeta"):
            symmetric = np.asarray(out.get("delta") == out.get("zeta"))
            other = "zeta" if axis == "delta" else "delta"
            if symmetric.all():
                out[other] = values
            elif symmetric.any():
                out[other] = np.where(symmetric, values, out[other])
        out[key] = values
        if axis == "alpha-m":
            out["theta"] = None  # recompute from the swept angle
    return out


# Grid points per evaluation call: enough that numpy's per-call cost is
# spread thin, few enough that the block's temporaries (16 paths and 9
# outcomes per point) stay small beside the output text.  On a 101 x 101
# classify grid 1024-point blocks raised peak RSS by 1.3 MB (4%), 256-point
# blocks by 0.5 MB, at the same speed.
_BLOCK_POINTS = 256


def _grid_blocks(cfg: dict, axes: list[tuple[str, np.ndarray]]):
    """Evaluate a grid in C order, one block of points at a time.

    Yields (index of the block's first point, parameter columns beta, nu1,
    nu2, delta, zeta, theta and, under coherent control, cs-alpha, the
    block's joint distributions, their cumulants).
    """
    point = _grid_config(cfg, axes)
    columns = _require(point, "beta", "nu1", "nu2", "delta", "zeta")
    columns.append(_resolve_theta(point))
    if point.get("cs_alpha") is not None:
        columns.append(point["cs_alpha"])
    branch = point.get("branch") or "minus"
    shape = tuple(len(values) for _, values in axes)
    grid = [np.broadcast_to(np.asarray(c, dtype=float), shape) for c in columns]
    for start in range(0, math.prod(shape), _BLOCK_POINTS):
        block = [c.flat[start:start + _BLOCK_POINTS] for c in grid]
        dist = trajectory.enumerate_block(*block, branch=branch)
        yield start, block, dist, cumulants.cumulants_from_block(dist)


def _run_mode(cfg: dict) -> str:
    if cfg.get("cs_alpha") is not None:
        return "cs"
    return "symmetric" if cfg.get("delta") == cfg.get("zeta") else "asymmetric"


def _distribution(cfg: dict):
    """(cycle, theta, control, flip probability, joint distribution) at one
    parameter point.  The flip probability is theta's unital equivalent,
    ``ctrl.flip_probability(theta)`` under coherent control; the unital
    closed forms take it."""
    params = _cycle_params(cfg)
    theta = _resolve_theta(cfg)
    ctrl = _control(cfg)
    if ctrl is None:
        return params, theta, ctrl, theta, trajectory.enumerate_paths(params, theta)
    dist = trajectory.cs_distribution(params, theta, ctrl)
    return params, theta, ctrl, ctrl.flip_probability(theta), dist


def _open_out(cfg: dict):
    path = cfg.get("out")
    if path:
        return open(path, "w", encoding="utf-8", newline="")
    return None


def _emit(cfg: dict, text: str) -> None:
    fh = _open_out(cfg)
    if fh is None:
        sys.stdout.write(text)
    else:
        with fh:
            fh.write(text)


def _cmd_cumulants(cfg: dict) -> None:
    params, theta, ctrl, flip, dist = _distribution(cfg)
    exact = cumulants.cumulants_from_distribution(dist)
    try:
        fd = cumulants.cf_derivative_check(params, flip)
        fd_cells = (fd.w, fd.q_m, fd.qt_mean)
    except cumulants.DerivativeStepError as exc:
        print(f"note: cf_derivative route unusable, rows left nan: {exc}", file=sys.stderr)
        fd_cells = ((math.nan,) * 4, (math.nan,) * 4, math.nan)

    buf = io.StringIO()
    buf.write(_config_comment("cumulants", cfg))
    buf.write(
        "route,w_k1,w_k2,w_k3,w_k4,qm_k1,qm_k2,qm_k3,qm_k4,qt_mean\n"
    )

    def row(route, w, q, qt):
        cells = [route] + [_fmt(v) for v in (*w, *q, qt)]
        buf.write(",".join(cells) + "\n")

    def route_and_delta(route, w, q, qt):
        row(route, w, q, qt)
        row(
            route + "_delta",
            tuple(abs(a - b) for a, b in zip(w, exact.w)),
            tuple(abs(a - b) for a, b in zip(q, exact.q_m)),
            abs(qt - exact.qt_mean),
        )

    row("enumeration", exact.w, exact.q_m, exact.qt_mean)
    closed = cumulants.closed_form_first_second(params, flip)
    # the paper gives the coherently controlled closed forms for means only
    w_var, qm_var = (closed.w_var, closed.qm_var) if ctrl is None else (math.nan, math.nan)
    route_and_delta(
        "closed_form",
        (closed.w_mean, w_var, math.nan, math.nan),
        (closed.qm_mean, qm_var, math.nan, math.nan),
        closed.qt_mean,
    )
    route_and_delta("cf_derivative", *fd_cells)
    _emit(cfg, buf.getvalue())

    if cfg.get("dist_out"):
        with open(cfg["dist_out"], "w", encoding="utf-8", newline="") as fh:
            fh.write(_config_comment("cumulants", cfg))
            trajectory.distribution_to_csv(dist, fh)

    if cfg.get("bounds_out"):
        reports = analysis.verify_bounds(params, theta, _run_mode(cfg), ctrl)
        with open(cfg["bounds_out"], "w", encoding="utf-8", newline="") as fh:
            fh.write(_config_comment("cumulants", cfg))
            analysis.bound_reports_to_csv(reports, fh)


def _cmd_sweep(cfg: dict) -> None:
    axis, values = _axis_values(cfg)
    mode = _run_mode(cfg)
    tol = _tolerance(cfg)
    branch = cfg.get("branch") or "minus"
    bound_names: list[str] | None = None
    rows = []
    for start, columns, dist, cums in _grid_blocks(cfg, [(axis, values)]):
        regimes = analysis.classify_regime_array(
            cums.w_mean, cums.qm_mean, cums.qt_mean, columns[0], tol
        )
        # <W> is a sum over outcomes; cancelled to rounding residue it has
        # no relative fluctuation worth printing
        no_mean = analysis.is_rounding_residue(
            cums.w_mean, np.abs(dist.prob * dist.w).max(axis=-1)
        )
        thetas = columns[5].tolist()
        alphas = columns[6].tolist() if len(columns) == 7 else [None] * len(thetas)
        points = zip(
            values[start:start + len(thetas)].tolist(), zip(*(c.tolist() for c in columns[:5])),
            thetas, alphas,
            cums.w.tolist(), cums.q_m.tolist(), cums.qt_mean.tolist(), no_mean, regimes,
        )
        for value, cycle, theta, alpha, kw, kq, qt, zero_mean, regime in points:
            params = trajectory.CycleParams(*cycle)
            ctrl = None if alpha is None else ControlSpec(alpha, branch)
            try:
                eta = analysis.efficiency(params, theta, mode, ctrl)
            except PhysicsError:
                eta = math.nan
            bounds = analysis.verify_bounds(params, theta, mode, ctrl)
            if bound_names is None:
                bound_names = [b.name for b in bounds]
            cells = [_fmt(v) for v in (value, *kw, *kq, qt)]
            cells.append(_fmt(math.inf if zero_mean else kw[1] / kw[0] ** 2))
            cells.append(_fmt(eta))
            cells.append(str(regime))
            for rep in bounds:
                cells.append("n/a" if not rep.applicable else "ok" if rep.satisfied else "violated")
            rows.append(",".join(cells))
    header = (
        [axis, "w_k1", "w_k2", "w_k3", "w_k4", "qm_k1", "qm_k2", "qm_k3", "qm_k4",
         "qt_mean", "w_rf", "efficiency", "regime"]
        + (bound_names or [])
    )
    text = _config_comment("sweep", cfg) + ",".join(header) + "\n" + "\n".join(rows) + "\n"
    _emit(cfg, text)


def _cmd_classify(cfg: dict) -> None:
    axis1, values1 = _axis_values(cfg)
    axis2, values2 = _axis_values(cfg, "2")
    if axis1 == axis2:
        raise ConfigError("the two grid axes must differ")
    tol = _tolerance(cfg)
    cells1 = [_fmt(v) for v in values1.tolist()]
    cells2 = [_fmt(v) for v in values2.tolist()]
    lines = [f"{axis1},{axis2},w_mean,qm_mean,qt_mean,regime"]
    for start, columns, _, cums in _grid_blocks(cfg, [(axis1, values1), (axis2, values2)]):
        regimes = analysis.classify_regime_array(
            cums.w_mean, cums.qm_mean, cums.qt_mean, columns[0], tol
        )
        means = zip(cums.w_mean.tolist(), cums.qm_mean.tolist(), cums.qt_mean.tolist(), regimes)
        for index, (w, q, qt, regime) in enumerate(means, start):
            i1, i2 = divmod(index, len(cells2))
            lines.append(f"{cells1[i1]},{cells2[i2]},{w:.17g},{q:.17g},{qt:.17g},{regime.value}")
    _emit(cfg, _config_comment("classify", cfg) + "\n".join(lines) + "\n")


def _cmd_verify_bounds(cfg: dict) -> None:
    samples = 10000 if cfg.get("samples") is None else cfg["samples"]
    if samples < 1:
        raise ConfigError("--samples must be at least 1")
    seed = cfg.get("seed") or 0
    rng = np.random.default_rng(seed)
    counts: dict[str, list[int]] = {}
    for _ in range(samples):
        beta = rng.uniform(-2.0, 2.0)
        if abs(beta) < 1e-9:
            continue
        params = trajectory.CycleParams(
            beta,
            rng.uniform(1e-3, 3.0),
            rng.uniform(1e-3, 3.0),
            rng.random(),
            rng.random(),
        )
        theta = rng.random()
        mode = rng.choice(("symmetric", "asymmetric", "cs"))
        ctrl = None
        if mode == "symmetric":
            params = trajectory.CycleParams(
                beta, params.nu1, params.nu2, params.delta, params.delta
            )
        elif mode == "cs":
            theta *= 0.5
            ctrl = ControlSpec(rng.random(), rng.choice(("plus", "minus")))
        for rep in analysis.verify_bounds(params, theta, mode, ctrl):
            slot = counts.setdefault(rep.name, [0, 0, 0])
            if not rep.applicable:
                slot[2] += 1
            elif rep.satisfied:
                slot[0] += 1
            else:
                slot[1] += 1
    lines = ["bound_name,satisfied,violated,inapplicable"]
    for name in sorted(counts):
        sat, vio, inap = counts[name]
        lines.append(f"{name},{sat},{vio},{inap}")
    _emit(cfg, _config_comment("verify-bounds", cfg) + "\n".join(lines) + "\n")


def _cmd_sample(cfg: dict) -> None:
    *_, dist = _distribution(cfg)
    n = 10**6 if cfg.get("samples") is None else cfg["samples"]
    seed = cfg.get("seed") or 0
    stats = trajectory.sample(dist, n, seed)
    exact = cumulants.cumulants_from_distribution(dist)
    lines = ["variable,exact_mean,empirical_mean,mean_stderr,z_mean,"
             "exact_var,empirical_var,var_stderr,z_var"]

    def zscore(diff: float, stderr: float) -> float:
        if stderr > 0.0:
            return diff / stderr
        return 0.0 if diff == 0.0 else math.copysign(math.inf, diff)

    for label, summary, kappa in (("w", stats.w, exact.w), ("q_m", stats.q_m, exact.q_m)):
        zm = zscore(summary.mean - kappa[0], summary.mean_stderr)
        zv = zscore(summary.variance - kappa[1], summary.variance_stderr)
        values = (
            kappa[0], summary.mean, summary.mean_stderr, zm,
            kappa[1], summary.variance, summary.variance_stderr, zv,
        )
        lines.append(label + "," + ",".join(_fmt(v) for v in values))
    _emit(cfg, _config_comment("sample", cfg) + "\n".join(lines) + "\n")


def _cmd_lz_compare(cfg: dict) -> None:
    beta, nu1, nu2, alpha_m = _require(cfg, "beta", "nu1", "nu2", "alpha_m")
    axis, values = _axis_values(cfg)
    base = landauzener.LZParams.build(
        beta, nu1, nu2, float(values[0]),
        cfg.get("phi") or 0.0, alpha_m, cfg.get("chi") or 0.0,
    )
    rows = landauzener.monitored_vs_unmonitored(base, values)
    buf = io.StringIO()
    buf.write(_config_comment("lz-compare", cfg))
    landauzener.comparison_to_csv(rows, buf)
    _emit(cfg, buf.getvalue())


_COMMANDS = {
    "cumulants": _cmd_cumulants,
    "sweep": _cmd_sweep,
    "classify": _cmd_classify,
    "verify-bounds": _cmd_verify_bounds,
    "sample": _cmd_sample,
    "lz-compare": _cmd_lz_compare,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args, parser)
        _COMMANDS[args.command](cfg)
    except PhysicsError as exc:
        print(f"physics error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
