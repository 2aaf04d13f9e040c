"""Command-line front end: evaluations, sweeps, regime maps, bound campaigns.

Every subcommand writes CSV (to --out or stdout) whose first line is a
``#``-comment recording the fully resolved configuration (OTTO_TOL
included, as ``tol``), so a rerun with the same inputs, on the same
machine and numpy build, byte-reproduces the file.  Numbers are printed
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
from .qstate import ControlSpec, MeasurementChannel, PhysicsError

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


def _add_common(
    parser: argparse.ArgumentParser,
    cycle: tuple[str, ...] = ("beta", "nu1", "nu2", "delta", "zeta"),
    channel: bool = True,
) -> None:
    """The config file, the ``cycle`` parameters the subcommand reads, the
    output path and, with ``channel``, the channel and its control."""
    parser.add_argument("--config", help="flat key=value config file; flags override")
    for name in cycle:
        parser.add_argument(f"--{name}", type=float)
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
    # every cycle is drawn at random, so no cycle parameter is taken
    _add_common(p, cycle=(), channel=False)
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)

    p = sub.add_parser("sample", help="Monte Carlo draws against the enumeration")
    _add_common(p)
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)

    p = sub.add_parser("lz-compare", help="monitored vs unmonitored Landau-Zener table")
    # delta = zeta comes from the axis
    _add_common(p, cycle=("beta", "nu1", "nu2"), channel=False)
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
    """OTTO_TOL first, then file values, command-line flags on top."""
    merged: dict = {}
    if os.environ.get("OTTO_TOL"):
        merged["tol"] = float(os.environ["OTTO_TOL"])
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
        # written so that a nan weight fails
        if not (abs(sum(pauli) - 1.0) <= 1e-12 and min(pauli) >= 0.0):
            raise ConfigError("Pauli weights must be nonnegative and sum to 1")
        return float(pauli[1] + pauli[2])
    if cfg.get("alpha_m") is not None:
        alpha_m = np.asarray(cfg["alpha_m"], dtype=float)
        outside = ~((0.0 <= alpha_m) & (alpha_m <= math.pi))
        if outside.any():  # the first such angle raises the channel's error
            MeasurementChannel(float(alpha_m.flat[np.argmax(outside)]))
        # sin^2(alpha_m) / 2, the rule of MeasurementChannel.theta
        return np.square(np.sin(alpha_m)) / 2.0
    raise ConfigError("specify a channel: --theta, --p0..--p3, or --alpha-m [--chi]")


def _tolerance(cfg: dict) -> float:
    """Comparison tolerance for regimes/bounds: the tol key, which OTTO_TOL
    fills when no config file or flag sets it."""
    return cfg.get("tol", 1e-12)


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


def _run(cfg: dict, axes=()) -> tuple[list[np.ndarray], str, str]:
    """A run's parameter columns, branch and mode, one point or a grid.

    Each swept key takes its axis's values along its own dimension of the
    grid, axis after axis.  On a symmetric base (delta = zeta) a swept
    delta or zeta moves the other with it, unless both are swept.  A
    swept alpha-m replaces --theta.  theta, alpha-m and the Pauli weights
    each set the flip probability, so a swept alpha-m takes no Pauli
    weights, and theta and alpha-m are not swept together.  The columns are beta, nu1, nu2, delta, zeta, theta and,
    under coherent control, cs-alpha, broadcast to the grid's shape (0-d
    without axes).  The mode is cs under coherent control, symmetric
    where the coupling keeps delta = zeta, asymmetric otherwise.
    """
    point = dict(cfg)
    swept = {axis for axis, _ in axes}
    if {"theta", "alpha-m"} <= swept:
        raise ConfigError(
            "axes theta and alpha-m both set the flip probability: sweep one of them"
        )
    if "alpha-m" in swept and any(cfg.get(k) is not None for k in ("p0", "p1", "p2", "p3")):
        raise ConfigError(
            "axis alpha-m and the Pauli weights both set the flip probability: give one of them"
        )
    symmetric = cfg.get("delta") == cfg.get("zeta") and not {"delta", "zeta"} <= swept
    for dim, (axis, values) in enumerate(axes):
        values = values.reshape((-1,) + (1,) * (len(axes) - 1 - dim))
        point[axis.replace("-", "_")] = values
        if symmetric and axis in ("delta", "zeta"):
            point["zeta" if axis == "delta" else "delta"] = values
        if axis == "alpha-m":
            point["theta"] = None  # recompute from the swept angle
    columns = _require(point, "beta", "nu1", "nu2", "delta", "zeta")
    columns.append(_resolve_theta(point))
    mode = "symmetric" if symmetric else "asymmetric"
    if point.get("cs_alpha") is not None:
        columns.append(point["cs_alpha"])
        mode = "cs"
    shape = tuple(len(values) for _, values in axes)
    grid = [np.broadcast_to(np.asarray(c, dtype=float), shape) for c in columns]
    return grid, point.get("branch") or "minus", mode


# Grid points per evaluation call: enough that numpy's per-call cost is
# spread thin, few enough that the block's temporaries (16 paths and 9
# outcomes per point) stay small beside the output text.  On a 101 x 101
# classify grid 1024-point blocks raised peak RSS by 1.3 MB (4%), 256-point
# blocks by 0.5 MB, at the same speed.  verify-bounds has its own block
# size, _CAMPAIGN_BLOCK.
_BLOCK_POINTS = 256


def _grid_blocks(grid: list[np.ndarray], branch: str, tol: float):
    """Evaluate a run's columns in C order, one block of points at a time.

    Yields (index of the block's first point, the block's parameter
    columns, joint distributions, cumulants, regimes).
    """
    for start in range(0, grid[0].size, _BLOCK_POINTS):
        block = [c.flat[start:start + _BLOCK_POINTS] for c in grid]
        dist = trajectory.enumerate_block(*block, branch=branch)
        cums = cumulants.cumulants_from_block(dist)
        regimes = analysis.classify_regime_array(
            cums.w_mean, cums.qm_mean, cums.qt_mean, block[0], tol
        )
        yield start, block, dist, cums, regimes


def _distribution(cfg: dict):
    """(cycle, theta, control, flip probability, mode, joint distribution)
    at one parameter point.  The flip probability is theta's unital
    equivalent, ``ctrl.flip_probability(theta)`` under coherent control;
    the unital closed forms take it."""
    columns, branch, mode = _run(cfg)
    beta, nu1, nu2, delta, zeta, theta, *alpha = (float(c) for c in columns)
    params = trajectory.CycleParams(beta, nu1, nu2, delta, zeta)
    if not alpha:
        return params, theta, None, theta, mode, trajectory.enumerate_paths(params, theta)
    ctrl = ControlSpec(alpha[0], branch)
    dist = trajectory.cs_distribution(params, theta, ctrl)
    return params, theta, ctrl, ctrl.flip_probability(theta), mode, dist


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
    params, theta, ctrl, flip, mode, dist = _distribution(cfg)
    exact = cumulants.cumulants_from_distribution(dist)
    fd = cumulants.cf_derivative_check(params, flip)

    buf = io.StringIO()
    buf.write(_config_comment("cumulants", cfg))
    buf.write(
        "route,w_k1,w_k2,w_k3,w_k4,qm_k1,qm_k2,qm_k3,qm_k4,qt_mean\n"
    )

    def row(route, w, q, qt):
        # + 0.0 prints a negative zero as 0
        cells = [route] + [_fmt(v + 0.0) for v in (*w, *q, qt)]
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
    route_and_delta("cf_derivative", fd.w, fd.q_m, fd.qt_mean)
    _emit(cfg, buf.getvalue())

    if cfg.get("dist_out"):
        with open(cfg["dist_out"], "w", encoding="utf-8", newline="") as fh:
            fh.write(_config_comment("cumulants", cfg))
            trajectory.distribution_to_csv(dist, fh)

    if cfg.get("bounds_out"):
        reports = analysis.verify_bounds(params, theta, mode, ctrl)
        with open(cfg["bounds_out"], "w", encoding="utf-8", newline="") as fh:
            fh.write(_config_comment("cumulants", cfg))
            analysis.bound_reports_to_csv(reports, fh)


def _bound_cells(report: analysis.BoundReport) -> list[str]:
    """A block's report of one bound as sweep cells: ok, violated or n/a."""
    cells = np.where(report.satisfied, "ok", "violated")
    return np.where(report.applicable, cells, "n/a").tolist()


def _cmd_sweep(cfg: dict) -> None:
    axis, values = _axis_values(cfg)
    grid, branch, mode = _run(cfg, [(axis, values)])
    bound_names: list[str] = []
    rows = []
    for start, columns, dist, cums, regimes in _grid_blocks(grid, branch, _tolerance(cfg)):
        # <W> is a sum over outcomes; cancelled to rounding residue it has
        # no relative fluctuation worth printing
        no_mean = cumulants.is_rounding_residue(
            cums.w_mean, np.abs(dist.prob * dist.w).max(axis=-1)
        )
        control = (columns[6] if len(columns) == 7 else None, branch)
        etas = analysis.efficiency_block(*columns[:6], mode, *control)
        bounds = analysis.verify_bounds_block(*columns[:6], mode, *control)
        bound_names = [b.name for b in bounds]
        points = zip(
            values[start:start + len(etas)].tolist(),
            cums.w.tolist(), cums.q_m.tolist(), cums.qt_mean.tolist(), no_mean, etas.tolist(),
            regimes, *map(_bound_cells, bounds),
        )
        for value, kw, kq, qt, zero_mean, eta, regime, *verdicts in points:
            cells = [_fmt(v) for v in (value, *kw, *kq, qt)]
            cells.append(_fmt(math.inf if zero_mean else kw[1] / kw[0] ** 2))
            cells.append(_fmt(eta))
            cells.append(str(regime))
            cells.extend(verdicts)
            rows.append(",".join(cells))
    header = (
        [axis, "w_k1", "w_k2", "w_k3", "w_k4", "qm_k1", "qm_k2", "qm_k3", "qm_k4",
         "qt_mean", "w_rf", "efficiency", "regime"]
        + bound_names
    )
    text = _config_comment("sweep", cfg) + ",".join(header) + "\n" + "\n".join(rows) + "\n"
    _emit(cfg, text)


def _cmd_classify(cfg: dict) -> None:
    axis1, values1 = _axis_values(cfg)
    axis2, values2 = _axis_values(cfg, "2")
    if axis1 == axis2:
        raise ConfigError("the two grid axes must differ")
    grid, branch, _ = _run(cfg, [(axis1, values1), (axis2, values2)])
    cells1 = [_fmt(v) for v in values1.tolist()]
    cells2 = [_fmt(v) for v in values2.tolist()]
    lines = [f"{axis1},{axis2},w_mean,qm_mean,qt_mean,regime"]
    for start, _, _, cums, regimes in _grid_blocks(grid, branch, _tolerance(cfg)):
        means = zip(cums.w_mean.tolist(), cums.qm_mean.tolist(), cums.qt_mean.tolist(), regimes)
        for index, (w, q, qt, regime) in enumerate(means, start):
            i1, i2 = divmod(index, len(cells2))
            lines.append(f"{cells1[i1]},{cells2[i2]},{w:.17g},{q:.17g},{qt:.17g},{regime.value}")
    _emit(cfg, _config_comment("classify", cfg) + "\n".join(lines) + "\n")


# Samples per bound-campaign block: decoded, then checked with one
# verify_bounds_block call per mode and branch, 16 calls for 15000 samples.
# A block is decoded _DECODE_SAMPLES at a time, so that the word tables stay
# small: on a 15000-sample campaign one table per 4096-sample block raised
# peak RSS by 2.5 MB over 2048-sample word-list decoding, 512-sample
# chunks by 0.1 MB.
_CAMPAIGN_BLOCK = 4096
_DECODE_SAMPLES = 512

# The most raw words one sample reads, bar a redraw: beta, five doubles,
# alpha, and one fresh word whose halves serve the mode and the branch.
_SAMPLE_WORDS = 8

# A sample's (mode, branch) group by its code: the mode's index, plus the
# branch's index in cs.
_GROUPS = (("symmetric", None), ("asymmetric", None), ("cs", "plus"), ("cs", "minus"))

_GAP_RANGE = 3.0 - 1e-3


def _one_sample(rng: np.random.Generator) -> tuple[tuple, int] | None:
    """The next campaign sample, drawn by ``Generator`` calls in the order
    :func:`_cmd_verify_bounds` states: its seven cells (alpha is 0 outside
    cs) and its group code, or None when beta is skipped."""
    beta = -2.0 + 4.0 * rng.random()
    if abs(beta) < 1e-9:
        return None
    u1, u2, delta, zeta, theta = rng.random(5)
    code = int(rng.integers(0, 3))
    alpha = 0.0
    if code == 0:
        zeta = delta
    elif code == 2:
        theta *= 0.5
        alpha = rng.random()
        code += int(rng.integers(0, 2))
    return (beta, 1e-3 + _GAP_RANGE * u1, 1e-3 + _GAP_RANGE * u2, delta, zeta, theta, alpha), code


def _decode_chunk(rng: np.random.Generator, cells: np.ndarray, codes: np.ndarray) -> int:
    """Decode campaign samples from raw PCG64 words into ``cells``, seven
    rows as :func:`_one_sample` gives them, and their group ``codes``, up
    to the length of ``codes``; returns how many.  Decoding stops before
    the first sample that skips beta or redraws its mode; ``rng`` is left
    before that sample or, without one, after the last.

    A sample starting at word p reads beta from word p and five doubles from
    words p + 1 to p + 5.  Without a buffered 32-bit half, the mode takes
    the low half of word p + 6 and, in cs, alpha is word p + 7 and the
    branch takes the high half of word p + 6.  With one, that half is the
    high half of word p - 1 and takes the mode; in cs, alpha is word p + 6
    and the branch takes the low half of word p + 7.  So the next start and
    buffer state follow from the words alone, and are tabulated for every
    start and both buffer states, then walked once per sample.
    """
    count = len(codes)
    bitgen = rng.bit_generator
    start = bitgen.state
    # word 0 stands for the word before the chunk: its high half is the
    # buffered half, if any
    raw = np.empty(1 + _SAMPLE_WORDS * count, dtype=np.uint64)
    raw[0] = start["uinteger"] << 32
    raw[1:] = bitgen.random_raw(_SAMPLE_WORDS * count)
    doubles = (raw >> 11) * 2.0**-53
    # a sample starts at word p, for p = 1 .. ``last`` (the furthest that
    # count samples reach), without (h = 0) or with (h = 1) a buffered
    # half: state h L + p, with L = ``width`` above every p reached
    last, width = len(raw) - _SAMPLE_WORDS, len(raw) + 1
    modes = np.stack((raw[7:last + 7] & 0xFFFFFFFF, raw[:last] >> 32))
    # a skipped beta (which may leave a buffered half that is not word
    # p - 1's) and a zero mode half (which Lemire's method redraws) are left
    # to _one_sample: their next state is 0, which leads to itself
    stop = (modes == 0) | (np.abs(-2.0 + 4.0 * doubles[1:last + 1]) < 1e-9)
    # integers(0, n) gives (u * n) >> 32 of a 32-bit draw u
    modes *= 3
    modes >>= 32
    # the next state: p + 8 + h L in cs, else p + 7 + L or p + 6
    table = np.zeros((2, width), dtype=np.intp)
    after = table[:, 1:last + 1]
    after[...] = np.where(modes == 2, [[8], [width + 8]], [[width + 7], [6]])
    after += np.arange(1, last + 1)
    after[stop] = 0
    starts = np.empty(count, dtype=np.intp)
    out, walk = memoryview(starts), memoryview(table.ravel())
    state = start["has_uint32"] * width + 1
    for i in range(count):
        out[i] = state
        state = walk[state]
    if not state:  # the last sample before state 0 is left to _one_sample
        starts = starts[:np.count_nonzero(starts) - 1]
    n = len(starts)
    h, p = np.divmod(starts, width)
    code = codes[:n]
    code[:] = modes[h, p - 1]
    branch = np.where(h, raw[p + 7] & 0xFFFFFFFF, raw[p + 6] >> 32) >> 31
    code += (code == 2) & (branch == 1)
    cells[0, :n] = -2.0 + 4.0 * doubles[p]
    cells[1, :n] = 1e-3 + _GAP_RANGE * doubles[p + 1]
    cells[2, :n] = 1e-3 + _GAP_RANGE * doubles[p + 2]
    cells[3, :n] = doubles[p + 3]
    cells[4, :n] = np.where(code == 0, doubles[p + 3], doubles[p + 4])
    cells[5, :n] = np.where(code >= 2, 0.5, 1.0) * doubles[p + 5]
    cells[6, :n] = doubles[p + 7 - h]
    if n:
        # words read past the last sample are given back; the buffered half,
        # or the last one drawn, is the high half of the word that gave it
        h, p = divmod(int(starts[-1]), width)
        word = p + 6 if not h else p + 7 if code[-1] >= 2 else p - 1
        h_end, p_end = divmod(walk[starts[-1]], width)
        bitgen.state = start
        bitgen.advance(p_end - 1)
        start = bitgen.state
        start["has_uint32"], start["uinteger"] = h_end, int(raw[word] >> 32)
    bitgen.state = start
    return n


def _campaign_draws(rng: np.random.Generator, count: int) -> dict[tuple, list[np.ndarray]]:
    """The next ``count`` samples of a bound campaign, in the order
    :func:`_cmd_verify_bounds` states, grouped by (mode, branch); branch
    is None outside cs.  Each group holds its kept samples in draw order
    as columns: beta, nu1, nu2, delta, zeta, theta and, in cs, alpha.

    The samples are decoded from raw PCG64 words as ``Generator`` reads
    them, ``_DECODE_SAMPLES`` at a time (:func:`_decode_chunk`).  A double
    is ``(w >> 11) * 2**-53``.  ``integers(0, n)`` is Lemire's method on the
    32-bit stream: ``(u * n) >> 32``, with u redrawn while
    ``(u * n) % 2**32 < (2**32 - n) % n``, that is u = 0 for n = 3 and
    never for n = 2.  The 32-bit stream takes the low half of a fresh word
    and keeps the high half for its next draw, across any doubles drawn in
    between.  A sample that skips beta or redraws its mode, about one in
    1e9, is drawn by :func:`_one_sample`.  ``rng`` ends where the
    generator's own calls leave it.
    """
    cells = np.empty((7, count))
    codes = np.empty(count, dtype=np.intp)
    kept = done = 0
    while done < count:
        want = min(_DECODE_SAMPLES, count - done)
        decoded = _decode_chunk(rng, cells[:, kept:], codes[kept:kept + want])
        kept += decoded
        done += decoded
        if decoded < want:
            sample = _one_sample(rng)
            done += 1
            if sample is not None:
                cells[:, kept], codes[kept] = sample
                kept += 1
    groups: dict[tuple, list[np.ndarray]] = {}
    for code, (mode, branch) in enumerate(_GROUPS):
        picked = cells[:6 if branch is None else 7, :kept][:, codes[:kept] == code]
        if picked.size:
            groups[mode, branch] = list(picked)
    return groups


def _cmd_verify_bounds(cfg: dict) -> None:
    """Tally every bound over random cycles: ok, violated, inapplicable.

    The draw order is part of the output's definition (``perfbench/
    oracle.py`` replays it).  On one PCG64 stream seeded with --seed,
    each sample draws beta = -2 + 4 u and is skipped, drawing nothing
    more, when |beta| < 1e-9; then nu1 and nu2 = 1e-3 + (3 - 1e-3) u,
    then delta, zeta and theta = u, then the mode as ``integers(0, 3)``
    indexing (symmetric, asymmetric, cs).  Symmetric sets zeta = delta;
    cs halves theta, then draws the control weight alpha = u and the
    branch as ``integers(0, 2)`` indexing (plus, minus).  Each u is one
    double of ``random()`` (the five after beta come from one
    ``random(5)``, the same doubles); ``uniform(a, b)`` and ``choice``
    of a tuple draw the same stream.  The order is read from raw PCG64
    words, decoded as ``Generator`` decodes them (:func:`_campaign_draws`).
    Samples are drawn in blocks of ``_CAMPAIGN_BLOCK``, decoded as arrays
    ``_DECODE_SAMPLES`` at a time, and each block's bounds are evaluated
    as arrays, one call per mode and branch.
    """
    samples = 10000 if cfg.get("samples") is None else cfg["samples"]
    if samples < 1:
        raise ConfigError("--samples must be at least 1")
    seed = cfg.get("seed") or 0
    rng = np.random.default_rng(seed)
    counts: dict[str, list[int]] = {}
    for start in range(0, samples, _CAMPAIGN_BLOCK):
        count = min(_CAMPAIGN_BLOCK, samples - start)
        # no name keeps the groups, so they are freed before the next block
        for (mode, branch), columns in _campaign_draws(rng, count).items():
            control = (columns[6], branch) if mode == "cs" else (None, "minus")
            reports = analysis.verify_bounds_block(*columns[:6], mode, *control)
            for rep in reports:
                slot = counts.setdefault(rep.name, [0, 0, 0])
                slot[0] += int(np.count_nonzero(rep.applicable & rep.satisfied))
                slot[1] += int(np.count_nonzero(rep.applicable & ~rep.satisfied))
                slot[2] += int(np.count_nonzero(~rep.applicable))
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
    rows = landauzener.monitored_vs_unmonitored(base, values, _tolerance(cfg))
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
