"""Command-line front end: evaluations, sweeps, regime maps, bound campaigns.

Every subcommand writes CSV (to --out or stdout) whose first line is a
``#``-comment recording the fully resolved configuration, so a rerun
with the same inputs, on the same machine, Python version and numpy
build, byte-reproduces the file (``sample`` draws from the standard
library's MT19937 stream, ``verify-bounds`` from numpy's PCG64 word
stream, which the package computes itself, so that no command imports
``numpy.random``).  Every table, side files included, goes through one writer
(:func:`_write_table`): numbers print with 17 significant digits, a
negative zero as 0, and a field of codes prints its labels.  Every
output path is opened before any text is written, and two outputs on
one file are a configuration error.  ``classify`` and
``sweep`` write one grid table (:func:`_grid_table`): they evaluate, and
so check, every point of their grid before writing any row.  An invalid
point leaves no output, and rows are formatted and written one block at
a time, so a table's text is never held in memory whole.  ``lz-compare``
checks its whole delta column, then evaluates and writes it a block at a
time.

Exit codes: 0 success (bound violations are data, not failures),
2 configuration or input error, 3 physics-domain error; faults propagate.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import math
import os
import re
import stat
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import analysis, cumulants, landauzener, trajectory
from .qstate import InputError, MeasurementChannel, PhysicsError

SWEEPABLE = ("beta", "nu1", "nu2", "delta", "zeta", "theta", "cs-alpha", "alpha-m")


class ConfigError(Exception):
    pass


# The printf conversion of a number, in a table and in the config comment:
# 17 significant digits read back as the exact float.
_NUMBER = "%.17g"


def _numbers(values) -> list[float]:
    """``values`` as Python floats, a negative zero made 0, so that it
    prints as 0."""
    return (np.asarray(values, dtype=float) + 0.0).tolist()


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
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return values


# Every flag, by its name without the leading --: its value type, allowed
# values (None: any) and help text.  A subcommand may narrow its choices.
_FLAGS = {
    "config": (str, None, "flat key=value config file; flags override"),
    "out": (str, None, "output CSV path (default: stdout)"),
    "dist-out": (str, None, "also dump the joint distribution CSV here"),
    "bounds-out": (str, None, "also write the bound reports CSV here"),
    "branch": (str, ("plus", "minus"), None),
    **dict.fromkeys(("axis", "axis2"), (str, SWEEPABLE, None)),
    **dict.fromkeys(("steps", "steps2", "samples", "seed"), (int, None, None)),
    **dict.fromkeys(("beta", "nu1", "nu2", "delta", "zeta", "theta", "p0", "p1", "p2", "p3",
                     "alpha-m", "cs-alpha", "chi", "phi", "start", "stop", "start2", "stop2"),
                    (float, None, None)),
}


# A subcommand's help line, its flags in --help order and its handler.
class _Command(NamedTuple):
    help: str
    flags: dict[str, tuple]
    handler: Callable[[dict], None]


def _flags(*names: str) -> dict[str, tuple]:
    return {name: _FLAGS[name] for name in names}


# argparse's own negative-number pattern has no exponent and reads -1e3 as an option
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unital-otto",
        description="Exact statistics of monitored unital quantum Otto cycles",
    )
    parser._negative_number_matcher = _NEGATIVE_NUMBER
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p._negative_number_matcher = _NEGATIVE_NUMBER
        for flag, (kind, choices, text) in command.flags.items():
            p.add_argument(f"--{flag}", type=kind, choices=choices, help=text)
    return parser


def _config_types(command: str) -> dict[str, tuple]:
    """Config-file key -> flag, for every flag of every subcommand but
    --config.  A flag has one type in every subcommand that takes it; it
    keeps its choices only in ``command``, the subcommand that runs."""
    types = {key: (kind, None, text)
             for spec in _COMMANDS.values() for key, (kind, _, text) in spec.flags.items()}
    types.update(_COMMANDS[command].flags)
    del types["config"]
    return types


def _merge_config(args: argparse.Namespace) -> dict:
    """File values, then command-line flags on top."""
    merged: dict = {}
    if args.config:
        types = _config_types(args.command)
        for key, text in _read_config_file(args.config, types).items():
            kind, choices, _ = types[key]
            dest = key.replace("-", "_")
            try:
                merged[dest] = kind(text)
            except ValueError as exc:  # as the flag's type rejects it
                raise ConfigError(str(exc)) from exc
            if choices is not None and merged[dest] not in choices:
                raise ConfigError(
                    f"{args.config}: {key} = {text}: choose from {', '.join(choices)}"
                )
    merged.update((key, val) for key, val in vars(args).items()
                  if val is not None and key not in ("command", "config"))
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
    raise ConfigError("specify a channel: --theta, --p0..--p3, or --alpha-m")


def _config_comment(command: str, cfg: dict) -> str:
    parts = [f"command={command}"]
    # a run's configuration holds no None: _merge_config keeps set values only
    for key, value in sorted(cfg.items()):
        value = _NUMBER % value if isinstance(value, float) else value
        parts.append(f"{key.replace('_', '-')}={value}")
    return "# " + " ".join(parts) + "\n"


def _axis_values(cfg: dict, suffix: str = "") -> tuple[str, np.ndarray]:
    axis, start, stop, steps = _require(
        cfg, f"axis{suffix}", f"start{suffix}", f"stop{suffix}", f"steps{suffix}"
    )
    if steps < 2:
        raise ConfigError("steps must be >= 2")
    return axis, np.linspace(start, stop, steps)


def _run(cfg: dict, axes=()) -> tuple[list[np.ndarray], str]:
    """A run's parameter columns and branch, one point or a grid.

    Each swept key takes its axis's values along its own dimension of the
    grid, axis after axis.  On a symmetric base (delta = zeta) a swept
    delta or zeta moves the other with it, unless both are swept.  A
    swept alpha-m replaces --theta.  theta, alpha-m and the Pauli weights
    each set the flip probability, so a swept alpha-m takes no Pauli
    weights, and theta and alpha-m are not swept together.  The columns are beta, nu1, nu2, delta, zeta, theta and,
    under coherent control, cs-alpha, broadcast to the grid's shape (0-d
    without axes).  The columns alone say which cycle a point is: a
    seventh column puts it under coherent control, and delta = zeta makes
    it the symmetric cycle.
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
    if point.get("cs_alpha") is not None:
        columns.append(point["cs_alpha"])
    shape = tuple(len(values) for _, values in axes)
    grid = [np.broadcast_to(np.asarray(c, dtype=float), shape) for c in columns]
    return grid, point.get("branch") or "minus"


# Grid points per evaluation call and per chunk of rows written: enough
# that numpy's per-call cost is spread thin, few enough that the block's
# temporaries (16 paths and 9 outcomes per point) and its text stay small.
# On a 101 x 101 classify grid 1024-point blocks raised peak RSS by 1.3 MB
# (4%), 256-point blocks by 0.5 MB, at the same speed.  verify-bounds has
# its own block size, pcg64._CAMPAIGN_BLOCK.
_BLOCK_POINTS = 256


def _open_write(path: str):
    # not truncated yet: an existing file keeps its text until every output
    # path of the run has been opened
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    return open(fd, "w", encoding="utf-8", newline="")


@contextlib.contextmanager
def _output(cfg: dict, *paths: str):
    """The --out file or stdout, then one file per further path, closed
    after.  Every path is opened, so checked, before any file is emptied;
    two paths on one regular file are a configuration error."""
    named = [cfg["out"], *paths] if cfg.get("out") else list(paths)
    with contextlib.ExitStack() as stack:
        files = [stack.enter_context(_open_write(path)) for path in named]
        regular = {}  # (device, inode) -> (path, file)
        for path, fh in zip(named, files):
            st = os.fstat(fh.fileno())
            # a device such as /dev/null has nothing to empty (truncating it
            # fails), and any number of outputs may write to it
            if stat.S_ISREG(st.st_mode):
                other, first = regular.setdefault((st.st_dev, st.st_ino), (path, fh))
                if first is not fh:
                    raise ConfigError(f"{other} and {path} are the same file")
        for _, fh in regular.values():
            fh.truncate(0)
        yield files if cfg.get("out") else [sys.stdout, *files]


def _write_table(fh, comment: str, columns: list[tuple], blocks) -> None:
    """Write one table to ``fh``: the ``#`` ``comment``, the header of
    ``columns``, then one row per entry of each block of ``blocks``.

    A block maps each column's field to its entries, an array or a
    sequence.  A column is (header, printf conversion, field, labels): a
    number (conversion ``_NUMBER``) reads back as the exact float, and a
    negative zero prints as 0; a field of codes prints each code's label;
    any other field prints its entries as they are.  Each block's rows are
    formatted and written together.
    """
    fh.write(comment + ",".join(header for header, *_ in columns) + "\n")
    template = ",".join(conversion for _, conversion, _, _ in columns) + "\n"
    for block in blocks:
        cells = []
        for _, conversion, field, labels in columns:
            if conversion == _NUMBER:
                cells.append(_numbers(block[field]))
            elif labels:
                cells.append(map(labels.__getitem__, np.asarray(block[field]).tolist()))
            else:
                cells.append(block[field])
        fh.write("".join([template % row for row in zip(*cells)]))


def _emit(cfg: dict, command: str, columns: list[tuple], blocks) -> None:
    """Write ``command``'s one table to --out or stdout."""
    with _output(cfg) as (fh,):
        _write_table(fh, _config_comment(command, cfg), columns, blocks)


def _block(columns: list[tuple], rows) -> dict:
    """The block of ``rows``, each the entries of ``columns`` in order."""
    return {field: [row[j] for row in rows] for j, (_, _, field, _) in enumerate(columns)}


def _number_columns(*names: str) -> list[tuple]:
    return [(name, _NUMBER, name, ()) for name in names]


# Each table's columns: header, printf conversion, the field that it
# prints and, for a field of codes, each code's label.
_KAPPAS = [f"{var}_k{n}" for var in ("w", "qm") for n in (1, 2, 3, 4)]
_CUMULANTS = [("route", "%s", "route", ()), *_number_columns(*_KAPPAS, "qt_mean")]
_DISTRIBUTION = _number_columns("w", "q_m", "prob")
_BOOLEANS = ("false", "true")
_BOUNDS = [("bound_name", "%s", "name", ()), *_number_columns("left", "right"),
           ("applicable", "%s", "applicable", _BOOLEANS),
           ("satisfied", "%s", "satisfied", _BOOLEANS), *_number_columns("margin")]
# A sweep's cell of a bound, indexed by its code.
_VERDICTS = ("ok", "violated", "n/a")
# A grid table's columns after its axes, each printing a field of
# _block_fields.  The "bounds" field stands for one column per bound.
_REGIME = ("regime", "%s", "regime", analysis._REGIME_LABELS)
_SWEEP = [*_number_columns(*_KAPPAS, "qt_mean", "w_rf", "efficiency"), _REGIME,
          ("bounds", "%s", "bounds", _VERDICTS)]
_CLASSIFY = [("w_mean", _NUMBER, "w_k1", ()), ("qm_mean", _NUMBER, "qm_k1", ()),
             ("qt_mean", _NUMBER, "qt_mean", ()), _REGIME]
_MEANS = {field for _, _, field, _ in _CLASSIFY}  # what the means alone give
_TALLY = [("bound_name", "%s", "bound_name", ()),
          *[(name, "%d", name, ()) for name in ("satisfied", "violated", "inapplicable")]]
_SAMPLE = [("variable", "%s", "variable", ()), *_number_columns(
    "exact_mean", "empirical_mean", "mean_stderr", "z_mean",
    "exact_var", "empirical_var", "var_stderr", "z_var")]
_COMPARISON = [(name, "%s", name, analysis._REGIME_LABELS) if name.startswith("regime")
               else (name, _NUMBER, name, ()) for name in landauzener.Comparison._fields]


def _cmd_cumulants(cfg: dict) -> None:
    # the run's 0-d columns go to the block functions, as a grid's do
    columns, branch = _run(cfg)
    dist = trajectory._point(trajectory.enumerate_block(*columns, branch=branch))
    exact = cumulants.cumulants_from_block(dist)
    nan = math.nan
    try:
        fd = cumulants.cf_derivative_check(*columns, branch=branch)
        fd_values = np.concatenate((fd.w, fd.q_m, [fd.qt_mean]))
    except InputError:  # the diagnostic route fails no answer: its cells are nan
        fd_values = np.full(9, nan)
    *cycle, _, flip = trajectory._checked_columns(*columns, branch=branch)
    # a closed form that cancels to its terms' rounding, as where the
    # outcome is certain, is 0; a magnitude that overflowed tells nothing
    closed = cumulants.FirstTwoCumulants(*(
        np.where(np.isfinite(size) & cumulants.is_rounding_residue(x, size), 0.0, x)
        for x, size in zip(*(cumulants._closed_form(*cycle, flip, m) for m in (False, True)))
    ))
    # the paper gives the coherently controlled closed forms for means only
    controlled = len(columns) > 6  # the seventh column is the control's alpha
    w_var, qm_var = (nan, nan) if controlled else (closed.w_var, closed.qm_var)
    enumeration = np.concatenate((exact.w, exact.q_m, [exact.qt_mean]))
    rows = [("enumeration", *enumeration)]
    for route, values in (
        ("closed_form",
         [closed.w_mean, w_var, nan, nan, closed.qm_mean, qm_var, nan, nan, closed.qt_mean]),
        ("cf_derivative", fd_values),
    ):
        rows += [(route, *values), (route + "_delta", *np.abs(np.subtract(values, enumeration)))]

    # each table's path, columns and one block
    tables = [(cfg.get("out"), _CUMULANTS, _block(_CUMULANTS, rows))]
    if cfg.get("dist_out"):
        tables.append((cfg["dist_out"], _DISTRIBUTION, dist._asdict()))
    if cfg.get("bounds_out"):
        reports = analysis.verify_bounds_block(*columns, branch=branch)
        tables.append((cfg["bounds_out"], _BOUNDS, _block(_BOUNDS, reports)))
    comment = _config_comment("cumulants", cfg)
    with _output(cfg, *(path for path, _, _ in tables[1:])) as files:
        for fh, (_, layout, block) in zip(files, tables):
            _write_table(fh, comment, layout, [block])


def _relative(k2: float, k1: float) -> float:
    """k2 / k1**2 for a nonzero k1.  Python's k1 ** 2 (the C library's pow)
    can differ from np.square in the last bit; where the square would
    leave the normal range, where pow underflows to 0 or raises, the
    quotient is taken as k2 / k1 / k1."""
    return k2 / k1**2 if 1e-150 < abs(k1) < 1e150 else k2 / k1 / k1


def _block_fields(block: list[np.ndarray], branch: str, symmetric: bool, wanted: set) -> dict:
    """The ``wanted`` fields of a block of points, each its own array, with
    the block's parameter columns checked once.  The cumulants, ``qt_mean`` and the
    regime are always evaluated, the cumulants beyond the means only when a
    field other than classify's is wanted; ``w_rf``, ``efficiency`` and each
    bound's verdict, under the bound's name, only when wanted.  A seventh
    column puts the block under coherent control; ``symmetric``, whether
    zeta = delta at every point of the run, adds the symmetric bound."""
    checked = trajectory._checked_columns(*block, branch=branch)
    beta, nu1, nu2, delta, zeta, _, flip = checked
    dist = trajectory._enumerate(beta, nu1, nu2, delta, zeta, flip)
    if wanted <= _MEANS:
        # the means of cumulants_from_block, bitwise, checked alone: a higher
        # cumulant that overflows fails no cell that is printed
        kappas = ["w_k1", "qm_k1"]
        cums = cumulants._checked_block(*(np.vecdot(dist.prob, x)[:, None] for x in dist[:2]))
    else:
        kappas, cums = _KAPPAS, cumulants.cumulants_from_block(dist)
    magnitudes = cumulants.mean_magnitudes(dist)
    values = dict(zip(kappas, np.concatenate((cums.w, cums.q_m), axis=-1).T))
    values["qt_mean"] = cums.qt_mean
    values["regime"] = analysis.classify_regime_array(
        cums.w_mean, cums.qm_mean, cums.qt_mean, beta, magnitudes
    )
    if "w_rf" in wanted:
        # <W> cancelled to rounding residue has no relative fluctuation
        # worth printing
        residue = cumulants.is_rounding_residue(cums.w_mean, magnitudes[0]).tolist()
        points = zip(residue, values["w_k1"].tolist(), values["w_k2"].tolist())
        values["w_rf"] = np.array([math.inf if zero else _relative(k2, k1)
                                   for zero, k1, k2 in points])
    if "efficiency" in wanted:
        values["efficiency"] = analysis._efficiency(beta, nu1, nu2, delta, zeta, flip)[0]
    if not wanted <= values.keys():  # the fields left are bounds
        control = branch if len(block) > 6 else None
        for report in analysis._bounds(*checked, control, symmetric):
            verdict = np.where(report.applicable, ~report.satisfied, 2)
            values[report.name] = verdict.astype(np.int8)
    # copies, so that a block keeps nothing else of the evaluation
    return {field: values[field].copy() for field in wanted}


def _grid_table(cfg: dict, command: str, axes: list, columns: list[tuple]) -> None:
    """Write ``command``'s table over the grid of ``axes``: one row per
    point, in C order, of the point's axis values and then ``columns``.

    Every point is evaluated, and so checked, before any row is written,
    ``_BLOCK_POINTS`` at a time, each block keeping only the fields its
    columns print.  The rows are then written one block at a time.
    """
    grid, branch = _run(cfg, axes)
    # decided once for the run, so that every block has the same columns
    symmetric = bool((grid[3] == grid[4]).all())
    if columns[-1][2] == "bounds":  # the run's bounds, as its reports over no points name them
        control = branch if len(grid) > 6 else None
        bounds = analysis._bounds(*np.empty((7, 0)), control, symmetric)
        columns = columns[:-1] + [(r.name, "%s", r.name, _VERDICTS) for r in bounds]
    wanted = {field for _, _, field, _ in columns}
    shape, size = grid[0].shape, grid[0].size
    blocks = [
        (start, _block_fields([c.flat[start:start + _BLOCK_POINTS] for c in grid],
                              branch, symmetric, wanted))
        for start in range(0, size, _BLOCK_POINTS)
    ]

    def with_axes():
        for start, fields in blocks:
            index = np.unravel_index(np.arange(start, min(start + _BLOCK_POINTS, size)), shape)
            # each axis value the block reaches is formatted once, into a
            # dict of the block's own: the held blocks keep no text
            block = dict(fields)
            for (axis, values), i in zip(axes, index):
                low = i.min()
                text = [_NUMBER % v for v in _numbers(values[low:i.max() + 1])]
                block[axis] = list(map(text.__getitem__, (i - low).tolist()))
            yield block

    axis_columns = [(axis, "%s", axis, ()) for axis, _ in axes]
    _emit(cfg, command, axis_columns + columns, with_axes())


def _cmd_sweep(cfg: dict) -> None:
    _grid_table(cfg, "sweep", [_axis_values(cfg)], _SWEEP)


def _cmd_classify(cfg: dict) -> None:
    axes = [_axis_values(cfg), _axis_values(cfg, "2")]
    if axes[0][0] == axes[1][0]:
        raise ConfigError("the two grid axes must differ")
    _grid_table(cfg, "classify", axes, _CLASSIFY)


def _cmd_verify_bounds(cfg: dict) -> None:
    """Tally every bound over random cycles: ok, violated, inapplicable.

    The cycles are drawn from the PCG64 stream of
    ``np.random.default_rng(--seed)`` in the order that :mod:`.pcg64`
    states, which is part of the output's definition, and are checked as
    arrays, one ``verify_bounds_block`` call per block of draws of one kind.
    A call's bounds follow from its columns: cs draws carry alpha and their
    branch, and the symmetric draws, whose zeta = delta, add the symmetric
    cycle's bound.
    """
    samples = 10000 if cfg.get("samples") is None else cfg["samples"]
    if samples < 1:
        raise ConfigError("--samples must be at least 1")
    # imported here, so that no other command pays for it
    from .pcg64 import _campaign

    counts: dict[str, list[int]] = {}
    for columns, branch in _campaign(cfg.get("seed") or 0, samples):
        for rep in analysis.verify_bounds_block(*columns, branch=branch):
            slot = counts.setdefault(rep.name, [0, 0, 0])
            slot[0] += int(np.count_nonzero(rep.applicable & rep.satisfied))
            slot[1] += int(np.count_nonzero(rep.applicable & ~rep.satisfied))
            slot[2] += int(np.count_nonzero(~rep.applicable))
    rows = [(name, *counts[name]) for name in sorted(counts)]
    _emit(cfg, "verify-bounds", _TALLY, [_block(_TALLY, rows)])


def _cmd_sample(cfg: dict) -> None:
    columns, branch = _run(cfg)
    dist = trajectory._point(trajectory.enumerate_block(*columns, branch=branch))
    n = 10**6 if cfg.get("samples") is None else cfg["samples"]
    seed = cfg.get("seed") or 0
    # the exact row and the drawn row read one cumulant routine, the exact
    # one first: a point whose cumulants overflow fails before any draw
    exact = cumulants.cumulants_from_block(dist)
    drawn = cumulants.cumulants_from_block(trajectory.sample(dist, n, seed))
    rows = []

    def zscore(diff: float, stderr: float) -> float:
        if stderr > 0.0:
            return diff / stderr
        return 0.0 if diff == 0.0 else math.copysign(math.inf, diff)

    for label, kappa, empirical in (("w", exact.w, drawn.w), ("q_m", exact.q_m, drawn.q_m)):
        k1, k2, _, k4 = (float(k) for k in kappa)
        mean, variance = float(empirical[0]), float(empirical[1])
        # the standard errors of n draws' mean and variance, from the exact
        # cumulants: Var(mean) = k2/n, Var(variance) ~ (k4 + 2 k2^2)/n
        mean_err = math.sqrt(max(k2, 0.0) / n)
        var_err = math.sqrt(max(k4 + 2.0 * k2 * k2, 0.0) / n)
        rows.append((
            label, k1, mean, mean_err, zscore(mean - k1, mean_err),
            k2, variance, var_err, zscore(variance - k2, var_err),
        ))
    _emit(cfg, "sample", _SAMPLE, [_block(_SAMPLE, rows)])


def _cmd_lz_compare(cfg: dict) -> None:
    beta, nu1, nu2, alpha_m = _require(cfg, "beta", "nu1", "nu2", "alpha_m")
    axis, values = _axis_values(cfg)
    base = landauzener.LZParams.build(
        beta, nu1, nu2, float(values[0]),
        cfg.get("phi") or 0.0, alpha_m, cfg.get("chi") or 0.0,
    )
    landauzener._checked_deltas(base, values)
    blocks = (landauzener.monitored_vs_unmonitored(base, values[i:i + _BLOCK_POINTS])._asdict()
              for i in range(0, values.size, _BLOCK_POINTS))
    _emit(cfg, "lz-compare", _COMPARISON, blocks)


_CYCLE = ("beta", "nu1", "nu2", "delta", "zeta")
# a cycle's flags: the config file, the cycle, the output and the channel
_POINT = ("config", *_CYCLE, "out",
          "theta", "p0", "p1", "p2", "p3", "alpha-m", "cs-alpha", "branch")
_AXIS = ("axis", "start", "stop", "steps")

_COMMANDS = {
    "cumulants": _Command("one parameter point, all three routes",
                          _flags(*_POINT, "dist-out", "bounds-out"), _cmd_cumulants),
    "sweep": _Command("cumulants/efficiency/regime along one axis",
                      _flags(*_POINT, *_AXIS), _cmd_sweep),
    "classify": _Command("regime map over a 2-D grid",
                         _flags(*_POINT, *_AXIS, "axis2", "start2", "stop2", "steps2"),
                         _cmd_classify),
    # every cycle is drawn at random, so no cycle parameter is taken
    "verify-bounds": _Command("randomized bound-verification campaign",
                              _flags("config", "out", "samples", "seed"), _cmd_verify_bounds),
    "sample": _Command("Monte Carlo draws against the enumeration",
                       _flags(*_POINT, "samples", "seed"), _cmd_sample),
    # delta = zeta comes from the axis, which takes only delta
    "lz-compare": _Command("monitored vs unmonitored Landau-Zener table", {
        **_flags("config", *_CYCLE[:3], "out", "alpha-m", "chi", "phi", *_AXIS),
        "axis": (str, ("delta",), None),
    }, _cmd_lz_compare),
}


_frozen = False  # main has frozen the heap; gc.get_freeze_count would walk it


def main(argv: list[str] | None = None) -> int:
    global _frozen
    # the import-time heap lives until exit: frozen, the exit's collections
    # skip it, and a one-point run's teardown falls from 25-40 ms to 6-9 ms;
    # once per process: a long-lived caller's later garbage stays collectable
    if not _frozen:
        gc.freeze()
        _frozen = True
    args = build_parser().parse_args(argv)
    try:
        cfg = _merge_config(args)
        _COMMANDS[args.command].handler(cfg)
    except PhysicsError as exc:
        print(f"physics error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, InputError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
