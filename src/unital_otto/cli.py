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
        parser.add_argument("--cs-alpha", type=float, dest="cs_alpha")
        parser.add_argument("--branch", choices=("plus", "minus"))


# argparse's own negative-number pattern has no exponent and reads -1e3 as an option
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


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

    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def _config_types(
    parser: argparse.ArgumentParser, command: str
) -> dict[str, tuple[str, type, tuple | None]]:
    """Config-file key -> (destination, value type, allowed values) for
    every long flag of every subcommand.  Allowed values are the flag's
    ``choices`` in ``command``, the subcommand that runs; a key only other
    subcommands take has none."""
    types: dict[str, tuple[str, type, tuple | None]] = {}
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
    """File values, then command-line flags on top."""
    merged: dict = {}
    if getattr(args, "config", None):
        types = _config_types(parser, args.command)
        for key, text in _read_config_file(args.config, types).items():
            dest, kind, choices = types[key]
            try:
                merged[dest] = kind(text)
            except ValueError as exc:  # as the flag's type rejects it
                raise ConfigError(str(exc)) from exc
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
    raise ConfigError("specify a channel: --theta, --p0..--p3, or --alpha-m")


def _config_comment(command: str, cfg: dict) -> str:
    parts = [f"command={command}"]
    for key, value in sorted(cfg.items()):
        if value is not None:
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
# its own block size, _CAMPAIGN_BLOCK.
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
    any other field prints its entries as they are.  At most
    ``_BLOCK_POINTS`` rows are formatted at a time, whatever the size of
    a block.
    """
    fh.write(comment + ",".join(header for header, *_ in columns) + "\n")
    template = ",".join(conversion for _, conversion, _, _ in columns) + "\n"
    for block in blocks:
        for start in range(0, len(block[columns[0][2]]), _BLOCK_POINTS):
            cells = []
            for _, conversion, field, labels in columns:
                entries = block[field][start:start + _BLOCK_POINTS]
                if conversion == _NUMBER:
                    cells.append(_numbers(entries))
                elif labels:
                    cells.append(map(labels.__getitem__, np.asarray(entries).tolist()))
                else:
                    cells.append(entries)
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
    fd = cumulants.cf_derivative_check(*columns, branch=branch)
    closed = cumulants.closed_form_block(*columns, branch=branch)
    nan = math.nan
    # the paper gives the coherently controlled closed forms for means only
    controlled = len(columns) > 6  # the seventh column is the control's alpha
    w_var, qm_var = (nan, nan) if controlled else (closed.w_var, closed.qm_var)
    enumeration = np.concatenate((exact.w, exact.q_m, [exact.qt_mean]))
    rows = [("enumeration", *enumeration)]
    for route, values in (
        ("closed_form",
         [closed.w_mean, w_var, nan, nan, closed.qm_mean, qm_var, nan, nan, closed.qt_mean]),
        ("cf_derivative", np.concatenate((fd.w, fd.q_m, [fd.qt_mean]))),
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


# Samples per bound-campaign block: decoded, then checked with one
# verify_bounds_block call per draw code, 16 calls for 15000 samples.
# A block is decoded _DECODE_SAMPLES at a time, so that the word tables stay
# small: on a 15000-sample campaign one table per 4096-sample block raised
# peak RSS by 2.5 MB over 2048-sample word-list decoding, 512-sample
# chunks by 0.1 MB.
_CAMPAIGN_BLOCK = 4096
_DECODE_SAMPLES = 512

# The most raw words one sample reads, bar a redraw: beta, five doubles,
# alpha, and one fresh word whose halves serve the mode and the branch.
_SAMPLE_WORDS = 8

# A sample's branch by its draw code: the index of its cycle (symmetric,
# asymmetric, cs), plus the branch's index in cs.  Only cs has a branch; a
# symmetric draw is the one with zeta = delta.
_GROUPS = (None, None, "plus", "minus")

_GAP_RANGE = 3.0 - 1e-3


class _Draws:
    """The campaign's draws as ``np.random.Generator`` reads them from its
    PCG64 ``words``: a double from each word, and 32-bit integers from the
    low half of a fresh word, whose high half is buffered for the next
    (``buffered``, ``half``; ``half`` keeps the last buffered value, as
    numpy's ``uinteger`` does)."""

    def __init__(self, words):
        self.words = words
        self.buffered, self.half = False, 0

    def _word(self) -> int:
        word = int(self.words.peek(1)[0])
        self.words.advance(1)
        return word

    def random(self) -> float:
        return (self._word() >> 11) * 2.0**-53

    def integers(self, n: int) -> int:
        """``integers(0, n)`` for 1 < n < 2**32: Lemire's method, ``(u * n)
        >> 32`` of a 32-bit draw u, redrawn while ``(u * n) % 2**32 <
        (2**32 - n) % n``."""
        while True:
            if self.buffered:
                u, self.buffered = self.half, False
            else:
                word = self._word()
                u, self.buffered, self.half = word & 0xFFFFFFFF, True, word >> 32
            if (u * n) & 0xFFFFFFFF >= (2**32 - n) % n:
                return (u * n) >> 32


def _one_sample(draws: _Draws) -> tuple[tuple, int] | None:
    """The next campaign sample, drawn one value at a time in the order
    :func:`_cmd_verify_bounds` states: its seven cells (alpha is 0 outside
    cs) and its group code, or None when beta is skipped."""
    beta = -2.0 + 4.0 * draws.random()
    if abs(beta) < 1e-9:
        return None
    u1, u2, delta, zeta, theta = (draws.random() for _ in range(5))
    code = draws.integers(3)
    alpha = 0.0
    if code == 0:
        zeta = delta
    elif code == 2:
        theta *= 0.5
        alpha = draws.random()
        code += draws.integers(2)
    return (beta, 1e-3 + _GAP_RANGE * u1, 1e-3 + _GAP_RANGE * u2, delta, zeta, theta, alpha), code


def _decode_chunk(draws: _Draws, cells: np.ndarray, codes: np.ndarray) -> int:
    """Decode campaign samples from raw PCG64 words into ``cells``, seven
    rows as :func:`_one_sample` gives them, and their group ``codes``, up
    to the length of ``codes``; returns how many.  Decoding stops before
    the first sample that skips beta or redraws its mode; ``draws`` is left
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
    # word 0 stands for the word before the chunk: its high half is the
    # buffered half, if any
    raw = np.empty(1 + _SAMPLE_WORDS * count, dtype=np.uint64)
    raw[0] = draws.half << 32
    raw[1:] = draws.words.peek(_SAMPLE_WORDS * count)
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
    state = draws.buffered * width + 1
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
        # the stream moves past the words the samples read; the buffered
        # half, or the last one drawn, is the high half of the word that gave it
        h, p = divmod(int(starts[-1]), width)
        word = p + 6 if not h else p + 7 if code[-1] >= 2 else p - 1
        h_end, p_end = divmod(walk[starts[-1]], width)
        draws.words.advance(p_end - 1)
        draws.buffered, draws.half = bool(h_end), int(raw[word] >> 32)
    return n


def _campaign_draws(draws: _Draws, count: int) -> dict[int, list[np.ndarray]]:
    """The next ``count`` samples of a bound campaign, in the order
    :func:`_cmd_verify_bounds` states, grouped by draw code (``_GROUPS``).
    Each group holds its kept samples in draw order as columns: beta, nu1,
    nu2, delta, zeta, theta and, in cs, alpha.

    The samples are decoded from the stream's raw PCG64 words as numpy's
    ``Generator`` reads them (:class:`_Draws`), ``_DECODE_SAMPLES`` at a
    time (:func:`_decode_chunk`).  A double is ``(w >> 11) * 2**-53``.
    ``integers(0, n)`` is Lemire's method on the 32-bit stream, whose
    redraw takes u = 0 for n = 3 and never fires for n = 2.  The 32-bit
    stream takes the low half of a fresh word and keeps the high half for
    its next draw, across any doubles drawn in between.  A sample that
    skips beta or redraws its mode, about one in 1e9, is drawn by
    :func:`_one_sample` from the same words.  ``draws`` ends where
    ``Generator``'s own calls would leave it.
    """
    cells = np.empty((7, count))
    codes = np.empty(count, dtype=np.intp)
    kept = done = 0
    while done < count:
        want = min(_DECODE_SAMPLES, count - done)
        decoded = _decode_chunk(draws, cells[:, kept:], codes[kept:kept + want])
        kept += decoded
        done += decoded
        if decoded < want:
            sample = _one_sample(draws)
            done += 1
            if sample is not None:
                cells[:, kept], codes[kept] = sample
                kept += 1
    groups: dict[int, list[np.ndarray]] = {}
    for code, branch in enumerate(_GROUPS):
        picked = cells[:6 if branch is None else 7, :kept][:, codes[:kept] == code]
        if picked.size:
            groups[code] = list(picked)
    return groups


def _cmd_verify_bounds(cfg: dict) -> None:
    """Tally every bound over random cycles: ok, violated, inapplicable.

    The draw order is part of the output's definition (``perfbench/
    oracle.py`` replays it with numpy's ``Generator``).  On the PCG64
    stream of ``np.random.default_rng(--seed)``, each sample draws beta =
    -2 + 4 u and is skipped, drawing nothing more, when |beta| < 1e-9;
    then nu1 and nu2 = 1e-3 + (3 - 1e-3) u, then delta, zeta and theta =
    u, then the mode as ``integers(0, 3)`` indexing (symmetric,
    asymmetric, cs).  Symmetric sets zeta = delta; cs halves theta, then
    draws the control weight alpha = u and the branch as ``integers(0,
    2)`` indexing (plus, minus).  Each u is one double of ``random()``
    (the five after beta come from one ``random(5)``, the same doubles);
    ``uniform(a, b)`` and ``choice`` of a tuple draw the same stream.
    The package computes that stream's words itself (:mod:`.pcg64`), so
    no command imports ``numpy.random``, and decodes them as
    ``Generator`` does (:func:`_campaign_draws`).  A negative seed is a
    configuration error, as it is for numpy.  Samples are drawn in blocks
    of ``_CAMPAIGN_BLOCK``, decoded as arrays ``_DECODE_SAMPLES`` at a
    time, and each block's bounds are evaluated as arrays, one call per
    draw code.  A call's bounds follow from its columns: cs draws carry
    alpha and their branch, and the symmetric draws, whose zeta = delta,
    add the symmetric cycle's bound.
    """
    samples = 10000 if cfg.get("samples") is None else cfg["samples"]
    if samples < 1:
        raise ConfigError("--samples must be at least 1")
    seed = cfg.get("seed") or 0
    # imported here, so that no other command pays for it
    from .pcg64 import PCG64

    draws = _Draws(PCG64.from_seed(seed))
    counts: dict[str, list[int]] = {}
    for start in range(0, samples, _CAMPAIGN_BLOCK):
        count = min(_CAMPAIGN_BLOCK, samples - start)
        # no name keeps the groups, so they are freed before the next block
        for code, columns in _campaign_draws(draws, count).items():
            reports = analysis.verify_bounds_block(*columns, branch=_GROUPS[code] or "minus")
            for rep in reports:
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
    stats = trajectory.sample(dist, n, seed)
    exact = cumulants.cumulants_from_block(dist)
    rows = []

    def zscore(diff: float, stderr: float) -> float:
        if stderr > 0.0:
            return diff / stderr
        return 0.0 if diff == 0.0 else math.copysign(math.inf, diff)

    for label, summary, kappa in (("w", stats.w, exact.w), ("q_m", stats.q_m, exact.q_m)):
        k1, k2, _, k4 = (float(k) for k in kappa)
        # the standard errors of n draws' mean and variance, from the exact
        # cumulants: Var(mean) = k2/n, Var(variance) ~ (k4 + 2 k2^2)/n
        mean_err = math.sqrt(max(k2, 0.0) / n)
        var_err = math.sqrt(max(k4 + 2.0 * k2 * k2, 0.0) / n)
        rows.append((
            label, k1, summary.mean, mean_err, zscore(summary.mean - k1, mean_err),
            k2, summary.variance, var_err, zscore(summary.variance - k2, var_err),
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


_COMMANDS = {
    "cumulants": _cmd_cumulants,
    "sweep": _cmd_sweep,
    "classify": _cmd_classify,
    "verify-bounds": _cmd_verify_bounds,
    "sample": _cmd_sample,
    "lz-compare": _cmd_lz_compare,
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args, parser)
        _COMMANDS[args.command](cfg)
    except PhysicsError as exc:
        print(f"physics error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, InputError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
