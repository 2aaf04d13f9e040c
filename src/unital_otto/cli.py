"""Command-line front end: evaluations, sweeps, regime maps, bound campaigns.

Every subcommand writes CSV (to --out or stdout) whose first line is a
``#``-comment recording the fully resolved configuration, so a rerun
with the same inputs, Python and numpy byte-reproduces the file, whichever
SIMD or BLAS kernels the CPU gets (``sample`` draws from the standard
library's MT19937 stream, ``verify-bounds`` from numpy's PCG64 word
stream, which the package computes itself, so that no command imports
``numpy.random``).  Every table, side files included, goes through one writer
(:func:`_write_table`): numbers print with 17 significant digits, a
negative zero as 0, and a field of codes prints its labels.  Every
output path is opened before any text is written, and two outputs on
one file are a configuration error.

The two one-point commands, ``cumulants`` and ``sample``, evaluate their
point in Python floats: the formulas of :mod:`.formulas`, the moments
summed in outcome order, so a run of either imports no numpy
(``--bounds-out`` excepted).  The commands that evaluate arrays
(``sweep``, ``classify``, ``verify-bounds``, ``lz-compare``) live in
:mod:`.arraycli`, imported when one of them runs, and evaluate the same
formulas, at the same t, on numpy columns.

Exit codes: 0 success (bound violations are data), 1 output pipe closed,
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

from . import formulas
from .qstate import InputError, MeasurementChannel, PhysicsError

SWEEPABLE = ("beta", "nu1", "nu2", "delta", "zeta", "theta", "cs-alpha", "alpha-m")


class ConfigError(Exception):
    pass


# The printf conversion of a number, in a table and in the config comment:
# 17 significant digits read back as the exact float.
_NUMBER = "%.17g"


def _numbers(values) -> list[float]:
    """``values``, a point's sequence or an array, as Python floats, a
    negative zero made 0, so that it prints as 0."""
    if isinstance(values, (list, tuple)):
        return [float(x) + 0.0 for x in values]
    return (values + 0.0).tolist()


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
        if isinstance(cfg["alpha_m"], float):
            return MeasurementChannel(cfg["alpha_m"]).theta
        from .arraycli import _angle_theta  # a swept angle, from a grid run

        return _angle_theta(cfg["alpha_m"])
    raise ConfigError("specify a channel: --theta, --p0..--p3, or --alpha-m")


def _columns(cfg: dict) -> tuple[list, str]:
    """A run's parameter columns and branch: beta, nu1, nu2, delta, zeta,
    theta and, under coherent control, cs-alpha; floats at one point, a
    grid's values where :func:`.arraycli._run` has swept them in."""
    columns = _require(cfg, "beta", "nu1", "nu2", "delta", "zeta")
    columns.append(_resolve_theta(cfg))
    if cfg.get("cs_alpha") is not None:
        columns.append(cfg["cs_alpha"])
    return columns, cfg.get("branch") or "minus"


def _config_comment(command: str, cfg: dict) -> str:
    parts = [f"command={command}"]
    # a run's configuration holds no None: _merge_config keeps set values only
    for key, value in sorted(cfg.items()):
        value = _NUMBER % value if isinstance(value, float) else value
        parts.append(f"{key.replace('_', '-')}={value}")
    return "# " + " ".join(parts) + "\n"


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
                codes = block[field]
                codes = map(int, codes) if isinstance(codes, (list, tuple)) else codes.tolist()
                cells.append(map(labels.__getitem__, codes))
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
_SAMPLE = [("variable", "%s", "variable", ()), *_number_columns(
    "exact_mean", "empirical_mean", "mean_stderr", "z_mean",
    "exact_var", "empirical_var", "var_stderr", "z_var")]


def _point(cfg: dict) -> tuple:
    """A one-point run in floats: its columns and branch, its checked cycle as
    the formulas take it (:func:`.formulas._checked_point`) and its
    distribution."""
    columns, branch = _columns(cfg)
    cycle = formulas._checked_point(*columns, branch=branch)
    return columns, branch, cycle, formulas._point_distribution(*cycle)


def _cmd_cumulants(cfg: dict) -> None:
    columns, branch, cycle, dist = _point(cfg)
    kw, kq, qt = formulas._point_cumulants(dist)
    enumeration = [*kw, *kq, qt]
    nan = math.nan
    try:
        fd_w, fd_q, fd_qt = formulas._checked(*formulas._series_cumulants(*cycle))
        fd_values = [*fd_w, *fd_q, fd_qt]
    except InputError:  # the diagnostic route fails no answer: its cells are nan
        fd_values = [nan] * 9
    # a closed form that cancels to its terms' rounding, as where the
    # outcome is certain, is 0; a magnitude that overflowed tells nothing
    closed = formulas.FirstTwoCumulants(*(
        0.0 if math.isfinite(size) and formulas.is_rounding_residue(x, size) else x
        for x, size in zip(*(formulas._first_two(*cycle, m) for m in (False, True)))
    ))
    # the paper gives the coherently controlled closed forms for means only
    controlled = len(columns) > 6  # the seventh column is the control's alpha
    w_var, qm_var = (nan, nan) if controlled else (closed.w_var, closed.qm_var)
    rows = [("enumeration", *enumeration)]
    for route, values in (
        ("closed_form",
         [closed.w_mean, w_var, nan, nan, closed.qm_mean, qm_var, nan, nan, closed.qt_mean]),
        ("cf_derivative", fd_values),
    ):
        rows += [(route, *values),
                 (route + "_delta", *(abs(x - e) for x, e in zip(values, enumeration)))]

    # each table's path, columns and one block
    tables = [(cfg.get("out"), _CUMULANTS, _block(_CUMULANTS, rows))]
    if cfg.get("dist_out"):
        tables.append((cfg["dist_out"], _DISTRIBUTION, formulas._support(dist)._asdict()))
    if cfg.get("bounds_out"):
        from .analysis import verify_bounds_block  # numpy, for this output alone

        reports = verify_bounds_block(*columns, branch=branch)
        tables.append((cfg["bounds_out"], _BOUNDS, _block(_BOUNDS, reports)))
    comment = _config_comment("cumulants", cfg)
    with _output(cfg, *(path for path, _, _ in tables[1:])) as files:
        for fh, (_, layout, block) in zip(files, tables):
            _write_table(fh, comment, layout, [block])


def _cmd_sample(cfg: dict) -> None:
    *_, dist = _point(cfg)
    n = 10**6 if cfg.get("samples") is None else cfg["samples"]
    seed = cfg.get("seed") or 0
    # exact and drawn rows read one routine, the exact first (on the table, as
    # cumulants does): a point whose cumulants overflow fails before any draw
    exact, support = formulas._point_cumulants(dist), formulas._support(dist)
    shares = formulas._shares(support.prob, n, seed)
    drawn = formulas._point_cumulants(support._replace(prob=shares))
    rows = []

    def zscore(diff: float, stderr: float) -> float:
        if stderr > 0.0:
            return diff / stderr
        return 0.0 if diff == 0.0 else math.copysign(math.inf, diff)

    for label, kappa, empirical in (("w", exact[0], drawn[0]), ("q_m", exact[1], drawn[1])):
        k1, k2, _, k4 = kappa
        mean, variance = empirical[:2]
        # the standard errors of n draws' mean and variance, from the exact
        # cumulants: Var(mean) = k2/n, Var(variance) ~ (k4 + 2 k2^2)/n
        mean_err = math.sqrt(max(k2, 0.0) / n)
        var_err = math.sqrt(max(k4 + 2.0 * k2 * k2, 0.0) / n)
        rows.append((
            label, k1, mean, mean_err, zscore(mean - k1, mean_err),
            k2, variance, var_err, zscore(variance - k2, var_err),
        ))
    _emit(cfg, "sample", _SAMPLE, [_block(_SAMPLE, rows)])


_CYCLE = ("beta", "nu1", "nu2", "delta", "zeta")
# a cycle's flags: the config file, the cycle, the output and the channel
_POINT = ("config", *_CYCLE, "out",
          "theta", "p0", "p1", "p2", "p3", "alpha-m", "cs-alpha", "branch")
_AXIS = ("axis", "start", "stop", "steps")


def _arrays(name: str) -> Callable[[dict], None]:
    """The handler ``name`` of :mod:`.arraycli`, which imports numpy: it is
    imported when its command runs."""
    def handler(cfg: dict) -> None:
        from . import arraycli

        getattr(arraycli, name)(cfg)

    return handler


_COMMANDS = {
    "cumulants": _Command("one parameter point, all three routes",
                          _flags(*_POINT, "dist-out", "bounds-out"), _cmd_cumulants),
    "sweep": _Command("cumulants/efficiency/regime along one axis",
                      _flags(*_POINT, *_AXIS), _arrays("_cmd_sweep")),
    "classify": _Command("regime map over a 2-D grid",
                         _flags(*_POINT, *_AXIS, "axis2", "start2", "stop2", "steps2"),
                         _arrays("_cmd_classify")),
    # every cycle is drawn at random, so no cycle parameter is taken
    "verify-bounds": _Command("randomized bound-verification campaign",
                              _flags("config", "out", "samples", "seed"),
                              _arrays("_cmd_verify_bounds")),
    "sample": _Command("Monte Carlo draws against the enumeration",
                       _flags(*_POINT, "samples", "seed"), _cmd_sample),
    # delta = zeta comes from the axis, which takes only delta
    "lz-compare": _Command("monitored vs unmonitored Landau-Zener table", {
        **_flags("config", *_CYCLE[:3], "out", "alpha-m", "chi", "phi", *_AXIS),
        "axis": (str, ("delta",), None),
    }, _arrays("_cmd_lz_compare")),
}


_frozen = False  # main has frozen the heap; gc.get_freeze_count would walk it


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _merge_config(args)
        _COMMANDS[args.command].handler(cfg)
        sys.stdout.flush()  # so that a closed pipe shows here, not at exit
    except BrokenPipeError:  # the reader has gone: the exit flushes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except PhysicsError as exc:
        print(f"physics error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, InputError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    finally:
        _freeze()
    return 0


def _freeze() -> None:
    """Freeze the heap once per process, after the first run: what its
    imports left behind (numpy, for an array command) lives until exit,
    and once frozen the exit's collections skip it.  A long-lived caller's
    later garbage stays collectable."""
    global _frozen
    if not _frozen:
        gc.freeze()
        _frozen = True


if __name__ == "__main__":
    # through the package's own module, whose errors the array commands
    # raise: as __main__ this file is a second copy of it
    from unital_otto import cli

    sys.exit(cli.main())
