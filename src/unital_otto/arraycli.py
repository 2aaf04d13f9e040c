"""The commands that evaluate arrays: ``sweep``, ``classify``,
``verify-bounds`` and ``lz-compare``.

They import numpy, and the command line imports this module only when one
of them runs (:func:`.cli.main`), so that a one-point run (``cumulants``,
``sample``), evaluated in floats, loads no numpy.  Parsing, the table
writer and the outputs are :mod:`.cli`'s.  ``classify`` and ``sweep`` write
one grid table (:func:`_grid_table`): they evaluate, and so check, every
point of their grid before writing any row.  An invalid point leaves no
output, and rows are formatted and written one block at a time, so a
table's text is never held in memory whole.  ``lz-compare`` checks its
whole delta column, then evaluates and writes it a block at a time.
"""

from __future__ import annotations

import math

import numpy as np

from . import analysis, cumulants, landauzener, trajectory
from .cli import (
    _KAPPAS, _NUMBER, ConfigError, _block, _columns, _emit, _number_columns, _numbers,
    _require,
)
from .qstate import MeasurementChannel


def _axis_values(cfg: dict, suffix: str = "") -> tuple[str, np.ndarray]:
    axis, start, stop, steps = _require(
        cfg, f"axis{suffix}", f"start{suffix}", f"stop{suffix}", f"steps{suffix}"
    )
    if steps < 2:
        raise ConfigError("steps must be >= 2")
    return axis, np.linspace(start, stop, steps)


def _run(cfg: dict, axes) -> tuple[list[np.ndarray], str]:
    """A grid run's parameter columns and branch: :func:`.cli._columns`
    with the axes swept in.

    Each swept key takes its axis's values along its own dimension of the
    grid, axis after axis.  On a symmetric base (delta = zeta) a swept
    delta or zeta moves the other with it, unless both are swept.  A
    swept alpha-m replaces --theta.  theta, alpha-m and the Pauli weights
    each set the flip probability, so a swept alpha-m takes no Pauli
    weights, and theta and alpha-m are not swept together.  The columns are
    broadcast to the grid's shape (0-d without axes).  The columns alone say
    which cycle a point is: a seventh column puts it under coherent control,
    and delta = zeta makes it the symmetric cycle.
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
    columns, branch = _columns(point)
    shape = tuple(len(values) for _, values in axes)
    return [np.broadcast_to(np.asarray(c, dtype=float), shape) for c in columns], branch


def _angle_theta(alpha_m: np.ndarray) -> np.ndarray:
    """The flip probabilities of a swept measurement angle, by the rule of
    :attr:`MeasurementChannel.theta`, sin^2(alpha_m) / 2; the first angle
    outside [0, pi] raises the channel's error."""
    outside = ~((0.0 <= alpha_m) & (alpha_m <= math.pi))
    if outside.any():
        MeasurementChannel(float(alpha_m.flat[np.argmax(outside)]))
    return np.square(np.sin(alpha_m)) / 2.0


# Grid points per evaluation call and per chunk of rows written: enough
# that numpy's per-call cost is spread thin, few enough that the block's
# temporaries (16 paths and 9 outcomes per point) and its text stay small.
# On a 101 x 101 classify grid 1024-point blocks raised peak RSS by 1.3 MB
# (4%), 256-point blocks by 0.5 MB, at the same speed.  verify-bounds has
# its own block size, pcg64._CAMPAIGN_BLOCK.
_BLOCK_POINTS = 256


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
_COMPARISON = [(name, "%s", name, analysis._REGIME_LABELS) if name.startswith("regime")
               else (name, _NUMBER, name, ()) for name in landauzener.Comparison._fields]


def _relative(k2: float, k1: float) -> float:
    """k2 / k1**2 for a nonzero k1.  Python's k1 ** 2 (the C library's pow)
    can differ from np.square in the last bit; where the square would
    leave the normal range, where pow underflows to 0 or raises, the
    quotient is taken as k2 / k1 / k1."""
    return k2 / k1**2 if 1e-150 < abs(k1) < 1e150 else k2 / k1 / k1


def _block_fields(block: list[np.ndarray], branch: str, symmetric: bool, wanted: set) -> dict:
    """The ``wanted`` fields of a block of points, each its own array, its
    columns checked and its t computed once.  The cumulants, ``qt_mean`` and
    the regime are always evaluated, the cumulants beyond the means only
    when a field other than classify's is wanted; ``w_rf``, ``efficiency``
    and each bound's verdict, under the bound's name, only when wanted.  A
    seventh column puts the block under coherent control; ``symmetric``,
    whether zeta = delta at every point of the run, adds the symmetric bound."""
    checked = trajectory._checked_columns(*block, branch=branch)
    t, beta, nu1, nu2, delta, zeta, _, flip = checked
    dist = trajectory._enumerate(t, nu1, nu2, delta, zeta, flip)
    means, magnitudes = cumulants._mean_flows(dist)
    if wanted <= _MEANS:
        # the means of cumulants_from_block, bitwise, checked alone: a higher
        # cumulant that overflows fails no cell that is printed
        kappas, cums = ["w_k1", "qm_k1"], cumulants._checked_block(*(x[:, None] for x in means))
    else:
        kappas, cums = _KAPPAS, cumulants.cumulants_from_block(dist)
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
        values["efficiency"] = analysis._efficiency(t, nu1, nu2, delta, zeta, flip)[0]
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
        bounds = analysis._bounds(*np.empty((8, 0)), control, symmetric)
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


def _cmd_lz_compare(cfg: dict) -> None:
    beta, nu1, nu2, alpha_m = _require(cfg, "beta", "nu1", "nu2", "alpha_m")
    axis, values = _axis_values(cfg)
    base = landauzener.LZParams.build(
        beta, nu1, nu2, float(values[0]),
        cfg.get("phi") or 0.0, alpha_m, cfg.get("chi") or 0.0,
    )
    landauzener._checked_deltas(base, values)
    step = _BLOCK_POINTS // 2  # cheap rows: half blocks hold less text, a lower peak
    blocks = (landauzener.monitored_vs_unmonitored(base, values[i:i + step])._asdict()
              for i in range(0, values.size, step))
    _emit(cfg, "lz-compare", _COMPARISON, blocks)
