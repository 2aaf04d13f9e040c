"""The formulas are written once, in ``unital_otto.formulas``, for floats and
arrays alike: a point evaluated in floats, as the command line evaluates one,
is the array layer's point, bit for bit, at the one t of both, and its
enumerated cumulants are exact to rounding."""

import math
from fractions import Fraction

import numpy as np

from unital_otto import (
    ControlSpec, closed_form_block, cumulants_from_block, enumerate_block, formulas,
    trajectory, verify_bounds_block,
)
from unital_otto.cli import main

from references import exact_cumulants

POINTS = 10_000
# beta nu1 >= 7e9 makes t = 1: with theta = 1 and adiabatic strokes W and
# Q_M are certain, at gaps up to the float limit's neighbourhood
HUGE_CERTAIN = [(0.7, nu1, 3.0 * nu1, 0.0, 0.0, 1.0) for nu1 in (1e10, 1e76, 1e200)]


def _edges(rng, size, top=1.0):
    """Draws on [0, top], a quarter each at 0, top / 2, top and uniform."""
    kind = rng.integers(0, 4, size)
    return np.choose(kind, [np.zeros(size), np.full(size, top / 2), np.full(size, top),
                            rng.uniform(0.0, top, size)])


def random_points():
    """The columns (beta, nu1, nu2, delta, zeta, theta) of POINTS random
    points and the huge certain ones, and each point's control: None, or
    (alpha, branch), a third of the points on each branch.  Strokes, flip
    probabilities and arm weights sit at 0, 1/2 and 1 as often as between;
    the gaps are log-uniform on [1e-3, 1e3], but every fourth point has
    beta nu1 = 0.7, where numpy's tanh and the C library's differ.  A
    minus-branch theta is cut to 1 - sqrt(alpha (1 - alpha)), where the
    controlled flip reaches 1."""
    rng = np.random.default_rng(39)
    columns = [rng.uniform(-3.0, 3.0, POINTS), 10.0 ** rng.uniform(-3.0, 3.0, POINTS),
               10.0 ** rng.uniform(-3.0, 3.0, POINTS), _edges(rng, POINTS), _edges(rng, POINTS),
               _edges(rng, POINTS)]
    columns[0][::4], columns[1][::4] = 0.7, 1.0
    alphas = _edges(rng, POINTS)
    controls = []
    for i, kind in enumerate(rng.integers(0, 3, POINTS)):
        if kind == 0:
            controls.append(None)
            continue
        branch = "plus" if kind == 1 else "minus"
        if branch == "minus":
            columns[5][i] = min(columns[5][i], 1.0 - ControlSpec(alphas[i]).coherence)
        controls.append((float(alphas[i]), branch))
    for point in HUGE_CERTAIN:
        columns = [np.append(c, x) for c, x in zip(columns, point)]
        controls.append(None)
    return columns, controls


def _bits(values) -> list[str]:
    return [float(x).hex() for x in values]


def test_a_float_point_is_the_array_point_at_the_same_t():
    # at the package's t, a point's table (in table order, and sorted with
    # its zero-probability outcomes dropped) and closed forms (values and
    # magnitudes) in floats are the array layer's
    columns, controls = random_points()
    t = trajectory._tanh_columns(columns[0], columns[1])
    for mode in (None, "plus", "minus"):
        index = [i for i, control in enumerate(controls) if (control and control[1]) == mode]
        values, magnitudes, flips = [], [], []
        for i in index:
            point = [float(c[i]) for c in columns]
            cycle = formulas._checked_point(*point, *(controls[i] or ()))
            assert cycle[0] == t[i]
            row = enumerate_block(*point, *(controls[i] or ()))
            table = formulas._point_distribution(*cycle)
            assert _bits(sum(table, [])) == _bits(np.concatenate(row)), point
            keep = row.prob != 0.0
            want = tuple(zip(*sorted(zip(*(x[keep].tolist() for x in row)))))
            assert formulas._support(table) == want, point
            values.append(formulas._first_two(*cycle))
            magnitudes.append(formulas._first_two(*cycle, True))
            flips.append(cycle[-1])
        block = [c[index] for c in columns]
        alpha = None if mode is None else np.array([controls[i][0] for i in index])
        with np.errstate(over="ignore", invalid="ignore"):  # inf and nan, as in floats
            magnitudes_block = formulas._first_two(t[index], *block[1:5], np.array(flips), True)
        arrays = (closed_form_block(*block, alpha, mode or "minus"), magnitudes_block)
        for floats, array in zip((values, magnitudes), arrays):
            for field, column in zip(array._fields, array):
                assert _bits(getattr(f, field) for f in floats) == _bits(column), (mode, field)


def test_float_cumulants_are_exact_to_rounding():
    # within 4e-15 E^k of the exact cumulants of the same inputs, E = 2 (nu1
    # + nu2) the largest outcome; the moments are summed about the most
    # probable outcome, so a certain variable has kappa_2..4 exactly 0
    columns, controls = random_points()
    for i, control in enumerate(controls):
        cycle = formulas._checked_point(*(float(c[i]) for c in columns), *(control or ()))
        kw, kq, _ = formulas._point_cumulants(formulas._point_distribution(*cycle))
        scale = Fraction(2.0 * (cycle[1] + cycle[2]))
        for got, exact in zip((kw, kq), exact_cumulants(*cycle)):
            for k, (value, kappa) in enumerate(zip(got, exact), 1):
                assert abs(Fraction(value) - kappa) <= Fraction(4e-15) * scale**k, (i, k)
    for point in HUGE_CERTAIN:
        dist = formulas._point_distribution(*formulas._checked_point(*point))
        kw, kq, _ = formulas._point_cumulants(dist)
        assert kw[1:] == kq[1:] == (0.0, 0.0, 0.0)
        assert math.isfinite(kw[0]) and math.isfinite(kq[0])


def test_a_grid_point_is_the_point_alone(tmp_path):
    # at 2000 of the points, a cumulants run's enumerated cumulants,
    # distribution and bound reports are the point's row of a grid, bit for
    # bit, and a sample run's exact mean and variance of W and of Q_M are
    # the kappa_1 and kappa_2 that cumulants prints
    columns, controls = random_points()
    columns, controls = [c[:2000] for c in columns], controls[:2000]
    out, dist_out, bounds_out = tmp_path / "out.csv", tmp_path / "dist.csv", tmp_path / "bounds.csv"
    drawn = tmp_path / "sample.csv"
    # one grid per kind of point: its control's branch, and whether zeta =
    # delta, which adds the symmetric cycle's bound
    kinds = {}
    for i, control in enumerate(controls):
        kinds.setdefault((control and control[1], columns[3][i] == columns[4][i]), []).append(i)
    for (branch, _), index in kinds.items():
        grid = [c[index] for c in columns]
        control = () if branch is None else (np.array([controls[i][0] for i in index]), branch)
        dists = enumerate_block(*grid, *control)
        cums = cumulants_from_block(dists)
        reports = verify_bounds_block(*grid, *control)
        for row, i in enumerate(index):
            argv = _point_argv(columns, controls, i)
            assert main(["cumulants", *argv, "--out", str(out), "--dist-out", str(dist_out),
                         "--bounds-out", str(bounds_out)]) == 0
            kappas = [*cums.w[row].tolist(), *cums.q_m[row].tolist(), float(cums.qt_mean[row])]
            enumeration = _table(out)[0]
            assert enumeration == ["enumeration", *map(_cell, kappas)], i
            assert main(["sample", *argv, "--samples", "1", "--out", str(drawn)]) == 0
            w, q = _table(drawn)
            assert [w[1], w[5], q[1], q[5]] == [enumeration[j] for j in (1, 2, 5, 6)], i
            keep = dists.prob[row] != 0.0
            outcomes = sorted(zip(*(x[row][keep].tolist() for x in dists)))
            assert _table(dist_out) == [list(map(_cell, o)) for o in outcomes], i
            bounds = [[r.name, *(_cell(float(x[row])) for x in r[1:3]), bool(r.applicable[row]),
                       bool(r.satisfied[row]), _cell(float(r.margin[row]))] for r in reports]
            assert _table(bounds_out) == bounds, i


def _point_argv(columns, controls, i) -> list[str]:
    """The command-line flags of point ``i`` of :func:`random_points`."""
    names = ("beta", "nu1", "nu2", "delta", "zeta", "theta")
    argv = [f"--{name}={float(c[i])!r}" for name, c in zip(names, columns)]
    if controls[i]:
        argv += [f"--cs-alpha={controls[i][0]!r}", f"--branch={controls[i][1]}"]
    return argv


def _cell(value: float):
    """A number as a table prints it: a negative zero is 0, and nan is
    compared by name."""
    return "nan" if math.isnan(value) else value + 0.0


def _table(path) -> list:
    """The rows of a written table: numbers as :func:`_cell` reads them,
    booleans as bools, names as they are."""
    def read(text):
        if text in ("true", "false"):
            return text == "true"
        try:
            return _cell(float(text))
        except ValueError:
            return text
    return [[read(c) for c in line.split(",")] for line in path.read_text().splitlines()[2:]]
