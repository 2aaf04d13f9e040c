"""The formulas are written once, in ``unital_otto.formulas``, for floats and
arrays alike: a point evaluated in floats, as the command line evaluates one,
is the array layer's point at the same t, bit for bit, and its enumerated
cumulants are exact to rounding."""

import math
from fractions import Fraction

import numpy as np

from unital_otto import ControlSpec, closed_form_block, enumerate_paths, formulas
from unital_otto.cumulants import _closed_form

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
    the gaps are log-uniform on [1e-3, 1e3].  A minus-branch theta is cut to
    1 - sqrt(alpha (1 - alpha)), where the controlled flip reaches 1."""
    rng = np.random.default_rng(39)
    columns = [rng.uniform(-3.0, 3.0, POINTS), 10.0 ** rng.uniform(-3.0, 3.0, POINTS),
               10.0 ** rng.uniform(-3.0, 3.0, POINTS), _edges(rng, POINTS), _edges(rng, POINTS),
               _edges(rng, POINTS)]
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
    # fed numpy's t, as a grid computes it, a point's table and closed forms
    # (values and magnitudes) in floats are the array layer's
    columns, controls = random_points()
    t = np.tanh(columns[0] * columns[1])
    for mode in (None, "plus", "minus"):
        index = [i for i, control in enumerate(controls) if (control and control[1]) == mode]
        values, magnitudes, flips = [], [], []
        for i in index:
            point = [float(c[i]) for c in columns]
            params, flip = formulas._checked_point(*point, *(controls[i] or ()))
            cycle = (float(t[i]), *params[1:], flip)
            ctrl = None if controls[i] is None else ControlSpec(*controls[i])
            want = tuple(tuple(x.tolist()) for x in enumerate_paths(params, point[5], ctrl))
            assert formulas._point_distribution(*cycle) == want, point
            values.append(formulas._first_two(*cycle))
            magnitudes.append(formulas._first_two(*cycle, True))
            flips.append(flip)
        block = [c[index] for c in columns]
        alpha = None if mode is None else np.array([controls[i][0] for i in index])
        arrays = (closed_form_block(*block, alpha, mode or "minus"),
                  _closed_form(*block[:5], np.array(flips), magnitudes=True))
        for floats, array in zip((values, magnitudes), arrays):
            for field, column in zip(array._fields, array):
                assert _bits(getattr(f, field) for f in floats) == _bits(column), (mode, field)


def test_float_cumulants_are_exact_to_rounding():
    # within 4e-15 E^k of the exact cumulants of the same inputs, E = 2 (nu1
    # + nu2) the largest outcome; the moments are summed about the most
    # probable outcome, so a certain variable has kappa_2..4 exactly 0
    columns, controls = random_points()
    t = np.tanh(columns[0] * columns[1])
    for i, control in enumerate(controls):
        params, flip = formulas._checked_point(*(float(c[i]) for c in columns), *(control or ()))
        cycle = (float(t[i]), *params[1:], flip)
        kw, kq, _ = formulas._point_cumulants(formulas._point_distribution(*cycle))
        scale = Fraction(2.0 * (params.nu1 + params.nu2))
        for got, exact in zip((kw, kq), exact_cumulants(*cycle)):
            for k, (value, kappa) in enumerate(zip(got, exact), 1):
                assert abs(Fraction(value) - kappa) <= Fraction(4e-15) * scale**k, (i, k)
    for point in HUGE_CERTAIN:
        params, flip = formulas._checked_point(*point)
        dist = formulas._point_distribution(params.tanh_beta_nu1, *params[1:], flip)
        kw, kq, _ = formulas._point_cumulants(dist)
        assert kw[1:] == kq[1:] == (0.0, 0.0, 0.0)
        assert math.isfinite(kw[0]) and math.isfinite(kq[0])
