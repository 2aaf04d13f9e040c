"""Exact two-point-measurement statistics of the unital Otto cycle.

The cycle runs A -> B -> C -> D: projective energy measurement in the
gap-nu1 basis, driving unitary U (transition probability delta),
measurement in the gap-nu2 basis, a unital channel with flip
probability theta, another measurement, compression unitary V
(transition probability zeta), and a final gap-nu1 measurement.  The
sixteen measurement records form one path table: each record's
probability is a thermal weight times one entry each of the stroke
matrix U, the channel's 2x2 transition matrix T and the stroke matrix
V, and its outcome has integer coefficients, W = a nu1 + b nu2 and
Q_M = b nu2.  Summing the table on the keys (a, b) gives the joint
distribution of the stochastic work W and channel heat Q_M; everything
downstream (cumulants, bounds, regime maps) is exact arithmetic on this
finite list.  A unital channel enters as the symmetric flip matrix of
theta, any other qubit channel through its own transition matrix.

The backward cycle follows from the forward one by swapping delta and
zeta.  The coherently controlled variant is the unital cycle at the flip
probability theta / (2 p_branch) of
:meth:`~unital_otto.qstate.ControlSpec.flip_probability`.

One array routine evaluates the table at any number of points.
:func:`enumerate_block` returns its rows for whole parameter grids (a
:class:`DistributionBlock`, one row of the nine outcome keys per point);
the single-point functions take one row, drop its zero-probability
outcomes and sort the rest.  One row costs more than a plain-Python
loop would, but a command-line run evaluates at most one single point.

Every block function checks its parameter columns in one routine, in
the order one point is checked: cycle, control, theta range, flip bound.
The first failing point (in C order) raises the error it raises alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qstate import ControlSpec, GeneralQubitChannel, PhysicsError

__all__ = [
    "CycleParams",
    "JointDistribution",
    "DistributionBlock",
    "SampleStats",
    "enumerate_paths",
    "enumerate_block",
    "backward_distribution",
    "cs_distribution",
    "sample",
    "distribution_to_csv",
]

_CLAMP_TOL = 1e-10
_SUM_TOL = 1e-10
# uniforms drawn at a time by sample(): 512 kB of doubles
_SAMPLE_CHUNK = 1 << 16

# The path table: one entry per measurement record (n, m, k, l), the
# state indices at the four measurements (0 ground, 1 excited), with
# the integer outcome key (a, b) of W = a nu1 + b nu2 and Q_M = b nu2.
_PATHS = [
    (n, m, k, l, (2 * (n - l), 2 * (k - m)))
    for n in (0, 1)
    for m in (0, 1)
    for k in (0, 1)
    for l in (0, 1)
]

# Outcome key -> indices of its paths in table order.
_OUTCOMES = {
    key: [i for i, (*_, other) in enumerate(_PATHS) if other == key]
    for *_, key in _PATHS
}


@dataclass(frozen=True)
class CycleParams:
    """All scalar inputs of one Otto cycle.

    beta is the bath inverse temperature (negative values allowed), nu1
    and nu2 the two gaps, delta and zeta the non-adiabatic transition
    probabilities of the expansion and compression strokes.
    """

    beta: float
    nu1: float
    nu2: float
    delta: float
    zeta: float

    def __post_init__(self):
        for name in ("beta", "nu1", "nu2", "delta", "zeta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.nu1 <= 0.0 or self.nu2 <= 0.0:
            raise ValueError("gaps nu1, nu2 must be positive")
        if not (0.0 <= self.delta <= 1.0 and 0.0 <= self.zeta <= 1.0):
            raise ValueError("delta and zeta must lie in [0, 1]")

    @property
    def tanh_beta_nu1(self) -> float:
        return math.tanh(self.beta * self.nu1)

    @property
    def swapped(self) -> "CycleParams":
        """Same cycle with delta and zeta exchanged (the backward cycle)."""
        return CycleParams(self.beta, self.nu1, self.nu2, self.zeta, self.delta)


@dataclass(frozen=True)
class JointDistribution:
    """Finite joint distribution of (W, Q_M), one entry per distinct outcome."""

    w: np.ndarray
    q_m: np.ndarray
    prob: np.ndarray
    direction: str = "forward"
    control: ControlSpec | None = None

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        q = np.asarray(self.q_m, dtype=float)
        p = np.array(self.prob, dtype=float)
        if not (w.shape == q.shape == p.shape) or w.ndim != 1:
            raise ValueError("w, q_m, prob must be 1-d arrays of equal length")
        if self.direction not in ("forward", "backward"):
            raise ValueError("direction must be 'forward' or 'backward'")
        if p.min(initial=0.0) < -_CLAMP_TOL:
            raise PhysicsError(
                f"outcome probability {p.min():.3g} below -{_CLAMP_TOL:g}"
            )
        p[p < 0.0] = 0.0
        total = p.sum()
        if abs(total - 1.0) > _SUM_TOL:
            raise PhysicsError(f"probabilities sum to {total!r}, not 1")
        for arr in (w, q, p):
            arr.setflags(write=False)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "q_m", q)
        object.__setattr__(self, "prob", p)

    def __len__(self) -> int:
        return self.w.size

    def characteristic_value(self, gamma_w: float, gamma_m: float) -> complex:
        """Brute-force discrete transform sum_k p_k e^{i gw W_k + i gm Q_k}."""
        phase = np.exp(1j * (gamma_w * self.w + gamma_m * self.q_m))
        return complex(np.sum(self.prob * phase))


# The table as columns: the state index at each of the four measurements
# of every path, and the integer coefficients (a, b) of each outcome key
# in ``_OUTCOMES`` order.
_N, _M, _K, _L = (np.array(col) for col in zip(*(path[:4] for path in _PATHS)))
_KEY_A, _KEY_B = (np.array(col, dtype=float) for col in zip(*_OUTCOMES))


@dataclass(frozen=True)
class DistributionBlock:
    """Joint distributions of (W, Q_M) over a grid of parameter points.

    Each array is shaped ``(..., 9)``: the grid's shape, then one entry per
    integer outcome key of the path table, in one fixed order and with
    zero-probability outcomes kept, so every point has the same columns.
    """

    w: np.ndarray
    q_m: np.ndarray
    prob: np.ndarray


def _flip_matrices(p) -> np.ndarray:
    """Symmetric 2x2 transition matrices with flip probabilities p, shaped
    ``p.shape + (2, 2)``."""
    p = np.asarray(p)
    out = np.empty(p.shape + (2, 2))
    out[..., 0, 0] = out[..., 1, 1] = 1.0 - p
    out[..., 0, 1] = out[..., 1, 0] = p
    return out


def _evaluate(beta, nu1, nu2, delta, zeta, channel) -> DistributionBlock:
    """The path table at N points: the one place its probabilities are formed.

    Takes the five cycle parameters as 1-d arrays and ``channel``, the
    (N, 2, 2) transition matrices of the channel in the table's index
    order: ``channel[:, k, m]`` is the probability that it takes state m
    to state k.  Each path's probability is w[n] U[m][n] T[k][m] V[l][k],
    and the paths of each outcome key are summed in table order.  The
    (N, 9) probabilities are neither clamped nor checked.
    """
    with np.errstate(all="ignore"):
        t = np.tanh(beta * nu1)
        weights = np.stack([0.5 * (1.0 + t), 0.5 * (1.0 - t)], axis=-1)
        u, v = _flip_matrices(delta), _flip_matrices(zeta)
        paths = weights[:, _N] * u[:, _M, _N] * channel[:, _K, _M] * v[:, _L, _K]
        prob = np.empty(beta.shape + (len(_OUTCOMES),))
        for col, members in enumerate(_OUTCOMES.values()):
            total = paths[:, members[0]]
            for i in members[1:]:
                total = total + paths[:, i]
            prob[:, col] = total
        w = _KEY_A * nu1[:, None] + _KEY_B * nu2[:, None]
        q = _KEY_B * nu2[:, None]
    return DistributionBlock(w, q, prob)


def _point(
    params: CycleParams,
    channel: np.ndarray,
    direction: str = "forward",
    control: ControlSpec | None = None,
) -> JointDistribution:
    """One point of :func:`_evaluate`, ``channel`` its 2x2 transition matrix.

    Outcomes come out sorted by (W, Q_M, p), without zero-probability
    entries.
    """
    cycle = (params.beta, params.nu1, params.nu2, params.delta, params.zeta)
    block = _evaluate(*(np.array([x]) for x in cycle), channel[None])
    w, q, p = block.w[0], block.q_m[0], block.prob[0]
    keep = p != 0.0
    w, q, p = w[keep], q[keep], p[keep]
    order = np.lexsort((p, q, w))
    return JointDistribution(
        w[order], q[order], p[order], direction=direction, control=control
    )


def _check_theta(theta: float) -> None:
    if not math.isfinite(theta) or not 0.0 <= theta <= 1.0:
        raise ValueError("theta must lie in [0, 1]")


def enumerate_paths(params: CycleParams, theta: float) -> JointDistribution:
    """Exact forward joint distribution of (W, Q_M) for a unital channel.

    W takes values in {0, +-2 nu1, +-2 nu2, +-2(nu2-nu1), +-2(nu1+nu2)}
    and Q_M in {0, +-2 nu2}; paths with the same outcome are merged.
    """
    _check_theta(theta)
    return _point(params, _flip_matrices(theta))


def backward_distribution(params: CycleParams, theta: float) -> JointDistribution:
    """Joint distribution of the backward cycle: delta and zeta swapped."""
    _check_theta(theta)
    return _point(params.swapped, _flip_matrices(theta), direction="backward")


def cs_distribution(
    params: CycleParams, theta: float, ctrl: ControlSpec
) -> JointDistribution:
    """Joint distribution with the channel applied under coherent control.

    The post-selected branch is the unital cycle at the flip probability
    ``ctrl.flip_probability(theta)``.  The measurement channel keeps
    theta <= 1/2, which keeps that probability in [0, 1]; beyond that
    regime the minus branch can exceed 1 and :class:`PhysicsError` is
    raised.
    """
    _check_theta(theta)
    flip = _flip_matrices(ctrl.flip_probability(theta))
    return _point(params, flip, control=ctrl)


def _channel_distribution(
    params: CycleParams, channel: GeneralQubitChannel
) -> JointDistribution:
    """Forward joint distribution for an arbitrary qubit channel."""
    # qstate stores the excited state first, the path table the ground
    # state first: reverse both indices of the channel's matrix.
    return _point(params, channel.transition_matrix()[::-1, ::-1])


def _controlled_flip(theta, alpha, branch: str) -> np.ndarray:
    """``ControlSpec(alpha, branch).flip_probability(theta)`` elementwise over
    arrays, bitwise, without its checks: ``nan`` where alpha lies outside
    [0, 1] or the branch is unknown, above 1 where theta exceeds 2 p_branch."""
    sign = {"plus": 1.0, "minus": -1.0}.get(branch, math.nan)
    with np.errstate(invalid="ignore"):
        coherence = np.sqrt(alpha * (1.0 - alpha))
    # 2 p_branch = 2 (0.5 (1 +- c)) is 1 +- c exactly: halving and doubling
    # do not round
    return theta / (1.0 + sign * coherence)


def _checked_columns(beta, nu1, nu2, delta, zeta, theta, alpha=None, branch: str = "minus"):
    """The six columns broadcast, and the flip probability: theta, or
    :func:`_controlled_flip` when the control's arm weight ``alpha`` is given.

    Checks every point as :class:`CycleParams`, :class:`ControlSpec`, the
    theta range and the flip bound check one, in that order; the first
    failing point (in C order) is replayed through them to raise its error.
    """
    inputs = [beta, nu1, nu2, delta, zeta, theta] + ([] if alpha is None else [alpha])
    columns = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in inputs))
    beta, nu1, nu2, delta, zeta, theta = columns[:6]
    flip = theta if alpha is None else _controlled_flip(theta, columns[6], branch)
    ok = np.isfinite(beta) & np.isfinite(nu1) & np.isfinite(nu2)
    ok &= np.isfinite(delta) & np.isfinite(zeta) & (nu1 > 0.0) & (nu2 > 0.0)
    ok &= (0.0 <= delta) & (delta <= 1.0) & (0.0 <= zeta) & (zeta <= 1.0)
    # a control outside ControlSpec's checks makes the flip nan
    ok &= np.isfinite(theta) & (0.0 <= theta) & (theta <= 1.0) & (flip <= 1.0)
    if not ok.all():
        # ``ok`` holds exactly the single-point checks, so one of these raises
        i = np.unravel_index(np.argmin(ok), ok.shape)
        CycleParams(*(float(x[i]) for x in columns[:5]))
        ctrl = None if alpha is None else ControlSpec(float(columns[6][i]), branch)
        _check_theta(float(theta[i]))
        if ctrl is not None:
            ctrl.flip_probability(float(theta[i]))
    return beta, nu1, nu2, delta, zeta, theta, flip


def enumerate_block(
    beta, nu1, nu2, delta, zeta, theta, alpha=None, branch: str = "minus"
) -> DistributionBlock:
    """Forward joint distributions at every point of broadcast parameter arrays.

    The array form of :func:`enumerate_paths` and, when the control's arm
    weight ``alpha`` (scalar or array) is given with ``branch``, of
    :func:`cs_distribution`; a point's row holds the same probabilities.
    Every check of the single-point functions runs over the whole block;
    where points fail, the error they raise at the first of them (in C
    order) is raised.
    """
    *cycle, _, flip = _checked_columns(beta, nu1, nu2, delta, zeta, theta, alpha, branch)
    shape = flip.shape
    block = _evaluate(*(x.ravel() for x in cycle), _flip_matrices(flip.ravel()))
    w, q, prob = block.w, block.q_m, block.prob
    clamped = np.maximum(prob, 0.0)
    ok = ~(prob.min(axis=1) < -_CLAMP_TOL)
    ok &= ~(np.abs(clamped.sum(axis=1) - 1.0) > _SUM_TOL)
    if not ok.all():
        i = int(np.argmin(ok))
        JointDistribution(w[i], q[i], prob[i])
    out = shape + (len(_OUTCOMES),)
    return DistributionBlock(w.reshape(out), q.reshape(out), clamped.reshape(out))


@dataclass(frozen=True)
class MomentSummary:
    """Empirical raw moments of one variable, orders 1 through 4."""

    count: int
    raw: tuple[float, float, float, float]

    @property
    def mean(self) -> float:
        return self.raw[0]

    @property
    def variance(self) -> float:
        return self.raw[1] - self.raw[0] ** 2

    def central(self, order: int) -> float:
        m1, m2, m3, m4 = self.raw
        if order == 2:
            return m2 - m1 * m1
        if order == 3:
            return m3 - 3.0 * m2 * m1 + 2.0 * m1**3
        if order == 4:
            return m4 - 4.0 * m3 * m1 + 6.0 * m2 * m1 * m1 - 3.0 * m1**4
        raise ValueError("central moments implemented for orders 2-4")

    @property
    def mean_stderr(self) -> float:
        return math.sqrt(max(self.variance, 0.0) / self.count)

    @property
    def variance_stderr(self) -> float:
        # Var(s^2) ~ (mu4 - mu2^2)/n for large n
        spread = self.central(4) - self.central(2) ** 2
        return math.sqrt(max(spread, 0.0) / self.count)


@dataclass(frozen=True)
class SampleStats:
    """Moments of an i.i.d. sample drawn from a JointDistribution."""

    count: int
    seed: int
    w: MomentSummary
    q_m: MomentSummary


def sample(dist: JointDistribution, n: int, seed: int) -> SampleStats:
    """Draw n outcomes by inverse CDF with a seeded PCG64 generator.

    Deterministic for a fixed seed: two calls with identical arguments
    return equal :class:`SampleStats`.  The uniforms are drawn in chunks
    of the one stream and only counted per outcome, so memory does not
    grow with n.
    """
    if n < 1:
        raise ValueError("need at least one draw")
    rng = np.random.default_rng(seed)
    # a uniform u falls past outcome j when u >= cdf[j]; the last outcome
    # also takes every u at or above a final cdf entry that rounds below 1
    edges = np.cumsum(dist.prob)[:-1]
    past = np.zeros(len(edges), dtype=np.int64)
    for start in range(0, n, _SAMPLE_CHUNK):
        u = rng.random(min(_SAMPLE_CHUNK, n - start))
        for j, edge in enumerate(edges):
            past[j] += np.count_nonzero(u >= edge)
    counts = -np.diff(np.concatenate(([n], past, [0])))
    # the moments of the draws are those of the outcomes weighted by how
    # often each was drawn
    freq = counts / n

    def moments(values: np.ndarray) -> MomentSummary:
        raw = tuple(float(freq @ values**k) for k in (1, 2, 3, 4))
        return MomentSummary(count=n, raw=raw)

    return SampleStats(count=n, seed=seed, w=moments(dist.w), q_m=moments(dist.q_m))


def distribution_to_csv(dist: JointDistribution, fileobj) -> None:
    """Write outcomes as CSV rows ``w,q_m,prob`` (17 significant digits)."""
    fileobj.write("w,q_m,prob\n")
    for w, q, p in zip(dist.w, dist.q_m, dist.prob):
        fileobj.write(f"{w:.17g},{q:.17g},{p:.17g}\n")
