"""Reference routes that the tests compare the package against.

Each one computes, by a second argument, something the package computes
by its own:

* :class:`DensityMatrix` validates a qubit state: hermiticity, trace and
  eigenvalues in [0, 1].  :func:`thermal_state` builds the Gibbs state and
  :func:`hamiltonian` the gap-nu Hamiltonian as matrices in the energy
  basis; the tests check the one against the other.
* :func:`measurement_kraus` writes ``MeasurementChannel`` out as its two
  Kraus projectors, and :func:`lz_unitaries` the Landau-Zener stroke
  unitaries as matrix stacks: the density-matrix form of what the
  package propagates as Bloch vectors.
* :func:`apply_channel` and :func:`superpose_apply` propagate the density
  matrix through a channel and through its coherently superposed version.
  They are the density-matrix argument for the package's reduction of a
  controlled cycle to the plain channel at theta / (2 p_branch).
* :func:`pauli_kraus`, :func:`transition_matrix`, :func:`flip_theta`,
  :func:`flip_h` and :func:`path_table_cf` describe any qubit channel by a
  Kraus set, as plain functions.  The package sees a channel only through
  its 2x2 population transition matrix; these build that matrix from the
  Kraus operators and take the discrete transform of the package's path
  table at it, to be checked against the paper's eight path groups.
  :func:`cf_unital` sums the closed-form characteristic function of the
  unital cycle, whose terms ``cumulants.cf_derivative_check`` expands.
* :func:`regime_sign_rule` is the operating-mode sign rule written as
  plain-Python comparisons, against which the array classifier
  ``analysis.classify_regime_array`` is checked.
* :func:`exact_means` and :func:`exact_bounds` are the sign oracle: the
  16 path records expanded in exact rational arithmetic on the float
  inputs, against which every sign the package decides by its rounding
  rule is checked.  :func:`exact_cumulants` gives the first four
  cumulants of the same records, for the cumulant-ratio witnesses.
  :func:`exact_work_line` sums the same records for the
  mean work's two coefficients alone, against which the work threshold
  is checked, and :func:`symbolic_pair_work` expands the pair's mean work
  in sympy, over the whole parameter box.
* :func:`lz_unmonitored_mp` propagates the unmonitored Landau-Zener cycle
  in 60-digit arithmetic on the float inputs, against which the rounding
  of ``landauzener.unmonitored_cycle`` is checked, and
  :func:`qm_unmonitored_paper` is the paper's closed form of its channel
  heat.
"""

import functools
import itertools
import math
import sys
from fractions import Fraction

from collections import namedtuple

import mpmath
import numpy as np

from unital_otto import ControlSpec, InputError, MeasurementChannel, PhysicsError, Regime
from unital_otto.qstate import _Checked
from unital_otto.formulas import _unital_terms
from unital_otto.trajectory import _evaluate

_TRACE_DRIFT_TOL = 1e-10
_EIGVAL_TOL = 1e-12

# Pauli matrices in the package's storage basis, |+> (excited) first.
SIGMA = (
    np.eye(2, dtype=complex),
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


class DensityMatrix(_Checked, namedtuple("DensityMatrix", "mat gap")):
    """A valid qubit state in the energy eigenbasis of a gap-``nu`` Hamiltonian.

    The constructor symmetrises (rho + rho^dag)/2 and renormalises the
    trace as long as the drift stays below 1e-10; larger drift or
    eigenvalues outside [-1e-12, 1 + 1e-12] raise :class:`PhysicsError`
    instead of being silently repaired.
    """

    __slots__ = ()

    def __new__(cls, mat: np.ndarray, gap: float = 1.0):
        mat = np.asarray(mat, dtype=complex)
        if mat.shape != (2, 2):
            raise ValueError(f"expected a 2x2 matrix, got shape {mat.shape}")
        if not np.all(np.isfinite(mat.view(float))):
            raise ValueError("matrix entries must be finite")
        if not math.isfinite(gap):
            raise ValueError("gap label must be finite")
        herm_drift = np.max(np.abs(mat - mat.conj().T))
        trace_drift = abs(mat.trace() - 1.0)
        if herm_drift > _TRACE_DRIFT_TOL or trace_drift > _TRACE_DRIFT_TOL:
            raise PhysicsError(
                f"not a density matrix: hermiticity drift {herm_drift:.3g}, "
                f"trace drift {trace_drift:.3g}"
            )
        mat = 0.5 * (mat + mat.conj().T)
        mat = mat / mat.trace().real
        eigs = np.linalg.eigvalsh(mat)
        if eigs[0] < -_EIGVAL_TOL or eigs[-1] > 1.0 + _EIGVAL_TOL:
            raise PhysicsError(f"eigenvalues {eigs} outside [0, 1]")
        mat.setflags(write=False)
        return super().__new__(cls, mat, gap)

    @property
    def populations(self) -> tuple[float, float]:
        """(excited, ground) diagonal occupations."""
        return (self.mat[0, 0].real, self.mat[1, 1].real)


def hamiltonian(nu: float) -> np.ndarray:
    """H = nu (|+><+| - |-><-|) as a matrix in the storage basis."""
    if not math.isfinite(nu):
        raise InputError("gap must be finite")
    return np.array([[nu, 0.0], [0.0, -nu]], dtype=complex)


def thermal_state(beta: float, nu: float) -> np.ndarray:
    """Gibbs state exp(-beta H)/Z for the gap-``nu`` Hamiltonian: the real
    diagonal matrix of its (excited, ground) populations.

    Negative beta (population inversion) is allowed; beta and nu must be
    finite and nu positive.  Populations are computed through logistic
    forms so extreme |beta nu| saturates cleanly to a pure state.  The
    ground population is fl(1 - p), and p + fl(1 - p) rounds to exactly 1,
    so the trace needs no renormalising.
    """
    if not (math.isfinite(beta) and math.isfinite(nu)):
        raise InputError("beta and nu must be finite")
    if nu <= 0.0:
        raise InputError("gap nu must be positive")
    # p_excited = e^{-beta nu}/Z, stable for any sign and size of beta nu
    x = 2.0 * beta * nu
    p_exc = 1.0 / (1.0 + math.exp(x)) if x < 700.0 else 0.0
    return np.diag([p_exc, 1.0 - p_exc])


def measurement_kraus(channel: MeasurementChannel) -> list[np.ndarray]:
    """The Kraus projectors [pi_1, pi_2] = [|psi_1><psi_1|, |psi_2><psi_2|]
    of ``channel`` in the storage basis."""
    c, s = math.cos(channel.alpha_m / 2.0), math.sin(channel.alpha_m / 2.0)
    phase = np.exp(-1.0j * channel.chi)
    psi1 = np.array([phase * s, -c])
    psi2 = np.array([c, np.conj(phase) * s])
    return [np.outer(psi1, psi1.conj()), np.outer(psi2, psi2.conj())]


def apply_channel(kraus, rho: DensityMatrix) -> DensityMatrix:
    """Apply the channel of a Kraus set, sum_j K_j rho K_j^dag, preserving
    the gap label."""
    out = sum(k @ rho.mat @ k.conj().T for k in kraus)
    return DensityMatrix(out, gap=rho.gap)


def pauli_kraus(p0, p1, p2, p3) -> list[np.ndarray]:
    """Kraus operators sqrt(p_i) sigma_i of the Pauli channel with weights
    p0..p3 (the generic unital qubit channel); zero weights are dropped."""
    return [math.sqrt(p) * s for p, s in zip((p0, p1, p2, p3), SIGMA) if p > 0.0]


def transition_matrix(kraus) -> np.ndarray:
    """T[k, m] = sum_j |<k| K_j |m>|^2, the probability of m -> k, in the
    storage basis (0 excited, 1 ground); each column sums to 1."""
    return sum(np.abs(k) ** 2 for k in kraus)


def flip_theta(kraus) -> float:
    """sum_j |<-| K_j |+>|^2, the excited-to-ground flip probability."""
    return float(sum(abs(k[1, 0]) ** 2 for k in kraus))


def flip_h(kraus) -> float:
    """sum_j <-| K_j K_j^dag |->; equals 1 exactly for unital channels."""
    return float(sum((k @ k.conj().T)[1, 1].real for k in kraus))


def path_table_cf(params, matrix, gamma_w, gamma_m) -> complex:
    """sum_k p_k e^{i gw W_k + i gm Q_M,k} over the package's path table
    (``trajectory._evaluate``) at one cycle point, for a channel given by its
    transition matrix in the storage basis.  The table counts the ground
    state first, so both indices of ``matrix`` are reversed."""
    channel = np.asarray(matrix, dtype=float)[::-1, ::-1, None]
    cycle = (params.tanh_beta_nu1, *params[1:])
    block = _evaluate(*(np.array([x]) for x in cycle), channel)
    phase = np.exp(1j * (gamma_w * block.w[0] + gamma_m * block.q_m[0]))
    return complex(np.sum(block.prob[0] * phase))


def cf_unital(params, theta: float, gamma_w: float, gamma_m: float) -> complex:
    """Forward characteristic function for a unital channel: the terms of
    ``formulas._unital_terms`` summed.  Equals the discrete transform of
    ``enumerate_paths``; the backward variant is obtained by evaluating at
    ``params.swapped``."""
    t = params.tanh_beta_nu1
    chi = 0j
    for weight, f_w, f_q, sign in _unital_terms(*params[1:], theta):
        x = f_w * gamma_w + f_q * gamma_m
        chi += weight * complex(math.cos(x), -sign * t * math.sin(x))
    return chi


def superpose_apply(
    channel: MeasurementChannel, rho: DensityMatrix, ctrl: ControlSpec
) -> tuple[DensityMatrix, float]:
    """Apply a measurement channel on both arms of a superposed control.

    Returns the normalised post-selected state

        (1 / 2 p_branch) (sum_j pi_j rho pi_j +- sqrt(alpha(1-alpha)) rho)

    together with the branch probability.  The branch probability is
    evaluated from the interference trace rather than assumed; for a
    projector pair summing to the identity the two coincide, and
    :class:`PhysicsError` is raised if they do not.
    """
    if not isinstance(channel, MeasurementChannel):
        raise TypeError("coherent superposition is defined for the measurement channel")
    kraus = measurement_kraus(channel)
    n_ops = len(kraus)
    direct = sum(k @ rho.mat @ k.conj().T for k in kraus)
    ksum = sum(kraus)
    cross = ksum @ rho.mat @ ksum.conj().T
    coh = ctrl.coherence
    p_branch = 0.5 + ctrl.sign * coh * float(np.trace(cross).real) / n_ops
    if not abs(p_branch - ctrl.branch_probability) < 1e-12:
        raise PhysicsError(
            f"interference trace gives branch probability {p_branch!r}, "
            f"not {ctrl.branch_probability!r}"
        )
    numer = 0.5 * direct + ctrl.sign * (coh / n_ops) * cross
    eigs = np.linalg.eigvalsh(0.5 * (numer + numer.conj().T))
    if eigs[0] < -1e-10 * max(1.0, p_branch):
        raise PhysicsError(
            f"superposed branch produced negative weight {eigs[0]:.3g}"
        )
    return DensityMatrix(numer / p_branch, gap=rho.gap), p_branch


# Keyed by (beta > 0, <W> > 0, <Q_M> > 0, <Q_T> > 0): a positive-temperature
# bath must not feed heat in (Q_T <= 0), a negative-temperature one must
# (Q_T > 0).  Patterns not listed are undetermined.
_REGIMES = {
    (True, True, True, False): Regime.ENGINE,
    (True, False, True, False): Regime.ACCELERATOR,
    (True, False, False, False): Regime.HEATER,
    (False, True, False, True): Regime.ENGINE,
    (False, False, False, True): Regime.ACCELERATOR,
    (False, True, True, True): Regime.ENGINE_PRIME,
}


def residue(total, magnitude) -> bool:
    """The package's zero rule for a sum: |total| <= 32 eps magnitude, with
    magnitude the sum of its summands' magnitudes."""
    return abs(total) <= 32.0 * sys.float_info.epsilon * magnitude


def regime_sign_rule(w_mean, qm_mean, qt_mean, beta, magnitudes) -> Regime:
    """Operating mode of one point from the signs of its three mean energy
    flows; beta = 0, a flow that is a rounding residue of its magnitude
    (``magnitudes`` in the same order), or an inconsistent sign pattern is
    undetermined."""
    if beta == 0.0:
        return Regime.UNDETERMINED
    if any(residue(f, m) for f, m in zip((w_mean, qm_mean, qt_mean), magnitudes)):
        return Regime.UNDETERMINED
    signs = (beta > 0.0, w_mean > 0.0, qm_mean > 0.0, qt_mean > 0.0)
    return _REGIMES.get(signs, Regime.UNDETERMINED)


def _common_scale(*values) -> tuple[list[int], int]:
    """Integers x L for every rational x given (a float is the rational it
    holds), and L, the least common multiple of their denominators."""
    ratios = [x.as_integer_ratio() for x in values]
    scale = math.lcm(*(den for _, den in ratios))
    return [num * (scale // den) for num, den in ratios], scale


@functools.lru_cache(maxsize=4096)
def exact_means(t, nu1, nu2, delta, zeta, theta) -> tuple:
    """(<W>, Var W, <Q_M>, Var Q_M, <Q_T>) of the forward cycle as exact
    Fractions, from its 16 path records, every input taken as the exact
    rational its float is: t = tanh(beta nu1) as the package computes it,
    the gaps, the transition probabilities and the flip probability.

    A record (n, m, k, l) of levels (0 ground, 1 excited) has probability
    w[n] T(m|n; delta) T(k|m; theta) T(l|k; zeta), with w = ((1 + t) / 2,
    (1 - t) / 2) and T(b|a; x) = x on a flip, 1 - x otherwise, and pays
    W = 2 (n - l) nu1 + 2 (k - m) nu2 and Q_M = 2 (k - m) nu2.  The sums
    run on integers at one common scale, so nothing is rounded; inputs may
    also be Fractions.
    """
    (t, nu1, nu2, delta, zeta, theta), one = _common_scale(t, nu1, nu2, delta, zeta, theta)
    weight = (one + t, one - t)

    def move(p, before, after):
        return p if before != after else one - p

    sums = [0, 0, 0, 0]
    for n, m, k, l in itertools.product((0, 1), repeat=4):
        p = weight[n] * move(delta, n, m) * move(theta, m, k) * move(zeta, k, l)
        w = 2 * (n - l) * nu1 + 2 * (k - m) * nu2
        q = 2 * (k - m) * nu2
        sums[0] += p * w
        sums[1] += p * w * w
        sums[2] += p * q
        sums[3] += p * q * q
    scale = 2 * one**4  # the probabilities' scale, the weights' 1/2 included
    mean, var = scale * one, (scale * one) ** 2  # var = <x^2> - <x>^2
    return (
        Fraction(sums[0], mean), Fraction(sums[1] * scale - sums[0] ** 2, var),
        Fraction(sums[2], mean), Fraction(sums[3] * scale - sums[2] ** 2, var),
        Fraction(sums[0] - sums[2], mean),
    )


def exact_cumulants(t, nu1, nu2, delta, zeta, theta) -> tuple:
    """The first four cumulants of W and of Q_M of the forward cycle, as two
    tuples of exact Fractions, from its 16 path records as
    :func:`exact_means` weighs them; inputs are floats or Fractions.  The
    sums run on integers at one common scale, as in :func:`exact_means`."""
    (t, nu1, nu2, delta, zeta, theta), one = _common_scale(t, nu1, nu2, delta, zeta, theta)
    weight = (one + t, one - t)

    def move(p, before, after):
        return p if before != after else one - p

    records = []
    for n, m, k, l in itertools.product((0, 1), repeat=4):
        p = weight[n] * move(delta, n, m) * move(theta, m, k) * move(zeta, k, l)
        records.append((p, 2 * (n - l) * nu1 + 2 * (k - m) * nu2, 2 * (k - m) * nu2))
    # a probability is p / total and an outcome x / one
    total = 2 * one**4

    def kappas(index):
        first = sum(r[0] * r[index] for r in records)
        # x - mean = d / (total one), d = total x - first
        centred = [(r[0], total * r[index] - first) for r in records]
        mu2, mu3, mu4 = (Fraction(sum(p * d**j for p, d in centred), total * (total * one) ** j)
                         for j in (2, 3, 4))
        return Fraction(first, total * one), mu2, mu3, mu4 - 3 * mu2 * mu2

    return kappas(1), kappas(2)


def exact_work_line(t, nu1, delta, zeta, theta) -> tuple[int, int]:
    """Integers (A, B) with the exact forward mean work (A + B nu2) / L for
    some L > 0, from the 16 path records as :func:`exact_means` sums them:
    their probabilities do not depend on nu2, so only the two coefficients
    are summed, on integers at one common scale."""
    (t, nu1, delta, zeta, theta), one = _common_scale(t, nu1, delta, zeta, theta)
    weight = (one + t, one - t)

    def move(p, before, after):
        return p if before != after else one - p

    bath = gap = 0  # sum p (n - l) and sum p (k - m)
    for n, m, k, l in itertools.product((0, 1), repeat=4):
        p = weight[n] * move(delta, n, m) * move(theta, m, k) * move(zeta, k, l)
        bath += p * (n - l)
        gap += p * (k - m)
    return bath * nu1, gap * one


@functools.cache
def symbolic_pair_work():
    """The forward plus backward mean work, expanded in sympy from the 16
    path records as :func:`exact_means` sums them, at nu1 = 1, and its
    symbols (t, x, delta, zeta, theta) with t = tanh(beta nu1) and x = nu2."""
    import sympy

    t, x, delta, zeta, theta = sympy.symbols("t x delta zeta theta")
    weight = ((1 + t) / 2, (1 - t) / 2)

    def move(p, before, after):
        return p if before != after else 1 - p

    work = 0
    for d, z in ((delta, zeta), (zeta, delta)):
        for n, m, k, l in itertools.product((0, 1), repeat=4):
            p = weight[n] * move(d, n, m) * move(theta, m, k) * move(z, k, l)
            work += p * (2 * (n - l) + 2 * (k - m) * x)
    return sympy.expand(work), (t, x, delta, zeta, theta)


def exact_regime(w_mean, qm_mean, qt_mean, beta) -> Regime:
    """The regime of exact flows: undetermined at an exact zero."""
    if beta == 0 or 0 in (w_mean, qm_mean, qt_mean):
        return Regime.UNDETERMINED
    return _REGIMES.get((beta > 0, w_mean > 0, qm_mean > 0, qt_mean > 0), Regime.UNDETERMINED)


def exact_bounds(beta, t, nu1, nu2, delta, zeta, theta, flip, mode, branch="minus", zero=None):
    """(name, applicable, satisfied) of every bound of ``mode``, in the
    order ``verify_bounds_block`` reports them, decided in exact
    arithmetic on the same float inputs (``flip`` is the package's flip
    probability of theta, theta itself outside cs).

    ``zero(name, value)`` says whether a deciding quantity reads as 0: by
    default only an exact 0, but a caller may also admit values that a
    rounding rule cannot tell from 0.  The names are ``qt`` (forward
    <Q_T>), ``work``, ``heat`` and ``qm_var`` (of the forward plus backward
    means, which every mode reads) and, in cs, ``plain_heat`` (forward plus
    backward <Q_M> at theta itself).
    """
    zero = zero or (lambda name, value: value == 0)

    def read(name, value):
        return 0 if zero(name, value) else value

    fwd = exact_means(t, nu1, nu2, delta, zeta, flip)
    means = [a + b for a, b in zip(fwd, exact_means(t, nu1, nu2, zeta, delta, flip))]
    qt, work, heat = read("qt", fwd[4]), read("work", means[0]), read("heat", means[2])
    d, z, th = Fraction(delta), Fraction(zeta), Fraction(flip)
    g1, g2 = Fraction(nu1), Fraction(nu2)
    otto = 1 - g1 / g2
    out = []
    if mode == "cs":
        out.append(("cs_qt_nonpositive", beta > 0 and theta <= 0.5, qt <= 0))
    else:
        out.append(("qt_nonpositive", beta > 0, qt <= 0))
        out.append(("equal_gap_work_nonpositive", beta > 0 and nu1 == nu2, work <= 0))
    engine = exact_regime(work, heat, qt, beta) is Regime.ENGINE
    eta = work / heat if heat != 0 else None
    if mode == "cs":
        out.append(("cs_eta_le_otto", engine, eta is not None and eta <= otto))
        plain = [a + b for a, b in zip(exact_means(t, nu1, nu2, delta, zeta, theta),
                                       exact_means(t, nu1, nu2, zeta, delta, theta))]
        plain_heat = read("plain_heat", plain[2])
        plain_eta = plain[0] / plain_heat if plain_heat != 0 else None
        comparable = engine and plain_eta is not None
        left, right = (plain_eta, eta) if branch == "minus" else (eta, plain_eta)
        out.append(("cs_eta_branch_order", comparable, comparable and left <= right))
        return out
    qm_var = read("qm_var", means[3])
    ratio = means[1] / qm_var if qm_var != 0 else None
    defined = ratio is not None and eta is not None
    if mode == "symmetric":
        corridor = 2 * (1 - 2 * d) * th * g2 - (th + 2 * d * (1 - d) * (1 - 2 * th)) * g1 >= 0
    else:
        s = d + z - 2 * d * z
        corridor = 2 * th * (1 - d - z) * g2 - (th + (1 - 2 * th) * s) * g1 >= 0
    out.append(("eta_le_otto", engine, eta is not None and eta <= otto))
    out.append(("eta_sq_le_ratio", corridor and defined, defined and eta * eta <= ratio))
    out.append(("ratio_le_one", corridor and defined, defined and ratio <= 1))
    if mode == "symmetric":
        hopm = (1 - 2 * d) * th * g2 - (1 - d) * (d + th - 2 * d * th) * g1 >= 0
        out.append(("otto_sq_le_ratio", hopm and ratio is not None,
                    ratio is not None and otto * otto <= ratio))
    return out


def lz_unitaries(delta, phi: float) -> tuple[np.ndarray, np.ndarray]:
    """Expansion and compression unitaries (U, V) in the energy basis, at
    every delta: stacks shaped ``np.shape(delta) + (2, 2)``.

    The phase convention is pinned by the unmonitored heat: with this U
    the interference term of <Q_M>um comes out as +cos(phi + chi).  The
    transition probabilities are |<+2|U|-1>|^2 = |<+1|V|-2>|^2 = delta
    regardless of the convention.
    """
    delta = np.asarray(delta, dtype=float)
    root_stay = np.sqrt(1.0 - delta)
    root_jump = np.sqrt(delta)
    phase = np.exp(1.0j * phi)
    u = np.empty(delta.shape + (2, 2), dtype=complex)
    u[..., 0, 0] = root_stay * phase
    u[..., 0, 1] = root_jump
    u[..., 1, 0] = -root_jump
    u[..., 1, 1] = root_stay * np.conj(phase)
    # V = C U^dag C with C the entrywise conjugation, i.e. conj(U^dag) = U^T
    v = np.swapaxes(u, -1, -2).copy()
    return u, v


def qm_unmonitored_paper(params) -> float:
    """The paper's unmonitored channel heat at ``params.delta``: the
    interference term rides on cos(phi + chi)."""
    a = params.channel.alpha_m
    d = params.delta
    phase = math.cos(params.phi + params.channel.chi)
    return (
        params.cycle.nu2
        * math.sin(a)
        * (
            2.0 * math.sqrt(d * (1.0 - d)) * math.cos(a) * phase
            + math.sin(a)
            - 2.0 * d * math.sin(a)
        )
        * params.cycle.tanh_beta_nu1
    )


def lz_unmonitored_mp(params, delta: float) -> tuple:
    """(W, Q_M, Q_T) of the unmonitored Landau-Zener cycle at ``delta``,
    the other inputs taken from ``params``: the density matrix propagated
    as ``unmonitored_cycle`` propagates it, in 60-digit mpmath arithmetic
    on the float inputs, as mpmath floats."""
    cyc, channel = params.cycle, params.channel
    with mpmath.workdps(60):
        beta, nu1, nu2, d, phi, alpha_m, chi = (
            mpmath.mpf(x) for x in (cyc.beta, cyc.nu1, cyc.nu2, delta, params.phi, *channel)
        )
        excited = 1 / (1 + mpmath.exp(2 * beta * nu1))
        rho1 = mpmath.matrix([[excited, 0], [0, 1 - excited]])
        stay, jump, phase = mpmath.sqrt(1 - d), mpmath.sqrt(d), mpmath.expj(phi)
        u = mpmath.matrix([[stay * phase, jump], [-jump, stay * mpmath.conj(phase)]])
        c, s, tilt = mpmath.cos(alpha_m / 2), mpmath.sin(alpha_m / 2), mpmath.expj(-chi)
        projectors = []
        for psi in ([tilt * s, -c], [c, mpmath.conj(tilt) * s]):
            ket = mpmath.matrix(psi)
            projectors.append(ket * ket.H)
        rho2 = u * rho1 * u.H
        rho3 = sum((k * rho2 * k.H for k in projectors), mpmath.zeros(2, 2))
        rho4 = u.T * rho3 * u.T.H

        def energy(rho, nu):
            return mpmath.re(rho[0, 0] - rho[1, 1]) * nu

        q_m = energy(rho3, nu2) - energy(rho2, nu2)
        q_t = energy(rho1, nu1) - energy(rho4, nu1)
        return q_m + q_t, q_m, q_t
