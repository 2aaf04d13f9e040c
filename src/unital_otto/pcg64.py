"""numpy's PCG64 stream, computed without importing ``numpy.random``, and
the bound campaign that ``verify-bounds`` draws from it.

``PCG64.from_seed(seed)`` gives the raw 64-bit words of
``np.random.PCG64(seed)`` (the bit generator of
``np.random.default_rng(seed)``), bit for bit.  The seed is expanded as
``SeedSequence(seed).generate_state(4, np.uint64)`` expands it, into a
128-bit state and stream.  The state then steps s -> s M + inc
(mod 2**128), and each step outputs the XSL-RR word of the new state:
its two 64-bit halves xored, rotated right by the top six bits.

The words are computed a block at a time in numpy.  The state k steps
on is A_k s + C_k (mod 2**128), A_k = M**k and C_k the state k steps on
from 0, so a block of n words is one multiply-add of a table of
(A_k, C_k), k = 1 .. n, by the scalar state.  128-bit numbers are held
as uint64 halves, whose products wrap as they should; the high half of
a 64-bit product is summed from 32-bit limbs.

The stream draws as ``np.random.Generator`` draws from its bit
generator.  A double is ``(w >> 11) * 2**-53`` of the next word w.
``integers(0, n)`` is Lemire's method, ``(u * n) >> 32`` of a 32-bit
draw u, redrawn while ``(u * n) % 2**32 < (2**32 - n) % n``; for n = 3
that redraws u = 0, for n = 2 never.  The 32-bit draws take the low half
of a fresh word and buffer its high half for the next one, across any
doubles drawn in between (``buffered`` and ``half``, numpy's
``has_uint32`` and ``uinteger``).

The campaign's draw order is part of ``verify-bounds``' output, and
``perfbench/oracle.py`` replays it with numpy's ``Generator``.  On the
stream of ``np.random.default_rng(seed)``, each sample draws beta =
-2 + 4 u and is skipped, drawing nothing more, when |beta| < 1e-9; then
nu1 and nu2 = 1e-3 + (3 - 1e-3) u, then delta, zeta and theta = u, then
the mode as ``integers(0, 3)`` indexing (symmetric, asymmetric, cs).
Symmetric sets zeta = delta; cs halves theta, then draws the control
weight alpha = u and the branch as ``integers(0, 2)`` indexing (plus,
minus).  Each u is one double of ``random()`` (the five after beta come
from one ``random(5)``, the same doubles); ``uniform(a, b)`` and
``choice`` of a tuple draw the same stream.

The samples are decoded from the raw words as arrays
(:func:`_decode_chunk`), and the rare one that skips beta or redraws its
mode, about one in 1e9, is drawn one value at a time
(:func:`_one_sample`).  Both give a sample's uniforms and its draw code,
and one transform turns the uniforms into cycle parameters.
"""

from __future__ import annotations

import numpy as np

from .qstate import InputError

_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = 0xFFFFFFFF
_MASK64 = 2**64 - 1
_MASK128 = 2**128 - 1

# SeedSequence's hash constants, on 32-bit words
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


def _seed_state(seed: int) -> tuple[int, int]:
    """The (state, increment) of ``np.random.PCG64(seed)``."""
    if seed < 0:
        raise InputError("expected non-negative integer")
    # the entropy as 32-bit words, least significant first
    entropy = [seed & _MASK32]
    seed >>= 32
    while seed:
        entropy.append(seed & _MASK32)
        seed >>= 32
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> 16

    # SeedSequence.mix_entropy: the pool takes the entropy, padded with 0,
    # every pool word is mixed into every other, then the entropy past the
    # pool into each
    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for value in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(value))
    # generate_state(4, np.uint64): eight 32-bit words, paired little-endian
    hash_const = _INIT_B
    halves = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        halves.append(value ^ value >> 16)
    words = [halves[2 * i] | halves[2 * i + 1] << 32 for i in range(4)]
    # pcg_setseq_128_srandom_r: the stream from words 2 and 3, then a step,
    # the initial state from words 0 and 1 added, and another step
    inc = ((words[2] << 64 | words[3]) << 1 | 1) & _MASK128
    state = ((inc + (words[0] << 64 | words[1])) * _MULTIPLIER + inc) & _MASK128
    return state, inc


def _mul_add(a_hi, a_lo, s: int, c_hi, c_lo):
    """The halves of a s + c (mod 2**128), for the uint64 halves of a and c
    and a Python int s."""
    s_hi, s_lo = np.uint64(s >> 64), np.uint64(s & _MASK64)
    b0, b1 = np.uint64(s & _MASK32), np.uint64(s >> 32 & _MASK32)
    a0, a1 = a_lo & _MASK32, a_lo >> 32
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    hi = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    hi += a_lo * s_hi + a_hi * s_lo
    lo = a_lo * s_lo + c_lo
    hi += c_hi + (lo < c_lo)
    return hi, lo


def _double(word):
    """The double ``Generator.random()`` reads from a word, or from each of
    an array of words."""
    return (word >> 11) * 2.0**-53


class PCG64:
    """numpy's PCG64 stream at a 128-bit ``state`` and odd increment
    ``inc``: the next word is that of the state stepped once, and no
    32-bit half is buffered (``half`` keeps the last buffered value, as
    numpy's ``uinteger`` does)."""

    def __init__(self, state: int, inc: int):
        self.state, self.inc = state, inc
        self.buffered, self.half = False, 0
        # (A_k, C_k) for k = 1 .. len, as uint64 halves
        self._table = [np.array([half], dtype=np.uint64)
                       for half in (_MULTIPLIER >> 64, _MULTIPLIER & _MASK64,
                                    inc >> 64, inc & _MASK64)]

    @classmethod
    def from_seed(cls, seed: int) -> PCG64:
        """The stream of ``np.random.PCG64(seed)``; a negative seed is an
        :class:`~unital_otto.qstate.InputError`, a ``ValueError`` as numpy's."""
        return cls(*_seed_state(seed))

    def _jump(self, n: int) -> tuple[int, int]:
        """(A_n, C_n) as Python ints, the table first doubled until it
        holds n entries."""
        while len(self._table[0]) < n:
            a, c = self._jump(len(self._table[0]))
            a_hi, a_lo, c_hi, c_lo = self._table
            # A_(m+k) = A_k A_m and C_(m+k) = A_k C_m + C_k
            zero = np.uint64(0)
            self._table = [np.concatenate(pair) for pair in zip(
                self._table, (*_mul_add(a_hi, a_lo, a, zero, zero),
                              *_mul_add(a_hi, a_lo, c, c_hi, c_lo)))]
        a_hi, a_lo, c_hi, c_lo = (int(half[n - 1]) for half in self._table)
        return a_hi << 64 | a_lo, c_hi << 64 | c_lo

    def peek(self, n: int) -> np.ndarray:
        """The next ``n`` words (n >= 1), as uint64, without moving."""
        self._jump(n)
        a_hi, a_lo, c_hi, c_lo = (half[:n] for half in self._table)
        hi, lo = _mul_add(a_hi, a_lo, self.state, c_hi, c_lo)
        # XSL-RR: hi ^ lo rotated right by the state's top six bits
        word = hi ^ lo
        turn = hi >> 58
        return word >> turn | word << ((64 - turn) & 63)

    def advance(self, n: int) -> None:
        """Move past the next ``n`` words (n >= 1)."""
        a, c = self._jump(n)
        self.state = (a * self.state + c) & _MASK128

    def _word(self) -> int:
        word = int(self.peek(1)[0])
        self.advance(1)
        return word

    def random(self) -> float:
        """``Generator.random()``."""
        return _double(self._word())

    def integers(self, n: int) -> int:
        """``Generator.integers(0, n)`` for 1 < n < 2**32."""
        while True:
            if self.buffered:
                u, self.buffered = self.half, False
            else:
                word = self._word()
                u, self.buffered, self.half = word & _MASK32, True, word >> 32
            if (u * n) & _MASK32 >= (2**32 - n) % n:
                return (u * n) >> 32


# Samples per campaign block: decoded, then checked with one
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


def _beta(u):
    """beta from its uniform, a float or an array."""
    return -2.0 + 4.0 * u


def _skipped(u):
    """Whether the sample whose beta uniform is ``u`` is skipped."""
    return abs(_beta(u)) < 1e-9


def _one_sample(stream: PCG64) -> tuple[list[float], int] | None:
    """The next sample, drawn one value at a time: its seven uniforms
    (alpha's is 0 outside cs) and its draw code, or None when beta is
    skipped."""
    u = [stream.random()]
    if _skipped(u[0]):
        return None
    u += [stream.random() for _ in range(5)]
    code = stream.integers(3)
    if code == 2:  # alpha, then the branch
        return [*u, stream.random()], code + stream.integers(2)
    return [*u, 0.0], code


def _decode_chunk(stream: PCG64, uniforms: np.ndarray, codes: np.ndarray) -> int:
    """Decode samples from the stream's raw words into ``uniforms``, seven
    rows as :func:`_one_sample` gives them, and their draw ``codes``, up to
    the length of ``codes``; returns how many.  Decoding stops before the
    first sample that skips beta or redraws its mode; ``stream`` is left
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
    raw[0] = stream.half << 32
    raw[1:] = stream.peek(_SAMPLE_WORDS * count)
    doubles = _double(raw)
    # a sample starts at word p, for p = 1 .. ``last`` (the furthest that
    # count samples reach), without (h = 0) or with (h = 1) a buffered
    # half: state h L + p, with L = ``width`` above every p reached
    last, width = len(raw) - _SAMPLE_WORDS, len(raw) + 1
    modes = np.stack((raw[7:last + 7] & _MASK32, raw[:last] >> 32))
    # a skipped beta (which may leave a buffered half that is not word
    # p - 1's) and a zero mode half (which Lemire's method redraws) are left
    # to _one_sample: their next state is 0, which leads to itself
    stop = (modes == 0) | _skipped(doubles[1:last + 1])
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
    state = stream.buffered * width + 1
    for i in range(count):
        out[i] = state
        state = walk[state]
    if not state:  # the last sample before state 0 is left to _one_sample
        starts = starts[:np.count_nonzero(starts) - 1]
    n = len(starts)
    h, p = np.divmod(starts, width)
    code = codes[:n]
    code[:] = modes[h, p - 1]
    branch = np.where(h, raw[p + 7] & _MASK32, raw[p + 6] >> 32) >> 31
    code += (code == 2) & (branch == 1)
    uniforms[:6, :n] = doubles[p + np.arange(6)[:, None]]
    uniforms[6, :n] = doubles[p + 7 - h]
    if n:
        # the stream moves past the words the samples read; the buffered
        # half, or the last one drawn, is the high half of the word that gave it
        h, p = divmod(int(starts[-1]), width)
        word = p + 6 if not h else p + 7 if code[-1] >= 2 else p - 1
        h_end, p_end = divmod(walk[starts[-1]], width)
        stream.advance(p_end - 1)
        stream.buffered, stream.half = bool(h_end), int(raw[word] >> 32)
    return n


def _campaign_draws(stream: PCG64, count: int) -> dict[int, list[np.ndarray]]:
    """The next ``count`` samples of the campaign, grouped by draw code
    (``_GROUPS``).  Each group holds its kept samples in draw order as
    columns: beta, nu1, nu2, delta, zeta, theta and, in cs, alpha.  The
    samples are decoded ``_DECODE_SAMPLES`` at a time, and ``stream`` ends
    where ``Generator``'s own calls would leave it."""
    cells = np.empty((7, count))  # each sample's uniforms, then its parameters
    codes = np.empty(count, dtype=np.intp)
    kept = done = 0
    while done < count:
        want = min(_DECODE_SAMPLES, count - done)
        decoded = _decode_chunk(stream, cells[:, kept:], codes[kept:kept + want])
        kept += decoded
        done += decoded
        if decoded < want:
            sample = _one_sample(stream)
            done += 1
            if sample is not None:
                cells[:, kept], codes[kept] = sample
                kept += 1
    cells, codes = cells[:, :kept], codes[:kept]
    cells[0] = _beta(cells[0])
    cells[1:3] = 1e-3 + (3.0 - 1e-3) * cells[1:3]
    np.copyto(cells[4], cells[3], where=codes == 0)  # symmetric: zeta = delta
    cells[5, codes >= 2] *= 0.5  # cs halves theta
    return {code: list(cells[:6 if branch is None else 7, codes == code])
            for code, branch in enumerate(_GROUPS) if (codes == code).any()}


def _campaign(seed: int, samples: int):
    """The campaign of ``samples`` samples at ``seed``, ``_CAMPAIGN_BLOCK``
    at a time: for each block, one ``(columns, branch)`` pair per draw code,
    the arguments of one ``verify_bounds_block`` call.  A negative seed is
    an :class:`~unital_otto.qstate.InputError`, as it is for numpy."""
    stream = PCG64.from_seed(seed)
    for start in range(0, samples, _CAMPAIGN_BLOCK):
        groups = _campaign_draws(stream, min(_CAMPAIGN_BLOCK, samples - start))
        # popped, so that the block's groups are freed before the next is decoded
        for code in sorted(groups):
            yield groups.pop(code), _GROUPS[code] or "minus"
