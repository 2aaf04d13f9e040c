"""numpy's PCG64 word stream, computed without importing ``numpy.random``.

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


class PCG64:
    """numpy's PCG64 word stream at a 128-bit ``state`` and odd increment
    ``inc``: the next word is that of the state stepped once."""

    def __init__(self, state: int, inc: int):
        self.state, self.inc = state, inc
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
