"""The bound campaign's stream: numpy's PCG64 words, computed by the package."""

import numpy as np
import pytest

from unital_otto.pcg64 import PCG64

SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 1, 2**128 + 1, 376577454, 12345678901234567890]


@pytest.mark.parametrize("seed", SEEDS)
def test_words_are_numpys_pcg64(seed):
    reference = np.random.PCG64(seed)
    words = PCG64.from_seed(seed)
    state = reference.state["state"]
    assert (words.state, words.inc) == (state["state"], state["inc"])
    # blocks of every size class: one word, a partial table, a block past
    # the table's length, and blocks after it
    got = []
    for n in (1, 7, 4096, 5000, 3, 1):
        got.append(words.peek(n))
        assert np.array_equal(words.peek(n), got[-1])  # peeking does not move
        words.advance(n)
    assert np.array_equal(np.concatenate(got), reference.random_raw(9108))
    assert words.state == reference.state["state"]["state"]


def test_a_negative_seed_is_numpys_error():
    with pytest.raises(ValueError, match="^expected non-negative integer$"):
        PCG64.from_seed(-1)


@pytest.mark.parametrize("n", [2, 3, 5, 2**31 + 1, 2**32 - 1])
def test_draws_are_generator_calls(n):
    # doubles and Lemire integers interleaved, the buffered 32-bit half
    # carried across the doubles; near 2**31 about half the draws are redrawn
    reference, draws = np.random.default_rng(7), PCG64.from_seed(7)
    for i in range(2000):
        if i % 3:
            assert draws.integers(n) == reference.integers(0, n)
        else:
            assert draws.random() == reference.random()
    state = reference.bit_generator.state
    assert (draws.state, draws.buffered, draws.half) == (
        state["state"]["state"], state["has_uint32"], state["uinteger"])
