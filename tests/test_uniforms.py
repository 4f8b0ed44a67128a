"""verify's fixture suites draw from ``verify._uniforms``, a pure-Python copy
of numpy's default generator, so that ``verify`` does not import
``numpy.random``.  Its doubles must equal ``default_rng(seed).random(n)``
bit for bit, whatever the seed: ``--seed`` takes any int >= 0, and a seed
of more than 32 bits, or more than four 32-bit words, hashes differently."""

import numpy as np
import pytest

from chebbounds.verify import _uniforms

COUNTS = (0, 1, 600, 2000)      # 600 and 2000: the inverse and continuity suites
WIDE = (2**32 - 1, 2**32, 2**64, 10**40)


@pytest.mark.parametrize("first", range(0, 1000, 100))
def test_small_seeds_give_numpys_bits(first):
    for seed in range(first, first + 100):
        for n in COUNTS:
            ours = _uniforms(seed, n)
            assert ours.dtype == np.float64 and ours.shape == (n,)
            assert ours.tobytes() == np.random.default_rng(seed).random(n).tobytes(), (seed, n)


@pytest.mark.parametrize("seed", WIDE, ids=["2^32-1", "2^32", "2^64", "10^40"])
@pytest.mark.parametrize("n", COUNTS)
def test_wide_seeds_give_numpys_bits(seed, n):
    assert _uniforms(seed, n).tobytes() == np.random.default_rng(seed).random(n).tobytes()
