"""The CSV renderer's cached table of the 4-byte words of 0 .. 9999 and
the powers of ten.  It is built from comparisons on a grid of digits; it
must equal, bit for bit, the table built from the digits by integer
division and from the NUL masks by accumulating ORs along the places."""

import numpy as np

from chebbounds import render


def reference_words() -> np.ndarray:
    """The four blocks (zero-padded, trailing zeros NUL, leading zeros NUL,
    leading zeros NUL with 0 kept) by division and accumulation."""
    digits = np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")
    nonzero = digits != ord("0")
    trailing = digits * np.logical_or.accumulate(nonzero[:, ::-1], axis=1)[:, ::-1]
    leading = digits * np.logical_or.accumulate(nonzero, axis=1)
    lone_zero = digits * np.logical_or.accumulate(nonzero | (np.arange(4) == 3), axis=1)
    words = np.concatenate([digits, trailing, leading, lone_zero]).astype(np.uint8).view("<u4")
    return words.ravel()


def test_digit_words_equal_the_division_construction():
    *_, words = render._digit_words()
    reference = reference_words()
    assert words.dtype == reference.dtype and words.shape == reference.shape
    assert words.tobytes() == reference.tobytes()
    blocks = [words[start:start + 10_000].tobytes().decode("ascii")
              for start in (render._Z, render._T, render._L, render._L0)]
    assert [block[4 * 1200:4 * 1201] for block in blocks] == ["1200", "12\0\0", "1200", "1200"]
    assert [block[4 * 7:4 * 8] for block in blocks] == ["0007", "0007", "\0\0\0" "7", "\0\0\0" "7"]
    assert [block[:4] for block in blocks] == ["0000", "\0" * 4, "\0" * 4, "\0\0\0" "0"]


def test_powers_of_ten_are_exact():
    pow10, int_pow10, _ = render._digit_words()
    assert pow10.tolist() == [float(10 ** k) for k in range(16)]
    assert int_pow10.dtype == np.int64 and int_pow10.tolist() == [10 ** k for k in range(16)]
