"""Byte oracle for ``omband.fmt17``: every cell against Python's ``"%.17g"``.

The numpy formatter must write each float64 exactly as ``"%.17g" % x``
does, in the fast range [1e-5, 1e16) and outside it, where it splices in
Python's own text (or ``null`` in JSON).
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from omband import fmt17
from omband.fmt17 import iter_row_blocks


def _reference(values: np.ndarray) -> str:
    return "".join(map("%.17g\n".__mod__, values.tolist()))


def _assert_matches(values, both_signs: bool = True) -> None:
    """One cell per CSV row against the reference, with each value negated
    too unless ``both_signs`` is false."""
    x = np.asarray(values, dtype=np.float64).ravel()
    if both_signs:
        x = np.concatenate((x, -x))
    got = "".join(iter_row_blocks(x.reshape(-1, 1), 4096, "csv"))
    want = _reference(x)
    if got != want:
        bad = next(i for i, (g, w) in enumerate(zip(got.split("\n"), want.split("\n"))) if g != w)
        pytest.fail(f"{x[bad]!r}: got {got.split()[bad]!r}, want {want.split()[bad]!r}")


def _ulp_neighbours(centres, steps: int) -> np.ndarray:
    """Each centre and the ``steps`` doubles on either side of it."""
    out = [np.asarray(centres, dtype=np.float64)]
    for direction in (0.0, np.inf):
        x = out[0]
        for _ in range(steps):
            x = np.nextafter(x, direction)
            out.append(x)
    return np.concatenate(out)


def _ties(s: int, count: int, rng) -> np.ndarray:
    """Doubles x with x * 10**s exactly half-way between two integers N
    and N + 1 of 17 digits: x = M / 2**(s+1) with M odd and M * 5**s =
    2N + 1, so the 17-digit rounding is a tie that goes to even."""
    lo = -(-(2 * 10**16 + 1) // 5**s)
    hi = min((2 * 10**17 - 1) // 5**s, 2**53 - 1)
    if lo > hi:
        return np.empty(0)
    m = rng.integers(lo, hi + 1, count) | 1
    return m[m <= hi].astype(np.float64) / 2.0 ** (s + 1)


@pytest.mark.parametrize("s", range(23))
def test_exact_18th_digit_ties(s):
    rng = np.random.default_rng(1000 + s)
    x = _ties(s, 2000, rng)
    if s == 0:
        # every double in [1e16, 1e17) is an integer: no tie at s = 0
        assert x.size == 0
        return
    assert x.size > 1000
    for v in x[:20].tolist():
        assert Fraction(v) * 10**s % 1 == Fraction(1, 2)
    _assert_matches(x)


def test_power_of_ten_neighbours():
    _assert_matches(_ulp_neighbours([float(f"1e{m}") for m in range(-7, 18)], 8))


def test_no_double_rounds_up_to_a_power_of_ten():
    # the double below each power of ten keeps 17 nines: %.17g never
    # carries into the next decade, in the fast range or next to it
    for m in range(-7, 18):
        below = np.nextafter(float(f"1e{m}"), 0.0)
        assert Fraction("%.17g" % below) < Fraction(10) ** m


def test_values_next_to_a_decade():
    below = [0.99999999999999994, 99999.999999999985, 9.9999999999999982e15]
    _assert_matches(_ulp_neighbours(below, 4))


def test_fast_range_ends():
    _assert_matches(_ulp_neighbours([1e-5, 1e16, 1e-4, 1e15], 8))


def test_zero_and_subnormals():
    tiny = np.finfo(np.float64).smallest_subnormal
    normal = np.finfo(np.float64).smallest_normal
    rng = np.random.default_rng(3)
    subnormals = rng.integers(1, 2**52, 1000).astype(np.uint64).view(np.float64)
    _assert_matches([0.0, tiny, 2 * tiny, normal, np.nextafter(normal, 0), *subnormals])
    assert "".join(iter_row_blocks(np.array([[0.0, -0.0]]), 4096, "csv")) == "0,-0\n"


def test_non_finite_cells():
    rows = np.array([[np.inf, 1.5, -np.inf], [np.nan, -0.0, 1e300], [2.0, np.nan, -1e-300]])
    csv_text = "".join(iter_row_blocks(rows, 2, "csv"))
    assert csv_text == "inf,1.5,-inf\nnan,-0,1.0000000000000001e+300\n2,nan,-1e-300\n"
    json_text = "".join(iter_row_blocks(rows, 2, "json"))
    assert json_text == "[null,1.5,null],[null,-0,1.0000000000000001e+300],[2,null,-1e-300]"
    assert json.loads(f"[{json_text}]")[1] == [None, -0.0, 1e300]


def test_random_bit_patterns():
    rng = np.random.default_rng(20261018)
    words = rng.integers(0, 2**64, 10**6, dtype=np.uint64, endpoint=False)
    # random sign and mantissa; the exponent field spans 2**-24 ... 2**56,
    # the fast range with a margin on either side
    exponent = rng.integers(1023 - 24, 1023 + 57, words.size).astype(np.uint64)
    words = (words & np.uint64(0x800FFFFFFFFFFFFF)) | (exponent << np.uint64(52))
    _assert_matches(words.view(np.float64), both_signs=False)
    # and every exponent, infinities and nans included
    every = rng.integers(0, 2**64, 10**5, dtype=np.uint64, endpoint=False)
    _assert_matches(every.view(np.float64), both_signs=False)


def test_log_uniform_values():
    rng = np.random.default_rng(17)
    sign = rng.choice(np.array([-1.0, 1.0]), 10**6)
    _assert_matches(sign * 10.0 ** rng.uniform(-6.0, 17.0, 10**6), both_signs=False)


def test_exponent_one_off_is_corrected(monkeypatch):
    """The +-1 correction alone gives the right digits when the exponent
    estimate is one off either way."""
    exact = fmt17._exponent
    rng = np.random.default_rng(5)

    def one_off(a):
        return exact(a) + rng.choice(np.array([-1, 1]), a.size)

    monkeypatch.setattr(fmt17, "_exponent", one_off)
    _assert_matches(np.concatenate((10.0 ** rng.uniform(-5.0, 16.0, 20000), _ties(3, 500, rng))))


@pytest.mark.parametrize("block_rows", [1, 2, 3, 4096])
def test_blocks_concatenate_to_the_table(block_rows):
    rows = np.arange(21.0).reshape(7, 3) - 10.5
    for fmt, start, end in (("csv", "", ""), ("json", "[", "]")):
        blocks = list(iter_row_blocks(rows, block_rows, fmt))
        assert len(blocks) == math.ceil(7 / block_rows)
        body = "".join(blocks)
        if fmt == "csv":
            assert body == "".join(",".join("%.17g" % v for v in r) + "\n" for r in rows.tolist())
        else:
            assert json.loads(start + body + end) == rows.tolist()
