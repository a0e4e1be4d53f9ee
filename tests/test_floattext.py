"""The array float formatter against ``FLOAT_FORMAT % x``, value by value,
and its fast path against exact rational arithmetic."""

import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from weaktrace import _floattext, reports
from weaktrace.errors import NonFiniteResultError

FLOAT_FORMAT = reports.FLOAT_FORMAT


def powers_of_ten() -> np.ndarray:
    """Every power of ten from 1e-323 to 1e308 (the nearest doubles) and
    the doubles one ulp either side."""
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    return np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])


def exact_ties(rng) -> np.ndarray:
    """Dyadic values n / 2**j whose 18th significant digit is an exact tie:
    n odd with n * 5**j of 18 digits, which end in a single 5."""
    values = []
    for j in range(2, 26):
        lo, hi = -(-(10**17) // 5**j), min(10**18 // 5**j, 2**53)
        values += [(int(n) | 1) / 2**j for n in rng.integers(lo, hi - 1, size=20, endpoint=True)]
    return np.array(values)


def fixed_set() -> np.ndarray:
    rng = np.random.default_rng(17)
    bits = rng.integers(0, 2**64, size=100_000, dtype=np.uint64).view(np.float64)
    subnormal = rng.integers(1, 2**52, size=1000, dtype=np.uint64).view(np.float64)
    values = np.concatenate(
        [
            bits[np.isfinite(bits)],
            subnormal,
            powers_of_ten(),
            2.0**53 + np.arange(-64, 65),
            exact_ties(rng),
            [0.0, -0.0],
        ]
    )
    values = np.concatenate([values, -values])
    return values[rng.permutation(values.size)]


def one_row(values) -> str:
    return ", ".join(FLOAT_FORMAT % v for v in values)


def three_columns(table) -> str:
    return "".join("%s,%s,%s\n" % tuple(FLOAT_FORMAT % v for v in row) for row in table)


def test_fixed_set_matches_percent_format():
    values = fixed_set()
    assert values.size > 200_000
    assert reports._fmt_floats(values, ", ", "") == one_row(values.tolist())
    table = values[: values.size // 3 * 3].reshape(-1, 3)
    assert reports._fmt_floats(table, ",", "\n") == three_columns(table.tolist())


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False)))
def test_any_finite_floats_match_percent_format(values):
    array = np.array(values, dtype=float)
    assert reports._fmt_floats(array, ", ", "") == one_row(values)
    table = array[: array.size // 3 * 3].reshape(-1, 3)
    assert reports._fmt_floats(table, ",", "\n") == three_columns(table.tolist())


def test_empty_input_is_empty_text():
    assert reports._fmt_floats(np.zeros(0), ", ", "") == ""
    assert reports._fmt_floats(np.zeros((0, 3)), ",", "\n") == ""


@pytest.mark.parametrize("sep, end", [(", ", "-----"), ("-----", "\n")])
def test_separator_longer_than_4_characters_is_refused(sep, end):
    with pytest.raises(ValueError, match="^a separator longer than 4 characters$"):
        _floattext.join_floats(np.ones((2, 2)), sep, end)


def exact_decimal(x: float) -> tuple[int, int, bool]:
    """N and E as ``%.17g`` rounds them, from exact rationals, and whether
    the fast path must leave x to ``FLOAT_FORMAT``: outside [1e-290, 1e290],
    or a fraction within 1e-6 of the rounding tie."""
    if x == 0:
        return 0, 0, False
    f = abs(Fraction(x))
    e = math.floor(math.log10(abs(x)))
    while Fraction(10) ** e > f:
        e -= 1
    while Fraction(10) ** (e + 1) <= f:
        e += 1
    d = f * Fraction(10) ** (16 - e)
    n = math.floor(d)
    frac = d - n
    n += frac > Fraction(1, 2) or (frac == Fraction(1, 2) and n % 2 == 1)
    if n == 10**17:
        n, e = 10**16, e + 1
    slow = not 1e-290 <= abs(x) <= 1e290 or abs(frac - Fraction(1, 2)) < Fraction(1, 10**6)
    return (0, 0, True) if slow else (n, e, False)


def test_fast_path_digits_and_fallback_set_are_exact():
    """Every value next to a power of ten, every exact tie and a sample of
    bit patterns: the fast path's N and E are exact, and the values it
    leaves to FLOAT_FORMAT are exactly those the module names."""
    rng = np.random.default_rng(5)
    bits = rng.integers(0, 2**64, size=3000, dtype=np.uint64).view(np.float64)
    values = np.concatenate(
        [powers_of_ten(), exact_ties(rng), 2.0**53 + np.arange(-8, 9), bits[np.isfinite(bits)], [0.0]]
    )
    values = np.concatenate([values, -values])
    n, e, slow = _floattext._decimal(values)
    expected = list(zip(*map(exact_decimal, values.tolist())))
    assert n.tolist() == list(expected[0])
    assert e.tolist() == list(expected[1])
    assert slow.tolist() == list(expected[2])


def test_non_finite_is_refused_before_any_text(monkeypatch):
    table = np.ones((4, 3))
    table[2, 1], table[1, 2] = np.inf, np.nan
    monkeypatch.setattr(reports, "join_floats", None)
    with pytest.raises(NonFiniteResultError, match=r"\(nan\)$"):
        reports._fmt_floats(table, ",", "\n")


def test_memory_is_the_text_and_a_fixed_allowance():
    """2**20 rows of three columns: beyond its own text, formatting holds
    only a few chunks' worth of arrays, never a Python float per value."""
    rng = np.random.default_rng(3)
    rows = 2**20
    table = np.column_stack([np.arange(rows, dtype=float), rng.standard_normal(rows), rng.random(rows)])
    reports._fmt_floats(table[:10], ",", "\n")  # the tables are built on first use
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        text = reports._fmt_floats(table, ",", "\n")
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()
    assert text.count("\n") == rows
    assert peak <= sys.getsizeof(text) + 8 * 2**20
