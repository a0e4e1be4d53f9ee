#!/usr/bin/env python3
"""Check the array float formatter against ``%.17g`` on millions of doubles.

    python3 tools/check_float_text.py [--values N] [--seed S]

Formats N random 64-bit patterns (every exponent, both signs, subnormals
included; default 4,000,000) and the boundary sets of the tier-1 test in
``tests/test_floattext.py`` (every power of ten from 1e-323 to 1e308 and
its neighbours, integers around 2**53, exact ties, both zeros) with
``reports._fmt_floats``, as one row joined by ", " and as rows of three
ended by "\\n", and compares the text with ``FLOAT_FORMAT % x`` of every
value.  Exits 1 at the first batch that differs, naming its first
differing value.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from test_floattext import exact_ties, powers_of_ten  # noqa: E402

from weaktrace import reports  # noqa: E402

BATCH = 2**18


def first_difference(values: np.ndarray) -> str | None:
    """The first value of ``values`` whose text differs in either layout."""
    expected = [reports.FLOAT_FORMAT % v for v in values.tolist()]
    if reports._fmt_floats(values, ", ", "") != ", ".join(expected):
        got = reports._fmt_floats(values, ", ", "").split(", ")
        i = next(i for i, (a, b) in enumerate(zip(got, expected)) if a != b)
        return f"{float(values[i])!r}: {got[i]!r}, not {expected[i]!r}"
    table = values[: values.size // 3 * 3].reshape(-1, 3)
    rows = [",".join(expected[i : i + 3]) + "\n" for i in range(0, table.size, 3)]
    if reports._fmt_floats(table, ",", "\n") != "".join(rows):
        return f"the rows of three from {float(values[0])!r} on"
    return None


def batches(rng, count: int):
    """The boundary sets with both signs, then ``count`` random 64-bit
    patterns, the finite ones, in batches."""
    boundary = np.concatenate([powers_of_ten(), 2.0**53 + np.arange(-64, 65), exact_ties(rng), [0.0]])
    yield np.concatenate([boundary, -boundary])
    for start in range(0, count, BATCH):
        bits = rng.integers(0, 2**64, size=min(BATCH, count - start), dtype=np.uint64).view(np.float64)
        yield bits[np.isfinite(bits)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--values", type=int, default=4_000_000)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    checked = 0
    for values in batches(np.random.default_rng(args.seed), args.values):
        difference = first_difference(values)
        if difference is not None:
            print(f"check_float_text: {difference}", file=sys.stderr)
            return 1
        checked += values.size
    print(f"check_float_text: {checked} values match {reports.FLOAT_FORMAT!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
