"""``%.17g`` text of a float array, byte for byte, from numpy array steps.

``join_floats`` writes what ``FLOAT_FORMAT % x`` writes for each finite
double x: N, the 17 significant digits of |x| rounded half to even, with
trailing zeros dropped, in fixed notation when the decimal exponent E of
the rounded value is in [-4, 17) and in exponential notation otherwise.

For 1e-290 <= |x| <= 1e290 the digits come from these array steps.
1. E starts as floor(log10|x|), which may be one off next to a power of
   ten.
2. D = |x| * 10**(16 - E) comes from a double-double table of powers,
   built from Python ints on first use: 10**k = B + b, with B the nearest
   double and b the nearest double to the rest, within 2**-106 relative.
   |x| * B is exact as p + err: Dekker's product on Veltkamp's 26-bit
   halves, and no partial product can overflow or underflow in this
   range.  |x| * b, below 12 once E is right, is rounded once.  So
   r = (p - floor(p)) + err + |x| * b is D - floor(p) to within 5e-15,
   and floor(D) = floor(p) + floor(r), except that D within 5e-15 of an
   integer may take either side of it.
3. E moves by one while D is below 10**16 - 1e-6 or at least 10**17.
   Then N = floor(D), plus 1 when the fraction is above 0.5, and
   N = 10**17 is written as 10**16 with E + 1.
   - A fraction outside 1e-6 of 0.5 rounds as exact arithmetic would, and
     a D next to an integer rounds to that integer from either side.
   - A D within 1e-6 below 10**16 gives N = 10**16 at E.  At E - 1 the
     exact D * 10 rounds to 10**17, which carries to the same N and E.
     So one correction settles a log10 that is one off.
4. N's digits come from a table of 10**4 four-digit ASCII words, and its
   trailing zeros from a count per group.
5. Each value is laid out by one template per (notation, E, digit count,
   sign).  A template lists the bytes of a source row to copy: the digit
   words, the exponent text, '-', '.' and the separator.
6. Rows are padded with NULs, gathered in chunks of ``_CHUNK`` values, and
   the NULs are dropped.  So memory beyond the text is a fixed amount.

Every step is a separate numpy ufunc call on float64, rounded once to
nearest, so nothing is fused into a multiply-add; Dekker's product needs
that.  A zero is laid out as the digit 0 with its sign.  These values are
written by ``FLOAT_FORMAT % x`` into their own rows:
- |x| outside [1e-290, 1e290], subnormals included
- a fraction within 1e-6 of the rounding tie, exact ties included, which
  ``%`` rounds half to even
- an exponent still off after two corrections
"""

from __future__ import annotations

import functools
from itertools import chain

import numpy as np

FLOAT_FORMAT = "%.17g"

_LOW, _HIGH = 1e-290, 1e290  # the |x| the fast path writes
_E_MIN, _E_MAX = -292, 292  # the exponents of the power table
_TIE = 1e-6
_SPLIT = 134217729.0  # 2**27 + 1
_CHUNK = 4096  # values per gather

# A source row of 40 bytes: the digit words (bytes 0-2 '0', then the 17
# digits), '-', '.', NUL, the exponent text, and the value's separator.
_ROW = 40
_DIGITS, _MINUS, _DOT, _NUL, _EXP, _SEP = 3, 20, 21, 22, 24, 36
_WIDTH = 28  # template bytes: 24 of text (the longest %.17g), then 4 of separator
_NOTATIONS = 23  # fixed for E = -4..16, then exponential with 2 or 3 exponent digits


@functools.cache
def _tables():
    """The power table, digit words, trailing-zero counts, exponent texts
    and templates; built on first use."""
    exps = np.arange(_E_MIN, _E_MAX + 1)
    hi, lo = [], []
    for k in (16 - exps).tolist():
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        b = num / den  # int division rounds correctly
        p, q = b.as_integer_ratio()
        hi.append(b)
        lo.append((num * q - p * den) / (den * q))
    hi, lo = np.array(hi), np.array(lo)
    mant, exp2 = np.frexp(hi)
    hi_h = np.ldexp(np.round(mant * 2.0**26) / 2.0**26, exp2)
    powers = (hi_h, hi - hi_h, lo)  # B in two 26-bit halves, and b

    digits = np.indices((10,) * 4).reshape(4, -1).T.astype(np.uint8, order="C")
    words = (digits + ord("0")).view(np.uint32).ravel()  # group g is words[g]
    zeros = sum(np.arange(10**4) % 10**k == 0 for k in range(1, 5))  # trailing, 4 for 0000
    exp_text = b"".join((b"e%+03d" % e).ljust(8, b"\0") for e in exps.tolist())
    exp_words = np.frombuffer(exp_text, np.uint64)
    signs = np.frombuffer(b"-.\0\0", np.uint32)  # bytes 20-23 of a source row

    notation = np.where((exps >= -4) & (exps < 17), exps + 4, np.where(abs(exps) < 100, 21, 22))
    # a value's template is base[E] - 2 * (trailing zeros of N) + (1 if negative)
    base = notation * 34 + 32
    templates = []
    for n in range(_NOTATIONS):
        lead = 1 if n > 20 else n - 3  # digits before the point
        for s in range(1, 18):
            if lead <= 0:  # 0.000ddd
                text = [0, _DOT] + [0] * -lead + list(range(_DIGITS, _DIGITS + s))
            else:
                text = list(range(_DIGITS, _DIGITS + lead))
                if s > lead:
                    text += [_DOT] + list(range(_DIGITS + lead, _DIGITS + s))
                if n > 20:
                    text += range(_EXP, _EXP + n - 17)  # e+dd or e+ddd
            templates += [text, [_MINUS] + text]
    templates.append(list(range(24)))  # the row of a value that FLOAT_FORMAT writes
    sep = list(range(_SEP, _SEP + 4))
    cells = chain.from_iterable(t + sep + [_NUL] * (_WIDTH - 4 - len(t)) for t in templates)
    table = np.fromiter(cells, np.intp).reshape(len(templates), _WIDTH)
    offsets = np.arange(_CHUNK)[:, None] * _ROW
    for shared in (*powers, words, zeros, base, table, offsets):
        shared.flags.writeable = False
    return powers, words, zeros, exp_words, signs, base, table, offsets


def _scaled(a: np.ndarray, e: np.ndarray, powers) -> tuple[np.ndarray, np.ndarray]:
    """floor(D) as int64 and the fraction of D, for D = a * 10**(16 - e)."""
    i = e - _E_MIN
    bh, bl, b_lo = (t.take(i, mode="clip") for t in powers)
    p = a * (bh + bl)
    c = a * _SPLIT
    ah = c - (c - a)
    al = a - ah
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    ip = np.floor(p)
    r = (p - ip) + err + a * b_lo
    ir = np.floor(r)
    return ip.astype(np.int64) + ir.astype(np.int64), r - ir


def _out_of_range(fl: np.ndarray, frac: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """D below 10**16 - _TIE, and D at or above 10**17."""
    return fl + (frac > 1 - _TIE) < 10**16, fl >= 10**17


def _decimal(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """N and E of each value (0 and 0 for a zero), and the mask of the
    values that ``FLOAT_FORMAT`` writes itself, whose N and E are 0."""
    powers = _tables()[0]
    a = np.abs(x)
    fast = (a >= _LOW) & (a <= _HIGH)
    a = np.where(fast, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    fl, frac = _scaled(a, e, powers)
    low, high = _out_of_range(fl, frac)
    for _ in range(2):
        off = np.flatnonzero(low | high)
        if not off.size:
            break
        e[off] += high[off].astype(np.int64) - low[off]
        fl[off], frac[off] = _scaled(a[off], e[off], powers)
        low[off], high[off] = _out_of_range(fl[off], frac[off])
    zero = x == 0
    slow = ~fast & ~zero | (np.abs(frac - 0.5) < _TIE) | low | high
    n = fl + (frac > 0.5)
    carry = n == 10**17
    n[carry] = 10**16
    e += carry
    n[slow | zero] = 0
    e[slow | zero] = 0
    return n, e, slow


def _chunk_text(x: np.ndarray, seps: np.ndarray, first_end: int, cols: int) -> str:
    """The text of ``x``; its value ``first_end`` and every ``cols``-th one
    after it end a row."""
    _, words, zeros, exp_words, signs, base, table, offsets = _tables()
    m = x.size
    n, e, slow = _decimal(x)

    # the 4-digit groups of N: its first digit, then four groups
    g = np.empty((m, 5), np.int32)
    high8 = n // 10**8
    low8 = (n - high8 * 10**8).astype(np.int32)
    high8 = high8.astype(np.int32)
    np.floor_divide(high8, 10**4, out=g[:, 1])
    np.subtract(high8, g[:, 1] * 10**4, out=g[:, 2])
    np.floor_divide(g[:, 1], 10**4, out=g[:, 0])
    g[:, 1] -= g[:, 0] * 10**4
    np.floor_divide(low8, 10**4, out=g[:, 3])
    np.subtract(low8, g[:, 3] * 10**4, out=g[:, 4])
    tz = zeros.take(g[:, 4])
    more = np.flatnonzero(tz == 4)
    for j in (3, 2, 1):
        if not more.size:
            break
        z = zeros.take(g[more, j])
        tz[more] += z
        more = more[z == 4]
    tid = base.take(e - _E_MIN) - 2 * tz + np.signbit(x)

    rows = np.empty((m, _ROW // 4), np.uint32)
    rows[:, :5] = words.take(g)
    rows[:, 5] = signs
    rows.view(np.uint64)[:, 3] = exp_words.take(e - _E_MIN)
    rows[:, 9] = seps[0]
    rows[first_end::cols, 9] = seps[1]
    bad = np.flatnonzero(slow)
    if bad.size:
        text = b"".join((FLOAT_FORMAT % v).encode().ljust(24, b"\0") for v in x[bad].tolist())
        rows.view(np.uint8)[bad, :24] = np.frombuffer(text, np.uint8).reshape(-1, 24)
        tid[bad] = len(table) - 1
    index = table.take(tid, axis=0)
    index += offsets[:m]
    out = rows.view(np.uint8).ravel().take(index).ravel()
    return str(out[out != 0], "ascii")


def join_floats(values: np.ndarray, sep: str, end: str) -> str:
    """``FLOAT_FORMAT`` of every value of a finite float64 array, in C
    order: the values of each row (the last axis) joined by ``sep``, each
    row followed by ``end``.  Separators are at most 4 ASCII characters,
    none of them NUL."""
    if max(len(sep), len(end)) > 4:
        raise ValueError("a separator longer than 4 characters")
    seps = np.frombuffer(b"".join(s.encode("ascii").ljust(4, b"\0") for s in (sep, end)), np.uint32)
    flat = values.ravel()
    cols = values.shape[-1] if values.ndim else 1
    text = ""
    for start in range(0, flat.size, _CHUNK):
        # appending to the one reference resizes the text in place
        text += _chunk_text(flat[start : start + _CHUNK], seps, (cols - 1 - start) % cols, cols)
    return text
