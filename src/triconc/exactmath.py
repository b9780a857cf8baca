"""Exact combinatorics and base-2 entropy primitives.

Everything downstream leans on four guarantees made here:

* binomial coefficients are arbitrary-precision integers, never floats;
  a loop over all weights takes the whole row C(n, 0..n) from one
  rolling product (binomial_row) instead of one binom call per weight;
* the alternating binomial sums that carry the test-state amplitudes are
  evaluated in exact integer arithmetic, because they cancel massively
  (for n of a few hundred the terms dwarf the result by hundreds of
  orders of magnitude and any float path returns garbage);
* log2 of a huge integer goes through bit_length plus a mantissa that
  fits a float exactly, so it stays accurate to ~1e-15 absolute no
  matter how many thousands of bits the integer has.
"""

from __future__ import annotations

import math

__all__ = [
    "binom",
    "binomial_row",
    "log2_big",
    "shannon_h",
    "ordered_sum",
    "entropy_terms",
    "inner_sum_table",
]


def binom(n: int, k: int) -> int:
    """Exact binomial coefficient C(n, k) for 0 <= k <= n."""
    if n < 0 or k < 0:
        raise ValueError(f"binom requires nonnegative arguments, got ({n}, {k})")
    if k > n:
        raise ValueError(f"binom requires k <= n, got ({n}, {k})")
    return math.comb(n, k)


def binomial_row(n: int) -> list[int]:
    """The exact row [C(n, 0), ..., C(n, n)].

    Built with the rolling product C(n, i+1) = C(n, i) (n - i) / (i + 1),
    whose divisions are exact, up to i = n // 2; the rest is the mirror
    C(n, n - i) = C(n, i).
    """
    if n < 0:
        raise ValueError(f"binomial_row requires n >= 0, got {n}")
    head = [1]
    c = 1
    for i in range(n // 2):
        c = c * (n - i) // (i + 1)
        head.append(c)
    return head + head[:(n + 1) // 2][::-1]


def log2_big(x: int) -> float:
    """log2 of a positive arbitrary-precision integer.

    Splits x into (mantissa, shift) with a 54-bit mantissa, which a float
    represents exactly; the truncation error is below 2**-53 relative,
    i.e. ~1.6e-16 absolute in the logarithm.  Works for integers far
    beyond float range.
    """
    if x <= 0:
        raise ValueError(f"log2_big requires a positive integer, got {x}")
    nbits = x.bit_length()
    if nbits <= 53:
        return math.log2(x)
    shift = nbits - 54
    return shift + math.log2(x >> shift)


def shannon_h(p: float) -> float:
    """Binary Shannon entropy H(p) in bits, with the 0*log0 = 0 convention."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability out of [0, 1]: {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def ordered_sum(values) -> float:
    """values added one by one, left to right, starting from 0.0.

    Unlike the built-in sum(), which CPython 3.12 made compensated, and
    math.fsum, the result is the same rounding sequence on every
    interpreter: [1.0, 1e100, 1.0, -1e100] gives 0.0, not 2.0.
    """
    total = 0.0
    for v in values:
        total += v
    return total


def entropy_terms(terms, count: int, shift: int):
    """Yield -mult * (w/T) * log2(w/T), in bits, for each integer
    (mult, w) pair with w > 0 and T = count << shift.

    Each weight mult*w/T is one exact int ratio rounded once, and each
    log2(w/T) is log2_big(w) - shift - log2_big(count), so weights below
    float underflow still count."""
    total_w = count << shift
    log2_total = shift + log2_big(count)
    for mult, w in terms:
        yield -((mult * w) / total_w * (log2_big(w) - log2_total))


def inner_sum_table(n: int, k: int) -> list[int]:
    """All inner sums S_0 .. S_n for fixed (n, k), in O(n) integer steps.

    Uses the three-term recurrence in the weight index,

        (n - i) * S_{i+1} = (n - 2k) * S_i - i * S_{i-1},

    whose divisions are exact in integer arithmetic, with S_i the signed
    amplitude sum of the weight-i Schmidt class,

        S_i = sum_x (-1)^x * C(n-i, k-x) * C(i, x),

    so that a weight-i string of the (n, k) test state has squared
    amplitude S_i**2 / (2**n * C(n, k)).  Summing that definition for
    each i (the test suite's reference, which it cross-checks against
    this table) takes O(n^2) terms; the recurrence takes O(n), which is
    what makes dense scans up to n = 500 cheap.
    """
    if not (0 <= k <= n):
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    s = [0] * (n + 1)
    s[0] = math.comb(n, k)
    for i in range(n):  # at i = 0 the S_{i-1} term has coefficient 0
        num = (n - 2 * k) * s[i] - i * s[i - 1]
        q, r = divmod(num, n - i)
        if r:
            raise ArithmeticError(f"inexact recurrence step at (n={n}, k={k}, i={i})")
        s[i + 1] = q
    return s
