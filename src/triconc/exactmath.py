"""Exact combinatorics and base-2 entropy primitives.

Everything downstream leans on five guarantees made here:

* binomial coefficients are arbitrary-precision integers, never floats;
  a loop over all weights takes the whole row C(n, 0..n) from one
  rolling product (binomial_row) instead of one binom call per weight;
* the alternating binomial sums that carry the test-state amplitudes are
  evaluated in exact integer arithmetic, because they cancel massively
  (for n of a few hundred the terms dwarf the result by hundreds of
  orders of magnitude and any float path returns garbage);
* log2 of a huge integer goes through bit_length plus a mantissa that
  fits a float exactly, so it stays accurate to ~1e-15 absolute no
  matter how many thousands of bits the integer has;
* each weight of an entropy (entropy_terms) is the exact int ratio,
  rounded once; it is decided from the leading bits of its integers
  when they settle it, and from the full product otherwise, so the
  floats are the same either way.
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

#: Leading bits of mult, w and count from which entropy_terms brackets a
#: weight before it falls back to the exact ratio.
_TOP_BITS = 64

#: Products mult * w narrower than this many bits skip the bracket: the
#: exact ratio is the cheaper below about 1000 bits (Python 3.11, x86_64).
_MIN_BRACKET_BITS = 1024

#: The smallest normal float, 2^-1022.
_MIN_NORMAL = 2.0 ** -1022


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


def entropy_terms(terms, count: int, shift: int) -> list[float]:
    """-mult * (w/T) * log2(w/T), in bits, for each integer (mult, w)
    pair of terms with w > 0 and T = count << shift, as a list.

    Each weight mult*w/T is the exact int ratio rounded once, and each
    log2(w/T) is log2_big(w) - shift - log2_big(count), so weights below
    float underflow still count.

    The weight is decided from the top bits where they settle it.  With
    m, v and c the leading _TOP_BITS bits of mult, w and count (the
    lower bits cut off, and a, b, g bits cut), the exact ratio lies
    between L = m*v / (c+1) and U = (m+1)*(v+1) / c times 2^(a+b-g-shift)
    (an operand that is not cut enters both bounds as itself).  Python's
    int / int rounds each of L and U correctly, and rounding is monotone,
    so when the two give the same float and that float, scaled, is a
    normal float, it is the correctly rounded exact ratio: above 2^-1022
    the scaling by a power of two is exact and commutes with rounding.
    When mult and w have at most T.bit_length() - 1076 bits between them,
    the ratio is below 2^-1075, half the smallest subnormal, and rounds
    to 0.0.
    Otherwise (where a rounding boundary falls between L and U, under two
    bracketed terms in a thousand for the test states, and every other
    subnormal or zero weight) the weight is the exact (mult * w) / T, as
    it is whenever the product mult * w is narrower than
    _MIN_BRACKET_BITS bits, where the exact ratio is the cheaper."""
    total_w = count << shift
    log2_total = shift + log2_big(count)
    top, min_bits, min_normal = _TOP_BITS, _MIN_BRACKET_BITS, _MIN_NORMAL
    g = max(count.bit_length() - top, 0)
    c_lo = count >> g
    c_hi = c_lo + 1 if g else c_lo
    zero_bits = total_w.bit_length() - 1076
    out = []
    for mult, w in terms:
        mb, wb = mult.bit_length(), w.bit_length()
        if mb + wb < min_bits:
            weight = (mult * w) / total_w
        elif mb + wb <= zero_bits:
            weight = 0.0
        else:
            a, b = mb - top, wb - top
            if a > 0:
                m_lo = mult >> a
                m_hi = m_lo + 1
            else:
                a, m_lo, m_hi = 0, mult, mult
            if b > 0:
                v_lo = w >> b
                v_hi = v_lo + 1
            else:
                b, v_lo, v_hi = 0, w, w
            lo = m_lo * v_lo / c_hi
            weight = math.ldexp(lo, a + b - g - shift) if lo == m_hi * v_hi / c_lo else 0.0
            if not weight > min_normal:
                weight = (mult * w) / total_w
        out.append(-(weight * (log2_big(w) - log2_total)))
    return out


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

    The recurrence runs only up to S_{n//2}, each step checked for an
    exact division; the upper half is the mirror S_{n-i} = (-1)^k S_i
    (the Krawtchouk symmetry K_k(n - x) = (-1)^k K_k(x)), as in
    binomial_row.
    """
    if not (0 <= k <= n):
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    s = [0] * (n // 2 + 1)
    s[0] = math.comb(n, k)
    for i in range(n // 2):  # at i = 0 the S_{i-1} term has coefficient 0
        num = (n - 2 * k) * s[i] - i * s[i - 1]
        q, r = divmod(num, n - i)
        if r:
            raise ArithmeticError(f"inexact recurrence step at (n={n}, k={k}, i={i})")
        s[i + 1] = q
    mirror = s[:(n + 1) // 2][::-1]
    return s + ([-v for v in mirror] if k & 1 else mirror)
