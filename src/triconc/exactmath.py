"""Exact combinatorics and base-2 entropy primitives.

Everything downstream leans on five guarantees made here:

* binomial coefficients are arbitrary-precision integers, never floats;
  a loop over all weights takes C(n, 0..n // 2) from one rolling product
  instead of one binom call per weight;
* the alternating binomial sums S_i that carry the test-state amplitudes
  are evaluated in exact integer arithmetic, because they cancel
  massively (for n of a few hundred the terms dwarf the result by
  hundreds of orders of magnitude and any float path returns garbage).
  One generator, weight_classes, steps that rolling product and the S_i
  recurrence together and yields (C(n, i), S_i); at n = 2k every odd
  S_i is zero, and it steps two weights at a time;
* log2 of a huge integer goes through bit_length plus a 54-bit
  mantissa, off by at most half an ulp of the result plus 7.4e-15
  (log2_big), so the error grows with the integer's bit count;
* a bracket lo 2^e <= D <= hi 2^e still holds D when cut to its
  leading bits (cut), and log2_bracket is log2_big(D) where both ends
  share their leading 54 bits: the exact D's float, decided from a bracket;
* each weight of an entropy (entropy_terms) is the exact int ratio,
  rounded once, and each log2 that of log2_big; both are decided from
  the leading bits of their integers when those settle them, and from
  the full integers otherwise, so the floats are the same either way.
  The entropy takes the square roots of its weights (the S_i), and
  squares none of them where its leading bits settle its term.
"""

from __future__ import annotations

import math

__all__ = [
    "binom",
    "binomial_row",
    "log2_big",
    "log2_bracket",
    "cut",
    "shannon_h",
    "ordered_sum",
    "entropy_terms",
    "weight_classes",
    "inner_sum_table",
]

#: Leading bits of mult, root and count from which entropy_terms brackets
#: a term before it falls back to the exact one.
_TOP_BITS = 64

#: Products mult * root^2 narrower than this many bits skip the bracket:
#: the exact ratio is the cheaper below about 1000 bits (Python 3.11).
_MIN_BRACKET_BITS = 1024


def binom(n: int, k: int) -> int:
    """Exact binomial coefficient C(n, k) for 0 <= k <= n."""
    if n < 0 or k < 0:
        raise ValueError(f"binom requires nonnegative arguments, got ({n}, {k})")
    if k > n:
        raise ValueError(f"binom requires k <= n, got ({n}, {k})")
    return math.comb(n, k)


def binomial_row(n: int) -> list[int]:
    """The exact row [C(n, 0), ..., C(n, n)]: the multiplicities
    weight_classes(n, 0) pairs with its S_i (all 1 at k = 0) up to
    i = n // 2, and the mirror C(n, n - i) = C(n, i) above it."""
    if n < 0:
        raise ValueError(f"binomial_row requires n >= 0, got {n}")
    head = [c for c, _ in weight_classes(n, 0)]
    return head + head[:(n + 1) // 2][::-1]


def log2_big(x: int) -> float:
    """log2 of a positive arbitrary-precision integer, far beyond float
    range too: shift + log2(m), m the leading 54 bits of x.

    Off by at most 2^-52 / ln 2 (float(m) rounds m to 53 bits, within 2 of
    x / 2^shift >= 2^53), plus 2^-47 (libm's log2, taken as one ulp on
    [53, 54)), plus half an ulp of the result (the sum): 4.5e-13 at 6000
    bits.
    """
    if x <= 0:
        raise ValueError(f"log2_big requires a positive integer, got {x}")
    return log2_bracket(x, x)


def log2_bracket(lo: int, hi: int, e: int = 0) -> float | None:
    """log2_big(D) for every integer D with lo 2^e <= D <= hi 2^e (0 < lo
    <= hi, e >= 0), or None where the two ends differ in their leading 54
    bits: log2_big(D) is t + log2(D >> t), t = max(bit length - 54, 0),
    and where both ends agree above bit t (t taken at hi), so does every
    D between them, with hi's bit length."""
    t = max(hi.bit_length() + e - 54, 0)
    top = lo << e >> t
    if top != hi << e >> t:
        return None
    return t + math.log2(top)


def cut(lo: int, hi: int, e: int, bits: int) -> tuple[int, int, int]:
    """The bracket lo 2^e <= D <= hi 2^e cut to hi's leading `bits` bits,
    lo rounded down and hi up, so that it still holds D.

    Where hi < 2 lo, a cut leaves hi `bits` bits (or 2^bits, where
    rounding up carries) and lo at least bits - 1, so it moves lo down by
    under 2^-(bits-2) of itself and hi up by under 2^-(bits-1), widening
    ln(hi / lo) by under 2^-(bits-3): 2^-125 at 128 bits.  A multiply by
    an exact integer leaves the width as it is, and a product of brackets
    adds their widths.  So a bracket that has taken at most 2 * 10^4 <
    2^15 cuts to 128 bits, as the batching walk's bracket of a row of 10^4
    batches has, stays below 2^-110 relative."""
    shift = hi.bit_length() - bits
    if shift <= 0:
        return lo, hi, e
    return lo >> shift, -(-hi >> shift), e + shift


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
    """-mult * (w/T) * log2(w/T), in bits, for each integer (mult, root)
    pair of terms, with w = root^2 and T = count << shift, as a list; a
    zero root gives 0.0.  Each weight mult*w/T is the exact int ratio
    rounded once and each log2(w/T) is log2_big(w) - shift -
    log2_big(count), so weights below float underflow still count.

    A term is decided from leading bits where they settle it.  With m
    and s the leading _TOP_BITS bits of mult and |root| (a and e bits
    cut), and 1/count within [r_lo, r_hi] 2^-(g+p) (r = 2^p over the
    leading bits of count, g bits cut), the weight lies between
    m*s^2*r_lo and (m+1)*(s+1)^2*r_hi times 2^(a+2e-g-p-shift); a mult
    not cut enters both as itself, a root not cut as s and s+1 all the
    same (too loose to settle much below 2^60, and no such root of a
    test state reaches the bracket).  float() of an int rounds correctly
    and monotonically, so where both ends give one float that, scaled,
    is above 2^-1022 (where scaling is exact), it is the correctly
    rounded weight.  log2_big(w) is log2_bracket(s^2, (s+1)^2, 2e) where
    that is a float, worked out inline here (a call per term would cost
    more than the rest of the step).  Where mult and w have at most
    T.bit_length() - 1076 bits between them the weight is below 2^-1075
    and rounds to 0.0.  Otherwise (a rounding boundary between the ends,
    a few terms in a thousand for the test states, or a subnormal
    weight) the root is squared, and the weight is the exact (mult * w)
    / T, as it is wherever mult * w is narrower than _MIN_BRACKET_BITS,
    there the cheaper."""
    total_w = count << shift
    log2_total = shift + log2_big(count)
    top, min_bits, min_normal = _TOP_BITS, _MIN_BRACKET_BITS, 2.0**-1022
    log2, ldexp = math.log2, math.ldexp
    # 1 / count lies in [r_lo, r_hi] * 2^-(g + p)
    g, p = max(count.bit_length() - top, 0), 2 * top
    c_lo = count >> g
    r_lo, r_hi = (1 << p) // (c_lo + 1 if g else c_lo), -((-1 << p) // c_lo)
    scale = g + p + shift
    zero_bits = total_w.bit_length() - 1076
    out = []
    append = out.append
    for mult, root in terms:
        if not root:
            append(0.0)
            continue
        mb, rb = mult.bit_length(), root.bit_length()
        bits = mb + 2 * rb  # mult * root^2 has at most this many
        if bits < min_bits:
            w = root * root
            weight = (mult * w) / total_w
        elif bits <= zero_bits:
            append(0.0)
            continue
        else:
            # mult in [m_lo, m_hi] 2^a, |root| in [s, s + 1] 2^e, root^2 in
            # [v_lo, v_hi] 2^b (s = ~(root >> e) when root < 0)
            a = mb - top if mb > top else 0
            e = rb - top if rb > top else 0
            m_lo, s = mult >> a, root >> e
            m_hi = m_lo + 1 if a else m_lo
            if s < 0:
                s = ~s
            b, v_lo, v_hi = 2 * e, s * s, (s + 1) * (s + 1)
            lo = float(m_lo * v_lo * r_lo)
            weight = ldexp(lo, a + b - scale) if lo == float(m_hi * v_hi * r_hi) else 0.0
            if weight > min_normal:
                t = v_hi.bit_length() - 54
                if t >= 0 and v_lo >> t == (top54 := v_hi >> t):
                    append(-(weight * (t + b + log2(top54) - log2_total)))
                    continue
                w = root * root
            else:
                w = root * root
                weight = (mult * w) / total_w
        if not weight:  # -(0.0 * log2(w/T)), with w/T < 1
            append(0.0)
            continue
        t = w.bit_length() - 54
        append(-(weight * ((t + log2(w >> t) if t > 0 else log2(w)) - log2_total)))
    return out


def weight_classes(n: int, k: int):
    """(C(n, i), S_i) for fixed (n, k), one weight class i <= n // 2 at a
    time, in O(n) integer steps, with S_i the signed amplitude sum of the
    weight-i Schmidt class,

        S_i = sum_x (-1)^x * C(n-i, k-x) * C(i, x),

    so that a weight-i string of the (n, k) test state has squared
    amplitude S_i**2 / (2**n * C(n, k)).  S_i follows the three-term
    recurrence in the weight index,

        (n - i) * S_{i+1} = (n - 2k) * S_i - i * S_{i-1},

    and C(n, i) the rolling product C(n, i+1) = C(n, i) (n - i) / (i + 1).
    At n = 2k every odd S_i is zero, and the generator steps two weights
    at a time, yielding the even ones only: S_{i+2} = -(i + 1) S_i /
    (n - i - 1) and C(n, i+2) = C(n, i) (n - i) (n - i - 1) / ((i + 1)
    (i + 2)).  The divisions are exact in integer arithmetic, and each
    one giving an S_i is checked.  Summing the definition for each i (the
    test suite's reference) takes O(n^2) terms; the recurrence takes O(n),
    which is what makes e_in cheap to n = 10^5.
    """
    if not (0 <= k <= n):
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    prev, cur, c, d = 0, math.comb(n, k), 1, n - 2 * k
    yield c, cur
    if d:
        for i in range(n // 2):  # at i = 0 the S_{i-1} term has coefficient 0
            q, r = divmod(d * cur - i * prev, n - i)
            if r:
                raise ArithmeticError(f"inexact recurrence step at (n={n}, k={k}, i={i})")
            c = c * (n - i) // (i + 1)
            prev, cur = cur, q
            yield c, q
    else:
        for i in range(0, n // 2 - 1, 2):
            cur, r = divmod(-(i + 1) * cur, n - i - 1)
            if r:
                raise ArithmeticError(f"inexact recurrence step at (n={n}, k={k}, i={i})")
            c = c * ((n - i) * (n - i - 1)) // ((i + 1) * (i + 2))
            yield c, cur


def inner_sum_table(n: int, k: int) -> list[int]:
    """All inner sums S_0 .. S_n for fixed (n, k): weight_classes' S_i up
    to S_{n//2}, 0 at the odd weights it skips at n = 2k, and above it the
    mirror S_{n-i} = (-1)^k S_i (the Krawtchouk symmetry K_k(n - x) =
    (-1)^k K_k(x)), as in binomial_row.
    """
    s = [0] * (n // 2 + 1)
    s[::2 if n == 2 * k else 1] = [v for _, v in weight_classes(n, k)]
    mirror = s[:(n + 1) // 2][::-1]
    return s + ([-v for v in mirror] if k & 1 else mirror)
