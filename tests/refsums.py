"""References shared by the tests: the direct O(n) route to one S_i, and
the squaring route to the test-state entropy.

The library computes S_0 .. S_n by a three-term recurrence
(:func:`triconc.exactmath.half_inner_sums`); inner_sum is the definition
it is checked against, one alternating binomial sum per weight.

The library's entropy squares no S_i where its leading bits settle the
term; squaring_entropy squares every S_i and reads the weight's and
log2_big's leading bits from the square.
"""

import math

from triconc.exactmath import binomial_row, inner_sum_table, log2_big, ordered_sum


def inner_sum(n: int, k: int, i: int) -> int:
    """Signed integer amplitude sum S_i for the weight-i Schmidt class.

    S_i = sum_x (-1)^x * C(n-i, k-x) * C(i, x) over the x where both
    binomials are nonzero.  The squared amplitude of a weight-i string
    in the (n, k) test state is S_i**2 / (2**n * C(n, k)).
    """
    if not (0 <= k <= n):
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    if not (0 <= i <= n):
        raise ValueError(f"need 0 <= i <= n, got i={i}, n={n}")
    lo = max(0, i - (n - k))
    hi = min(i, k)
    total = 0
    for x in range(lo, hi + 1):
        term = math.comb(n - i, k - x) * math.comb(i, x)
        total += -term if (x & 1) else term
    return total


def squaring_entropy(n: int, k: int) -> float:
    """The (n, k) test-state entropy with every S_i squared in full.

    Each weight C(n, i) S_i^2 / T, T = C(n, k) 2^n, is the exact int ratio
    rounded once, decided from the 64 leading bits of C(n, i), S_i^2 and
    C(n, k) when the bracket they give rounds to one normal float, and
    from the full product otherwise; log2 S_i^2 is log2_big of the square.
    The terms of weights i <= n // 2 are mirrored to n - i and added in
    weight order 0..n.  Bit for bit what every pinned dataset was
    computed with, and far faster than the exact ratio at every weight
    (about 1 s at n = 2*10^4 against 100 s)."""
    s, row = inner_sum_table(n, k), binomial_row(n)
    count = s[0]
    total_w = count << n
    log2_total = n + log2_big(count)
    g = max(count.bit_length() - 64, 0)
    c_lo = count >> g
    c_hi = c_lo + 1 if g else c_lo
    terms = []
    for i in range(n // 2 + 1):
        mult, w = row[i], s[i] * s[i]
        if not w:
            terms.append(0.0)
            continue
        a, b = max(mult.bit_length() - 64, 0), max(w.bit_length() - 64, 0)
        m_lo, v_lo = mult >> a, w >> b
        m_hi, v_hi = m_lo + (a > 0), v_lo + (b > 0)
        lo = m_lo * v_lo / c_hi
        weight = math.ldexp(lo, a + b - g - n) if lo == m_hi * v_hi / c_lo else 0.0
        if not weight > 2.0 ** -1022:
            weight = (mult * w) / total_w
        terms.append(-(weight * (log2_big(w) - log2_total)))
    mirrored = terms if n & 1 else terms[:-1]
    return ordered_sum(terms + mirrored[::-1])
