"""References shared by the tests: the direct O(n) route to one S_i, the
squaring route to the test-state entropy, and 60-digit Decimal forms of
e_in and of codeword_entropy.

The library computes S_0 .. S_n by a three-term recurrence
(:func:`triconc.exactmath.weight_classes`); inner_sum is the definition
it is checked against, one alternating binomial sum per weight.

The library's entropy squares no S_i where its leading bits settle the
term; squaring_entropy squares every S_i and reads the weight's and
log2_big's leading bits from the square.  decimal_e_in shares neither
float algorithm: it is the same entropy in 60-digit Decimal logarithms,
so it is not bit-identical to the library by design, and e_in_bound says
how far apart the two may be.  decimal_codeword_entropy and
codeword_entropy_bound are the same pair for
:func:`triconc.teststate.codeword_entropy`.
"""

import math
from decimal import Decimal, localcontext

from triconc.exactmath import binomial_row, inner_sum_table, log2_big, ordered_sum
from triconc.teststate import _walsh_roots


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


def decimal_e_in(n: int, k: int) -> Decimal:
    """The (n, k) test-state entropy in bits, in 60-digit Decimal:

        e_in = [ln T - sum_i C(n, i) S_i^2 ln(S_i^2) / T] / ln 2,

    T = 2^n C(n, k), from inner_sum_table's integers and math.comb.  The
    weights C(n, i) S_i^2 / T sum to 1 exactly (checked in integers), which
    takes ln T out of the sum.  Every Decimal step rounds to 60 digits
    (ln correctly), so the result is off by far less than 1e-50."""
    s = inner_sum_table(n, k)
    total = s[0] << n
    if sum(math.comb(n, i) * v * v for i, v in enumerate(s)) != total:
        raise ArithmeticError(f"weights of ({n}, {k}) do not sum to 1")
    with localcontext() as ctx:
        ctx.prec = 60
        ln = {}  # ln S_i^2 for each |S_i|, once: S_{n-i} = +-S_i
        acc = Decimal(0)
        for i, v in enumerate(s):
            if v:
                w = v * v
                if w not in ln:
                    ln[w] = Decimal(w).ln()
                acc += Decimal(math.comb(n, i) * w) / total * ln[w]
        return (Decimal(total).ln() - acc) / Decimal(2).ln()


def e_in_bound(n: int, e: float) -> float:
    """How far the library's float e_in of an (n, k) test state, e, may be
    from the exact entropy, u = 2^-53 the unit roundoff.  The library adds
    the terms t_i = -W_i (L_i - L_T) over weights i = 0..n, with
    W_i = C(n, i) S_i^2 / T, L_i = log2 S_i^2 and L_T = log2 T
    (T = 2^n C(n, k)):

    - W_i is the exact ratio rounded once: relative error u.  (A weight
      below 2^-1022 is off by at most 2^-1075 absolute; times |L_i - L_T|
      <= 2n + 1 that is below 2^-1050 a term, nothing at this scale.)
    - L_i and log2 C(n, k) are log2_big's, each within 2^-52 / ln 2 + 2^-47
      + ulp / 2 of its result (exactmath.log2_big); L_T = n + log2 C(n, k)
      rounds once more, and so does the difference L_i - L_T.  Each of
      these is at most |L_T| <= 2n + 1 in size, so the difference is off by
      at most 2 (2^-52 / ln 2 + 2^-47) + 2 ulp(2n + 1).
    - The product rounds once: relative error u.

    The weights sum to 1 and sum_i W_i |L_i - L_T| = e_in, so the terms'
    errors add to at most 2u e_in plus the difference's bound above.  The
    terms are non-negative and added one by one, left to right (n
    additions after the first), so the sum adds at most n u (1 + n u) e_in
    (Higham, sec. 4.2).  The first-order total, with one more u e_in for the
    second-order products, is

        (n + 3) u e_in + 2 (2^-52 / ln 2 + 2^-47) + 2 ulp(2n + 1),

    taken here with e_in = e + 1e-9 (e is within far less of e_in)."""
    u = 2.0**-53
    e_abs = abs(e) + 1e-9
    return ((n + 3) * u * (1 + n * u) * e_abs
            + 2 * (2.0**-52 / math.log(2) + 2.0**-47) + 2 * math.ulp(2.0 * n + 1))


def decimal_codeword_entropy(count: int, n: int) -> Decimal:
    """codeword_entropy(count, n) in 60-digit Decimal, by the same formula
    over the same integers, _walsh_roots' (mult, |W|):

        H = [ln T - sum mult W^2 ln(W^2) / T] / ln 2 + n - m,

    m = ceil(log2 count), T = count 2^m.  The weights mult W^2 / T sum to 1
    exactly (Parseval, checked in integers), which takes ln T out of the
    sum.  Each integer is rounded to 60 digits as it enters (relative
    error 5e-60) and every Decimal step rounds to 60 digits (ln
    correctly), so the result is off by far less than 1e-50."""
    roots = _walsh_roots(count)
    m = (count - 1).bit_length()
    total = count << m
    if sum(mult * w * w for mult, w in roots) != total:
        raise ArithmeticError(f"weights of count {count} do not sum to 1")
    with localcontext() as ctx:
        ctx.prec = 60
        num, acc = ctx.create_decimal, Decimal(0)
        for mult, w in roots:
            acc += num(mult * w * w) / num(total) * 2 * num(w).ln()
        return (num(total).ln() - acc) / Decimal(2).ln() + (n - m)


def codeword_entropy_bound(count: int, n: int, h: float) -> float:
    """How far codeword_entropy(count, n), h, may be from the exact entropy,
    u = 2^-53 the unit roundoff.  The library adds the K = len(_walsh_roots
    (count)) terms t_j = -W_j (L_j - L_T), with W_j = mult_j w_j / T,
    w_j = |W|^2, L_j = log2 w_j and L_T = log2 T (T = count 2^m, m = ceil
    (log2 count)), then adds n - m:

    - W_j is the exact ratio rounded once: relative error u.  (A weight
      below 2^-1022 is off by at most 2^-1075 absolute; times |L_j - L_T|
      <= 2m that is below 2^-1050 a term, nothing at this scale.)
    - L_j and log2 count are log2_big's, each within 2^-52 / ln 2 + 2^-47
      + ulp / 2 of its result (exactmath.log2_big); L_T = m + log2 count
      rounds once more, and so does the difference L_j - L_T.  w_j <=
      count^2 and T <= 2^(2m), so each of these is at most 2m in size and
      the difference is off by at most 2 (2^-52 / ln 2 + 2^-47) + 2 ulp(2m).
      This is what grows with the count's bit length: the log2 of a
      weight is a difference of two logs near 2m, so the error is absolute,
      not relative to the entropy.
    - The product rounds once: relative error u.

    The weights sum to 1 and sum_j W_j |L_j - L_T| = H - (n - m) =: H_m, so
    the terms' errors add to at most 2u H_m plus the difference's bound.
    The terms are non-negative and added one by one, left to right (K - 1
    additions after the first), so the sum adds at most (K - 1) u (1 +
    K u) H_m (Higham, sec. 4.2), and adding n - m half an ulp of h.  The
    first-order total, with one more u H_m for the second-order products,
    is

        (K + 2) u H_m + 2 (2^-52 / ln 2 + 2^-47) + 2 ulp(2m) + ulp(h) / 2,

    taken here with H_m = h - (n - m) + 1e-9 (h is within far less)."""
    u = 2.0**-53
    k = len(_walsh_roots(count))
    m = (count - 1).bit_length()
    h_m = abs(h - (n - m)) + 1e-9
    return ((k + 2) * u * (1 + k * u) * h_m + 2 * (2.0**-52 / math.log(2) + 2.0**-47)
            + 2 * math.ulp(2.0 * m) + math.ulp(h) / 2)
