"""Reference sums shared by the tests: the direct O(n) route to one S_i.

The library computes S_0 .. S_n by a three-term recurrence
(:func:`triconc.exactmath.inner_sum_table`); this is the definition it
is checked against, one alternating binomial sum per weight.
"""

import math


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
