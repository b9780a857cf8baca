"""Closed-form entanglement of the Bell-encoded compression test state.

The test state lives on n two-qubit pairs shared between two labs (call
them B and C, one qubit of every pair on each side).  Each pair carries
one of the two Bell signal states (|00> + |11>)/sqrt2 and
(|00> - |11>)/sqrt2, and the state is the uniform superposition of all
C(n, k) placements of k second-kind factors among the n pairs.  The
computational basis is a Schmidt basis across the B|C cut and the
squared Schmidt coefficient of a weight-i string is

    xi_i^2 = S_i^2 / (2^n * C(n, k)),

with S_i the exact alternating sum from :mod:`triconc.exactmath`.  An
:class:`AmplitudeTable` stores only the integers S_i (S_0 = C(n, k)) and
derives the rationals and the normalization from them.  The input
entanglement is the entropy of that spectrum, which e_in (and
AmplitudeTable.entropy) takes in one pass over the (C(n, i), S_i) pairs
of :func:`triconc.exactmath.weight_classes`, holding no table and
squaring no wide S_i; at n = 2k that generator steps two weights at a
time, past the zero odd-weight S_i.  The entropy computes its per-weight
term once for each mirror pair (i, n - i), since S_{n-i} = (-1)^k S_i,
and adds the terms in weight order.  The output entanglement after the
compression relabeling is n - log2 C(n, k) in the power-of-two
idealization.  :func:`codeword_entropy` gives it exactly for the
lexicographic codebook at any C(n, k), and for the residual state that
batching (:mod:`triconc.protocol`) leaves, in O(log2 C(n, k)) terms by
the same per-term values and ordered sum.  Slope fits of the gap are
plain ``(slope, intercept, rms_residual)`` tuples.  The product encoding
|00>/|11>, the reversible control, is a dense-oracle matter
(:class:`triconc.oracle.PairEncoding`): relabeling orthogonal strings
moves no entanglement, so it needs no closed form here.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import TYPE_CHECKING

from ._records import integer, record
from .exactmath import (
    binom,
    binomial_row,
    entropy_terms,
    inner_sum_table,
    log2_big,
    ordered_sum,
    weight_classes,
)

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "TestStateSpec",
    "AmplitudeTable",
    "codeword_entropy",
    "EntanglementReport",
    "amplitude_table",
    "e_in",
    "e_out",
    "gap_scan",
    "fit_line",
    "slope_fit",
]

#: Relative slack when checking that n*p is an integer.
_INTEGRALITY_TOL = 1e-9


class TestStateSpec(record("TestStateSpec", "n k")):
    """n Bell-encoded pairs, k of them in the second-kind state."""

    __slots__ = ()
    __test__ = False  # not a pytest class, despite the name

    def __new__(cls, n: int, k: int) -> TestStateSpec:
        n, k = integer("n", n), integer("k", k)
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        if not 0 <= k <= n:
            raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
        return super().__new__(cls, n, k)


class AmplitudeTable(record("AmplitudeTable", "n k s")):
    """Exact amplitude data of a Bell-encoded test state.

    s[i] is the signed integer inner sum for weight i, and s[0] = C(n, k).
    Everything else is derived on access: xi_sq[i] is the exact rational
    squared amplitude S_i^2 / (2^n * C(n, k)), whose multiplicity-weighted
    sum over all weights is exactly 1, and entropy() is the B|C entropy.
    """

    __slots__ = ()

    @property
    def xi_sq(self) -> tuple[Fraction, ...]:
        from fractions import Fraction  # here: importing the module loads none

        denom = (1 << self.n) * self.s[0]
        return tuple(Fraction(v * v, denom) for v in self.s)

    def normalization(self) -> Fraction:
        """Exact value of sum_i C(n, i) * xi_sq[i]; equals 1 by construction.

        Computed as one integer sum of C(n, i) s[i]^2, reduced once."""
        from fractions import Fraction

        total = sum(c * v * v for c, v in zip(binomial_row(self.n), self.s))
        return Fraction(total, (1 << self.n) * self.s[0])

    def entropy(self) -> float:
        """-sum_i C(n, i) xi_i^2 log2(xi_i^2), in ebits: e_in's float, from
        the pass over weight_classes that fills s."""
        return _spectrum_entropy(self.n, self.k)[0]


def _spectrum_entropy(n: int, k: int) -> tuple[float, int]:
    """The (n, k) test-state entropy and C(n, k), in one pass over the
    (C(n, i), S_i) of weight_classes, which holds no table.

    C(n, n - i) = C(n, i) and S_{n-i} = (-1)^k S_i (the Krawtchouk
    symmetry K_k(n - x) = (-1)^k K_k(x)), so weights i and n - i give
    the same term: each term is computed once, for i <= n // 2, and the
    terms are added in weight order 0..n.  A zero S_i gives the term
    0.0, and so does each odd weight that weight_classes skips at
    n = 2k: every term is >= 0 and the sum starts at +0.0, so leaving
    them out of the ordered sum changes no float."""
    pairs = weight_classes(n, k)
    head = next(pairs)  # (C(n, 0), S_0) = (1, C(n, k))
    count = head[1]
    terms = entropy_terms(chain((head,), pairs), count, n)
    # weights above n / 2 repeat those below it in reverse order; the
    # middle weight n / 2 is its own mirror at even n, and at n = 2k it is
    # skipped unless n = 0 (mod 4), where it is even
    mirrored = terms[:-1] if n % (4 if n == 2 * k else 2) == 0 else terms
    return ordered_sum(terms + mirrored[::-1]), count


def codeword_entropy(count: int, n: int) -> float:
    """Exact B|C entropy (ebits) of the Bell-encoded uniform superposition
    of :func:`triconc.oracle.codewords` ``(count, m, n)``, m = ceil(log2
    count): the relabeled test state at count = C(n, k), and the residual
    batching state.  It is diagonal with amplitude W(b) / sqrt(2^m count)
    on the m leading pairs, W the Walsh-Hadamard transform of the
    indicator of {0, ..., count-1} (Parseval: sum_b W(b)^2 = 2^m count);
    each of the n - m theta pairs adds one ebit.  |W| takes at most m + 1
    values (:func:`_walsh_roots`), so the entropy is O(m) terms for any
    count.  Integers throughout, up to the final logarithm.

    Its error is absolute, not relative to the value, and grows with the
    count's bit length: each term's log2 of a weight is a difference of
    two logs near 2m, each within about an ulp of 2m.  At 3000-bit counts
    it reaches 6.7e-13 for a value of 0.266 (about 12 000 ulp of it);
    tests/refsums.py derives the bound against a 60-digit reference."""
    m = (count - 1).bit_length()
    if count < 1 or m > n:  # 1 <= count <= 2^n without building 2^n
        raise ValueError(f"need 1 <= count <= 2^{n}, got {count}")
    return ordered_sum(entropy_terms(_walsh_roots(count), count, m)) + (n - m)


def _walsh_roots(count: int) -> list[tuple[int, int]]:
    """(multiplicity, |W(b)|) for the nonzero |W| of the Walsh-Hadamard
    transform W(b) = sum_{x < count} (-1)^popcount(x & b) on m = ceil(log2
    count) bits: W(0) = count once, then for each t < m the 2^(m-1-t)
    values of b with t trailing zeros.

    [0, count) is a union of dyadic blocks, one per set bit j of count:
    the 2^j integers that agree with count above bit j, have bit j clear
    and any bits below it.  Let b != 0 have t trailing zeros.  A block
    with j > t varies bit t of x, which b reads, so it sums to 0; a block
    with j <= t varies only bits b does not read, so it sums to +-2^j.
    The blocks with j < t agree with count on every bit b reads and share
    one sign; the block at j = t, if bit t of count is set, has that bit
    clear and the other sign.  So with r = count mod 2^t, |W(b)| = r when
    bit t of count is 0 and 2^t - r when it is 1, whatever b's bits above
    t are."""
    m = (count - 1).bit_length()
    roots = [(1, count)]
    for t in range(m):
        r = count & ((1 << t) - 1)
        w = (1 << t) - r if count >> t & 1 else r
        if w:
            roots.append((1 << (m - 1 - t), w))
    return roots


class EntanglementReport(record("EntanglementReport", "n k e_in e_out")):
    """Input/output entanglement (ebits) of one (n, k) configuration."""

    __slots__ = ()

    def __new__(cls, n: int, k: int, e_in: float, e_out: float) -> EntanglementReport:
        for name, value in (("e_in", e_in), ("e_out", e_out)):
            if not -1e-9 <= value <= n + 1e-9:
                raise ValueError(f"{name} out of [0, n]: {value} at n={n}")
        return super().__new__(cls, n, k, e_in, e_out)

    @property
    def gap(self) -> float:
        return self.e_in - self.e_out


def amplitude_table(spec: TestStateSpec) -> AmplitudeTable:
    """Exact amplitude table of the test state."""
    return AmplitudeTable(n=spec.n, k=spec.k, s=tuple(inner_sum_table(spec.n, spec.k)))


def e_in(spec: TestStateSpec) -> float:
    """Entanglement (ebits) of the test state across the B|C cut: the
    entropy of its xi^2 spectrum, in one pass over the recurrence that
    holds no table."""
    return _spectrum_entropy(spec.n, spec.k)[0]


def e_out(spec: TestStateSpec) -> float:
    """Entanglement (ebits) after the compression relabeling.

    n - log2 C(n, k), exact when C(n, k) is a power of two (all
    information pairs factor out and each trailing Bell pair carries one
    ebit); for other C(n, k) this is the idealized value.  It is a lower
    bound on the output of any injective codebook (the entropic
    uncertainty relation for the Walsh-Hadamard transform), reached at
    powers of two and exceeded elsewhere; the batching construction in
    :mod:`triconc.protocol` covers the exact stochastic treatment.
    """
    return spec.n - log2_big(binom(spec.n, spec.k))


def _k_for(n: int, p: float) -> int:
    k = round(n * p)
    if abs(n * p - k) > _INTEGRALITY_TOL * max(1.0, n):
        raise ValueError(
            f"n*p must be an integer so that k = n*p is exact; "
            f"got n={n}, p={p}, n*p={n * p}"
        )
    return k


def gap_scan(p: float, n_list: list[int]) -> list[EntanglementReport]:
    """Entanglement reports for the test states with k = n*p.

    Every n in n_list must satisfy n*p integer (the scan takes k exactly,
    never averaged over the binomial spread).  Each point gives e_in and
    e_out as e_in(spec) and e_out(spec) do, from one C(n, k): the S_0 that
    starts the recurrence.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability out of [0, 1]: {p}")
    reports = []
    for n in n_list:
        k = _k_for(n, p)
        spec = TestStateSpec(n=n, k=k)
        e, count = _spectrum_entropy(spec.n, spec.k)
        reports.append(EntanglementReport(n=n, k=k, e_in=e, e_out=spec.n - log2_big(count)))
    return reports


def fit_line(points: list[tuple[float, float]]) -> tuple[float, float, float]:
    """Ordinary least squares through (x, y) points.

    Returns (slope, intercept, rms_residual); an exactly linear input
    comes back with zero residual.  Every sum is an ordered_sum, so the
    floats do not depend on the interpreter's built-in sum().
    """
    if len(points) < 3:
        raise ValueError(f"fit needs at least 3 points, got {len(points)}")
    m = len(points)
    mean_x = ordered_sum(x for x, _ in points) / m
    mean_y = ordered_sum(y for _, y in points) / m
    sxx = ordered_sum((x - mean_x) ** 2 for x, _ in points)
    if sxx == 0.0:
        raise ValueError("degenerate fit: all x equal")
    sxy = ordered_sum((x - mean_x) * (y - mean_y) for x, y in points)
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    rss = ordered_sum((y - (slope * x + intercept)) ** 2 for x, y in points)
    return slope, intercept, math.sqrt(rss / m)


def slope_fit(p: float, n_list: list[int]) -> tuple[float, float, float]:
    """:func:`fit_line` of gap(n) over an integer-n*p grid of at least 3
    points: (slope, intercept, rms_residual)."""
    return fit_line([(r.n, r.gap) for r in gap_scan(p, n_list)])
