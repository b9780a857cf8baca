"""Unit tests for the exact combinatorics layer.

Expected values come from independent oracles built in the tests
themselves: an additive Pascal triangle for binomials, a log-sum of
factorial ratios for big logarithms, and 60-digit Decimal arithmetic
for entropies.  Binomial rows are checked against math.comb, and
ordered_sum against a compensated sum that would round differently.
"""

import math
import random
from decimal import Decimal, getcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refsums import inner_sum
from triconc import exactmath
from triconc.exactmath import (
    binom,
    binomial_row,
    entropy_terms,
    inner_sum_table,
    log2_big,
    ordered_sum,
    shannon_h,
)


def _pascal_triangle(n_max):
    rows = [[1]]
    for n in range(1, n_max + 1):
        prev = rows[-1]
        rows.append(
            [1] + [prev[j - 1] + prev[j] for j in range(1, n)] + [1]
        )
    return rows


def _h_decimal(p: str) -> float:
    getcontext().prec = 60
    x = Decimal(p)
    y = 1 - x
    ln2 = Decimal(2).ln()
    total = Decimal(0)
    for v in (x, y):
        if v != 0:
            total -= v * v.ln() / ln2
    return float(total)


def _mirror_holds(n, k, upper=None):
    """The table's upper half (or the weights of upper in it) is the
    direct sum S_j of tests/refsums.py, and the mirror (-1)^k S_{n-j}
    of its lower half: the Krawtchouk symmetry the table is filled
    from, and that AmplitudeTable.entropy relies on."""
    s = inner_sum_table(n, k)
    sign = -1 if k & 1 else 1
    if upper is None:
        upper = range(n // 2 + 1, n + 1)
    return len(s) == n + 1 and all(
        s[j] == inner_sum(n, k, j) == sign * s[n - j] for j in upper)


def _exact_terms(terms, count, shift):
    """The per-term entropy with every weight the exact int ratio
    (mult * w) / T rounded once, as hex strings (bit for bit, signed
    zeros apart)."""
    total_w = count << shift
    log2_total = shift + log2_big(count)
    return [(-((mult * w) / total_w * (log2_big(w) - log2_total))).hex()
            for mult, w in terms]


def _test_state_terms(n, k):
    """entropy_terms' input for the (n, k) test state: (C(n, i), S_i^2)
    for the nonzero S_i with i <= n // 2, and count C(n, k), shift n."""
    s = inner_sum_table(n, k)
    row = binomial_row(n)
    return [(row[i], s[i] * s[i]) for i in range(n // 2 + 1) if s[i]], s[0], n


class _CountedInt(int):
    """An int that counts the products it takes part in: the exact weight
    (mult * w) / T multiplies the full mult, the bracket only its top bits
    (mult >> a, a plain int)."""

    products = 0

    def __mul__(self, other):
        _CountedInt.products += 1
        return int(self) * other

    __rmul__ = __mul__


@st.composite
def _n_k_i(draw, n_max):
    n = draw(st.integers(1, n_max))
    return n, draw(st.integers(0, n)), draw(st.integers(0, n))


class TestBinom:
    def test_direct_counts(self):
        assert binom(4, 1) == 4
        assert binom(10, 5) == 252

    def test_boundaries(self):
        for n in (0, 1, 7, 40):
            assert binom(n, 0) == 1
            assert binom(n, n) == 1

    def test_against_pascal_triangle(self):
        rows = _pascal_triangle(200)
        for n in range(201):
            for k in range(n + 1):
                assert binom(n, k) == rows[n][k]

    def test_symmetry(self):
        for n in range(201):
            for k in range(n + 1):
                assert binom(n, k) == binom(n, n - k)

    def test_pascal_recurrence_random(self):
        rng = random.Random(20240817)
        for _ in range(500):
            n = rng.randrange(1, 400)
            k = rng.randrange(0, n + 1)
            lhs = binom(n, k)
            rhs = (binom(n - 1, k - 1) if k >= 1 else 0) + (
                binom(n - 1, k) if k <= n - 1 else 0
            )
            assert lhs == rhs

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            binom(3, 4)
        with pytest.raises(ValueError):
            binom(-1, 0)
        with pytest.raises(ValueError):
            binom(3, -1)


class TestBinomialRow:
    def test_matches_comb_small(self):
        for n in range(301):
            assert binomial_row(n) == [math.comb(n, i) for i in range(n + 1)], n

    @pytest.mark.parametrize("n", [2000, 5000])
    def test_matches_comb_large(self, n):
        assert binomial_row(n) == [math.comb(n, i) for i in range(n + 1)]

    def test_domain_error(self):
        with pytest.raises(ValueError):
            binomial_row(-1)


class TestOrderedSum:
    def test_left_to_right_rounding(self):
        # 1.0 + 1e100 rounds to 1e100; a compensated sum would give 2.0
        assert ordered_sum([1.0, 1e100, 1.0, -1e100]) == 0.0

    def test_same_as_a_plain_loop(self):
        assert ordered_sum([]) == 0.0
        rng = random.Random(7)
        values = [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randrange(-20, 20)
                  for _ in range(1000)]
        total = 0.0
        for v in values:
            total += v
        assert ordered_sum(iter(values)) == total

    def test_ignores_builtin_sum(self, compensated_sum):
        assert sum([1.0, 1e100, 1.0, -1e100]) == 2.0  # the fixture is live
        assert ordered_sum([1.0, 1e100, 1.0, -1e100]) == 0.0


class TestLog2Big:
    def test_one(self):
        assert log2_big(1) == 0.0

    def test_exact_powers(self):
        for k in (1, 10, 53, 54, 100, 1000, 4321):
            assert log2_big(1 << k) == float(k)

    def test_against_log_sum_oracle(self):
        # log2 C(100, 50) = sum log2((50+i)/i), each factor float-exact enough
        expected = sum(math.log2(50 + i) - math.log2(i) for i in range(1, 51))
        assert abs(log2_big(binom(100, 50)) - expected) < 1e-9

    def test_big_value_against_log_sum(self):
        expected = sum(math.log2(700 + i) - math.log2(i) for i in range(1, 301))
        assert abs(log2_big(binom(1000, 300)) - expected) < 1e-8

    def test_domain_error(self):
        with pytest.raises(ValueError):
            log2_big(0)
        with pytest.raises(ValueError):
            log2_big(-5)


class TestShannonH:
    def test_maximal(self):
        assert shannon_h(0.5) == 1.0

    def test_endpoints(self):
        assert shannon_h(0.0) == 0.0
        assert shannon_h(1.0) == 0.0

    def test_against_decimal_oracle(self):
        assert abs(shannon_h(0.8) - _h_decimal("0.8")) < 1e-15
        assert abs(shannon_h(0.9) - _h_decimal("0.9")) < 1e-15
        assert abs(shannon_h(0.8) - 0.721928094887362) < 1e-12

    def test_symmetry(self):
        for i in range(1, 100):
            p = i / 100
            assert abs(shannon_h(p) - shannon_h(1 - p)) < 1e-14

    def test_domain_error(self):
        with pytest.raises(ValueError):
            shannon_h(-0.01)
        with pytest.raises(ValueError):
            shannon_h(1.01)


class TestInnerSum:
    def test_worked_example_n4_k1(self):
        # signed sums behind the amplitude list (1/2, 1/4, 0, -1/4, -1/2)
        assert [inner_sum(4, 1, i) for i in range(5)] == [4, 2, 0, -2, -4]

    def test_all_theta_and_all_tau(self):
        assert all(inner_sum(6, 0, i) == 1 for i in range(7))
        assert all(inner_sum(6, 6, i) == (-1) ** i for i in range(7))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            inner_sum(4, 5, 0)
        with pytest.raises(ValueError):
            inner_sum(4, 1, 5)
        with pytest.raises(ValueError):
            inner_sum(4, -1, 0)

    def test_sign_symmetry(self):
        # S(n, k, n-i) = (-1)^k S(n, k, i)
        for n in range(1, 31):
            for k in range(n + 1):
                for i in range(n + 1):
                    assert inner_sum(n, k, n - i) == (-1) ** k * inner_sum(n, k, i)

    @settings(max_examples=200, deadline=None)
    @given(_n_k_i(300))
    def test_reciprocity(self, nki):
        # C(n,i) S_i(n,k) = C(n,k) S_k(n,i): the Krawtchouk reciprocity
        n, k, i = nki
        assert binom(n, i) * inner_sum(n, k, i) == binom(n, k) * inner_sum(n, i, k)

    def test_exact_normalization_direct_route(self):
        # sum_i C(n,i) S_i^2 == 2^n C(n,k), via the direct alternating sums
        for n in range(1, 31):
            for k in range(n + 1):
                total = sum(
                    binom(n, i) * inner_sum(n, k, i) ** 2 for i in range(n + 1)
                )
                assert total == (1 << n) * binom(n, k)


class TestInnerSumTable:
    def test_matches_direct_everywhere_small(self):
        for n in range(41):
            for k in range(n + 1):
                table = inner_sum_table(n, k)
                assert table == [inner_sum(n, k, i) for i in range(n + 1)]

    @pytest.mark.parametrize("n,k", [(200, 100), (353, 88), (500, 400)])
    def test_matches_direct_spot_checks_large(self, n, k):
        table = inner_sum_table(n, k)
        for i in (0, 1, 2, n // 3, n // 2, n - 1, n):
            assert table[i] == inner_sum(n, k, i)

    @settings(max_examples=100, deadline=None)
    @given(_n_k_i(400))
    def test_matches_direct_at_random_n(self, nki):
        n, k, i = nki
        assert inner_sum_table(n, k)[i] == inner_sum(n, k, i)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            inner_sum_table(4, 5)

    def test_mirror_exhaustive_small(self):
        for n in range(61):
            for k in range(n + 1):
                assert _mirror_holds(n, k), (n, k)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 400).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))))
    def test_mirror_at_random_n(self, nk):
        n, k = nk
        assert _mirror_holds(n, k, {j for j in (n // 2 + 1, (3 * n) // 4, n - 1, n)
                                    if n // 2 < j <= n})

    def test_recurrence_stops_at_half(self, monkeypatch):
        # n // 2 checked divisions, whatever the parity of n and k
        divisions = []

        def counting_divmod(a, b):
            divisions.append(b)
            return divmod(a, b)

        monkeypatch.setattr(exactmath, "divmod", counting_divmod, raising=False)
        for n, k in ((0, 0), (1, 1), (7, 3), (8, 3), (9, 4)):
            divisions.clear()
            assert inner_sum_table(n, k) == [inner_sum(n, k, i) for i in range(n + 1)]
            assert divisions == [n - i for i in range(n // 2)]


class TestExactEntropy:
    def test_against_decimal(self):
        # {3/8 x2, 1/24 x6}: weights 9 x2 and 1 x6 over T = 3 << 3
        getcontext().prec = 60
        ln2 = Decimal(2).ln()
        expected = -sum(m * Decimal(w) / 24 * (Decimal(w) / 24).ln() / ln2
                        for m, w in ((2, 9), (6, 1)))
        got = ordered_sum(entropy_terms([(2, 9), (6, 1)], 3, 3))
        assert abs(got - float(expected)) < 1e-15

    def test_total_past_float_range(self):
        # T = 2^1100 overflows a float, and w/T = 2^-1100 underflows one
        assert ordered_sum(entropy_terms([(1 << 1100, 1)], 1, 1100)) == 1100.0
        half = [(1, 1 << 1099), (1 << 1099, 1)]  # 1/2 + 2^1099 * 2^-1100
        assert abs(ordered_sum(entropy_terms(half, 1, 1100)) - (1 + 1100) / 2) < 1e-12

    def test_bit_identical_to_exact_weights_every_k_below_n120(self, monkeypatch):
        # every weight is bracketed here, however narrow its integers
        monkeypatch.setattr(exactmath, "_MIN_BRACKET_BITS", 0)
        for n in range(1, 120):
            for k in range(n + 1):
                terms, count, shift = _test_state_terms(n, k)
                got = [t.hex() for t in entropy_terms(terms, count, shift)]
                assert got == _exact_terms(terms, count, shift), (n, k)

    def test_bit_identical_to_exact_weights_sampled_to_n3000(self):
        rng = random.Random(20261019)
        cases = [(3000, 1500), (3000, 2400), (2999, 1)]
        cases += [(n, rng.randrange(n + 1))
                  for n in (rng.randrange(120, 3001) for _ in range(25))]
        for n, k in cases:
            terms, count, shift = _test_state_terms(n, k)
            got = [t.hex() for t in entropy_terms(terms, count, shift)]
            assert got == _exact_terms(terms, count, shift), (n, k)

    def test_narrow_bracket_falls_back_to_the_exact_ratio(self, monkeypatch):
        # 8 leading bits bracket a weight to ~1e-2, never to one float:
        # every term takes the exact product, and still matches
        n, k = 1000, 350
        terms, count, shift = _test_state_terms(n, k)
        terms = [(_CountedInt(m), w) for m, w in terms if m.bit_length() > 64]
        assert all(m.bit_length() + w.bit_length() >= exactmath._MIN_BRACKET_BITS
                   for m, w in terms)
        want = _exact_terms(terms, count, shift)
        _CountedInt.products = 0
        got = [t.hex() for t in entropy_terms(terms, count, shift)]
        bracketed = len(terms) - _CountedInt.products
        assert got == want and bracketed > 0.9 * len(terms)
        monkeypatch.setattr(exactmath, "_TOP_BITS", 8)
        _CountedInt.products = 0
        got = [t.hex() for t in entropy_terms(terms, count, shift)]
        assert got == want and _CountedInt.products == len(terms)

    def test_subnormal_and_underflowing_weights(self):
        # wide operands whose weight is near or below 2^-1022: the bracket
        # agrees, but below 2^-1022 its scaled float would round twice
        rng = random.Random(11)
        count, shift = 3 ** 700 + 1, 1400
        terms = []
        for e in (-1020, -1022, -1023, -1030, -1060, -1074, -1075, -1076, -1200):
            mult = rng.getrandbits(600) | 1 << 599
            target = (count << shift) >> -e  # T * 2^e
            terms.append((mult, target // mult + rng.getrandbits(40)))
        # weight 2.5 * 2^-1074 + 2^-1400 rounds up to 3 * 2^-1074; rounded
        # to 53 bits first, it would be the tie 2.5 * 2^-1074 and go to 2
        terms.append((count, (5 << shift - 1075) + 1))
        assert all(m.bit_length() + w.bit_length() >= exactmath._MIN_BRACKET_BITS
                   for m, w in terms)
        got = [t.hex() for t in entropy_terms(terms, count, shift)]
        assert got == _exact_terms(terms, count, shift)
        weights = [(m * w) / (count << shift) for m, w in terms]
        assert weights[-1] == 3 * 2.0 ** -1074
        assert 0.0 < min(x for x in weights if x) < 2.0 ** -1022 and 0.0 in weights
        assert max(weights) >= 2.0 ** -1022

    def test_weights_at_the_underflow_edge(self):
        # T = 2^3000: operands of 1925 bits in all make a weight under
        # 2^-1075, which rounds to 0.0; at 1926 bits it can round up to the
        # smallest subnormal; 2^-1075 itself is a tie and rounds to 0.0
        top = (1 << 963) - 1
        terms = [(top, top >> 1), (top, top), (1 << 962, 1 << 963)]
        assert [m.bit_length() + w.bit_length() for m, w in terms] == [1925, 1926, 1927]
        got = [t.hex() for t in entropy_terms(terms, 1, 3000)]
        assert got == _exact_terms(terms, 1, 3000)
        assert [(m * w) / (1 << 3000) for m, w in terms] == [0.0, 2.0 ** -1074, 0.0]
