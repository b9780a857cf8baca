"""Unit tests for the exact combinatorics layer.

Expected values come from independent oracles built in the tests
themselves: an additive Pascal triangle for binomials, a log-sum of
factorial ratios for big logarithms, and 60-digit Decimal arithmetic
for entropies.  Binomial rows are checked against math.comb, and
ordered_sum against a compensated sum that would round differently.
"""

import math
import random
from collections import Counter
from decimal import Decimal, getcontext, localcontext
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from refsums import inner_sum
from triconc import exactmath
from triconc.exactmath import (
    binom,
    binomial_row,
    cut,
    entropy_terms,
    inner_sum_table,
    log2_big,
    log2_bracket,
    ordered_sum,
    shannon_h,
    weight_classes,
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
    """The per-term entropy by the squaring path: every root squared, and
    every weight the exact int ratio (mult * w) / T rounded once, as hex
    strings (bit for bit, signed zeros apart); a zero root gives 0.0."""
    total_w = count << shift
    log2_total = shift + log2_big(count)
    out = []
    for mult, root in terms:
        w = root * root
        out.append((-((mult * w) / total_w * (log2_big(w) - log2_total))).hex()
                   if w else (0.0).hex())
    return out


def _test_state_terms(n, k):
    """entropy_terms' input for the (n, k) test state: (C(n, i), S_i) for
    i <= n // 2, and count C(n, k), shift n."""
    s = inner_sum_table(n, k)
    row = binomial_row(n)
    return list(zip(row, s[:n // 2 + 1])), s[0], n


class _Root(int):
    """A root that records how entropy_terms used it: squared (root * root,
    a _Square) and, if so, whether that square entered the exact ratio
    (mult * w).  A wide root cut to its leading bits is neither."""

    def __new__(cls, value):
        self = super().__new__(cls, value)
        self.squared = self.ratio = False
        return self

    def __mul__(self, other):
        self.squared = True
        square = _Square(int(self) * int(other))
        square.root = self
        return square

    __rmul__ = __mul__


class _Square(int):
    def __mul__(self, other):
        self.root.ratio = True
        return int(self) * int(other)

    __rmul__ = __mul__


def _branches(tracked):
    """Counts of the paths the _Root entries of tracked (mult, root) pairs
    took: "cut" decided from the leading bits alone, "log2" squared only
    for log2_big, "weight" squared for the exact ratio."""
    roots = [r for _, r in tracked if isinstance(r, _Root)]
    return Counter("weight" if r.ratio else "log2" if r.squared else "cut" for r in roots)


def _track_wide(terms):
    """terms with every root that entropy_terms brackets and cuts (wider
    than _TOP_BITS, and its term at least _MIN_BRACKET_BITS wide) a _Root."""
    top, min_bits = exactmath._TOP_BITS, exactmath._MIN_BRACKET_BITS
    return [(m, _Root(r) if r.bit_length() > top
             and m.bit_length() + 2 * r.bit_length() >= min_bits else r)
            for m, r in terms]


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

    def test_within_derived_bound_of_decimal(self):
        # log2_big's bound (its docstring derives it): 2^-52 / ln 2 for the
        # mantissa, one ulp of log2 on [53, 54) and half an ulp of the
        # result, against 60-digit Decimal logarithms of random integers
        # of 60 to 20 000 bits; the bound's own rounding is ~1e-16 relative
        rng = random.Random(0x1062)
        with localcontext() as ctx:
            ctx.prec = 60
            ln2 = Decimal(2).ln()
            for bits in (60, 64, 100, 1000, 6000, 20000):
                for _ in range(200):
                    x = rng.getrandbits(bits) | 1 << (bits - 1)
                    got = log2_big(x)
                    bound = 2**-52 / math.log(2) + 2**-47 + math.ulp(got) / 2
                    err = abs(Decimal(got) - Decimal(x).ln() / ln2)
                    assert err <= Decimal(bound), (bits, x)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            log2_big(0)
        with pytest.raises(ValueError):
            log2_big(-5)

    def test_is_the_exact_bracket_of_x(self):
        # log2_big(x) is log2_bracket(x, x), and both are the 54-bit rule
        # its docstring states: log2(x) to 53 bits, shift + log2(x >> shift)
        # past them, shift = bit length - 54
        rng = random.Random(0x54)
        for bits in [*range(1, 200), 1000, 6000, 20000]:
            for x in (1 << bits - 1, (1 << bits) - 1, rng.getrandbits(bits) | 1 << bits - 1):
                shift = bits - 54
                rule = math.log2(x) if bits <= 53 else shift + math.log2(x >> shift)
                assert log2_big(x) == log2_bracket(x, x) == rule, x


def _top54(x):
    """The leading 54 bits of the positive integer x (all of them if fewer)."""
    return x >> max(x.bit_length() - 54, 0)


@st.composite
def _brackets(draw, max_bits=400):
    """(lo, hi, e) with 0 < lo <= hi and e >= 0: hi = lo + a gap that is
    either a few units or up to lo itself."""
    lo = draw(st.integers(1, 2**draw(st.integers(1, max_bits))))
    gap = draw(st.one_of(st.integers(0, 4), st.integers(0, lo - 1)))
    return lo, lo + gap, draw(st.integers(0, 200))


class TestBrackets:
    """cut and log2_bracket, the two helpers through which the batching
    walk decides D_M from a bracket lo 2^e <= D_M <= hi 2^e."""

    @settings(max_examples=500, deadline=None)
    @given(bracket=_brackets(), bits=st.integers(4, 200), at=st.floats(0.0, 1.0))
    # near the widest cut: lo at the bottom of its range, all of its cut
    # bits set, and hi just past a power of two
    @example(bracket=(2**26 + 2**21 - 1, 2**27 + 1, 0), bits=8, at=0.5)
    def test_cut_holds_d_and_widens_under_its_bound(self, bracket, bits, at):
        # the cut bracket still holds every D of the old one, hi is at most
        # bits wide (or 2^bits, where rounding it up carries; 61 cut to 4
        # bits is 16 * 2^2), and (hi < 2 lo) ln(hi / lo) grows by under
        # 2^-(bits-3): by at most x1 + x2, hi growing by 1 + x1 and lo
        # shrinking by 1 + x2
        lo, hi, e = bracket
        d = (lo << e) + int(at * ((hi - lo) << e))
        c_lo, c_hi, c_e = cut(lo, hi, e, bits)
        assert c_lo << c_e <= lo << e <= d <= hi << e <= c_hi << c_e
        assert c_hi.bit_length() <= bits or c_hi == 1 << bits
        if hi.bit_length() <= bits:
            assert (c_lo, c_hi, c_e) == (lo, hi, e)
        shift = c_e - e
        x1 = Fraction((c_hi << shift) - hi, hi)
        x2 = Fraction(lo - (c_lo << shift), c_lo << shift)
        assert x1 + x2 < Fraction(8, 2**bits)

    @settings(max_examples=500, deadline=None)
    @given(bracket=_brackets(), at=st.floats(0.0, 1.0))
    def test_log2_bracket_is_log2_big_of_both_ends(self, bracket, at):
        # a float wherever both ends have one bit length and leading 54 bits,
        # log2_big of them and of every D between; None everywhere else
        lo, hi, e = bracket
        ends = lo << e, hi << e
        d = ends[0] + int(at * (ends[1] - ends[0]))
        got = log2_bracket(lo, hi, e)
        same = (ends[0].bit_length() == ends[1].bit_length()
                and _top54(ends[0]) == _top54(ends[1]))
        assert (got is not None) == same
        if same:
            assert got == log2_big(ends[0]) == log2_big(ends[1]) == log2_big(d)

    def test_log2_bracket_at_54_bits(self):
        top = 1 << 53
        assert log2_bracket(top, top + 1) is None  # 54 bits each, differing in the last
        assert log2_bracket(top << 1, (top << 1) + 1) == 54.0  # 55: the last is dropped
        assert log2_bracket(top - 1, top) is None  # across a power of two
        assert log2_bracket(3, 3, 100) == log2_big(3 << 100)


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
        # n // 2 checked divisions, whatever the parity of n and k, and
        # half as many at n = 2k, one per even weight past 0 up to n // 2
        divisions = []

        def counting_divmod(a, b):
            divisions.append(b)
            return divmod(a, b)

        monkeypatch.setattr(exactmath, "divmod", counting_divmod, raising=False)
        for n, k in ((0, 0), (1, 1), (7, 3), (8, 3), (9, 4), (2, 1), (8, 4), (10, 5)):
            divisions.clear()
            assert inner_sum_table(n, k) == [inner_sum(n, k, i) for i in range(n + 1)]
            if n == 2 * k:
                assert divisions == [n - i - 1 for i in range(0, n // 2 - 1, 2)]
            else:
                assert divisions == [n - i for i in range(n // 2)]

    @pytest.mark.parametrize("n", list(range(0, 201, 2)) + [2000, 5000])
    def test_two_step_values_against_closed_form(self, n):
        # at n = 2k = 2m, S_2j = (-1)^j C(m, j) C(n, m) / C(n, 2j) and every
        # odd S_i is 0: math.comb alone, no recurrence.  weight_classes
        # yields the even weights only, each with its C(n, i)
        m, want = n // 2, [0] * (n + 1)
        row = {i: math.comb(n, i) for i in range(0, m + 1, 2)}  # C(n, n - i) = C(n, i)
        centre = math.comb(n, m)
        for j in range(m + 1):
            q, r = divmod(math.comb(m, j) * centre, row[min(2 * j, n - 2 * j)])
            assert not r, (n, j)
            want[2 * j] = -q if j & 1 else q
        assert inner_sum_table(n, m) == want
        assert list(weight_classes(n, m)) == [(c, want[i]) for i, c in row.items()]


class TestExactEntropy:
    def test_against_decimal(self):
        # {3/8 x2, 1/24 x6}: weights 9 x2 and 1 x6 over T = 3 << 3
        getcontext().prec = 60
        ln2 = Decimal(2).ln()
        expected = -sum(m * Decimal(w) / 24 * (Decimal(w) / 24).ln() / ln2
                        for m, w in ((2, 9), (6, 1)))
        got = ordered_sum(entropy_terms([(2, 3), (6, 1)], 3, 3))
        assert abs(got - float(expected)) < 1e-15
        assert entropy_terms([(2, -3), (5, 0), (6, 1)], 3, 3) == entropy_terms(
            [(2, 3), (6, 1)], 3, 3)[:1] + [0.0] + entropy_terms([(6, 1)], 3, 3)

    def test_total_past_float_range(self):
        # T = 2^1100 overflows a float, and w/T = 2^-1100 underflows one
        assert ordered_sum(entropy_terms([(1 << 1100, 1)], 1, 1100)) == 1100.0
        half = [(2, 1 << 549), (1 << 1099, 1)]  # 2 * 2^-2 + 2^1099 * 2^-1100
        assert abs(ordered_sum(entropy_terms(half, 1, 1100)) - (1 + 1100 / 2)) < 1e-12

    def test_bit_identical_to_exact_weights_every_k_below_n120(self, monkeypatch):
        # every term is bracketed here, however narrow its integers, and
        # every root wider than _TOP_BITS is cut, never squared up front: at
        # 64 bits the weight and log2 brackets straddle about once in 600
        # cut roots each, at 56 bits on most of them
        monkeypatch.setattr(exactmath, "_MIN_BRACKET_BITS", 0)
        for top in (64, 56):
            monkeypatch.setattr(exactmath, "_TOP_BITS", top)
            branches = Counter()
            for n in range(1, 120):
                for k in range(n + 1):
                    terms, count, shift = _test_state_terms(n, k)
                    tracked = _track_wide(terms)
                    got = [t.hex() for t in entropy_terms(tracked, count, shift)]
                    assert got == _exact_terms(terms, count, shift), (n, k, top)
                    branches += _branches(tracked)
            assert min(branches["cut"], branches["log2"], branches["weight"]) > 0, branches
            assert (branches["cut"] < branches["log2"] + branches["weight"]) == (top == 56)

    def test_bit_identical_to_exact_weights_sampled_to_n3000(self):
        rng = random.Random(20261019)
        cases = [(3000, 1500), (3000, 2400), (2999, 1)]
        cases += [(n, rng.randrange(n + 1))
                  for n in (rng.randrange(120, 3001) for _ in range(25))]
        branches = Counter()
        for n, k in cases:
            terms, count, shift = _test_state_terms(n, k)
            tracked = _track_wide(terms)
            got = [t.hex() for t in entropy_terms(tracked, count, shift)]
            assert got == _exact_terms(terms, count, shift), (n, k)
            branches += _branches(tracked)
        # the wide roots of these states: most are never squared, and the
        # zero and subnormal weights of the widest ones are among them
        assert branches["cut"] > 20 * (branches["log2"] + branches["weight"]), branches
        assert branches["log2"] + branches["weight"] > 0, branches

    def test_narrow_bracket_falls_back_to_the_exact_ratio(self, monkeypatch):
        # 8 leading bits bracket a weight to ~1e-2, never to one float:
        # every term takes the exact product, and still matches
        n, k = 1000, 350
        terms, count, shift = _test_state_terms(n, k)
        terms = [(m, r) for m, r in terms if m.bit_length() > 64 and r]
        assert all(m.bit_length() + 2 * r.bit_length() >= exactmath._MIN_BRACKET_BITS
                   and r.bit_length() > exactmath._TOP_BITS for m, r in terms)
        want = _exact_terms(terms, count, shift)
        for top in (64, 8):
            monkeypatch.setattr(exactmath, "_TOP_BITS", top)
            tracked = _track_wide(terms)
            got = [t.hex() for t in entropy_terms(tracked, count, shift)]
            exact = sum(r.ratio for _, r in tracked)
            assert got == want and (exact < 0.1 * len(terms) if top == 64
                                    else exact == len(terms))

    def test_leading_bits_log2_is_log2_bracket(self):
        # entropy_terms takes log2(w) of a cut root inline: on every term it
        # settles from leading bits that is log2_bracket of the bracket it
        # squares the cut root to, and every root it squares for log2_big
        # alone is one whose bracket log2_bracket leaves open
        terms, count, shift = _test_state_terms(2000, 800)
        tracked = _track_wide(terms)
        got = entropy_terms(tracked, count, shift)
        total_w, log2_total = count << shift, shift + log2_big(count)
        settled = Counter()
        for (mult, root), term in zip(tracked, got):
            if not isinstance(root, _Root) or root.ratio or not term:
                continue
            e = max(root.bit_length() - exactmath._TOP_BITS, 0)
            s = int(root) >> e
            s = ~s if s < 0 else s
            log2_w = log2_bracket(s * s, (s + 1) * (s + 1), 2 * e)
            if root.squared:
                assert log2_w is None
            else:
                weight = (mult * int(root) ** 2) / total_w
                assert term == -(weight * (log2_w - log2_total))
            settled[root.squared] += 1
        assert settled[False] > 100 * settled[True] > 0, settled

    def test_subnormal_and_underflowing_weights(self):
        # wide operands whose weight is near or below 2^-1022: the bracket
        # agrees, but below 2^-1022 its scaled float would round twice
        rng = random.Random(11)
        count, shift = 3 ** 700 + 1, 1400
        terms = []
        for e in (-1020, -1022, -1023, -1030, -1060, -1074, -1075, -1076, -1200):
            mult = rng.getrandbits(400) | 1 << 399
            target = (count << shift) >> -e  # T * 2^e
            terms.append((mult, math.isqrt(target // mult) + rng.getrandbits(20)))
        tracked = _track_wide(terms)
        assert all(isinstance(r, _Root) for _, r in tracked)
        got = [t.hex() for t in entropy_terms(tracked, count, shift)]
        assert got == _exact_terms(terms, count, shift)
        weights = [(m * r * r) / (count << shift) for m, r in terms]
        assert 0.0 < min(x for x in weights if x) < 2.0 ** -1022 and 0.0 in weights
        assert max(weights) >= 2.0 ** -1022
        # normal weights come from the cut roots, nonzero subnormal ones
        # from the exact ratio, and that of -1200, which the bit lengths
        # alone rule out, from neither
        for (_, r), weight in zip(tracked, weights):
            if weight > 2.0 ** -1022:
                assert not r.squared
            elif weight:
                assert r.ratio
        assert not tracked[-1][1].squared
        # weight 2.5 * 2^-1074 + 2^-1075 / count rounds up to 3 * 2^-1074;
        # rounded to 53 bits first, it would be the tie 2.5 * 2^-1074 and go
        # to 2.  The root 2^400 is cut, and then squared for the exact ratio
        tie = [(5 * count + 1, _Root(1 << 400))]
        got = [t.hex() for t in entropy_terms(tie, count, 2 * 400 + 1075)]
        assert got == _exact_terms(tie, count, 2 * 400 + 1075)
        assert (tie[0][0] << 800) / (count << 2 * 400 + 1075) == 3 * 2.0 ** -1074
        assert tie[0][1].ratio

    def test_weights_at_the_underflow_edge(self):
        # T = 2^3000: operands of 1925 bits in all make a weight under
        # 2^-1075, which rounds to 0.0; at 1926 bits it can round up to the
        # smallest subnormal; 2^-1075 itself is a tie and rounds to 0.0
        terms = [((1 << 963) - 1, (1 << 481) - 1), ((1 << 962) - 1, (1 << 482) - 1),
                 (1 << 963, 1 << 481)]
        assert [m.bit_length() + (r * r).bit_length() for m, r in terms] == [1925, 1926, 1927]
        tracked = _track_wide(terms)
        got = [t.hex() for t in entropy_terms(tracked, 1, 3000)]
        assert got == _exact_terms(terms, 1, 3000)
        assert [(m * r * r) / (1 << 3000) for m, r in terms] == [0.0, 2.0 ** -1074, 0.0]
        # the first is 0.0 by its bit lengths, the others by the exact ratio
        assert [r.squared for _, r in tracked] == [False, True, True]
