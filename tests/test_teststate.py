"""Closed-form test-state amplitudes, entropies, and slope fits."""

import math
import random
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refsums import (codeword_entropy_bound, decimal_codeword_entropy, decimal_e_in,
                     e_in_bound, inner_sum, squaring_entropy)
from triconc import teststate
from triconc.exactmath import binom, log2_big
from triconc.teststate import (
    TestStateSpec,
    amplitude_table,
    codeword_entropy,
    e_in,
    e_out,
    fit_line,
    gap_scan,
    slope_fit,
)


def _entropy_reference(table) -> float:
    """The entropy sum written out inline, in the order every pinned
    dataset was computed with; AmplitudeTable.entropy must match it bit
    for bit."""
    n, cnk = table.n, table.s[0]
    denom = (1 << n) * cnk
    log2_denom = n + log2_big(cnk)
    total = 0.0
    for i, si in enumerate(table.s):
        if si == 0:
            continue
        sq = si * si
        weight = (binom(n, i) * sq) / denom  # exact int ratio -> nearest float
        total -= weight * (log2_big(sq) - log2_denom)
    return total


class TestSpecValidation:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            TestStateSpec(n=0, k=0)
        with pytest.raises(ValueError):
            TestStateSpec(n=3, k=4)
        with pytest.raises(ValueError):
            TestStateSpec(n=3, k=-1)
        # a count must be an integer, stored as a plain int
        with pytest.raises(ValueError, match="n must be an integer"):
            TestStateSpec(4.0, 2)
        with pytest.raises(ValueError, match="k must be an integer"):
            TestStateSpec(4, 2.0)
        # operator.index takes True as 1; a bool is no count here
        with pytest.raises(ValueError, match="n must be an integer"):
            TestStateSpec(True, False)
        spec = TestStateSpec(np.int64(4), np.int64(2))
        assert spec == (4, 2) and type(spec.n) is type(spec.k) is int


class TestAmplitudeTable:
    def test_worked_example_n4_k1(self):
        table = amplitude_table(TestStateSpec(4, 1))
        assert table.s == (4, 2, 0, -2, -4)
        assert table.xi_sq == (
            Fraction(1, 4),
            Fraction(1, 16),
            Fraction(0),
            Fraction(1, 16),
            Fraction(1, 4),
        )
        # 2^4 * C(4,1) = 64 is a perfect square, so the signed amplitudes
        # themselves are exact rationals here: (1/2, 1/4, 0, -1/4, -1/2)
        root = math.isqrt(16 * 4)
        assert root * root == 16 * 4
        signed = [Fraction(v, root) for v in table.s]
        assert signed == [
            Fraction(1, 2),
            Fraction(1, 4),
            Fraction(0),
            Fraction(-1, 4),
            Fraction(-1, 2),
        ]

    def test_single_pair(self):
        table = amplitude_table(TestStateSpec(1, 0))
        assert table.xi_sq == (Fraction(1, 2), Fraction(1, 2))

    def test_n2_k1_signs(self):
        table = amplitude_table(TestStateSpec(2, 1))
        assert table.xi_sq == (Fraction(1, 2), Fraction(0), Fraction(1, 2))
        assert table.s[0] > 0 and table.s[1] == 0 and table.s[2] < 0

    def test_exact_normalization_all_k_to_n40(self):
        for n in range(1, 41):
            for k in range(n + 1):
                table = amplitude_table(TestStateSpec(n, k))
                assert table.normalization() == 1
                assert sum(binom(n, i) * q for i, q in enumerate(table.xi_sq)) == 1
                assert all(q >= 0 for q in table.xi_sq)

    def test_normalization_method_matches_integer_identity(self):
        table = amplitude_table(TestStateSpec(12, 5))
        lhs = sum(binom(12, i) * s * s for i, s in enumerate(table.s))
        assert lhs == (1 << 12) * binom(12, 5)


class TestEntropies:
    def test_worked_example_values(self):
        assert abs(e_in(TestStateSpec(4, 1)) - 3.0) < 1e-12
        assert abs(e_out(TestStateSpec(4, 1)) - 2.0) < 1e-12

    def test_two_pair_values(self):
        assert abs(e_in(TestStateSpec(2, 1)) - 1.0) < 1e-12
        assert abs(e_out(TestStateSpec(2, 1)) - 1.0) < 1e-12

    def test_all_theta_is_n_bell_pairs(self):
        for n in (1, 3, 7, 25):
            assert abs(e_in(TestStateSpec(n, 0)) - n) < 1e-12
            assert abs(e_out(TestStateSpec(n, 0)) - n) < 1e-12

    def test_e_in_by_reciprocity_without_recurrence(self):
        # Reciprocity C(n,i) S_i(n,k) = C(n,k) S_k(n,i) turns the weight
        # C(n,i) xi_i^2 into S_k(n,i) S_i(n,k) / 2^n: both factors come from
        # the direct inner_sum, so neither C(n,i) nor the recurrence behind
        # amplitude_table enters this route.
        configs = [(n, k) for n in range(1, 41) for k in range(n + 1)]
        configs += [(n, k) for n in (100, 200, 300)
                    for k in (1, 7, n // 5, n // 3, n // 2, n - 2)]
        worst = 0.0
        for n, k in configs:
            log2_norm = n + math.log2(math.comb(n, k))
            total = 0.0
            for i in range(n + 1):
                s = inner_sum(n, k, i)
                if s:
                    weight = s * inner_sum(n, i, k) / (1 << n)
                    total -= weight * (2 * math.log2(abs(s)) - log2_norm)
            worst = max(worst, abs(total - e_in(TestStateSpec(n, k))))
        assert worst < 1e-12, worst

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 400).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))))
    def test_entropy_bit_identical_to_reference(self, nk):
        table = amplitude_table(TestStateSpec(*nk))
        assert table.entropy() == _entropy_reference(table)

    @pytest.mark.parametrize("n,k", [(1, 1), (3, 1), (3, 2), (7, 7), (99, 33),
                                     (1999, 333), (2001, 1000), (2001, 1001)])
    def test_entropy_bit_identical_at_odd_n_and_k(self, n, k):
        # odd n has no middle weight; odd k flips the sign of every mirror S_i
        table = amplitude_table(TestStateSpec(n, k))
        assert table.entropy() == _entropy_reference(table)

    def test_entropy_bit_identical_sampled_to_n3000(self):
        # at these n nearly every weight is decided from its leading bits
        rng = random.Random(3000)
        for n in sorted(rng.sample(range(400, 3001), 6)):
            table = amplitude_table(TestStateSpec(n, rng.randrange(n + 1)))
            assert table.entropy() == _entropy_reference(table), (n, table.k)

    def test_entropy_bit_identical_with_half_the_weights_zero(self):
        # at p = 1/2 every odd-weight S_i vanishes: 1000 of 2001 at n = 2000
        table = amplitude_table(TestStateSpec(2000, 1000))
        assert sum(1 for v in table.s if v == 0) == 1000
        assert table.entropy() == _entropy_reference(table)

    def test_squaring_reference_is_the_exact_sum(self):
        # tests/refsums.py's squaring route, the reference below, against
        # the exact ratio at every weight
        configs = [(n, k) for n in range(1, 41) for k in range(n + 1)]
        configs += [(1200, 600), (1201, 300), (1500, 1499)]
        for n, k in configs:
            assert squaring_entropy(n, k) == _entropy_reference(
                amplitude_table(TestStateSpec(n, k))), (n, k)

    def test_e_in_bit_identical_to_squaring_sampled_to_n20000(self):
        # most S_i here are wide, cut to their leading bits and never
        # squared; the squaring route squares every one of them.  At
        # k = n / 2 e_in steps two weights at a time, and the middle weight
        # is its own mirror at n = 0 (mod 4) and odd and zero at n = 2
        # (mod 4); the squaring route takes every weight from the table
        rng = random.Random(20000)
        cases = [(20000, 16000), (12345, 6173), (10000, 5000), (19998, 9999), (20000, 10000)]
        cases += [(n, rng.randrange(n + 1)) for n in sorted(rng.sample(range(3000, 10001), 4))]
        halves = [(n, n // 2) for n in range(2, 401, 2)]
        for n, k in cases + halves:
            assert e_in(TestStateSpec(n, k)) == squaring_entropy(n, k), (n, k)
        for spec in [TestStateSpec(*nk) for nk in [cases[1]] + halves]:
            assert amplitude_table(spec).entropy() == e_in(spec), spec

    def test_e_in_within_derived_bound_of_decimal(self):
        # tests/refsums.py's 60-digit Decimal entropy shares no float step
        # with e_in, so agreement here is not by construction; e_in_bound
        # derives how far apart the two may be.  (49, 17) and (94, 33) were
        # the worst cases seen below n = 120, at 5.3 and 6.9 ulp
        rng = random.Random(4000)
        configs = [(n, k) for n in range(1, 41) for k in range(n + 1)]
        configs += [(49, 17), (94, 33), (120, 40), (200, 160), (500, 250),
                    (1000, 800), (2000, 1000)]
        configs += [(n, n // 2) for n in range(42, 401, 2)]  # every even n <= 400 at k = n / 2
        configs += [(n, rng.randrange(n + 1)) for n in rng.sample(range(41, 600), 4)]
        for n, k in configs:
            e = e_in(TestStateSpec(n, k))
            err = abs(Decimal(e) - decimal_e_in(n, k))
            assert err <= Decimal(e_in_bound(n, e)), (n, k, err)

    def test_bounds(self):
        for n in range(1, 61, 7):
            for k in range(0, n + 1, 3):
                spec = TestStateSpec(n, k)
                assert -1e-12 <= e_in(spec) <= n + 1e-9
                assert -1e-12 <= e_out(spec) <= n + 1e-9


def _wht(count: int) -> np.ndarray:
    """The Walsh-Hadamard transform of the indicator of [0, count) on
    ceil(log2 count) bits, by numpy int64 butterflies."""
    m = (count - 1).bit_length()
    w = np.zeros(1 << m, dtype=np.int64)
    w[:count] = 1
    for a in range(m):
        v = w.reshape(-1, 2, 1 << a)
        w = np.stack([v[:, 0] + v[:, 1], v[:, 0] - v[:, 1]], axis=1).reshape(-1)
    return w


def _wht_entropy_reference(count: int, n: int) -> float:
    """codeword_entropy by the full transform, with numpy's pairwise float
    sum in place of the ordered one."""
    m = (count - 1).bit_length()
    w = _wht(count)
    p = w[w != 0].astype(np.float64) ** 2 / float(count << m)
    return float(-np.sum(p * np.log2(p))) + (n - m)


class TestCodewordEntropy:
    def test_power_of_two_counts_exact_to_n40(self):
        # all 2^j codewords are a product on j pairs: no codebook entropy
        for n in range(1, 41):
            for j in range(min(n, 10) + 1):
                assert codeword_entropy(2**j, n) == n - j, (j, n)

    def test_tail_additivity_to_n40(self):
        # each pair past the m codeword pairs is a theta pair, one more ebit
        for count in list(range(1, 129)) + [binom(12, 6)]:
            m = (count - 1).bit_length()
            base = codeword_entropy(count, m)
            for n in sorted({m + 1, m + 2, m + 3, 40}):
                assert abs(codeword_entropy(count, n) - (base + n - m)) < 1e-12, (count, n)

    def test_walsh_squares_match_the_transform(self):
        # the closed form gives the transform's nonzero |W|, each as often
        # as the transform has it, for every count below 3000
        for count in range(1, 3000):
            values, mults = np.unique(_wht(count) ** 2, return_counts=True)
            want = {int(v): int(c) for v, c in zip(values, mults) if v}
            got: dict[int, int] = {}
            for mult, root in teststate._walsh_roots(count):
                got[root * root] = got.get(root * root, 0) + mult
            assert got == want, count

    def test_all_ones_but_one_past_the_transform(self):
        # count = 2^m - 1: W(0) = count and every other |W(b)| = 1, so the
        # probabilities are count / 2^m once and 1 / (count 2^m) count
        # times; m = 100 is far past any 2^m-entry transform
        for m in (2, 10, 100):
            count = 2**m - 1
            expected = (-(count / 2**m) * math.log2(count / 2**m)
                        + (m + math.log2(count)) / 2**m)
            assert abs(codeword_entropy(count, m + 5) - (expected + 5)) < 1e-12, m

    def test_matches_numpy_transform_past_the_dense_cap(self):
        # n = 11..18 is past the dense oracle's 10 pairs.  Both routes sum
        # 2^m terms of size at most n - m in different orders.
        for n in range(11, 19):
            for count in (binom(n, 3), binom(n, n // 2), (1 << (n - 3)) + 5):
                m = (count - 1).bit_length()
                got = codeword_entropy(count, n)
                assert abs(got - _wht_entropy_reference(count, n)) <= 2**m * n * 2**-52

    def test_within_derived_bound_of_decimal(self):
        # tests/refsums.py's 60-digit Decimal form of the same sum over the
        # same integers; codeword_entropy_bound derives the distance from
        # per-term rounding, log2_big's error and the ordered sum.  The
        # error is absolute and grows with the count's bit length: about
        # 6e-13 at 3000 bits, where each log2 is a difference near 6000
        rng = random.Random(3000)
        counts = [(c, (c - 1).bit_length() + extra)
                  for c in range(1, 300) for extra in (0, 3)]
        for bits in (20, 64, 200, 1000, 3000):
            counts += [(rng.getrandbits(bits) | 1 << (bits - 1), bits + 1)
                       for _ in range(6 if bits < 3000 else 2)]
        counts += [(2**3000 - 1, 3000), (2**2999 + 1, 3000), (2**3000 // 3, 3000)]
        for count, n in counts:
            h = codeword_entropy(count, n)
            err = abs(Decimal(h) - decimal_codeword_entropy(count, n))
            assert err <= Decimal(codeword_entropy_bound(count, n, h)), (count, n, err)

    def test_entropy_of_ten_codewords_on_four_pairs(self):
        # the prefix-set value ubc_codebook's docstring quotes
        assert round(codeword_entropy(10, 4), 3) == 1.706
        # and a worked residual state: codewords 0..4 on three pairs are
        # four theta-prefixed strings, which sum to 2|theta,00,00>, and
        # |tau,theta,theta>; (2|theta,00,00> + |tau,theta,theta>)/sqrt5
        # has Schmidt probabilities (5/8, 9/40, 1/40 x6)
        expected = -((5 / 8) * math.log2(5 / 8) + (9 / 40) * math.log2(9 / 40)
                     + 6 * (1 / 40) * math.log2(1 / 40))
        assert abs(codeword_entropy(5, 3) - expected) < 1e-12

    def test_entropy_validation(self):
        for count, n in ((0, 3), (2**3 + 1, 3)):
            with pytest.raises(ValueError, match="count"):
                codeword_entropy(count, n)


class TestGapScan:
    def test_single_point_p08(self):
        (report,) = gap_scan(0.8, [5])
        assert report.k == 4
        assert abs(report.e_out - (5 - math.log2(5))) < 1e-12
        assert abs(report.gap - (report.e_in - report.e_out)) < 1e-15

    def test_p05_n2_zero_gap(self):
        (report,) = gap_scan(0.5, [2])
        assert abs(report.gap) < 1e-12

    def test_rejects_non_integral_np(self):
        with pytest.raises(ValueError, match="integer"):
            gap_scan(0.8, [3])

    def test_gap_increases_with_n(self):
        reports = gap_scan(0.8, list(range(5, 105, 5)))
        gaps = [r.gap for r in reports]
        assert all(b > a for a, b in zip(gaps, gaps[1:]))

    def test_one_binomial_per_point(self, monkeypatch):
        # e_in and e_out share the C(n, k) that starts the recurrence, and
        # give the floats e_in(spec) and e_out(spec) give.
        ns = [1, 2, 7, 40, 333, 1200]
        for p in (0.0, 1 / 3, 0.5, 1.0):
            grid = [n for n in ns if abs(n * p - round(n * p)) < 1e-9]
            specs = [TestStateSpec(n, round(n * p)) for n in grid]
            expected = [(s.n, s.k, e_in(s), e_out(s)) for s in specs]
            calls = []
            comb = math.comb

            def counting(n, k):
                calls.append((n, k))
                return comb(n, k)

            with monkeypatch.context() as patch:
                patch.setattr(math, "comb", counting)
                reports = gap_scan(p, grid)
            assert calls == [(s.n, s.k) for s in specs]
            assert [tuple(r) for r in reports] == expected


class TestFits:
    def test_exact_line_recovered(self):
        pts = [(float(n), 0.37 * n) for n in range(1, 9)]
        slope, intercept, residual = fit_line(pts)
        assert abs(slope - 0.37) < 1e-12
        assert abs(intercept) < 1e-10
        assert residual < 1e-12

    def test_requires_three_points(self):
        with pytest.raises(ValueError):
            fit_line([(1.0, 1.0), (2.0, 2.0)])
        with pytest.raises(ValueError):
            slope_fit(0.5, [2, 4])

    def test_slope_fit_is_fit_line_of_gap_scan(self):
        ns = [10, 20, 30, 40]
        expected = fit_line([(r.n, r.gap) for r in gap_scan(0.5, ns)])
        assert slope_fit(0.5, ns) == expected  # bit for bit

    def test_fit_independent_of_builtin_sum(self, compensated_sum):
        # the fig3 row at p = 1/2, n <= 500 as its JSON form prints it;
        # a compensated sum moves both floats (slope 0.5566575383147027)
        slope, _, residual = slope_fit(0.5, list(range(2, 501, 2)))
        assert (slope, residual) == (0.556657538314703, 0.10496627065657309)

    def test_symmetric_p_gives_identical_fit(self):
        # relabeling theta <-> tau flips amplitude signs only
        up_slope, _, up_residual = slope_fit(0.8, list(range(5, 105, 5)))
        down_slope, _, down_residual = slope_fit(0.2, list(range(5, 105, 5)))
        assert abs(up_slope - down_slope) < 1e-9
        assert abs(up_residual - down_residual) < 1e-9
