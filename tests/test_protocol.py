"""Batching statistics, typical mass, and the residual-state bound."""

import math

import numpy as np
import pytest

from triconc.exactmath import binom
from triconc.oracle import (
    PairEncoding,
    codewords,
    entropy_of,
    schmidt_spectrum,
    superpose_strings,
)
from triconc.protocol import (
    BatchConfig,
    TruncationError,
    gamma_state_direct,
    run_batches,
    sample_k,
    superposition_bound,
    typical_mass,
)


class TestSampleK:
    def test_degenerate_probabilities(self):
        rng = np.random.default_rng(1)
        assert all(sample_k(12, 0.0, rng) == 0 for _ in range(50))
        assert all(sample_k(12, 1.0, rng) == 12 for _ in range(50))

    def test_mean_matches_binomial_moments(self):
        rng = np.random.default_rng(0xC0FFEE)
        draws = [sample_k(100, 0.8, rng) for _ in range(100_000)]
        assert abs(sum(draws) / len(draws) - 80.0) < 0.4

    def test_validation(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError):
            sample_k(0, 0.5, rng)
        with pytest.raises(ValueError):
            sample_k(5, 1.5, rng)


class TestTypicalMass:
    def test_window_covering_everything(self):
        assert abs(typical_mass(40, 0.3, c=40.0) - 1.0) < 1e-12

    def test_single_copy(self):
        assert abs(typical_mass(1, 0.5, c=1.0) - 1.0) < 1e-12

    def test_two_sigma_window_near_95_percent(self):
        # the window is np +- c sqrt(n); at p = 1/2 one sigma is sqrt(n)/2,
        # so c = 1 is the textbook two-sigma ~95% case
        assert abs(typical_mass(100, 0.5, c=1.0) - 0.954) < 0.02

    def test_window_matches_exact_pmf_sum(self):
        # independent route: Fraction-exact pmf sum over the same window
        from fractions import Fraction

        n, p, c = 60, 0.5, 1.0
        half = c * math.sqrt(n)
        lo = max(0, math.ceil(n * p - half))
        hi = min(n, math.floor(n * p + half))
        exact = sum(Fraction(binom(n, k), 2**n) for k in range(lo, hi + 1))
        assert abs(typical_mass(n, p, c) - float(exact)) < 1e-12

    def test_monotone_in_c_and_saturating(self):
        for n, p in [(30, 0.5), (50, 0.8), (17, 0.33)]:
            masses = [typical_mass(n, p, c) for c in (0.5, 1.0, 2.0, 4.0, 8.0)]
            assert all(b >= a - 1e-15 for a, b in zip(masses, masses[1:]))
            assert masses[-1] > 0.9999

    def test_log_space_branch_large_n(self):
        assert typical_mass(2000, 0.5, c=40.0) > 0.999
        one_sigma = typical_mass(2000, 0.5, c=0.5)  # +- sqrt(n)/2 = one sigma
        assert 0.6 < one_sigma < 0.75

    def test_degenerate_p(self):
        assert typical_mass(25, 0.0, c=1.0) == 1.0
        assert typical_mass(25, 1.0, c=1.0) == 1.0

    def test_window_past_float_range(self):
        # c * sqrt(n) overflows to inf; the window still covers every k
        assert typical_mass(25, 0.5, c=1e308) == typical_mass(25, 0.5, c=40.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            typical_mass(10, 0.5, c=0.0)
        for p in (0.0, 0.5, 1.0):
            for c in (math.nan, math.inf):
                with pytest.raises(ValueError, match="need finite c > 0"):
                    typical_mass(25, p, c=c)


class TestRunBatches:
    def test_wide_window_stops_immediately(self):
        cfg = BatchConfig(n=20, p=0.5, epsilon=0.999)
        for run in range(200):
            assert run_batches(cfg, run_index=run).m_batches == 1

    def test_stopping_invariant_many_seeds(self):
        cfg = BatchConfig(n=20, p=0.5, epsilon=0.1)
        for run in range(10_000):
            stats = run_batches(cfg, run_index=run)
            d = 1
            for k in stats.k_list:
                d *= binom(20, k)
            l = d.bit_length() - 1
            assert stats.l == l
            assert (1 << l) <= d <= (1 << l) + math.ceil(0.1 * (1 << l))
            assert stats.eps_prime == (d - (1 << l)) / (1 << l)
            assert 0.0 <= stats.eps_prime <= 0.1
            assert stats.n_total == 20 * stats.m_batches

    def test_reported_fields_are_consistent(self):
        cfg = BatchConfig(n=20, p=0.5, epsilon=0.1, seed=7)
        stats = run_batches(cfg)
        assert stats.m_batches == len(stats.k_list)
        assert abs(stats.gamma_log2 - (stats.l + math.log2(1 + stats.eps_prime))) < 1e-12
        assert stats.gamma_entropy_bound == 2 * (0.1 * stats.n_total + 2)
        codebook_pairs = stats.l if stats.eps_prime == 0 else stats.l + 1
        assert stats.theta_tail_ebits == stats.n_total - codebook_pairs

    def test_batch_count_scale(self):
        # The stopping window has log2-scale width log2(1+eps), so the mean
        # batch count sits between the equidistribution value
        # 1/log2(1+eps) and the 1/eps first-order target (the early steps
        # rarely hit the window, inflating the count above the former).
        for eps in (0.05, 0.1, 0.2):
            cfg = BatchConfig(n=20, p=0.5, epsilon=eps)
            ms = [run_batches(cfg, run_index=r).m_batches for r in range(2000)]
            mean = sum(ms) / len(ms)
            se = np.std(ms, ddof=1) / math.sqrt(len(ms))
            assert 1 / math.log2(1 + eps) - 3 * se < mean < 1 / eps + 3 * se

    def test_expected_tail_tracks_one_minus_h(self):
        cfg = BatchConfig(n=20, p=0.5, epsilon=0.1)
        runs = [run_batches(cfg, run_index=r) for r in range(500)]
        ratio = sum(r.theta_tail_ebits for r in runs) / sum(r.n_total for r in runs)
        # per-copy tail is 1 - log2 C(20, k)/20 on average, a bit above 1 - H(1/2)
        expected = 1 - sum(
            binom(20, k) * math.log2(binom(20, k)) for k in range(21)
        ) / (2**20 * 20)
        assert abs(ratio - expected) < 0.01

    def test_determinism_and_stream_independence(self):
        cfg = BatchConfig(n=20, p=0.5, epsilon=0.1, seed=123)
        a = run_batches(cfg, run_index=5)
        b = run_batches(cfg, run_index=5)
        assert a.k_list == b.k_list
        c = run_batches(cfg, run_index=6)
        assert a.k_list != c.k_list

    def test_truncation_carries_partial_stats(self):
        cfg = BatchConfig(n=20, p=0.5, epsilon=0.001, max_batches=3)
        with pytest.raises(TruncationError) as err:
            run_batches(cfg, run_index=0)
        stats = err.value.stats
        assert stats.m_batches == 3
        assert len(stats.k_list) == 3
        assert stats.eps_prime > 0.001

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BatchConfig(n=0, p=0.5, epsilon=0.1)
        with pytest.raises(ValueError):
            BatchConfig(n=5, p=0.5, epsilon=0.0)
        with pytest.raises(ValueError):
            BatchConfig(n=5, p=0.5, epsilon=1.0)


class TestSuperpositionBound:
    def test_pure_first_branch(self):
        assert superposition_bound(1.0, 1.0, 123.0) == 2.0

    def test_pure_entropy_term(self):
        assert superposition_bound(0.5, 0.0, 0.0) == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            superposition_bound(1.2, 1.0, 1.0)
        with pytest.raises(ValueError):
            superposition_bound(0.5, -1.0, 1.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                superposition_bound(0.5, bad, 1.0)
            with pytest.raises(ValueError, match="finite and nonnegative"):
                superposition_bound(0.5, 1.0, bad)


class TestGammaStateDirect:
    def test_single_branch_is_one_ebit_plus_tail(self):
        for tail in (0, 1, 2):
            for l in (1, 2):
                got = gamma_state_direct(l, 0, tail)
                assert abs(got - (1.0 + tail)) < 1e-9

    def test_worked_case_l2_count1(self):
        # Diagonal expansion of (2|theta,00,00> + |tau,theta,theta>)/sqrt5
        # gives Schmidt probabilities (5/8, 9/40, 1/40 x6).
        expected = -(
            (5 / 8) * math.log2(5 / 8)
            + (9 / 40) * math.log2(9 / 40)
            + 6 * (1 / 40) * math.log2(1 / 40)
        )
        assert abs(gamma_state_direct(2, 1, 0) - expected) < 1e-12

    def test_tail_additivity(self):
        base = gamma_state_direct(3, 2, 0)
        assert abs(gamma_state_direct(3, 2, 2) - (base + 2)) < 1e-9

    def test_bound_chain_small_scale(self):
        # direct E <= 2[a E1 + (1-a) E2 + H(a)] <= 2(eps' N + 2)
        bell = PairEncoding.bell()
        for l in (1, 2, 3):
            for tail in range(0, 5 - 1 - l + 1):
                n_pairs = 1 + l + tail
                for count in range(0, 2**l):
                    direct = gamma_state_direct(l, count, tail) - tail
                    eps_prime = count / 2**l
                    alpha_sq = 1.0 / (1.0 + eps_prime)
                    if count:
                        phi2 = superpose_strings(
                            [tuple([1] + _bits(j, l)) for j in range(count)], bell
                        )
                        e2 = entropy_of(schmidt_spectrum(phi2))
                    else:
                        e2 = 0.0
                    mid = superposition_bound(alpha_sq, 1.0, e2)
                    final = 2 * (eps_prime * n_pairs + 2)
                    assert direct <= mid + 1e-9
                    assert mid <= final + 1e-9

    def test_matches_dense_reference(self):
        # l <= 3, every count, up to 7 pairs in all
        for l in range(4):
            for tail in range(7 - l):
                for count in range(2**l):
                    got = gamma_state_direct(l, count, tail)
                    assert abs(got - _dense_gamma(l, count, tail)) < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            gamma_state_direct(-1, 0, 0)
        with pytest.raises(ValueError):
            gamma_state_direct(2, 4, 0)  # count = 2^l means eps' = 1
        with pytest.raises(ValueError):
            gamma_state_direct(3, 1, 20)  # pairs over the dense cap
        with pytest.raises(ValueError):
            gamma_state_direct(10**6, 0, 0)  # rejected before 2^l is built


def _bits(j: int, width: int) -> list[int]:
    return [(j >> (width - 1 - a)) & 1 for a in range(width)]


def _dense_gamma(l: int, eps_prime_count: int, tail_pairs: int) -> float:
    """Reference: the residual batching state built densely and measured
    by SVD.  j < 2^l: theta prefix and codeword j; then tau prefix and
    codeword j - 2^l."""
    strings = codewords((1 << l) + eps_prime_count, l + 1, 1 + l + tail_pairs)
    return entropy_of(schmidt_spectrum(superpose_strings(strings, PairEncoding.bell())))
