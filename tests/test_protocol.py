"""Binomial sampling and the batching stopping rule."""

import math

import numpy as np
import pytest

from triconc import protocol
from triconc.exactmath import binom
from triconc.protocol import (
    BatchConfig,
    TruncationError,
    run_batches,
    sample_k,
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
        # the relabeling parks n_total - ceil(log2 D_M) pairs in theta
        tails = [r.n_total - r.l - (r.eps_prime > 0) for r in runs]
        ratio = sum(tails) / sum(r.n_total for r in runs)
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

    def test_truncation_carries_partial_stats(self, monkeypatch):
        monkeypatch.setattr(protocol, "_MAX_BATCHES", 3)
        cfg = BatchConfig(n=20, p=0.5, epsilon=0.001)
        with pytest.raises(TruncationError) as err:
            run_batches(cfg, run_index=0)
        stats = err.value.stats
        assert stats.m_batches == 3
        assert len(stats.k_list) == 3
        assert stats.eps_prime > 0.001

    def test_float_path_past_exact_bits(self, monkeypatch):
        # Past _EXACT_BITS the run adds log2 C(n, k) in floats; every
        # crossing run must still agree with D_M rebuilt exactly.
        cfg = BatchConfig(n=20, p=0.5, epsilon=0.001)
        crossed = [s for s in (run_batches(cfg, run_index=r) for r in range(60))
                   if _check_float_path(s, 20, protocol._EXACT_BITS)]
        assert len(crossed) == 23

        monkeypatch.setattr(protocol, "_EXACT_BITS", 64)
        cfg = BatchConfig(n=20, p=0.5, epsilon=0.1)
        for run in range(2000):
            _check_float_path(run_batches(cfg, run_index=run), 20, 64)

        monkeypatch.setattr(protocol, "_MAX_BATCHES", 20)
        cfg = BatchConfig(n=20, p=0.5, epsilon=0.001)
        with pytest.raises(TruncationError) as err:
            run_batches(cfg, run_index=0)
        assert _check_float_path(err.value.stats, 20, 64)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BatchConfig(n=0, p=0.5, epsilon=0.1)
        with pytest.raises(ValueError):
            BatchConfig(n=5, p=0.5, epsilon=0.0)
        with pytest.raises(ValueError):
            BatchConfig(n=5, p=0.5, epsilon=1.0)


def _check_float_path(stats, n: int, exact_bits: int) -> bool:
    """Rebuild D_M exactly from k_list and check l and eps_prime against
    it; True when the run went past exact_bits onto the float path.

    On that path log2 D_M is one log2_big of the exact product at the
    switch plus one float add of log2_big(C(n, k)) per later batch.  Each
    of those log2_big calls is within one ulp of 64 (math.log2 of an
    integer below 2^54), and each add rounds within one ulp of the
    running total, which stays below 2 bit_length(D_M).  An error delta
    in log2 D_M moves eps_prime = 2^frac - 1 by at most 2 delta."""
    d, switch = 1, None
    for m, k in enumerate(stats.k_list, 1):
        d *= binom(n, k)
        if switch is None and d.bit_length() > exact_bits:
            switch = m
    l = d.bit_length() - 1
    assert stats.l == l
    exact = (d - (1 << l)) / (1 << l)
    if switch is None:
        assert stats.eps_prime == exact
        return False
    adds = stats.m_batches - switch + 1
    delta = adds * (math.ulp(64.0) + math.ulp(2.0 * d.bit_length()))
    assert abs(stats.eps_prime - exact) <= 2 * delta, (stats.m_batches, switch)
    return True
