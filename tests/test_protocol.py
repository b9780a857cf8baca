"""Binomial sampling and the batching stopping rule."""

import math
import random
from fractions import Fraction

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triconc import protocol
from triconc.exactmath import binom, log2_big
from triconc.protocol import BatchConfig, run_trials


def _reference_run_batches(cfg: BatchConfig, run_index: int = 0):
    """("ok" | "truncated", stats) of one run, by the stopping rule as
    one scalar draw and one exact product per batch."""
    rng = np.random.default_rng([cfg.seed, run_index])
    d_exact: int | None = 1
    log2_d = 0.0
    k_list: list[int] = []
    for m in range(1, protocol._MAX_BATCHES + 1):
        k = int(rng.binomial(cfg.n, cfg.p))
        k_list.append(k)
        step = binom(cfg.n, k)
        if d_exact is not None:
            d_exact *= step
            if d_exact.bit_length() > protocol._EXACT_BITS:
                log2_d = log2_big(d_exact)
                d_exact = None
        else:
            log2_d += log2_big(step)
        if d_exact is not None:
            l = d_exact.bit_length() - 1
            eps_prime = (d_exact - (1 << l)) / (1 << l)
        else:
            l = math.floor(log2_d)
            eps_prime = 2.0 ** (log2_d - l) - 1.0
        if eps_prime <= cfg.epsilon:
            return "ok", protocol._stats(m, k_list, l, eps_prime, cfg)
    return "truncated", protocol._stats(protocol._MAX_BATCHES, k_list, l, eps_prime, cfg)


def _walked(cfg: BatchConfig, run_indices) -> list:
    """The outcomes of _reference_run_batches, in order, from one walk of
    run_trials over run_indices."""
    return [("truncated" if truncated else "ok", stats)
            for stats, truncated in run_trials(cfg, run_indices)]


class TestRunBatches:
    """Batching runs, walked by one run_trials call per range of runs."""

    def test_wide_window_stops_immediately(self):
        cfg = BatchConfig(n=20, p=0.5, epsilon=0.999)
        assert [stats.m_batches for stats, _ in run_trials(cfg, range(200))] == [1] * 200

    def test_stopping_invariant_many_seeds(self):
        cfg = BatchConfig(n=20, p=0.5, epsilon=0.1)
        for stats, truncated in run_trials(cfg, range(10_000)):
            assert not truncated
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
        ((stats, truncated),) = run_trials(cfg, [0])
        assert not truncated
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
            ms = [stats.m_batches for stats, _ in run_trials(cfg, range(2000))]
            mean = sum(ms) / len(ms)
            se = np.std(ms, ddof=1) / math.sqrt(len(ms))
            assert 1 / math.log2(1 + eps) - 3 * se < mean < 1 / eps + 3 * se

    def test_expected_tail_tracks_one_minus_h(self):
        cfg = BatchConfig(n=20, p=0.5, epsilon=0.1)
        runs = [stats for stats, _ in run_trials(cfg, range(500))]
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
        a, b, c = (stats for stats, _ in run_trials(cfg, [5, 5, 6]))
        assert a.k_list == b.k_list
        assert a.k_list != c.k_list
        ((alone, _),) = run_trials(cfg, [5])
        assert alone == a

    def test_truncation_carries_partial_stats(self, monkeypatch):
        monkeypatch.setattr(protocol, "_MAX_BATCHES", 3)
        cfg = BatchConfig(n=20, p=0.5, epsilon=0.001)
        ((stats, truncated),) = run_trials(cfg, [0])
        assert truncated
        assert stats.m_batches == 3
        assert len(stats.k_list) == 3
        assert stats.eps_prime > 0.001

    def test_float_path_past_exact_bits(self, monkeypatch):
        # Past _EXACT_BITS the run adds log2 C(n, k) in floats; every
        # crossing run must still agree with D_M rebuilt exactly.
        cfg = BatchConfig(n=20, p=0.5, epsilon=0.001)
        crossed = [s for s, _ in run_trials(cfg, range(60))
                   if _check_float_path(s, 20, protocol._EXACT_BITS)]
        assert len(crossed) == 23

        monkeypatch.setattr(protocol, "_EXACT_BITS", 64)
        cfg = BatchConfig(n=20, p=0.5, epsilon=0.1)
        for stats, _ in run_trials(cfg, range(2000)):
            _check_float_path(stats, 20, 64)

        monkeypatch.setattr(protocol, "_MAX_BATCHES", 20)
        cfg = BatchConfig(n=20, p=0.5, epsilon=0.001)
        ((stats, truncated),) = run_trials(cfg, [0])
        assert truncated
        assert _check_float_path(stats, 20, 64)

    def test_block_draws_equal_scalar_draws(self):
        # run_trials draws k in doubling blocks; its results equal one
        # scalar draw per batch only because a block of B values is the
        # same as B scalar draws from an identically seeded generator.
        for n in (1, 3, 20, 50, 100):
            for p in (0.0, 0.3, 0.5, 0.8, 1.0):
                for seed in range(3):
                    blocks = np.random.default_rng([seed, n])
                    scalar = np.random.default_rng([seed, n])
                    for size in (16, 32, 64, 128, 256):
                        drawn = blocks.binomial(n, p, size=size).tolist()
                        assert drawn == [int(scalar.binomial(n, p)) for _ in range(size)]

    def test_results_are_plain_python(self):
        # np.int64 in a field would make `batch --format json` fail
        walks = [(BatchConfig(n=20, p=0.5, epsilon=e), range(5)) for e in (0.1, 0.001)]
        walks.append((BatchConfig(n=3, p=0.5, epsilon=1e-6), [1]))  # truncates
        for cfg, runs in walks:
            for stats, _ in run_trials(cfg, runs):
                for name in ("m_batches", "l", "n_total"):
                    assert type(getattr(stats, name)) is int, name
                for name in ("eps_prime", "gamma_log2", "gamma_entropy_bound"):
                    assert type(getattr(stats, name)) is float, name
                assert type(stats.k_list) is tuple
                assert all(type(k) is int for k in stats.k_list)

    def test_rank_table_walks_both_ways_exactly(self, monkeypatch):
        # later entries roll from the nearest known k, up or down, so
        # binom runs once for the first k of the table and never again
        calls = []

        def counting_binom(n, k):
            calls.append(k)
            return binom(n, k)

        monkeypatch.setattr(protocol, "binom", counting_binom)
        n = 3001
        ranks = protocol._Ranks(n)
        blocks = [[1500], [1490, 1523, 1500], [0, 3001, 1], [2999, 1499, 1501]]
        for block in blocks:
            steps = ranks.steps(np.array(block))
            assert steps.tolist() == [log2_big(math.comb(n, k)) for k in block]
        assert calls == [1500]
        drawn = {k for block in blocks for k in block}
        assert ranks.exact == {k: math.comb(n, k) for k in drawn}

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BatchConfig(n=0, p=0.5, epsilon=0.1)
        with pytest.raises(ValueError):
            BatchConfig(n=5, p=0.5, epsilon=0.0)
        with pytest.raises(ValueError):
            BatchConfig(n=5, p=0.5, epsilon=1.0)
        for p in (-0.1, 1.5):
            with pytest.raises(ValueError, match="probability"):
                BatchConfig(n=5, p=p, epsilon=0.1)
        # n and seed must be integers, stored as plain ints
        with pytest.raises(ValueError, match="n must be an integer"):
            BatchConfig(n=20.0, p=0.5, epsilon=0.1)
        with pytest.raises(ValueError, match="seed must be an integer"):
            BatchConfig(n=20, p=0.5, epsilon=0.1, seed=1.5)
        cfg = BatchConfig(n=np.int64(20), p=0.5, epsilon=0.1, seed=np.uint32(7))
        assert cfg == (20, 0.5, 0.1, 7) and type(cfg.n) is type(cfg.seed) is int


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


def _block_of(m: int) -> int:
    """Index of the block of draws that batch m (from 1) falls in."""
    return ((m - 1) // protocol._FIRST_BLOCK + 1).bit_length() - 1


def _switch_and_stop_orders(cfg: BatchConfig, run: int, stats) -> set[str]:
    """How run's stop and its switch to floats fall: at one batch, or the
    stop before the switch but in a block where the walk searched for it;
    and whether the run's log2 D_M sat within delta below _EXACT_BITS for
    two or more batches before the switch.  From its stream drawn on past
    the stop."""
    exact_bits, delta = protocol._EXACT_BITS, protocol._DELTA
    rng = np.random.default_rng([cfg.seed, run])
    ks = rng.binomial(cfg.n, cfg.p, size=protocol._MAX_BATCHES).tolist()
    assert tuple(ks[:stats.m_batches]) == stats.k_list
    d, near, lingering = 1, None, 0  # near: the first batch the search tests
    for switch, k in enumerate(ks, 1):
        d *= binom(cfg.n, k)
        if log2_big(d) >= exact_bits - delta:
            near = near or switch
        if d.bit_length() > exact_bits:
            break
        lingering += near is not None
    else:
        return set()  # never switches
    stop, orders = stats.m_batches, set()
    if stop == switch:
        orders.add("stops at its switch")
    if stop < switch and _block_of(stop) >= _block_of(near):
        orders.add("stops in its search block, before it")
    if lingering >= 2:
        orders.add("lingers below the limit")
    return orders


class TestMatchesReference:
    """run_trials over a range of runs returns the same outcomes as the
    per-batch loop, run by run."""

    @pytest.mark.parametrize(("n", "p", "epsilon", "runs"), [
        (20, 0.5, 0.1, 2000),
        (20, 0.5, 0.01, 500),
        (20, 0.5, 0.001, 150),   # about a third of the runs pass 10^4 bits
        (50, 0.8, 0.001, 100),
        (7, 0.3, 0.01, 300),
        (20, 0.0, 0.01, 20),    # k is constant at p = 0 and p = 1
        (20, 1.0, 0.01, 20),
        (3, 0.5, 1e-6, 12),     # most runs truncate at _MAX_BATCHES
        (3, 0.9, 1e-6, 6),
        # trial counts around run_trials' chunk of runs
        (20, 0.5, 0.1, 1),
        (20, 0.5, 0.1, protocol._CHUNK - 1),
        (20, 0.5, 0.1, protocol._CHUNK),
        (20, 0.5, 0.1, protocol._CHUNK + 1),
        (20, 0.5, 0.01, 2 * protocol._CHUNK + 3),
        (50, 0.8, 0.01, protocol._CHUNK + 1),
        (20, 0.5, 0.001, protocol._CHUNK + 1),
    ])
    def test_default_limits(self, n, p, epsilon, runs):
        cfg = BatchConfig(n=n, p=p, epsilon=epsilon, seed=0xC0FFEE)
        outcomes = [_reference_run_batches(cfg, run) for run in range(runs)]
        assert _walked(cfg, range(runs)) == outcomes
        if epsilon == 1e-6:
            assert any(status == "truncated" for status, _ in outcomes)

    @pytest.mark.parametrize(("exact_bits", "max_batches"), [
        (64, None), (64, 3), (64, 20), (None, 3), (None, 20),
        # a truncation at the end of the first and of the second block
        (None, protocol._FIRST_BLOCK), (None, 3 * protocol._FIRST_BLOCK),
        (64, 3 * protocol._FIRST_BLOCK),
    ])
    def test_patched_limits(self, monkeypatch, exact_bits, max_batches):
        if exact_bits is not None:
            monkeypatch.setattr(protocol, "_EXACT_BITS", exact_bits)
        if max_batches is not None:
            monkeypatch.setattr(protocol, "_MAX_BATCHES", max_batches)
        for n, p, epsilon in ((20, 0.5, 0.1), (20, 0.5, 0.001), (7, 0.3, 0.01)):
            cfg = BatchConfig(n=n, p=p, epsilon=epsilon, seed=7)
            outcomes = [_reference_run_batches(cfg, run) for run in range(200)]
            assert _walked(cfg, range(200)) == outcomes, n
            if max_batches is not None and epsilon == 0.001:
                assert any(status == "truncated" for status, _ in outcomes)

    def test_switch_just_below_the_exact_limit(self, monkeypatch):
        # C(n, 1) = n = 2^21 - 1 has log2 within 7e-7 below 21, so with
        # _EXACT_BITS = 21 a run whose first nonzero k is 1 sits just under
        # the switch without making it; the batch that then moves it is
        # decided there even where frac(s) lies inside (window, wrap)
        monkeypatch.setattr(protocol, "_EXACT_BITS", 21)
        n = 2**21 - 1
        cfg = BatchConfig(n=n, p=2 / n, epsilon=0.001, seed=0xC0FFEE)
        expected = [_reference_run_batches(cfg, run) for run in range(300)]
        assert _walked(cfg, range(300)) == expected
        assert sum(stats.k_list[:1] == (1,) for _, stats in expected) > 10
        # and some sit there for two or more batches before they switch
        assert any("lingers below the limit" in _switch_and_stop_orders(cfg, run, stats)
                   for run, (_, stats) in enumerate(expected))

    def test_switch_at_the_last_batch_of_a_block_after_lingering(self, monkeypatch):
        # As above, n = 2^21 - 1 and _EXACT_BITS = 21: a run whose first k
        # is 1 sits at D_M = n, just under the limit, through every k = 0,
        # and its search starts at batch 1.  If its next nonzero k is 1 at
        # batch 16, the first block's last, it switches there at D_M = n^2,
        # and with epsilon between eps_prime(n^2) = 1 - 2^-19 + 2^-41 and
        # eps_prime(n) = 1 - 2^-20 it stops there too, with eps_prime from
        # the float log2_big(n^2).  A search that ended one batch short of
        # the block's end would decide that batch on the exact n^2 instead.
        monkeypatch.setattr(protocol, "_EXACT_BITS", 21)
        n = 2**21 - 1
        cfg = BatchConfig(n=n, p=0.125 / n, epsilon=1 - 1.5 * 2**-20, seed=0xC0FFEE)
        expected = [_reference_run_batches(cfg, run) for run in range(3000)]
        assert _walked(cfg, range(3000)) == expected
        at_end = (1,) + (0,) * (protocol._FIRST_BLOCK - 2) + (1,)
        assert sum(stats.k_list == at_end for _, stats in expected) >= 5

    @pytest.mark.parametrize(("exact_bits", "epsilon", "runs", "orders"), [
        (64, 0.1, 200, {"stops at its switch", "stops in its search block, before it"}),
        (None, 0.001, 150, {"stops in its search block, before it"}),
    ])
    def test_switch_and_stop_orders(self, monkeypatch, exact_bits, epsilon, runs, orders):
        # the walk finds each run's switch before its stop, and the search
        # for the switch runs on in its block past the stop
        if exact_bits is not None:
            monkeypatch.setattr(protocol, "_EXACT_BITS", exact_bits)
        cfg = BatchConfig(n=20, p=0.5, epsilon=epsilon, seed=1)
        expected = [_reference_run_batches(cfg, run) for run in range(runs)]
        assert _walked(cfg, range(runs)) == expected
        seen = set().union(*(_switch_and_stop_orders(cfg, run, stats)
                             for run, (_, stats) in enumerate(expected)))
        assert orders <= seen

    @pytest.mark.parametrize(("bracket_bits", "short_row", "exact_path"), [
        (58, None, "always"),    # every Horner bracket too wide to decide
        (58, 0, "always"),       # every bracket Horner, and too wide
        (70, None, "sometimes"),
        (None, 0, "never"),      # every bracket Horner, at the default width
        (None, protocol._MAX_BATCHES, "never"),  # every bracket exact
    ])
    def test_bracket_and_exact_fallback(self, monkeypatch, bracket_bits, short_row,
                                        exact_path):
        # the walk decides from the bracket of D_M where it can and on the
        # exact product where it cannot, with the reference's outcomes
        # either way
        if bracket_bits is not None:
            monkeypatch.setattr(protocol, "_BRACKET_BITS", bracket_bits)
        if short_row is not None:
            monkeypatch.setattr(protocol, "_SHORT_ROW", short_row)
        horner, exact = [], []
        bracket, product = protocol._Ranks.bracket, protocol._Ranks.product

        def counted_bracket(self, ks):
            horner.append(ks.size > protocol._SHORT_ROW)
            return bracket(self, ks)

        def counted_product(self, ks):
            exact.append(ks.size)
            return product(self, ks)

        monkeypatch.setattr(protocol._Ranks, "bracket", counted_bracket)
        monkeypatch.setattr(protocol._Ranks, "product", counted_product)
        cfg = BatchConfig(n=20, p=0.5, epsilon=0.001, seed=1)
        expected = [_reference_run_batches(cfg, run) for run in range(300)]
        assert _walked(cfg, range(300)) == expected
        if short_row == 0:
            assert all(horner)
        elif short_row == protocol._MAX_BATCHES:
            assert not any(horner)
        else:
            assert any(horner) and not all(horner)
        if exact_path == "always":
            assert len(exact) == sum(horner)
        elif exact_path == "sometimes":
            assert 0 < len(exact) < sum(horner)
        else:
            assert exact == []

    @pytest.mark.parametrize("chunk", [1, 3, 64])
    def test_results_do_not_depend_on_chunking_or_run_order(self, monkeypatch, chunk):
        monkeypatch.setattr(protocol, "_CHUNK", chunk)
        cfg = BatchConfig(n=20, p=0.5, epsilon=0.001, seed=11)
        order = list(range(100))
        random.Random(chunk).shuffle(order)
        expected = [_reference_run_batches(cfg, run) for run in order]
        # seed groups of the default size, of 7 and of 50 runs: 7 and 50 are
        # no multiple of 3 or 64, so a group can end in a short chunk
        for group in (protocol._SEED_GROUP, 7, 50):
            monkeypatch.setattr(protocol, "_SEED_GROUP", group)
            assert _walked(cfg, order) == expected, group
            assert _walked(cfg, iter(order)) == expected  # any iterable, consumed lazily


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 60), size=st.integers(1, 10_000), p=st.floats(0.0, 1.0),
       ends_only=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_bracket_holds_the_product(n, size, p, ends_only, seed):
    # lo 2^e <= D <= hi 2^e, exact on the short-row path and under 2^-110
    # relative wide on the Horner path; rows of k in {0, n} only have D = 1
    rng = np.random.default_rng(seed)
    ks = rng.binomial(n, p, size=size)
    if ends_only:
        ks = np.where(ks < n / 2, 0, n)
    ranks = protocol._Ranks(n)
    ranks.steps(ks)
    d = protocol._power_product(ranks.exact, Counter(ks.tolist()))
    lo, hi, e = ranks.bracket(ks)
    assert lo << e <= d <= hi << e
    assert (hi - lo) << 110 < lo
    if size <= protocol._SHORT_ROW:
        assert (lo, hi, e) == (d, d, 0)
    if ends_only:
        assert d == 1 and (lo, hi, e) == (1, 1, 0)


def test_open_brackets_decide_nothing():
    # a bracket decides only what both of its ends give; the same ends as
    # an exact (d, d, 0) decide it
    exact, later = {3: 7}, np.array([3])
    top = 2**64
    # across a power of two: l, and the bit length against _EXACT_BITS
    assert protocol._stop_point(top - 1, top + 1, 0) is None
    assert protocol._switch_point(top - 1, top + 1, 0, later, exact, 64) is None
    assert protocol._switch_point(top - 1, top + 1, 0, later[:0], exact, 64) is None
    assert protocol._stop_point(top + 1, top + 1, 0) == (64, 2.0**-64)
    assert protocol._switch_point(top - 1, top - 1, 0, later, exact, 64) == (
        1, log2_big(7 * (top - 1)))
    # one l, and eps_prime = 1/2 + 2^-44 or 1/2 at the ends, or 1/2 at
    # both once rounded; 2^e scales D_M, not eps_prime
    half = top + top // 2
    assert protocol._stop_point(half, half + 2**20, 0) is None
    assert protocol._stop_point(half, half + 1, 36) == (100, 0.5)
    # one bit length past the limit, but the leading 54 bits differ
    assert protocol._switch_point(top, top + 2**20, 0, later, exact, 60) is None
    assert protocol._switch_point(top, top + 2**8, 36, later, exact, 60) == (0, 100.0)
    # no switch in what is left of the block
    assert protocol._switch_point(top, top + 2**8, 0, later, exact, 100) == (1, None)


class TestGenerators:
    """_generators on the rows of _seed_words gives every run the stream
    of default_rng([seed, i])."""

    @pytest.mark.parametrize("seed", [0, 0xC0FFEE, 2**64 + 1, 2**200])
    def test_seeding_word_for_word(self, seed):
        # 2^32 and 2^40 have two entropy words where the others have one
        indices = [0, 1, 2**32 - 1, 2**32, 2**40, 7]
        rngs = protocol._generators(protocol._seed_words(seed, indices))
        for i, rng in zip(indices, rngs, strict=True):
            words = np.random.SeedSequence([seed, i]).generate_state(4, np.uint64)
            assert rng.bit_generator.seed_seq.words.tolist() == words.tolist(), i
            ref = np.random.default_rng([seed, i])
            assert rng.bit_generator.state == ref.bit_generator.state, i
            assert rng.random(4).tolist() == ref.random(4).tolist(), i

    @pytest.mark.parametrize("size", [1, 15, 16, protocol._CHUNK, protocol._SEED_GROUP])
    @pytest.mark.parametrize("seed", [0, 0xC0FFEE, 2**200])
    def test_both_routes_give_the_same_words(self, seed, size):
        # the bulk hash and SeedSequence itself agree at every chunk size,
        # a short last chunk included, and over a whole seed group;
        # one- and two-word run indices, so the bulk hash has both widths
        indices = [(2**32 + r if r % 3 else r) for r in range(size)]
        want = [np.random.SeedSequence([seed, i]).generate_state(4, np.uint64).tolist()
                for i in indices]
        assert protocol._seed_words(seed, indices).tolist() == want

    @pytest.mark.parametrize("bad", [-1, 1.5, "3", None])
    def test_bad_run_index_rejected_before_any_draw(self, monkeypatch, bad):
        def no_draws(seed, run_indices):
            raise AssertionError("seeded before checking the run indices")

        monkeypatch.setattr(protocol, "_seed_words", no_draws)
        cfg = BatchConfig(n=20, p=0.5, epsilon=0.1)
        with pytest.raises(ValueError, match="run index") as err:
            list(run_trials(cfg, [0, bad]))
        assert repr(bad) in str(err.value)

    def test_numpy_integer_run_index(self):
        cfg = BatchConfig(n=20, p=0.5, epsilon=0.01)
        assert list(run_trials(cfg, [np.int64(3)])) == list(run_trials(cfg, [3]))


def _inversion_walk(u: float, n: int, p: float) -> float:
    """X of numpy's random_binomial_inversion (p <= 1/2) on the one
    double u, transcribed from its C loop; inf where it would restart."""
    q = 1.0 - p
    px = math.exp(n * math.log(q))
    bound = int(min(n, n * p + 10.0 * math.sqrt(n * p * q + 1)))
    x = 0
    while u > px:
        x += 1
        if x > bound:
            return math.inf
        u -= px
        px = ((n - x + 1) * p * px) / (x * q)
    return x


#: PCG64's 128-bit LCG multiplier.
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _pcg64_state_before(output: int, ahead: int, inc: int) -> int:
    """A PCG64 state whose (ahead + 1)-th next 64-bit output is output.

    PCG64 steps state = state * MULT + inc (mod 2^128), then outputs the
    new state's high and low halves xored and rotated right by its top 6
    bits; this picks a high half, solves for the low one and steps back.
    """
    hi = 0x0123456789ABCDEF
    rot = hi >> 58
    lo = ((output << rot | output >> (64 - rot)) & (2**64 - 1)) ^ hi
    state = hi << 64 | lo
    inverse = pow(_PCG64_MULT, -1, 2**128)
    for _ in range(ahead + 1):
        state = (state - inc) * inverse % 2**128
    return state


def test_fused_multiply_add_rounds_once():
    # _fma(a, b, c, fused=True) against exact rationals rounded once
    rng = random.Random(24)
    triples = [tuple(rng.uniform(-1.0, 1.0) * 2.0 ** rng.randint(-60, 60)
                     for _ in range(3)) for _ in range(5000)]
    # the inputs _Sampler's bound takes, over its tested configs
    for n, p in [(20, 0.5), (7, 0.3), (100, 0.2), (20, 0.95), (120, 0.7501),
                 (20, 0.05), (1000, 0.01), (10**6, 3e-5), (1, 0.3), (150, 0.072)]:
        p_inv = min(p, 1.0 - p)
        q, mean = 1.0 - p_inv, n * p_inv
        triples.append((mean, q, 1.0))
        for fa in (False, True):
            triples.append((10.0, math.sqrt(protocol._fma(mean, q, 1.0, fa)), mean))
    for a, b, c in triples:
        exact = float(Fraction(a) * Fraction(b) + Fraction(c))
        assert protocol._fma(a, b, c, True) == exact, (a, b, c)


class TestSampler:
    """_Sampler.draw equals Generator.binomial on the same streams."""

    @staticmethod
    def _same_as_numpy(n, p, sizes=(1, 16, 32, 1000, 20_000), runs=3):
        sampler = protocol._Sampler(n, p)
        ours = [np.random.default_rng([5, r]) for r in range(runs)]
        ref = [np.random.default_rng([5, r]) for r in range(runs)]
        # the smallest signed int dtype that holds n
        dtype = np.int8 if n < 2**7 else np.int16 if n < 2**15 else np.int32
        assert sampler.dtype == dtype
        for size in sizes:
            block = sampler.draw(ours, size)
            assert block.dtype == dtype
            assert block.tolist() == [rng.binomial(n, p, size=size).tolist() for rng in ref]
        for a, b in zip(ours, ref):  # and each stream is left where numpy leaves it
            assert a.bit_generator.state == b.bit_generator.state
        return sampler

    def test_degenerate_probabilities(self):
        rngs = [np.random.default_rng([1, r]) for r in range(2)]
        assert (protocol._Sampler(12, 0.0).draw(rngs, 50) == 0).all()
        assert (protocol._Sampler(12, 1.0).draw(rngs, 50) == 12).all()

    @pytest.mark.parametrize(("n", "p"), [
        (20, 0.5), (7, 0.3), (100, 0.2),
        (20, 0.8), (20, 0.95), (50, 0.7),        # p > 1/2: n - X at 1 - p
        (100, 0.2999), (120, 0.7501), (60, 0.5),  # n min(p, 1 - p) just under 30, or at it
        (20, 0.05), (1000, 0.01), (10**6, 3e-5),  # bound < n
        (1, 0.3), (1, 0.5), (1, 0.7),
    ])
    def test_inversion_regime_is_replayed(self, n, p):
        sampler = self._same_as_numpy(n, p)
        assert sampler.table is not None

    @pytest.mark.parametrize(("n", "p"), [
        (100, 0.3001), (120, 0.7499), (61, 0.5),  # n min(p, 1 - p) just over 30: BTPE
        (20, 0.0), (20, 1.0), (1, 0.0), (1, 1.0),
        # numpy's bound is 43 or 44 as its compiler fuses multiply-adds or not
        (150, 0.072),
    ])
    def test_other_configs_call_numpy(self, n, p):
        sampler = self._same_as_numpy(n, p)
        assert sampler.table is None

    @pytest.mark.parametrize(("n", "p"), [(20, 0.5), (20, 0.05), (7, 0.3), (1000, 0.01)])
    def test_thresholds_are_the_last_draws_of_each_x(self, n, p):
        # T_x is the largest double k 2^-53 (the doubles next_double gives)
        # whose walk gives X <= x: one such double up, numpy's loop goes
        # past x (or restarts)
        sampler = protocol._Sampler(n, p)
        for x, t in enumerate(sampler.thresholds[:-1].tolist()):
            assert (t * 2.0**53).is_integer()
            assert _inversion_walk(t, n, p) <= x
            up = t + 2.0**-53
            if up < 1.0:
                assert _inversion_walk(up, n, p) > x

    @pytest.mark.parametrize(("n", "p"), [(20, 0.05), (1000, 0.01), (20, 0.8)])
    @pytest.mark.parametrize("ahead", [0, 5, 15])
    def test_restart_matches_numpy(self, n, p, ahead):
        # the largest double next_double can give, 1 - 2^-53, lies above
        # T_bound here, so numpy's walk restarts on the next double
        sampler = protocol._Sampler(n, p)
        top = 1.0 - 2.0**-53
        assert sampler._decode(np.array([top])).tolist() == [sampler.bound + 1]
        rngs = [np.random.default_rng([9, r]) for r in range(3)]
        state = rngs[1].bit_generator.state
        inc = state["state"]["inc"]
        state["state"]["state"] = _pcg64_state_before(2**64 - 1, ahead, inc)
        rngs[1].bit_generator.state = state
        ref = [np.random.default_rng(0) for _ in rngs]
        for a, b in zip(ref, rngs):
            a.bit_generator.state = b.bit_generator.state
        probe = np.random.default_rng(0)
        probe.bit_generator.state = state
        assert probe.random(ahead + 1)[-1] == top
        block = sampler.draw(rngs, 16)
        assert block.tolist() == [rng.binomial(n, p, size=16).tolist() for rng in ref]
        for a, b in zip(rngs, ref):
            assert a.bit_generator.state == b.bit_generator.state
