"""An exact oracle for batching at n = 3, 4 and 5, where every C(n, k) is
a power of two times 1 or one odd base b: b = 3 at n = 3 (C = 3 at k = 1,
2) and at n = 4 (C = 6 at k = 2), b = 5 at n = 5 (C = 5 or 10 at 1 <= k
<= 4).

So D_M = 2^a b^J, where J counts the batches that carry b, and J grows
by 0 or 1 per batch, by 1 with probability q.  eps_prime of D_M is that
of b^J, the power of two being no part of it.  With j1 the least j >= 1
whose b^j lies within a factor 1 + epsilon above a power of two (found
in exact integers here), a run stops at batch 1 if that batch does not
carry b (J = 0, eps_prime = 0), and otherwise at the batch where J
reaches j1, with eps_prime that of b^j1.  M is then 1 + a negative
binomial count of trials for j1 - 1 successes at rate q, and

    E[M] = (1 - q) + q (1 + (j1 - 1) / q) = j1,
    Var(M) = (j1 - 1) j1 (1 - q) / q,

for every p.  None of this shares code with run_trials' walk or with
tests/test_protocol.py's per-batch reference.
"""

import math
import statistics
from fractions import Fraction

import pytest

from triconc import protocol
from triconc.protocol import BatchConfig, run_trials

#: Two-sided z bound of every statistical check: a correct program fails
#: one check with probability 2 Phi(-4.5) < 7e-6, under 1e-4 over all of
#: them.
_Z = 4.5


def _valuation2(c: int) -> int:
    """The exponent of 2 in c > 0."""
    return (c & -c).bit_length() - 1


def _base(n: int) -> tuple[int, frozenset[int]]:
    """(b, the k whose C(n, k) carry b) for an n with one odd base."""
    carrying = {k: (c := math.comb(n, k)) >> _valuation2(c) for k in range(n + 1)}
    carrying = {k: b for k, b in carrying.items() if b > 1}
    (b,) = set(carrying.values())
    return b, frozenset(carrying)


def _eps_prime(d: int) -> Fraction:
    """D / 2^l - 1, l = floor(log2 D), exactly."""
    one = 1 << (d.bit_length() - 1)
    return Fraction(d - one, one)


def _first_stop(b: int, epsilon: float, limit: int) -> int | None:
    """j1, the least j >= 1 with eps_prime(b^j) <= epsilon in exact
    integers, or None when there is none up to limit.  The correctly
    rounded eps_prime of every b^j up to there must fall on the same
    side of epsilon, so that the float decides as the exact one does."""
    num, den = epsilon.as_integer_ratio()
    d = 1
    for j in range(1, limit + 1):
        d *= b
        one = 1 << (d.bit_length() - 1)
        stop = (d - one) * den <= num * one
        assert ((d - one) / one <= epsilon) == stop, (b, j)
        if stop:
            return j
    return None


def _q(n: int, p: float, carrying: frozenset[int]) -> float:
    return math.fsum(math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in carrying)


def _check_run(stats, truncated: bool, n: int, b: int, carrying, j1: int | None,
               eps_tol: Fraction | None = None) -> None:
    """One run against the oracle, exactly: where it stopped and l, and
    eps_prime as the correctly rounded exact one or, given eps_tol, within
    eps_tol of the exact one."""
    ks = stats.k_list
    assert len(ks) == stats.m_batches
    carried = [k in carrying for k in ks]
    if not carried[0]:
        assert (stats.m_batches, stats.eps_prime, truncated) == (1, 0.0, False)
        return
    if j1 is None:  # no stop within _MAX_BATCHES
        assert truncated and stats.m_batches == protocol._MAX_BATCHES
        return
    assert not truncated and carried[-1] and sum(carried) == j1
    if eps_tol is None:
        assert stats.eps_prime == float(_eps_prime(b**j1))
    else:
        assert abs(Fraction(stats.eps_prime) - _eps_prime(b**j1)) <= eps_tol
    a = sum(_valuation2(math.comb(n, k)) for k in ks)
    assert stats.l == a + (b**j1).bit_length() - 1


def _moments_of_m(j1: int, q: float) -> tuple[float, float, float]:
    """E[M], Var(M) and the fourth central moment of M, the last summed
    over the law of M: 1 with probability 1 - q, else 1 + T, T the trials
    to j1 - 1 successes at rate q, P(T = t) = C(t-1, j1-2) q^(j1-1)
    (1-q)^(t-j1+1), out to 40 standard deviations of T."""
    r = j1 - 1
    mean, var = float(j1), r * j1 * (1 - q) / q
    if r == 0:
        return mean, var, 0.0
    parts = [(1 - q) * (1 - mean) ** 4]
    for t in range(r, math.ceil(r / q + 40 * math.sqrt(r * (1 - q)) / q) + 2):
        log_pmf = (math.lgamma(t) - math.lgamma(r) - math.lgamma(t - r + 1)
                   + r * math.log(q) + (t - r) * math.log1p(-q))
        parts.append(q * math.exp(log_pmf) * (1 + t - mean) ** 4)
    return mean, var, math.fsum(parts)


# (n, p, epsilon, runs): j1 runs from 7 to 789 batches
_CASES = [
    (3, 0.5, 0.1, 400),
    (3, 0.3, 0.01, 400),
    (3, 0.8, 0.001, 300),
    (4, 0.5, 0.1, 400),
    (4, 0.3, 0.01, 300),
    (5, 0.5, 0.1, 400),
    (5, 0.3, 0.01, 400),
    (5, 0.8, 0.001, 300),
]


class TestOneBaseOracle:
    def test_bases_and_first_stops(self):
        assert _base(3) == (3, frozenset({1, 2}))
        assert _base(4) == (3, frozenset({2}))
        assert _base(5) == (5, frozenset({1, 2, 3, 4}))
        # 3^7 = 2187 = 2^11 * 1.068, 5^19 = 2^44 * 1.084
        assert _first_stop(3, 0.1, 100) == 7
        assert _first_stop(5, 0.1, 100) == 19
        # base 3 comes within 4.4e-5 of a power of two at j = 665 and
        # within 2.5e-5 at 16266; 2e-5 takes it past _MAX_BATCHES
        assert _first_stop(3, 4.4e-5, 1000) == 665
        assert _first_stop(3, 2e-5, protocol._MAX_BATCHES) is None

    def test_law_of_m(self):
        # the closed forms against the law of M summed term by term
        for j1, q in ((7, 0.75), (53, 0.375), (2, 0.9), (1, 0.5)):
            mean, var, mu4 = _moments_of_m(j1, q)
            r = j1 - 1
            law = {1: 1 - q if r else 1.0}
            if r:
                for t in range(r, 60 * j1):
                    law[1 + t] = q * math.comb(t - 1, r - 1) * q**r * (1 - q) ** (t - r)
            assert abs(math.fsum(law.values()) - 1) < 1e-12
            got_mean = math.fsum(m * w for m, w in law.items())
            got_var = math.fsum((m - got_mean) ** 2 * w for m, w in law.items())
            got_mu4 = math.fsum((m - got_mean) ** 4 * w for m, w in law.items())
            assert abs(got_mean - mean) < 1e-9 * mean
            assert abs(got_var - var) <= 1e-9 * max(var, 1)
            assert abs(got_mu4 - mu4) <= 1e-9 * max(mu4, 1)

    @pytest.mark.parametrize("n,p,epsilon,runs", _CASES)
    def test_runs_match_the_oracle(self, n, p, epsilon, runs):
        b, carrying = _base(n)
        j1 = _first_stop(b, epsilon, protocol._MAX_BATCHES)
        q = _q(n, p, carrying)
        cfg = BatchConfig(n=n, p=p, epsilon=epsilon, seed=2026)
        results = list(run_trials(cfg, range(runs)))
        for stats, truncated in results:
            _check_run(stats, truncated, n, b, carrying, j1)
        # eps_prime takes exactly the two values, and both occur
        assert {s.eps_prime for s, _ in results} == {0.0, float(_eps_prime(b**j1))}
        ms = [s.m_batches for s, _ in results]
        mean, var, mu4 = _moments_of_m(j1, q)
        z_mean = (statistics.fmean(ms) - mean) / math.sqrt(var / runs)
        # the sample variance is near var with variance (mu4 - var^2) / runs
        z_var = (statistics.variance(ms) - var) / math.sqrt((mu4 - var**2) / runs)
        assert abs(z_mean) < _Z and abs(z_var) < _Z, (z_mean, z_var)

    def test_runs_past_the_switch(self):
        # n = 5, p = 0.5, epsilon = 1e-4: 5^j1 alone has 9298 bits, and the
        # batches at k = 2 and 3 (C = 10) add a factor 2 each, so a run that
        # carries 5 stops with D_M past _EXACT_BITS, on the float log2 D_M, s
        n, p, epsilon, runs = 5, 0.5, 1e-4, 200
        b, carrying = _base(n)
        j1 = _first_stop(b, epsilon, protocol._MAX_BATCHES)
        assert j1 == 4004 and (b**j1).bit_length() == 9298
        exact = _eps_prime(b**j1)
        # frac(log2 D_M) = frac(j1 log2 b) = log2(1 + exact) must lie further
        # than delta inside the window [0, log2(1 + epsilon)] for s to decide
        # as log2 D_M does; 2^delta < 1 + delta (on (0, 1) the convex 2^x
        # lies below its chord 1 + x), so these exact comparisons imply it
        delta = Fraction(protocol._DELTA)
        assert 1 + exact >= 1 + delta
        assert 1 + Fraction(epsilon) >= (1 + exact) * (1 + delta)
        # run_trials' docstring bounds the error of s by 2e-8 while log2 D_M
        # < 2^14 and over at most _MAX_BATCHES adds; with |2^e - 1| <= |e|
        # for |e| <= 1, eps_prime = 2^(s - l) - 1 is then off by at most
        # (1 + exact) 2e-8, plus the rounding of 2^(s - l) and its - 1
        eps_tol = (1 + exact) * Fraction(2e-8) + Fraction(1e-15)
        cfg = BatchConfig(n=n, p=p, epsilon=epsilon, seed=2026)
        results = list(run_trials(cfg, range(runs)))
        for stats, truncated in results:
            _check_run(stats, truncated, n, b, carrying, j1, eps_tol)
            if stats.eps_prime:  # switched, with log2 D_M < l + 1 < 2^14
                assert protocol._EXACT_BITS <= stats.l and stats.l + 1 < 2**14
        assert {s.eps_prime == 0.0 for s, _ in results} == {False, True}

    def test_truncation_rate_is_q(self):
        # at epsilon = 2e-5 base 3 has no stop up to _MAX_BATCHES: every
        # run whose first batch carries 3 truncates, the others stop at once
        n, p, epsilon, runs = 3, 0.5, 2e-5, 200
        b, carrying = _base(n)
        assert _first_stop(b, epsilon, protocol._MAX_BATCHES) is None
        q = _q(n, p, carrying)
        results = list(run_trials(BatchConfig(n=n, p=p, epsilon=epsilon, seed=2026),
                                  range(runs)))
        for stats, truncated in results:
            _check_run(stats, truncated, n, b, carrying, None)
        hits = sum(truncated for _, truncated in results)
        assert abs(hits - q * runs) < _Z * math.sqrt(runs * q * (1 - q)), hits
