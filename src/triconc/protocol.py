"""Stochastic side of the concentration protocol.

Covers the measurement statistics (binomial draws of the tau count per
batch) and the batching stopping rule that waits for the accumulated
Schmidt-rank product D_M to land within a (1+eps) factor of a power of
two.  The exact entanglement of the residual superposition state that
batching leaves behind is :func:`triconc.teststate.codeword_entropy`.

The stopping rule is a walk on the circle frac(log2 D_M) that stops on
entering [0, log2(1+eps)].  run_trials walks the runs of one config
together, _CHUNK runs at a time: it draws each run's tau counts in
blocks, stacks the live runs' blocks into one array, follows every walk
with a float running sum (one cumsum per block) and decides exactly, on
the integer D_M, only at the batches where a sum comes within a margin
of the window (see its docstring for the margin's bound).  run_batches
is the one-run case of the same walk.

Reproducibility: every stochastic entry point takes an explicit seed;
independent runs derive their streams from (seed, run_index) so trials
can be evaluated in any order or in parallel with identical results.
Because no two runs share a stream, draws a run makes past its stopping
batch change nothing that any run reports, and neither does the chunk a
run is walked in: each row of a block is its own run's draws and its own
sequential sum, and the rows only share the table of C(n, k), whose
entries do not depend on who asked first.  The streams are numpy's;
run_trials imports numpy when it is first called, not at import.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .exactmath import binom, log2_big

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "BatchConfig",
    "BatchRunStats",
    "TruncationError",
    "sample_k",
    "run_batches",
    "run_trials",
]

#: Keep the rank product exact while it fits this many bits, then switch
#: to accumulating log2 in floats (~1e-12 accurate per step).
_EXACT_BITS = 10_000

#: A run that has not stopped after this many batches is truncated.
_MAX_BATCHES = 10_000

#: Margin of the float prefilter in run_trials (its docstring derives it).
_DELTA = 1e-6

#: Draws in a run's first block of k; each later block is twice as long.
_FIRST_BLOCK = 16

#: Runs that run_trials walks together, one row of each block per run.
_CHUNK = 64


@dataclass(frozen=True)
class BatchConfig:
    """Parameters of one batching run."""

    n: int
    p: float
    epsilon: float
    seed: int = 0xC0FFEE

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need n >= 1, got {self.n}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"probability out of [0, 1]: {self.p}")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"need 0 < epsilon < 1, got {self.epsilon}")
        if self.seed < 0:
            raise ValueError(f"need seed >= 0, got {self.seed}")


@dataclass(frozen=True)
class BatchRunStats:
    """Outcome of one batching run.

    gamma_log2 is log2 of the accumulated rank product D_M = 2^l (1 +
    eps_prime); n_total is the number of copies consumed (batches times
    batch size); gamma_entropy_bound is the residual-state bound
    2 (epsilon * n_total + 2).
    """

    m_batches: int
    k_list: tuple[int, ...]
    l: int
    eps_prime: float
    gamma_log2: float
    n_total: int
    gamma_entropy_bound: float


class TruncationError(RuntimeError):
    """Raised when a run hits _MAX_BATCHES; carries the partial stats."""

    def __init__(self, stats: BatchRunStats):
        super().__init__(
            f"stopping rule not met within {stats.m_batches} batches "
            f"(eps_prime so far {stats.eps_prime:.6f})"
        )
        self.stats = stats


def sample_k(n: int, p: float, rng: np.random.Generator) -> int:
    """One binomial draw of the tau count in a batch of n copies."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability out of [0, 1]: {p}")
    return int(rng.binomial(n, p))


def _stats(
    m: int, k_list: list[int], l: int, eps_prime: float, cfg: BatchConfig
) -> BatchRunStats:
    n_total = m * cfg.n
    log_gamma = l + math.log2(1.0 + eps_prime)
    return BatchRunStats(
        m_batches=m,
        k_list=tuple(k_list),
        l=l,
        eps_prime=eps_prime,
        gamma_log2=log_gamma,
        n_total=n_total,
        gamma_entropy_bound=2.0 * (cfg.epsilon * n_total + 2.0),
    )


def run_batches(cfg: BatchConfig, run_index: int = 0) -> BatchRunStats:
    """Measure batches of n copies until D_M is nearly a power of two.

    After each batch the accumulated rank product D_M = prod_i C(n, k_i)
    is tested against the window [2^l, 2^l (1 + epsilon)]; equivalently,
    the run stops once eps_prime = D_M / 2^l - 1 with l = floor(log2
    D_M) satisfies eps_prime <= epsilon.  While D_M fits _EXACT_BITS
    bits the test is made on the exact integer, so float drift cannot
    corrupt the window test near its edges; once D_M outgrows it, log2
    D_M is log2_big of the exact product at that step plus one float add
    of log2_big(C(n, k)) per later batch, and eps_prime = 2^(log2 D_M -
    l) - 1.  Raises :class:`TruncationError` (carrying the partial
    stats) if _MAX_BATCHES batches do not suffice.

    This is run_trials on the single run run_index; its docstring says
    how the rule is computed.
    """
    ((stats, truncated),) = run_trials(cfg, [run_index])
    if truncated:
        raise TruncationError(stats)
    return stats


def run_trials(
    cfg: BatchConfig, run_indices: Iterable[int]
) -> Iterator[tuple[BatchRunStats, bool]]:
    """(stats, truncated) of run_batches(cfg, i) for each i in run_indices,
    in order; truncated stats are those the TruncationError would carry.

    The runs are walked _CHUNK at a time, and a chunk's results are
    yielded before the next chunk is drawn.  Every run computes the
    stopping rule as the walk on the circle frac(log2 D_M), whose steps
    are log2 C(n, k) mod 1.  The k come in blocks of 16, 32, 64, ...
    draws from the run's own stream, which yield the same values as one
    sample_k per batch; the draws past the stopping batch are harmless
    because no other run reads this stream.  The live runs of a chunk
    share the block schedule, so each block is one (runs, draws) array;
    looked up in the table of log2_big(C(n, k)), with each run's carried
    sum added into column 0, its cumsum along the rows is the float
    running sum s of every run, the same floats as one s += step per
    batch.  A batch is a candidate only where frac(s) <= log2(1 +
    epsilon) + delta, where frac(s) >= 1 - delta, or where s >=
    _EXACT_BITS - delta, near the switch.  Each candidate is decided as
    in run_batches, on D_M rebuilt exactly from the count of each k so
    far.  At the switch, s is re-anchored to log2_big(D_M) and the rest
    of the run's row is summed again from there; after it, s is the float
    log2 D_M itself, and eps_prime is evaluated only where frac(s) <=
    log2(1 + epsilon) + delta.  The exact C(n, k) and their log2 are
    computed once per call, for the k actually drawn.

    delta = 1e-6 is a wide bound on the error of s.  Before the switch,
    s is only trusted below _EXACT_BITS = 10^4 < 2^14, so each of at most
    _MAX_BATCHES = 10^4 adds rounds by at most half an ulp of 2^14
    (1.8e-12), and each term is off by at most an ulp of itself (3.6e-15
    near log2 C(20, 10) = 17.5); in all below 2e-8.  A batch that is not
    a candidate thus has frac(log2 D_M) at least delta / 2 inside
    (log2(1 + epsilon), 1), where eps_prime exceeds epsilon by about
    (1 + epsilon) delta ln(2) / 2, far more than any rounding.
    """
    ranks = _Ranks(cfg.n)
    indices = iter(run_indices)
    while chunk := list(itertools.islice(indices, _CHUNK)):
        yield from _walk(cfg, chunk, ranks)


class _Ranks:
    """C(n, k) and log2_big(C(n, k)) for the k drawn so far.

    The floats sit in an array indexed by k - base that covers the range
    of k drawn so far (-1 where a k in that range is not drawn yet), so
    a block is looked up in one gather and its memory follows the spread
    of the draws, not n.
    """

    def __init__(self, n: int):
        import numpy as np

        self.n = n
        self.exact: dict[int, int] = {}  # k -> C(n, k)
        self.base = 0
        self.log2 = np.empty(0)  # log2_big(C(n, base + i)) at i

    def steps(self, ks: np.ndarray) -> np.ndarray:
        """log2_big(C(n, k)) for every k of the int array ks."""
        import numpy as np

        lo, hi = int(ks.min()), int(ks.max())
        if not self.log2.size:
            self.base = lo
        top = self.base + self.log2.size
        if lo < self.base or hi >= top:
            base = min(self.base, lo)
            grown = np.full(max(top, hi + 1) - base, -1.0)
            grown[self.base - base:top - base] = self.log2
            self.base, self.log2 = base, grown
        at = ks - self.base
        out = self.log2.take(at)
        new = out < 0.0
        if new.any():
            for k in sorted(set(ks[new].tolist())):
                self.exact[k] = self._comb(k)
                self.log2[k - self.base] = log2_big(self.exact[k])
            out = self.log2.take(at)
        return out

    def _comb(self, k: int) -> int:
        """C(n, k), exactly: binom for the first k, and for each later k a
        walk from the nearest k in the table, by C(n, j + 1) = C(n, j)
        (n - j) / (j + 1) upward or C(n, j - 1) = C(n, j) j / (n - j + 1)
        downward, whose divisions are exact.  A step costs one multiply
        and one divide by a small int, far less than a fresh math.comb
        at large n; the draws cluster within a few standard deviations,
        so the walks are short."""
        n, exact = self.n, self.exact
        if not exact:
            return binom(n, k)
        near = min(exact, key=lambda j: abs(j - k))
        c = exact[near]
        for j in range(near, k):
            c = c * (n - j) // (j + 1)
        for j in range(near, k, -1):
            c = c * j // (n - j + 1)
        return c

    def product(self, ks: np.ndarray) -> int:
        """prod C(n, k) over the k of ks, exactly."""
        import numpy as np

        counts = np.bincount(ks - self.base).tolist()
        return _power_product(
            self.exact, {self.base + k: e for k, e in enumerate(counts) if e}
        )


def _walk(
    cfg: BatchConfig, run_indices: list[int], ranks: _Ranks
) -> list[tuple[BatchRunStats, bool]]:
    """run_trials on one chunk of runs."""
    import numpy as np  # here, so that importing the module loads no numpy

    exact_bits, max_batches = _EXACT_BITS, _MAX_BATCHES
    n, p, epsilon = cfg.n, cfg.p, cfg.epsilon
    window = math.log2(1.0 + epsilon) + _DELTA
    wrap = 1.0 - _DELTA
    near_switch = exact_bits - _DELTA
    results: list = [None] * len(run_indices)
    # One row per live run: its result slot, stream, k so far, float sum s
    # and whether it has switched to floats.  Rows of stopped runs are
    # dropped after each block.
    slots = list(range(len(run_indices)))
    rngs = [np.random.default_rng([cfg.seed, i]) for i in run_indices]
    ks = np.empty((len(rngs), 0), dtype=np.int64)
    carry = np.zeros(len(rngs))
    switched = np.zeros(len(rngs), dtype=bool)
    drawn, size = 0, _FIRST_BLOCK
    while slots:
        draws = min(size, max_batches - drawn)
        last = drawn + draws == max_batches  # the last batch is always decided
        block = np.stack([rng.binomial(n, p, size=draws) for rng in rngs])
        ks = np.concatenate((ks, block), axis=1)
        s = ranks.steps(block)
        s[:, 0] += carry
        np.cumsum(s, axis=1, out=s)
        f = s - np.floor(s)  # s % 1.0 exactly, as s >= 0, and much faster
        cand = (f <= window) | ((f >= wrap) & ~switched[:, None])
        del f
        # s only grows, so the batches below near_switch come first; the
        # first one past it is a candidate, and so is each later one until
        # the run switches (see the visit below)
        below = (s < near_switch).sum(axis=1)
        (at_switch,) = (~switched & (below < draws)).nonzero()
        cand[at_switch, below[at_switch]] = True
        cand[:, -1] |= last
        keep = np.ones(len(slots), dtype=bool)
        cand_cols: dict[int, list[int]] = {}  # row -> its candidate columns
        for r, j in zip(*(a.tolist() for a in cand.nonzero())):
            cand_cols.setdefault(r, []).append(j)
        for r, cols in cand_cols.items():
            x = 0
            while x < len(cols):
                j = cols[x]
                x += 1
                m = drawn + j + 1
                if switched[r]:
                    log2_d = float(s[r, j])
                    l = math.floor(log2_d)
                    eps_prime = 2.0 ** (log2_d - l) - 1.0
                else:
                    d = ranks.product(ks[r, :m])
                    if d.bit_length() > exact_bits:
                        # from here on s is the float log2 D_M: re-anchor it
                        # and sum the rest of the row again, whose
                        # candidates are now only the window's
                        switched[r] = True
                        log2_d = log2_big(d)
                        tail = ranks.steps(block[r, j:])
                        tail[0] = log2_d
                        s[r, j:] = np.cumsum(tail)
                        rest = s[r, j + 1:]
                        rest_cand = rest - np.floor(rest) <= window
                        if last and rest_cand.size:
                            rest_cand[-1] = True
                        cols, x = (j + 1 + rest_cand.nonzero()[0]).tolist(), 0
                        l = math.floor(log2_d)
                        eps_prime = 2.0 ** (log2_d - l) - 1.0
                    else:
                        l = d.bit_length() - 1
                        eps_prime = (d - (1 << l)) / (1 << l)
                        if (s[r, j] >= near_switch and j + 1 < draws
                                and cols[x:x + 1] != [j + 1]):
                            cols.insert(x, j + 1)
                if eps_prime <= epsilon or m == max_batches:
                    stats = _stats(m, ks[r, :m].tolist(), l, eps_prime, cfg)
                    results[slots[r]] = (stats, eps_prime > epsilon)
                    keep[r] = False
                    break
        kept = keep.tolist()
        slots = [slot for slot, k in zip(slots, kept) if k]
        rngs = [rng for rng, k in zip(rngs, kept) if k]
        ks, carry, switched = ks[keep], s[keep, -1], switched[keep]
        drawn += draws
        size *= 2
    return results


def _power_product(base: dict[int, int], exp: dict[int, int]) -> int:
    """prod_k base[k] ** exp[k] over the keys of exp, by Horner's rule
    over the exponents' bits: one squaring of the running product per
    bit, then one multiply by the bases whose exponent has that bit set."""
    d = 1
    for j in range(max(exp.values()).bit_length() - 1, -1, -1):
        d = d * d * math.prod([base[k] for k, e in exp.items() if e >> j & 1])
    return d
