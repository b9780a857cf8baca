"""Stochastic side of the concentration protocol.

Covers the measurement statistics (binomial draws of the tau count per
batch) and the batching stopping rule that waits for the accumulated
Schmidt-rank product D_M to land within a (1+eps) factor of a power of
two.  The exact entanglement of the residual superposition state that
batching leaves behind is :func:`triconc.teststate.codeword_entropy`.

The stopping rule is a walk on the circle frac(log2 D_M) that stops on
entering [0, log2(1+eps)].  run_batches draws a run's tau counts in
blocks, follows the walk with a float running sum and decides exactly,
on the integer D_M, only at the batches where that sum comes within
a margin of the window (see its docstring for the margin's bound).

Reproducibility: every stochastic entry point takes an explicit seed;
independent runs derive their streams from (seed, run_index) so trials
can be evaluated in any order or in parallel with identical results.
Because no two runs share a stream, draws a run makes past its stopping
batch change nothing that any run reports.  The streams are numpy's;
run_batches imports numpy when it is first called, not at import.
"""

from __future__ import annotations

import math
from collections import Counter
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
]

#: Keep the rank product exact while it fits this many bits, then switch
#: to accumulating log2 in floats (~1e-12 accurate per step).
_EXACT_BITS = 10_000

#: A run that has not stopped after this many batches is truncated.
_MAX_BATCHES = 10_000

#: Margin of the float prefilter in run_batches (its docstring derives it).
_DELTA = 1e-6

#: Draws in a run's first block of k; each later block is twice as long.
_FIRST_BLOCK = 16


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

    The run is computed as the walk on the circle frac(log2 D_M), whose
    steps are log2 C(n, k) mod 1.  The k come in blocks of
    16, 32, 64, ... draws from the run's own stream, which yield the same
    values as one sample_k per batch; the draws past the stopping batch
    are harmless because no other run reads this stream.  A float running
    sum s of log2_big(C(n, k)) makes a batch a candidate only where
    frac(s) <= log2(1 + epsilon) + delta, where frac(s) >= 1 - delta, or
    where s >= _EXACT_BITS - delta, near the switch.  Each candidate is
    decided as above, on D_M rebuilt exactly from the count of each k so
    far.  After the switch, s is the float log2 D_M itself, and eps_prime
    is evaluated only where frac(s) <= log2(1 + epsilon) + delta.

    delta = 1e-6 is a wide bound on the error of s.  Before the switch,
    s is only trusted below _EXACT_BITS = 10^4 < 2^14, so each of at most
    _MAX_BATCHES = 10^4 adds rounds by at most half an ulp of 2^14
    (1.8e-12), and each term is off by at most an ulp of itself (3.6e-15
    near log2 C(20, 10) = 17.5); in all below 2e-8.  A batch that is not
    a candidate thus has frac(log2 D_M) at least delta / 2 inside
    (log2(1 + epsilon), 1), where eps_prime exceeds epsilon by about
    (1 + epsilon) delta ln(2) / 2, far more than any rounding.
    """
    import numpy as np  # here, so that importing the module loads no numpy

    exact_bits, max_batches = _EXACT_BITS, _MAX_BATCHES
    n, epsilon = cfg.n, cfg.epsilon
    window = math.log2(1.0 + epsilon) + _DELTA
    wrap = 1.0 - _DELTA
    near_switch = exact_bits - _DELTA
    rng = np.random.default_rng([cfg.seed, run_index])
    rank: dict[int, int] = {}  # k -> C(n, k), for each k drawn so far
    log2_rank: dict[int, float] = {}  # k -> log2_big(C(n, k))
    k_list: list[int] = []
    switched = False
    s = 0.0
    size = _FIRST_BLOCK
    while len(k_list) < max_batches:
        draws = min(size, max_batches - len(k_list))
        block = rng.binomial(n, cfg.p, size=draws).tolist()
        for k in set(block).difference(rank):
            rank[k] = binom(n, k)
            log2_rank[k] = log2_big(rank[k])
        first = len(k_list) + 1
        k_list += block
        for m, k in enumerate(block, first):
            s += log2_rank[k]
            f = s % 1.0
            # Skip the batches that cannot stop the run; the last batch is
            # always decided, so that truncated stats are exact too.
            if switched:
                if f > window and m < max_batches:
                    continue
            elif window < f < wrap and s < near_switch and m < max_batches:
                continue
            else:
                d = _power_product(rank, Counter(k_list[:m]))
                switched = d.bit_length() > exact_bits
                if switched:
                    s = log2_big(d)  # from here on, the float log2 D_M
            if switched:
                l = math.floor(s)
                eps_prime = 2.0 ** (s - l) - 1.0
            else:
                l = d.bit_length() - 1
                eps_prime = (d - (1 << l)) / (1 << l)
            if eps_prime <= epsilon:
                return _stats(m, k_list[:m], l, eps_prime, cfg)
        size *= 2
    raise TruncationError(_stats(max_batches, k_list, l, eps_prime, cfg))


def _power_product(base: dict[int, int], exp: Counter[int]) -> int:
    """prod_k base[k] ** exp[k] over the keys of exp, by Horner's rule
    over the exponents' bits: one squaring of the running product per
    bit, then one multiply by the bases whose exponent has that bit set."""
    d = 1
    for j in range(max(exp.values()).bit_length() - 1, -1, -1):
        d = d * d * math.prod([base[k] for k, e in exp.items() if e >> j & 1])
    return d
