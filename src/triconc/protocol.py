"""Stochastic side of the concentration protocol.

Covers the measurement statistics (binomial draws of the tau count per
batch) and the batching stopping rule that waits for the accumulated
Schmidt-rank product D_M to land within a (1+eps) factor of a power of
two.  The exact entanglement of the residual superposition state that
batching leaves behind is :func:`triconc.teststate.codeword_entropy`.

Reproducibility: every stochastic entry point takes an explicit seed;
independent runs derive their streams from (seed, run_index) so trials
can be evaluated in any order or in parallel with identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exactmath import binom, log2_big

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
    D_M) satisfies eps_prime <= epsilon.  D_M is kept as an exact
    integer while it fits 10^4 bits so float drift cannot corrupt the
    window test near its edges; truly long runs switch to log2
    accumulation.  Raises :class:`TruncationError` (carrying the partial
    stats) if _MAX_BATCHES batches do not suffice.
    """
    rng = np.random.default_rng([cfg.seed, run_index])
    d_exact: int | None = 1
    log2_d = 0.0
    k_list: list[int] = []
    for m in range(1, _MAX_BATCHES + 1):
        k = sample_k(cfg.n, cfg.p, rng)
        k_list.append(k)
        step = binom(cfg.n, k)
        if d_exact is not None:
            d_exact *= step
            if d_exact.bit_length() > _EXACT_BITS:
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
            return _stats(m, k_list, l, eps_prime, cfg)
    raise TruncationError(_stats(_MAX_BATCHES, k_list, l, eps_prime, cfg))
