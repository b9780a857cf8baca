"""Stochastic side of the concentration protocol.

Covers the measurement statistics (binomial draws of the tau count per
batch) and the batching stopping rule that waits for the accumulated
Schmidt-rank product D_M to land within a (1+eps) factor of a power of
two.  The exact entanglement of the residual superposition state that
batching leaves behind is :func:`triconc.teststate.codeword_entropy`.

The stopping rule is a walk on the circle frac(log2 D_M) that stops on
entering [0, log2(1+eps)].  run_trials, the one entry point, walks the
runs of one config together, _CHUNK runs at a time, in blocks of draws;
its docstring says how each block finds every run's switch from the
exact D_M to floats, then its stop.  Both are decided from a bracket
lo 2^e <= D_M <= hi 2^e of 128-bit ints, the product of per-k power
tables, and D_M is built exactly only where the bracket cannot decide;
the results are the same floats.  Each run gets one such exact
decision, at its stop before the switch or at the switch itself, bar
the rare candidate that does not stop it.

Reproducibility: every run derives its stream from (seed, run_index),
so trials can be evaluated in any order or in parallel with identical
results.  Because no two runs share a stream, draws a run makes past
its stopping batch change nothing that any run reports, and neither
does the chunk a run is walked in: each row of a block is its own run's
draws and its own sequential sum, and the rows only share the tables of
C(n, k) and of its powers, whose entries do not depend on who asked
first.  The streams are numpy's: run i's is PCG64 seeded by
SeedSequence([seed, i]), and its k equal Generator.binomial(n, p)'s on
that stream.  run_trials gets both in bulk (_seed_words hashes the seeds
of a group of runs at once; _Sampler decodes the draws from the same
uniform doubles numpy's sampler reads).
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Callable, Iterable, Iterator

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

from ._records import integer, record
from .exactmath import binom, cut, log2_big, log2_bracket

__all__ = [
    "BatchConfig",
    "BatchRunStats",
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

#: Runs whose seeds run_trials hashes together (_seed_words).
_SEED_GROUP = 16 * _CHUNK

#: Rows of at most this many k get their exact D_M as the product in
#: order; longer rows a bracket from the power tables (_Ranks.bracket).
_SHORT_ROW = 128

#: Leading bits that _Ranks.bracket keeps of its bounds on D_M.
_BRACKET_BITS = 128


class BatchConfig(record("BatchConfig", "n p epsilon seed")):
    """Parameters of one batching run."""

    __slots__ = ()

    def __new__(cls, n: int, p: float, epsilon: float,
                seed: int = 0xC0FFEE) -> BatchConfig:
        n, seed = integer("n", n), integer("seed", seed)
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability out of [0, 1]: {p}")
        if not 0.0 < epsilon < 1.0:
            raise ValueError(f"need 0 < epsilon < 1, got {epsilon}")
        if seed < 0:
            raise ValueError(f"need seed >= 0, got {seed}")
        return super().__new__(cls, n, p, epsilon, seed)


class BatchRunStats(record("BatchRunStats", "m_batches k_list l eps_prime gamma_log2 "
                                           "n_total gamma_entropy_bound")):
    """Outcome of one batching run.

    m_batches batches were measured, with the tau counts k_list (a tuple
    of ints); gamma_log2 is log2 of the accumulated rank product D_M =
    2^l (1 + eps_prime), l an int; n_total is the number of copies
    consumed (batches times batch size); gamma_entropy_bound is the
    residual-state bound 2 (epsilon * n_total + 2).
    """

    __slots__ = ()


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


def run_trials(
    cfg: BatchConfig, run_indices: Iterable[int]
) -> Iterator[tuple[BatchRunStats, bool]]:
    """(stats, truncated) of the batching run of cfg for each run index
    i in run_indices, in order.

    Run i measures batches of n copies, drawing each batch's tau count k
    from its own stream, until D_M is nearly a power of two.  After each
    batch the accumulated rank product D_M = prod_i C(n, k_i) is tested
    against the window [2^l, 2^l (1 + epsilon)]; equivalently, the run
    stops once eps_prime = D_M / 2^l - 1 with l = floor(log2 D_M)
    satisfies eps_prime <= epsilon.  While D_M fits _EXACT_BITS bits the
    test gives what it gives on the exact integer (decided from a bracket
    of it, below), so float drift cannot corrupt the window test near its
    edges; once D_M outgrows it, log2 D_M is log2_big of the exact
    product at that step plus one float add of log2_big(C(n, k)) per
    later batch, and eps_prime = 2^(log2 D_M - l) - 1.  A run that has
    not stopped after _MAX_BATCHES batches is truncated: it is yielded
    with truncated True and its stats at the last batch.

    The runs are walked _CHUNK at a time, and a chunk's results are
    yielded before the next chunk is drawn.  Every run computes the
    stopping rule as the walk on the circle frac(log2 D_M), whose steps
    are log2 C(n, k) mod 1.  The k come in blocks of 16, 32, 64, ...
    draws from the run's own stream, which yield the same values as one
    rng.binomial(n, p) per batch; the draws past the stopping batch are
    harmless because no other run reads this stream.  The live runs of a
    chunk share the block schedule, so each block is one (runs, draws)
    array; looked up in the table of log2_big(C(n, k)) (the exact C(n, k)
    and their log2 are computed once per call, for the k drawn), with
    each run's carried sum added into column 0, its cumsum along the rows
    is the float running sum s of every run, the same floats as one s +=
    step per batch.  Each block then finds the switch and the stop.

    1. Switch.  A run not yet switched whose s reaches _EXACT_BITS -
       delta in the block tests its D_M batch by batch from there, its
       start, and switches at the first batch where D_M outgrows
       _EXACT_BITS bits.  From that batch on, s is re-anchored to
       log2_big(D_M) and summed again: the float log2 D_M itself.
    2. Stop.  A batch is a candidate where frac(s) <= log2(1 + epsilon)
       + delta, before the run's switch also where frac(s) >= 1 - delta,
       and at batch _MAX_BATCHES.  Each run's candidates are decided in
       order by the rule above: before its switch on D_M, from it on
       with eps_prime from s.

    A run's candidates before its start come before any switch, so they
    are decided before the search, and a run that stops there is never
    searched.  So each run is decided on D_M once, at its stop before
    the switch or at the switch, plus once for each candidate before
    the switch that does not stop it (rare: delta is far below the
    window): 2000 runs at n = 20, p = 0.5 and seed 1 make 2000 such
    decisions at epsilon 0.1, 0.01 and 0.001 alike.

    D_M is known there as a bracket (lo, hi, e), lo 2^e <= D_M <= hi 2^e
    (_Ranks.bracket).  A row of at most _SHORT_ROW batches gets the
    exact product (d, d, 0); a longer one the product, over its distinct
    k, of entry m of the power table of k, m the count of k in the row,
    where entry m brackets C(n, k)^m as entry m - 1 times C(n, k).  After
    each multiply, in the tables and in the product, both bounds are cut
    to their leading _BRACKET_BITS = 128 bits (exactmath.cut), lo rounded
    down and hi up.  The tables are shared by every run of the call and
    grow one entry at a time, as far as a row needs.  The bracket decides
    l where lo 2^e and hi 2^e have one bit length, and eps_prime where
    (lo - 2^s) / 2^s and (hi - 2^s) / 2^s, s = bit length of lo - 1,
    round to the same float; in the switch search, lo and hi are
    multiplied on by each exact C(n, k) and decide the bit length
    against _EXACT_BITS, and log2_big(D_M) where exactmath.log2_bracket
    settles it.  Python's int / int rounds correctly and rounding is
    monotone, so a float both ends give is the float the exact D_M
    gives, and every result is that of the exact product.  What the
    bracket leaves open is decided again on the exact product, as the
    bracket (D_M, D_M, 0).  That is rare: a row of M <= _MAX_BATCHES
    batches has taken at most 2M cuts (m in entry m of a table, one per
    distinct k), so its bracket stays below 2^-110 relative (cut).
    eps_prime is then known to within 2^-109, while its floats near
    epsilon = 0.001 are 2^-62 apart, and the leading 54 bits of D_M to
    within 2^-56 of a unit; 2000 runs at n = 20 and epsilon 0.1, 0.01 or
    0.001 build no exact D_M.

    The draws are numpy's own, got in bulk.  Run i's generator is PCG64
    seeded with the state words of SeedSequence([seed, i]), whose hash
    _seed_words computes for a group of _SEED_GROUP runs at once; the
    generators themselves are made chunk by chunk.  The k are held in
    the smallest signed int dtype that holds n (_Sampler.dtype).  Where
    numpy draws by inversion, n min(p, 1 - p) <= 30, each k is decoded
    from the double rng.random gives, the one numpy's loop reads: that loop
    subtracts fixed pmf steps from the double U until what is left is at
    most the next step, and rounded subtraction is monotone, so the X it
    stops at is monotone in U and X = #{x : U > T_x} for thresholds T_x
    found once per config (_Sampler).  For p > 1/2 the k is n - X at
    1 - p, as numpy returns it; a double past the last threshold, where
    numpy restarts, yields no k and the run's row is topped up from its
    stream.  Configs numpy draws by BTPE, and p in {0, 1}, call
    rng.binomial.  A run index that is not an integer >= 0 raises
    ValueError, naming it, before its group is seeded.

    delta = 1e-6 is a wide bound on the error of s.  Before the switch
    D_M < 2^_EXACT_BITS, so log2 D_M < 10^4 < 2^14 and each of at most
    _MAX_BATCHES = 10^4 adds rounds by at most half an ulp of 2^14
    (1.8e-12), and each term is off by at most an ulp of itself (3.6e-15
    near log2 C(20, 10) = 17.5); in all below 2e-8.  So the switch, where
    log2 D_M first reaches _EXACT_BITS, lies at or after the first batch
    with s >= _EXACT_BITS - delta and at or before the first with s >
    _EXACT_BITS + delta: the search starts at the one and ends by the
    other.  And a batch that is not a candidate has frac(log2 D_M) at
    least delta / 2 inside (log2(1 + epsilon), 1), where eps_prime
    exceeds epsilon by about (1 + epsilon) delta ln(2) / 2, far more than
    any rounding.
    """
    ranks = _Ranks(cfg.n)
    sampler = _Sampler(cfg.n, cfg.p)
    indices = iter(run_indices)
    while group := [_run_index(i) for i in itertools.islice(indices, _SEED_GROUP)]:
        words = _seed_words(cfg.seed, group)
        for at in range(0, len(group), _CHUNK):
            yield from _walk(cfg, words[at:at + _CHUNK], ranks, sampler)


class _Ranks:
    """C(n, k) and log2_big(C(n, k)) for the k drawn so far, and the
    power tables from which bracket takes D_M.

    The floats sit in an array indexed by k - base that covers the range
    of k drawn so far (-1 where a k in that range is not drawn yet), so
    a block is looked up in one gather and its memory follows the spread
    of the draws, not n.
    """

    def __init__(self, n: int):
        self.n = n
        self.exact: dict[int, int] = {}  # k -> C(n, k)
        self.base = 0
        self.log2 = np.empty(0)  # log2_big(C(n, base + i)) at i
        self.powers: dict[int, list[tuple[int, int, int]]] = {}  # k -> brackets of C(n, k)^m

    def steps(self, ks: np.ndarray) -> np.ndarray:
        """log2_big(C(n, k)) for every k of the int array ks."""
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

    def _product(self, ks: np.ndarray) -> int:
        """prod C(n, k) over the k of ks, exactly, in order."""
        exact = self.exact
        return math.prod([exact[k] for k in ks.tolist()])

    product = _product  # settle's fallback: its calls count the fallbacks

    def bracket(self, ks: np.ndarray) -> tuple[int, int, int]:
        """(lo, hi, e) with lo 2^e <= prod C(n, k) over the k of ks <= hi 2^e.

        A row of at most _SHORT_ROW k gets the exact product as (d, d, 0).
        A longer one gets the product, over its k in increasing order, of
        the power-table entry of C(n, k)^(count of k), cut after each
        multiply.  The table of k holds at m the bracket of C(n, k)^m, entry
        m - 1 times C(n, k), cut; it grows as far as a row needs.  A k with
        C(n, k) = 1 (k = 0 or n) leaves the product as it is and gets no
        table.  exactmath.cut bounds the bracket's width."""
        if ks.size <= _SHORT_ROW:
            d = self._product(ks)
            return d, d, 0
        n, exact, powers, bits = self.n, self.exact, self.powers, _BRACKET_BITS
        lo = hi = 1
        e = 0
        for k, m in self._counts(ks):
            if not (m and 0 < k < n):
                continue
            table = powers.get(k)
            if table is None:
                table = powers[k] = [(1, 1, 0)]
            while len(table) <= m:
                t_lo, t_hi, t_e = table[-1]
                table.append(cut(t_lo * exact[k], t_hi * exact[k], t_e, bits))
            t_lo, t_hi, t_e = table[m]
            lo, hi, e = cut(lo * t_lo, hi * t_hi, e + t_e, bits)
        return lo, hi, e

    def settle(self, ks: np.ndarray, decide: Callable, *args: object) -> object:
        """decide(lo, hi, e, *args) on the bracket of the product over ks,
        and, where that returns None, on the exact product as (d, d, 0)."""
        found = decide(*self.bracket(ks), *args)
        if found is None:
            d = self.product(ks)
            found = decide(d, d, 0, *args)
        return found

    def _counts(self, ks: np.ndarray) -> Iterator[tuple[int, int]]:
        """(k, how often k occurs in ks) over the range of k drawn so far,
        in increasing k, 0 for a k that does not occur."""
        return enumerate(np.bincount(ks - self.base).tolist(), self.base)


def _walk(
    cfg: BatchConfig, words: np.ndarray, ranks: _Ranks, sampler: _Sampler
) -> list[tuple[BatchRunStats, bool]]:
    """run_trials on one chunk of runs, given their rows of _seed_words."""
    exact_bits, max_batches = _EXACT_BITS, _MAX_BATCHES
    epsilon = cfg.epsilon
    window = math.log2(1.0 + epsilon) + _DELTA
    wrap = 1.0 - _DELTA
    near_switch = exact_bits - _DELTA
    results: list = [None] * len(words)
    # One row per live run: its result slot, stream, k so far, float sum s
    # and whether it has switched to floats.  Rows of stopped runs are
    # dropped after each block.
    slots = list(range(len(words)))
    rngs = _generators(words)
    ks = np.empty((len(rngs), 0), dtype=sampler.dtype)
    carry = np.zeros(len(rngs))
    switched = np.zeros(len(rngs), dtype=bool)
    drawn, size = 0, _FIRST_BLOCK
    # candidates and decide read the current block's draws, drawn, ks, s,
    # live and switch_cols from the loop below

    def candidates(s: np.ndarray, switch_at: np.ndarray) -> np.ndarray:
        """Where the rows s of the block may stop, given each row's first
        float-decided column."""
        f = np.floor(s)
        np.subtract(s, f, out=f)  # s % 1.0 exactly, as s >= 0, and much faster
        cols = np.arange(draws)
        cand = (f <= window) | ((f >= wrap) & (cols < switch_at[:, None]))
        if drawn + draws == max_batches:
            cand[:, -1] = True  # the last batch is always decided
        return cand

    def decide(rows: np.ndarray, cols: np.ndarray) -> None:
        """Each candidate (row, column) in order, on D_M before the row's
        switch and on the float s from there on; a stop ends the run."""
        for r, j in zip(rows.tolist(), cols.tolist()):
            if not live[r]:
                continue
            m = drawn + j + 1
            if j < switch_cols[r]:
                l, eps_prime = ranks.settle(ks[r, :m], _stop_point)
            else:
                log2_d = float(s[r, j])
                l = math.floor(log2_d)
                eps_prime = 2.0 ** (log2_d - l) - 1.0
            if eps_prime <= epsilon or m == max_batches:
                stats = _stats(m, ks[r, :m].tolist(), l, eps_prime, cfg)
                results[slots[r]] = (stats, eps_prime > epsilon)
                live[r] = False

    while slots:
        draws = min(size, max_batches - drawn)
        block = sampler.draw(rngs, draws)
        ks = np.concatenate((ks, block), axis=1)
        s = ranks.steps(block)
        s[:, 0] += carry
        np.cumsum(s, axis=1, out=s)
        # each row's first float-decided column: 0 once switched, draws
        # while not, and from the search below its switch in this block.
        # A row that may switch here is searched from its start, its first
        # s >= near_switch.
        switch_at = np.where(switched, 0, draws)
        search = ((s[:, -1] >= near_switch) & ~switched).nonzero()[0].tolist()
        starts = (s[search] >= near_switch).argmax(axis=1).tolist() if search else []
        switch_cols, live = switch_at.tolist(), [True] * len(slots)
        # 1. stop, but in a searched row only before its start: decided on
        # D_M, so that a run that stops there is never searched
        cand = candidates(s, switch_at)
        for r, j in zip(search, starts):
            cand[r, j:] = False
        decide(*cand.nonzero())
        del cand
        # 2. switch: searched on D_M from the start; from the switch on, s
        # is re-anchored to log2_big(D_M)
        searched = [(r, j) for r, j in zip(search, starts) if live[r]]
        for r, j in searched:
            i, log2_d = ranks.settle(ks[r, :drawn + j + 1], _switch_point,
                                     block[r, j + 1:], ranks.exact, exact_bits)
            if log2_d is not None:
                j += i
                switch_at[r] = switch_cols[r] = j
                tail = ranks.log2.take(block[r, j:] - ranks.base)
                tail[0] = log2_d
                np.cumsum(tail, out=s[r, j:])
        # 3. stop in the searched rows from their start on
        if searched:
            rows, starts = map(np.array, zip(*searched))
            cand = candidates(s[rows], switch_at[rows])
            cand &= np.arange(draws) >= starts[:, None]
            at, cols = cand.nonzero()
            decide(rows[at], cols)
        keep = np.array(live, dtype=bool)
        slots = [slot for slot, k in zip(slots, live) if k]
        rngs = [rng for rng, k in zip(rngs, live) if k]
        ks, carry, switched = ks[keep], s[keep, -1], (switch_at < draws)[keep]
        drawn += draws
        size *= 2
    return results


def _stop_point(lo: int, hi: int, e: int) -> tuple[int, float] | None:
    """(l, eps_prime) of D_M from lo 2^e <= D_M <= hi 2^e, or None where
    the bracket leaves either open: l when lo and hi have one bit length,
    eps_prime when both ends give the same float.  An exact bracket (lo
    == hi, every short row) settles both from lo alone."""
    l = lo.bit_length() - 1
    one = 1 << l
    eps_prime = (lo - one) / one
    if hi != lo and (hi.bit_length() - 1 != l or (hi - one) / one != eps_prime):
        return None
    return l + e, eps_prime


def _switch_point(
    lo: int, hi: int, e: int, later: np.ndarray, exact: dict[int, int], exact_bits: int
) -> tuple[int, float | None] | None:
    """(i, log2_big(D)) for the first i at which D = D_M times C(n, k)
    over the first i k of later is wider than exact_bits bits, or
    (len(later), None) if none is, from lo 2^e <= D_M <= hi 2^e; None
    where the bracket leaves the bit length or log2_big(D) open
    (exactmath.log2_bracket)."""
    i = 0
    while lo.bit_length() + e <= exact_bits:
        if hi.bit_length() + e > exact_bits:
            return None
        if i == len(later):
            return i, None
        c = exact[int(later[i])]
        lo, hi, i = lo * c, hi * c, i + 1
    log2_d = log2_bracket(lo, hi, e)
    return None if log2_d is None else (i, log2_d)


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx), for a
# pool of 4 uint32 words
_MASK32 = 0xFFFF_FFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4


def _run_index(i: object) -> int:
    """i as an int, or ValueError unless it is a non-negative integer."""
    try:
        value = operator.index(i)
    except TypeError:
        value = -1
    if value < 0:
        raise ValueError(f"run index must be a non-negative integer, got {i!r}")
    return value


def _uint32_words(value: int) -> list[int]:
    """value as little-endian uint32 words, [0] for 0, as SeedSequence
    splits an int of its entropy."""
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


class _SeedWords(ISeedSequence):
    """The ISeedSequence that hands PCG64 four precomputed state words.

    PCG64(seed_seq) reads only seed_seq.generate_state(4, np.uint64)."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words: int, dtype: object = None) -> np.ndarray:
        return self.words


def _seed_words(seed: int, run_indices: list[int]) -> np.ndarray:
    """SeedSequence([seed, i]).generate_state(4, np.uint64) in row r for
    the r-th i of run_indices, as a (runs, 4) uint64 array.

    That is a hash of the entropy words (seed's uint32 words, then i's)
    whose multipliers do not depend on the words.  So the runs with
    equally many words share every step, one uint32 array op each.
    """
    entropy = [_uint32_words(seed) + _uint32_words(i) for i in run_indices]
    state = np.empty((len(entropy), 2 * _POOL), dtype=np.uint32)
    for width in set(map(len, entropy)):
        rows = [r for r, words in enumerate(entropy) if len(words) == width]
        columns = np.array([entropy[r] for r in rows], dtype=np.uint32).T
        state[rows] = _seed_state(columns).T
    return state.astype("<u4").view("<u8").astype(np.uint64)  # as generate_state


def _generators(words: np.ndarray) -> list[Generator]:
    """A Generator on PCG64 seeded with each row of _seed_words: for the
    row of run i, np.random.default_rng([seed, i])."""
    return [Generator(PCG64(_SeedWords(row))) for row in words]


def _seed_state(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence(e).generate_state(8, np.uint32) for every column e of
    the (words, runs) uint32 array entropy, as an (8, runs) array: the
    pool mixing of SeedSequence.mix_entropy, then generate_state's hash."""
    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        x = x * _MIX_L - y * _MIX_R
        return x ^ x >> 16

    hashmix = _hasher(_INIT_A, _MULT_A)
    zeros = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zeros) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    generate = _hasher(_INIT_B, _MULT_B)
    return np.stack([generate(pool[t % _POOL]) for t in range(2 * _POOL)])


def _hasher(const: int, mult: int) -> Callable[[np.ndarray], np.ndarray]:
    """SeedSequence's hash step on uint32 arrays, its multiplier const
    advanced by mult at each call."""

    def step(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const
        return value ^ value >> 16

    return step


#: Leading bits of a uniform double that index _Sampler's table.
_TABLE_BITS = 16


class _Sampler:
    """Blocks of rng.binomial(n, p, size=draws) for a list of generators.

    In numpy's inversion regime (see run_trials) a block is
    rng.random(draws) decoded by the thresholds T_x: a table over each
    double's leading _TABLE_BITS bits gives the X at its bucket's low
    end, then X += 1 while U > T_X for the few doubles past a threshold
    inside their bucket.  A double past T_bound, where numpy's loop
    restarts, yields no draw: its row keeps the others in order and tops
    up from its generator.  Other configs call rng.binomial.
    """

    def __init__(self, n: int, p: float):
        self.n, self.p = n, p
        # the smallest signed int dtype that holds every k in [0, n]
        self.dtype = next((np.dtype(t) for t in (np.int8, np.int16, np.int32)
                           if np.iinfo(t).max >= n), np.dtype(np.int64))
        self.flip = p > 0.5
        # numpy's random_binomial_inversion, replayed in its operation order:
        # X at p_inv = min(p, 1 - p), q^n, bound and the pmf recurrence px
        p_inv = 1.0 - p if self.flip else p
        self.table = None
        if not (0.0 < p < 1.0 and p_inv * n <= 30.0):
            return
        q = 1.0 - p_inv
        qn = math.exp(n * math.log(q))
        mean = n * p_inv
        bounds = {int(min(n, _fma(10.0, math.sqrt(_fma(mean, q, 1.0, fa)), mean, fb)))
                  for fa in (False, True) for fb in (False, True)}
        if len(bounds) > 1:
            return  # bound depends on fused multiply-adds: leave it to numpy
        (self.bound,) = bounds
        px = [qn]
        for x in range(1, self.bound + 1):
            px.append(((n - x + 1) * p_inv * px[-1]) / (x * q))
        thresholds = _inversion_thresholds(px)
        self.thresholds = np.array([*thresholds, math.inf])  # X <= bound + 1
        # bucket b holds the U with leading bits b; its entry counts the
        # thresholds below its low end, those whose own bucket is below b
        edges = [0, *(int(t * (1 << _TABLE_BITS)) + 1 for t in thresholds),
                 1 << _TABLE_BITS]
        self.table = np.frombuffer(b"".join(
            bytes([x]) * (b - a) for x, (a, b) in enumerate(itertools.pairwise(edges))
        ), dtype=np.uint8)

    def draw(self, rngs: list, draws: int) -> np.ndarray:
        """The (len(rngs), draws) array of rngs[r].binomial(n, p,
        size=draws) in row r, of dtype self.dtype."""
        if self.table is None:
            rows = [rng.binomial(self.n, self.p, size=draws) for rng in rngs]
            return np.stack(rows).astype(self.dtype)
        u = np.empty((len(rngs), draws))
        for row, rng in zip(u, rngs):
            rng.random(out=row)
        x = self._decode(u)
        (restarts,) = (x == self.bound + 1).any(axis=1).nonzero()
        for r in restarts.tolist():
            row = x[r][x[r] <= self.bound]
            while row.size < draws:
                more = self._decode(rngs[r].random(draws - row.size))
                row = np.concatenate((row, more[more <= self.bound]))
            x[r] = row
        x = x.astype(self.dtype)
        return self.n - x if self.flip else x

    def _decode(self, u: np.ndarray) -> np.ndarray:
        """X of each double of u: bound + 1 where the walk restarts."""
        x = self.table.take((u * (1 << _TABLE_BITS)).astype(np.intp))
        flat_u, flat_x = u.reshape(-1), x.reshape(-1)
        (up,) = (flat_u > self.thresholds.take(flat_x)).nonzero()
        while up.size:  # the few doubles past a threshold inside their bucket
            flat_x[up] += 1
            up = up[flat_u[up] > self.thresholds.take(flat_x[up])]
        return x


def _fma(a: float, b: float, c: float, fused: bool) -> float:
    """a * b + c rounded once if fused, else rounded after each op.

    Fused, it is the exact sum of the floats' integer ratios, whose
    denominators are powers of two, as one int / int true division: that
    rounds once, correctly, as float(Fraction(a) * Fraction(b) +
    Fraction(c)) would."""
    if fused:
        (an, ad), (bn, bd), (cn, cd) = (
            a.as_integer_ratio(), b.as_integer_ratio(), c.as_integer_ratio())
        return (an * bn * cd + cn * ad * bd) / (ad * bd * cd)
    return a * b + c


def _inversion_thresholds(px: list[float]) -> list[float]:
    """T_0..T_bound of _Sampler for the pmf steps px_0..px_bound.

    next_double gives the doubles k 2^-53, 0 <= k < 2^53, and walk j
    stops such a U when (...((U - px_0) - px_1) ... - px_{j-1}), rounded
    after each subtraction, is at most px_j.  Being monotone in U, that
    holds exactly up to some a_j, found by bisection over k, and T_x =
    max(a_0..a_x).  The search starts from a bracket of 4 j + 8 steps of
    2^-53 around the float sum px_0 + ... + px_j, wider than the rounding
    of j subtractions and of that sum, and falls back to all k where the
    bracket does not hold.
    """
    end = 1 << 53  # k = 2^53, U = 1.0: past every draw

    def rest(k: int, j: int) -> float:
        u = k * 2.0**-53
        for step in px[:j]:
            u -= step
        return u

    thresholds, total, top = [], 0.0, 0
    for j, step in enumerate(px):
        total += step
        guess = int(total * end)
        lo, hi = max(guess - 4 * j - 8, 0), min(guess + 4 * j + 8, end)
        if rest(lo, j) > step:
            lo = 0  # U = 0.0: every walk stops there
        if hi < end and rest(hi, j) <= step:
            hi = end
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if rest(mid, j) <= step:
                lo = mid
            else:
                hi = mid
        top = max(top, lo)
        thresholds.append(top * 2.0**-53)
    return thresholds
