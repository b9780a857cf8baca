"""Acceptance suite: the named numerical targets, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL
line per criterion.  Two criteria compare the code with an
independently computed prediction rather than with an idealization, and
their report lines keep the idealized numbers visible:

* criterion 4's output-entropy half: the idealized n - log2 C(n, k) is
  exact only when C(n, k) is a power of two and a strict lower bound
  elsewhere (minimal case n=3, k=1: every 3-of-4 codebook forces
  spectrum {3/8 x2, 1/24 x6}, entropy 2.2075, against the idealized
  1.4150).  The oracle is checked against the exact entropy of the
  lexicographic codebook's image state, computed by an integer
  Walsh-Hadamard transform;
* criterion 8's mean batch count: the stopping window has log2-scale
  width log2(1+eps), steps with k in {0, n} do not move log2 D_M, and
  the walk starts untested at 0, so the mean is the walk's expected
  hitting time E[T] = 8.722 at eps = 0.1, not 1/eps = 10.  The measured
  mean 8.749 is 0.19 standard errors from E[T] and 8.9 from 10.
"""

import math
import time
from fractions import Fraction

import numpy as np

from triconc import (
    BatchConfig,
    PairEncoding,
    TestStateSpec,
    amplitude_table,
    apply_ubc,
    binom,
    build_test_state,
    codeword_entropy,
    e_in,
    e_out,
    entanglement_delta,
    entropy_of,
    ledger,
    schmidt_spectrum,
    shannon_h,
    slope_fit,
    superpose_strings,
    ubc_codebook,
    verify_n2_circuit,
)
from triconc.oracle import MAX_DENSE_PAIRS, codewords, permutation_strings
from triconc.protocol import run_trials

BELL = PairEncoding.bell()


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def test_c01_exact_four_pair_example():
    """amplitude_table(4,1) = (1/2, 1/4, 0, -1/4, -1/2) exactly; e_in = 3,
    e_out = 2 to 1e-12; runtime under 1 ms."""
    spec = TestStateSpec(4, 1)
    amplitude_table(spec), e_in(spec), e_out(spec)  # warm caches/imports
    start = time.perf_counter()
    table = amplitude_table(spec)
    ein = e_in(spec)
    eout = e_out(spec)
    elapsed = time.perf_counter() - start

    root = math.isqrt((1 << 4) * binom(4, 1))
    assert root * root == (1 << 4) * binom(4, 1)
    signed = tuple(Fraction(v, root) for v in table.s)
    expected = (Fraction(1, 2), Fraction(1, 4), Fraction(0),
                Fraction(-1, 4), Fraction(-1, 2))
    ok = (signed == expected and abs(ein - 3.0) < 1e-12
          and abs(eout - 2.0) < 1e-12 and elapsed < 1e-3)
    _report("c01 exact n=4 example", ok,
            f"xi={tuple(str(x) for x in signed)}, e_in={ein}, e_out={eout}, "
            f"{elapsed * 1e6:.0f} us")
    assert signed == expected
    assert abs(ein - 3.0) < 1e-12
    assert abs(eout - 2.0) < 1e-12
    assert elapsed < 1e-3


def test_c02_gap_slope_at_p08():
    """OLS slope of gap(n) for p = 0.8 over n in {50,...,500}: 0.466 +- 0.01."""
    start = time.perf_counter()
    slope, _, residual = slope_fit(0.8, list(range(50, 501, 50)))
    elapsed = time.perf_counter() - start
    ok = abs(slope - 0.466) <= 0.01 and elapsed < 5.0
    _report("c02 slope p=0.8", ok,
            f"slope={slope:.6f} (target 0.466 +- 0.01), "
            f"rms residual={residual:.4f}, {elapsed:.2f} s")
    assert abs(slope - 0.466) <= 0.01
    assert elapsed < 5.0


def test_c03_gap_slope_at_p05():
    """OLS slope of gap(n) for p = 0.5 over n in {50,...,500}: 0.56 +- 0.01."""
    start = time.perf_counter()
    slope, _, residual = slope_fit(0.5, list(range(50, 501, 50)))
    elapsed = time.perf_counter() - start
    ok = abs(slope - 0.56) <= 0.01 and elapsed < 5.0
    _report("c03 slope p=0.5", ok,
            f"slope={slope:.6f} (target 0.56 +- 0.01), "
            f"rms residual={residual:.4f}, {elapsed:.2f} s")
    assert abs(slope - 0.56) <= 0.01
    assert elapsed < 5.0


def test_c04_formula_vs_oracle_every_config():
    """For every n <= 8 and every k, on the dense oracle:

    * |e_in(formula) - e_in(oracle)| < 1e-10;
    * e_out(oracle via apply_ubc) equals the exact entropy of the
      lexicographic codebook's image state (:func:`codeword_entropy`) to
      1e-10;
    * that value equals the idealized e_out(spec) = n - log2 C(n, k) to
      1e-10 where C(n, k) is a power of two (21 configs), and lies
      strictly above it elsewhere (23 configs).

    e_out's docstring promises n - log2 C(n, k) only at powers of two.
    Elsewhere it is a lower bound: a uniform superposition of C strings
    has a Walsh-Hadamard spectrum of entropy at least m - log2 C on its
    m pairs (the entropic uncertainty relation, Maassen & Uffink, PRL 60,
    1103), and unless C is a power of two no injective codebook reaches
    it; n=3, k=1 gives
    {3/8 x2, 1/24 x6}, entropy 2.2075, against the idealized 1.4150.
    """
    start = time.perf_counter()
    worst_e_in = 0.0
    rows = []
    for n in range(1, 9):
        for k in range(n + 1):
            spec = TestStateSpec(n, k)
            state = build_test_state(spec)
            ein_oracle = entropy_of(schmidt_spectrum(state))
            worst_e_in = max(worst_e_in, abs(ein_oracle - e_in(spec)))
            out = apply_ubc(state, n, k, BELL)
            rows.append((n, k, binom(n, k), e_out(spec), codeword_entropy(binom(n, k), n),
                         entropy_of(schmidt_spectrum(out))))
    elapsed = time.perf_counter() - start
    worst_pred = max(abs(o - q) for *_, q, o in rows)
    non_pow2 = [r for r in rows if r[2] & (r[2] - 1)]
    pow2_worst = max(abs(o - f) for _, _, c, f, _, o in rows
                     if not c & (c - 1))
    min_excess = min(o - f for *_, f, _, o in non_pow2)
    ok = (worst_e_in < 1e-10 and worst_pred < 1e-10 and pow2_worst < 1e-10
          and min_excess > 0.0 and elapsed < 60.0)
    examples = ", ".join(
        f"(n={n},k={k},C={c}): idealized {f:.4f}, codebook {q:.4f}, "
        f"oracle {o:.4f}"
        for n, k, c, f, q, o in non_pow2[:3]
    )
    _report(
        "c04 oracle equivalence n<=8",
        ok,
        f"{len(rows)} configs; worst e_in delta {worst_e_in:.2e}; worst "
        f"|oracle - codebook e_out| {worst_pred:.2e}; "
        f"{len(rows) - len(non_pow2)} power-of-two configs at the idealized "
        f"e_out to {pow2_worst:.2e}; {len(non_pow2)} others above it by "
        f">= {min_excess:.3f} ebit, e.g. {examples}; {elapsed:.1f} s",
    )
    assert len(rows) == 44 and len(non_pow2) == 23
    assert elapsed < 60.0
    assert worst_e_in < 1e-10
    assert worst_pred < 1e-10, (
        f"oracle e_out departs from the lexicographic codebook's exact "
        f"entropy by {worst_pred:.2e}")
    assert pow2_worst < 1e-10, (
        f"at a power-of-two C(n,k) the oracle e_out departs from "
        f"n - log2 C(n,k) by {pow2_worst:.2e}")
    assert min_excess > 0.0, (
        f"a non-power-of-two config reaches or undercuts the idealized "
        f"lower bound n - log2 C(n,k) (excess {min_excess:.3e})")


def test_c05_product_encoding_reversibility():
    """Product encoding, for every n <= 8, k <= n, on the dense oracle: the
    test state's entropy is log2 C(n, k) and the relabeling moves none of
    it, both to 1e-12."""
    enc = PairEncoding.product()
    worst_entropy = 0.0
    worst_gap = 0.0
    for n in range(1, 9):
        for k in range(n + 1):
            state = superpose_strings(permutation_strings(n, k), enc)
            out = apply_ubc(state, n, k, enc)
            entropy = entropy_of(schmidt_spectrum(state))
            worst_entropy = max(worst_entropy, abs(entropy - math.log2(math.comb(n, k))))
            worst_gap = max(worst_gap, entanglement_delta(state, out))
    ok = worst_entropy < 1e-12 and worst_gap < 1e-12
    _report("c05 product-encoding zero gap", ok,
            f"worst |entropy - log2 C(n,k)| {worst_entropy:.2e}, "
            f"worst relabeling gap {worst_gap:.2e}")
    assert worst_entropy < 1e-12
    assert worst_gap < 1e-12


def test_c06_exact_normalization_to_n100():
    """sum_i C(n,i) xi_i^2 = 1 as an exact rational identity, all n <= 100."""
    start = time.perf_counter()
    for n in range(1, 101):
        for k in range(n + 1):
            table = amplitude_table(TestStateSpec(n, k))
            assert table.normalization() == 1, (n, k)
    elapsed = time.perf_counter() - start
    ok = elapsed < 30.0
    _report("c06 exact normalization n<=100", ok,
            f"all {sum(n + 1 for n in range(1, 101))} tables sum to exactly 1, "
            f"{elapsed:.1f} s")
    assert elapsed < 30.0


def test_c07_two_pair_relabeling_by_one_sided_gates():
    """A circuit of B-local and C-local gates reproduces the n=2 relabeling
    on all four logical basis states with fidelity 1 - 1e-10."""
    worst, images = verify_n2_circuit()
    distinct = len(set(images.values())) == 4
    ok = worst < 1e-10 and distinct
    _report("c07 n=2 one-sided-gates relabeling", ok,
            f"worst infidelity {worst:.2e}, images "
            f"{dict(zip(['tt', 'tT', 'Tt', 'TT'], images.values()))}")
    for perm, image in ubc_codebook(2, 1):
        assert images[perm] == image, (perm, images[perm])
    assert worst < 1e-10
    assert distinct


def _expected_batches(n: int, p: float, eps: float, grid: int) -> float:
    """E[T] for the batching stopping rule, computed without running it.

    The run stops at the first M >= 1 with frac(log2 D_M) in
    [0, log2(1 + eps)]: a walk on the circle from 0 with steps
    log2 C(n, k) mod 1, k ~ Bin(n, p).  The surviving mass P(T > M) is
    carried on `grid` points over [0, 1), each shift split linearly
    between its two neighbouring points, and E[T] = sum_M P(T > M) is
    summed until the mass falls below 1e-12.
    """
    stopped = np.arange(grid) / grid <= math.log2(1.0 + eps)
    mass = np.zeros(grid)
    mass[0] = 1.0
    expected = 1.0  # P(T > 0)
    steps = []  # (probability of k, shift in grid points)
    for k in range(n + 1):
        steps.append((binom(n, k) * p**k * (1.0 - p) ** (n - k),
                      (math.log2(binom(n, k)) % 1.0) * grid))
    while True:
        moved = np.zeros(grid)
        for weight, pos in steps:
            i = math.floor(pos)
            moved += weight * (1.0 - (pos - i)) * np.roll(mass, i)
            moved += weight * (pos - i) * np.roll(mass, i + 1)
        moved[stopped] = 0.0
        mass = moved
        survived = float(mass.sum())
        expected += survived
        if survived < 1e-12:
            return expected


def test_c08_batching_statistics():
    """eps = 0.1, n = 20, p = 0.5, 2000 seeded trials: every run has
    eps' in [0, eps], and the mean batch count lies within 3 standard
    errors of the expected hitting time E[T] of the batching stopping
    rule, computed independently by :func:`_expected_batches` (grid
    discretization below 1e-3, shown by a grid twice as fine).

    E[T] = 8.722 sits between the equidistribution rate
    1/log2(1.1) = 7.27 and the first-order 1/eps = 10: steps with k in
    {0, 20} do not move the walk, and it starts at 0, outside the
    tested range.  The seeded mean is 8.749 (se 0.141); 7.27 and 10 are
    both more than 8 se away, so the check still has teeth.

    The trials go through run_trials, the multi-run walk that `triconc
    batch` runs; a truncated run would have eps' > eps and fail the
    containment check.
    """
    start = time.perf_counter()
    cfg = BatchConfig(n=20, p=0.5, epsilon=0.1, seed=0xC0FFEE)
    counts = []
    eps_ok = True
    for stats, _truncated in run_trials(cfg, range(2000)):
        counts.append(stats.m_batches)
        eps_ok = eps_ok and 0.0 <= stats.eps_prime <= 0.1
    elapsed = time.perf_counter() - start
    mean = sum(counts) / len(counts)
    stderr = float(np.std(counts, ddof=1)) / math.sqrt(len(counts))
    coarse = _expected_batches(20, 0.5, 0.1, 1 << 14)
    target = _expected_batches(20, 0.5, 0.1, 1 << 15)
    grid_err = abs(target - coarse)
    dev = abs(mean - target)
    ok = dev <= 3 * stderr and eps_ok and elapsed < 10.0 and grid_err < 1e-3
    _report(
        "c08 batching statistics",
        ok,
        f"mean M = {mean:.3f}, se = {stderr:.3f}, E[T] = {target:.4f} "
        f"(grid error {grid_err:.1e}), |mean - E[T]| = {dev:.3f} "
        f"({dev / stderr:.2f} se; 1/eps = 10 is "
        f"{abs(mean - 10.0) / stderr:.1f} se away); eps' containment "
        f"{'holds' if eps_ok else 'VIOLATED'}; {elapsed:.1f} s",
    )
    assert eps_ok
    assert elapsed < 10.0
    assert grid_err < 1e-3, (
        f"E[T] moved by {grid_err:.2e} between grids of 2^14 and 2^15 points")
    assert dev <= 3 * stderr, (
        f"mean batch count {mean:.3f} (se {stderr:.3f}) is {dev / stderr:.1f} "
        f"standard errors from the stopping rule's expected hitting time "
        f"E[T] = {target:.4f}"
    )


def test_c09_residual_state_bound_chain():
    """Every residual construction with l <= 5 and total pairs <= 12,
    past the dense cap too, satisfies
    direct E <= 2[a E1 + (1-a) E2 + H(a)] <= 2(eps' N + 2)."""
    checked = 0
    past_cap = 0
    worst_slack = -math.inf
    for l in range(1, 6):
        for count in range(0, 2**l):
            eps_prime = count / 2**l
            alpha_sq = 1.0 / (1.0 + eps_prime)
            if count:
                phi2 = superpose_strings(
                    [(1,) + c for c in codewords(count, l, l)], BELL
                )
                e2 = entropy_of(schmidt_spectrum(phi2))
            else:
                e2 = 0.0
            # 2[a E1 + (1-a) E2 + H(a)] with E1 = 1 (the theta branch)
            mid = 2.0 * (alpha_sq + (1.0 - alpha_sq) * e2 + shannon_h(alpha_sq))
            for tail in range(0, 12 - 1 - l + 1):
                n_pairs = 1 + l + tail
                direct = codeword_entropy((1 << l) + count, n_pairs) - tail
                final = 2.0 * (eps_prime * n_pairs + 2.0)
                assert direct <= mid + 1e-9, (l, count, tail, direct, mid)
                assert mid <= final + 1e-9, (l, count, tail, mid, final)
                worst_slack = max(worst_slack, direct - mid)
                checked += 1
                past_cap += n_pairs > MAX_DENSE_PAIRS
    _report("c09 residual-state bound chain", True,
            f"{checked} constructions ({past_cap} past {MAX_DENSE_PAIRS} pairs), "
            f"max(direct - mid bound) = {worst_slack:.3f} (<= 0 required)")
    assert checked >= 24
    assert past_cap > 0


def test_c10_entanglement_of_formation_ledger():
    """Concurrence-route ef_in equals H(1/2 + sqrt(p(1-p))) to 1e-10 on a
    101-point grid; ef_out = 1 - H(p); p in {0, 1/2} give the trivial
    ledgers."""
    worst = 0.0
    for i in range(101):
        p = i / 100
        led = ledger(p)
        closed = shannon_h(0.5 + math.sqrt(p * (1.0 - p)))
        worst = max(worst, abs(led.ef_in_per_copy - closed))
        assert abs(led.ef_out_per_copy - (1.0 - shannon_h(p))) < 1e-12
    l0 = ledger(0.0)
    assert abs(l0.ef_in_per_copy - 1.0) < 1e-10
    assert l0.ef_out_per_copy == 1.0
    assert abs(l0.locking_deficit_per_copy) < 1e-12
    assert (l0.s_a_per_copy, l0.s_b_per_copy) == (0.0, 1.0)
    l_half = ledger(0.5)
    assert abs(l_half.ef_in_per_copy) < 1e-10
    assert abs(l_half.ef_out_per_copy) < 1e-12
    assert abs(l_half.locking_deficit_per_copy) < 1e-12
    assert l_half.s_a_per_copy == 1.0
    ok = worst < 1e-10
    _report("c10 E_F ledger", ok,
            f"worst |concurrence route - closed form| = {worst:.2e} "
            f"over 101 grid points")
    assert worst < 1e-10
