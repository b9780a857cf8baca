"""Brute-force oracle: explicit states, spectra, relabeling, circuits."""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triconc import oracle
from triconc.oracle import (
    Gate,
    PairEncoding,
    PureStateVector,
    apply_local_circuit,
    apply_ubc,
    build_test_state,
    codewords,
    compression_circuit_n2,
    entanglement_delta,
    entropy_of,
    permutation_strings,
    schmidt_spectrum,
    string_state,
    superpose_strings,
    ubc_codebook,
    verify_n2_circuit,
)
from triconc.teststate import TestStateSpec, codeword_entropy, e_in, e_out

BELL = PairEncoding.bell()
PROD = PairEncoding.product()


#: BELL with the phase gate diag(1, i) on every C qubit: complex, and one
#: local unitary away from BELL, so every spectrum must match BELL's.
PHASED = PairEncoding(
    theta=np.array([[1.0, 0.0], [0.0, 1j]]) / math.sqrt(2),
    tau=np.array([[1.0, 0.0], [0.0, -1j]]) / math.sqrt(2),
)


#: |0>_B |+>_C and |1>_B |->_C: a product pair that, unlike the others, is
#: not symmetric under swapping the B and C qubit, so it tells them apart.
SKEW = PairEncoding(
    theta=np.array([[1.0, 1.0], [0.0, 0.0]]) / math.sqrt(2),
    tau=np.array([[0.0, 0.0], [1.0, -1.0]]) / math.sqrt(2),
)


#: theta = |00> and tau = (|01> + |11>)/sqrt2: a support of three pair
#: basis states, so the complement of the pair has a direction on the
#: support, KAPPA, that only the complement rows see.
THREE = PairEncoding(
    theta=np.array([[1.0, 0.0], [0.0, 0.0]]),
    tau=np.array([[0.0, 1.0], [0.0, 1.0]]) / math.sqrt(2),
)
KAPPA = np.array([[0.0, 1.0], [0.0, -1.0]]) / math.sqrt(2)


def fidelity(a: PureStateVector, b: PureStateVector) -> float:
    return abs(np.vdot(a.amps, b.amps))


def pair_product(pairs: list[np.ndarray]) -> np.ndarray:
    """Amplitudes of the product of the given 2x2 pair states, pair 0
    first, as a kron chain."""
    chain = np.ones((1, 1))
    for pair in pairs:
        chain = np.kron(chain, pair)
    return chain.reshape(-1)


def kron_reference(strings: list[tuple[int, ...]], enc: PairEncoding) -> np.ndarray:
    """Uniform superposition built string by string as kron chains of pair states."""
    d = 1 << len(strings[0])
    m = np.zeros(d * d, dtype=np.result_type(enc.theta, enc.tau))
    for bits in strings:
        m += pair_product([enc.tau if b else enc.theta for b in bits])
    return m / math.sqrt(len(strings))


def max_dev(state: PureStateVector, ref: np.ndarray) -> float:
    return float(np.max(np.abs(state.amps - ref)))


def random_pair(seed: int) -> PairEncoding:
    """Two columns of a random complex unitary as theta and tau."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    return PairEncoding(theta=q[:, 0].reshape(2, 2), tau=q[:, 1].reshape(2, 2))


#: A generic complex pair, nonzero on all four pair basis states.
RANDOM = random_pair(2029)

#: Every support size: two states (Bell, product, phased), three and four.
ENCODINGS = [BELL, PROD, PHASED, THREE, SKEW, RANDOM]
ENCODING_IDS = ["bell", "product", "phased", "three", "skew", "random"]


def allocating_from_logical(logical: np.ndarray, n: int, enc: PairEncoding) -> np.ndarray:
    """The amplitudes of the logical tensor, the full (4, 2) change of
    basis at every step on all 4^n entries, each step into a fresh product
    and a fresh transposed copy."""
    a = np.stack([enc.theta.reshape(-1), enc.tau.reshape(-1)]).T
    t = logical.T.reshape(-1, 1, 1)
    for _ in range(n):
        x, b, c = t.shape
        t = (a @ t.reshape(2, -1)).reshape(2, 2, x // 2, b, c)
        t = t.transpose(2, 0, 3, 1, 4).reshape(x // 2, 2 * b, 2 * c)
    return t.reshape(-1)


def round_trip_residual(state: PureStateVector, enc: PairEncoding) -> float:
    """|psi - Pi psi|, Pi psi rebuilt from psi's logical coefficients."""
    logical, _ = oracle._logical_coefficients(state, enc)
    rebuilt = allocating_from_logical(logical, state.n_pairs, enc)
    return float(np.linalg.norm(state.amps - rebuilt))


def dense_gate_reference(gate: Gate, n: int) -> np.ndarray:
    """The 2^n x 2^n unitary of one gate on its side's n qubits, pair 0 the
    most significant bit: index arithmetic for CNOT, X and Z, an n-fold kron
    for H."""
    dim = 1 << n
    t_bit = 1 << (n - 1 - gate.target)
    if gate.kind == "CNOT":
        c_bit = 1 << (n - 1 - gate.control)
        src = np.arange(dim)
        dst = np.where(src & c_bit, src ^ t_bit, src)
        u = np.zeros((dim, dim))
        u[dst, src] = 1.0
        return u
    if gate.kind == "X":
        src = np.arange(dim)
        u = np.zeros((dim, dim))
        u[src ^ t_bit, src] = 1.0
        return u
    if gate.kind == "Z":
        phases = np.where(np.arange(dim) & t_bit, -1.0, 1.0)
        return np.diag(phases)
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    u = np.ones((1, 1))
    for j in range(n):
        u = np.kron(u, h if j == gate.target else np.eye(2))
    return u


def dense_circuit_reference(state: PureStateVector, circuit: tuple[Gate, ...]) -> np.ndarray:
    """Amplitudes after the circuit, each gate a dense matrix product on the
    (B, C) amplitude matrix."""
    m = state.as_matrix()
    for gate in circuit:
        u = dense_gate_reference(gate, state.n_pairs)
        m = u @ m if gate.side == "B" else m @ u.T  # columns are C bitstrings
    return m.reshape(-1)


def random_gate(rng: np.random.Generator, n: int, kind: str) -> Gate:
    """One gate of the given kind on a random side and random pairs of n."""
    side = "B" if rng.integers(0, 2) else "C"
    target = int(rng.integers(0, n))
    if kind == "CNOT":
        control = int((target + 1 + rng.integers(0, n - 1)) % n)
        return Gate(side=side, kind=kind, control=control, target=target)
    return Gate(side=side, kind=kind, target=target)


@st.composite
def local_circuits(draw) -> tuple[int, tuple[Gate, ...]]:
    """A pair count n <= 4 and up to six gates of every kind on both sides."""
    n = draw(st.integers(1, 4))
    gates = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["CNOT", "X", "Z", "H"] if n > 1 else ["X", "Z", "H"]))
        target = draw(st.integers(0, n - 1))
        control = (draw(st.integers(0, n - 1).filter(lambda c: c != target))
                   if kind == "CNOT" else None)
        gates.append(Gate(side=draw(st.sampled_from("BC")), kind=kind,
                          target=target, control=control))
    return n, tuple(gates)


class TestPairEncoding:
    def test_bell_pair_amplitudes(self):
        s = 1 / math.sqrt(2)
        assert np.allclose(BELL.theta, [[s, 0], [0, s]])
        assert np.allclose(BELL.tau, [[s, 0], [0, -s]])

    def test_rejects_non_orthogonal(self):
        v = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError):
            PairEncoding(theta=v, tau=v)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            PairEncoding(theta=2 * BELL.theta, tau=BELL.tau)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="theta is not normalized"):
            PairEncoding(theta=np.full((2, 2), np.nan), tau=BELL.tau)


class TestBuildTestState:
    def test_single_bell_pair(self):
        state = build_test_state(TestStateSpec(1, 0))
        m = state.as_matrix()
        s = 1 / math.sqrt(2)
        assert np.allclose(m, [[s, 0], [0, s]])

    def test_n2_k1_hand_expansion(self):
        # |theta tau> + |tau theta> expands to (|0000> - |1111>)/sqrt2
        state = build_test_state(TestStateSpec(2, 1))
        m = state.as_matrix()
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 1 / math.sqrt(2)
        expected[3, 3] = -1 / math.sqrt(2)
        assert np.allclose(m, expected, atol=1e-14)

    def test_product_encoding_n4_k1(self):
        state = superpose_strings(permutation_strings(4, 1), PROD)
        m = state.as_matrix()
        weight_one = [0b0001, 0b0010, 0b0100, 0b1000]
        for b in weight_one:
            assert abs(m[b, b] - 0.5) < 1e-14
        assert abs(np.linalg.norm(m) - 1.0) < 1e-14
        assert np.count_nonzero(np.abs(m) > 1e-14) == 4

    def test_resource_cap(self):
        with pytest.raises(ValueError, match="cap"):
            build_test_state(TestStateSpec(11, 1))

    def test_superpose_rejects_duplicates(self):
        with pytest.raises(ValueError):
            superpose_strings([(0, 1), (0, 1)], BELL)

    def test_rejects_non_binary_entries(self):
        with pytest.raises(ValueError, match="0 .theta. or 1 .tau."):
            superpose_strings([(0, 2)], BELL)
        with pytest.raises(ValueError, match="0 .theta. or 1 .tau."):
            superpose_strings([(0.5, 1)], BELL)
        with pytest.raises(ValueError, match="0 .theta. or 1 .tau."):
            string_state((-1,), BELL)

    def test_string_state_resource_cap(self):
        with pytest.raises(ValueError, match="cap"):
            string_state((0,) * 11, BELL)


class TestKronReference:
    """The logical-tensor construction against explicit kron chains."""

    @pytest.mark.parametrize("enc", [BELL, PROD], ids=["bell", "product"])
    def test_every_config_up_to_six_pairs(self, enc):
        for n in range(1, 7):
            for k in range(n + 1):
                strings = permutation_strings(n, k)
                ref = kron_reference(strings, enc)
                assert max_dev(superpose_strings(strings, enc), ref) < 1e-14
                if enc is BELL:  # build_test_state is the Bell test state
                    assert max_dev(build_test_state(TestStateSpec(n, k)), ref) < 1e-14
                for bits in strings:
                    ref_one = kron_reference([bits], enc)
                    assert max_dev(string_state(bits, enc), ref_one) < 1e-14

    @settings(max_examples=150, deadline=None)
    @given(
        strings=st.integers(1, 5).flatmap(
            lambda n: st.lists(
                st.tuples(*[st.integers(0, 1)] * n), min_size=1, max_size=2**n,
                unique=True,
            )
        ),
        enc=st.sampled_from([BELL, PROD, PHASED, SKEW]),
    )
    def test_random_string_subsets(self, strings, enc):
        state = superpose_strings(strings, enc)
        assert max_dev(state, kron_reference(strings, enc)) < 1e-14
        assert abs(state.norm() - 1.0) < 1e-14

    # The change of basis reshapes by n, so check pair counts past six too.
    def test_bell_test_state_at_eight_pairs(self):
        ref = kron_reference(permutation_strings(8, 4), BELL)
        assert max_dev(build_test_state(TestStateSpec(8, 4)), ref) < 1e-14

    def test_phased_string_at_ten_pairs(self):
        bits = (0, 1, 1, 0, 1, 0, 0, 1, 1, 1)
        state = string_state(bits, PHASED)
        assert state.amps.dtype == np.complex128
        assert max_dev(state, kron_reference([bits], PHASED)) < 1e-14


class TestChangeOfBasis:
    @pytest.mark.parametrize("enc", ENCODINGS, ids=ENCODING_IDS)
    @pytest.mark.parametrize("n", range(1, oracle.MAX_DENSE_PAIRS + 1))
    def test_logical_round_trip(self, enc, n):
        rng = np.random.default_rng(n)
        logical = rng.standard_normal((2,) * n) + 1j * rng.standard_normal((2,) * n)
        back, _ = oracle._logical_coefficients(oracle._from_logical(logical, n, enc), enc)
        assert back.shape == logical.shape
        # Each of the n steps out forms every entry as a two-term sum of
        # complex products, each step back as an |S|-term one (S the pair's
        # support, |S| <= 4); a K-term sum is off by at most gamma_{K+2}
        # times the sum of the terms' moduli (Higham, Lemma 3.5), so one
        # step's rounding has 2-norm at most gamma_{K+2} |M|_F |t| =
        # gamma_{K+2} sqrt2 |logical|, with M the step's (|S|, 2) or (2, |S|)
        # matrix.  The steps out are isometries and those back contractions,
        # so no step amplifies an earlier error.
        u = np.finfo(np.float64).eps / 2

        def gamma(k: int) -> float:
            return k * u / (1 - k * u)

        tol = n * math.sqrt(2) * (gamma(4) + gamma(6)) * np.linalg.norm(logical)
        assert np.linalg.norm(back - logical) <= tol


    @pytest.mark.parametrize("enc", ENCODINGS, ids=ENCODING_IDS)
    def test_buffered_build_is_bit_identical(self, enc):
        # the support's rows of the full change of basis, the same BLAS call
        # on the same operands, then scattered into the B|C matrix; SKEW and
        # THREE tell a pair's B bit from its C bit
        configs = [(n, k) for n in range(1, 9) for k in range(n + 1)]
        for n, k in configs + [(10, 0), (10, 5), (10, 9)]:
            strings = permutation_strings(n, k)
            logical = np.zeros((2,) * n)
            logical[oracle._logical_index(strings, n)] = 1.0 / math.sqrt(len(strings))
            got = superpose_strings(strings, enc).amps
            assert got.tobytes() == allocating_from_logical(logical, n, enc).tobytes(), (n, k)

    @pytest.mark.parametrize("n", [1, 4, 10])
    def test_built_state_owns_exactly_its_amplitudes(self, n):
        states = [string_state((1,) * n, BELL), string_state((0,) * n, PHASED),
                  apply_ubc(build_test_state(TestStateSpec(n, n // 2)), n, n // 2, BELL)]
        for state in states:
            assert state.amps.size == 4**n
            assert state.amps.base is None or state.amps.base.nbytes <= state.amps.nbytes
        for a, b in itertools.combinations(states, 2):
            assert not np.shares_memory(a.amps, b.amps)


def traced_peak(f) -> int:
    """The tracemalloc peak, in bytes, of what f() allocates."""
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    """The dense build allocates one zeroed state and works on the support,
    2^n entries for Bell; the way back copies the state once, for the sum
    off the support, and drops the copy before the image is built.

    Everything else is per logical string: at most 2^n of them, each with
    two tuples of n <= 10 small ints (136 bytes each) for the strings and
    the codebook, and a few 8-byte entries of the logical tensor, the
    support index and the arrays of the walk, far below 512 bytes."""

    N = 10
    STATE = 8 * 4**N  # float64 amplitudes
    PER_STRING = 512 * 2**N

    def test_build_holds_one_state(self):
        peak = traced_peak(lambda: build_test_state(TestStateSpec(self.N, self.N // 2)))
        assert peak <= self.STATE + self.PER_STRING

    def test_relabeling_holds_one_state_beyond_its_input(self):
        state = build_test_state(TestStateSpec(self.N, self.N // 2))
        peak = traced_peak(lambda: apply_ubc(state, self.N, self.N // 2, BELL))
        assert peak <= self.STATE + self.PER_STRING


class TestSpanResidual:
    """_logical_coefficients' norm outside the theta/tau product span,
    summed pair by pair, against the round trip |psi - Pi psi|."""

    @pytest.mark.parametrize("enc", ENCODINGS, ids=ENCODING_IDS)
    @pytest.mark.parametrize("n", [1, 3, 6, 9])
    def test_matches_round_trip(self, enc, n):
        rng = np.random.default_rng(n)
        shape = (2,) * n
        for trial in range(3):
            logical = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            logical /= np.linalg.norm(logical)
            inside = oracle._from_logical(logical, n, enc).amps
            away = rng.standard_normal(4**n) + 1j * rng.standard_normal(4**n)
            away /= np.linalg.norm(away)
            for size in (0.0, 1e-12, 1e-10, 1e-6, 1.0):
                state = PureStateVector(n, inside + size * away)
                _, residual = oracle._logical_coefficients(state, enc)
                assert abs(residual - round_trip_residual(state, enc)) < 1e-14, size
                if size == 0.0:
                    assert residual < 1e-14

    def test_complement_rows_are_orthonormal_to_the_pair(self):
        # 1000 random pairs: a single Gram-Schmidt pass would leave about 1
        # in 1000 (seeds 369 and 730 here) above 1e-15 off theta or tau
        for enc in [BELL, PROD, PHASED] + [random_pair(seed) for seed in range(1000)]:
            w_perp = enc._complement
            signal = np.stack([enc.theta.reshape(-1), enc.tau.reshape(-1)])
            assert w_perp.shape == (2, 4)
            assert np.max(np.abs(w_perp @ w_perp.conj().T - np.eye(2))) <= 1e-15
            assert np.max(np.abs(w_perp @ signal.T)) <= 1e-15

    def test_rejects_flipped_bell_pair_at_ten_pairs(self):
        # X on a B qubit sends both Bell signal states out of their span
        flipped = apply_local_circuit(build_test_state(TestStateSpec(10, 5)),
                                      (Gate("B", "X", 0),))
        with pytest.raises(ValueError, match="span"):
            apply_ubc(flipped, 10, 5, BELL)

    def test_rejects_a_1e9_leak_and_accepts_a_1e12_one(self):
        # X on a C qubit moves the Bell pair's amplitudes off its support
        # {00, 11}; a support of two states leaves no other way out
        state = build_test_state(TestStateSpec(6, 3))
        leak = apply_local_circuit(state, (Gate("C", "X", 2),)).amps  # unit, outside
        clean = apply_ubc(state, 6, 3, BELL)
        out = apply_ubc(PureStateVector(6, state.amps + 1e-12 * leak), 6, 3, BELL)
        assert max_dev(out, clean.amps) < 1e-12
        with pytest.raises(ValueError, match="span"):
            apply_ubc(PureStateVector(6, state.amps + 1e-9 * leak), 6, 3, BELL)

    @pytest.mark.parametrize("where", ["on_support", "off_support"])
    def test_three_state_support_leaks(self, where):
        # KAPPA on pair 2 stays on THREE's support {00, 01, 11} but leaves
        # its span, which only the complement rows on the support see; |10>
        # there is off the support, which only the off-support sum sees
        state = superpose_strings(permutation_strings(6, 3), THREE)
        pairs = [THREE.theta] * 6
        pairs[2] = KAPPA if where == "on_support" else np.array([[0.0, 0.0], [1.0, 0.0]])
        leak = pair_product(pairs)  # unit, orthogonal to the span
        clean = apply_ubc(state, 6, 3, THREE)
        out = apply_ubc(PureStateVector(6, state.amps + 1e-12 * leak), 6, 3, THREE)
        assert max_dev(out, clean.amps) < 1e-12
        with pytest.raises(ValueError, match="span"):
            apply_ubc(PureStateVector(6, state.amps + 1e-9 * leak), 6, 3, THREE)

    def test_apply_ubc_builds_only_the_image(self, monkeypatch):
        state = build_test_state(TestStateSpec(5, 2))
        built = []
        from_logical = oracle._from_logical
        monkeypatch.setattr(oracle, "_from_logical",
                            lambda *args: built.append(args[1]) or from_logical(*args))
        apply_ubc(state, 5, 2, BELL)
        assert built == [5]


def svd_probs(state: PureStateVector) -> np.ndarray:
    """Reference Schmidt probabilities: squared singular values of the
    (B, C) amplitude matrix, descending, with the same 1e-14 cut."""
    probs = np.linalg.svd(state.as_matrix(), compute_uv=False) ** 2
    return probs[probs > 1e-14]


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    """The matrices np.linalg.eigvalsh is called with, in order."""
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        calls.append(a)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return calls


def spectrum_tol(n: int) -> float:
    """Largest |p - p_svd| that rounding can explain for a unit state on n
    pairs, with d = 2^n and eps the float64 unit roundoff.

    - Forming rho_B = M M^dagger: each entry is a length-d dot product,
      off by at most sqrt(2) (d + 2) eps |m_i| |m_j| in complex arithmetic
      (Higham, Lemma 3.5 and eq. 3.5), so the error matrix has Frobenius
      norm <= sqrt(2) (d + 2) eps |M|_F^2 <= 3 d eps for d >= 2.
    - eigvalsh is backward stable: its eigenvalues are exact for a matrix
      within p(d) eps |rho_B|_2 of rho_B, and |rho_B|_2 <= tr rho_B = 1.
      LAPACK calls p(d) a modestly growing function; take p(d) = d.
    - Weyl's bound moves each eigenvalue by at most the 2-norm of the
      perturbation, so p is off by at most the sum of the two: 4 d eps.
    - The SVD reference is backward stable too: |s - s_exact| <= d eps |M|_2,
      and with s + s_exact <= 2 its squares are off by at most 2 d eps.

    Together 6 d eps; the observed worst case is about d eps at n = 1 and
    far below it at larger n.
    """
    return 6 * (1 << n) * np.finfo(np.float64).eps


def assert_same_spectrum(a: PureStateVector, b: PureStateVector) -> None:
    pa, pb = schmidt_spectrum(a), schmidt_spectrum(b)
    assert pa.shape == pb.shape
    assert np.max(np.abs(pa - pb)) < 1e-12


class TestDtype:
    def test_stock_encodings_stay_real(self):
        for enc in (BELL, PROD):
            state = superpose_strings(permutation_strings(5, 2), enc)
            out = apply_ubc(state, 5, 2, enc)
            circuit = (
                Gate(side="B", kind="H", target=0),
                Gate(side="C", kind="CNOT", control=0, target=1),
                Gate(side="B", kind="X", target=2),
                Gate(side="C", kind="Z", target=3),
            )
            moved = apply_local_circuit(out, circuit)
            for s in (state, out, moved):
                assert s.amps.dtype == np.float64

    def test_complex_encoding_gives_complex_state(self):
        for n, k in [(3, 1), (4, 2), (5, 2)]:
            strings = permutation_strings(n, k)
            state = superpose_strings(strings, PHASED)
            assert state.amps.dtype == np.complex128
            assert max_dev(state, kron_reference(strings, PHASED)) < 1e-14
            bell = build_test_state(TestStateSpec(n, k))
            assert_same_spectrum(state, bell)
            out = apply_ubc(state, n, k, PHASED)
            assert out.amps.dtype == np.complex128
            assert_same_spectrum(out, apply_ubc(bell, n, k, BELL))


class TestSchmidtSpectrum:
    def test_bell_pair(self):
        probs = schmidt_spectrum(string_state((0,), BELL))
        assert probs.tolist() == [pytest.approx(0.5, abs=1e-14)] * 2

    def test_product_state(self):
        probs = schmidt_spectrum(string_state((0, 0), PROD))
        assert len(probs) == 1 and abs(probs[0] - 1.0) < 1e-14

    def test_multiplicities_n4_k1(self):
        probs = schmidt_spectrum(build_test_state(TestStateSpec(4, 1)))
        values, mults = np.unique(probs.round(6), return_counts=True)
        assert dict(zip(values.tolist(), mults.tolist())) == {0.25: 2, 0.0625: 8}

    def test_entropy_three_ebits(self):
        probs = schmidt_spectrum(build_test_state(TestStateSpec(4, 1)))
        assert abs(entropy_of(probs) - 3.0) < 1e-12
        assert abs(probs.sum() - 1.0) < 1e-10

    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_svd_on_random_states(self, n):
        rng = np.random.default_rng(1000 + n)
        for amps in (rng.normal(size=4**n),
                     rng.normal(size=4**n) + 1j * rng.normal(size=4**n)):
            state = PureStateVector(n_pairs=n, amps=amps / np.linalg.norm(amps))
            probs, ref = schmidt_spectrum(state), svd_probs(state)
            assert probs.shape == ref.shape
            assert np.max(np.abs(probs - ref)) <= spectrum_tol(n)

    def test_matches_svd_on_circuit_outputs(self):
        # A random one-sided circuit on every test state up to 8 pairs; each
        # circuit holds every gate kind the pair count allows, on random sides.
        rng = np.random.default_rng(0x5EED)
        for n in range(1, 9):
            kinds = ["CNOT", "X", "Z", "H"] if n > 1 else ["X", "Z", "H"]
            for k in range(n + 1):
                gates = [random_gate(rng, n, str(kind))
                         for kind in kinds * 2 + list(rng.choice(kinds, size=4))]
                rng.shuffle(gates)
                out = apply_local_circuit(build_test_state(TestStateSpec(n, k)),
                                          tuple(gates))
                probs, ref = schmidt_spectrum(out), svd_probs(out)
                assert probs.shape == ref.shape
                assert np.max(np.abs(probs - ref)) <= spectrum_tol(n)

    def test_keeps_the_conjugate_for_complex_encodings(self):
        # Two columns of a random 4x4 unitary: a generic complex signal pair.
        rng = np.random.default_rng(7)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        enc = PairEncoding(theta=q[:, 0].reshape(2, 2), tau=q[:, 1].reshape(2, 2))
        for n, k in [(1, 0), (3, 1), (4, 2), (6, 3)]:
            state = superpose_strings(permutation_strings(n, k), enc)
            m, ref = state.as_matrix(), svd_probs(state)
            # the state is a witness: dropping the conjugate changes its spectrum
            dropped = np.linalg.eigvalsh(m @ m.T)[::-1]
            assert np.max(np.abs(dropped[:len(ref)] - ref)) > 1e-3
            probs = schmidt_spectrum(state)
            assert probs.shape == ref.shape
            assert np.max(np.abs(probs - ref)) <= spectrum_tol(n)

    @pytest.mark.parametrize("n", [3, 6, 9])
    def test_matches_svd_on_permuted_block_diagonal_states(self, n):
        # Dense random blocks of mixed, non-square shapes on the diagonal, a
        # few all-zero rows and columns left over, then a random permutation
        # of rows and columns: a rank-deficient M that is not monomial.
        rng = np.random.default_rng(2000 + n)
        d = 1 << n
        shapes = [(1, 1), (2, 3), (3, 2), (1, 4), (4, 1), (3, 3), (5, 2)]
        for dtype in (np.float64, np.complex128):
            m = np.zeros((d, d), dtype=dtype)
            r0, c0 = 0, 0
            while True:
                h, w = shapes[rng.integers(len(shapes))]
                if r0 + h > d - 1 or c0 + w > d - 1:  # the last row and column stay zero
                    break
                block = rng.normal(size=(h, w))
                if dtype is np.complex128:
                    block = block + 1j * rng.normal(size=(h, w))
                m[r0:r0 + h, c0:c0 + w] = block
                r0, c0 = r0 + h, c0 + w
            row_perm, col_perm = rng.permutation(d), rng.permutation(d)
            m = m[row_perm][:, col_perm] / np.linalg.norm(m)
            state = PureStateVector(n_pairs=n, amps=m.reshape(-1))
            probs, ref = schmidt_spectrum(state), svd_probs(state)
            assert probs.shape == ref.shape
            assert np.max(np.abs(probs - ref)) <= spectrum_tol(n)

    @pytest.mark.parametrize("n", [1, 5, 10])
    def test_chain_pattern_is_one_block(self, n):
        # Diagonal plus superdiagonal: every row reaches every column along
        # the chain, so no permutation splits M; real, then with random
        # phases on its entries.
        rng = np.random.default_rng(3000 + n)
        d = 1 << n
        real = np.diag(rng.normal(size=d)) + np.diag(rng.normal(size=d - 1), k=1)
        phases = np.exp(2j * np.pi * rng.random((d, d)))
        for m in (real, real * phases):
            state = PureStateVector(n_pairs=n, amps=(m / np.linalg.norm(m)).reshape(-1))
            probs, ref = schmidt_spectrum(state), svd_probs(state)
            assert probs.shape == ref.shape
            assert np.max(np.abs(probs - ref)) <= spectrum_tol(n)

    @pytest.mark.parametrize("n", [1, 4, 10])
    def test_diagonal_state_is_squared_diagonal(self, n, eigvalsh_calls):
        # A diagonal with zeros, its rows and columns then permuted: each
        # probability one squared amplitude, exactly, read off the entries
        # without an eigvalsh.  Integer amplitudes make a unit state only as
        # one +-1.
        rng = np.random.default_rng(4000 + n)
        d = 1 << n
        real = rng.normal(size=d)
        ints = np.zeros(d, dtype=np.int64)
        ints[rng.integers(d)] = -1
        for diag in (real, real + 1j * rng.normal(size=d), ints):
            if diag.dtype != np.int64:
                diag[rng.random(d) < 0.3] = 0.0
                diag[0] = 1.0
                diag /= np.linalg.norm(diag)
            squares = (diag * diag.conj()).real.astype(np.float64)
            expected = np.sort(squares)[::-1]
            m = np.diag(diag)[rng.permutation(d)][:, rng.permutation(d)]
            state = PureStateVector(n_pairs=n, amps=m.reshape(-1))
            probs, ref = schmidt_spectrum(state), svd_probs(state)
            assert probs.dtype == np.float64
            assert np.array_equal(probs, expected[expected > 1e-14])
            assert probs.shape == ref.shape
            assert np.max(np.abs(probs - ref)) <= spectrum_tol(n)
        assert eigvalsh_calls == []

    def test_monomial_exit_is_squared_entries(self, eigvalsh_calls):
        # Every Bell and product test state and relabeled image up to 8
        # pairs and at (10, 5) takes the exit: no eigvalsh, the squares of
        # the nonzero amplitudes bit for bit, and SVD's spectrum to rounding.
        configs = [(n, k) for n in range(1, 9) for k in range(n + 1)] + [(10, 5)]
        for n, k in configs:
            for enc in (BELL, PROD):
                state = superpose_strings(permutation_strings(n, k), enc)
                for s in (state, apply_ubc(state, n, k, enc)):
                    probs = schmidt_spectrum(s)
                    assert eigvalsh_calls == []
                    v = s.amps[s.amps != 0]
                    squares = np.sort(v * v)[::-1]
                    assert probs.tobytes() == squares[squares > 1e-14].tobytes()
                    ref = svd_probs(s)
                    assert probs.shape == ref.shape
                    assert np.max(np.abs(probs - ref)) <= spectrum_tol(n)

    @pytest.mark.parametrize("n", [2, 5])
    @pytest.mark.parametrize("axis", ["column", "row"])
    def test_one_entry_off_monomial_takes_eigvalsh(self, n, axis, eigvalsh_calls):
        # A permuted diagonal with one zero on it, then one more nonzero in
        # that zero's row (two nonzeros in one column) or in its column (two
        # in one row): no longer monomial, so the spectrum comes from one
        # eigvalsh of the full rho_B.
        rng = np.random.default_rng(5000 + n)
        d = 1 << n
        diag = rng.normal(size=d)
        diag[1] = 0.0
        m = np.diag(diag)
        if axis == "column":
            m[1, 0] = rng.normal()
        else:
            m[0, 1] = rng.normal()
        row_perm, col_perm = rng.permutation(d), rng.permutation(d)
        m = m[row_perm][:, col_perm] / np.linalg.norm(m)
        state = PureStateVector(n_pairs=n, amps=m.reshape(-1))
        probs, ref = schmidt_spectrum(state), svd_probs(state)
        assert [a.shape for a in eigvalsh_calls] == [(d, d)]
        assert probs.shape == ref.shape == (d - 1,)
        assert np.max(np.abs(probs - ref)) <= spectrum_tol(n)

    def test_output_contract(self):
        # float64 for complex input too, non-increasing, nothing at or below
        # the cut, and SVD's count on rank-deficient states.
        state = build_test_state(TestStateSpec(10, 5))
        relabeled = apply_ubc(state, 10, 5, BELL)
        phased = superpose_strings(permutation_strings(6, 3), PHASED)
        for s, count in [(state, 512), (relabeled, 256), (phased, 32)]:
            probs = schmidt_spectrum(s)
            assert probs.dtype == np.float64
            assert np.all(np.diff(probs) <= 0.0)
            assert probs.min() > 1e-14
            assert len(probs) == count == len(svd_probs(s))

    def test_rejects_unnormalized(self):
        bad = PureStateVector(n_pairs=1, amps=np.array([1.0, 0, 0, 1.0], dtype=complex))
        with pytest.raises(ValueError):
            schmidt_spectrum(bad)

    def test_rejects_nan(self):
        bad = PureStateVector(n_pairs=1, amps=np.full(4, np.nan))
        with pytest.raises(ValueError, match="not normalized"):
            schmidt_spectrum(bad)


class TestEntropyOf:
    def test_flat_spectra(self):
        assert entropy_of(np.array([0.5, 0.5])) == 1.0
        assert entropy_of(np.array([0.25] * 4)) == 2.0
        assert entropy_of(np.array([1.0])) == 0.0
        assert entropy_of(np.array([0.5, 0.5, 0.0])) == 1.0  # 0*log0 = 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.2])
    def test_rejects_bad_entries(self, bad):
        with pytest.raises(ValueError, match="finite and non-negative"):
            entropy_of(np.array([0.5, bad, 0.5]))


class TestApplyUbc:
    def test_codebook_n4_k1_matches_worked_mapping(self):
        # theta theta theta tau -> theta theta theta theta, etc.
        expected = {
            (0, 0, 0, 1): (0, 0, 0, 0),
            (0, 0, 1, 0): (0, 1, 0, 0),
            (0, 1, 0, 0): (1, 0, 0, 0),
            (1, 0, 0, 0): (1, 1, 0, 0),
        }
        assert dict(ubc_codebook(4, 1)) == expected

    def test_codebook_n2_k1(self):
        assert dict(ubc_codebook(2, 1)) == {(0, 1): (0, 0), (1, 0): (1, 0)}

    def test_codebook_injective_on_minimal_width_up_to_twelve_pairs(self):
        # every (n, k) with n <= 12: the j-th lexicographic weight-k string
        # maps to j in binary on ceil(log2 C(n, k)) leading pairs, theta after
        for n in range(1, 13):
            for k in range(n + 1):
                count = math.comb(n, k)
                width = math.ceil(math.log2(count))
                book = ubc_codebook(n, k)
                perms = [perm for perm, _ in book]
                assert perms == sorted(set(perms)) and len(perms) == count
                assert all(len(p) == n and sum(p) == k for p in perms)
                assert all(len(im) == n and not any(im[width:]) for _, im in book)
                codes = [int("".join(map(str, im[:width])) or "0", 2) for _, im in book]
                assert codes == list(range(count))

    def test_basis_states_map_to_image_states(self):
        for n, k in [(4, 1), (2, 1), (5, 2)]:
            for perm, image in ubc_codebook(n, k):
                out = apply_ubc(string_state(perm, BELL), n, k, BELL)
                assert fidelity(out, string_state(image, BELL)) > 1 - 1e-12

    def test_worked_example_entropies(self):
        state = build_test_state(TestStateSpec(4, 1))
        out = apply_ubc(state, 4, 1, BELL)
        assert abs(entropy_of(schmidt_spectrum(out)) - 2.0) < 1e-12
        assert abs(entanglement_delta(state, out) - 1.0) < 1e-12

    def test_state_vs_itself_has_zero_delta(self):
        state = build_test_state(TestStateSpec(3, 1))
        assert entanglement_delta(state, state) == 0.0

    def test_isometry_on_permutation_basis(self):
        for n, k in [(4, 1), (5, 2), (6, 3), (7, 3)]:
            images = [
                apply_ubc(string_state(perm, BELL), n, k, BELL).amps
                for perm in permutation_strings(n, k)
            ]
            w = np.stack(images)
            gram = w @ w.conj().T
            assert np.max(np.abs(gram - np.eye(len(images)))) < 1e-12

    def test_rejects_state_outside_signal_span(self):
        # a |01> pair component is orthogonal to both theta and tau
        amps = np.zeros(4, dtype=complex)
        amps[0b01] = 1.0
        with pytest.raises(ValueError, match="span"):
            apply_ubc(PureStateVector(1, amps), 1, 0, BELL)

    def test_rejects_wrong_weight_support(self):
        state = superpose_strings([(1, 1, 0)], BELL)
        with pytest.raises(ValueError, match="subspace"):
            apply_ubc(state, 3, 1, BELL)

    def test_power_of_two_counts_reach_idealized_entropy(self):
        for n, k in [(1, 0), (2, 1), (4, 1), (4, 3), (8, 1), (6, 0), (6, 6)]:
            spec = TestStateSpec(n, k)
            out = apply_ubc(build_test_state(spec), n, k, BELL)
            assert abs(entropy_of(schmidt_spectrum(out)) - e_out(spec)) < 1e-10

    def test_non_power_of_two_counts_fall_short_of_idealized_entropy(self):
        # With C(3,1) = 3 codewords on 2 pairs the image spectrum is forced
        # to {3/8 x2, 1/24 x6} for every injective codebook, so the exact
        # output entanglement sits above the idealized 3 - log2(3).
        out = apply_ubc(build_test_state(TestStateSpec(3, 1)), 3, 1, BELL)
        got = entropy_of(schmidt_spectrum(out))
        forced = -(2 * Fraction(3, 8) * math.log2(3 / 8)
                   + 6 * Fraction(1, 24) * math.log2(1 / 24))
        assert abs(got - float(forced)) < 1e-12
        assert got > e_out(TestStateSpec(3, 1)) + 0.75


class TestLocalCircuits:
    def test_z_on_b_flips_theta_to_tau(self):
        circuit = (Gate(side="B", kind="Z", target=0),)
        out = apply_local_circuit(string_state((0,), BELL), circuit)
        assert fidelity(out, string_state((1,), BELL)) > 1 - 1e-12

    def test_parallel_cnots_fix_theta_theta(self):
        circuit = (
            Gate(side="B", kind="CNOT", control=0, target=1),
            Gate(side="C", kind="CNOT", control=0, target=1),
        )
        out = apply_local_circuit(string_state((0, 0), BELL), circuit)
        assert fidelity(out, string_state((0, 0), BELL)) > 1 - 1e-12

    def test_n2_compression_circuit_reproduces_relabeling(self):
        circuit = compression_circuit_n2()
        # pinned images on the permutation subspace
        for perm, image in ubc_codebook(2, 1):
            out = apply_local_circuit(string_state(perm, BELL), circuit)
            assert fidelity(out, string_state(image, BELL)) > 1 - 1e-10
        # the unitary extension on the remaining logical states
        extension = {(0, 0): (0, 1), (1, 1): (1, 1)}
        for src, dst in extension.items():
            out = apply_local_circuit(string_state(src, BELL), circuit)
            assert fidelity(out, string_state(dst, BELL)) > 1 - 1e-10

    def test_verify_n2_circuit_builds_one_state_per_input(self, monkeypatch):
        calls = []
        monkeypatch.setattr(oracle, "string_state",
                            lambda bits, enc: calls.append(bits) or string_state(bits, enc))
        worst, images = verify_n2_circuit()
        assert len(calls) == 4
        # reference: each output against a dense state of every candidate
        circuit = compression_circuit_n2()
        candidates = codewords(4, 2, 2)
        for bits, image in images.items():
            out = apply_local_circuit(string_state(bits, BELL), circuit)
            fid = [fidelity(out, string_state(c, BELL)) for c in candidates]
            assert image == candidates[fid.index(max(fid))]
            assert 1.0 - max(fid) <= worst + 1e-15
        assert worst < 1e-10

    def test_circuit_agrees_with_apply_ubc_on_superpositions(self):
        circuit = compression_circuit_n2()
        state = build_test_state(TestStateSpec(2, 1))
        via_circuit = apply_local_circuit(state, circuit)
        via_codebook = apply_ubc(state, 2, 1, BELL)
        assert fidelity(via_circuit, via_codebook) > 1 - 1e-10

    def test_hadamard_keeps_bell_pair_maximally_entangled(self):
        # produces a non-diagonal B|C matrix, so rho_B = M M^dagger is not diagonal
        circuit = (Gate(side="B", kind="H", target=0),)
        out = apply_local_circuit(string_state((0,), BELL), circuit)
        assert abs(entropy_of(schmidt_spectrum(out)) - 1.0) < 1e-12

    def test_random_local_circuits_preserve_entanglement(self):
        rng = np.random.default_rng(0xC0FFEE)
        n = 3
        kinds = ["CNOT", "X", "Z", "H"]
        for _ in range(100):
            amps = rng.normal(size=4**n) + 1j * rng.normal(size=4**n)
            amps /= np.linalg.norm(amps)
            state = PureStateVector(n_pairs=n, amps=amps)
            gates = tuple(random_gate(rng, n, kinds[rng.integers(0, len(kinds))])
                          for _ in range(rng.integers(1, 5)))
            out = apply_local_circuit(state, gates)
            assert abs(np.linalg.norm(out.amps) - 1.0) < 1e-12
            assert entanglement_delta(state, out) < 1e-10

    @settings(max_examples=150, deadline=None)
    @given(circuit=local_circuits(), seed=st.integers(0, 2**32 - 1),
           complex_amps=st.booleans())
    def test_matches_dense_gate_reference(self, circuit, seed, complex_amps):
        n, circuit = circuit
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=4**n)
        if complex_amps:
            amps = amps + 1j * rng.normal(size=4**n)
        state = PureStateVector(n_pairs=n, amps=amps / np.linalg.norm(amps))
        out = apply_local_circuit(state, circuit)
        assert out.amps.dtype == state.amps.dtype
        assert not np.shares_memory(out.amps, state.amps)
        assert max_dev(out, dense_circuit_reference(state, circuit)) < 1e-12

    def test_gate_validation(self):
        for kwargs in (
            dict(side="Q", kind="X", target=0),
            dict(side="B", kind="Y", target=0),
            dict(side="B", kind="CNOT", target=0),  # missing control
            dict(side="B", kind="X", target=0, control=1),
            dict(side="B", kind="Z", target=-1),
            dict(side="C", kind="H", target=-1),
            dict(side="B", kind="X", target=-1),
            dict(side="B", kind="CNOT", control=-1, target=0),
            dict(side="C", kind="CNOT", control=0, target=-1),
            dict(side="B", kind="CNOT", control=1, target=1),
        ):
            with pytest.raises(ValueError):
                Gate(**kwargs)
        for gate in (Gate(side="B", kind="X", target=5),
                     Gate(side="C", kind="CNOT", control=0, target=1)):
            with pytest.raises(ValueError, match="pair index"):
                apply_local_circuit(string_state((0,), BELL), (gate,))


class TestFormulaOracleEquivalence:
    def test_e_in_matches_for_all_small_configs(self):
        for n in range(1, 7):
            for k in range(n + 1):
                spec = TestStateSpec(n, k)
                oracle_value = entropy_of(schmidt_spectrum(build_test_state(spec)))
                assert abs(oracle_value - e_in(spec)) < 1e-12

    def test_product_encoding_delta_vanishes(self):
        for n in range(1, 7):
            for k in range(n + 1):
                state = superpose_strings(permutation_strings(n, k), PROD)
                out = apply_ubc(state, n, k, PROD)
                assert entanglement_delta(state, out) < 1e-12


class TestProductControl:
    """The product encoding |00>/|11>: relabeling orthogonal computational
    strings keeps a flat rank-C(n, k) spectrum, so no entanglement moves."""

    CONFIGS = [(n, k) for n in range(1, 9) for k in range(n + 1)]

    @staticmethod
    def _states(n, k):
        state = superpose_strings(permutation_strings(n, k), PROD)
        return state, apply_ubc(state, n, k, PROD)

    def test_product_encoding_is_flat_rank(self):
        for n, k in self.CONFIGS + [(10, 5)]:
            count = math.comb(n, k)
            for state in self._states(n, k):
                probs = schmidt_spectrum(state)
                assert probs.shape == (count,), (n, k)
                assert np.max(np.abs(probs - 1.0 / count)) < 1e-12, (n, k)

    def test_product_encoding_gap_exactly_zero(self):
        # e_in = e_out = log2 C(n, k), the values of the flat spectrum
        for n, k in self.CONFIGS:
            for state in self._states(n, k):
                entropy = entropy_of(schmidt_spectrum(state))
                assert abs(entropy - math.log2(math.comb(n, k))) < 1e-12, (n, k)


class TestCodewords:
    def test_rejects_count_or_width_out_of_range(self):
        for count, width, n in ((5, 2, 2), (2, 3, 2), (-1, 1, 1), (1, -1, 1)):
            with pytest.raises(ValueError, match="width"):
                codewords(count, width, n)

    def test_entropy_matches_dense_route_for_every_count(self):
        # every count c with m = ceil(log2 c) <= n <= 7, each at widths m
        # and m + 1: 381 dense builds.  Width m + 1 is the residual
        # batching layout, a theta/tau prefix pair before the codeword.
        for n in range(1, 8):
            for count in range(1, 2**n + 1):
                m = (count - 1).bit_length()
                got = codeword_entropy(count, n)
                for width in range(m, min(m + 1, n) + 1):
                    strings = codewords(count, width, n)
                    dense = entropy_of(schmidt_spectrum(superpose_strings(strings, BELL)))
                    assert abs(got - dense) < 1e-12, (count, width, n)
