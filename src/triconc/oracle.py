"""Brute-force state-vector ground truth for small pair counts.

States live on ``n_pairs`` two-qubit pairs; pair ``j`` consists of one
qubit on the B side and one on the C side.  Amplitudes are stored dense,
indexed by the pair of bitstrings ``(b, c)`` with pair 0 as the most
significant bit on each side, flattened as ``index = (b << n) | c``.
Equivalently, ``amps.reshape(2**n, 2**n)[b, c]`` is the amplitude of
``|b>_B |c>_C``, which is the layout the Schmidt decomposition across
the B|C cut wants.

The module knows nothing about closed forms: it builds permutation test
states explicitly, takes Schmidt spectra (as plain arrays of
probabilities) straight off the squared entries of the B|C matrix M when
it has at most one nonzero per row and column, as every stock-encoded
state's has, and otherwise from one ``eigvalsh`` of rho_B = M M^dagger,
applies the compression relabeling as an explicit change of basis, and
simulates one-sided circuits (tuples of :class:`Gate`) gate by gate:
each gate's 2x2 (or, for CNOT, 4x4) matrix is contracted with the qubit
axes it acts on, so no operator as large as the state is ever formed.
Single strings and test states are uniform superpositions of strings
(:func:`superpose_strings`), and every state, relabeled images too, is
built the same way: a ``(2,)*n`` tensor of logical theta/tau
coefficients mapped to amplitudes by that change of basis, applied pair
by pair in Kronecker order, one ``(|S|, 2)`` matrix product per pair on
the pair basis states S where theta or tau is nonzero (|00> and |11>
for the stock encodings), and scattered once into a zeroed B|C matrix.
The way back to logical coefficients gathers the same entries and
measures the norm outside the theta/tau product span, off the support
and, on it, pair by pair as what each step's own projection onto
span{theta, tau} leaves, so the relabeling checks its input without
rebuilding it or forming a second basis.  Storage is real (float64) by
default, since the stock encodings and gates are real; the dtype follows
the encoding, so a caller-built complex :class:`PairEncoding` gives
complex states.
Everything is capped at 10 pairs (4**10 amplitudes); that is the price
of being an oracle.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from ._records import integer
from .teststate import TestStateSpec

__all__ = [
    "MAX_DENSE_PAIRS",
    "PairEncoding",
    "PureStateVector",
    "Gate",
    "string_state",
    "superpose_strings",
    "codewords",
    "build_test_state",
    "schmidt_spectrum",
    "entropy_of",
    "permutation_strings",
    "ubc_codebook",
    "apply_ubc",
    "apply_local_circuit",
    "entanglement_delta",
    "compression_circuit_n2",
    "verify_n2_circuit",
]

#: Dense vectors stop here: 4**10 amplitudes (8 MB in float64) is desk-scale.
MAX_DENSE_PAIRS = 10

_ORTHO_TOL = 1e-12


@dataclass(frozen=True, eq=False)  # ndarray fields: no element-wise __eq__
class PairEncoding:
    """The orthonormal signal pair (theta, tau) of one two-qubit pair.

    Each state is stored as a 2x2 amplitude matrix indexed ``[b, c]``
    over the pair's B and C qubits, i.e. the four amplitudes on {00, 01,
    10, 11}.  The stock encodings are real (float64); a complex pair
    makes every state built from it complex.
    """

    theta: np.ndarray
    tau: np.ndarray

    def __post_init__(self) -> None:
        for name, m in (("theta", self.theta), ("tau", self.tau)):
            if not isinstance(m, np.ndarray) or m.shape != (2, 2):
                raise ValueError(f"{name} must be a 2x2 ndarray of amplitudes")
            if not abs(np.linalg.norm(m) - 1.0) <= _ORTHO_TOL:  # NaN fails too
                raise ValueError(f"{name} is not normalized")
        if abs(np.vdot(self.theta, self.tau)) > _ORTHO_TOL:
            raise ValueError("theta and tau must be orthogonal")

    @functools.cached_property
    def _support(self) -> tuple[tuple[int, ...], np.ndarray]:
        """S, the pair basis states 2b + c (of 00, 01, 10, 11) on which
        theta or tau is nonzero, ascending, and the (|S|, 2) rows a_S of
        [theta tau] on S.  Every state built from the pair has its
        amplitudes on the product of the pairs' S only."""
        a = np.stack([self.theta.reshape(-1), self.tau.reshape(-1)]).T  # (4, 2)
        support = np.flatnonzero(np.any(a != 0, axis=1))
        return tuple(support.tolist()), a[support]

    @classmethod
    @functools.cache
    def bell(cls) -> "PairEncoding":
        """theta = (|00>+|11>)/sqrt2, tau = (|00>-|11>)/sqrt2: one shared
        instance, so that its support is taken once, its arrays read-only."""
        s = 1.0 / math.sqrt(2.0)
        theta_tau = np.array([[[s, 0.0], [0.0, s]], [[s, 0.0], [0.0, -s]]])
        theta_tau.flags.writeable = False
        return cls(*theta_tau)

    @classmethod
    @functools.cache
    def product(cls) -> "PairEncoding":
        """theta = |00>, tau = |11>: one shared instance, as bell()."""
        theta_tau = np.array([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]])
        theta_tau.flags.writeable = False
        return cls(*theta_tau)


@dataclass(frozen=True, eq=False)  # ndarray field: no element-wise __eq__
class PureStateVector:
    """Dense normalized state of n_pairs two-qubit pairs."""

    n_pairs: int
    amps: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if not 1 <= integer("n_pairs", self.n_pairs) <= MAX_DENSE_PAIRS:
            raise ValueError(f"n_pairs must be in [1, {MAX_DENSE_PAIRS}]")
        shape = self.amps.shape if isinstance(self.amps, np.ndarray) else type(self.amps)
        if shape != (4**self.n_pairs,):
            raise ValueError(f"amps must be an ndarray of length 4**{self.n_pairs}, got {shape}")

    def as_matrix(self) -> np.ndarray:
        """(2^n, 2^n) view with row = B bitstring, column = C bitstring."""
        d = 1 << self.n_pairs
        return self.amps.reshape(d, d)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


#: The gate kinds and their matrices, indexed [out, in].  A 4x4 entry acts
#: on (control, target) with the control as the more significant bit.
_GATE_MATRICES = {
    "X": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "Z": np.diag([1.0, -1.0]),
    "H": np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0),
    "CNOT": np.eye(4)[[0, 1, 3, 2]],  # |10> <-> |11>
}


@dataclass(frozen=True)
class Gate:
    """One gate acting on a single side's qubits, pair-indexed."""

    side: str  # "B" or "C"
    kind: str  # a key of _GATE_MATRICES: "CNOT", "X", "Z", "H"
    target: int
    control: int | None = None

    def __post_init__(self) -> None:
        if self.side not in ("B", "C"):
            raise ValueError(f"side must be 'B' or 'C', got {self.side!r}")
        if self.kind not in _GATE_MATRICES:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if (self.kind == "CNOT") != (self.control is not None):
            raise ValueError("control index is required for CNOT and only CNOT")
        integer("target", self.target)
        if self.control is not None:
            integer("control", self.control)
        if self.target < 0 or (self.control is not None and self.control < 0):
            raise ValueError(f"gate {self} has a negative pair index")
        if self.control == self.target:
            raise ValueError("CNOT control and target must differ")


def _check_cap(n: int) -> None:
    if n > MAX_DENSE_PAIRS:
        raise ValueError(f"{n} pairs exceeds the dense cap of {MAX_DENSE_PAIRS}")


def _logical_index(strings: list[tuple[int, ...]], n: int) -> tuple[np.ndarray, ...]:
    # One index array per pair, addressing every string in a (2,)*n tensor.
    index = np.array(strings).reshape(len(strings), n)  # checked before the cast
    if np.any((index != 0) & (index != 1)):
        raise ValueError("string entries must be 0 (theta) or 1 (tau)")
    return tuple(index.astype(np.intp).T)


def string_state(bits: tuple[int, ...], enc: PairEncoding) -> PureStateVector:
    """Product state with pair j in tau if bits[j] else theta."""
    return superpose_strings([tuple(bits)], enc)


def superpose_strings(
    strings: list[tuple[int, ...]], enc: PairEncoding
) -> PureStateVector:
    """Uniform superposition of distinct theta/tau product strings."""
    if not strings:
        raise ValueError("need at least one string")
    n = len(strings[0])
    if any(len(s) != n for s in strings):
        raise ValueError("all strings must have the same length")
    if len(set(strings)) != len(strings):
        raise ValueError("strings must be distinct")
    _check_cap(n)
    # Distinct strings are orthonormal, so equal logical coefficients
    # 1/sqrt(count) give a normalized state.
    logical = np.zeros((2,) * n)
    logical[_logical_index(strings, n)] = 1.0 / math.sqrt(len(strings))
    return _from_logical(logical, n, enc)


def permutation_strings(n: int, k: int) -> list[tuple[int, ...]]:
    """All weight-k tau-indicator strings of length n, lexicographic."""
    out = []
    for positions in itertools.combinations(range(n), k):
        bits = [0] * n
        for j in positions:
            bits[j] = 1
        out.append(tuple(bits))
    out.sort()
    return out


def codewords(count: int, width: int, n: int) -> list[tuple[int, ...]]:
    """The integers 0..count-1 as width-bit strings, most significant bit
    first, each padded with theta (0) to length n."""
    if not (0 <= width <= n and 0 <= count <= 1 << width):
        raise ValueError(f"need 0 <= width <= n and 0 <= count <= 2^width, "
                         f"got count={count}, width={width}, n={n}")
    pad = [0] * (n - width)
    return [tuple([(j >> (width - 1 - a)) & 1 for a in range(width)] + pad)
            for j in range(count)]


def build_test_state(spec: TestStateSpec) -> PureStateVector:
    """Uniform superposition over all C(n, k) permutation strings in the
    Bell encoding, the state :mod:`triconc.teststate` has closed forms
    for; other encodings go through :func:`superpose_strings`."""
    _check_cap(spec.n)  # before enumerating C(n, k) strings
    return superpose_strings(permutation_strings(spec.n, spec.k), PairEncoding.bell())


def schmidt_spectrum(state: PureStateVector) -> np.ndarray:
    """Schmidt probabilities across B|C: the eigenvalues of the reduced
    density matrix rho_B = M M^dagger above 1e-14, in descending order
    (float64).

    A monomial M (a permuted diagonal: at most one nonzero in every row
    and every column, i.e. as many nonzero entries as nonzero rows and as
    nonzero columns) has rho_B diagonal, and its probabilities are read
    off the entries as v conj(v), with no ``eigvalsh``.  A state in
    span{|00>, |11>} per pair has a diagonal M, so every state the stock
    encodings build (test states, relabeled images, codeword
    superpositions) is monomial.  Each probability is then |v|^2 to a few
    ulps.

    Every other M goes through one ``eigvalsh`` of the full d x d rho_B,
    d = 2^n.  rho_B is Hermitian with trace |M|_F^2 = 1; forming it rounds
    each entry by O(d eps) (a length-d dot product), and the Hermitian
    solver is backward stable, so by Weyl's bound each probability is off
    by O(d eps) absolute.  Squaring M's condition number costs digits in
    its singular values, not in these probabilities.
    """
    if not abs(state.norm() - 1.0) <= 1e-10:  # NaN fails too
        raise ValueError(f"state is not normalized: |amps| = {state.norm()}")
    m = state.as_matrix()
    nz = m != 0
    count = np.count_nonzero(nz)
    if count == np.count_nonzero(nz.any(axis=0)) == np.count_nonzero(nz.any(axis=1)):
        v = m[nz]
        probs = (v * v.conj()).real.astype(np.float64, copy=False)
    else:
        probs = np.linalg.eigvalsh(m @ m.conj().T)
    probs = np.sort(probs)[::-1]
    return probs[probs > 1e-14]


def entropy_of(probs: np.ndarray) -> float:
    """Von Neumann entropy (bits) of Schmidt probabilities, 0*log0 = 0.

    Raises ValueError on a NaN, infinite or negative entry.
    """
    p = np.asarray(probs, dtype=np.float64)
    if not np.all((p >= 0.0) & (p < np.inf)):  # NaN fails too
        raise ValueError("probabilities must be finite and non-negative")
    p = p[p > 0.0]
    return float(np.sum(-p * np.log2(p)))


def ubc_codebook(n: int, k: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The compression relabeling as (permutation string, image string) pairs.

    The j-th lexicographic permutation string maps to the j-th
    lexicographic theta/tau string on the leading ceil(log2 C(n, k))
    pairs, padded with theta.  Which permutation string takes which
    image does not change the output entanglement of the uniform test
    state, but the image set does: at C = 10 on 4 pairs this prefix set
    gives 1.706 ebit on the codeword pairs (the least of all 10-subsets),
    while other 10-subsets give up to 2.420.  The lexicographic prefix
    set is the one the oracle applies and the acceptance suite pins.
    """
    perms = permutation_strings(n, k)
    count = len(perms)
    return list(zip(perms, codewords(count, (count - 1).bit_length(), n)))


def _logical_coefficients(
    state: PureStateVector, enc: PairEncoding
) -> tuple[np.ndarray, float]:
    # _from_logical undone step by step on the support S: gather the
    # amplitudes on S, pair 0 leading, then split the leading pair's
    # S-coordinate off and contract it with <theta| and <tau| on S, its
    # logical bit going ahead of X.  Axis j of the result is the logical index
    # of pair j.  What each step's projection leaves of its (|S|, R) array
    # t_j is t_j - a_S (W t_j), and the norm outside the product span is the
    # square root of the squared norm off the support plus the sum of those
    # remainders' squares, as apply_ubc's docstring derives.
    n = state.n_pairs
    support, a_s = enc._support
    idx = _support_index(support, n)
    off = state.amps.copy()
    off[idx] = 0
    outside = _square_norm(off)  # a sum of squares, never |psi|^2 - |psi_S|^2
    w = a_s.T.conj()
    t = state.amps[idx].reshape(1, -1)
    for _ in range(n):
        x = len(t)
        t = t.reshape(x, len(support), -1).transpose(1, 0, 2).reshape(len(support), -1)
        u = w @ t
        outside += _square_norm(t - a_s @ u)
        t = u.reshape(2 * x, -1)
    return t.reshape((2,) * n).T, math.sqrt(outside)


def _square_norm(v: np.ndarray) -> float:
    return float(np.vdot(v, v).real)


@functools.lru_cache(maxsize=None)  # at most 15 supports times MAX_DENSE_PAIRS
def _support_index(support: tuple[int, ...], n: int) -> np.ndarray:
    """The flat B|C index of each entry of the (|S|,)^n tensor of
    amplitudes on the support S = support, pair 0 leading: the sum over j
    of e[s_j] 2^(n-1-j), e[s] = b(s) 2^n + c(s) for s = 2b + c; for
    S = {00, 11}, (2^n + 1) arange(2^n).  Read-only, as it is shared."""
    s = np.array(support, dtype=np.intp)
    e = (s >> 1 << n) | (s & 1)
    idx = np.zeros(1, dtype=np.intp)
    for _ in range(n):
        idx = (2 * idx[:, None] + e).reshape(-1)
    idx.flags.writeable = False
    return idx


def _from_logical(logical: np.ndarray, n: int, enc: PairEncoding) -> PureStateVector:
    # Kronecker order, last pair first, on t = (X, R): X holds the logical
    # bits of the pairs to do (pair 0's last), R the S-coordinates of the
    # pairs done.  A step maps X's leading bit to its pair's amplitudes on S
    # with a_S and puts them ahead of R, so t ends as the (|S|,)^n tensor of
    # the state's amplitudes on the support, pair 0 leading, which one
    # scatter writes into the otherwise zero B|C matrix.
    support, a_s = enc._support
    t = logical.T.reshape(-1, 1)
    for _ in range(n):
        x, r = t.shape
        t = (a_s @ t.reshape(2, -1)).reshape(len(support), x // 2, r)
        t = t.transpose(1, 0, 2).reshape(x // 2, -1)
    amps = np.zeros(4**n, dtype=t.dtype)
    amps[_support_index(support, n)] = t.reshape(-1)
    return PureStateVector(n_pairs=n, amps=amps)


def apply_ubc(
    state: PureStateVector, n: int, k: int, enc: PairEncoding
) -> PureStateVector:
    """Apply the compression relabeling to a permutation-subspace state.

    The state must (a) lie in the theta/tau product span of its pairs,
    with the norm of its part outside that span below 1e-10, and (b) be
    supported only on weight-k strings.  Both violations are domain
    errors.  The relabeling follows :func:`ubc_codebook` and is an
    isometry on the permutation subspace.

    The part outside the span is measured while the logical coefficients
    are taken, with no state rebuilt from them.  With S the pair basis
    states on which theta or tau is nonzero, the product span lies in the
    entries whose every pair is in S, and the projector Pi on it reads only
    those entries, so (I - Pi) psi = psi_off + (I - Pi) psi_S, psi_off the
    entries off that support and psi_S the others, two orthogonal parts.
    The first is taken as the sum of the squares of those entries, never
    as |psi|^2 - |psi_S|^2.  For the second, with P_j the projector on
    span{theta, tau} of pair j, I - P_0 P_1 ... P_{n-1} telescopes into the
    sum over j of P_0 ... P_{j-1} (I - P_j), whose terms are mutually
    orthogonal, so its square is the sum of |t_j - a_S (W t_j)|^2: t_j the
    (|S|, R) array of step j, which already carries the contractions P_0
    ... P_{j-1}, a_S the (|S|, 2) rows of [theta tau] on S, orthonormal
    columns because theta and tau vanish off S, and W = a_S^dagger, so
    W t_j is the step's own projection, the one that gives the logical
    coefficients.  (For a support of two states, as in the stock
    encodings, a_S is unitary and these remainders are rounding.)  Every
    term is a sum of squares, never a difference of nearly equal norms.
    Each remainder is off by a few eps |t_j| <= a few eps absolute (|S| <=
    4 and |psi| = 1), so the residual is off by O(eps) relative to itself
    plus a few eps sqrt(n) absolute, and the 1e-10 threshold means what
    the round trip's |psi - Pi psi| meant (the two agree to within a few
    1e-15).
    """
    if state.n_pairs != n:
        raise ValueError(f"state has {state.n_pairs} pairs, expected {n}")
    logical, residual = _logical_coefficients(state, enc)
    if residual > 1e-10:
        raise ValueError(
            f"state is not in the theta/tau product span (residual {residual:.3e})"
        )
    codebook = ubc_codebook(n, k)
    perms = _logical_index([perm for perm, _ in codebook], n)
    images = _logical_index([image for _, image in codebook], n)
    support = np.zeros(logical.shape, dtype=bool)
    support[perms] = True
    off_support = float(np.linalg.norm(logical[~support]))
    if off_support > 1e-10:
        raise ValueError(
            f"state leaves the weight-{k} permutation subspace "
            f"(off-support norm {off_support:.3e})"
        )
    mapped = np.zeros_like(logical)
    mapped[images] = logical[perms]
    return _from_logical(mapped, n, enc)


def apply_local_circuit(
    state: PureStateVector, gates: tuple[Gate, ...]
) -> PureStateVector:
    """Apply each gate's matrix, in order, to its side's qubits only.

    The amplitudes are viewed as a ``(2,)*2n`` tensor with axes b_0..b_{n-1},
    c_0..c_{n-1}; a gate on side C and pair j acts on axis n + j.
    """
    n = state.n_pairs
    t = state.amps.reshape((2,) * (2 * n)).copy()  # the output never aliases the input
    for gate in gates:
        pairs = (gate.target,) if gate.control is None else (gate.control, gate.target)
        if max(pairs) >= n:
            raise ValueError(f"gate {gate} addresses a pair index >= {n}")
        axes = [j + n if gate.side == "C" else j for j in pairs]
        q = len(pairs)
        u = _GATE_MATRICES[gate.kind].reshape((2,) * (2 * q))  # out axes, in axes
        t = np.moveaxis(np.tensordot(u, t, axes=(range(q, 2 * q), axes)), range(q), axes)
    return PureStateVector(n_pairs=n, amps=t.reshape(-1))


def entanglement_delta(state_in: PureStateVector, state_out: PureStateVector) -> float:
    """|E(in) - E(out)| across B|C: a lower bound on the non-locality of
    whatever transformation connects the two states."""
    e_in = entropy_of(schmidt_spectrum(state_in))
    e_out = entropy_of(schmidt_spectrum(state_out))
    return abs(e_in - e_out)


def compression_circuit_n2() -> tuple[Gate, ...]:
    """Candidate one-sided-gates circuit for the n=2, k=1 relabeling.

    Physical CNOTs from pair 1 into pair 0 on both sides implement a
    logical CNOT in the reversed direction (control pair 0, target pair
    1) on the Bell-encoded logical bits; Z on one side's pair-1 qubit is
    a logical NOT of pair 1.  Net logical action: (a, b) -> (a, a xor b
    xor 1), which sends theta.tau -> theta.theta and tau.theta ->
    tau.theta as the relabeling requires; :func:`verify_n2_circuit`
    checks it against the explicit codebook.
    """
    return (
        Gate(side="B", kind="CNOT", control=1, target=0),
        Gate(side="C", kind="CNOT", control=1, target=0),
        Gate(side="B", kind="Z", target=1),
    )


def verify_n2_circuit() -> tuple[float, dict[tuple[int, ...], tuple[int, ...]]]:
    """Run :func:`compression_circuit_n2` on the four Bell-encoded logical
    basis strings; return the worst infidelity to each output's nearest
    logical string (1.0 if an input pinned by ``ubc_codebook(2, 1)`` lands
    elsewhere) and each input's image.  The circuit implements the
    relabeling when that infidelity is negligible and the images distinct.
    """
    enc = PairEncoding.bell()
    circuit = compression_circuit_n2()
    pinned = dict(ubc_codebook(2, 1))
    logical = codewords(4, 2, 2)
    worst = 0.0
    images = {}
    for bits in logical:
        out, _ = _logical_coefficients(apply_local_circuit(string_state(bits, enc), circuit), enc)
        fid = {c: abs(out[c]) for c in logical}
        images[bits] = max(logical, key=fid.__getitem__)  # first on ties
        worst = max(worst, 1.0 - fid[images[bits]])
        if bits in pinned and images[bits] != pinned[bits]:
            worst = 1.0
    return worst, images
