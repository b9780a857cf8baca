"""Entanglement-of-formation bookkeeping for the B-C pair reduction.

Tracing the three-party state over A leaves B and C with the two-qubit
mixture (1-p)|theta><theta| + p|tau><tau| of the two Bell states.  Its
entanglement of formation follows from the concurrence construction:
C(rho) from the spin-flipped spectrum, then E_F = H((1+sqrt(1-C^2))/2).
The ledger also records the per-copy output value 1 - H(p), the locking
deficit H(1/2 + sqrt(p(1-p))) + H(p) - 1 that assistance from A would
have to fund, and the conserved one-party entropies.  A grid of p is one
pass over the (P, 4, 4) stack of its reductions: each check, eigh,
product and svd runs once, and the PSD check reads the eigenvalues of
the eigh that sqrt(rho) is built from.
"""

from __future__ import annotations

import math

import numpy as np

from ._records import record
from .exactmath import shannon_h
from .oracle import PairEncoding

__all__ = [
    "EofLedger",
    "rp_reduced_bc",
    "concurrence",
    "eof_from_concurrence",
    "ledger",
    "ledgers",
]

_PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(_PAULI_Y, _PAULI_Y)  # Y x Y


class EofLedger(record("EofLedger", "p ef_in_per_copy ef_out_per_copy "
                                   "locking_deficit_per_copy s_a_per_copy s_b_per_copy")):
    """Per-copy bookkeeping at mixing weight p."""

    __slots__ = ()

    def __new__(cls, p: float, ef_in_per_copy: float, ef_out_per_copy: float,
                locking_deficit_per_copy: float, s_a_per_copy: float,
                s_b_per_copy: float) -> EofLedger:
        self = super().__new__(cls, p, ef_in_per_copy, ef_out_per_copy,
                               locking_deficit_per_copy, s_a_per_copy, s_b_per_copy)
        for name in ("ef_in_per_copy", "ef_out_per_copy", "s_a_per_copy", "s_b_per_copy"):
            v = getattr(self, name)
            if not -1e-12 <= v <= 1.0 + 1e-12:
                raise ValueError(f"{name} out of [0, 1]: {v}")
        if not -1.0 - 1e-12 <= (v := locking_deficit_per_copy) <= 1.0 + 1e-12:
            raise ValueError(f"locking deficit out of [-1, 1]: {v}")
        return self


def rp_reduced_bc(p) -> np.ndarray:
    """Two-qubit reduction on B-C: (1-p)|theta><theta| + p|tau><tau|, or
    for an array of p the (..., 4, 4) stack of them.  theta and tau are
    the (|00> +- |11>)/sqrt2 pair of :meth:`PairEncoding.bell`, so the
    result is Bell-diagonal by construction."""
    p = np.asarray(p, dtype=float)
    bad = p[~((0.0 <= p) & (p <= 1.0))]  # NaN too
    if bad.size:
        raise ValueError(f"probability out of [0, 1]: {bad[0]}")
    enc = PairEncoding.bell()
    theta, tau = enc.theta.reshape(-1), enc.tau.reshape(-1)
    p = p[..., None, None]
    return (1.0 - p) * np.outer(theta, theta.conj()) + p * np.outer(tau, tau.conj())


def _check_density(rho: np.ndarray) -> np.ndarray:
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 density matrix, got shape {rho.shape}")
    if not np.max(np.abs(rho - rho.conj().swapaxes(-1, -2))) <= 1e-12:  # NaN fails too
        raise ValueError("density matrix is not Hermitian to 1e-12")
    if np.max(np.abs(np.trace(rho, axis1=-2, axis2=-1).real - 1.0)) > 1e-12:
        raise ValueError("density matrix trace is not 1 to 1e-12")
    return rho


def concurrence(rho: np.ndarray) -> float | np.ndarray:
    """Two-qubit concurrence max(0, l1 - l2 - l3 - l4), or for a (..., 4,
    4) stack the array of each matrix's, every numpy call made once.

    The l_i are the decreasing square roots of the eigenvalues of
    rho (Y x Y) rho* (Y x Y).  That product is similar to the PSD matrix
    A A+ with A = sqrt(rho) (Y x Y) sqrt(rho)*, so the l_i are the
    singular values of A; taking them directly (instead of square roots
    of eigenvalues) keeps rank-deficient states at ~1e-15 accuracy,
    where the squared route loses half the digits to eigenvalue noise.
    Eigenvalues of rho below 1e-14 of the largest are treated as the
    exact zeros they represent; rho must be Hermitian and of trace 1 to
    1e-12, and PSD to 1e-10, read off the same eigh's eigenvalues.
    """
    rho = _check_density(np.asarray(rho, dtype=complex))
    w, v = np.linalg.eigh(rho)
    if w.min() < -1e-10:
        raise ValueError(f"density matrix is not PSD (min eigenvalue {w.min():.3e})")
    w = np.where(w < w.max(axis=-1, keepdims=True) * 1e-14, 0.0, w)
    sqrt_rho = (v * np.sqrt(w)[..., None, :]) @ v.conj().swapaxes(-1, -2)
    a = sqrt_rho @ _YY @ sqrt_rho.conj()
    lam = np.linalg.svd(a, compute_uv=False)
    c = lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3]
    c = np.where(c > 0.0, c, 0.0)
    return c if c.ndim else float(c)


def eof_from_concurrence(c: float) -> float:
    """E_F in ebits from a concurrence value: H((1 + sqrt(1 - c^2)) / 2)."""
    if not -1e-12 <= c <= 1.0 + 1e-12:
        raise ValueError(f"concurrence out of [0, 1]: {c}")
    c = min(max(c, 0.0), 1.0)
    return shannon_h((1.0 + math.sqrt(1.0 - c * c)) / 2.0)


def ledger(p: float) -> EofLedger:
    """Per-copy E_F ledger at mixing weight p: ledgers([p])[0]."""
    return ledgers([p])[0]


def ledgers(p_grid: list[float]) -> list[EofLedger]:
    """Per-copy E_F ledger at each mixing weight p of p_grid, in order.

    ef_in goes through the full pipeline (reduction -> concurrence ->
    E_F), not the closed form H(1/2 + sqrt(p(1-p))) the test suite pins
    it against, in one stacked pass whose LAPACK calls run matrix by
    matrix, so each float is the one-point pass's.  The deficit H(1/2 +
    sqrt(p(1-p))) + H(p) - 1 is how much E_F the hypothetical reversible
    protocol would need to create beyond what one bit of assistance per
    copy can account for."""
    cs = concurrence(rp_reduced_bc(p_grid)).tolist() if p_grid else []
    return [EofLedger(p, eof_from_concurrence(c), 1.0 - shannon_h(p),
                      shannon_h(0.5 + math.sqrt(p * (1.0 - p))) + shannon_h(p) - 1.0,
                      shannon_h(p), 1.0)
            for p, c in zip(p_grid, cs)]
