"""Concurrence pipeline and the entanglement-of-formation ledger."""

import math

import numpy as np
import pytest

from refsums import h_decimal
from triconc.eof import concurrence, eof_from_concurrence, ledger, ledgers, rp_reduced_bc
from triconc.exactmath import shannon_h

THETA = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
TAU = np.array([1, 0, 0, -1], dtype=complex) / math.sqrt(2)


def _random_unitary(rng):
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestReducedState:
    def test_p0_is_pure_theta(self):
        assert np.allclose(rp_reduced_bc(0.0), np.outer(THETA, THETA.conj()))

    def test_p_half_is_equal_mixture(self):
        rho = rp_reduced_bc(0.5)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = expected[3, 3] = 0.5
        assert np.allclose(rho, expected, atol=1e-15)

    def test_bell_diagonal_weights(self):
        rho = rp_reduced_bc(0.8)
        assert abs(np.vdot(THETA, rho @ THETA).real - 0.2) < 1e-14
        assert abs(np.vdot(TAU, rho @ TAU).real - 0.8) < 1e-14

    def test_validation(self):
        with pytest.raises(ValueError):
            rp_reduced_bc(1.2)


class TestConcurrence:
    def test_pure_bell_state(self):
        assert abs(concurrence(np.outer(THETA, THETA.conj())) - 1.0) < 1e-12

    def test_maximally_mixed(self):
        assert concurrence(np.eye(4, dtype=complex) / 4) == 0.0

    def test_bell_mixture_closed_form(self):
        # Bell-diagonal mixture of two states: C = |1 - 2p|
        for i in range(0, 101, 5):
            p = i / 100
            assert abs(concurrence(rp_reduced_bc(p)) - abs(1 - 2 * p)) < 1e-10

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(0xC0FFEE)
        rho = 0.7 * rp_reduced_bc(0.8) + 0.3 * np.eye(4, dtype=complex) / 4
        base = concurrence(rho)
        for _ in range(100):
            u = np.kron(_random_unitary(rng), _random_unitary(rng))
            assert abs(concurrence(u @ rho @ u.conj().T) - base) < 1e-10

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="Hermitian"):
            concurrence(np.triu(np.ones((4, 4), dtype=complex)) / 4)
        with pytest.raises(ValueError, match="trace"):
            concurrence(np.eye(4, dtype=complex))
        with pytest.raises(ValueError, match="PSD"):
            concurrence(np.diag([1.5, -0.5, 0, 0]).astype(complex))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="Hermitian"):
            concurrence(np.full((4, 4), np.nan, dtype=complex))


class TestEofFromConcurrence:
    def test_endpoints(self):
        assert eof_from_concurrence(1.0) == 1.0
        assert eof_from_concurrence(0.0) == 0.0

    def test_value_at_06(self):
        # H((1 + 0.8)/2) = H(0.9)
        assert abs(eof_from_concurrence(0.6) - h_decimal("0.9")) < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            eof_from_concurrence(1.5)
        with pytest.raises(ValueError):
            eof_from_concurrence(-0.1)


class TestLedger:
    def test_pure_singlet_case(self):
        led = ledger(0.0)
        assert led.ef_in_per_copy == pytest.approx(1.0, abs=1e-12)
        assert led.ef_out_per_copy == pytest.approx(1.0, abs=1e-12)
        assert led.locking_deficit_per_copy == pytest.approx(0.0, abs=1e-12)
        assert led.s_a_per_copy == 0.0
        assert led.s_b_per_copy == 1.0

    def test_ghz_equivalent_case(self):
        led = ledger(0.5)
        assert led.ef_in_per_copy == pytest.approx(0.0, abs=1e-12)
        assert led.ef_out_per_copy == pytest.approx(0.0, abs=1e-12)
        assert led.locking_deficit_per_copy == pytest.approx(0.0, abs=1e-12)
        assert led.s_a_per_copy == 1.0

    def test_values_at_p08(self):
        led = ledger(0.8)
        assert abs(led.ef_in_per_copy - h_decimal("0.9")) < 1e-12
        assert abs(led.ef_out_per_copy - (1 - h_decimal("0.8"))) < 1e-12
        assert abs(
            led.locking_deficit_per_copy
            - (h_decimal("0.9") + h_decimal("0.8") - 1)
        ) < 1e-12
        assert abs(led.ef_in_per_copy - 0.46900) < 1e-5
        assert abs(led.ef_out_per_copy - 0.27807) < 1e-5
        assert abs(led.locking_deficit_per_copy - 0.19092) < 1e-5

    def test_concurrence_route_equals_closed_form(self):
        for i in range(101):
            p = i / 100
            closed = shannon_h(0.5 + math.sqrt(p * (1 - p)))
            assert abs(ledger(p).ef_in_per_copy - closed) < 1e-10

    def test_deficit_nonnegative_with_known_zeros(self):
        for i in range(101):
            p = i / 100
            deficit = ledger(p).locking_deficit_per_copy
            if p in (0.0, 0.5, 1.0):
                assert abs(deficit) < 1e-12
            else:
                assert deficit > 1e-6

    def test_s_a_matches_explicit_three_party_state(self):
        # |R_p> = sqrt(1-p) |0>_A theta + sqrt(p) |1>_A tau, traced over BC
        for i in range(0, 101, 10):
            p = i / 100
            psi = np.zeros((2, 4), dtype=complex)
            psi[0] = math.sqrt(1 - p) * THETA
            psi[1] = math.sqrt(p) * TAU
            sv = np.linalg.svd(psi, compute_uv=False)
            probs = sv**2
            entropy = -sum(v * math.log2(v) for v in probs if v > 1e-15)
            assert abs(entropy - ledger(p).s_a_per_copy) < 1e-12


class TestLedgers:
    """The grid's ledgers in one stacked pass, float for float the
    one-point pass's: numpy's eigh and svd call LAPACK once per matrix of
    the stack, and every other step is elementwise or per matrix."""

    GRID = [i / 100 for i in range(101)] + [1e-300, 0.1234567890123, 1 - 2**-52]

    def test_grid_equals_one_point_passes(self):
        rng = np.random.default_rng(7)
        for grid in (self.GRID, rng.random(500).tolist(), [0.3]):
            assert ledgers(grid) == [ledgers([p])[0] for p in grid]
        assert [ledger(p) for p in self.GRID] == ledgers(self.GRID)
        assert ledgers([]) == []

    def test_stacked_concurrence(self):
        rng = np.random.default_rng(11)
        stack = []
        for p in (0.0, 0.2, 0.5, 0.9):
            u = np.kron(_random_unitary(rng), _random_unitary(rng))
            stack.append(u @ (0.8 * rp_reduced_bc(p) + 0.05 * np.eye(4)) @ u.conj().T)
        got = concurrence(np.array(stack))
        assert got.shape == (4,)
        assert got.tolist() == [concurrence(rho) for rho in stack]
        assert type(concurrence(stack[0])) is float
        assert rp_reduced_bc(self.GRID).shape == (len(self.GRID), 4, 4)

    def test_one_eigh_per_stack(self, monkeypatch):
        # the PSD check reads the eigenvalues of the eigh sqrt(rho) comes from
        calls = []
        eigh, eigvalsh = np.linalg.eigh, np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append("eigh") or eigh(a))
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda a: calls.append("eigvalsh") or eigvalsh(a))
        concurrence(rp_reduced_bc(self.GRID[:101]))
        assert calls == ["eigh"]

    def test_grid_validation_names_the_bad_point(self):
        for bad in (1.2, -0.1, math.nan):
            with pytest.raises(ValueError, match=f"probability out of \\[0, 1\\]: {bad}"):
                ledgers([0.5, bad, 0.25])
        stack = np.array([rp_reduced_bc(0.3), np.eye(4) / 2])
        with pytest.raises(ValueError, match="trace"):
            concurrence(stack)
        with pytest.raises(ValueError, match="4x4"):
            concurrence(np.eye(3))
