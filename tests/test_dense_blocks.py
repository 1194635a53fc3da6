"""The dense factorization check on (d, n, n) stacks of m blocks, against
the full (n d) x (n d) matrices it replaced (kept in helpers.py)."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla

from helpers import full_bch_check, full_dense_factored_matrix, full_dense_hamiltonian
from sgsim import (Grid, SpinQN, bch_check, dense_factored_matrix, dense_hamiltonian,
                   matrix_exponential, scaled_config)

SPINS = [SpinQN(twice_s) for twice_s in range(1, 8)]  # 1/2 ... 7/2
CASES = [(spin, n) for spin in SPINS for n in (32, 64)]
IDS = [f"{spin.twice_s}/2-n{n}" for spin, n in CASES]


def assert_off_diagonal_blocks_zero(full: np.ndarray, d: int, n: int) -> None:
    for i in range(d):
        for j in range(d):
            if i != j:
                assert np.abs(full[i * n:(i + 1) * n, j * n:(j + 1) * n]).max() == 0.0


@pytest.mark.parametrize("spin,n", CASES, ids=IDS)
def test_blocks_assemble_to_full_matrices(spin, n):
    g = Grid(-16.0, 16.0, n)
    for cfg in (scaled_config(), scaled_config(b0=0.0, beta=0.0)):
        H = dense_hamiltonian(g, cfg, spin)
        U = dense_factored_matrix(g, 0.7, cfg, spin)
        assert H.shape == U.shape == (spin.dim, n, n)
        H_full = full_dense_hamiltonian(g, cfg, spin)
        U_full = full_dense_factored_matrix(g, 0.7, cfg, spin)
        # both operators commute with S_z: nothing lives between m blocks
        assert_off_diagonal_blocks_zero(H_full, spin.dim, n)
        assert_off_diagonal_blocks_zero(U_full, spin.dim, n)
        assert np.abs(sla.block_diag(*H) - H_full).max() <= 1e-15
        assert np.abs(sla.block_diag(*U) - U_full).max() <= 1e-15


@pytest.mark.parametrize("spin,n", CASES, ids=IDS)
def test_bch_check_matches_full_matrix_check(spin, n):
    got, want = bch_check(spin, n), full_bch_check(spin, n)
    assert got.operator_error == pytest.approx(want.operator_error, rel=1e-12)
    # At n = 64 the state errors are ~3e-8 norms of a difference of two
    # unitaries whose entries are rounded at 1e-16, so their last digits
    # follow the eigendecomposition's rounding (measured <= 4.3e-17 apart).
    assert got.state_error == pytest.approx(want.state_error, rel=1e-12, abs=1e-15)


def test_stacked_matrix_exponential_equals_per_matrix_calls():
    H = dense_hamiltonian(Grid(-16.0, 16.0, 64), scaled_config(), SpinQN(7))
    U = matrix_exponential(H, -0.7j)
    for i in range(H.shape[0]):
        assert np.abs(U[i] - matrix_exponential(H[i], -0.7j)).max() <= 1e-15
    rng = np.random.default_rng(5)
    A = rng.normal(size=(2, 3, 5, 5)) + 1j * rng.normal(size=(2, 3, 5, 5))
    A = (A + np.swapaxes(A.conj(), -1, -2)) / 2
    U = matrix_exponential(A, 0.3j)
    assert U.shape == A.shape
    for i in range(2):
        for j in range(3):
            assert np.abs(U[i, j] - matrix_exponential(A[i, j], 0.3j)).max() <= 1e-15


def test_stacked_matrix_exponential_rejects_one_bad_block():
    H = dense_hamiltonian(Grid(-8.0, 8.0, 32), scaled_config(), SpinQN(2))
    bad = H.copy()
    bad[1, 0, 5] += 1e-3
    with pytest.raises(ValueError, match="Hermitian"):
        matrix_exponential(bad, -0.7j)
    bad = H.copy()
    bad[2, 3, 3] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        matrix_exponential(bad, -0.7j)
    with pytest.raises(ValueError, match="square"):
        matrix_exponential(H[:, :, :-1], -0.7j)
    with pytest.raises(ValueError, match="capped"):
        matrix_exponential(np.zeros((2, 600, 600)), 1.0)


def test_bch_check_caps_block_stack_entries():
    # (2s+1) n^2 <= 512^2: spin 3/2 at n = 256 fits, spin 2 does not
    assert bch_check(SpinQN(3), n=256).state_error <= 1e-6
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="dense check capped"):
            bch_check(SpinQN(4), n=256)
        with pytest.raises(ValueError, match="dense check capped"):
            bch_check(SpinQN(4000), n=256)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000
