import numpy as np
import pytest
import scipy.linalg as sla

from helpers import build_spin_matrices, commutator, conjugate_series
from sgsim import SpinQN, scaled_config, u2c_phase

ALGEBRA_TOL = 1e-12


def test_spinqn_validation():
    with pytest.raises(ValueError):
        SpinQN(-1)
    with pytest.raises(ValueError):
        SpinQN(1.5)
    assert SpinQN(3).s == 1.5
    assert SpinQN(3).dim == 4


def test_spinqn_parse():
    assert SpinQN.parse("1/2") == SpinQN(1)
    assert SpinQN.parse("3/2") == SpinQN(3)
    assert SpinQN.parse("2") == SpinQN(4)


def test_m_values_descend():
    np.testing.assert_allclose(SpinQN(3).m_values(), [1.5, 0.5, -0.5, -1.5])


def test_m_labels():
    s = SpinQN(2)
    assert [s.label(m) for m in s.m_values()] == ["+1", "0", "-1"]
    h = SpinQN(1)
    assert [h.label(m) for m in h.m_values()] == ["+1/2", "-1/2"]


def test_spin_half_matrices_exact():
    S = build_spin_matrices(SpinQN(1), hbar=1.0)
    np.testing.assert_array_equal(S.sz, np.diag([0.5, -0.5]).astype(complex))
    np.testing.assert_array_equal(S.sx, np.array([[0, 0.5], [0.5, 0]], dtype=complex))
    np.testing.assert_allclose(S.sy, np.array([[0, -0.5j], [0.5j, 0]]), atol=1e-16)


def test_spin_one_sz():
    S = build_spin_matrices(SpinQN(2), hbar=1.0)
    np.testing.assert_array_equal(S.sz, np.diag([1.0, 0.0, -1.0]).astype(complex))


@pytest.mark.parametrize("twice_s", range(6))
@pytest.mark.parametrize("hbar", [1.0, 2.5])
def test_spin_matrix_invariants(twice_s, hbar):
    s = SpinQN(twice_s)
    S = build_spin_matrices(s, hbar)
    scale = max(hbar**2, 1.0)
    for comp in (S.sx, S.sy, S.sz):
        assert np.abs(comp - comp.conj().T).max() <= ALGEBRA_TOL * scale
    np.testing.assert_allclose(np.diag(S.sz), hbar * s.m_values(), atol=1e-15)
    # cyclic commutators [si, sj] = i hbar eps_ijk sk
    for a, b, c in [(S.sx, S.sy, S.sz), (S.sy, S.sz, S.sx), (S.sz, S.sx, S.sy)]:
        assert np.abs(commutator(a, b) - 1j * hbar * c).max() <= ALGEBRA_TOL * scale
    casimir = S.sx @ S.sx + S.sy @ S.sy + S.sz @ S.sz
    expected = hbar**2 * s.s * (s.s + 1) * np.eye(s.dim)
    assert np.abs(casimir - expected).max() <= ALGEBRA_TOL * scale


def test_commutator_basics():
    rng = np.random.default_rng(7)
    A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    B = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    np.testing.assert_array_equal(commutator(A, A), np.zeros((4, 4)))
    np.testing.assert_allclose(commutator(A, B), -commutator(B, A), atol=1e-15)
    S = build_spin_matrices(SpinQN(1))
    np.testing.assert_allclose(commutator(S.sx, S.sy), 1j * S.sz, atol=1e-15)


def test_commutator_rejects_mismatch():
    with pytest.raises(ValueError):
        commutator(np.eye(2), np.eye(3))
    with pytest.raises(ValueError):
        commutator(np.ones((2, 3)), np.ones((2, 3)))


def test_conjugate_series_zeroth_order():
    S = build_spin_matrices(SpinQN(2))
    np.testing.assert_array_equal(conjugate_series(S.sz, S.sx, 0.0, 7), S.sx)
    np.testing.assert_array_equal(conjugate_series(S.sz, S.sx, 0.3j, 0), S.sx)


def test_conjugate_series_commuting_operators():
    A = np.diag([1.0, 2.0, 3.0]).astype(complex)
    B = np.diag([-1.0, 0.5, 2.0]).astype(complex)
    np.testing.assert_allclose(conjugate_series(A, B, 1.7 - 0.4j, 9), B, atol=1e-14)


def _exact_conjugation(A, B, x):
    U = sla.expm(x * A)
    return U @ B @ sla.expm(-x * A)


def test_conjugate_series_matches_expm():
    S = build_spin_matrices(SpinQN(1))
    got = conjugate_series(S.sz, S.sx, 0.1j, 12)
    want = _exact_conjugation(S.sz, S.sx, 0.1j)
    assert np.abs(got - want).max() <= 1e-10


@pytest.mark.parametrize("twice_s", [1, 2])
def test_conjugate_series_converges_monotonically(twice_s):
    S = build_spin_matrices(SpinQN(twice_s))
    # ||xA|| = 0.5 with A = sz whose spectral norm is s
    x = 0.5j / S.s.s
    want = _exact_conjugation(S.sz, S.sx, x)
    errs = [np.abs(conjugate_series(S.sz, S.sx, x, k) - want).max() for k in range(9)]
    assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))


def test_conjugate_series_rejects_mismatch():
    with pytest.raises(ValueError):
        conjugate_series(np.eye(2), np.eye(3), 0.1, 3)
    with pytest.raises(ValueError):
        conjugate_series(np.eye(2), np.eye(2), 0.1, -1)


def test_u2c_phase_zero_time():
    cfg = scaled_config(beta=1.0)
    assert u2c_phase(0.5, 0.0, cfg) == 0.0


def test_u2c_phase_even_in_m():
    cfg = scaled_config(beta=0.7)
    for m in (0.5, 1.0, 1.5):
        assert u2c_phase(m, 0.9, cfg) == u2c_phase(-m, 0.9, cfg)


def test_u2c_phase_scaled_value():
    # hbar = M = 1, |gamma| = beta = 1, m = 1, t = 1 gives exactly -1/6
    cfg = scaled_config(beta=1.0)
    assert u2c_phase(1.0, 1.0, cfg) == pytest.approx(-1.0 / 6.0, abs=1e-15)


def test_u2c_phase_rejects_negative_time():
    with pytest.raises(ValueError):
        u2c_phase(0.5, -1.0, scaled_config())


@pytest.mark.parametrize("twice_s", range(1, 6))
def test_u2c_diagonal_unitary_commutes_with_sz(twice_s):
    s = SpinQN(twice_s)
    cfg = scaled_config(beta=0.8)
    phases = np.array([u2c_phase(m, 1.3, cfg) for m in s.m_values()])
    U = np.diag(np.exp(1j * phases))
    assert np.abs(U @ U.conj().T - np.eye(s.dim)).max() <= ALGEBRA_TOL
    S = build_spin_matrices(s)
    assert np.abs(commutator(U, S.sz)).max() <= ALGEBRA_TOL

