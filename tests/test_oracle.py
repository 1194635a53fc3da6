import math

import numpy as np
import pytest
import scipy.linalg as sla

from sgsim import (Grid, SampledSpinor, SpinQN, default_silver_config, dense_hamiltonian,
                   evolve, free_evolve, from_gaussian, gaussian_hybrid, matrix_exponential,
                   sample, sample_state, scaled_config, spinor_l2_distance, split_step_evolve,
                   strang_phase, u2c_phase)
from sgsim.harness import SILVER_GRID


def make_spinor(grid, packets, coeffs, frame_k=None):
    s = SpinQN(len(packets) - 1)
    comps = np.array([c * sample(p, grid) for c, p in zip(coeffs, packets)])
    if frame_k is None:
        frame_k = np.zeros(s.dim)
    return SampledSpinor(grid, s, comps, np.asarray(frame_k, dtype=float))


def test_grid_properties():
    g = Grid(-8.0, 8.0, 64)
    assert g.dz == pytest.approx(0.25)
    assert g.z[0] == -8.0 and g.z[-1] == pytest.approx(8.0 - 0.25)
    assert g.k.max() == pytest.approx(np.pi / g.dz - 2 * np.pi / g.length)
    with pytest.raises(ValueError):
        Grid(-1.0, -2.0, 64)
    with pytest.raises(ValueError):
        Grid(-1.0, 1.0, 48)  # not a power of two


def test_sampled_spinor_shape_checks():
    g = Grid(-8.0, 8.0, 64)
    with pytest.raises(ValueError):
        SampledSpinor(g, SpinQN(1), np.zeros((3, 64), dtype=complex), np.zeros(2))
    with pytest.raises(ValueError):
        SampledSpinor(g, SpinQN(1), np.zeros((2, 64), dtype=complex), np.zeros(3))


def test_sampled_spinor_norm_and_density():
    g = Grid(-12.0, 12.0, 512)
    psi = make_spinor(g, [from_gaussian(1.0), from_gaussian(1.0, 2.0)],
                      np.array([0.6, 0.8]))
    assert psi.norm() == pytest.approx(1.0, abs=1e-10)
    assert np.sum(psi.density()) * g.dz == pytest.approx(1.0, abs=1e-10)


def test_to_lab_folds_frame_phase():
    g = Grid(-12.0, 12.0, 256)
    psi = make_spinor(g, [from_gaussian(1.0)], np.array([1.0]), frame_k=[2.0])
    lab = psi.to_lab()
    np.testing.assert_array_equal(lab.frame_k, [0.0])
    np.testing.assert_allclose(lab.components[0],
                               psi.components[0] * np.exp(2j * g.z), rtol=1e-12)
    # same physics in two gauges compares equal
    assert spinor_l2_distance(psi, lab) <= 1e-12


def test_split_step_zero_time_is_identity():
    g = Grid(-12.0, 12.0, 256)
    psi = make_spinor(g, [from_gaussian(1.0)], np.array([1.0]))
    out = split_step_evolve(psi, 0.0, 4, scaled_config())
    np.testing.assert_array_equal(out.components, psi.components)


def test_split_step_argument_validation():
    g = Grid(-12.0, 12.0, 256)
    psi = make_spinor(g, [from_gaussian(1.0)], np.array([1.0]))
    with pytest.raises(ValueError):
        split_step_evolve(psi, 1.0, 0, scaled_config())
    with pytest.raises(ValueError):
        split_step_evolve(psi, -1.0, 4, scaled_config())


def test_split_step_flags_boundary_leak():
    g = Grid(-12.0, 12.0, 256)
    psi = make_spinor(g, [from_gaussian(1.0, z0=-11.5)], np.array([1.0]))
    with pytest.raises(ValueError, match="component m=0 touches the grid boundary"):
        split_step_evolve(psi, 0.5, 4, scaled_config(b0=0.0, beta=0.0))
    # m is named with SpinQN.label, as the density window error names it
    psi = make_spinor(g, [from_gaussian(1.0), from_gaussian(1.0, z0=-11.5)], np.array([0.6, 0.8]))
    with pytest.raises(ValueError, match="component m=-1/2 touches the grid boundary"):
        split_step_evolve(psi, 0.5, 4, scaled_config(b0=0.0, beta=0.0))


def test_split_step_pure_kinetic_matches_closed_form():
    # with B0 = beta = 0 the potential vanishes and the stepper must
    # reproduce exact free evolution regardless of step count
    cfg = scaled_config(b0=0.0, beta=0.0)
    g = Grid(-16.0, 16.0, 512)
    p0 = from_gaussian(1.0, z0=-1.0, k0=1.0)
    psi = make_spinor(g, [p0], np.array([1.0]))
    out = split_step_evolve(psi, 2.0, 3, cfg)
    want = sample(free_evolve(p0, 2.0, cfg.mass, cfg.hbar), g)
    assert np.abs(out.components[0] - want).max() <= 1e-8


def test_split_step_conserves_norm():
    cfg = scaled_config()
    g = Grid(-16.0, 16.0, 512)
    psi = make_spinor(g, [from_gaussian(1.0), from_gaussian(1.0)],
                      np.array([0.6, 0.8j]))
    out = split_step_evolve(psi, 1.0, 64, cfg)
    assert out.norm() == pytest.approx(psi.norm(), abs=1e-12)


def test_split_step_components_decouple():
    cfg = scaled_config()
    g = Grid(-16.0, 16.0, 512)
    packets = [from_gaussian(1.0, z0=-0.5), from_gaussian(0.8, z0=0.5)]
    coeffs = np.array([0.6, 0.8])
    joint = split_step_evolve(make_spinor(g, packets, coeffs), 1.0, 32, cfg)
    for i in range(2):
        solo_c = np.zeros(2)
        solo_c[i] = coeffs[i]
        solo = split_step_evolve(make_spinor(g, packets, solo_c), 1.0, 32, cfg)
        np.testing.assert_array_equal(joint.components[i], solo.components[i])


def test_split_step_second_order_convergence():
    # halving tau must cut the splitting error ~4x; measured against the
    # closed-form state, compared in the stepper's own gauge
    cfg = scaled_config()
    g = Grid(-16.0, 16.0, 512)
    spin = SpinQN(1)
    st0 = gaussian_hybrid(spin, np.array([1.0, 0.0]), cfg)
    st1 = evolve(st0, 1.0, cfg)

    errs = []
    for steps in (16, 32):
        out = split_step_evolve(sample_state(st0, g), 1.0, steps, cfg)
        want = sample_state(st1, g, frame_k=out.frame_k)
        errs.append(spinor_l2_distance(out, want))
    ratio = errs[0] / errs[1]
    assert errs[1] < errs[0]
    assert 4.0 == pytest.approx(ratio, rel=0.2)


@pytest.mark.parametrize("steps", [1, 3])
@pytest.mark.parametrize("twice_s", [1, 2])
def test_strang_phase_is_the_whole_splitting_error_at_silver_scale(twice_s, steps):
    # For a linear potential a Strang step is exact up to a global phase per
    # component.  With that phase removed, even one step over the transit,
    # whose kick spans ~220 times the grid's momentum band, matches the
    # closed form phases included.
    cfg = default_silver_config()
    t, s = cfg.transit_time, SpinQN(twice_s)
    st0 = gaussian_hybrid(s, np.ones(s.dim) / math.sqrt(s.dim), cfg)
    out = split_step_evolve(sample_state(st0, SILVER_GRID), t, steps, cfg)
    want = sample_state(evolve(st0, t, cfg), SILVER_GRID, frame_k=out.frame_k)
    phase = strang_phase(s.m_values(), t, steps, cfg)
    unphased = SampledSpinor(SILVER_GRID, s, out.components * np.exp(-1j * phase)[:, None],
                             out.frame_k)
    assert spinor_l2_distance(unphased, want) <= 1e-9
    # the phase itself is thousands of radians
    assert spinor_l2_distance(out, want) > 0.1


def test_strang_phase_is_a_quarter_of_u2c_over_steps_squared():
    cfg = default_silver_config()
    m = SpinQN(3).m_values()
    np.testing.assert_allclose(strang_phase(m, 2e-5, 7, cfg),
                               -u2c_phase(m, 2e-5, cfg) / (4 * 7 * 7), rtol=1e-14)


def test_dense_hamiltonian_structure():
    g = Grid(-8.0, 8.0, 32)
    cfg = scaled_config()
    s = SpinQN(2)
    H = sla.block_diag(*dense_hamiltonian(g, cfg, s))
    assert H.shape == (96, 96)
    assert np.abs(H - H.conj().T).max() <= 1e-12
    # free case: identical blocks for every m (the zero blocks between
    # different m are checked against the full matrix in test_dense_blocks)
    H0 = sla.block_diag(*dense_hamiltonian(g, scaled_config(b0=0.0, beta=0.0), s))
    block = H0[:32, :32]
    for i in range(1, 3):
        np.testing.assert_allclose(H0[32 * i:32 * (i + 1), 32 * i:32 * (i + 1)],
                                   block, atol=1e-15)


def test_dense_hamiltonian_rejects_large_grids():
    with pytest.raises(ValueError):
        dense_hamiltonian(Grid(-8.0, 8.0, 512), scaled_config(), SpinQN(1))


def test_dense_propagator_is_unitary():
    g = Grid(-8.0, 8.0, 32)
    U = sla.block_diag(*matrix_exponential(dense_hamiltonian(g, scaled_config(), SpinQN(1)),
                                           -1j * 0.7))
    assert np.abs(U @ U.conj().T - np.eye(64)).max() <= 1e-10


def test_matrix_exponential_basics():
    np.testing.assert_array_equal(matrix_exponential(np.zeros((3, 3)), 1.0), np.eye(3))
    D = np.diag([1.0, -2.0, 0.5])
    np.testing.assert_allclose(matrix_exponential(D, 0.3j),
                               np.diag(np.exp(0.3j * np.diag(D))), atol=1e-14)
    rng = np.random.default_rng(3)
    A = rng.normal(size=(5, 5))
    H = (A + A.T) / 2
    got = matrix_exponential(H, 1j) @ matrix_exponential(H, -1j)
    assert np.abs(got - np.eye(5)).max() <= 1e-10


def test_matrix_exponential_general_fallback():
    """Non-Hermitian input has no fallback: it is rejected.  Its Hermitian
    part still matches scipy's scaling-and-squaring."""
    rng = np.random.default_rng(4)
    A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    with pytest.raises(ValueError, match="Hermitian"):
        matrix_exponential(A, 0.2)
    H = (A + A.conj().T) / 2
    np.testing.assert_allclose(matrix_exponential(H, 0.2j), sla.expm(0.2j * H),
                               atol=1e-12)


def test_matrix_exponential_hermitian_tolerance_is_relative():
    """At SI energy scales (~1e-31 J) a wholly non-Hermitian matrix is
    rejected, and a Hermitian one is exponentiated as at order one."""
    with pytest.raises(ValueError, match="Hermitian"):
        matrix_exponential(np.array([[0.0, 1e-31], [0.0, 0.0]]), 1.0)
    rng = np.random.default_rng(5)
    A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    H = (A + A.conj().T) / 2
    np.testing.assert_allclose(matrix_exponential(1e-31 * H, -1e31j),
                               matrix_exponential(H, -1j), atol=1e-12)


def test_matrix_exponential_validation():
    with pytest.raises(ValueError):
        matrix_exponential(np.ones((2, 3)), 1.0)
    with pytest.raises(ValueError):
        matrix_exponential(np.full((2, 2), np.nan), 1.0)
    with pytest.raises(ValueError):
        matrix_exponential(np.eye(600), 1.0)
