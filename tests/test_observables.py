"""Tests for densities, the spin reduced density matrix, entanglement
entropy, semiclassical kinematics, and beam-separation measurement.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from sgsim import (
    DensityProfile,
    Grid,
    HybridState,
    SpinQN,
    SpinRDM,
    default_silver_config,
    entanglement_entropy,
    evolve,
    from_gaussian,
    gaussian_hybrid,
    moments,
    peak_separation,
    position_density_z,
    sample,
    scaled_config,
    spin_rdm,
)

from sgsim.harness import SILVER_GRID
from sgsim.observables import RDM_TOL

from helpers import global_phase, semiclassical, spatial_reduction_entropy, stack_packets

WIDE_GRID = Grid(z_min=-40.0, z_max=40.0, n=2048)


def make_state(coeffs, centers, sigma: float = 1.0) -> HybridState:
    """Spin-1/2 (or higher) hybrid state with z packets at the given
    centers.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    coeffs = coeffs / np.linalg.norm(coeffs)
    s = SpinQN(twice_s=len(coeffs) - 1)
    return HybridState(
        s=s,
        coeffs=coeffs,
        z=stack_packets(from_gaussian(sigma, z0, 0.0) for z0 in centers),
    )


def binary_entropy(p: float) -> float:
    terms = [q * math.log(q) for q in (p, 1.0 - p) if q > 0.0]
    return -sum(terms)


# ---------------------------------------------------------------------------
# DensityProfile and SpinRDM validation
# ---------------------------------------------------------------------------


def test_density_profile_rejects_wrong_shape():
    grid = Grid(z_min=-5.0, z_max=5.0, n=64)
    with pytest.raises(ValueError, match="shape"):
        DensityProfile(grid, np.zeros(65))


def test_density_profile_rejects_negative_values():
    grid = Grid(z_min=-5.0, z_max=5.0, n=64)
    values = np.full(64, 0.1)
    values[3] = -0.1
    with pytest.raises(ValueError, match="nonnegative"):
        DensityProfile(grid, values)


def test_density_profile_rejects_unnormalized():
    grid = Grid(z_min=-5.0, z_max=5.0, n=64)
    with pytest.raises(ValueError, match="integrate"):
        DensityProfile(grid, np.full(64, 1.0))
    # finite values whose sum overflows are finite: the integral check names them
    values = np.zeros(64)
    values[:2] = 1e308
    with np.errstate(over="ignore"), pytest.raises(ValueError,
                                                    match="density must integrate to 1, got inf"):
        DensityProfile(grid, values)


def test_spin_rdm_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        SpinRDM(np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex))
    # an asymmetry inside RDM_TOL passes, one just outside does not
    SpinRDM(np.array([[0.5, 0.25 + 0.5 * RDM_TOL], [0.25, 0.5]], dtype=complex))
    with pytest.raises(ValueError, match="Hermitian"):
        SpinRDM(np.array([[0.5, 0.25 + 2.0 * RDM_TOL], [0.25, 0.5]], dtype=complex))


def test_spin_rdm_rejects_wrong_trace():
    with pytest.raises(ValueError, match="trace"):
        SpinRDM(np.eye(2, dtype=complex))


def test_spin_rdm_rejects_negative_eigenvalue():
    m = np.diag([1.5, -0.5]).astype(complex)
    with pytest.raises(ValueError, match="positive semidefinite"):
        SpinRDM(m)


# ---------------------------------------------------------------------------
# Position density
# ---------------------------------------------------------------------------


def test_single_component_density_is_gaussian():
    st = make_state([1.0, 0.0], centers=[2.0, -2.0], sigma=1.5)
    profile = position_density_z(st, WIDE_GRID)
    z = WIDE_GRID.z
    expected = np.exp(-((z - 2.0) ** 2) / (2 * 1.5**2)) / math.sqrt(2 * math.pi * 1.5**2)
    assert np.abs(profile.values - expected).max() <= 1e-12


def test_two_component_density_is_weighted_mixture():
    st = make_state([math.sqrt(0.7), math.sqrt(0.3)], centers=[3.0, -3.0])
    profile = position_density_z(st, WIDE_GRID)
    z = WIDE_GRID.z
    gauss = lambda z0: np.exp(-((z - z0) ** 2) / 2.0) / math.sqrt(2 * math.pi)
    expected = 0.7 * gauss(3.0) + 0.3 * gauss(-3.0)
    assert np.abs(profile.values - expected).max() <= 1e-12


def test_density_ignores_coefficient_phases():
    st1 = make_state([1.0, 1.0], centers=[2.0, -2.0])
    st2 = make_state([1.0j, -1.0], centers=[2.0, -2.0])
    p1 = position_density_z(st1, WIDE_GRID)
    p2 = position_density_z(st2, WIDE_GRID)
    assert np.abs(p1.values - p2.values).max() <= 1e-15


def test_density_matches_sampled_fields_at_silver_scale():
    # the density drops the packet phases; at silver scale those reach
    # ~1e5 rad across the window, and |sample|^2 must agree to rounding
    cfg = default_silver_config()
    st = evolve(gaussian_hybrid(SpinQN(2), np.array([0.6, 0.0, 0.8j]), cfg),
                cfg.transit_time, cfg)
    fields = np.array([c * sample(p, SILVER_GRID) for c, p in zip(st.coeffs, st.z_packets)])
    want = np.sum(np.abs(fields) ** 2, axis=0)
    got = position_density_z(st, SILVER_GRID).values
    assert np.abs(got - want).max() <= 1e-14 * want.max()


def test_density_detects_boundary_leak():
    st = make_state([1.0, 0.0], centers=[39.5, 0.0])
    with pytest.raises(ValueError, match="density window"):
        position_density_z(st, WIDE_GRID)


def test_density_leak_check_skips_weightless_components():
    # the m = +1/2 packet straddles the seam, but carries no weight
    st = make_state([0.0, 1.0], centers=[39.5, 0.0])
    rho = position_density_z(st, WIDE_GRID)
    assert abs(rho.values.sum() * WIDE_GRID.dz - 1.0) <= 1e-12
    # with both on the seam, the message names the weighted one
    with pytest.raises(ValueError, match="component m=-1/2 touches the grid boundary"):
        position_density_z(make_state([0.0, 1.0], centers=[39.5, -39.5]), WIDE_GRID)


def test_density_names_a_weighted_component_outside_the_window():
    # the m = -1/2 packet sits 1000 widths beyond the window's edge
    with pytest.raises(ValueError, match="m=-1/2 lies outside the density window"):
        position_density_z(make_state([1.0, 1.0], centers=[0.0, 1040.0]), WIDE_GRID)
    # with coefficient 0 it adds nothing, and the density is whole
    rho = position_density_z(make_state([1.0, 0.0], centers=[0.0, 1040.0]), WIDE_GRID)
    assert abs(rho.values.sum() * WIDE_GRID.dz - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# Spin reduced density matrix
# ---------------------------------------------------------------------------


def test_rdm_of_coinciding_packets_is_pure():
    coeffs = np.array([0.6, 0.8j])
    st = make_state(coeffs, centers=[0.7, 0.7])
    rho = spin_rdm(st).matrix
    expected = np.outer(st.coeffs, st.coeffs.conj())
    assert np.abs(rho - expected).max() <= 1e-12


def test_rdm_of_far_separated_packets_is_diagonal():
    st = make_state([1.0, 1.0], centers=[15.0, -15.0])
    rho = spin_rdm(st).matrix
    assert abs(rho[0, 0] - 0.5) <= 1e-12
    assert abs(rho[1, 1] - 0.5) <= 1e-12
    assert abs(rho[0, 1]) <= 1e-12


@pytest.mark.parametrize("delta", [0.5, 1.0, 2.0, 3.0])
def test_rdm_eigenvalues_follow_packet_overlap(delta):
    # Equal-weight spin 1/2 with unit-width packets separated by delta:
    # the off-diagonal element is g/2 with g = exp(-delta^2/8), so the
    # eigenvalues are (1 +/- g)/2.
    st = make_state([1.0, 1.0], centers=[delta / 2, -delta / 2])
    lams = np.linalg.eigvalsh(spin_rdm(st).matrix)
    g = math.exp(-(delta**2) / 8.0)
    assert abs(lams[0] - (1 - g) / 2) <= 1e-12
    assert abs(lams[1] - (1 + g) / 2) <= 1e-12


# ---------------------------------------------------------------------------
# Entanglement entropy
# ---------------------------------------------------------------------------


def test_entropy_of_pure_state_is_plus_zero():
    st = make_state([0.6, 0.8], centers=[1.0, 1.0])
    value = entanglement_entropy(spin_rdm(st))
    assert value <= 1e-12
    assert math.copysign(1.0, value) > 0  # exactly +0.0, never -0.0


def test_entropy_of_frozen_mixture():
    # Weights (0.9, 0.1) on orthogonal packets: -0.9 ln 0.9 - 0.1 ln 0.1.
    st = make_state([math.sqrt(0.9), math.sqrt(0.1)], centers=[15.0, -15.0])
    value = entanglement_entropy(spin_rdm(st))
    assert abs(value - 0.32508297339144824) <= 1e-12


def test_entropy_of_balanced_split_is_ln2():
    st = make_state([1.0, 1.0], centers=[15.0, -15.0])
    value = entanglement_entropy(spin_rdm(st))
    assert abs(value - math.log(2.0)) <= 1e-12


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_entropy_of_separated_equal_weights_is_ln_dim(dim):
    centers = [30.0 * (m - (dim - 1) / 2) for m in range(dim)]
    st = make_state(np.ones(dim), centers=centers)
    value = entanglement_entropy(spin_rdm(st))
    assert abs(value - math.log(dim)) <= 1e-10


def test_entropy_matches_binary_entropy_of_overlap():
    delta = 1.7
    st = make_state([1.0, 1.0], centers=[delta / 2, -delta / 2])
    g = math.exp(-(delta**2) / 8.0)
    expected = binary_entropy((1 + g) / 2)
    assert abs(entanglement_entropy(spin_rdm(st)) - expected) <= 1e-12


def test_entropy_grows_as_packets_separate():
    values = []
    for delta in [0.0, 0.5, 1.0, 2.0, 4.0, 30.0]:
        st = make_state([1.0, 1.0], centers=[delta / 2, -delta / 2])
        values.append(entanglement_entropy(spin_rdm(st)))
    assert all(b > a for a, b in zip(values, values[1:]))
    assert abs(values[-1] - math.log(2.0)) <= 1e-12


def test_entropy_invariant_under_phases():
    base = make_state([1.0, 1.0], centers=[1.0, -1.0])
    rephased = HybridState(
        s=base.s,
        coeffs=base.coeffs * np.exp(1j * np.array([0.3, -1.2])),
        z=stack_packets((
            global_phase(base.z_packets[0], 0.9),
            base.z_packets[1],
        )),
    )
    e1 = entanglement_entropy(spin_rdm(base))
    e2 = entanglement_entropy(spin_rdm(rephased))
    assert abs(e1 - e2) <= 1e-12


def test_entropy_rejects_wrong_trace():
    with pytest.raises(ValueError, match="trace"):
        entanglement_entropy(SpinRDM(np.eye(2)))
    # unit trace alone is not enough: these read ln 2 and 0 if accepted
    with pytest.raises(ValueError, match="Hermitian"):
        entanglement_entropy(SpinRDM(np.array([[0.5, 1.0], [0.0, 0.5]])))
    with pytest.raises(ValueError, match="positive semidefinite"):
        entanglement_entropy(SpinRDM(np.diag([1.5, -0.5])))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_rdm_and_entropy_reject_non_finite_matrices(bad):
    with pytest.raises(ValueError, match="finite"):
        SpinRDM(np.full((2, 2), bad, dtype=complex))
    stack = np.array([np.eye(2) / 2.0] * 3, dtype=complex)
    stack[1, 0, 1] = stack[1, 1, 0] = bad  # one bad matrix in a stack
    with pytest.raises(ValueError, match="finite"):
        SpinRDM(stack)


def test_density_rejects_nan_values():
    values = np.full(WIDE_GRID.n, 1.0 / WIDE_GRID.length)
    values[7] = np.nan
    with pytest.raises(ValueError, match="finite"):
        DensityProfile(WIDE_GRID, values)


def test_entropy_of_a_stack_is_per_matrix():
    stack = np.array([np.diag([1.0, 0.0]), np.eye(2) / 2.0, np.diag([0.9, 0.1])])
    want = [0.0, math.log(2.0), -(0.9 * math.log(0.9) + 0.1 * math.log(0.1))]
    assert np.allclose(entanglement_entropy(SpinRDM(stack.astype(complex))), want,
                       rtol=0, atol=1e-15)


def test_entropy_takes_only_a_spin_rdm():
    assert abs(entanglement_entropy(SpinRDM(np.eye(3) / 3.0)) - math.log(3.0)) <= 1e-12
    with pytest.raises(TypeError, match="must be a SpinRDM, got ndarray"):
        entanglement_entropy(np.eye(3) / 3.0)


# ---------------------------------------------------------------------------
# Spatial reduction entropy (quadrature cross-check)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("delta", [0.0, 1.0, 2.5, 6.0])
def test_spatial_reduction_matches_spin_side(delta):
    # For a pure joint state both reductions share the nonzero spectrum.
    st = make_state([1.0, 0.8], centers=[delta / 2, -delta / 2])
    e_spin = entanglement_entropy(spin_rdm(st))
    e_space = spatial_reduction_entropy(st, WIDE_GRID)
    assert abs(e_spin - e_space) <= 1e-6


def test_spatial_reduction_of_spin1_state():
    st = make_state([1.0, 1.0, 1.0], centers=[4.0, 0.0, -4.0])
    e_spin = entanglement_entropy(spin_rdm(st))
    e_space = spatial_reduction_entropy(st, WIDE_GRID)
    assert abs(e_spin - e_space) <= 1e-6


# ---------------------------------------------------------------------------
# Semiclassical kinematics
# ---------------------------------------------------------------------------


def test_semiclassical_scaled_values():
    cfg = scaled_config()  # gamma = -1, beta = 0.5, hbar = mass = 1
    kin = semiclassical(cfg, t=2.0, m=0.5)
    assert abs(kin.force - (-0.25)) <= 1e-15
    assert abs(kin.dp - (-0.5)) <= 1e-15
    assert abs(kin.dz - (-0.5)) <= 1e-15


def test_semiclassical_scales_quadratically_in_time():
    cfg = scaled_config()
    k1 = semiclassical(cfg, t=1.0, m=1.0)
    k2 = semiclassical(cfg, t=2.0, m=1.0)
    assert abs(k2.dp - 2.0 * k1.dp) <= 1e-15
    assert abs(k2.dz - 4.0 * k1.dz) <= 1e-15


def test_semiclassical_rejects_negative_time():
    with pytest.raises(ValueError, match=">= 0"):
        semiclassical(scaled_config(), t=-1.0, m=0.5)


# ---------------------------------------------------------------------------
# Peak separation
# ---------------------------------------------------------------------------


def two_bump_profile(delta: float, weight: float = 0.5) -> DensityProfile:
    z = WIDE_GRID.z
    gauss = lambda z0: np.exp(-((z - z0) ** 2) / (2 * 0.5**2))
    values = weight * gauss(delta / 2) + (1 - weight) * gauss(-delta / 2)
    values /= values.sum() * WIDE_GRID.dz
    return DensityProfile(WIDE_GRID, values)


def test_peak_separation_of_resolved_beams():
    sep = peak_separation(two_bump_profile(6.0))
    assert sep is not None
    assert abs(sep - 6.0) <= 2 * WIDE_GRID.dz


def test_peak_separation_of_single_beam_is_none():
    st = make_state([1.0, 0.0], centers=[0.0, 0.0])
    profile = position_density_z(st, WIDE_GRID)
    assert peak_separation(profile) is None


def test_peak_separation_of_merged_beams_is_none():
    # Separation well below the packet width: the mixture is unimodal.
    assert peak_separation(two_bump_profile(0.3)) is None


def test_peak_separation_ignores_sub_threshold_bump():
    # The minority beam peaks below 5% of the global maximum.
    assert peak_separation(two_bump_profile(8.0, weight=0.99)) is None


def test_peak_separation_from_evolved_like_mixture():
    profile = two_bump_profile(10.0, weight=0.4)
    sep = peak_separation(profile)
    assert sep is not None
    assert abs(sep - 10.0) <= 2 * WIDE_GRID.dz


def profile_of(values) -> DensityProfile:
    """Normalized profile on the first len(values) points of a unit grid."""
    values = np.asarray(values, dtype=float)
    grid = Grid(z_min=0.0, z_max=float(values.size), n=values.size)
    return DensityProfile(grid, values / (values.sum() * grid.dz))


def test_peak_separation_is_refined_below_the_grid_spacing():
    cfg = default_silver_config()
    st = evolve(gaussian_hybrid(SpinQN(1), np.array([1.0, 1.0]), cfg),
                cfg.transit_time, cfg)
    sep = peak_separation(position_density_z(st, SILVER_GRID))
    want = 2 * abs(moments(st.z_packets[0], cfg.hbar).centroid)
    assert sep is not None
    assert abs(sep - want) <= 0.05 * SILVER_GRID.dz


def test_peak_separation_counts_a_flat_top_once_at_its_centre():
    # a four-sample plateau centred on 4.5 and a sharp peak at 12
    values = np.zeros(16)
    values[2:8] = [1.0, 3.0, 3.0, 3.0, 3.0, 1.0]
    values[11:14] = [1.0, 2.0, 1.0]
    assert peak_separation(profile_of(values)) == pytest.approx(12.0 - 4.5, abs=1e-12)


def test_peak_separation_ignores_maxima_at_the_array_ends():
    # the global maximum sits at index 0 and a rising edge ends at the last
    # sample; only the interior bump at index 5 is a peak
    values = np.array([5.0, 4.0, 3.0, 1.0, 2.0, 3.0, 2.0, 1.0,
                       1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.5, 4.0])
    assert peak_separation(profile_of(values)) is None
    values[-1] = values[-2]  # a flat run touching the end is no peak either
    assert peak_separation(profile_of(values)) is None

