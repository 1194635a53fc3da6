import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import global_phase, packet_distance
from sgsim import (CentredPacket, Grid, boost, free_evolve, from_gaussian, moments, overlap,
                   sample, translate)
from sgsim.wavepacket import QuadExpPacket, norm, normalized

NORM_TOL = 1e-12

# bounded, well-conditioned parameter ranges for property tests
sigmas = st.floats(0.5, 2.0)
positions = st.floats(-3.0, 3.0)
wavenumbers = st.floats(-3.0, 3.0)
times = st.floats(0.0, 3.0)


def quad_grid(span=24.0, n=2048) -> Grid:
    return Grid(-span / 2, span / 2, n)


def quadrature_moments(p: CentredPacket, grid: Grid):
    """Independent grid-based moments: norm, centroid, variance, <p>/hbar."""
    z = grid.z
    psi = sample(p, grid)
    w = np.abs(psi) ** 2
    total = np.sum(w) * grid.dz
    centroid = np.sum(z * w) * grid.dz / total
    variance = np.sum((z - centroid) ** 2 * w) * grid.dz / total
    psi_k = np.fft.fft(psi)
    wk = np.abs(psi_k) ** 2
    mean_k = np.sum(grid.k * wk) / np.sum(wk)
    return math.sqrt(total), centroid, variance, mean_k


def test_packet_validation():
    with pytest.raises(ValueError):
        QuadExpPacket(0.25 + 0j, 0j, 0j)  # Re(a) > 0
    with pytest.raises(ValueError):
        QuadExpPacket(1j, 0j, 0j)  # Re(a) = 0
    with pytest.raises(ValueError):
        QuadExpPacket(complex("nan"), 0j, 0j)
    with pytest.raises(ValueError):
        from_gaussian(-1.0)
    with pytest.raises(ValueError):
        from_gaussian(0.0)
    with pytest.raises(ValueError, match="Re\\(s2\\) > 0"):
        CentredPacket(0.0, 0.0, -1.0 + 1j, 0.0)
    with pytest.raises(ValueError, match="Re\\(s2\\) > 0"):
        CentredPacket(0.0, 0.0, 0.5j, 0.0)
    with pytest.raises(ValueError, match="q must be finite"):
        CentredPacket(np.nan, 0.0, 1.0 + 0j, 0.0)
    with pytest.raises(ValueError, match="phase must be finite"):
        CentredPacket(0.0, 0.0, 1.0 + 0j, np.inf)
    with pytest.raises(ValueError, match="k must be finite"):
        translate(boost(from_gaussian(1.0), np.nan), 1.0)


def test_standard_gaussian_parameters():
    p = from_gaussian(1.0)
    assert (p.q, p.k, p.s2, p.phase) == (0.0, 0.0, 1.0, 0.0)
    view = p.quad
    assert view.a == -0.25
    assert view.b == 0
    assert view.c == pytest.approx(-0.25 * math.log(2 * math.pi), abs=1e-15)


def test_from_gaussian_moments_closed_form():
    p = from_gaussian(1.0, z0=2.0)
    m = moments(p)
    assert norm(p.quad) == pytest.approx(1.0, abs=NORM_TOL)
    assert m.centroid == pytest.approx(2.0, abs=1e-14)
    assert m.variance == pytest.approx(1.0, abs=1e-14)


def test_from_gaussian_momentum_vs_quadrature():
    p = from_gaussian(1.3, z0=-0.4, k0=5.0)
    grid = quad_grid()
    qn, qc, qv, qk = quadrature_moments(p, grid)
    assert qk == pytest.approx(5.0, abs=1e-8)
    assert moments(p, hbar=1.0).mean_momentum == pytest.approx(5.0, abs=1e-12)
    assert qn == pytest.approx(1.0, abs=1e-10)


def test_translate_algebra():
    p = from_gaussian(1.0)
    assert translate(p, 0.0) == p
    q = translate(p, 1.0)
    assert (q.q, q.k, q.s2, q.phase) == (1.0, p.k, p.s2, p.phase)
    assert q.quad.a == p.quad.a
    assert q.quad.b == pytest.approx(0.5)
    assert q.quad.c == pytest.approx(p.quad.c - 0.25)


def test_translate_moments_vs_quadrature():
    p = translate(from_gaussian(0.8, z0=0.3, k0=1.0), -1.2)
    qn, qc, qv, _ = quadrature_moments(p, quad_grid())
    assert qc == pytest.approx(0.3 - 1.2, abs=1e-10)
    assert qv == pytest.approx(0.64, abs=1e-10)
    assert qn == pytest.approx(1.0, abs=1e-10)


def test_boost_is_a_pure_phase():
    p = from_gaussian(0.9, z0=0.5)
    q = boost(p, 2.7)
    assert boost(p, 0.0) == p
    z = np.linspace(-3, 3, 10)
    np.testing.assert_allclose(np.abs(sample(q, z)), np.abs(sample(p, z)), rtol=1e-15)
    dm = moments(q, hbar=1.0).mean_momentum - moments(p, hbar=1.0).mean_momentum
    assert dm == pytest.approx(2.7, abs=1e-13)


def test_boost_with_physical_hbar():
    p = from_gaussian(1.0)
    hbar = 1.054571817e-34
    q = boost(p, 3.0)
    dm = moments(q, hbar=hbar).mean_momentum - moments(p, hbar=hbar).mean_momentum
    assert dm == pytest.approx(3.0 * hbar, rel=1e-12)


def test_global_phase():
    p = from_gaussian(1.1, z0=-0.2, k0=0.4)
    assert global_phase(p, 0.0) == p
    z = np.linspace(-2, 2, 7)
    np.testing.assert_allclose(sample(global_phase(p, math.pi), z), -sample(p, z),
                               rtol=1e-12)
    assert norm(global_phase(p, 2.34).quad) == pytest.approx(1.0, abs=NORM_TOL)


def test_free_evolve_identity_and_errors():
    p = from_gaussian(1.0)
    assert free_evolve(p, 0.0, 1.0) == p
    with pytest.raises(ValueError):
        free_evolve(p, 1.0, 0.0)
    with pytest.raises(ValueError):
        free_evolve(p, 1.0, -2.0)
    with pytest.raises(ValueError):
        free_evolve(p, -0.1, 1.0)


def test_free_evolve_variance_growth():
    # sigma = hbar = M = 1, t = 2: variance doubles to exactly 2
    p = free_evolve(from_gaussian(1.0), 2.0, 1.0)
    assert moments(p).variance == pytest.approx(2.0, abs=1e-12)
    assert norm(p.quad) == pytest.approx(1.0, abs=NORM_TOL)


def test_free_evolve_centroid_drift():
    p = free_evolve(from_gaussian(1.0, k0=5.0), 1.0, 1.0)
    assert moments(p).centroid == pytest.approx(5.0, abs=1e-12)


def test_free_evolve_vs_spectral_oracle():
    # pure-kinetic FFT propagation of the sampled packet
    p0 = from_gaussian(0.7, z0=-0.5, k0=1.5)
    t, mass, hbar = 1.3, 1.0, 1.0
    grid = quad_grid()
    psi0 = sample(p0, grid)
    psi_ref = np.fft.ifft(np.exp(-1j * hbar * grid.k**2 * t / (2 * mass))
                          * np.fft.fft(psi0))
    psi_got = sample(free_evolve(p0, t, mass, hbar), grid)
    assert np.abs(psi_got - psi_ref).max() <= 1e-8


def test_overlap_self_is_one():
    p = from_gaussian(1.4, z0=0.3, k0=-2.0)
    assert overlap(p, p) == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize("delta", [0.0, 1.0, 3.0])
def test_overlap_displaced_gaussians(delta):
    p = from_gaussian(1.0)
    q = from_gaussian(1.0, z0=delta)
    assert abs(overlap(p, q)) == pytest.approx(math.exp(-delta**2 / 8), rel=1e-12)


def test_overlap_vs_quadrature():
    rng = np.random.default_rng(42)
    grid = quad_grid()
    for _ in range(6):
        p = from_gaussian(rng.uniform(0.6, 1.8), rng.uniform(-2, 2), rng.uniform(-2, 2))
        q = from_gaussian(rng.uniform(0.6, 1.8), rng.uniform(-2, 2), rng.uniform(-2, 2))
        got = overlap(p, q)
        want = np.vdot(sample(p, grid), sample(q, grid)) * grid.dz
        assert abs(got - want) <= 1e-8


def test_moments_after_operations():
    p = from_gaussian(1.2)
    m0 = moments(p, hbar=2.0)
    assert m0 == pytest.approx((0.0, 1.44, 0.0), abs=1e-13)
    boosted = moments(boost(p, 1.5), hbar=2.0)
    assert boosted.mean_momentum - m0.mean_momentum == pytest.approx(3.0, abs=1e-13)
    evolved = free_evolve(p, 2.5, 1.0, 2.0)
    assert norm(evolved.quad) == pytest.approx(1.0, abs=NORM_TOL)


def test_sample_point_values():
    peak = sample(from_gaussian(1.0), np.array([0.0]))
    np.testing.assert_allclose(peak, [(2 * math.pi) ** -0.25], rtol=1e-15)
    # even packet on a symmetric set of nodes
    z = np.linspace(-4, 4, 9)
    vals = sample(from_gaussian(1.3), z)
    np.testing.assert_allclose(vals, vals[::-1], rtol=1e-14)


def test_sample_discrete_norm_matches_closed_form():
    grid = quad_grid()
    p = from_gaussian(0.9, z0=1.0, k0=2.0)
    discrete = math.sqrt(np.sum(np.abs(sample(p, grid)) ** 2) * grid.dz)
    assert discrete == pytest.approx(1.0, rel=1e-10)


def test_normalized_restores_unit_norm():
    p = QuadExpPacket(-0.3 + 0.1j, 0.2 + 0.4j, 1.0 + 0.5j)
    assert norm(normalized(p)) == pytest.approx(1.0, abs=NORM_TOL)


# ---------------------------------------------------------------------------
# property tests

@given(sigma=sigmas, z0=positions, k0=wavenumbers, delta=positions, phi=wavenumbers,
       dk=wavenumbers, t=times)
@settings(max_examples=120)
def test_operations_preserve_norm(sigma, z0, k0, delta, phi, dk, t):
    p = from_gaussian(sigma, z0, k0)
    for q in (translate(p, delta), boost(p, dk), global_phase(p, phi),
              free_evolve(p, t, 1.0)):
        assert abs(norm(q.quad) - 1.0) <= NORM_TOL


@given(sigma=sigmas, z0=positions, k0=wavenumbers, t1=times, t2=times)
@settings(max_examples=120)
def test_free_evolution_semigroup(sigma, z0, k0, t1, t2):
    p = from_gaussian(sigma, z0, k0)
    two_steps = free_evolve(free_evolve(p, t1, 1.0), t2, 1.0)
    one_step = free_evolve(p, t1 + t2, 1.0)
    assert packet_distance(two_steps, one_step) <= 1e-12


@given(sigma=sigmas, z0=positions, k0=wavenumbers, t=times)
@settings(max_examples=120)
def test_ballistic_centroid(sigma, z0, k0, t):
    # centroid(t) = z0 + (hbar k0 / M) t under free flight
    mass = 1.7
    p = free_evolve(from_gaussian(sigma, z0, k0), t, mass)
    m = moments(p)
    assert m.centroid == pytest.approx(z0 + k0 * t / mass, abs=1e-11)
    assert m.mean_momentum == pytest.approx(k0, abs=1e-11)


@given(s1=sigmas, s2=sigmas, z1=positions, z2=positions, k1=wavenumbers,
       k2=wavenumbers)
@settings(max_examples=120)
def test_overlap_conjugate_symmetry(s1, s2, z1, z2, k1, k2):
    p = from_gaussian(s1, z1, k1)
    q = from_gaussian(s2, z2, k2)
    assert overlap(p, q) == pytest.approx(overlap(q, p).conjugate(), abs=1e-12)
