"""Top-level acceptance checks, one test per criterion.

Each test prints (and records for the end-of-run summary) a single
criterion line of the form

    criterion NN [PASS|FAIL] <measured values and tolerances>

and then asserts the gate.  Tolerances are fixed here on purpose; if a
criterion cannot be met the test stays red rather than being loosened.
"""

from __future__ import annotations

import itertools
import math
import time

import numpy as np
from conftest import record_acceptance_line

from sgsim import (
    Grid,
    HybridState,
    Scenario,
    SpinQN,
    bch_check,
    boost,
    default_silver_config,
    entanglement_entropy,
    evolve,
    evolve_segments,
    free_evolve,
    from_gaussian,
    gaussian_hybrid,
    interferometer_segments,
    matrix_exponential,
    moments,
    oracle_density_error,
    peak_separation,
    position_density_z,
    sample_state,
    scaled_config,
    spin_rdm,
    spinor_l2_distance,
    split_step_evolve,
)
from sgsim.harness import SILVER_GRID

from helpers import (apply_u2a, apply_u2b, apply_u2c, conjugate_series, semiclassical,
                     stack_packets, state_distance)

HALF = SpinQN(1)
EQUAL_HALF = np.array([1.0, 1.0]) / math.sqrt(2.0)


def check(num: int, passed: bool, detail: str) -> None:
    line = f"criterion {num:02d} [{'PASS' if passed else 'FAIL'}] {detail}"
    print(line)
    record_acceptance_line(line)
    assert passed, line


# ---------------------------------------------------------------------------
# 1. Factored propagator vs dense matrix exponential, matrix max-norm
# ---------------------------------------------------------------------------


def test_criterion_01_factored_propagator_matrix_norm():
    """Entrywise max-norm agreement of the factored propagator with
    expm(-iHt/hbar) on the periodic grid (scaled units, t = 0.7, n = 64,
    window [-16, 16], spins 1/2 and 1).

    Expected to fail: the sawtooth z of a periodic grid breaks
    [z, p] = i hbar at the wrap-around seam, expm scatters off that jump
    while the factored operator translates cleanly through it, so matrix
    columns anchored near the seam disagree at order one for every grid
    size.  The companion state-level test below shows the two propagators
    agree to ~1e-8 on every probe kept away from the seam, which is the
    regime where the periodic model represents the real line at all.
    """
    start = time.perf_counter()
    err = max(bch_check(spin).operator_error for spin in (SpinQN(1), SpinQN(2)))
    elapsed = time.perf_counter() - start
    check(1, err <= 1e-6 and elapsed < 30.0,
          f"factored vs expm matrix max-norm {err:.3e} (tol 1e-6), "
          f"spins 1/2 and 1, {elapsed:.1f}s (<30s)")


def test_factored_propagator_matches_expm_on_interior_states():
    """Companion to criterion 1: worst relative L2 error of the factored
    propagator against expm over localized Gaussian probes is tiny.
    """
    for spin in (SpinQN(1), SpinQN(2)):
        assert bch_check(spin).state_error <= 1e-6


# ---------------------------------------------------------------------------
# 2. Closed form vs split-step oracle at silver scale
# ---------------------------------------------------------------------------


def test_criterion_02_split_step_oracle_and_convergence():
    start = time.perf_counter()
    cfg = default_silver_config()
    t = cfg.transit_time
    st0 = gaussian_hybrid(HALF, EQUAL_HALF, cfg)
    st_end = evolve(st0, t, cfg)
    rho_exact = position_density_z(st_end, SILVER_GRID).values

    psi0 = sample_state(st0, SILVER_GRID)
    psi_coarse = split_step_evolve(psi0, t, 4096, cfg)
    density_err = float(np.linalg.norm(psi_coarse.density() - rho_exact)
                        / np.linalg.norm(rho_exact))

    # The splitting error itself is a wavefunction-level phase, invisible
    # in the density, so measure convergence on the states (in the
    # oracle's own momentum frame to avoid aliasing the carrier).
    psi_fine = split_step_evolve(psi0, t, 8192, cfg)
    exact_coarse = sample_state(st_end, SILVER_GRID, frame_k=psi_coarse.frame_k)
    exact_fine = sample_state(st_end, SILVER_GRID, frame_k=psi_fine.frame_k)
    err_coarse = spinor_l2_distance(psi_coarse, exact_coarse)
    err_fine = spinor_l2_distance(psi_fine, exact_fine)
    ratio = err_coarse / err_fine
    elapsed = time.perf_counter() - start

    check(2, density_err <= 1e-4 and 3.2 <= ratio <= 4.8 and elapsed < 60.0,
          f"oracle density L2 {density_err:.0e} (tol 1e-4); step-halving "
          f"error ratio {ratio:.2f} (in [3.2, 4.8]); {elapsed:.1f}s (<60s)")


# ---------------------------------------------------------------------------
# 3. Deflection: identity, magnitude, peak separation
# ---------------------------------------------------------------------------


def test_criterion_03_deflection():
    cfg = default_silver_config()
    t = cfg.transit_time
    st = evolve(gaussian_hybrid(HALF, EQUAL_HALF, cfg), t, cfg)

    identity_err = max(
        abs(moments(p, cfg.hbar).centroid - semiclassical(cfg, t, m).dz)
        / abs(semiclassical(cfg, t, m).dz)
        for m, p in zip(HALF.m_values(), st.z_packets))
    magnitude_dev = max(
        abs(abs(moments(p, cfg.hbar).centroid) - 7.3e-5) / 7.3e-5
        for p in st.z_packets)
    sep = peak_separation(position_density_z(st, SILVER_GRID))
    sep_dev = math.inf if sep is None else abs(sep - 1.46e-4) / 1.46e-4

    check(3, identity_err <= 1e-12 and magnitude_dev <= 0.02 and sep_dev <= 0.02,
          f"<z> vs gamma beta m hbar t^2/2M rel {identity_err:.1e} (tol 1e-12); "
          f"|dz| vs 7.3e-5 m dev {magnitude_dev:.2%} (tol 2%); "
          f"separation vs 1.46e-4 m dev {sep_dev:.2%} (tol 2%)")


# ---------------------------------------------------------------------------
# 4. Momentum kick identity
# ---------------------------------------------------------------------------


def test_criterion_04_momentum_kick():
    cfg = default_silver_config()
    t = cfg.transit_time
    worst = 0.0
    for k0 in (0.0, 2.0e7):  # beam prepared at rest and with a z carrier
        st0 = gaussian_hybrid(HALF, EQUAL_HALF, cfg)
        st0 = HybridState(
            s=st0.s, coeffs=st0.coeffs,
            z=stack_packets(boost(p, k0) for p in st0.z_packets))
        st = evolve(st0, t, cfg)
        for m, p in zip(HALF.m_values(), st.z_packets):
            expected = cfg.hbar * k0 + cfg.hbar * m * cfg.gamma * cfg.beta * t
            got = moments(p, cfg.hbar).mean_momentum
            worst = max(worst, abs(got - expected) / abs(expected))
    check(4, worst <= 1e-12,
          f"<p_z> vs hbar k0 + hbar m gamma beta t rel {worst:.1e} (tol 1e-12)")


# ---------------------------------------------------------------------------
# 5. Broadening is minimal at silver scale; exact variance in scaled units
# ---------------------------------------------------------------------------


def test_criterion_05_broadening():
    cfg = default_silver_config()
    st0 = gaussian_hybrid(HALF, EQUAL_HALF, cfg)
    st = evolve(st0, cfg.transit_time, cfg)
    sigma0 = math.sqrt(moments(st0.z_packets[0], cfg.hbar).variance)
    sigma_t = math.sqrt(moments(st.z_packets[0], cfg.hbar).variance)
    broadening = sigma_t / sigma0 - 1.0

    # sigma = hbar = M = 1, t = 2: variance sigma^2 + hbar^2 t^2 / (4 M^2 sigma^2) = 2
    spread = free_evolve(from_gaussian(1.0, 0.0, 0.0), 2.0, mass=1.0, hbar=1.0)
    var_err = abs(moments(spread).variance - 2.0)

    check(5, 0.0 <= broadening <= 1e-6 and var_err <= 1e-12,
          f"sigma(t)/sigma(0) - 1 = {broadening:.2e} (tol 1e-6) over transit; "
          f"|var - 2.0| = {var_err:.1e} (tol 1e-12) at t=2, hbar=M=sigma=1")


# ---------------------------------------------------------------------------
# 6. Entanglement entropy limits
# ---------------------------------------------------------------------------


def _orthogonal_packet_state(spin: SpinQN) -> HybridState:
    # Adjacent packets 30 sigma apart: overlaps ~1e-49, fully orthogonal.
    d = spin.dim
    centers = [30.0 * (d - 1) / 2 - 30.0 * i for i in range(d)]
    return HybridState(
        s=spin,
        coeffs=np.full(d, 1.0 / math.sqrt(d), dtype=complex),
        z=stack_packets(from_gaussian(1.0, z0, 0.0) for z0 in centers))


def test_criterion_06_entropy_limits():
    cfg = default_silver_config()
    product = gaussian_hybrid(HALF, np.array([0.6, 0.8]), cfg)
    s_product = entanglement_entropy(spin_rdm(product))

    split = evolve(gaussian_hybrid(HALF, EQUAL_HALF, cfg), cfg.transit_time, cfg)
    s_split_err = abs(entanglement_entropy(spin_rdm(split)) - math.log(2.0))

    s_max_err = max(
        abs(entanglement_entropy(spin_rdm(_orthogonal_packet_state(spin)))
            - math.log(spin.dim))
        for spin in (SpinQN(2), SpinQN(3)))  # s = 1 and s = 3/2

    check(6, s_product <= 1e-12 and s_split_err <= 1e-6 and s_max_err <= 1e-10,
          f"product state S = {s_product:.1e} (tol 1e-12); split beam "
          f"|S - ln 2| = {s_split_err:.1e} (tol 1e-6); orthogonal packets "
          f"|S - ln(2s+1)| = {s_max_err:.1e} (tol 1e-10) for s in {{1, 3/2}}")


# ---------------------------------------------------------------------------
# 7. Superposition density equals the classical mixture pointwise
# ---------------------------------------------------------------------------


def test_criterion_07_no_interference_between_spin_components():
    cfg = scaled_config()
    grid = Grid(z_min=-16.0, z_max=16.0, n=512)
    t = 2.0
    sup = evolve(gaussian_hybrid(HALF, EQUAL_HALF, cfg), t, cfg)
    rho_sup = position_density_z(sup, grid).values

    rho_mix = np.zeros_like(rho_sup)
    for coeffs in (np.array([1.0, 0.0]), np.array([0.0, 1.0])):
        pure = evolve(gaussian_hybrid(HALF, coeffs, cfg), t, cfg)
        rho_mix += 0.5 * position_density_z(pure, grid).values

    diff = float(np.abs(rho_sup - rho_mix).max())
    check(7, diff <= 1e-14,
          f"|rho_superposition - rho_mixture| max {diff:.1e} (tol 1e-14)")


def test_superposition_density_equals_mixture_at_silver_scale():
    """Same statement at silver scale, relative to the density peak (the
    absolute values are ~1e4 per meter there, so a pointwise 1e-14 gate
    would test floating-point representation rather than physics).
    """
    cfg = default_silver_config()
    t = cfg.transit_time
    sup = evolve(gaussian_hybrid(HALF, EQUAL_HALF, cfg), t, cfg)
    rho_sup = position_density_z(sup, SILVER_GRID).values
    rho_mix = np.zeros_like(rho_sup)
    for coeffs in (np.array([1.0, 0.0]), np.array([0.0, 1.0])):
        pure = evolve(gaussian_hybrid(HALF, coeffs, cfg), t, cfg)
        rho_mix += 0.5 * position_density_z(pure, SILVER_GRID).values
    assert np.abs(rho_sup - rho_mix).max() <= 1e-12 * rho_sup.max()


# ---------------------------------------------------------------------------
# 8. Operator conjugation series, order-12 truncation
# ---------------------------------------------------------------------------


def test_criterion_08_conjugation_series_truncation():
    rng = np.random.default_rng(7)

    def hermitian(n: int) -> np.ndarray:
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return (g + g.conj().T) / 2.0

    a = hermitian(6)
    a /= np.linalg.norm(a, 2)
    b = hermitian(6)
    x = 0.2j  # ||x A|| = 0.2
    series = conjugate_series(a, b, x, order=12)
    exact = matrix_exponential(a, x) @ b @ matrix_exponential(a, -x)
    err = float(np.abs(series - exact).max())
    check(8, err <= 1e-10,
          f"e^(xA) B e^(-xA) vs order-12 series, ||xA|| = 0.2: "
          f"err {err:.1e} (tol 1e-10)")


# ---------------------------------------------------------------------------
# 9. Gradient-flip interferometer recombines the beams
# ---------------------------------------------------------------------------


def test_criterion_09_interferometer_recombination():
    cfg = default_silver_config()
    T = cfg.transit_time / 4.0
    segments = interferometer_segments(cfg.beta, T)

    st0 = gaussian_hybrid(HALF, EQUAL_HALF, cfg)
    st = evolve_segments(st0, list(segments), cfg)

    kick_scale = abs(cfg.hbar * cfg.gamma * cfg.beta * T) * 0.5
    kick_rel = max(
        abs(moments(p, cfg.hbar).mean_momentum - moments(p0, cfg.hbar).mean_momentum)
        for p, p0 in zip(st.z_packets, st0.z_packets)) / kick_scale
    entropy = entanglement_entropy(spin_rdm(st))

    sc = Scenario(cfg=cfg, spin=HALF, initial_coeffs=EQUAL_HALF,
                  segments=segments, grid=SILVER_GRID, outputs=())
    oracle_err = oracle_density_error(sc).density

    check(9, kick_rel <= 1e-10 and entropy <= 1e-6 and oracle_err <= 1e-4,
          f"net kick rel {kick_rel:.1e} (tol 1e-10); final entropy "
          f"{entropy:.1e} (tol 1e-6); oracle L2 {oracle_err:.1e} (tol 1e-4)")


# ---------------------------------------------------------------------------
# 10. The three translation-family factors commute
# ---------------------------------------------------------------------------


def test_criterion_10_factor_orderings_commute():
    cfg = scaled_config()
    t = 1.3
    st0 = gaussian_hybrid(SpinQN(2), np.full(3, 1.0 / math.sqrt(3.0)), cfg)

    states = []
    for order in itertools.permutations((apply_u2a, apply_u2b, apply_u2c)):
        st = st0
        for op in order:
            st = op(st, t, cfg)
        states.append(st)
    worst = max(state_distance(states[0], st) for st in states[1:])
    check(10, worst <= 1e-12,
          f"6 orderings of the kinetic/translation/phase factors: "
          f"max state distance {worst:.1e} (tol 1e-12)")
