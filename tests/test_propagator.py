import itertools

import numpy as np
import pytest
import scipy.linalg as sla

from helpers import (apply_u1, apply_u2a, apply_u2b, apply_u2c, semiclassical,
                     stack_packets, state_distance)
from sgsim import (GradientSegment, Grid, HybridState, SpinQN, dense_factored_matrix,
                   dense_hamiltonian, evolve, evolve_segments, gaussian_hybrid,
                   matrix_exponential, moments, sample, sample_state, scaled_config)

HALF = SpinQN(1)
EQUAL = np.array([1.0, 1.0]) / np.sqrt(2.0)


def test_hybrid_state_validation():
    cfg = scaled_config()
    st = gaussian_hybrid(HALF, EQUAL, cfg)
    with pytest.raises(ValueError):
        HybridState(HALF, np.array([1.0, 0.0, 0.0]), st.z)
    with pytest.raises(ValueError):
        HybridState(HALF, np.array([1.0, 1.0]), st.z)
    # only a centred packet is a z packet: its exponent view is refused by type
    with pytest.raises(TypeError, match="got QuadExpPacket"):
        HybridState(HALF, EQUAL, st.z.quad)
    with pytest.raises(ValueError, match="normalized"):
        HybridState(HALF, np.array([np.nan, 1.0]), st.z)


def test_gaussian_hybrid_rejects_non_finite_or_zero_coeffs():
    for bad in ([np.nan, 1.0], [np.inf, 1.0], [0.0, 0.0]):
        with pytest.raises(ValueError, match="finite and not all zero"):
            gaussian_hybrid(HALF, np.array(bad), scaled_config())


@pytest.mark.parametrize("scale", [1e200, 1e-170])
def test_gaussian_hybrid_normalizes_extreme_coeffs_exactly(scale):
    # |c|^2 overflows or underflows at these scales; the normalized
    # coefficients are still the bits the unit-scale ones give
    unit = gaussian_hybrid(HALF, np.array([1.0, 1.0]), scaled_config()).coeffs
    got = gaussian_hybrid(HALF, np.array([scale, scale]), scaled_config()).coeffs
    assert got.tobytes() == unit.tobytes()


def test_gaussian_hybrid_carrier():
    cfg = scaled_config()
    st = gaussian_hybrid(HALF, np.array([2.0, 2.0]), cfg)
    assert np.sum(np.abs(st.coeffs) ** 2) == pytest.approx(1.0, abs=1e-14)


def test_u2c_identity_and_phases():
    cfg = scaled_config(beta=1.0)
    st = gaussian_hybrid(HALF, EQUAL, cfg)
    assert state_distance(apply_u2c(st, 0.0, cfg), st) == 0.0
    # spin 1/2: equal phases on both packets, physically a global phase
    out = apply_u2c(st, 1.0, cfg)
    assert out.coeffs is st.coeffs
    dphase = out.z.phase - st.z.phase
    assert dphase[0] == pytest.approx(dphase[1], abs=1e-15)
    # spin 1 at hbar = M = |gamma| = beta = t = 1: phases (-1/6, 0, -1/6)
    one = gaussian_hybrid(SpinQN(2), np.ones(3), cfg)
    out = apply_u2c(one, 1.0, cfg)
    got = np.exp(1j * (out.z.phase - one.z.phase))
    want = np.exp(1j * np.array([-1.0 / 6.0, 0.0, -1.0 / 6.0]))
    np.testing.assert_allclose(got, want, atol=1e-14)


def test_u2b_translates_per_component():
    cfg = scaled_config()
    st = gaussian_hybrid(SpinQN(2), np.ones(3), cfg)
    out = apply_u2b(st, 0.9, cfg)
    assert state_distance(apply_u2b(st, 0.0, cfg), st) == 0.0
    for m, p0, p1 in zip(st.s.m_values(), st.z_packets, out.z_packets):
        shift = moments(p1).centroid - moments(p0).centroid
        assert shift == pytest.approx(semiclassical(cfg, 0.9, m).dz, abs=1e-15)
    # m = 0 component never moves
    assert state_distance(
        HybridState(st.s, st.coeffs, stack_packets((st.z_packets[1],) * 3)),
        HybridState(st.s, st.coeffs, stack_packets((out.z_packets[1],) * 3)),
    ) <= 1e-15


def test_u2b_shift_matches_semiclassical_at_silver_scale():
    from sgsim import default_silver_config
    cfg = default_silver_config()
    t = cfg.transit_time
    st = gaussian_hybrid(HALF, EQUAL, cfg)
    out = apply_u2b(st, t, cfg)
    for m, p in zip(HALF.m_values(), out.z_packets):
        assert moments(p).centroid == pytest.approx(semiclassical(cfg, t, m).dz,
                                                    rel=1e-12)


def test_u2a_free_flight():
    cfg = scaled_config()
    st = gaussian_hybrid(HALF, EQUAL, cfg)
    assert state_distance(apply_u2a(st, 0.0, cfg), st) <= 1e-15


def test_u2a_commutes_with_u2b():
    cfg = scaled_config()
    st = gaussian_hybrid(HALF, EQUAL, cfg)
    ab = apply_u2a(apply_u2b(st, 0.8, cfg), 0.8, cfg)
    ba = apply_u2b(apply_u2a(st, 0.8, cfg), 0.8, cfg)
    assert state_distance(ab, ba) <= 1e-12


def test_u1_kick_and_larmor_phase():
    cfg = scaled_config(b0=0.9, beta=0.5)
    st = gaussian_hybrid(SpinQN(2), np.ones(3), cfg)
    assert state_distance(apply_u1(st, 0.0, cfg), st) == 0.0
    t = 1.1
    out = apply_u1(st, t, cfg)
    z = np.linspace(-3, 3, 11)
    for m, p0, p1 in zip(st.s.m_values(), st.z_packets, out.z_packets):
        # pure phase: position density untouched
        np.testing.assert_allclose(np.abs(sample(p1, z)), np.abs(sample(p0, z)),
                                   rtol=1e-14)
        dp = moments(p1, cfg.hbar).mean_momentum - moments(p0, cfg.hbar).mean_momentum
        assert dp == pytest.approx(cfg.hbar * cfg.gamma * cfg.beta * t * m, abs=1e-13)
    # packet phases advance at the Larmor rate gamma B0 m (the boost adds
    # none at q = 0); the coefficients stay
    assert out.coeffs is st.coeffs and not st.z.q.any()
    args = out.z.phase - st.z.phase
    for (m1, a1), (m2, a2) in itertools.combinations(zip(st.s.m_values(), args), 2):
        assert a1 - a2 == pytest.approx(cfg.gamma * cfg.b0 * t * (m1 - m2), abs=1e-13)


def test_evolve_zero_time_is_identity():
    cfg = scaled_config()
    st = gaussian_hybrid(HALF, EQUAL, cfg)
    assert state_distance(evolve(st, 0.0, cfg), st) <= 1e-15


def test_evolve_single_component():
    cfg = scaled_config()
    st = gaussian_hybrid(HALF, np.array([1.0, 0.0]), cfg)
    out = evolve(st, 1.0, cfg)
    assert np.sum(np.abs(out.coeffs) ** 2) == pytest.approx(1.0, abs=1e-14)
    assert abs(out.coeffs[1]) == 0.0
    want = semiclassical(cfg, 1.0, 0.5).dz
    assert moments(out.z_packets[0]).centroid == pytest.approx(want, rel=1e-12)


def test_evolve_deflection_and_momentum_identities():
    cfg = scaled_config(b0=0.8, beta=0.6)
    spin = SpinQN(3)
    st = gaussian_hybrid(spin, np.ones(4), cfg)
    t = 1.3
    out = evolve(st, t, cfg)
    for m, p in zip(spin.m_values(), out.z_packets):
        mom = moments(p, cfg.hbar)
        assert mom.centroid == pytest.approx(semiclassical(cfg, t, m).dz, rel=1e-12)
        assert mom.mean_momentum == pytest.approx(cfg.hbar * cfg.gamma * cfg.beta * t * m,
                                                  rel=1e-12)


def test_segment_fold_equals_single_evolve():
    cfg = scaled_config()
    st = gaussian_hybrid(HALF, EQUAL, cfg)
    a = evolve_segments(st, [GradientSegment(cfg.beta, 0.9)], cfg)
    b = evolve(st, 0.9, cfg)
    assert state_distance(a, b) == 0.0


def test_segment_splitting_composes_exactly():
    cfg = scaled_config(b0=0.7, beta=0.4)
    st = gaussian_hybrid(SpinQN(2), np.ones(3), cfg)
    whole = evolve_segments(st, [GradientSegment(cfg.beta, 1.2)], cfg)
    halves = evolve_segments(st, [GradientSegment(cfg.beta, 0.6),
                                  GradientSegment(cfg.beta, 0.6)], cfg)
    assert state_distance(whole, halves) <= 1e-10


def test_segment_beta_override():
    cfg = scaled_config(beta=0.5)
    st = gaussian_hybrid(HALF, EQUAL, cfg)
    via_segments = evolve_segments(st, [GradientSegment(0.25, 1.0)], cfg)
    direct = evolve(st, 1.0, cfg.with_beta(0.25))
    assert state_distance(via_segments, direct) == 0.0


# dyadic durations and times, so that every cut below is exact
SCHEDULE = [GradientSegment(0.8, 0.5), GradientSegment(-0.7, 0.0), GradientSegment(-0.4, 1.25)]


def cut_schedule(segments, t):
    """The schedule up to time t: the segments that end by t, then the one
    t falls in, shortened to end at t."""
    out, start = [], 0.0
    for seg in segments:
        if start >= t:
            break
        out.append(GradientSegment(seg.beta, min(seg.duration, t - start)))
        start += seg.duration
    return out


def packet_fields(st):
    return [st.z.q, st.z.k, st.z.s2, st.z.phase]


def test_segment_time_column_rows_are_the_cut_schedules():
    cfg = scaled_config(b0=0.7)
    st = gaussian_hybrid(SpinQN(2), np.array([1.0, 2.0j, -0.5]), cfg)
    times = np.append(np.linspace(0.0, 1.75, 8), 2.5)  # the last one past the end
    batched = evolve_segments(st, SCHEDULE, cfg, times[:, None])
    assert batched.z.q.shape == (9, 3) and batched.coeffs is st.coeffs
    for i, t in enumerate(times):
        row = evolve_segments(st, cut_schedule(SCHEDULE, t), cfg)
        for got, want in zip(packet_fields(batched), packet_fields(row)):
            assert np.array_equal(got[i], want), (t, got[i], want)


def test_segment_times_at_0_and_past_the_end_give_the_end_states():
    cfg = scaled_config(b0=0.7)
    st = gaussian_hybrid(SpinQN(2), np.ones(3), cfg)
    end = evolve_segments(st, SCHEDULE, cfg)
    for t, want in ((0.0, st), (1.75, end), (4.0, end)):
        got = evolve_segments(st, SCHEDULE, cfg, t)
        assert all(map(np.array_equal, packet_fields(got), packet_fields(want))), t


@pytest.mark.parametrize("t", [-1e-3, np.array([[0.5], [-0.25]])])
def test_segment_times_below_0_raise_as_in_evolve(t):
    cfg = scaled_config()
    st = gaussian_hybrid(HALF, EQUAL, cfg)
    with pytest.raises(ValueError, match="t must be >= 0"):
        evolve(st, t, cfg)
    with pytest.raises(ValueError, match="t must be >= 0"):
        evolve_segments(st, SCHEDULE, cfg, t)


def test_interferometer_recombines():
    from sgsim import interferometer_segments
    cfg = scaled_config()
    st = gaussian_hybrid(HALF, EQUAL, cfg)
    out = evolve_segments(st, list(interferometer_segments(cfg.beta, 0.5)), cfg)
    for p0, p1 in zip(st.z_packets, out.z_packets):
        dp = moments(p1, cfg.hbar).mean_momentum - moments(p0, cfg.hbar).mean_momentum
        assert abs(dp) <= 1e-12
        assert abs(moments(p1).centroid) <= 1e-12


def test_factor_orderings_commute():
    cfg = scaled_config(b0=1.0, beta=0.5)
    st = gaussian_hybrid(SpinQN(2), np.ones(3), cfg)
    t = 0.7
    ops = {"a": apply_u2a, "b": apply_u2b, "c": apply_u2c}
    results = []
    for order in itertools.permutations("abc"):
        cur = st
        for key in order:
            cur = ops[key](cur, t, cfg)
        results.append(cur)
    for other in results[1:]:
        assert state_distance(results[0], other) <= 1e-12


def test_sample_state_matches_manual_sampling():
    cfg = scaled_config()
    st = gaussian_hybrid(HALF, np.array([0.6, 0.8j]), cfg)
    g = Grid(-12.0, 12.0, 256)
    psi = sample_state(st, g)
    for i, (c, p) in enumerate(zip(st.coeffs, st.z_packets)):
        np.testing.assert_allclose(psi.components[i], c * sample(p, g), rtol=1e-14)
    # a nonzero frame stores the same field divided by the frame phase
    framed = sample_state(st, g, frame_k=np.array([1.5, -0.5]))
    for i in range(2):
        np.testing.assert_allclose(
            framed.components[i] * np.exp(1j * framed.frame_k[i] * g.z),
            psi.components[i], rtol=1e-11, atol=1e-14)


def test_dense_factored_matrix_identity_at_zero_time():
    g = Grid(-8.0, 8.0, 32)
    U = sla.block_diag(*dense_factored_matrix(g, 0.0, scaled_config(), HALF))
    assert np.abs(U - np.eye(64)).max() <= 1e-12


def test_dense_factored_matrix_is_unitary():
    g = Grid(-16.0, 16.0, 64)
    U = sla.block_diag(*dense_factored_matrix(g, 0.7, scaled_config(), SpinQN(2)))
    assert np.abs(U @ U.conj().T - np.eye(3 * 64)).max() <= 1e-10


def test_dense_factored_matrix_validation():
    with pytest.raises(ValueError):
        dense_factored_matrix(Grid(-8.0, 8.0, 512), 0.5, scaled_config(), HALF)
    with pytest.raises(ValueError):
        dense_factored_matrix(Grid(-8.0, 8.0, 32), -0.5, scaled_config(), HALF)


def test_dense_matrices_agree_without_gradient():
    # beta = 0 removes the position-field coupling entirely; the factored
    # product and the exact exponential then agree as full matrices
    g = Grid(-8.0, 8.0, 32)
    cfg = scaled_config(b0=1.3, beta=0.0)
    for spin in (HALF, SpinQN(2)):
        U_fact = dense_factored_matrix(g, 0.7, cfg, spin)
        U_exact = matrix_exponential(dense_hamiltonian(g, cfg, spin), -0.7j / cfg.hbar)
        assert np.abs(U_fact - U_exact).max() <= 1e-12


def test_dense_factored_matrix_matches_closed_form_on_states():
    # the matrix build and the packet algebra must be the same operator
    cfg = scaled_config(b0=1.0, beta=0.5)
    g = Grid(-16.0, 16.0, 64)
    st = gaussian_hybrid(HALF, EQUAL, cfg)
    t = 0.7
    U = sla.block_diag(*dense_factored_matrix(g, t, cfg, HALF))
    vec_in = sample_state(st, g).components.reshape(-1)
    vec_out = U @ vec_in
    want = sample_state(evolve(st, t, cfg), g).components.reshape(-1)
    assert np.abs(vec_out - want).max() <= 1e-10
