"""The array-valued HybridState against the per-packet reference in
helpers.py: entropy timelines and final densities for spins 1/2 to 7/2 on
1-3 segment schedules, at silver scale and in scaled units, plus the
time-batched evolve and the validation of stacked states.
"""

from __future__ import annotations

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from helpers import (apply_u1, apply_u2a, apply_u2b, apply_u2c, loop_density,
                     loop_entropy_timeline, loop_evolve_segments, loop_gaussian_hybrid,
                     stack_packets)
from sgsim import (CentredPacket, GradientSegment, Grid, HybridState, Scenario, SpinQN,
                   default_silver_config, entanglement_entropy, entropy_timeline, evolve,
                   evolve_segments, from_gaussian, gaussian_hybrid, position_density_z,
                   scaled_config, spin_rdm)
from sgsim.harness import TIMELINE_SAMPLES_LIMIT
from sgsim.wavepacket import QuadExpPacket

ENTROPY_ABS_TOL = 1e-10
DENSITY_PEAK_TOL = 1e-9

# (beta as a fraction of the config's gradient, duration as a fraction of
# the unit time).  With 9 samples over a unit total the sample times are
# k/8, so the boundaries at 1/4, 3/8, 1/2 and 3/4 land exactly on samples.
SCHEDULES = {
    "one": [(1.0, 1.0)],
    "two-on-sample": [(0.5, 0.5), (-1.0, 0.5)],
    "flip-on-samples": [(1.0, 0.25), (-1.0, 0.5), (1.0, 0.25)],
    "zero-durations": [(1.0, 0.0), (1.0, 0.375), (0.0, 0.0), (-0.5, 0.625)],
    "off-sample": [(1.0, 0.3), (-0.7, 0.45), (0.2, 0.25)],
    "all-zero": [(1.0, 0.0)],
}
TIMELINE_SAMPLES = 9

# Unit times are powers of two so the schedule fractions stay exact.
CONFIGS = {
    "silver": (default_silver_config(), 2.0**-15, Grid(z_min=-6e-4, z_max=6e-4, n=4096)),
    "scaled": (scaled_config(), 2.0, Grid(z_min=-32.0, z_max=32.0, n=1024)),
}


def make_scenario(config: str, twice_s: int, schedule: str) -> Scenario:
    cfg, unit, grid = CONFIGS[config]
    rng = np.random.default_rng(twice_s)
    coeffs = rng.normal(size=twice_s + 1) + 1j * rng.normal(size=twice_s + 1)
    segments = tuple(GradientSegment(f * cfg.beta, d * unit) for f, d in SCHEDULES[schedule])
    return Scenario(cfg=cfg, spin=SpinQN(twice_s), initial_coeffs=coeffs / np.linalg.norm(coeffs),
                    segments=segments, grid=grid, outputs=())


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("twice_s", range(1, 8))
def test_timeline_and_density_match_per_packet_reference(config, twice_s):
    for schedule in SCHEDULES:
        sc = make_scenario(config, twice_s, schedule)
        got = entropy_timeline(sc, TIMELINE_SAMPLES)
        want = loop_entropy_timeline(sc, TIMELINE_SAMPLES)
        assert np.array_equal(got[:, 0], want[:, 0])
        assert np.abs(got[:, 1] - want[:, 1]).max() <= ENTROPY_ABS_TOL, schedule

        st = evolve_segments(gaussian_hybrid(sc.spin, sc.initial_coeffs, sc.cfg),
                             list(sc.segments), sc.cfg)
        ref = loop_evolve_segments(loop_gaussian_hybrid(sc.spin, sc.initial_coeffs, sc.cfg),
                                   sc.segments, sc.cfg)
        rho = position_density_z(st, sc.grid).values
        rho_ref = loop_density(ref, sc.grid)
        assert np.abs(rho - rho_ref).max() <= DENSITY_PEAK_TOL * rho_ref.max(), schedule


def test_timeline_separates_the_beams():
    sc = make_scenario("scaled", 3, "one")
    timeline = entropy_timeline(sc, TIMELINE_SAMPLES)
    assert timeline[0, 1] <= 1e-12
    assert timeline[-1, 1] > 0.1


def test_batched_evolve_rows_match_scalar_evolve():
    cfg = scaled_config()
    st = gaussian_hybrid(SpinQN(3), np.arange(1.0, 5.0), cfg)
    times = np.array([0.0, 0.3, 1.1, 2.5])
    batch = evolve(st, times[:, None], cfg)
    assert batch.coeffs is st.coeffs and batch.z.q.shape == batch.z.phase.shape == (4, 4)
    rdms = spin_rdm(batch)
    assert rdms.matrix.shape == (4, 4, 4)
    entropies = entanglement_entropy(rdms)
    for i, t in enumerate(times):
        one, row = evolve(st, t, cfg), HybridState(batch.s, batch.coeffs, batch.z[i])
        assert one.coeffs is st.coeffs
        for f in ("q", "k", "s2", "phase"):
            assert np.abs(getattr(row.z, f) - getattr(one.z, f)).max() <= 1e-13
        assert abs(entropies[i] - entanglement_entropy(spin_rdm(one))) <= 1e-14


def test_single_factors_take_a_time_column():
    # fields a factor leaves alone are broadcast along the time axis too
    cfg = scaled_config(b0=0.9, beta=0.7)
    st = gaussian_hybrid(SpinQN(2), np.array([0.6, 0.8j, 0.3]), cfg)
    times = np.array([0.0, 0.5, 1.25])
    for factor in (apply_u2c, apply_u2b, apply_u2a, apply_u1):
        batch = factor(st, times[:, None], cfg)
        assert batch.coeffs is st.coeffs and batch.z.q.shape == batch.z.phase.shape == (3, 3)
        for i, t in enumerate(times):
            one, row = factor(st, t, cfg), HybridState(batch.s, batch.coeffs, batch.z[i])
            assert one.coeffs is st.coeffs
            for f in ("q", "k", "s2", "phase"):
                assert np.abs(getattr(row.z, f) - getattr(one.z, f)).max() <= 1e-15


def test_z_packets_are_views_of_the_arrays():
    st = evolve(gaussian_hybrid(SpinQN(2), np.ones(3), scaled_config()), 0.7, scaled_config())
    for i, p in enumerate(st.z_packets):
        assert isinstance(p, CentredPacket)
        assert (p.q, p.k, p.s2, p.phase) == (st.z.q[i], st.z.k[i], st.z.s2[i], st.z.phase[i])
    batch = evolve(st, np.array([[0.1], [0.2]]), scaled_config())
    with pytest.raises(ValueError, match="time axis"):
        batch.z_packets


def test_stacked_state_validation():
    cfg = scaled_config()
    st = gaussian_hybrid(SpinQN(1), np.ones(2), cfg)
    batch = evolve(st, np.array([[0.5], [1.0]]), cfg)
    with pytest.raises(ValueError, match="shape"):
        HybridState(st.s, st.coeffs, stack_packets([from_gaussian(1.0)] * 3))
    with pytest.raises(ValueError, match=r"need coeffs of shape \(2,\)"):  # one row per time
        HybridState(batch.s, np.broadcast_to(batch.coeffs, batch.z.q.shape), batch.z)
    bad = batch.coeffs.copy()
    bad[0] *= 1.001  # off normalization
    with pytest.raises(ValueError, match="normalized"):
        HybridState(batch.s, bad, batch.z)
    with pytest.raises(TypeError, match="got QuadExpPacket"):
        HybridState(batch.s, batch.coeffs, batch.z.quad)
    s2 = batch.z.s2.copy()
    s2[1, 0] = -s2[1, 0].conjugate()  # one packet not normalizable
    with pytest.raises(ValueError, match="Re\\(s2\\) > 0"):
        HybridState(batch.s, batch.coeffs, replace(batch.z, s2=s2))
    nan = batch.coeffs.copy()
    nan[0] = np.nan
    with pytest.raises(ValueError, match="normalized"):
        HybridState(batch.s, nan, batch.z)


def test_mixed_shape_fields_are_refused_not_broadcast():
    cfg = scaled_config()
    st = gaussian_hybrid(SpinQN(1), np.ones(2), cfg)
    coeffs = np.repeat(st.coeffs[None], 3, axis=0)  # (3, 2) against z fields of (2,)
    with pytest.raises(ValueError, match=r"coeffs \(3, 2\), q \(2,\), k \(2,\)"):
        HybridState(st.s, coeffs, st.z)
    q = np.repeat(st.z.q[None], 3, axis=0)  # a (3, 2) field among fields of (2,)
    with pytest.raises(ValueError, match=r"coeffs \(2,\), q \(3, 2\), k \(2,\)"):
        HybridState(st.s, st.coeffs, replace(st.z, q=q))


def test_packet_stack_validation():
    a = np.array([-0.25 + 0j, -0.5 + 0j])
    zero = np.zeros(2, dtype=complex)
    QuadExpPacket(a, zero, zero)
    with pytest.raises(ValueError, match="Re\\(a\\) < 0"):
        QuadExpPacket(np.array([-0.25 + 0j, 0.1 + 0j]), zero, zero)
    with pytest.raises(ValueError, match="b must be finite"):
        QuadExpPacket(a, np.array([0j, np.nan]), zero)
    with pytest.raises(ValueError, match="c must be finite"):
        QuadExpPacket(a, zero, np.array([np.inf + 0j, 0j]))


def test_evolve_rejects_negative_or_nan_times():
    cfg = scaled_config()
    st = gaussian_hybrid(SpinQN(1), np.ones(2), cfg)
    for bad in (np.array([[0.5], [-0.1]]), np.array([[np.nan]]), -1.0):
        with pytest.raises(ValueError, match=">= 0"):
            evolve(st, bad, cfg)


def test_timeline_rejects_huge_sample_counts_before_allocating():
    sc = make_scenario("scaled", 7, "one")
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"samples must be <= {TIMELINE_SAMPLES_LIMIT}"):
            entropy_timeline(sc, 10**12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert entropy_timeline(sc, TIMELINE_SAMPLES_LIMIT).shape == (TIMELINE_SAMPLES_LIMIT, 2)


def test_timeline_without_segments_is_the_initial_entropy():
    sc = make_scenario("scaled", 1, "one")
    sc = Scenario(cfg=sc.cfg, spin=sc.spin, initial_coeffs=sc.initial_coeffs, segments=(),
                  grid=sc.grid, outputs=())
    timeline = entropy_timeline(sc, 3)
    assert np.array_equal(timeline[:, 0], np.zeros(3))
    assert np.all(timeline[:, 1] <= 1e-12)
    assert not math.copysign(1.0, timeline[0, 1]) < 0
