"""Centred packets: the fused evolve against the interaction-picture
reference evaluated in mpmath, on random schedules and, phase included, on
the stock configs; against the four factors and against the
exp(a z^2 + b z + c) evolve it replaced; unit norm at screen distances;
conversions between the centred and exponent forms; overlaps.
"""

from __future__ import annotations

import cmath
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (apply_u1, apply_u2a, apply_u2b, apply_u2c, centred, global_phase,
                     ip_moments, ip_packets, ip_values, packet_distance, quad_evolve,
                     quad_free_evolve, quad_gaussian, quad_hybrid, quad_overlap, state_distance)
from sgsim import (GradientSegment, HybridState, SpinQN, boost, default_silver_config, evolve,
                   evolve_segments, free_evolve, from_gaussian, gaussian_hybrid, moments,
                   overlap, sample, scaled_config, translate)
from sgsim.harness import load_scenario

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REL_TOL = 1e-12
PACKET_NORM_TOL = 1e-12  # a fixed bound, whatever the distance
# Offsets from each beam's centroid, in widths, where |psi| is compared.
WINDOW = np.linspace(-4.0, 4.0, 9)
# c_m psi_m on the stock configs, phase included, relative at each offset
# (in widths) from the centroid: float64 rounding of phases of 1e6-1e7 rad.
STOCK_PHASE_TOL = {"silver": 1e-9, "silver_spin1": 1e-8, "silver_screen": 1e-7,
                   "scaled_small": 1e-13}
STOCK_OFFSETS = np.array([-2.0, -1.0, 0.0, 0.5, 1.0, 2.0])
HALF = SpinQN(1)


@st.composite
def schedules(draw, long_drift: bool = True):
    """A config, a spin and a schedule: 1-3 gradient segments, then a
    free drift.  Scaled units reach drifts of 3e5 initial widths, silver
    ones 40 m (1.2e4 widths at the stock gradient)."""
    spin = SpinQN(draw(st.integers(1, 7)))
    kicks = draw(st.integers(1, 3))
    if draw(st.booleans()) or not long_drift:
        cfg = scaled_config(b0=draw(st.floats(-2.0, 2.0)), sigma=draw(st.floats(0.5, 2.0)))
        segments = [GradientSegment(draw(st.floats(-3.0, 3.0)), draw(st.floats(0.0, 3.0)))
                    for _ in range(kicks)]
        drift = 10.0 ** draw(st.floats(-1.0, 3.5 if long_drift else 1.0))
    else:
        cfg = default_silver_config()
        segments = [GradientSegment(draw(st.floats(-1000.0, 1000.0)),
                                    draw(st.floats(0.0, 1.0)) * cfg.transit_time)
                    for _ in range(kicks)]
        drift = draw(st.floats(0.0, 40.0)) / cfg.v0
    return cfg, spin, segments + [GradientSegment(0.0, drift)]


@given(schedules())
@settings(max_examples=80, deadline=None)
def test_evolve_matches_the_interaction_picture(case):
    cfg, spin, segments = case
    st_ = evolve_segments(gaussian_hybrid(spin, np.ones(spin.dim), cfg), segments, cfg)
    for p, ref in zip(st_.z_packets, ip_packets(cfg, spin, segments)):
        q_ref, w_ref = ip_moments(ref)
        assert abs(p.q - q_ref) <= REL_TOL * max(abs(q_ref), w_ref)
        w = math.sqrt(moments(p).variance)
        assert abs(w - w_ref) <= REL_TOL * w_ref
        u = WINDOW * float(w_ref)
        got = np.abs(sample(translate(p, -p.q), u))
        want = np.array([float(abs(v)) for v in ip_values(ref, u)])
        assert np.all(np.abs(got - want) <= REL_TOL * want)


@given(schedules(long_drift=False))
@settings(max_examples=40, deadline=None)
def test_evolve_phases_match_the_interaction_picture(case):
    # coefficient times packet, phases included, in scaled units where the
    # accumulated phases stay below about 1e4 rad
    cfg, spin, segments = case
    coeffs = np.exp(1j * np.arange(spin.dim)) / math.sqrt(spin.dim)
    st_ = evolve_segments(gaussian_hybrid(spin, coeffs, cfg), segments, cfg)
    for c0, c, p, ref in zip(coeffs, st_.coeffs, st_.z_packets,
                             ip_packets(cfg, spin, segments)):
        u = WINDOW * float(ip_moments(ref)[1])
        got = c * sample(translate(p, -p.q), u)
        want = c0 * np.array([complex(v) for v in ip_values(ref, u)])
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


@pytest.mark.parametrize("name", sorted(STOCK_PHASE_TOL))
def test_stock_configs_match_the_interaction_picture_phase_included(name):
    sc = load_scenario(os.path.join(ROOT, "configs", f"{name}.json"))
    st_ = evolve_segments(gaussian_hybrid(sc.spin, sc.initial_coeffs, sc.cfg),
                          list(sc.segments), sc.cfg)
    for c0, c, p, ref in zip(sc.initial_coeffs, st_.coeffs, st_.z_packets,
                             ip_packets(sc.cfg, sc.spin, sc.segments)):
        u = STOCK_OFFSETS * float(ip_moments(ref)[1])
        got = c * sample(translate(p, -p.q), u)
        want = c0 * np.array([complex(v) for v in ip_values(ref, u)])
        assert np.all(np.abs(got - want) <= STOCK_PHASE_TOL[name] * np.abs(want))


@pytest.mark.parametrize("metres", [1.0, 10.0, 35.0])
def test_packet_guard_is_fixed_and_holds_at_screen_distances(metres):
    cfg = default_silver_config()
    segments = [GradientSegment(cfg.beta, cfg.transit_time), GradientSegment(0.0, metres / cfg.v0)]
    st_ = evolve_segments(gaussian_hybrid(HALF, np.ones(2), cfg), segments, cfg)
    for p in st_.z_packets:
        w = math.sqrt(moments(p).variance)
        assert abs(p.q) > 250.0 * w  # 4.2e-3 m at 1 m, 0.146 m at 35 m
        u = np.linspace(-12.0, 12.0, 2001) * w
        quadrature = np.sum(np.abs(sample(translate(p, -p.q), u)) ** 2) * (u[1] - u[0])
        assert abs(math.sqrt(quadrature) - 1.0) <= PACKET_NORM_TOL
    # A centred packet has unit norm wherever it sits: a beam prepared 1e4
    # widths out is accepted and splits exactly as one on the axis does.
    offset = 1e4 * cfg.sigma_z
    st0 = gaussian_hybrid(HALF, np.ones(2), cfg)
    far = evolve(HybridState(HALF, st0.coeffs, translate(st0.z, offset)), cfg.transit_time, cfg)
    near = evolve(st0, cfg.transit_time, cfg)
    assert np.abs(far.z.q - offset - near.z.q).max() <= REL_TOL * offset
    assert (far.z.k == near.z.k).all() and (far.z.s2 == near.z.s2).all()
    assert (far.coeffs == near.coeffs).all()


@pytest.mark.parametrize("config", ["scaled", "silver"])
def test_fused_evolve_is_the_four_factors(config):
    cfg = scaled_config(b0=0.7, beta=0.9) if config == "scaled" else default_silver_config()
    st0 = gaussian_hybrid(SpinQN(3), np.exp(1j * np.arange(4.0)), cfg)
    times = np.array([0.0, 0.3, 1.0, 2.5]) * (1.0 if config == "scaled" else cfg.transit_time)
    fused = evolve(st0, times[:, None], cfg)
    for i, t in enumerate(times):
        composed = apply_u1(apply_u2a(apply_u2b(apply_u2c(st0, t, cfg), t, cfg), t, cfg), t, cfg)
        row = HybridState(fused.s, fused.coeffs, fused.z[i])
        for f in ("q", "k", "s2"):
            want = getattr(composed.z, f)
            scale = max(np.abs(want).max(), 1e-300)
            assert np.abs(getattr(row.z, f) - want).max() <= REL_TOL * scale
        if config == "scaled":
            assert state_distance(row, composed) <= 1e-12


@pytest.mark.parametrize("config", ["scaled", "silver"])
def test_fused_evolve_matches_the_exponent_form_it_replaced(config):
    cfg = scaled_config() if config == "scaled" else default_silver_config()
    unit = 1.0 if config == "scaled" else cfg.transit_time
    coeffs = np.array([0.3, 1.0 + 0.5j, -0.7j])
    times = np.array([0.0, 0.25, 1.0])[:, None] * unit
    new = evolve(gaussian_hybrid(SpinQN(2), coeffs, cfg), times, cfg)
    old = quad_evolve(quad_hybrid(SpinQN(2), coeffs, cfg), times, cfg)
    old_z = centred(old.z)
    for f in ("q", "k", "s2"):
        want = getattr(old_z, f)
        assert np.abs(getattr(new.z, f) - want).max() <= 1e-11 * np.abs(want).max()
    if config == "scaled":
        gap = np.abs(np.exp(1j * new.z.phase) * new.coeffs - np.exp(1j * old_z.phase) * old.coeffs)
        assert gap.max() <= 1e-12


sigmas = st.floats(0.5, 2.0)
positions = st.floats(-3.0, 3.0)
wavenumbers = st.floats(-3.0, 3.0)
times = st.floats(0.0, 3.0)


@given(sigma=sigmas, z0=positions, k0=wavenumbers, t=times, phi=positions)
@settings(max_examples=100)
def test_centred_and_exponent_forms_convert_both_ways(sigma, z0, k0, t, phi):
    p = global_phase(free_evolve(from_gaussian(sigma, z0, k0), t, 1.0), phi)
    assert packet_distance(centred(p.quad), p) <= 1e-12
    # the exponent algebra gives the same packet
    want = quad_free_evolve(quad_gaussian(sigma, z0, k0), t, 1.0)
    assert packet_distance(centred(want), global_phase(p, -phi)) <= 1e-12


@given(s1=sigmas, s2=sigmas, z1=positions, z2=positions, k1=wavenumbers, k2=wavenumbers,
       t1=times, t2=times)
@settings(max_examples=100)
def test_overlap_of_spread_packets_matches_the_exponent_form(s1, s2, z1, z2, k1, k2, t1, t2):
    p = free_evolve(from_gaussian(s1, z1, k1), t1, 1.0)
    q = free_evolve(from_gaussian(s2, z2, k2), t2, 1.0)
    want = quad_overlap(quad_free_evolve(quad_gaussian(s1, z1, k1), t1, 1.0),
                        quad_free_evolve(quad_gaussian(s2, z2, k2), t2, 1.0))
    assert abs(overlap(p, q) - want) <= 1e-12


def test_overlap_is_exact_far_from_the_origin():
    # two packets 1e6 widths out and 2 widths apart; their exponent form
    # holds c ~ -2.5e11, so it would keep only about 5 digits of the overlap
    p = translate(boost(from_gaussian(1.0), 0.3), 1e6)
    q = from_gaussian(1.0, 1e6 + 2.0)
    want = cmath.exp(-(4.0 + 4.0 * 0.3**2) / 8.0 - 0.3j)
    assert abs(overlap(p, q) - want) <= 1e-15
    assert abs(overlap(p, p) - 1.0) <= 1e-15
