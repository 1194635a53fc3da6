"""Shared comparison utilities for the test suite, and the per-component
loop split-step solver that the batched one in sgsim.oracle is checked
against."""

from __future__ import annotations

import cmath

import numpy as np

from sgsim import ExperimentConfig, HybridState, QuadExpPacket
from sgsim.oracle import SampledSpinor, check_boundary_leak


def _circle_gap(x: float, y: float) -> float:
    """Distance between two angles measured on the unit circle."""
    return abs(cmath.exp(1j * x) - cmath.exp(1j * y))


def packet_distance(p: QuadExpPacket, q: QuadExpPacket) -> float:
    """Worst-case parameter difference; Im(c) compared on the unit circle
    so 2 pi phase windings do not count.
    """
    return max(
        abs(p.a - q.a),
        abs(p.b - q.b),
        abs(p.c.real - q.c.real),
        _circle_gap(p.c.imag, q.c.imag),
    )


def state_distance(s1: HybridState, s2: HybridState) -> float:
    """Worst physical difference between two hybrid states.

    A component's phase may sit in the coefficient or in the packet's
    Im(c) depending on the order operations were applied in; only the
    combination arg(c_m) + Im(c_packet) is meaningful, so compare that.
    """
    assert s1.s == s2.s
    worst = 0.0
    for c1, c2, p1, p2 in zip(s1.coeffs, s2.coeffs, s1.z_packets, s2.z_packets):
        worst = max(worst, abs(abs(c1) - abs(c2)))
        worst = max(worst, abs(p1.a - p2.a), abs(p1.b - p2.b),
                    abs(p1.c.real - p2.c.real))
        if abs(c1) > 1e-15 and abs(c2) > 1e-15:
            ph1 = cmath.phase(c1) + p1.c.imag
            ph2 = cmath.phase(c2) + p2.c.imag
            worst = max(worst, _circle_gap(ph1, ph2))
    for p, q in [(s1.x_packet, s2.x_packet), (s1.y_packet, s2.y_packet)]:
        worst = max(worst, packet_distance(p, q))
    return worst


def loop_split_step_evolve(psi: SampledSpinor, t: float, steps: int,
                           cfg: ExperimentConfig) -> SampledSpinor:
    """Strang splitting exp(-iV tau/2) exp(-iT tau) exp(-iV tau/2) per step.

    The linear potential is exponentiated exactly, so the only error is the
    O(tau^2) splitting commutator; norms are conserved to rounding.  After
    each step the frame advances by gamma beta m tau, which keeps the
    momentum content of the stored arrays near band center at any field
    strength.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if t < 0:
        raise ValueError("t must be >= 0")
    if t == 0:
        return SampledSpinor(psi.grid, psi.s, psi.components.copy(), psi.frame_k.copy())
    check_boundary_leak(psi.components, psi.s, "at the start")

    grid = psi.grid
    z, k = grid.z, grid.k
    tau = t / steps
    hbar, mass = cfg.hbar, cfg.mass
    out = np.empty_like(psi.components)
    frame = psi.frame_k.copy()

    for i, m in enumerate(psi.s.m_values()):
        phi = psi.components[i].copy()
        if not phi.any():
            out[i] = phi
            continue
        # exact potential phase over half a step
        v_half = np.exp(1j * cfg.gamma * (cfg.b0 + cfg.beta * z) * m * tau / 2.0)
        dk_step = cfg.gamma * cfg.beta * m * tau
        regauge = np.exp(-1j * dk_step * z)
        f = frame[i]
        for _ in range(steps):
            phi *= v_half
            phi = np.fft.ifft(np.exp(-1j * hbar * (k + f) ** 2 * tau / (2.0 * mass))
                              * np.fft.fft(phi))
            phi *= v_half
            # shift the reference wavenumber by the kick this step delivered
            phi *= regauge
            f += dk_step
        out[i] = phi
        frame[i] = f

    check_boundary_leak(out, psi.s, "at the end")
    return SampledSpinor(grid, psi.s, out, frame)
