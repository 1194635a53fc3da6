"""Shared comparison utilities for the test suite, and the per-component
loop references that the batched code in sgsim is checked against: the
loop split-step solver, the per-packet closed-form propagator with its
sample-by-sample entropy timeline, and the full (n d) x (n d) dense
matrices of the factorization check."""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from sgsim import (ExperimentConfig, GradientSegment, Grid, HybridState, QuadExpPacket,
                   Scenario, SpinQN, matrix_exponential, scaled_config, u2c_phase)
from sgsim.harness import BCHCheck
from sgsim.oracle import (DENSE_N_LIMIT, EXPM_SIZE_LIMIT, SampledSpinor,
                          check_boundary_leak)
from sgsim.wavepacket import (boost, free_evolve, from_gaussian, norm, normalized,
                              overlap, sample, translate)


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


# ---------------------------------------------------------------------------
# Per-packet closed-form reference: a tuple of scalar packets per state,
# each factor a loop over components, and an entropy timeline that evolves
# from t = 0 for every sample.

@dataclass(frozen=True, eq=False)
class LoopState:
    s: SpinQN
    coeffs: np.ndarray  # (d,) complex
    z_packets: tuple[QuadExpPacket, ...]
    x_packet: QuadExpPacket
    y_packet: QuadExpPacket

    def __post_init__(self) -> None:
        d = self.s.dim
        if self.coeffs.shape != (d,):
            raise ValueError(f"coeffs must have shape {(d,)}, got {self.coeffs.shape}")
        if len(self.z_packets) != d:
            raise ValueError(f"need {d} z packets, got {len(self.z_packets)}")
        total = float(np.sum(np.abs(self.coeffs) ** 2))
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError(f"coefficients must be normalized, sum |c|^2 = {total}")
        for name, p in [("x", self.x_packet), ("y", self.y_packet)] + [
                (f"z[m={m:+g}]", p) for m, p in zip(self.s.m_values(), self.z_packets)]:
            tol = 1e-12 * max(1.0, abs(p.c.real))
            if not abs(norm(p) - 1.0) <= tol:
                raise ValueError(f"{name} packet must be unit norm, got {norm(p)}")


def loop_gaussian_hybrid(s: SpinQN, coeffs: np.ndarray, cfg: ExperimentConfig) -> LoopState:
    coeffs = np.asarray(coeffs, dtype=complex)
    nrm = np.sqrt(np.sum(np.abs(coeffs) ** 2))
    zp = from_gaussian(cfg.sigma_z)
    return LoopState(
        s=s,
        coeffs=coeffs / nrm,
        z_packets=(zp,) * s.dim,
        x_packet=from_gaussian(cfg.sigma_x),
        y_packet=from_gaussian(cfg.sigma_y, 0.0, cfg.mass * cfg.v0 / cfg.hbar),
    )


def loop_evolve(st: LoopState, t: float, cfg: ExperimentConfig) -> LoopState:
    """The four factors, rightmost first, one packet at a time."""
    phases = np.array([np.exp(1j * u2c_phase(m, t, cfg)) for m in st.s.m_values()])
    st = LoopState(st.s, st.coeffs * phases, st.z_packets, st.x_packet, st.y_packet)

    scale = cfg.gamma * cfg.beta * cfg.hbar * t * t / (2.0 * cfg.mass)
    zs = tuple(normalized(translate(p, scale * m))
               for m, p in zip(st.s.m_values(), st.z_packets))
    st = LoopState(st.s, st.coeffs, zs, st.x_packet, st.y_packet)

    ev = lambda p: normalized(free_evolve(p, t, cfg.mass, cfg.hbar))
    st = LoopState(st.s, st.coeffs, tuple(ev(p) for p in st.z_packets),
                   ev(st.x_packet), ev(st.y_packet))

    m = st.s.m_values()
    coeffs = st.coeffs * np.exp(1j * cfg.gamma * m * t * cfg.b0)
    zs = tuple(boost(p, cfg.gamma * cfg.beta * t * mm)
               for mm, p in zip(m, st.z_packets))
    return LoopState(st.s, coeffs, zs, st.x_packet, st.y_packet)


def loop_evolve_segments(st: LoopState, segments: Sequence[GradientSegment],
                         cfg: ExperimentConfig) -> LoopState:
    for seg in segments:
        st = loop_evolve(st, seg.duration, cfg.with_beta(seg.beta))
    return st


def _evolve_until(st0: LoopState, segments: Sequence[GradientSegment],
                  cfg: ExperimentConfig, t: float) -> LoopState:
    """State after the first t seconds of the schedule."""
    st = st0
    remaining = t
    for seg in segments:
        if remaining <= 0:
            break
        step = min(seg.duration, remaining)
        if step > 0:
            st = loop_evolve_segments(st, [GradientSegment(seg.beta, step)], cfg)
        remaining -= step
    return st


def loop_entropy(st: LoopState) -> float:
    """Entanglement entropy from the d^2 scalar overlaps."""
    d = st.s.dim
    rho = np.empty((d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            rho[i, j] = st.coeffs[i] * st.coeffs[j].conjugate() * overlap(
                st.z_packets[j], st.z_packets[i])
    lams = np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)
    lams = lams[lams > 1e-14]
    return max(0.0, float(-np.sum(lams * np.log(lams))))


def loop_entropy_timeline(sc: Scenario, samples: int) -> np.ndarray:
    st0 = loop_gaussian_hybrid(sc.spin, sc.initial_coeffs, sc.cfg)
    times = np.linspace(0.0, sc.total_duration, samples)
    out = np.empty((samples, 2))
    for i, t in enumerate(times):
        out[i] = t, loop_entropy(_evolve_until(st0, sc.segments, sc.cfg, t))
    return out


def loop_density(st: LoopState, grid: Grid) -> np.ndarray:
    """sum_m |c_m|^2 |psi_m(z)|^2, one packet at a time."""
    z = grid.z
    return sum(abs(c) ** 2 * np.exp(2.0 * ((p.a.real * z + p.b.real) * z + p.c.real))
               for c, p in zip(st.coeffs, st.z_packets))


# ---------------------------------------------------------------------------
# Full-matrix reference of the factorization check: both operators as one
# (n d) x (n d) matrix, each probe zero-padded to a (n d) vector.

def full_dense_hamiltonian(grid: Grid, cfg: ExperimentConfig, s: SpinQN) -> np.ndarray:
    """(n d) x (n d) matrix of H on the periodic grid: spectral kinetic term,
    diagonal potential, block-diagonal in m (descending basis order).
    """
    if grid.n > DENSE_N_LIMIT:
        raise ValueError(f"dense grid capped at n = {DENSE_N_LIMIT}, got {grid.n}")
    n = grid.n
    F = np.fft.fft(np.eye(n), norm="ortho")
    kinetic = F.conj().T @ np.diag(cfg.hbar**2 * grid.k**2 / (2.0 * cfg.mass)) @ F
    kinetic = (kinetic + kinetic.conj().T) / 2.0
    out = np.zeros((s.dim * n, s.dim * n), dtype=complex)
    for i, m in enumerate(s.m_values()):
        potential = np.diag(-cfg.gamma * (cfg.b0 + cfg.beta * grid.z) * cfg.hbar * m)
        out[i * n:(i + 1) * n, i * n:(i + 1) * n] = kinetic + potential
    return out


def full_dense_factored_matrix(grid: Grid, t: float, cfg: ExperimentConfig,
                               s: SpinQN) -> np.ndarray:
    """The factored propagator as an explicit (n d) x (n d) matrix on a
    periodic grid, with the spectral (FFT-diagonal) momentum.
    """
    if grid.n > DENSE_N_LIMIT:
        raise ValueError(f"dense grid capped at n = {DENSE_N_LIMIT}, got {grid.n}")
    if t < 0:
        raise ValueError("t must be >= 0")
    n = grid.n
    F = np.fft.fft(np.eye(n), norm="ortho")
    Fh = F.conj().T
    z, k = grid.z, grid.k
    out = np.zeros((s.dim * n, s.dim * n), dtype=complex)
    for i, m in enumerate(s.m_values()):
        shift = cfg.gamma * cfg.beta * cfg.hbar * m * t * t / (2.0 * cfg.mass)
        spectral = np.exp(-1j * cfg.hbar * k * k * t / (2.0 * cfg.mass)) * np.exp(-1j * k * shift)
        kick = np.exp(1j * cfg.gamma * t * (cfg.b0 + cfg.beta * z) * m)
        block = (kick[:, None] * Fh) @ (spectral[:, None] * F)
        out[i * n:(i + 1) * n, i * n:(i + 1) * n] = np.exp(1j * u2c_phase(m, t, cfg)) * block
    return out


def full_bch_check(spin: SpinQN, n: int = 64, t: float = 0.7,
                   window: float = 16.0) -> BCHCheck:
    """bch_check on the full matrices."""
    if spin.dim * n > EXPM_SIZE_LIMIT:
        raise ValueError(f"dense check capped at (2s+1) n = {EXPM_SIZE_LIMIT}, got {spin.dim * n}")
    grid = Grid(z_min=-window, z_max=window, n=n)
    cfg = scaled_config()
    u_fact = full_dense_factored_matrix(grid, t, cfg, spin)
    h = full_dense_hamiltonian(grid, cfg, spin)
    u_exact = matrix_exponential(h, -1j * t / cfg.hbar)

    diff = u_fact - u_exact
    operator_error = float(np.abs(diff).max())

    state_error = 0.0
    for sigma in (1.0, 1.4):
        for z0 in (-4.0, 0.0, 3.0):
            for k0 in (-1.0, 0.0, 1.5):
                probe = sample(from_gaussian(sigma, z0, k0), grid)
                probe /= np.linalg.norm(probe)
                for i in range(spin.dim):
                    vec = np.zeros(spin.dim * n, dtype=complex)
                    vec[i * n:(i + 1) * n] = probe
                    err = np.linalg.norm(diff @ vec)
                    state_error = max(state_error, float(err))
    return BCHCheck(state_error=state_error, operator_error=operator_error)
