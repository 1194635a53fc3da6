"""Factorized closed-form propagator for the spin-z beam splitter.

The effective Hamiltonian H = p^2/(2M) - gamma (B0 + beta z) S_z has a
kinetic part and a spin-field part whose double commutators are scalars,
so its evolution operator factors exactly into four commuting-friendly
pieces, applied rightmost first:

  quadratic spin phase   coefficient phase -hbar gamma^2 beta^2 m^2 t^3/(6M)
  spin-dependent shift   z packet of component m translated by
                         gamma beta hbar m t^2 / (2M)
  free flight            every packet free-evolves for t
  field kick             z packet boosted by gamma beta t m, coefficient
                         Larmor phase gamma m t B0

Each piece maps Gaussians to Gaussians, so a HybridState evolves in closed
form with no discretization anywhere.  The three middle factors mutually
commute; only the field kick's position in the product matters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig, GradientSegment, Grid
from .oracle import DENSE_N_LIMIT, SampledSpinor
from .spin_algebra import SpinQN, u2c_phase
from .wavepacket import (QuadExpPacket, boost, free_evolve, from_gaussian, norm,
                         normalized, sample, translate)

COEFF_NORM_TOL = 1e-12
PACKET_NORM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class HybridState:
    """Position x spin product-form state: coefficients c_m against a
    per-m z packet, with x and y packets shared by every component
    (nothing in the Hamiltonian couples them to the spin).
    """

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
        if not abs(total - 1.0) <= COEFF_NORM_TOL:
            raise ValueError(f"coefficients must be normalized, sum |c|^2 = {total}")
        for name, p in [("x", self.x_packet), ("y", self.y_packet)] + [
                (f"z[m={m:+g}]", p) for m, p in zip(self.s.m_values(), self.z_packets)]:
            # c stores log-amplitude; one ulp of a large exponent already
            # moves the norm by |c| * eps, so the guard scales with it.
            tol = PACKET_NORM_TOL * max(1.0, abs(p.c.real))
            if not abs(norm(p) - 1.0) <= tol:
                raise ValueError(f"{name} packet must be unit norm, got {norm(p)}")


def gaussian_hybrid(s: SpinQN, coeffs: np.ndarray, cfg: ExperimentConfig) -> HybridState:
    """Initial beam state: Gaussians at the origin, moving along the beam
    axis y at v0, at rest in x and z, with the given spin coefficients.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    nrm = np.sqrt(np.sum(np.abs(coeffs) ** 2))
    if not 0.0 < nrm < np.inf:
        raise ValueError(f"coefficients must be finite and not all zero, got {coeffs}")
    zp = from_gaussian(cfg.sigma_z)
    return HybridState(
        s=s,
        coeffs=coeffs / nrm,
        z_packets=(zp,) * s.dim,
        x_packet=from_gaussian(cfg.sigma_x),
        y_packet=from_gaussian(cfg.sigma_y, 0.0, cfg.mass * cfg.v0 / cfg.hbar),
    )


def apply_u2c(st: HybridState, t: float, cfg: ExperimentConfig) -> HybridState:
    """Quadratic spin phase on the coefficients; packets untouched."""
    phases = np.array([np.exp(1j * u2c_phase(m, t, cfg)) for m in st.s.m_values()])
    return HybridState(st.s, st.coeffs * phases, st.z_packets, st.x_packet, st.y_packet)


def apply_u2b(st: HybridState, t: float, cfg: ExperimentConfig) -> HybridState:
    """Spin-dependent translation of each z packet."""
    if t < 0:
        raise ValueError("t must be >= 0")
    scale = cfg.gamma * cfg.beta * cfg.hbar * t * t / (2.0 * cfg.mass)
    zs = tuple(normalized(translate(p, scale * m))
               for m, p in zip(st.s.m_values(), st.z_packets))
    return HybridState(st.s, st.coeffs, zs, st.x_packet, st.y_packet)


def apply_u2a(st: HybridState, t: float, cfg: ExperimentConfig) -> HybridState:
    """Free evolution of every packet.

    Renormalized explicitly: for fast carriers (k0 sigma >> 1) the exponent
    bookkeeping cancels large terms and the closed-form norm drifts at the
    carrier's rounding floor, well above 1e-12 at silver scale.
    """
    ev = lambda p: normalized(free_evolve(p, t, cfg.mass, cfg.hbar))
    return HybridState(st.s, st.coeffs, tuple(ev(p) for p in st.z_packets),
                       ev(st.x_packet), ev(st.y_packet))


def apply_u1(st: HybridState, t: float, cfg: ExperimentConfig) -> HybridState:
    """Field kick: gradient part boosts each z packet by gamma beta t m,
    uniform part advances the Larmor phase of each coefficient.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    m = st.s.m_values()
    coeffs = st.coeffs * np.exp(1j * cfg.gamma * m * t * cfg.b0)
    zs = tuple(boost(p, cfg.gamma * cfg.beta * t * mm)
               for mm, p in zip(m, st.z_packets))
    return HybridState(st.s, coeffs, zs, st.x_packet, st.y_packet)


def evolve(st: HybridState, t: float, cfg: ExperimentConfig) -> HybridState:
    """Full evolution for time t under constant B0 and beta."""
    st = apply_u2c(st, t, cfg)
    st = apply_u2b(st, t, cfg)
    st = apply_u2a(st, t, cfg)
    return apply_u1(st, t, cfg)


def evolve_segments(st: HybridState, segments: list[GradientSegment],
                    cfg: ExperimentConfig) -> HybridState:
    """Piecewise-constant gradient schedule; exact because each segment is
    a constant-Hamiltonian propagation (B0 held fixed throughout).
    """
    for seg in segments:
        st = evolve(st, seg.duration, cfg.with_beta(seg.beta))
    return st


def sample_state(st: HybridState, grid: Grid,
                 frame_k: np.ndarray | None = None) -> SampledSpinor:
    """Sample the z-axis spinor field (coefficients folded in) on a grid.

    frame_k chooses the stored gauge: component i is sampled as
    exp(-i frame_k[i] z) times the lab field, matching what the split
    stepper carries.  Default is the lab frame.
    """
    if frame_k is None:
        frame_k = np.zeros(st.s.dim)
    comps = np.empty((st.s.dim, grid.n), dtype=complex)
    for i, (c, p) in enumerate(zip(st.coeffs, st.z_packets)):
        comps[i] = c * sample(boost(p, -frame_k[i]), grid)
    return SampledSpinor(grid, st.s, comps, np.asarray(frame_k, dtype=float))


def dense_factored_matrix(grid: Grid, t: float, cfg: ExperimentConfig,
                          s: SpinQN) -> np.ndarray:
    """The factored propagator as an explicit (n d) x (n d) matrix on a
    periodic grid, with the spectral (FFT-diagonal) momentum.  Block
    diagonal in m; each block is

        diag(e^{i gamma t (B0 + beta z) m})            field kick
        . F* diag(e^{-i hbar k^2 t/(2M)} e^{-i k D_m}) F   free flight + shift
        . e^{i phase(m)} I                             quadratic spin phase

    with D_m the spin-dependent displacement.  Unitary by construction.
    """
    import scipy.linalg as sla

    if grid.n > DENSE_N_LIMIT:
        raise ValueError(f"dense grid capped at n = {DENSE_N_LIMIT}, got {grid.n}")
    if t < 0:
        raise ValueError("t must be >= 0")
    n = grid.n
    F = sla.dft(n, scale="sqrtn")
    Fh = F.conj().T
    z, k = grid.z, grid.k
    blocks = []
    for m in s.m_values():
        shift = cfg.gamma * cfg.beta * cfg.hbar * m * t * t / (2.0 * cfg.mass)
        spectral = np.exp(-1j * cfg.hbar * k * k * t / (2.0 * cfg.mass)) * np.exp(-1j * k * shift)
        kick = np.exp(1j * cfg.gamma * t * (cfg.b0 + cfg.beta * z) * m)
        block = (kick[:, None] * Fh) @ (spectral[:, None] * F)
        blocks.append(np.exp(1j * u2c_phase(m, t, cfg)) * block)
    return sla.block_diag(*blocks)
