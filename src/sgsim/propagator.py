"""Factorized closed-form propagator for the spin-z beam splitter.

The effective Hamiltonian H = p^2/(2M) - gamma (B0 + beta z) S_z has a
kinetic part and a spin-field part whose double commutators are scalars,
so its evolution operator factors exactly into four commuting-friendly
pieces, applied rightmost first:

  quadratic spin phase   coefficient phase -hbar gamma^2 beta^2 m^2 t^3/(6M)
  spin-dependent shift   z packet of component m translated by
                         gamma beta hbar m t^2 / (2M)
  free flight            every z packet free-evolves for t
  field kick             z packet boosted by gamma beta t m, coefficient
                         Larmor phase gamma m t B0

Each piece maps Gaussians to Gaussians, so a HybridState evolves in closed
form with no discretization anywhere.  The three middle factors mutually
commute; only the field kick's position in the product matters.

A HybridState holds its z packets as one QuadExpPacket of (..., d)
arrays, one column per m, so each factor is a single array expression
over all components.  Passing a (s, 1) array of times gives a state with
a leading time axis: the closed form holds at any t, so every sample of a
timeline comes out of one call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig, GradientSegment, Grid
from .oracle import DENSE_N_LIMIT, SampledSpinor
from .spin_algebra import SpinQN, u2c_phase
from .wavepacket import (QuadExpPacket, boost, free_evolve, from_gaussian, norm,
                         normalized, sample, stack_packets, translate)

COEFF_NORM_TOL = 1e-12
PACKET_NORM_TOL = 1e-12

Times = float | np.ndarray  # a time, or a (s, 1) column of times


@dataclass(frozen=True, eq=False)
class HybridState:
    """The z spinor: coefficients c_m against a per-m z packet.  Free motion
    along x and y never couples to the spin, so it factors out of every
    output and is not stored.

    coeffs and the fields of z have shape (..., d), column i belonging to
    m = s.m_values()[i]; any leading axes are times, in a batched evolve.
    """

    s: SpinQN
    coeffs: np.ndarray  # (..., d) complex
    z: QuadExpPacket  # fields (..., d)

    def __post_init__(self) -> None:
        d = self.s.dim
        for name, v in (("coeffs", self.coeffs), ("z.a", self.z.a), ("z.b", self.z.b),
                        ("z.c", self.z.c)):
            if np.shape(v)[-1:] != (d,):
                raise ValueError(f"{name} must have shape (..., {d}), got {np.shape(v)}")
        total = (np.abs(self.coeffs) ** 2).sum(-1)
        if not (abs(total - 1.0) <= COEFF_NORM_TOL).all():
            raise ValueError(f"coefficients must be normalized, sum |c|^2 = {total}")
        # c stores log-amplitude; one ulp of a large exponent already moves
        # the norm by |c| * eps, so the guard scales with it.
        nrm = norm(self.z)
        if not (abs(nrm - 1.0) <= PACKET_NORM_TOL * np.maximum(1.0, abs(self.z.c.real))).all():
            raise ValueError(f"z packet must be unit norm, got {nrm}")

    def at(self, i: int) -> "HybridState":
        """Row i of a state evolved with a (s, 1) array of times."""
        return HybridState(self.s, self.coeffs[i], self.z[i])

    @property
    def z_packets(self) -> tuple[QuadExpPacket, ...]:
        """Scalar view of the z packet of each m (unbatched states only)."""
        if np.ndim(self.coeffs) != 1:
            raise ValueError("z_packets needs a state without a time axis")
        return tuple(self.z[i] for i in range(self.s.dim))


def gaussian_hybrid(s: SpinQN, coeffs: np.ndarray, cfg: ExperimentConfig) -> HybridState:
    """Initial beam state: a Gaussian at rest at z = 0 in every spin
    component, with the given spin coefficients.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    nrm = np.sqrt((np.abs(coeffs) ** 2).sum())
    if not 0.0 < nrm < np.inf:
        raise ValueError(f"coefficients must be finite and not all zero, got {coeffs}")
    return HybridState(
        s=s,
        coeffs=coeffs / nrm,
        z=stack_packets((from_gaussian(cfg.sigma_z),) * s.dim),
    )


# Each factor maps the parts (coeffs, z) of a state with magnetic quantum
# numbers m to new parts; _apply checks the times, and HybridState
# validates only what a public call returns.

def _u2c(m: np.ndarray, parts: tuple, t: Times, cfg: ExperimentConfig) -> tuple:
    coeffs, z = parts
    return coeffs * np.exp(1j * u2c_phase(m, t, cfg)), z


def _u2b(m: np.ndarray, parts: tuple, t: Times, cfg: ExperimentConfig) -> tuple:
    coeffs, z = parts
    scale = cfg.gamma * cfg.beta * cfg.hbar * t * t / (2.0 * cfg.mass)
    return coeffs, normalized(translate(z, scale * m))


def _u2a(m: np.ndarray, parts: tuple, t: Times, cfg: ExperimentConfig) -> tuple:
    coeffs, z = parts
    return coeffs, normalized(free_evolve(z, t, cfg.mass, cfg.hbar))


def _u1(m: np.ndarray, parts: tuple, t: Times, cfg: ExperimentConfig) -> tuple:
    coeffs, z = parts
    return (coeffs * np.exp(1j * cfg.gamma * m * t * cfg.b0),
            boost(z, cfg.gamma * cfg.beta * t * m))


def _apply(factors, st: HybridState, t: Times, cfg: ExperimentConfig) -> HybridState:
    if not np.greater_equal(t, 0).all():
        raise ValueError("t must be >= 0")
    m = st.s.m_values()
    parts = (st.coeffs, st.z)
    for factor in factors:
        parts = factor(m, parts, t, cfg)
    return HybridState(st.s, *parts)


def apply_u2c(st: HybridState, t: Times, cfg: ExperimentConfig) -> HybridState:
    """Quadratic spin phase on the coefficients; packets untouched."""
    return _apply((_u2c,), st, t, cfg)


def apply_u2b(st: HybridState, t: Times, cfg: ExperimentConfig) -> HybridState:
    """Spin-dependent translation of each z packet."""
    return _apply((_u2b,), st, t, cfg)


def apply_u2a(st: HybridState, t: Times, cfg: ExperimentConfig) -> HybridState:
    """Free evolution of every z packet.

    Renormalized explicitly: for fast carriers (k0 sigma >> 1) the exponent
    bookkeeping cancels large terms and the closed-form norm drifts at the
    carrier's rounding floor, well above 1e-12 at silver scale.
    """
    return _apply((_u2a,), st, t, cfg)


def apply_u1(st: HybridState, t: Times, cfg: ExperimentConfig) -> HybridState:
    """Field kick: gradient part boosts each z packet by gamma beta t m,
    uniform part advances the Larmor phase of each coefficient.
    """
    return _apply((_u1,), st, t, cfg)


def evolve(st: HybridState, t: Times, cfg: ExperimentConfig) -> HybridState:
    """Full evolution for time t under constant B0 and beta.  t is a
    scalar, or a (s, 1) array of times that gives a state with a leading
    time axis of length s.
    """
    return _apply((_u2c, _u2b, _u2a, _u1), st, t, cfg)


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
    """The factored propagator on a periodic grid, with the spectral
    (FFT-diagonal) momentum, as the (d, n, n) stack of its blocks, one per
    m in descending order (the blocks between different m are zero).  The
    block of m is

        diag(e^{i gamma t (B0 + beta z) m})            field kick
        . F* diag(e^{-i hbar k^2 t/(2M)} e^{-i k D_m}) F   free flight + shift
        . e^{i phase(m)} I                             quadratic spin phase

    with D_m the spin-dependent displacement.  Unitary by construction.
    """
    if grid.n > DENSE_N_LIMIT:
        raise ValueError(f"dense grid capped at n = {DENSE_N_LIMIT}, got {grid.n}")
    if t < 0:
        raise ValueError("t must be >= 0")
    F = np.fft.fft(np.eye(grid.n), norm="ortho")
    Fh = F.conj().T
    z, k = grid.z, grid.k
    m = s.m_values()[:, None]
    shift = cfg.gamma * cfg.beta * cfg.hbar * m * t * t / (2.0 * cfg.mass)
    spectral = np.exp(-1j * cfg.hbar * k * k * t / (2.0 * cfg.mass)) * np.exp(-1j * k * shift)
    kick = np.exp(1j * cfg.gamma * t * (cfg.b0 + cfg.beta * z) * m)
    blocks = (kick[:, :, None] * Fh) @ (spectral[:, :, None] * F)
    return np.exp(1j * u2c_phase(m, t, cfg))[:, :, None] * blocks
