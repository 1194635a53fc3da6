"""Shared comparison and construction utilities for the test suite, and the
references that the code in sgsim is checked against: the loop split-step
solver; the exp(a z^2 + b z + c) packet algebra, its conversion to the
centred form, and the batched evolve that stored packets that way before
they were stored centred; the four factors of the evolution operator
applied one at a time to a HybridState, the specification of the fused
sgsim.evolve, and the semiclassical (Newtonian) kinematics the deflection
is compared with; the per-packet closed-form propagator on the exponent
algebra with its sample-by-sample entropy timeline; the full (n d) x (n d)
dense matrices of the factorization check; the interaction-picture
propagator evaluated in mpmath; the spin matrices and operator-conjugation
series of the BCH derivation; and the position-side entropy by grid
quadrature.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields, replace
from typing import NamedTuple, Sequence

import mpmath
import numpy as np

from sgsim import (CentredPacket, ExperimentConfig, GradientSegment, Grid, HybridState,
                   Scenario, SpinQN, SpinRDM, boost, entanglement_entropy, evolve_segments,
                   free_evolve, matrix_exponential, scaled_config, translate, u2c_phase)
from sgsim.harness import BCHCheck
from sgsim.oracle import (DENSE_N_LIMIT, EXPM_SIZE_LIMIT, SampledSpinor,
                          check_boundary_leak)
from sgsim.wavepacket import QuadExpPacket, from_gaussian, norm, normalized, sample


def _circle_gap(x: float, y: float) -> float:
    """Distance between two angles measured on the unit circle."""
    return abs(cmath.exp(1j * x) - cmath.exp(1j * y))


def packet_distance(p: CentredPacket, q: CentredPacket) -> float:
    """Worst-case parameter difference; the phase compared on the unit
    circle so 2 pi windings do not count.
    """
    return max(abs(p.q - q.q), abs(p.k - q.k), abs(p.s2 - q.s2),
               _circle_gap(p.phase, q.phase))


def state_distance(s1: HybridState, s2: HybridState) -> float:
    """Worst physical difference between two hybrid states.

    Only the product c_m psi_m is physical: evolve and the factors below
    keep every phase in the packet, but a state built by hand may carry a
    component's phase in its coefficient, so compare arg(c_m) + phase.
    """
    assert s1.s == s2.s
    worst = 0.0
    for c1, c2, p1, p2 in zip(s1.coeffs, s2.coeffs, s1.z_packets, s2.z_packets):
        worst = max(worst, abs(abs(c1) - abs(c2)), abs(p1.q - p2.q), abs(p1.k - p2.k),
                    abs(p1.s2 - p2.s2))
        if abs(c1) > 1e-15 and abs(c2) > 1e-15:
            ph1 = cmath.phase(c1) + p1.phase
            ph2 = cmath.phase(c2) + p2.phase
            worst = max(worst, _circle_gap(ph1, ph2))
    return worst


def global_phase(p: CentredPacket, phi: float) -> CentredPacket:
    """Multiply by exp(i phi)."""
    return CentredPacket(p.q, p.k, p.s2, p.phase + phi)


def stack_packets(packets) -> CentredPacket | QuadExpPacket:
    """One packet of (k,) arrays from an iterable of k scalar packets of one class."""
    packets = list(packets)
    cls = type(packets[0])
    return cls(*(np.array([getattr(p, f.name) for p in packets]) for f in fields(cls)))


def evolve_segments_b0_off(st: HybridState, segments, cfg: ExperimentConfig,
                           t=None) -> HybridState:
    """evolve_segments with B0 off by a relative 1e-9, a closed form whose
    only error is its Larmor phases (~5e5 rad over a silver transit).  It
    forwards the time column, so it stands in for every call."""
    return evolve_segments(st, segments, replace(cfg, b0=cfg.b0 * (1 + 1e-9)), t)


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
# The exp(a z^2 + b z + c) algebra, as sgsim.wavepacket had it before it
# stored packets centred, its conversion to the centred form, and the
# batched evolve built on it.

_TWO_PI = 2.0 * math.pi


def quad_gaussian(sigma: float, z0: float = 0.0, k0: float = 0.0) -> QuadExpPacket:
    """Unit-norm Gaussian with position spread sigma, centroid z0, mean
    wavenumber k0:  psi = (2 pi sigma^2)^(-1/4) exp(-(z-z0)^2/(4 sigma^2) + i k0 z).
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    a = -1.0 / (4.0 * sigma * sigma)
    b = z0 / (2.0 * sigma * sigma) + 1j * k0
    c = -z0 * z0 / (4.0 * sigma * sigma) - 0.25 * math.log(_TWO_PI * sigma * sigma)
    return QuadExpPacket(a, complex(b), complex(c))


def centred(p: QuadExpPacket) -> CentredPacket:
    """The centred form of p, of unit norm whatever norm(p) is."""
    q = -p.b.real / (2.0 * p.a.real)
    s2 = -0.25 / p.a
    phase = (p.a.imag * q + p.b.imag) * q + p.c.imag + 0.5 * np.angle(s2)
    return CentredPacket(q, p.b.imag + 2.0 * p.a.imag * q, s2, phase)


def quad_translate(p: QuadExpPacket, delta: float) -> QuadExpPacket:
    """psi'(z) = psi(z - delta); exponent recentered exactly."""
    return QuadExpPacket(p.a, p.b - 2.0 * p.a * delta, p.c + p.a * delta * delta - p.b * delta)


def quad_boost(p: QuadExpPacket, dk: float) -> QuadExpPacket:
    """Multiply by exp(i dk z): mean momentum rises by hbar dk, |psi|^2 unchanged."""
    return QuadExpPacket(p.a, p.b + 1j * dk, p.c)


def quad_free_evolve(p: QuadExpPacket, t: float, mass: float,
                     hbar: float = 1.0) -> QuadExpPacket:
    """Exact free propagation exp(-i p_z^2 t / (2 M hbar)).

    In Fourier space each mode gains exp(-i hbar k^2 t / (2M)); carrying the
    Gaussian integral back gives, with tau = hbar t / (2M) and
    den = 1 - 4i tau a:

        a' = a / den,   b' = b / den,   c' = c + i tau b^2 / den - log(den)/2.
    """
    if mass <= 0:
        raise ValueError(f"mass must be positive, got {mass}")
    if not np.greater_equal(t, 0).all():
        raise ValueError("t must be >= 0")
    tau = hbar * t / (2.0 * mass)
    den = 1.0 - 4j * tau * p.a
    return QuadExpPacket(
        p.a / den,
        p.b / den,
        p.c + 1j * tau * p.b * p.b / den - 0.5 * np.log(den),
    )


def quad_overlap(p: QuadExpPacket, q: QuadExpPacket) -> complex:
    """<p|q> = integral of conj(psi_p) psi_q, as a closed-form Gaussian
    integral: with A = conj(a_p) + a_q, B = conj(b_p) + b_q, C = conj(c_p) + c_q,

        <p|q> = sqrt(-pi/A) exp(-B^2/(4A) + C),  valid for Re(A) < 0.
    """
    A = p.a.conjugate() + q.a
    B = p.b.conjugate() + q.b
    C = p.c.conjugate() + q.c
    if not np.less(A.real, 0).all():
        raise ValueError(f"overlap integral diverges: Re(a_p* + a_q) = {A.real}")
    return np.sqrt(-math.pi / A) * np.exp(-B * B / (4.0 * A) + C)


COEFF_NORM_TOL = 1e-12
PACKET_NORM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class QuadState:
    """HybridState as it was with exp(a z^2 + b z + c) packets: coeffs and
    the fields of z have shape (..., d)."""

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


def quad_hybrid(s: SpinQN, coeffs: np.ndarray, cfg: ExperimentConfig) -> QuadState:
    coeffs = np.asarray(coeffs, dtype=complex)
    return QuadState(s, coeffs / np.sqrt((np.abs(coeffs) ** 2).sum()),
                     stack_packets((quad_gaussian(cfg.sigma_z),) * s.dim))


def _u2c(m: np.ndarray, parts: tuple, t, cfg: ExperimentConfig) -> tuple:
    coeffs, z = parts
    return coeffs * np.exp(1j * u2c_phase(m, t, cfg)), z


def _u2b(m: np.ndarray, parts: tuple, t, cfg: ExperimentConfig) -> tuple:
    coeffs, z = parts
    scale = cfg.gamma * cfg.beta * cfg.hbar * t * t / (2.0 * cfg.mass)
    return coeffs, normalized(quad_translate(z, scale * m))


def _u2a(m: np.ndarray, parts: tuple, t, cfg: ExperimentConfig) -> tuple:
    coeffs, z = parts
    return coeffs, normalized(quad_free_evolve(z, t, cfg.mass, cfg.hbar))


def _u1(m: np.ndarray, parts: tuple, t, cfg: ExperimentConfig) -> tuple:
    coeffs, z = parts
    return (coeffs * np.exp(1j * cfg.gamma * m * t * cfg.b0),
            quad_boost(z, cfg.gamma * cfg.beta * t * m))


def _check_times(t) -> None:
    if not np.greater_equal(t, 0).all():
        raise ValueError("t must be >= 0")


def _apply(factors, st: QuadState, t, cfg: ExperimentConfig) -> QuadState:
    _check_times(t)
    m = st.s.m_values()
    parts = (st.coeffs, st.z)
    for factor in factors:
        parts = factor(m, parts, t, cfg)
    return QuadState(st.s, *parts)


def quad_evolve(st: QuadState, t, cfg: ExperimentConfig) -> QuadState:
    """Full evolution for time t under constant B0 and beta.  t is a
    scalar, or a (s, 1) array of times that gives a state with a leading
    time axis of length s.
    """
    return _apply((_u2c, _u2b, _u2a, _u1), st, t, cfg)


# ---------------------------------------------------------------------------
# The same four factors on HybridState's centred packets, applied one at a
# time (rightmost first: apply_u2c, apply_u2b, apply_u2a, apply_u1; t is a
# scalar or a (s, 1) column of times): the specification that the fused
# sgsim.evolve is checked against.  Then the semiclassical kinematics that
# the shift and the kick are compared with.

def _factor_state(s: SpinQN, coeffs, z: CentredPacket) -> HybridState:
    """A factor's output as a HybridState: a factor applied with a time
    column leaves the packet fields it does not touch without that axis, so
    they are broadcast to one shape first; the coefficients are the input's."""
    return HybridState(s, coeffs, CentredPacket(*np.broadcast_arrays(*vars(z).values())))


def apply_u2c(st: HybridState, t, cfg: ExperimentConfig) -> HybridState:
    """Quadratic spin phase, on the phase of each z packet."""
    return _factor_state(st.s, st.coeffs,
                         global_phase(st.z, u2c_phase(st.s.m_values(), t, cfg)))


def apply_u2b(st: HybridState, t, cfg: ExperimentConfig) -> HybridState:
    """Spin-dependent translation of each z packet."""
    _check_times(t)
    scale = cfg.gamma * cfg.beta * cfg.hbar * t * t / (2.0 * cfg.mass)
    return _factor_state(st.s, st.coeffs, translate(st.z, scale * st.s.m_values()))


def apply_u2a(st: HybridState, t, cfg: ExperimentConfig) -> HybridState:
    """Free evolution of every z packet."""
    return _factor_state(st.s, st.coeffs, free_evolve(st.z, t, cfg.mass, cfg.hbar))


def apply_u1(st: HybridState, t, cfg: ExperimentConfig) -> HybridState:
    """Field kick: gradient part boosts each z packet by gamma beta t m,
    uniform part advances its phase by the Larmor phase gamma m t B0."""
    _check_times(t)
    m = st.s.m_values()
    kicked = boost(st.z, cfg.gamma * cfg.beta * t * m)
    return _factor_state(st.s, st.coeffs, global_phase(kicked, cfg.gamma * m * t * cfg.b0))


class SemiclassicalKinematics(NamedTuple):
    force: float
    dp: float
    dz: float


def semiclassical(cfg: ExperimentConfig, t: float, m: float) -> SemiclassicalKinematics:
    """Newtonian prediction for component m: constant force hbar m gamma beta,
    momentum transfer F t, deflection F t^2 / (2M).
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    force = cfg.hbar * m * cfg.gamma * cfg.beta
    return SemiclassicalKinematics(
        force=force,
        dp=force * t,
        dz=force * t * t / (2.0 * cfg.mass),
    )


# ---------------------------------------------------------------------------
# Per-packet closed-form reference on that algebra: a tuple of scalar
# packets per state, each factor a loop over components, and an entropy
# timeline that evolves from t = 0 for every sample.

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
    zp = quad_gaussian(cfg.sigma_z)
    return LoopState(
        s=s,
        coeffs=coeffs / nrm,
        z_packets=(zp,) * s.dim,
        x_packet=quad_gaussian(cfg.sigma_x),
        y_packet=quad_gaussian(cfg.sigma_y, 0.0, cfg.mass * cfg.v0 / cfg.hbar),
    )


def loop_evolve(st: LoopState, t: float, cfg: ExperimentConfig) -> LoopState:
    """The four factors, rightmost first, one packet at a time."""
    phases = np.array([np.exp(1j * u2c_phase(m, t, cfg)) for m in st.s.m_values()])
    st = LoopState(st.s, st.coeffs * phases, st.z_packets, st.x_packet, st.y_packet)

    scale = cfg.gamma * cfg.beta * cfg.hbar * t * t / (2.0 * cfg.mass)
    zs = tuple(normalized(quad_translate(p, scale * m))
               for m, p in zip(st.s.m_values(), st.z_packets))
    st = LoopState(st.s, st.coeffs, zs, st.x_packet, st.y_packet)

    ev = lambda p: normalized(quad_free_evolve(p, t, cfg.mass, cfg.hbar))
    st = LoopState(st.s, st.coeffs, tuple(ev(p) for p in st.z_packets),
                   ev(st.x_packet), ev(st.y_packet))

    m = st.s.m_values()
    coeffs = st.coeffs * np.exp(1j * cfg.gamma * m * t * cfg.b0)
    zs = tuple(quad_boost(p, cfg.gamma * cfg.beta * t * mm)
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
            rho[i, j] = st.coeffs[i] * st.coeffs[j].conjugate() * quad_overlap(
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


# ---------------------------------------------------------------------------
# Interaction-picture reference, evaluated in mpmath.
#
# With respect to H0 = p^2/(2M), the field term V = -gamma hbar m (B0 + beta z)
# of component m becomes V_I(t) = -gamma hbar m (B0 + beta (z + p t / M)).
# [V_I(t1), V_I(t2)] = i hbar^3 (gamma beta m)^2 (t2 - t1) / M is a c-number,
# so the Magnus series of U_I stops at second order:
#
#   Omega_1 = i gamma m B0 t + i (kappa z + mu p),
#   Omega_2 = i hbar gamma^2 beta^2 m^2 t^3 / (12 M),
#
# with kappa = gamma beta m t and mu = gamma beta m t^2 / (2M), and
# U(t) = exp(-i H0 t / hbar) exp(Omega_1 + Omega_2).  The Weyl operator
# exp(i (kappa z + mu p)) maps psi(z) to exp(i kappa z + i hbar kappa mu / 2)
# psi(z + hbar mu).  Free flight then acts on exp(a z^2 + b z + c) as
#
#   a' = a / D,  b' = b / D,  c' = c + i tau b^2 / D - log(D) / 2,
#   D = 1 - 4 i tau a,  tau = hbar t / (2M).
#
# None of this uses the four-factor BCH ordering of sgsim.propagator.

IP_DIGITS = 50


def ip_packets(cfg: ExperimentConfig, s: SpinQN, segments: Sequence[GradientSegment],
               digits: int = IP_DIGITS) -> list[tuple]:
    """(a, b, c) of exp(a z^2 + b z + c), as mpmath numbers at `digits`
    digits, for the z packet of each m (descending) after `segments`,
    starting from the Gaussian of spread cfg.sigma_z at rest at z = 0.  c
    holds every phase, the Larmor and Magnus phases included, so the
    component of m is c_m(0) exp(a z^2 + b z + c).
    """
    with mpmath.workdps(digits):
        mp = mpmath.mpf
        hbar, mass, gamma, b0 = mp(cfg.hbar), mp(cfg.mass), mp(cfg.gamma), mp(cfg.b0)
        sigma = mp(cfg.sigma_z)
        out = []
        for m in s.m_values():
            m = mp(m)
            a = mpmath.mpc(-1 / (4 * sigma**2))
            b = mpmath.mpc(0)
            c = mpmath.mpc(-mpmath.log(2 * mpmath.pi * sigma**2) / 4)
            for seg in segments:
                beta, t = mp(seg.beta), mp(seg.duration)
                kappa = gamma * beta * m * t
                h = hbar * gamma * beta * m * t**2 / (2 * mass)  # hbar mu
                magnus = gamma * m * b0 * t + hbar * (gamma * beta * m) ** 2 * t**3 / (12 * mass)
                a, b, c = (a, 2 * a * h + b + 1j * kappa,
                           a * h**2 + b * h + c + 1j * (magnus + kappa * h / 2))
                tau = hbar * t / (2 * mass)
                den = 1 - 4j * tau * a
                a, b, c = a / den, b / den, c + 1j * tau * b**2 / den - mpmath.log(den) / 2
            out.append((a, b, c))
        return out


def ip_moments(packet: tuple, digits: int = IP_DIGITS) -> tuple:
    """Centroid and width (standard deviation of |psi|^2) of an
    interaction-picture packet, in mpmath."""
    a, b, _ = packet
    with mpmath.workdps(digits):
        return -b.real / (2 * a.real), mpmath.sqrt(-1 / (4 * a.real))


def ip_values(packet: tuple, offsets, digits: int = IP_DIGITS) -> list:
    """psi(q + u) = exp(a z^2 + b z + c) of an interaction-picture packet at
    z = q + u for each offset u from its centroid q, in mpmath."""
    a, b, c = packet
    with mpmath.workdps(digits):
        q = -b.real / (2 * a.real)
        return [mpmath.exp((a * z + b) * z + c) for z in (q + mpmath.mpf(u) for u in offsets)]


# ---------------------------------------------------------------------------
# Spin operators in the descending-m basis and the similarity-transform
# series of the BCH derivation (criterion 08), and the entropy of the
# position-side reduction (the quadrature cross-check of spin_rdm).

@dataclass(frozen=True)
class SpinMatrices:
    """Cartesian spin components sx, sy, sz (entries carry units of hbar)."""

    s: SpinQN
    hbar: float
    sx: np.ndarray
    sy: np.ndarray
    sz: np.ndarray


def build_spin_matrices(s: SpinQN, hbar: float = 1.0) -> SpinMatrices:
    """Standard ladder-operator construction in the descending-m basis."""
    m = s.m_values()
    # <m+1| S+ |m> = hbar sqrt(s(s+1) - m(m+1)) sits on the superdiagonal.
    upper = hbar * np.sqrt(s.s * (s.s + 1) - m[1:] * (m[1:] + 1))
    splus = np.diag(upper, k=1).astype(complex)
    sx = (splus + splus.conj().T) / 2
    sy = (splus - splus.conj().T) / 2j
    sz = np.diag(hbar * m).astype(complex)
    return SpinMatrices(s=s, hbar=hbar, sx=sx, sy=sy, sz=sz)


def commutator(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    A = np.asarray(A)
    B = np.asarray(B)
    if A.shape != B.shape or A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"need equal square matrices, got {A.shape} and {B.shape}")
    return A @ B - B @ A


def conjugate_series(A: np.ndarray, B: np.ndarray, x: complex, order: int) -> np.ndarray:
    """Truncated similarity-transform expansion of e^{xA} B e^{-xA}.

    Returns sum_{k=0..order} (x^k / k!) ad_A^k(B), where ad_A(B) = [A, B].
    Converges for any matrices; rapidly so when ||xA|| is small.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    term = np.asarray(B, dtype=complex)
    if A.shape != term.shape:
        raise ValueError(f"dimension mismatch: {A.shape} vs {term.shape}")
    total = term.copy()
    for k in range(1, order + 1):
        term = (x / k) * commutator(A, term)
        total += term
    return total


def spatial_reduction_entropy(st: HybridState, grid: Grid) -> float:
    """Entropy of the position-side reduction, via grid quadrature.

    The nonzero spectrum of sum_m |c_m psi_m><c_m psi_m| equals that of the
    d x d Gram matrix G_{ij} = conj(c_i) c_j <psi_i|psi_j>, so for a pure
    joint state this must agree with entanglement_entropy(spin_rdm(st)).
    """
    psi = st.coeffs[:, None] * sample(st.z[:, None], grid)
    return entanglement_entropy(SpinRDM(psi.conj() @ psi.T * grid.dz))
