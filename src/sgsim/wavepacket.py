"""Closed-form algebra of 1-D complex-Gaussian wavefunctions, stored centred.

A packet is Heller's thawed Gaussian by centroid q, mean wavenumber k
(momentum hbar k), complex variance s2 (Re s2 > 0) and phase,

    psi(z) = (Re s2 / (2 pi))^(1/4) s2^(-1/2) exp(-(z - q)^2 / (4 s2) + i k (z - q) + i phase),

the (q, p, Q, P) form of Lasser & Lubich (Acta Numerica 29, 2020) with Q
proportional to s2 and P fixed, since no operation here changes P.  The
amplitude follows from the width, so every packet has unit norm by
construction, and each operation of the factorized propagator is exact:
translating by d adds d to q; boosting by dk adds dk to k and dk q to the
phase; free flight for t adds hbar k t / M to q, i hbar t / (2M) to s2 and
hbar k^2 t / (2M) to the phase.  A beam far from the origin is only a
large q, so rounding does not grow with the drift.  A real Gaussian of
spread sigma has s2 = sigma^2; |psi|^2 has variance |s2|^2 / Re s2.

Every operation is elementwise, so a packet may hold broadcastable arrays,
one packet per element, as HybridState does.  QuadExpPacket, exp(a z^2 +
b z + c), is only the exponent view CentredPacket.quad gives, for checks
against that form, and norm and normalized act on it; the rest of sgsim
stores and takes centred packets alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import Grid

_TWO_PI = 2.0 * math.pi
# exp(-700) ~ 1e-304: an amplitude below it is taken as zero.
EXP_FLOOR = -700.0


def _check(packet, ok, need: str) -> None:
    """Raise unless every field of packet is finite and ok holds."""
    for name, v in vars(packet).items():
        if not np.isfinite(v).all():
            raise ValueError(f"{name} must be finite, got {v}")
    if not np.all(ok):
        raise ValueError(f"need {need} for normalizability, got {packet}")


@dataclass(frozen=True)
class QuadExpPacket:
    """psi(z) = exp(a z^2 + b z + c), normalizable iff Re(a) < 0; the fields
    are complex scalars or broadcastable arrays (a stack of packets)."""

    a: complex | np.ndarray
    b: complex | np.ndarray
    c: complex | np.ndarray

    def __post_init__(self) -> None:
        ok = self.a.real < 0  # one reduction below for the common, valid case
        if not (np.isfinite(self.a + self.b + self.c) & ok).all():
            _check(self, ok, "Re(a) < 0")


@dataclass(frozen=True)
class CentredPacket:
    """A unit-norm Gaussian by real centroid q, wavenumber k and phase, and
    complex variance s2 (Re s2 > 0); scalars or broadcastable arrays."""

    q: float | np.ndarray
    k: float | np.ndarray
    s2: complex | np.ndarray
    phase: float | np.ndarray

    def __post_init__(self) -> None:
        ok = self.s2.real > 0  # one reduction below for the common, valid case
        if not (np.isfinite(self.q + self.k + self.phase + self.s2) & ok).all():
            _check(self, ok, "Re(s2) > 0")

    def __getitem__(self, index) -> "CentredPacket":
        """The packets at `index` of this valid stack, not checked again."""
        q, k, s2, phase = self.q, self.k, self.s2, self.phase
        if not np.shape(q) == np.shape(k) == np.shape(s2) == np.shape(phase):
            q, k, s2, phase = np.broadcast_arrays(q, k, s2, phase)
        return _valid(q[index], k[index], s2[index], phase[index])

    @property
    def quad(self) -> QuadExpPacket:
        """The exponent view exp(a z^2 + b z + c); its c loses digits as q grows."""
        a = -0.25 / self.s2
        c = (a * self.q - 1j * self.k) * self.q + 1j * self.phase + log_amplitude(self.s2)
        return QuadExpPacket(a, -2.0 * a * self.q + 1j * self.k, c)


def _valid(q, k, s2, phase) -> CentredPacket:
    """A CentredPacket of fields that are valid by construction, unchecked."""
    packet = object.__new__(CentredPacket)
    vars(packet).update(q=q, k=k, s2=s2, phase=phase)
    return packet


def _index(p: CentredPacket, index) -> CentredPacket:
    """p[index] for a valid packet whose fields share one shape, as those of
    a HybridState do, so that no broadcast is needed."""
    return _valid(p.q[index], p.k[index], p.s2[index], p.phase[index])


class PacketMoments(NamedTuple):
    centroid: float
    variance: float
    mean_momentum: float


def log_amplitude(s2):
    """log of the unit-norm prefactor (Re s2 / (2 pi))^(1/4) s2^(-1/2)."""
    return 0.25 * np.log(s2.real / _TWO_PI) - 0.5 * np.log(s2)


def from_gaussian(sigma: float, z0: float = 0.0, k0: float = 0.0) -> CentredPacket:
    """Unit-norm Gaussian of spread sigma, centroid z0 and mean wavenumber k0:
    psi = (2 pi sigma^2)^(-1/4) exp(-(z-z0)^2/(4 sigma^2) + i k0 z)."""
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    return CentredPacket(z0, k0, complex(sigma * sigma), k0 * z0)


def translate(p: CentredPacket, delta: float) -> CentredPacket:
    """psi'(z) = psi(z - delta): the centroid moves, nothing else."""
    return CentredPacket(p.q + delta, p.k, p.s2, p.phase)


def boost(p: CentredPacket, dk: float) -> CentredPacket:
    """Multiply by exp(i dk z): mean momentum rises by hbar dk, |psi|^2 unchanged."""
    return CentredPacket(p.q, p.k + dk, p.s2, p.phase + dk * p.q)


def free_evolve(p: CentredPacket, t: float, mass: float, hbar: float = 1.0) -> CentredPacket:
    """Exact free propagation exp(-i p_z^2 t / (2 M hbar)): with tau =
    hbar t / (2M), q gains 2 tau k, s2 gains i tau and the phase tau k^2.
    Re s2 is unchanged, so the principal root s2^(-1/2) never crosses its
    branch cut and composition in t is seamless.
    """
    if mass <= 0:
        raise ValueError(f"mass must be positive, got {mass}")
    if not np.greater_equal(t, 0).all():
        raise ValueError("t must be >= 0")
    tau = hbar * t / (2.0 * mass)
    return CentredPacket(p.q + 2.0 * tau * p.k, p.k, p.s2 + 1j * tau,
                         p.phase + tau * p.k * p.k)


def norm(p: QuadExpPacket) -> float:
    """Closed-form L2 norm: with alpha = -2 Re(a),
    ||psi||^2 = sqrt(pi/alpha) exp(Re(b)^2/alpha + 2 Re(c))."""
    alpha = -2.0 * p.a.real
    return (math.pi / alpha) ** 0.25 * np.exp(p.b.real**2 / (2.0 * alpha) + p.c.real)


def normalized(p: QuadExpPacket) -> QuadExpPacket:
    """Rescale to unit norm (only Re(c) changes)."""
    return QuadExpPacket(p.a, p.b, p.c - np.log(norm(p)))


def moments(p: CentredPacket, hbar: float = 1.0) -> PacketMoments:
    """Centroid, position variance |s2|^2 / Re s2, and mean momentum hbar k."""
    return PacketMoments(centroid=p.q, variance=p.s2.real + p.s2.imag**2 / p.s2.real,
                         mean_momentum=hbar * p.k)


def overlap(p: CentredPacket, q: CentredPacket) -> complex:
    """<p|q> = integral of conj(psi_p) psi_q, taken about the midpoint of the
    centroids: with S = conj(s2_p) + s2_q (Re S > 0), d = q_q - q_p and
    dk = k_q - k_p it is sqrt(2 sqrt(Re s2_p Re s2_q) / S) times

        exp(-(d - 2i dk conj(s2_p)) (d + 2i dk s2_q) / (4 S)
            + i (phase_q - phase_p - (k_p + k_q) d / 2)).

    Entries whose exponent is below EXP_FLOOR are exactly 0: their exponent
    becomes -inf, and exp(-inf) is 0 whatever the phase (separated beams
    carry phases of 1e6 rad and more)."""
    sp, sq = np.conj(p.s2), q.s2
    inv = 1.0 / (sp + sq)
    d, dk2 = q.q - p.q, 2j * (q.k - p.k)
    expo = (d - dk2 * sp) * (d + dk2 * sq) * (-0.25 * inv)
    expo += 1j * (q.phase - p.phase - 0.5 * (p.k + q.k) * d)
    expo = np.where(expo.real >= EXP_FLOOR, expo, -np.inf)
    return np.sqrt(2.0 * np.sqrt(sp.real * sq.real) * inv) * np.exp(expo)


def sample(p: CentredPacket, grid: Grid | np.ndarray) -> np.ndarray:
    """Evaluate psi on grid nodes (accepts a Grid or a raw z array)."""
    u = (grid.z if isinstance(grid, Grid) else np.asarray(grid, dtype=float)) - p.q
    return np.exp((-0.25 / p.s2 * u + 1j * p.k) * u + 1j * p.phase + log_amplitude(p.s2))
