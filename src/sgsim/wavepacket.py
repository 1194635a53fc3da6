"""Closed-form algebra of 1-D complex-Gaussian wavefunctions.

The family psi(z) = exp(a z^2 + b z + c) with Re(a) < 0 is closed under
every operation the factorized propagator performs: spatial translation,
momentum boost, global phase, and free kinetic evolution.  All norms,
moments, and pair overlaps are elementary Gaussian integrals, so states
evolve with no grid and no time stepping.

Every operation is elementwise, so a packet may also hold numpy arrays
a, b, c of broadcastable shapes: one packet per element.  HybridState
keeps its spin components (and an optional leading time axis) this way,
and each propagator factor is then one array expression.

Conventions: z in length units, a in 1/length^2, b in 1/length, c
dimensionless.  hbar enters only free_evolve and the momentum moment and
is passed explicitly so scaled-unit (hbar = 1) tests read naturally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import Grid

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class QuadExpPacket:
    """psi(z) = exp(a z^2 + b z + c), normalizable iff Re(a) < 0.  The
    fields are complex scalars, or complex arrays that broadcast together
    (a stack of packets).
    """

    a: complex | np.ndarray
    b: complex | np.ndarray
    c: complex | np.ndarray

    def __post_init__(self) -> None:
        a, b, c = self.a, self.b, self.c
        if (np.isfinite(a) & np.isfinite(b) & np.isfinite(c) & (a.real < 0)).all():
            return  # one reduction for the common, valid case
        for name in ("a", "b", "c"):
            v = getattr(self, name)
            if not np.isfinite(v).all():
                raise ValueError(f"{name} must be finite, got {v}")
        raise ValueError(f"need Re(a) < 0 for normalizability, got a = {a}")

    def __getitem__(self, index) -> "QuadExpPacket":
        """The packets at `index` of the broadcast stack.  Entries of a
        valid stack are valid, so the result skips the checks."""
        a, b, c = self.a, self.b, self.c
        if not np.shape(a) == np.shape(b) == np.shape(c):
            a, b, c = np.broadcast_arrays(a, b, c)
        view = object.__new__(QuadExpPacket)
        for name, v in (("a", a[index]), ("b", b[index]), ("c", c[index])):
            object.__setattr__(view, name, v)
        return view


class PacketMoments(NamedTuple):
    norm: float
    centroid: float
    variance: float
    mean_momentum: float


def from_gaussian(sigma: float, z0: float = 0.0, k0: float = 0.0) -> QuadExpPacket:
    """Unit-norm Gaussian with position spread sigma, centroid z0, mean
    wavenumber k0:  psi = (2 pi sigma^2)^(-1/4) exp(-(z-z0)^2/(4 sigma^2) + i k0 z).
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    a = -1.0 / (4.0 * sigma * sigma)
    b = z0 / (2.0 * sigma * sigma) + 1j * k0
    c = -z0 * z0 / (4.0 * sigma * sigma) - 0.25 * math.log(_TWO_PI * sigma * sigma)
    return QuadExpPacket(a, complex(b), complex(c))


def translate(p: QuadExpPacket, delta: float) -> QuadExpPacket:
    """psi'(z) = psi(z - delta); exponent recentered exactly."""
    return QuadExpPacket(p.a, p.b - 2.0 * p.a * delta, p.c + p.a * delta * delta - p.b * delta)


def boost(p: QuadExpPacket, dk: float) -> QuadExpPacket:
    """Multiply by exp(i dk z): mean momentum rises by hbar dk, |psi|^2 unchanged."""
    return QuadExpPacket(p.a, p.b + 1j * dk, p.c)


def global_phase(p: QuadExpPacket, phi: float) -> QuadExpPacket:
    """Multiply by exp(i phi)."""
    return QuadExpPacket(p.a, p.b, p.c + 1j * phi)


def free_evolve(p: QuadExpPacket, t: float, mass: float, hbar: float = 1.0) -> QuadExpPacket:
    """Exact free propagation exp(-i p_z^2 t / (2 M hbar)).

    In Fourier space each mode gains exp(-i hbar k^2 t / (2M)); carrying the
    Gaussian integral back gives, with tau = hbar t / (2M) and
    den = 1 - 4i tau a:

        a' = a / den,   b' = b / den,   c' = c + i tau b^2 / den - log(den)/2.

    Re(den) = 1 + 4 tau Im(a) >= 1 whenever t >= 0 and Im(a) >= 0 (true for
    any forward-evolved real Gaussian), so the principal log never crosses
    its branch cut and composition in t is seamless.
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


def norm(p: QuadExpPacket) -> float:
    """Closed-form L2 norm: with alpha = -2 Re(a),
    ||psi||^2 = sqrt(pi/alpha) exp(Re(b)^2/alpha + 2 Re(c)).
    """
    alpha = -2.0 * p.a.real
    return (math.pi / alpha) ** 0.25 * np.exp(p.b.real**2 / (2.0 * alpha) + p.c.real)


def normalized(p: QuadExpPacket) -> QuadExpPacket:
    """Rescale to unit norm (only Re(c) changes)."""
    return QuadExpPacket(p.a, p.b, p.c - np.log(norm(p)))


def canonical(p: QuadExpPacket) -> QuadExpPacket:
    """Wrap Im(c) into (-pi, pi] so equal packets compare equal."""
    im = math.remainder(p.c.imag, _TWO_PI)
    return QuadExpPacket(p.a, p.b, complex(p.c.real, im))


def moments(p: QuadExpPacket, hbar: float = 1.0) -> PacketMoments:
    """Norm, centroid, position variance, and mean momentum, all closed form.

    |psi|^2 is the Gaussian exp(2 Re(a) z^2 + 2 Re(b) z + 2 Re(c)), so
    centroid = -Re(b)/(2 Re(a)) and variance = -1/(4 Re(a)).  The momentum
    moment <p> = -i hbar <psi| d/dz |psi> / <psi|psi> reduces to
    hbar (Im(b) - Im(a) Re(b)/Re(a)).
    """
    ar, br = p.a.real, p.b.real
    return PacketMoments(
        norm=norm(p),
        centroid=-br / (2.0 * ar),
        variance=-1.0 / (4.0 * ar),
        mean_momentum=hbar * (p.b.imag - p.a.imag * br / ar),
    )


def overlap(p: QuadExpPacket, q: QuadExpPacket) -> complex:
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


def stack_packets(packets) -> QuadExpPacket:
    """One packet of (k,) arrays from an iterable of k scalar packets."""
    packets = list(packets)
    return QuadExpPacket(*(np.array([getattr(p, f) for p in packets], dtype=complex)
                           for f in "abc"))


def sample(p: QuadExpPacket, grid: Grid | np.ndarray) -> np.ndarray:
    """Evaluate psi on grid nodes (accepts a Grid or a raw z array)."""
    z = grid.z if isinstance(grid, Grid) else np.asarray(grid, dtype=float)
    return np.exp((p.a * z + p.b) * z + p.c)
