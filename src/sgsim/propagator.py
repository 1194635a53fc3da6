"""Factorized closed-form propagator for the spin-z beam splitter.

H = p^2/(2M) - gamma (B0 + beta z) S_z has a kinetic and a spin-field
part whose double commutators are scalars, so its evolution operator
factors exactly into four pieces, rightmost first: the quadratic spin
phase -hbar gamma^2 beta^2 m^2 t^3/(6M) of the z packet of m; the shift
of that packet by gamma beta hbar m t^2/(2M); free flight; and the field
kick, a boost by kick = gamma beta m t with the Larmor phase gamma m t B0.
The three middle pieces commute.  No piece acts on the spin coefficients:
as in the interaction picture, component m is c_m(0) times a packet whose
phase holds every phase, so c_m keeps the value gaussian_hybrid gave it.
The pieces one at a time, the specification evolve is checked against,
are in tests/helpers.py; evolve is the only propagator here.

HybridState holds its z packets centred (see wavepacket), as one
CentredPacket of (..., d) arrays, one column per m, and takes no other form
of packet.  Each piece moves only a centroid, a wavenumber, a width or a
phase, so evolve applies all four as one exact array update, with no
discretization anywhere:

    q += (k + kick / 2) hbar t / M,   k += kick,   s2 += i hbar t / (2M),
    phase += hbar k^2 t / (2M) + kick q + gamma m t B0 + u2c_phase
             (k before, q after the update),

and the phase is then reduced mod 2 pi, into (-2 pi, 2 pi) by fmod, which
is exact (np.remainder rounds where it adds 2 pi to a negative phase): the
Larmor phase alone reaches 1e6 rad over a silver transit, and spin_rdm's
overlaps take differences of phases.  A (s, 1) array of times gives a
state with a leading time axis: the closed form holds at any t, so
evolve_segments takes a timeline's samples through a schedule with one
call per segment, for all of them at once.

Validation: a state built at an entry point (HybridState(...) by a
caller, gaussian_hybrid) gets every check.  A state that evolve derives
from a valid state gets only the one that an exact update can break:
finiteness of its packet fields.  Its shapes follow from broadcasting
valid fields, its coefficients are the valid state's, passed through
unchanged, and s2 + i hbar t / (2M) leaves Re s2 bit-unchanged, so
Re s2 > 0 still holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig, GradientSegment, Grid, SpinQN
from .oracle import SampledSpinor, dft_matrix
from .wavepacket import _TWO_PI, CentredPacket, _valid, boost, sample

COEFF_NORM_TOL = 1e-12

Times = float | np.ndarray  # a time, or a (s, 1) column of times


@dataclass(frozen=True, eq=False)
class HybridState:
    """The z spinor: a (d,) vector of coefficients c_m against a per-m z packet
    of (..., d) fields of one shape, column i for m = s.m_values()[i], leading
    axes times (x and y never couple to the spin).  The packet phase holds
    every phase of the evolution, so c_m is the same at every time.  z must be
    a CentredPacket: a packet of any other type is a TypeError, and coeffs of
    another shape or fields of different shapes are a ValueError.

    Built here, a state gets every check.  evolve builds its states through
    _derived, which tests only finiteness (see the module docstring) and
    falls back to this constructor on a failure."""

    s: SpinQN
    coeffs: np.ndarray  # (d,) complex
    z: CentredPacket  # fields (..., d)

    def __post_init__(self) -> None:
        if not isinstance(self.z, CentredPacket):
            raise TypeError(f"z must be a CentredPacket, got {type(self.z).__name__}")
        d, fields = self.s.dim, vars(self.z)
        shapes = [getattr(v, "shape", ()) for v in fields.values()]
        if (getattr(self.coeffs, "shape", ()) != (d,) or shapes.count(shapes[0]) < len(shapes)
                or shapes[0][-1:] != (d,)):
            got = ", ".join(f"{name} {np.shape(v)}"
                            for name, v in {"coeffs": self.coeffs, **fields}.items())
            raise ValueError(f"need coeffs of shape ({d},) and z fields of one shape "
                             f"(..., {d}), got {got}")
        total = (np.abs(self.coeffs) ** 2).sum()
        if not abs(total - 1.0) <= COEFF_NORM_TOL:
            raise ValueError(f"coefficients must be normalized, sum |c|^2 = {total}")

    @property
    def z_packets(self) -> tuple[CentredPacket, ...]:
        """Scalar view of the z packet of each m (unbatched states only)."""
        if np.ndim(self.z.q) != 1:
            raise ValueError("z_packets needs a state without a time axis")
        return tuple(self.z[i] for i in range(self.s.dim))


def _derived(s: SpinQN, coeffs: np.ndarray, q, k, s2, phase) -> HybridState:
    """The state an exact update of a valid state computed, with its
    coefficients, checked for what the update can break: finiteness, in one
    reduction (a sum of the four packet fields is finite only if each is).  On
    a failure the full constructor raises its message."""
    if not np.isfinite(q + k + phase + s2).all():
        return HybridState(s, coeffs, CentredPacket(q, k, s2, phase))
    st = object.__new__(HybridState)
    vars(st).update(s=s, coeffs=coeffs, z=_valid(q, k, s2, phase))
    return st


def unit_coeffs(coeffs) -> np.ndarray:
    """coeffs / sqrt(sum |c|^2) as a complex array, at any finite scale.  The
    power of two of the largest real or imaginary part is divided out first;
    that is exact in binary floating point, and it keeps |c|^2 from
    overflowing or underflowing."""
    coeffs = np.array(coeffs, dtype=complex, ndmin=1)
    parts = coeffs.view(float)  # re, im, re, im, ...
    big = float(np.abs(parts).max(initial=0.0))
    if not 0.0 < big < math.inf:
        raise ValueError(f"coefficients must be finite and not all zero, got {coeffs}")
    coeffs = np.ldexp(parts, -math.frexp(big)[1]).view(complex)
    return coeffs / math.sqrt((np.abs(coeffs) ** 2).sum())


def gaussian_hybrid(s: SpinQN, coeffs: np.ndarray, cfg: ExperimentConfig) -> HybridState:
    """Initial beam state: a Gaussian at rest at z = 0 in every spin
    component, with the given spin coefficients, normalized by unit_coeffs."""
    d = s.dim
    return HybridState(s, unit_coeffs(coeffs), CentredPacket(
        np.zeros(d), np.zeros(d), np.full(d, complex(cfg.sigma_z**2)), np.zeros(d)))


def _check_times(t: Times) -> None:
    if not (t >= 0 if isinstance(t, float) else np.greater_equal(t, 0).all()):
        raise ValueError("t must be >= 0")


def u2c_phase(m: float, t: Times, cfg: ExperimentConfig) -> float:
    """Phase picked up by component m from the gradient-squared spin
    term: -hbar gamma^2 beta^2 m^2 t^3 / (6 M).

    Even in m, cubic in time; a global (physically empty) phase for
    spin 1/2 since m^2 is then constant.  Elementwise in m and t.
    """
    _check_times(t)
    g = cfg.gamma
    return -cfg.hbar * g * g * cfg.beta * cfg.beta * m * m * t**3 / (6.0 * cfg.mass)


def evolve(st: HybridState, t: Times, cfg: ExperimentConfig) -> HybridState:
    """Full evolution for time t under constant B0 and beta, the four
    factors as one update of the centred arrays; a (s, 1) array of times
    gives a state with a leading time axis of length s."""
    _check_times(t)
    z, gmt = st.z, cfg.gamma * t * st.s.m_values()
    kick, flight = cfg.beta * gmt, cfg.hbar * t / cfg.mass
    q = z.q + (z.k + 0.5 * kick) * flight
    # Larmor phase gamma m t B0, and u2c_phase(m, t, cfg) = -kick^2 flight / 6
    phase = (z.phase + 0.5 * flight * z.k * z.k + kick * q
             + gmt * (cfg.b0 - kick * (cfg.beta / 6.0 * flight)))
    return _derived(st.s, st.coeffs, q, z.k + kick, z.s2 + 0.5j * flight,
                    np.fmod(phase, _TWO_PI))


def evolve_segments(st: HybridState, segments: list[GradientSegment],
                    cfg: ExperimentConfig, t: Times | None = None) -> HybridState:
    """Piecewise-constant gradient schedule; exact because each segment is
    a constant-Hamiltonian propagation (B0 held fixed throughout).  t, as in
    evolve but counted from the schedule's start, defaults to its end: a
    time before a segment evolves by 0 in it, bit-identically, and one at
    or past the segment's end by its whole duration.

    This walk is the closed form's overflow guard: an update that leaves
    the floats fails evolve's finiteness check, and is raised naming the
    segment and its duration, with no numpy warning before it."""
    if t is not None:
        _check_times(t)
    start = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for i, seg in enumerate(segments):
            dt = seg.duration
            if t is not None:
                end = start + dt
                dt = np.where(t < end, np.maximum(t - start, 0.0), dt)
                start = end
            try:
                st = evolve(st, dt, cfg.with_beta(seg.beta))
            except ValueError as exc:
                raise ValueError(f"segments[{i}]: duration_s {seg.duration!r} overflows the "
                                 f"closed form: {exc}") from None
    return st


def sample_state(st: HybridState, grid: Grid,
                 frame_k: np.ndarray | None = None) -> SampledSpinor:
    """Sample the z-axis spinor field (coefficients folded in) on a grid.
    frame_k chooses the stored gauge: component i is sampled as
    exp(-i frame_k[i] z) times the lab field, matching what the split
    stepper carries.  Default is the lab frame."""
    frame_k = np.zeros(st.s.dim) if frame_k is None else np.asarray(frame_k, dtype=float)
    comps = st.coeffs[:, None] * sample(boost(st.z, -frame_k)[:, None], grid)
    return SampledSpinor(grid, st.s, comps, frame_k)


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
    F = dft_matrix(grid.n)
    _check_times(t)
    z, k = grid.z, grid.k
    m = s.m_values()[:, None]
    shift = cfg.gamma * cfg.beta * cfg.hbar * m * t * t / (2.0 * cfg.mass)
    spectral = np.exp(-1j * cfg.hbar * k * k * t / (2.0 * cfg.mass)) * np.exp(-1j * k * shift)
    kick = np.exp(1j * cfg.gamma * t * (cfg.b0 + cfg.beta * z) * m)
    blocks = (kick[:, :, None] * F.conj().T) @ (spectral[:, :, None] * F)
    return np.exp(1j * u2c_phase(m, t, cfg))[:, :, None] * blocks
