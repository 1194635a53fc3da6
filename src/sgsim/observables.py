"""Physical outputs: densities, beam separation, spin reduced density matrix and
entanglement entropy.  The semiclassical yardstick is in tests/helpers.py."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import Grid
from .oracle import check_boundary_leak
from .propagator import HybridState
from .wavepacket import EXP_FLOOR, _index, log_amplitude, moments, overlap

# Eigenvalues at or below this contribute 0 to -sum(lam ln lam).
ENTROPY_EIG_CLIP = 1e-14
# Hermiticity, unit trace and positivity of a spin reduced density matrix.
RDM_TOL = 1e-10
# Peaks below this fraction of the global maximum do not count as beams.
PEAK_FRACTION = 0.05
# (..., d) fields as (..., 1, d) and (..., d, 1): entry (m, n) pairs row m with column n
_COLUMNS, _ROWS = np.s_[..., None, :], np.s_[..., :, None]


@dataclass(frozen=True, eq=False)
class DensityProfile:
    """Probability density (1/length) sampled on a grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        values = self.values
        if values.shape != (self.grid.n,):
            raise ValueError(f"values must have shape {(self.grid.n,)}")
        total = float(np.sum(values) * self.grid.dz)
        # a finite total rules out a non-finite value, so two passes test both
        # conditions; the full test runs, for its message, only on a failure
        if not (math.isfinite(total) and values.min() >= 0):
            if not np.all(np.isfinite(values)) or np.any(values < 0):
                raise ValueError("density values must be finite and nonnegative")
        if not abs(total - 1.0) <= 1e-8:
            raise ValueError(f"density must integrate to 1, got {total}")


@dataclass(frozen=True, eq=False)
class SpinRDM:
    """Reduced spin state after tracing out position: one (d, d) matrix,
    or a (..., d, d) stack of them.  The eigenvalues of the positivity
    check are kept for the entropy.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        m = self.matrix
        if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
            raise ValueError(f"matrix must be square, got {m.shape}")
        herm = m.conj().swapaxes(-1, -2)
        # one pass for the common case, a finite and exactly Hermitian matrix
        # (spin_rdm builds one); the messages come from the separate tests
        if not (np.isfinite(m) & (m == herm)).all():
            if not np.isfinite(m).all():
                raise ValueError("matrix must be finite")
            if not np.abs(m - herm).max() <= RDM_TOL:
                raise ValueError("matrix must be Hermitian")
        trace = m.trace(axis1=-2, axis2=-1)
        if not (abs(trace.real - 1.0) <= RDM_TOL).all():
            raise ValueError(f"trace must be 1, got {trace}")
        lams = np.linalg.eigvalsh(m)
        if not lams.min() >= -RDM_TOL:
            raise ValueError("matrix must be positive semidefinite")
        object.__setattr__(self, "eigenvalues", lams)


def position_density_z(st: HybridState, grid: Grid) -> DensityProfile:
    """p(z) = sum_m |c_m|^2 |psi_m(z)|^2: components of different m, attached
    to orthogonal spin states, never interfere.  A weighted component wholly
    outside the window is an error naming its closed-form centroid and width."""
    z, weights = st.z, np.abs(st.coeffs) ** 2
    var = moments(z).variance
    # a beam this far off the nodes has no sample above exp(EXP_FLOOR)
    gap = np.maximum(grid.z_min - z.q, z.q - (grid.z_max - grid.dz))
    outside = (gap > 0) & (gap * gap > -4.0 * EXP_FLOOR * var)
    lost = outside & (weights > 0)
    if lost.any():
        i = np.flatnonzero(lost)[0]
        raise ValueError(f"component m={st.s.label(st.s.m_values()[i])} lies outside the "
                         f"density window [{grid.z_min:g}, {grid.z_max:g}] m: its closed-form "
                         f"centroid is {z.q[i]:.6g} m and its width {np.sqrt(var[i]):.3g} m")
    # |psi_m| is exp(-(z - q)^2 / (4 var)) times a constant that the weights
    # take, in one (d, n) buffer filled in place; exponents are floored at
    # EXP_FLOOR, since exp is slow where its result underflows
    amps = np.subtract(grid.z, z.q[:, None])
    np.square(amps, out=amps)
    amps *= (-0.25 / var)[:, None]
    np.exp(np.maximum(amps, EXP_FLOOR, out=amps), out=amps)
    amps[weights == 0] = 0.0  # weightless components cannot leak
    check_boundary_leak(amps, st.s, "in the density window")
    weights *= np.exp(2.0 * log_amplitude(z.s2).real)
    return DensityProfile(grid, weights @ np.square(amps, out=amps))


def spin_rdm(st: HybridState) -> SpinRDM:
    """Trace out position: rho_{mn} = c_m conj(c_n) <psi_n|psi_m>.

    Coinciding packets give the pure state c c^dagger; far-separated
    packets kill the off-diagonal terms.  A state with a time axis gives a
    stack of matrices.
    """
    c = st.coeffs
    ov = overlap(_index(st.z, _COLUMNS), _index(st.z, _ROWS))
    rho = c[..., :, None] * c[..., None, :].conj() * ov
    return SpinRDM((rho + rho.conj().swapaxes(-1, -2)) / 2.0)


def entanglement_entropy(rho: SpinRDM) -> float | np.ndarray:
    """Von Neumann entropy -sum lam ln lam in nats; one value per matrix
    of a stack.  rho must be a SpinRDM, which has passed its checks.
    """
    if not isinstance(rho, SpinRDM):
        raise TypeError(f"rho must be a SpinRDM, got {type(rho).__name__}")
    lams = rho.eigenvalues
    kept = np.where(lams > ENTROPY_EIG_CLIP, lams, 1.0)  # 1 ln 1 = 0
    entropy = -(kept * np.log(kept)).sum(-1)
    entropy = np.where(entropy > 0.0, entropy, 0.0)  # +0.0, never -0.0
    return float(entropy) if entropy.ndim == 0 else entropy


def _above_neighbours(x: np.ndarray) -> np.ndarray:
    """Indices of the samples above both neighbours."""
    return np.flatnonzero((x[1:-1] > x[:-2]) & (x[1:-1] > x[2:])) + 1


def _interior_maxima(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions (in grid steps) and heights of the interior local maxima.

    Runs of equal samples are collapsed first, so a flat top counts once, at
    its centre.  A one-sample maximum is refined to the vertex of the
    parabola through it and its two neighbours.  Maxima at either end of the
    array never count.
    """
    flat = values[1:] == values[:-1]
    if flat.any():
        starts = np.flatnonzero(np.concatenate(([True], ~flat)))
        ends = np.append(starts[1:], values.size) - 1
        top = _above_neighbours(values[starts])
        first, last = starts[top], ends[top]
    else:  # no two neighbours equal, the common case: every sample is a run
        first = last = _above_neighbours(values)
    left, mid, right = values[first - 1], values[first], values[last + 1]
    # mid exceeds both neighbours, so the curvature is strictly negative
    offset = np.where(first == last, 0.5 * (left - right) / (left - 2.0 * mid + right), 0.0)
    return (first + last) / 2.0 + offset, mid


def peak_separation(profile: DensityProfile) -> float | None:
    """Distance between the outermost local maxima above 5% of the global
    peak; None when fewer than two such maxima exist (beams unresolved).
    """
    values = profile.values
    pos, height = _interior_maxima(values)
    pos = pos[height >= PEAK_FRACTION * values.max()]
    if len(pos) < 2:
        return None
    return float((pos[-1] - pos[0]) * profile.grid.dz)
