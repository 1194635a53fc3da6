"""Physical outputs: densities, beam separation, spin reduced density
matrix, entanglement entropy, and the semiclassical yardstick.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import ExperimentConfig, Grid
from .oracle import check_boundary_leak, quadrature_overlap
from .propagator import HybridState
from .wavepacket import overlap, sample

# Eigenvalues at or below this contribute 0 to -sum(lam ln lam).
ENTROPY_EIG_CLIP = 1e-14
# Peaks below this fraction of the global maximum do not count as beams.
PEAK_FRACTION = 0.05


@dataclass(frozen=True, eq=False)
class DensityProfile:
    """Probability density (1/length) sampled on a grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.values.shape != (self.grid.n,):
            raise ValueError(f"values must have shape {(self.grid.n,)}")
        if not np.all(np.isfinite(self.values)) or np.any(self.values < 0):
            raise ValueError("density values must be finite and nonnegative")
        total = float(np.sum(self.values) * self.grid.dz)
        if abs(total - 1.0) > 1e-8:
            raise ValueError(f"density must integrate to 1, got {total}")


@dataclass(frozen=True, eq=False)
class SpinRDM:
    """Reduced spin state after tracing out position."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = self.matrix
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"matrix must be square, got {m.shape}")
        if np.abs(m - m.conj().T).max() > 1e-10:
            raise ValueError("matrix must be Hermitian")
        if abs(np.trace(m).real - 1.0) > 1e-10:
            raise ValueError(f"trace must be 1, got {np.trace(m)}")
        if np.linalg.eigvalsh(m).min() < -1e-10:
            raise ValueError("matrix must be positive semidefinite")


def position_density_z(st: HybridState, grid: Grid) -> DensityProfile:
    """p(z) = sum_m |c_m|^2 |psi_m(z)|^2.  Components belonging to different
    m never interfere: they are attached to orthogonal spin states.
    """
    z = grid.z
    # |psi_m(z)| = exp(Re(a) z^2 + Re(b) z + Re(c)): the phases drop out.
    # Filling one real array in place keeps the temporaries small, so a
    # small process heap is not returned to the OS and refaulted per call.
    amps = np.empty((st.s.dim, grid.n))
    for row, p in zip(amps, st.z_packets):
        np.exp((p.a.real * z + p.b.real) * z + p.c.real, out=row)
    check_boundary_leak(amps, st.s, "in the density window")
    weights = np.abs(st.coeffs) ** 2
    return DensityProfile(grid, weights @ np.square(amps, out=amps))


def spin_rdm(st: HybridState) -> SpinRDM:
    """Trace out position: rho_{mn} = c_m conj(c_n) <psi_n|psi_m>.

    The shared x and y packets contribute unit factors, so only z-packet
    overlaps enter.  Coinciding packets give the pure state c c^dagger;
    far-separated packets kill the off-diagonal terms.
    """
    d = st.s.dim
    rho = np.empty((d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            rho[i, j] = st.coeffs[i] * st.coeffs[j].conjugate() * overlap(
                st.z_packets[j], st.z_packets[i])
    rho = (rho + rho.conj().T) / 2.0
    return SpinRDM(rho)


def entanglement_entropy(rho: SpinRDM | np.ndarray) -> float:
    """Von Neumann entropy -sum lam ln lam in nats."""
    m = rho.matrix if isinstance(rho, SpinRDM) else np.asarray(rho)
    trace = complex(np.trace(m))
    if abs(trace - 1.0) > 1e-8:
        raise ValueError(f"trace must be 1 within 1e-8, got {trace}")
    lams = np.linalg.eigvalsh(m)
    lams = lams[lams > ENTROPY_EIG_CLIP]
    return max(0.0, float(-np.sum(lams * np.log(lams))))


def spatial_reduction_entropy(st: HybridState, grid: Grid) -> float:
    """Entropy of the position-side reduction, via grid quadrature.

    The nonzero spectrum of sum_m |c_m psi_m><c_m psi_m| equals that of the
    d x d Gram matrix G_{ij} = conj(c_i) c_j <psi_i|psi_j>, so for a pure
    joint state this must agree with entanglement_entropy(spin_rdm(st)).
    """
    fields = [c * sample(p, grid) for c, p in zip(st.coeffs, st.z_packets)]
    d = st.s.dim
    gram = np.empty((d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            gram[i, j] = quadrature_overlap(fields[i], fields[j], grid)
    return entanglement_entropy(gram)


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


def _interior_maxima(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions (in grid steps) and heights of the interior local maxima.

    Runs of equal samples are collapsed first, so a flat top counts once, at
    its centre.  A one-sample maximum is refined to the vertex of the
    parabola through it and its two neighbours.  Maxima at either end of the
    array never count.
    """
    starts = np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))
    ends = np.append(starts[1:], values.size) - 1
    runs = values[starts]
    top = np.flatnonzero((runs[1:-1] > runs[:-2]) & (runs[1:-1] > runs[2:])) + 1
    first, last = starts[top], ends[top]
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
