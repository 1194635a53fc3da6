"""Brute-force references the closed-form propagator is checked against.

Two independent discretizations of the same Hamiltonian
H = p_z^2/(2M) - gamma (B0 + beta z) S_z on a periodic z grid:

* split_step_evolve: Strang-split Fourier time stepping of the non-zero
  spin components (H is diagonal in m, so components never mix), with one
  batched FFT each way per step; a force-free component takes one step,
  and past one step a component is stepped on the coarsest sub-grid over
  the same window that holds its momentum spectrum;
* dense_hamiltonian + matrix_exponential: the matrix propagator for
  desk-size grids, by exact eigendecomposition.  H commutes with S_z, so
  it is kept as the (d, n, n) stack of its blocks, one per m, and all d
  blocks are exponentiated in one stacked call.

The gradient feeds momentum into each component at rate gamma beta m.  At
silver-atom scale the accumulated kick (~5e9 per meter) dwarfs any
affordable grid's Nyquist band, so SampledSpinor carries a per-component
reference wavenumber frame_k: the physical field is
exp(i frame_k[i] z) * components[i].  The split stepper re-gauges around
every kinetic step, into the frame of the kick delivered by the middle of
that step in whole grid wavenumbers 2 pi / L, so the stored array is
centred in the momentum band whenever it is Fourier transformed, and a
kinetic factor takes no exp per point and step.  Re-gauging is exact (a
pointwise phase); with frame_k = 0 and no field the scheme reduces to the
textbook lab-frame method.

For a potential linear in z, every Strang step is exact up to a global
phase per component (see split_step_evolve), so a segment needs one step.
The phase, strang_phase, is known in closed form; removing it leaves a
field that can be compared with the closed form phases included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig, Grid, SpinQN

# Boundary samples must stay below this fraction of the peak for a
# periodic-grid run to be trusted.
LEAK_TOL = 1e-8

# A split-step row's band ends at the last wavenumber whose spectrum exceeds
# this fraction of the row's peak; a sampled Gaussian's floor is ~1e-15.
BAND_TOL = 1e-13
# Content a row stepped on a sub-grid may reach in the upper half of that
# grid's band, as a fraction of its peak, before it is stepped again on the
# full grid: the spectral twin of LEAK_TOL.
SPECTRAL_LEAK_TOL = LEAK_TOL

# Steps between exact recomputations of a split-step drift table.
DRIFT_ANCHOR_STEPS = 64

DENSE_N_LIMIT = 256
EXPM_SIZE_LIMIT = 512


@dataclass(frozen=True, eq=False)
class SampledSpinor:
    """Grid-sampled spinor field: components[i] holds coefficient times
    wavefunction for m = m_values()[i]; lab field is exp(i frame_k[i] z)
    times the stored array.
    """

    grid: Grid
    s: SpinQN
    components: np.ndarray  # (d, n) complex
    frame_k: np.ndarray  # (d,) float

    def __post_init__(self) -> None:
        d, n = self.s.dim, self.grid.n
        if self.components.shape != (d, n):
            raise ValueError(f"components must be shape {(d, n)}, got {self.components.shape}")
        if self.frame_k.shape != (d,):
            raise ValueError(f"frame_k must be shape {(d,)}, got {self.frame_k.shape}")

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.components) ** 2) * self.grid.dz))

    def density(self) -> np.ndarray:
        """Position probability density (1/length); frame phases drop out."""
        return np.sum(np.abs(self.components) ** 2, axis=0)

    def to_lab(self) -> "SampledSpinor":
        """Fold the frame phases into the arrays (frame_k becomes 0)."""
        z = self.grid.z
        comps = self.components * np.exp(1j * self.frame_k[:, None] * z[None, :])
        return SampledSpinor(self.grid, self.s, comps, np.zeros(self.s.dim))


def spinor_l2_distance(a: SampledSpinor, b: SampledSpinor) -> float:
    """Relative L2 distance ||a - b|| / ||b||, comparing lab-frame fields."""
    if a.grid != b.grid or a.s != b.s:
        raise ValueError("spinors live on different grids or spin spaces")
    if not np.array_equal(a.frame_k, b.frame_k):
        a, b = a.to_lab(), b.to_lab()
    diff = np.sqrt(np.sum(np.abs(a.components - b.components) ** 2) * a.grid.dz)
    return float(diff / b.norm())


def check_boundary_leak(components: np.ndarray, s: SpinQN, when: str) -> None:
    """Raise if a component has noticeable weight at the periodic seam (all-zero ones pass)."""
    comps = np.abs(components) if np.iscomplexobj(components) else components
    peak = comps.max(axis=1)
    edge = np.maximum(comps[:, 0], comps[:, -1])
    bad = np.flatnonzero(edge > LEAK_TOL * peak)
    if bad.size:
        i = bad[0]
        raise ValueError(
            f"component m={s.label(s.m_values()[i])} touches the grid boundary {when} "
            f"(edge/peak = {edge[i] / peak[i]:.2e}); enlarge the window")


def strang_phase(m: float, t: float, steps: int, cfg: ExperimentConfig) -> float:
    """Global phase by which `steps` Strang steps over time t lead the exact
    evolution of component m: F_m^2 t^3 / (24 M hbar steps^2), with
    F_m = hbar gamma beta m the force on it.  Each step contributes
    F_m^2 tau^3 / (24 M hbar), the c-number [V, [V, T]] term of its
    splitting error.  Elementwise in m; equal to -u2c_phase / (4 steps^2).
    """
    force = cfg.hbar * cfg.gamma * cfg.beta * m
    return force * force * t**3 / (24.0 * cfg.mass * cfg.hbar * steps * steps)


def split_step_evolve(psi: SampledSpinor, t: float, steps: int,
                      cfg: ExperimentConfig) -> SampledSpinor:
    """Strang splitting exp(-iV tau/2) exp(-iT tau) exp(-iV tau/2) per step.

    The linear potential is exponentiated exactly and norms are conserved
    to rounding.  `steps` counts the steps of each component that feels a
    force (gamma beta m != 0); those are stepped together as one array.  A
    force-free component (m = 0, or any m while beta = 0) sees a constant
    potential that commutes with the kinetic term, so it takes one exact
    step of length t.  All-zero components are skipped and keep their frame.

    Per component H = p^2/2M - F_m z plus a constant, F_m = hbar gamma beta m.
    Of the tau^3 terms of a Strang step, [T, [T, V]] ~ [p^2, p] is 0 and
    [V, [V, T]] is a c-number, and every higher nested commutator vanishes
    (the structure behind the exact factorization in sgsim.propagator).  So
    each step is exact up to a global phase per component, and `steps`
    steps over t carry the extra phase strang_phase(m, t, steps, cfg); one
    step is as good as many, as long as the grid resolves the state.  The
    phase is 0 for a force-free component at any step count.

    Mid-step frame: kinetic step j runs in the frame K_j = frame_k + dk p_j,
    with dk = 2 pi / L the grid wavenumber spacing and p_j = round((j + 1/2)
    kick / dk) the kick gamma beta m tau delivered by the middle of step j,
    in whole grid wavenumbers.  The kick left in the stored array at each
    FFT is then at most dk / 2, however large a step's kick; the first
    half-kick is regauged by p_0 and the last by round(steps kick / dk) -
    p_{steps-1}, each an exact pointwise phase.  With a = hbar tau / 2M the
    kinetic factor of FFT index q is exactly exp(-i a K_j^2) exp(-2i a K_j
    dk q) exp(-i a dk^2 q^2): the last is one table per call, the middle a
    per-row drift table that moves with p_j by exact ratio tables and is
    recomputed every DRIFT_ANCHOR_STEPS steps, and the first a phase per
    row, reduced mod 2 pi each step and applied once at the end.  Between
    two kinetic factors, half-kick, regauge and half-kick merge into one
    multiplier per value of p_{j+1} - p_j (two; three where (j + 1/2) kick /
    dk lands on ties).  The returned frame is within dk / 2 of frame_k +
    steps * kick.

    Sub-grid: kicks and free flight shift and phase a component's spectrum
    but never widen it, and in the mid-step frame the shift stays under
    dk / 2.  So past one step, each force-carrying component runs on n_r
    points over the same window (same dk, seam and frames), n_r the
    smallest power of two >= 4 (B + 1) for B its last wavenumber index
    (in the stored frame) above BAND_TOL of its peak, capped at n.  It goes
    in by truncating its spectrum and out by zero-padding it, both exact
    for a band-limited component; the boundary-leak checks see the full
    grid.  Components with equal n_r step together.  End guard: a
    component whose spectrum reaches SPECTRAL_LEAK_TOL of its peak at
    |q| >= n_r / 4 is stepped again on the full grid.  One step, and a
    component whose spectrum fills the band, run on the full grid.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if t < 0:
        raise ValueError("t must be >= 0")
    if t == 0:
        return SampledSpinor(psi.grid, psi.s, psi.components.copy(), psi.frame_k.copy())
    check_boundary_leak(psi.components, psi.s, "at the start")

    out = psi.components.copy()
    frame = psi.frame_k.copy()
    m = psi.s.m_values()
    live = psi.components.any(axis=1)
    forced = cfg.gamma * cfg.beta * m != 0
    for group, group_steps in ((live & forced, steps), (live & ~forced, 1)):
        if group.any():
            out[group], frame[group] = _sub_grid_steps(
                out[group], frame[group], m[group], psi.grid, t, group_steps, cfg)
    check_boundary_leak(out, psi.s, "at the end")
    return SampledSpinor(psi.grid, psi.s, out, frame)


def _sub_grid_steps(phi: np.ndarray, frame: np.ndarray, m: np.ndarray, grid: Grid,
                    t: float, steps: int, cfg: ExperimentConfig) -> tuple[np.ndarray, np.ndarray]:
    """_strang_steps of the rows phi (rows, n), each row on the coarsest
    power-of-two grid over the same window that holds its spectrum (see
    split_step_evolve).  The band B < n_r / 4 leaves a factor 2 below n_r's
    Nyquist for the sub-bin shift of the mid-step frame.  Rows with equal
    n_r step together, so a row's result does not depend on the other rows.
    One step, a row with n_r = n and a row the end guard sends back run
    _strang_steps on the full grid.  Overwrites phi and frame.
    """
    n = grid.n
    if steps == 1:
        return _strang_steps(phi, frame, m, grid, t, steps, cfg)
    spec = np.fft.fft(phi, axis=-1)
    mag = np.abs(spec)
    q = np.abs(np.fft.fftfreq(n, 1.0 / n))
    bands = np.where(mag > BAND_TOL * mag.max(axis=1, keepdims=True), q, 0.0).max(axis=1)
    # the smallest power of two >= 4 (B + 1), capped at n
    sizes = np.array([min(n, 1 << (4 * int(b) + 3).bit_length()) for b in bands])
    full = sizes == n
    for size in set(sizes[~full].tolist()):  # np.unique would import numpy.ma
        rows = np.flatnonzero(sizes == size)
        h = size // 2
        # in: the size lowest |q| bins, unscaled inverse FFT, the n-point 1/n
        sub = np.fft.ifft(np.concatenate((spec[rows, :h], spec[rows, -h:]), axis=1),
                          axis=-1, norm="forward") / n
        sub, sub_frame = _strang_steps(
            sub, frame[rows], m[rows], Grid(grid.z_min, grid.z_max, size), t, steps, cfg)
        back = np.fft.fft(sub, axis=-1)
        mag = np.abs(back)
        held = mag[:, size // 4:size - size // 4 + 1].max(axis=1) \
            < SPECTRAL_LEAK_TOL * mag.max(axis=1)
        full[rows[~held]] = True
        pad = np.zeros((int(held.sum()), n), dtype=complex)
        pad[:, :h], pad[:, -h:] = back[held, :h], back[held, h:]
        # out: zero-padded, unscaled inverse FFT, the size-point 1/size
        phi[rows[held]] = np.fft.ifft(pad, axis=-1, norm="forward") / size
        frame[rows[held]] = sub_frame[held]
    if full.any():
        phi[full], frame[full] = _strang_steps(
            phi[full], frame[full], m[full], grid, t, steps, cfg)
    return phi, frame


def _strang_steps(phi: np.ndarray, frame: np.ndarray, m: np.ndarray, grid: Grid,
                  t: float, steps: int, cfg: ExperimentConfig) -> tuple[np.ndarray, np.ndarray]:
    """The batched kernel of split_step_evolve: `steps` mid-step-frame Strang
    steps over t of the rows phi (rows, n), stored in frames `frame`, for
    quantum numbers m.  Overwrites phi and returns it with the new frames.
    """
    z, dk, tau = grid.z, 2.0 * np.pi / grid.length, t / steps
    a = cfg.hbar * tau / (2.0 * cfg.mass)
    kick = cfg.gamma * cfg.beta * m * tau  # frame advance per step
    larmor = cfg.gamma * cfg.b0 * m * tau
    x = (kick / dk).tolist()
    q = np.fft.fftfreq(grid.n, 1.0 / grid.n)  # FFT-order wavenumbers in units of dk
    # the inverse FFT runs unscaled: its 1/n, exact for n a power of two, is in fixed
    fixed = np.exp(-1j * (a * dk * dk) * np.square(q)) / grid.n
    drift, phik = np.empty_like(phi), np.empty_like(phi)

    def potential(c: int, share: float, regauge: int, phase: float = 0.0) -> np.ndarray:
        """Field phase of `share` of a step, exp(i share gamma (B0 + beta z) m
        tau), times the regauge exp(-i dk regauge z) and exp(-i phase), for row c."""
        return np.exp(1j * (share * larmor[c] - phase + (share * kick[c] - dk * regauge) * z))

    def set_drift(c: int, p: int) -> None:
        """Row c of drift, fixed exp(-2i a K dk q) with K = frame + dk p, computed exactly."""
        d = drift[c]
        d.real = 0.0
        np.multiply(q, -2.0 * a * dk * (frame[c] + dk * p), out=d.imag)
        np.multiply(np.exp(d, out=d), fixed, out=d)

    ratios, rows, phases = {}, [], []  # ratios[v]: drift ratio of p_j moving by v
    for c in range(m.size):
        p = np.rint(x[c] * (np.arange(steps) + 0.5))  # the frames p_j of row c
        inc = np.diff(p)
        low, high = (int(inc.min()), int(inc.max())) if steps > 1 else (0, -1)
        for v in set(range(low, high + 1)) - {0} - set(ratios):
            ratios[v] = np.exp(-2j * (a * dk * dk * v) * q)
        rows.append((phi[c], drift[c], low, (inc - low).astype(np.uint8).tobytes(),
                     [potential(c, 1.0, v) for v in range(low, high + 1)]))
        phi[c] *= potential(c, 0.5, int(p[0]))
        set_drift(c, int(p[0]))
        p *= dk
        p += frame[c]  # K_j, whose a K_j^2 is reduced mod 2 pi step by step
        phases.append(float(np.remainder(a * np.square(p, out=p), 2.0 * np.pi, out=p).sum()))
    for j in range(steps):
        np.fft.fft(phi, axis=-1, out=phik)
        phik *= drift
        np.fft.ifft(phik, axis=-1, norm="forward", out=phi)
        if j == steps - 1:
            break
        anchor = (j + 1) % DRIFT_ANCHOR_STEPS == 0
        for c, (row, d, low, up, mults) in enumerate(rows):
            row *= mults[up[j]]
            if anchor:
                set_drift(c, round((j + 1.5) * x[c]))
            elif low + up[j]:
                d *= ratios[low + up[j]]
    p_end = np.rint(np.multiply(x, steps))
    for c in range(m.size):
        phi[c] *= potential(c, 0.5, int(p_end[c]) - round((steps - 0.5) * x[c]), phases[c])
    return phi, frame + dk * p_end


def dft_matrix(n: int) -> np.ndarray:
    """Unitary n-point DFT matrix, F psi = fft(psi, norm="ortho"), for n <= DENSE_N_LIMIT."""
    if n > DENSE_N_LIMIT:
        raise ValueError(f"dense grid capped at n = {DENSE_N_LIMIT}, got {n}")
    return np.fft.fft(np.eye(n), norm="ortho")


def dense_hamiltonian(grid: Grid, cfg: ExperimentConfig, s: SpinQN) -> np.ndarray:
    """(d, n, n) stack of the blocks of H on the periodic grid, one per m in
    descending order: spectral kinetic term plus diagonal potential.  H
    commutes with S_z, so the blocks between different m are zero and are
    not stored.
    """
    F = dft_matrix(grid.n)
    kinetic = F.conj().T @ np.diag(cfg.hbar**2 * grid.k**2 / (2.0 * cfg.mass)) @ F
    kinetic = (kinetic + kinetic.conj().T) / 2.0
    potential = (-cfg.gamma * (cfg.b0 + cfg.beta * grid.z) * cfg.hbar) * s.m_values()[:, None]
    out = np.repeat(kinetic[None], s.dim, axis=0)
    diag = np.arange(grid.n)
    out[:, diag, diag] += potential
    return out


def matrix_exponential(H: np.ndarray, scale: complex) -> np.ndarray:
    """expm(scale H) for a Hermitian H, or for each matrix of a (..., N, N)
    stack of them, through one stacked exact eigendecomposition; anything
    else is rejected.  The Hermitian tolerance scales with the largest
    entry of the whole stack, and each matrix is capped at EXPM_SIZE_LIMIT.
    """
    H = np.asarray(H)
    if H.ndim < 2 or H.shape[-1] != H.shape[-2]:
        raise ValueError(f"H must be square or a stack of square matrices, got {H.shape}")
    if H.shape[-1] > EXPM_SIZE_LIMIT:
        raise ValueError(f"matrix exponential capped at {EXPM_SIZE_LIMIT}, got {H.shape[-1]}")
    if not np.all(np.isfinite(H)):
        raise ValueError("H has non-finite entries")
    Hh = np.swapaxes(H.conj(), -1, -2)
    herm_defect = np.abs(H - Hh).max()
    if not herm_defect <= 1e-12 * np.abs(H).max():
        raise ValueError(f"H must be Hermitian, got a defect of {herm_defect:.3e}")
    w, Q = np.linalg.eigh((H + Hh) / 2.0)
    return (Q * np.exp(scale * w)[..., None, :]) @ np.swapaxes(Q.conj(), -1, -2)
