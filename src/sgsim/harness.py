"""Scenario assembly, stock configurations, reports, and check routines.

A Scenario bundles everything one beam-splitting run needs: the physical
config, spin, initial coefficients, a gradient schedule, and the grid and
step count used whenever the split-step reference is requested.  run()
turns a Scenario into a Report of closed-form observables plus optional
cross-checks; the CLI in sgsim.cli is a thin wrapper over these calls.
"""

from __future__ import annotations

import cmath
import dataclasses
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import (BOHR_MAGNETON_SI, HBAR_SI, ExperimentConfig, GradientSegment, Grid,
                     SpinQN)
from .observables import (entanglement_entropy, peak_separation, position_density_z,
                          spin_rdm)
from .oracle import (EXPM_SIZE_LIMIT, SampledSpinor, dense_hamiltonian, matrix_exponential,
                     spinor_l2_distance, split_step_evolve, strang_phase)
from .propagator import (dense_factored_matrix, evolve_segments, gaussian_hybrid, sample_state,
                         unit_coeffs)
from .wavepacket import from_gaussian, moments, sample

VALID_OUTPUTS = ("density", "entropy-timeline", "compare-table")

# Stock grid for silver-scale runs: the beams deflect ~7.3e-5 m, so a
# +-6e-4 m window keeps them far from the periodic seam.
SILVER_GRID = Grid(z_min=-6e-4, z_max=6e-4, n=4096)
# Split-step steps per run, spread over the segments by duration (at least
# one each).  A Strang step of this Hamiltonian is exact up to a known phase,
# so one per segment reaches the rounding floor; more serve convergence studies.
SILVER_ORACLE_STEPS = 1

# Samples of the entropy timeline that run() reports and `sge entropy` prints
# by default.  A batched timeline holds a few (samples, d, d) arrays; at d = 8
# one such complex array is about 4 MB at the limit.
TIMELINE_SAMPLES = 33
TIMELINE_SAMPLES_LIMIT = 4097
# Parse-time caps: a (d, n) complex array is 128 MB at d = 8, and the split-step
# holds a few of them plus, while it sets up one row, a few steps-long float arrays.
GRID_N_LIMIT = ORACLE_STEPS_LIMIT = 1 << 20
# Spin 7/2, d = 8, the dimension the two caps above are budgeted for.
TWICE_S_LIMIT = 7

# Gates, each passing at value <= tolerance.  DENSITY_TOL and SPINOR_TOL
# gate the split-step reference errors, KICK_REL_TOL and ENTROPY_TOL the
# gradient-flip interferometer, BCH_TOL the factored-vs-expm state error.
DENSITY_TOL = 1e-4
SPINOR_TOL = 1e-6
KICK_REL_TOL = 1e-10
ENTROPY_TOL = 1e-6
BCH_TOL = 1e-6


def default_silver_config() -> ExperimentConfig:
    """Historical silver-beam parameters: 660 m/s furnace beam, 3.5 cm
    magnet, 0.1 T bias field, 10 T/cm gradient.  Gaussian widths map the
    0.03 mm slit to sigma = half width; mass and g factor are the standard
    silver values (107.87 u, g ~= 2).
    """
    return ExperimentConfig(
        mass=1.79e-25,
        g_factor=2.0,
        bohr_magneton=BOHR_MAGNETON_SI,
        hbar=HBAR_SI,
        b0=0.1,
        beta=1000.0,
        v0=660.0,
        sigma_x=1.5e-5,
        sigma_y=1.5e-5,
        sigma_z=1.5e-5,
        magnet_length=0.035,
    )


def scaled_config(b0: float = 1.0, beta: float = 0.5, sigma: float = 1.0) -> ExperimentConfig:
    """Order-one test profile: hbar = M = 1 and gamma = -1, so formulas can
    be checked without silver-scale exponents.
    """
    return ExperimentConfig(
        mass=1.0, g_factor=1.0, bohr_magneton=1.0, hbar=1.0,
        b0=b0, beta=beta, v0=1.0,
        sigma_x=sigma, sigma_y=sigma, sigma_z=sigma, magnet_length=1.0,
    )


def interferometer_segments(beta: float, T: float) -> tuple[GradientSegment, ...]:
    """Gradient flip sequence +beta, -beta, +beta over T, 2T, T.  The kick
    integrates to zero and the beams re-merge at 4T.
    """
    return (GradientSegment(beta, T),
            GradientSegment(-beta, 2 * T),
            GradientSegment(beta, T))


@dataclass(frozen=True, eq=False)
class Scenario:
    cfg: ExperimentConfig
    spin: SpinQN
    initial_coeffs: np.ndarray
    segments: tuple[GradientSegment, ...]
    grid: Grid
    oracle_steps: int = SILVER_ORACLE_STEPS
    outputs: tuple[str, ...] = ("density",)

    def __post_init__(self) -> None:
        if getattr(self.initial_coeffs, "shape", None) != (self.spin.dim,):
            raise ValueError(f"initial_coeffs must be an array of {self.spin.dim} "
                             f"coefficients, got {self.initial_coeffs!r}")
        total = float(np.sum(np.abs(self.initial_coeffs) ** 2))
        if not abs(total - 1.0) <= 1e-9:
            raise ValueError(f"coefficients must be normalized, sum |c|^2 = {total}")
        if self.oracle_steps < 1:
            raise ValueError("oracle_steps must be >= 1")
        for out in self.outputs:
            if out not in VALID_OUTPUTS:
                raise ValueError(f"unknown output {out!r}, expected one of {VALID_OUTPUTS}")
        self._check_scales()

    def _check_scales(self) -> None:
        """Raise, naming the segment, if the closed form would overflow on
        the schedule.  Bounds each quantity evolve forms at the largest |m|,
        in its order of operations: the kick gamma beta s t and the flight
        hbar t / M summed over the schedule so far, the centroid shift their
        products give, and the segment's packet phase increment, spin phase
        included (evolve reduces the stored phase mod 2 pi)."""
        cfg, s = self.cfg, self.spin.s
        kick_sum = flight_sum = shift = 0.0
        for i, seg in enumerate(self.segments):
            t, beta = seg.duration, abs(seg.beta)
            gmt = abs(cfg.gamma) * t * s
            kick, flight = beta * gmt, cfg.hbar * t / cfg.mass
            shift += (kick_sum + 0.5 * kick) * flight
            phase = (0.5 * flight * kick_sum * kick_sum + kick * shift
                     + gmt * (abs(cfg.b0) + kick * (beta / 6.0 * flight)))
            kick_sum += kick
            flight_sum += flight
            for name, value in (("gamma s t", gmt), ("the summed kick gamma beta s t", kick_sum),
                                ("the summed flight hbar t / M", flight_sum),
                                ("the centroid shift", shift), ("the packet phase", phase)):
                if not math.isfinite(value):
                    raise ValueError(f"segments[{i}]: duration_s {t!r} overflows the closed "
                                     f"form: {name} is {value}")

    @property
    def total_duration(self) -> float:
        return sum(seg.duration for seg in self.segments)


class OracleErrors(NamedTuple):
    """Closed form against one split-step run.  density: relative L2
    distance of the densities.  spinor: relative L2 distance of the spinor
    fields, the split-step one with its Strang phase removed; unlike the
    density it sees every component phase (kinetic, Larmor, u2c)."""

    density: float
    spinor: float

    def rows(self) -> list[tuple[str, float, float]]:
        """(name, value, tolerance) gate rows, as interferometer_check returns."""
        return [("oracle_l2_error", self.density, DENSITY_TOL),
                ("oracle_spinor_error", self.spinor, SPINOR_TOL)]


@dataclass(frozen=True, eq=False)
class Report:
    """Results of one scenario run.  deflection_m maps an m label such as
    '+1/2' to the final z centroid of that component; reference holds the
    split-step check's errors when compare-table was asked for.
    """

    transit_time_s: float
    deflection_m: dict[str, float]
    peak_separation_m: float | None
    entropy_nats: float
    reference: OracleErrors | None = None
    density: np.ndarray | None = None  # columns z, p(z)
    entropy_timeline: np.ndarray | None = None  # columns t, S

    def __post_init__(self) -> None:
        optional = (self.peak_separation_m, *(self.reference or ()))
        scalars = [self.transit_time_s, self.entropy_nats, *self.deflection_m.values(),
                   *(x for x in optional if x is not None)]
        if not all(math.isfinite(x) for x in scalars):
            raise ValueError("report scalars must be finite")

    def json_dict(self) -> dict:
        doc = {k: getattr(self, k) for k in
               ("transit_time_s", "deflection_m", "peak_separation_m", "entropy_nats")}
        doc.update((name, value) for name, value, _ in self.reference_rows())
        return doc

    def reference_rows(self) -> list[tuple[str, float, float]]:
        """The reference errors as OracleErrors.rows(); none without compare-table."""
        return [] if self.reference is None else self.reference.rows()


def oracle_density_error(sc: Scenario) -> OracleErrors:
    """Closed form against one split-step run of the schedule.  The step
    budget is spread over the segments in proportion to duration, at least
    one a segment, and each segment's Strang phase is removed from the
    split-step spinor before the spinors are compared."""
    st0 = gaussian_hybrid(sc.spin, sc.initial_coeffs, sc.cfg)
    st = evolve_segments(st0, list(sc.segments), sc.cfg)
    rho_exact = position_density_z(st, sc.grid).values
    psi, m, phase = sample_state(st0, sc.grid), sc.spin.m_values(), np.zeros(sc.spin.dim)
    for seg in sc.segments:
        if seg.duration == 0:
            continue
        steps = max(1, round(sc.oracle_steps * seg.duration / sc.total_duration))
        cfg = sc.cfg.with_beta(seg.beta)
        psi = split_step_evolve(psi, seg.duration, steps, cfg)
        phase += strang_phase(m, seg.duration, steps, cfg)
    density = float(np.linalg.norm(psi.density() - rho_exact) / np.linalg.norm(rho_exact))
    unphased = SampledSpinor(sc.grid, sc.spin, psi.components * np.exp(-1j * phase)[:, None],
                             psi.frame_k)
    exact = sample_state(st, sc.grid, frame_k=psi.frame_k)
    return OracleErrors(density, spinor_l2_distance(unphased, exact))


def run(sc: Scenario) -> Report:
    """Evolve the scenario in closed form and collect observables."""
    cfg = sc.cfg
    st0 = gaussian_hybrid(sc.spin, sc.initial_coeffs, cfg)
    st = evolve_segments(st0, list(sc.segments), cfg)

    # the centroid of a centred packet is its q
    deflection = {sc.spin.label(m): z for m, z in
                  zip(sc.spin.m_values().tolist(), st.z.q.tolist())}
    profile = position_density_z(st, sc.grid)
    entropy = entanglement_entropy(spin_rdm(st))

    timeline = None
    if "entropy-timeline" in sc.outputs:
        timeline = entropy_timeline(sc, TIMELINE_SAMPLES)

    density = None
    if "density" in sc.outputs:
        density = _columns(sc.grid.z, profile.values)

    return Report(
        transit_time_s=cfg.transit_time,
        deflection_m=deflection,
        peak_separation_m=peak_separation(profile),
        entropy_nats=entropy,
        reference=oracle_density_error(sc) if "compare-table" in sc.outputs else None,
        density=density,
        entropy_timeline=timeline,
    )


def entropy_timeline(sc: Scenario, samples: int) -> np.ndarray:
    """Entanglement entropy at evenly spaced times across the schedule;
    returns an array with columns (t, entropy).

    evolve_segments takes every sample through the schedule at once, one
    batched evolve per segment, and one spin_rdm takes all.  The last row is
    the state evolve_segments gives at the schedule's end.
    """
    if samples < 2:
        raise ValueError("samples must be >= 2")
    if samples > TIMELINE_SAMPLES_LIMIT:
        raise ValueError(f"samples must be <= {TIMELINE_SAMPLES_LIMIT}, got {samples}")
    times = np.linspace(0.0, sc.total_duration, samples)
    st = evolve_segments(gaussian_hybrid(sc.spin, sc.initial_coeffs, sc.cfg),
                         list(sc.segments), sc.cfg, times[:, None])
    return _columns(times, entanglement_entropy(spin_rdm(st)))


def _columns(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The (n, 2) array with columns a and b, filled in place."""
    out = np.empty((len(a), 2))
    out[:, 0], out[:, 1] = a, b
    return out


def interferometer_check(sc: Scenario, T: float) -> list[tuple[str, float, float]]:
    """Run the scenario's beam through the +beta/-beta/+beta schedule with
    legs T, 2T, T, which should leave the beams recombined.  Returns rows
    (name, value, tolerance), each passing at value <= tolerance: the
    largest net momentum kick of any component relative to the first leg's
    kick on the outermost one, the final entanglement entropy, and the two
    split-step reference errors of OracleErrors.rows().
    """
    if not (T >= 0 and math.isfinite(2 * T)):
        raise ValueError(f"interferometer leg T must be finite and >= 0 with 2T finite, got {T}")
    cfg = sc.cfg
    sc = dataclasses.replace(sc, segments=interferometer_segments(cfg.beta, T))
    kick_scale = abs(cfg.hbar * cfg.gamma * cfg.beta * T) * max(sc.spin.s, 0.5)
    if kick_scale == 0:
        raise ValueError(f"no beam split to recombine: the first leg's kick is 0 "
                         f"(gamma {cfg.gamma}, beta {cfg.beta}, T {T})")
    st0 = gaussian_hybrid(sc.spin, sc.initial_coeffs, cfg)
    st = evolve_segments(st0, list(sc.segments), cfg)
    kick = np.abs(moments(st.z, cfg.hbar).mean_momentum - moments(st0.z, cfg.hbar).mean_momentum)
    return [("net_kick_rel", float(kick.max()) / kick_scale, KICK_REL_TOL),
            ("entropy_nats", entanglement_entropy(spin_rdm(st)), ENTROPY_TOL),
            *oracle_density_error(sc).rows()]


# ---------------------------------------------------------------------------
# factorization check against the dense matrix exponential

class BCHCheck(NamedTuple):
    """state_error: worst relative L2 error of the factored propagator
    against expm(-iHt/hbar) over a family of localized probe Gaussians.
    operator_error: raw entrywise max difference of the two matrices.

    The two metrics differ by design.  On a periodic grid the sawtooth z
    breaks [z, p] = i hbar at the seam; expm scatters off that jump while
    the factored operator translates cleanly through it, so columns near
    the boundary disagree at order one no matter how fine the grid.  On
    states kept away from the seam (the only regime where the periodic
    model represents the real line) the two agree to machine precision.
    """

    state_error: float
    operator_error: float


def bch_check(spin: SpinQN, n: int = 64) -> BCHCheck:
    """Compare the factored propagator with the brute-force exponential of
    the same discrete Hamiltonian, in order-one scaled units: t = 0.7 on
    n points over [-16, 16].

    Both operators are block diagonal in m, so both are built, and compared,
    as (2s+1, n, n) stacks of their blocks: operator_error is the largest
    entry of any block's difference, and each probe is applied to each
    block.  The stack is capped at EXPM_SIZE_LIMIT^2 entries.
    """
    if spin.dim * n * n > EXPM_SIZE_LIMIT**2:
        raise ValueError(f"dense check capped at (2s+1) n^2 = {EXPM_SIZE_LIMIT**2} entries, "
                         f"got {spin.dim * n * n}")
    grid, t = Grid(z_min=-16.0, z_max=16.0, n=n), 0.7
    cfg = scaled_config()
    u_fact = dense_factored_matrix(grid, t, cfg, spin)
    h = dense_hamiltonian(grid, cfg, spin)
    u_exact = matrix_exponential(h, -1j * t / cfg.hbar)

    diff = u_fact - u_exact
    operator_error = float(np.abs(diff).max())

    probes = [sample(from_gaussian(sigma, z0, k0), grid) for sigma in (1.0, 1.4)
              for z0 in (-4.0, 0.0, 3.0) for k0 in (-1.0, 0.0, 1.5)]
    probes = [probe / np.linalg.norm(probe) for probe in probes]
    # column j of block i is diff_i applied to probe j
    state_error = float(np.linalg.norm(diff @ np.transpose(probes), axis=-2).max())
    return BCHCheck(state_error=state_error, operator_error=operator_error)


# ---------------------------------------------------------------------------
# JSON scenario files

_CONFIG_KEYS = {
    "mass_kg": "mass",
    "g_factor": "g_factor",
    "bohr_magneton_j_per_t": "bohr_magneton",
    "hbar_js": "hbar",
    "b0_tesla": "b0",
    "beta_tesla_per_m": "beta",
    "v0_m_per_s": "v0",
    "sigma_x_m": "sigma_x",
    "sigma_y_m": "sigma_y",
    "sigma_z_m": "sigma_z",
    "magnet_length_m": "magnet_length",
}
_SEGMENT_KEYS = ("beta_tesla_per_m", "duration_s")  # GradientSegment's argument order
_TOP_KEYS = set(_CONFIG_KEYS) | {"twice_s", "coeffs", "segments", "grid",
                                 "oracle_steps", "outputs"}


def _check_keys(doc, allowed: set[str], what: str) -> None:
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, got {doc!r}")
    unknown = set(doc) - allowed
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")


def _is_number(value) -> bool:
    """A JSON number that fits a float.  bool is an int subclass in Python,
    but not a number here."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        float(value)
    except OverflowError:  # an integer literal beyond 1.8e308
        return False
    return True


def _parse_coeff(value, key: str) -> complex:
    """A number or an [re, im] pair from JSON; bools are not numbers."""
    if _is_number(value):
        c = complex(value)
    elif isinstance(value, list) and len(value) == 2 and all(map(_is_number, value)):
        c = complex(value[0], value[1])
    else:
        raise ValueError(f"{key}: coefficient must be a number or [re, im] pair, "
                         f"got {value!r}")
    if not cmath.isfinite(c):
        raise ValueError(f"{key}: coefficients must be finite, got {value!r}")
    return c


def _parse_int(value, key: str, limit: float = math.inf) -> int:
    """An integer from JSON; a bool, a non-integral number or one above limit is an error."""
    if not _is_number(value) or not float(value).is_integer():
        raise ValueError(f"{key} must be an integer, got {value!r}")
    if value > limit:
        raise ValueError(f"{key} must be <= {limit}, got {value!r}")
    return int(value)


def _parse_float(value, key: str) -> float:
    """A number from JSON; a bool, a string or null is an error."""
    if not _is_number(value):
        raise ValueError(f"{key} must be a number, got {value!r}")
    return float(value)


def _parse_segment(seg, where: str) -> GradientSegment:
    _check_keys(seg, set(_SEGMENT_KEYS), "segment")
    missing = [key for key in _SEGMENT_KEYS if key not in seg]
    if missing:
        raise ValueError(f"{where} requires {' and '.join(missing)}")
    return GradientSegment(*(_parse_float(seg[key], f"{where}.{key}") for key in _SEGMENT_KEYS))


def _require_list(value, key: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{key} must be a list, got {value!r}")
    return value


def scenario_from_dict(doc: dict) -> Scenario:
    """Build a Scenario from a JSON document; unknown keys are rejected so
    typos fail loudly.  Omitted physics keys fall back to the silver
    defaults; omitted segments mean one full transit at the configured beta.
    """
    _check_keys(doc, _TOP_KEYS, "config")
    if "twice_s" not in doc or "coeffs" not in doc:
        raise ValueError("config requires twice_s and coeffs")

    silver = default_silver_config()
    cfg_kwargs = {field: getattr(silver, field) for field in _CONFIG_KEYS.values()}
    for key, field in _CONFIG_KEYS.items():
        if key in doc:
            cfg_kwargs[field] = _parse_float(doc[key], key)
    cfg = ExperimentConfig(**cfg_kwargs)
    # the initial packet's width is sigma_z^2, and v0 sets the transit time every run reports
    if not 0.0 < cfg.sigma_z * cfg.sigma_z < math.inf:
        raise ValueError(f"sigma_z_m squared must be positive and finite, got sigma_z_m "
                         f"{cfg.sigma_z!r}")
    if not cfg.v0 > 0:
        raise ValueError(f"v0_m_per_s must be > 0, got {cfg.v0!r}")

    spin = SpinQN(_parse_int(doc["twice_s"], "twice_s", TWICE_S_LIMIT))
    coeffs = unit_coeffs([_parse_coeff(v, f"coeffs[{i}]")
                          for i, v in enumerate(_require_list(doc["coeffs"], "coeffs"))])

    if "segments" in doc:
        segments = tuple(_parse_segment(seg, f"segments[{i}]")
                         for i, seg in enumerate(_require_list(doc["segments"], "segments")))
    else:
        segments = (GradientSegment(cfg.beta, cfg.transit_time),)

    grid_doc = doc.get("grid", {})
    _check_keys(grid_doc, {"z_min_m", "z_max_m", "n"}, "grid")
    grid = Grid(
        z_min=_parse_float(grid_doc.get("z_min_m", SILVER_GRID.z_min), "grid.z_min_m"),
        z_max=_parse_float(grid_doc.get("z_max_m", SILVER_GRID.z_max), "grid.z_max_m"),
        n=_parse_int(grid_doc.get("n", SILVER_GRID.n), "grid.n", GRID_N_LIMIT),
    )

    outputs = _require_list(doc.get("outputs", ["density"]), "outputs")

    return Scenario(
        cfg=cfg,
        spin=spin,
        initial_coeffs=coeffs,
        segments=segments,
        grid=grid,
        oracle_steps=_parse_int(doc.get("oracle_steps", SILVER_ORACLE_STEPS), "oracle_steps",
                                ORACLE_STEPS_LIMIT),
        outputs=tuple(outputs),
    )


def load_scenario(path: str) -> Scenario:
    with open(path) as fh:
        return scenario_from_dict(json.load(fh))
