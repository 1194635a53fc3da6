"""The benchmark's own physics oracle and output checks.

Nothing here imports sgsim: the expected values come from classical
kinematics and from the scenario documents the benchmark hands to the
program, so a program change cannot move the yardstick it is measured
against.  Every check uses a physics tolerance, never frozen digits, so a
valid accuracy gain in the program is not counted as a failure.

Each check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

# Stock silver-beam parameters, the values sgsim falls back to when a
# scenario file omits them (keys as in the scenario JSON format).
STOCK = {
    "mass_kg": 1.79e-25,
    "g_factor": 2.0,
    "bohr_magneton_j_per_t": 9.2740100783e-24,
    "hbar_js": 1.054571817e-34,
    "b0_tesla": 0.1,
    "beta_tesla_per_m": 1000.0,
    "v0_m_per_s": 660.0,
    "sigma_x_m": 1.5e-5,
    "sigma_y_m": 1.5e-5,
    "sigma_z_m": 1.5e-5,
    "magnet_length_m": 0.035,
}
STOCK_TRANSIT_S = STOCK["magnet_length_m"] / STOCK["v0_m_per_s"]

CENTROID_REL_TOL = 1e-12
SILVER_SEPARATION_M = 1.46e-4
SEPARATION_REL_TOL = 0.02
ENTROPY_SPLIT_TOL = 1e-6
# Rounding slack on the upper entropy bound ln d.
ENTROPY_BOUND_SLACK = 1e-12
DENSITY_NORM_TOL = 1e-8
ORACLE_L2_TOL = 1e-4
BCH_STATE_TOL = 1e-6
# Components overlapping by at most this much leave the entropy of an equal
# superposition within about d * SPLIT_OVERLAP**2 of ln d, far below 1e-6.
SPLIT_OVERLAP = 1e-4
# Equal beams this many widths apart give separate density peaks at their
# centroids.
RESOLVED_SIGMAS = 6.0
# Grid margin around the outermost beams: the edge amplitude is then
# exp(-WINDOW_SIGMAS**2 / 4) of the peak, far below the program's 1e-8 leak limit.
WINDOW_SIGMAS = 12.0


class Physics:
    """Classical yardstick for one scenario document (missing keys take the
    stock silver values, as the program's parser does).
    """

    def __init__(self, doc: dict):
        p = {**STOCK, **{k: v for k, v in doc.items() if k in STOCK}}
        self.twice_s = int(doc["twice_s"])
        self.mass = p["mass_kg"]
        self.hbar = p["hbar_js"]
        self.sigma = p["sigma_z_m"]
        # force per unit m and per unit gradient: hbar m gamma beta = -g mu_B m beta
        self.force_unit = -p["g_factor"] * p["bohr_magneton_j_per_t"]
        if "segments" in doc:
            self.segments = [(float(s["beta_tesla_per_m"]), float(s["duration_s"]))
                             for s in doc["segments"]]
        else:
            self.segments = [(p["beta_tesla_per_m"], p["magnet_length_m"] / p["v0_m_per_s"])]
        coeffs = [complex(*c) if isinstance(c, list) else complex(c) for c in doc["coeffs"]]
        self.equal_weights = len({round(abs(c), 15) for c in coeffs}) == 1

    @property
    def dim(self) -> int:
        return self.twice_s + 1

    @property
    def duration(self) -> float:
        return sum(t for _, t in self.segments)

    def m_values(self) -> list[Fraction]:
        return [Fraction(self.twice_s - 2 * i, 2) for i in range(self.dim)]

    def centroid(self, m: Fraction) -> float:
        """Final z of component m: piecewise-constant force, starting at rest
        at the origin (Ehrenfest is exact for a linear potential).
        """
        z = v = 0.0
        for beta, t in self.segments:
            acc = self.force_unit * float(m) * beta / self.mass
            z += v * t + 0.5 * acc * t * t
            v += acc * t
        return z

    def momentum(self, m: Fraction) -> float:
        """Final mean momentum of component m (the impulse of its force)."""
        return self.force_unit * float(m) * sum(beta * t for beta, t in self.segments)

    def deflection_scale(self) -> float:
        """Displacement the outermost component would reach under the
        strongest gradient of the schedule held for its whole duration;
        centroid errors are measured relative to this.
        """
        beta = max((abs(b) for b, _ in self.segments), default=0.0)
        scale = abs(self.force_unit) * self.twice_s / 2 * beta * self.duration ** 2 / (2 * self.mass)
        return scale if scale > 0 else self.sigma

    def final_sigma(self) -> float:
        """Free-flight spread of the position width over the schedule."""
        tau = self.hbar * self.duration / (2 * self.mass * self.sigma ** 2)
        return self.sigma * math.sqrt(1 + tau * tau)

    def max_overlap(self) -> float:
        """Largest |<psi_m|psi_m'>| between final components.  They are one
        Gaussian displaced in phase space by xi = (dz, dp), so
        |overlap| = exp(-xi^T Sigma^-1 xi / 8) with Sigma the final
        phase-space covariance (det Sigma = hbar^2 / 4).
        """
        ms = self.m_values()
        if len(ms) < 2:
            return 0.0
        t, s2 = self.duration, self.sigma ** 2
        spp = self.hbar ** 2 / (4 * s2)
        szp = spp * t / self.mass
        szz = s2 + spp * (t / self.mass) ** 2
        det = self.hbar ** 2 / 4
        q_min = min(
            (spp * dz * dz - 2 * szp * dz * dp + szz * dp * dp) / det
            for dz, dp in ((self.centroid(a) - self.centroid(b),
                            self.momentum(a) - self.momentum(b))
                           for a, b in zip(ms, ms[1:])))
        return math.exp(-q_min / 8)

    def split(self) -> bool:
        """Every pair of final components is orthogonal to SPLIT_OVERLAP."""
        return self.max_overlap() <= SPLIT_OVERLAP

    def resolved(self) -> bool:
        """Adjacent final beams are RESOLVED_SIGMAS widths apart in z."""
        zs = sorted(self.centroid(m) for m in self.m_values())
        gap = min((b - a for a, b in zip(zs, zs[1:])), default=0.0)
        return gap >= RESOLVED_SIGMAS * self.final_sigma()

    def window(self) -> tuple[float, float]:
        """z range covering every final beam with WINDOW_SIGMAS widths of margin."""
        zs = [self.centroid(m) for m in self.m_values()]
        pad = WINDOW_SIGMAS * self.final_sigma()
        return min(zs) - pad, max(zs) + pad


def check_finite(doc, where: str = "report") -> list[str]:
    """Every number in a JSON document is finite; None stands for an
    unresolved peak separation and is allowed."""
    bad = []

    def walk(x, path):
        if isinstance(x, dict):
            for k, v in x.items():
                walk(v, f"{path}.{k}")
        elif isinstance(x, list):
            for i, v in enumerate(x):
                walk(v, f"{path}[{i}]")
        elif isinstance(x, bool) or x is None:
            return
        elif isinstance(x, (int, float)):
            if not math.isfinite(x):
                bad.append(f"{path} is not finite: {x}")
        else:
            bad.append(f"{path} has unexpected type {type(x).__name__}")

    walk(doc, where)
    return bad


def check_report(phys: Physics, rep: dict, stock_silver: bool = False) -> list[str]:
    """Checks on a report's JSON fields against the classical yardstick."""
    fails = check_finite(rep)
    scale = phys.deflection_scale()
    defl = rep.get("deflection_m", {})
    want = {m: phys.centroid(m) for m in phys.m_values()}
    got = {Fraction(k): v for k, v in defl.items()}
    if set(got) != set(want):
        fails.append(f"deflection labels {sorted(defl)} do not match m = {sorted(want)}")
    for m, z in want.items():
        if m in got and not abs(got[m] - z) <= CENTROID_REL_TOL * max(abs(z), scale):
            fails.append(f"centroid m={m}: {got[m]!r} vs classical {z!r}")

    fails += check_entropy(phys, [rep.get("entropy_nats")])

    sep = rep.get("peak_separation_m")
    if phys.resolved() and phys.equal_weights and phys.dim > 1:
        zs = [want[m] for m in phys.m_values()]
        expected = max(zs) - min(zs)
        if sep is None or not abs(sep - expected) <= SEPARATION_REL_TOL * expected:
            fails.append(f"peak separation {sep!r} vs classical {expected!r}")
    if stock_silver and (sep is None or
                         not abs(sep - SILVER_SEPARATION_M) <= SEPARATION_REL_TOL * SILVER_SEPARATION_M):
        fails.append(f"silver peak separation {sep!r} vs {SILVER_SEPARATION_M}")

    if "oracle_l2_error" in rep and not rep["oracle_l2_error"] <= ORACLE_L2_TOL:
        fails.append(f"oracle_l2_error {rep['oracle_l2_error']!r} > {ORACLE_L2_TOL}")
    if "bch_state_error" in rep and not rep["bch_state_error"] <= BCH_STATE_TOL:
        fails.append(f"bch_state_error {rep['bch_state_error']!r} > {BCH_STATE_TOL}")
    return fails


def check_entropy(phys: Physics, values) -> list[str]:
    """0 <= S <= ln d for every value, and the last (final-time) value is
    ln d within ENTROPY_SPLIT_TOL for a split equal superposition."""
    ln_d = math.log(phys.dim)
    fails = []
    for s in values:
        if not (isinstance(s, (int, float)) and 0.0 <= s <= ln_d + ENTROPY_BOUND_SLACK):
            fails.append(f"entropy {s!r} outside [0, ln {phys.dim}]")
    if values and phys.split() and phys.equal_weights:
        if not abs(values[-1] - ln_d) <= ENTROPY_SPLIT_TOL:
            fails.append(f"split equal superposition entropy {values[-1]!r} != ln {phys.dim}")
    return fails


def check_timeline(phys: Physics, rows, samples: int) -> list[str]:
    """rows: (t, S) pairs from an entropy timeline."""
    fails = []
    if len(rows) != samples:
        return [f"timeline has {len(rows)} rows, expected {samples}"]
    ts = [t for t, _ in rows]
    if ts[0] != 0.0 or not abs(ts[-1] - phys.duration) <= 1e-12 * phys.duration:
        fails.append(f"timeline spans [{ts[0]!r}, {ts[-1]!r}], expected [0, {phys.duration!r}]")
    if any(b <= a for a, b in zip(ts, ts[1:])):
        fails.append("timeline times are not increasing")
    fails += check_entropy(phys, [s for _, s in rows])
    return fails


def check_density(rows) -> list[str]:
    """rows: (z, p) pairs on a uniform grid; p integrates to 1."""
    if len(rows) < 2:
        return ["density has fewer than two rows"]
    dz = (rows[-1][0] - rows[0][0]) / (len(rows) - 1)
    total = math.fsum(p for _, p in rows) * dz
    fails = [] if abs(total - 1.0) <= DENSITY_NORM_TOL else [f"density integrates to {total!r}"]
    if any(not (math.isfinite(p) and p >= 0) for _, p in rows):
        fails.append("density has negative or non-finite values")
    return fails


def read_csv(text: str, header: str) -> tuple[list[tuple[float, float]], list[str]]:
    lines = text.splitlines()
    if not lines or lines[0].strip() != header:
        return [], [f"CSV header {lines[:1]!r}, expected {header!r}"]
    try:
        rows = [(float(a), float(b)) for a, b in csv.reader(io.StringIO("\n".join(lines[1:])))]
    except ValueError as exc:
        return [], [f"CSV parse error: {exc}"]
    return rows, []


def parse_report_json(text: str) -> tuple[dict, list[str]]:
    try:
        return json.loads(text), []
    except ValueError as exc:
        return {}, [f"report.json parse error: {exc}"]


def check_compare_stdout(text: str) -> list[str]:
    """`compare` prints 'oracle_l2_error <x> (tolerance ...)'."""
    for line in text.splitlines():
        if line.startswith("oracle_l2_error"):
            try:
                err = float(line.split()[1])
            except (IndexError, ValueError):
                break
            return [] if err <= ORACLE_L2_TOL else [f"oracle_l2_error {err!r} > {ORACLE_L2_TOL}"]
    return ["compare printed no oracle_l2_error"]


def check_bch_stdout(text: str, spins: int = 2) -> list[str]:
    """`bch-check` prints one 'spin k/2: state_error <x> ...' line per spin."""
    errs = []
    for line in text.splitlines():
        if line.startswith("spin ") and "state_error" in line:
            try:
                errs.append(float(line.split("state_error")[1].split()[0]))
            except (IndexError, ValueError):
                return [f"cannot parse bch line {line!r}"]
    if len(errs) != spins:
        return [f"bch-check printed {len(errs)} state errors, expected {spins}"]
    return [f"bch state_error {e!r} > {BCH_STATE_TOL}" for e in errs if not e <= BCH_STATE_TOL]
