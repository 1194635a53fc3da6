"""Experiment configuration containers and the spin quantum number.

Everything downstream (analytic propagation, split-step checks, observables)
reads physical parameters from these dataclasses.  SI units throughout unless
a config is built explicitly with scaled constants (hbar = mass = 1 style);
the code never assumes a unit system, it only combines the fields it is given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# CODATA 2018 values, used by the stock silver-beam configuration.
HBAR_SI = 1.054571817e-34  # J s
BOHR_MAGNETON_SI = 9.2740100783e-24  # J / T


def _kept(obj, name: str, build) -> np.ndarray:
    """The array build() gives, made once per frozen instance and read-only,
    so that no caller can change what the next one reads."""
    arr = vars(obj).get(name)
    if arr is None:
        arr = build()
        arr.flags.writeable = False
        vars(obj)[name] = arr
    return arr


@dataclass(frozen=True)
class ExperimentConfig:
    """Beam and magnet parameters.

    mass          particle mass
    g_factor      Lande g factor (dimensionless)
    bohr_magneton magnetic moment scale
    hbar          reduced Planck constant
    b0            uniform field along z inside the magnet
    beta          field gradient dB_z/dz
    v0            beam speed along the beam axis; sets only the transit time
    sigma_x/y/z   initial Gaussian widths; x and y motion factors out of
                  every output, so sigma_x/y are validated but enter none
    magnet_length extent of the field region along the beam
    """

    mass: float
    g_factor: float
    bohr_magneton: float
    hbar: float
    b0: float
    beta: float
    v0: float
    sigma_x: float
    sigma_y: float
    sigma_z: float
    magnet_length: float

    def __post_init__(self) -> None:
        for name in ("mass", "hbar", "sigma_x", "sigma_y", "sigma_z",
                     "magnet_length"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        for name in ("g_factor", "bohr_magneton", "b0", "beta", "v0"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    @property
    def gamma(self) -> float:
        """Gyromagnetic ratio -g mu_B / hbar (rad per second per field unit)."""
        return -self.g_factor * self.bohr_magneton / self.hbar

    @property
    def transit_time(self) -> float:
        """Time spent inside the field region at speed v0."""
        if self.v0 <= 0:
            raise ValueError("transit time requires v0 > 0")
        return self.magnet_length / self.v0

    def with_beta(self, beta: float) -> "ExperimentConfig":
        """Copy of this config with a different gradient; the other fields
        were checked when this one was built."""
        if not math.isfinite(beta):
            raise ValueError("beta must be finite")
        new = object.__new__(type(self))
        vars(new).update(vars(self), beta=beta)
        return new


@dataclass(frozen=True)
class GradientSegment:
    """One leg of a gradient schedule: hold `beta` for `duration`."""

    beta: float
    duration: float

    def __post_init__(self) -> None:
        if not (self.duration >= 0 and math.isfinite(self.duration)):
            raise ValueError(f"duration must be finite and >= 0, got {self.duration}")
        if not math.isfinite(self.beta):
            raise ValueError("beta must be finite")


@dataclass(frozen=True)
class Grid:
    """Uniform periodic z grid for sampled-wavefunction work.

    n must be a power of two: every consumer goes through the FFT and the
    split-step error analysis assumes exact step halving/doubling.
    """

    z_min: float
    z_max: float
    n: int

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.z_min, self.z_max, self.z_max - self.z_min))):
            raise ValueError(f"grid bounds must be finite with a finite span z_max - z_min, "
                             f"got [{self.z_min:g}, {self.z_max:g}]")
        if not self.z_max > self.z_min:
            raise ValueError("need z_max > z_min")
        if self.n < 2 or self.n & (self.n - 1):
            raise ValueError(f"n must be a power of two >= 2, got {self.n}")

    @property
    def length(self) -> float:
        return self.z_max - self.z_min

    @property
    def dz(self) -> float:
        return self.length / self.n

    @property
    def z(self) -> np.ndarray:
        """Sample points; z_max itself is excluded (periodic wrap).  Built on
        first access and kept, read-only, since the grid is frozen."""
        return _kept(self, "_z", lambda: self.z_min + self.dz * np.arange(self.n))

    @property
    def k(self) -> np.ndarray:
        """FFT-ordered angular wavenumbers, built once and read-only like z."""
        return _kept(self, "_k", lambda: 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dz))


@dataclass(frozen=True)
class SpinQN:
    """Spin quantum number stored as twice_s = 2s, so half-integer spins stay
    integers; every per-m array is ordered m = s, s-1, ..., -s."""

    twice_s: int

    def __post_init__(self) -> None:
        if not isinstance(self.twice_s, (int, np.integer)) or self.twice_s < 0:
            raise ValueError(f"twice_s must be a nonnegative integer, got {self.twice_s!r}")

    @classmethod
    def parse(cls, text: str) -> "SpinQN":
        """Accept '1/2', '3/2', '1', '2' style spin labels."""
        label = text.strip()
        half = label.endswith("/2")
        digits = label[:-2] if half else label
        if not digits.isdecimal():
            raise ValueError(f"spin must be written as 1/2, 1, 3/2, ..., got {text!r}")
        return cls(int(digits) if half else 2 * int(digits))

    @property
    def s(self) -> float:
        return self.twice_s / 2.0

    @property
    def dim(self) -> int:
        return self.twice_s + 1

    def m_values(self) -> np.ndarray:
        """Magnetic quantum numbers, descending from +s to -s (one read-only
        array per instance)."""
        return _kept(self, "_m", lambda: self.s - np.arange(self.dim))

    def label(self, m: float) -> str:
        """Human-readable m label: '+1/2', '0', '-3/2', ..."""
        tm = round(2 * m)
        if self.twice_s % 2 == 0:
            return f"{tm // 2:+d}" if tm else "0"
        return f"{tm:+d}/2"
