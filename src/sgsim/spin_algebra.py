"""Spin operators for arbitrary spin and small operator-algebra utilities.

Matrices are plain dense numpy arrays in the S_z eigenbasis, ordered
m = s, s-1, ..., -s.  Half-integer spins are tracked through an integer
2s so quantum numbers never touch floating point until a matrix is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig


@dataclass(frozen=True)
class SpinQN:
    """Spin quantum number stored as twice_s = 2s."""

    twice_s: int

    def __post_init__(self) -> None:
        if not isinstance(self.twice_s, (int, np.integer)) or self.twice_s < 0:
            raise ValueError(f"twice_s must be a nonnegative integer, got {self.twice_s!r}")

    @classmethod
    def parse(cls, text: str) -> "SpinQN":
        """Accept '1/2', '3/2', '1', '2' style spin labels."""
        text = text.strip()
        if text.endswith("/2"):
            return cls(int(text[:-2]))
        return cls(2 * int(text))

    @property
    def s(self) -> float:
        return self.twice_s / 2.0

    @property
    def dim(self) -> int:
        return self.twice_s + 1

    def m_values(self) -> np.ndarray:
        """Magnetic quantum numbers, descending from +s to -s."""
        return self.s - np.arange(self.dim)

    def label(self, m: float) -> str:
        """Human-readable m label: '+1/2', '0', '-3/2', ..."""
        tm = round(2 * m)
        if self.twice_s % 2 == 0:
            return f"{tm // 2:+d}" if tm else "0"
        return f"{tm:+d}/2"


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


def u2c_phase(m: float, t: float, cfg: ExperimentConfig) -> float:
    """Phase picked up by the coefficient of component m from the
    gradient-squared spin term: -hbar gamma^2 beta^2 m^2 t^3 / (6 M).

    Even in m, cubic in time; a global (physically empty) phase for
    spin 1/2 since m^2 is then constant.  Elementwise in m and t.
    """
    if not np.greater_equal(t, 0).all():
        raise ValueError("t must be >= 0")
    g = cfg.gamma
    return -cfg.hbar * g * g * cfg.beta * cfg.beta * m * m * t**3 / (6.0 * cfg.mass)


def heisenberg_u2c_transform(S: SpinMatrices, alpha: float) -> np.ndarray:
    """Conjugate sx by the diagonal unitary U = exp(i alpha (sz/hbar)^2).

    Returns U^dagger sx U, evaluated with entrywise diagonal exponentials.
    For spin 1/2 the exponent is proportional to the identity and sx comes
    back unchanged; for s >= 1 the transform mixes sx and sy texture while
    preserving hermiticity and spectrum.
    """
    m = S.s.m_values()
    u = np.exp(1j * alpha * m * m)
    return (u.conj()[:, None] * S.sx) * u[None, :]
