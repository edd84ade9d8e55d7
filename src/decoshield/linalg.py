"""Dense complex linear algebra for 2x2 and 4x4 operators and density matrices."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HERMITICITY_ATOL = 1e-12
TRACE_ATOL = 1e-12
EIGENVALUE_FLOOR = -1e-10
PURITY_ATOL = 1e-10

I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
YY = np.kron(PAULI_Y, PAULI_Y)


@dataclass(frozen=True)
class PureQubit:
    """Pure qubit state by its Bloch-sphere angles (polar theta, azimuthal phi)."""

    theta: float
    phi: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta must be in [0, pi], got {self.theta}")
        if not 0.0 <= self.phi < 2.0 * math.pi:
            raise ValueError(f"phi must be in [0, 2*pi), got {self.phi}")


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return a.conj().T


def to_density(state: PureQubit) -> np.ndarray:
    """Rank-1 density matrix (I + sin t cos f X + sin t sin f Y + cos t Z) / 2."""
    st, ct = math.sin(state.theta), math.cos(state.theta)
    cf, sf = math.cos(state.phi), math.sin(state.phi)
    return 0.5 * (I2 + st * cf * PAULI_X + st * sf * PAULI_Y + ct * PAULI_Z)


def equatorial_state(phi: float) -> np.ndarray:
    """Density matrix of (|0> + e^{i phi} |1>) / sqrt(2)."""
    return to_density(PureQubit(math.pi / 2, phi % (2.0 * math.pi)))


def ket_density(ket: np.ndarray) -> np.ndarray:
    """Outer product |k><k| of a (not necessarily normalized) state vector."""
    k = np.asarray(ket, dtype=complex)
    k = k / np.linalg.norm(k)
    return np.outer(k, k.conj())


def validate_density(rho: np.ndarray) -> None:
    """Raise ValueError unless rho is Hermitian, unit-trace and positive."""
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1] or rho.shape[0] not in (2, 4):
        raise ValueError(f"expected a 2x2 or 4x4 matrix, got shape {rho.shape}")
    herm = np.abs(rho - dagger(rho)).max()
    if herm > HERMITICITY_ATOL:
        raise ValueError(f"not Hermitian: max |rho - rho^dag| = {herm:.3e}")
    tr = rho.trace()
    if abs(tr - 1.0) > TRACE_ATOL:
        raise ValueError(f"trace is {tr}, expected 1")
    w = np.linalg.eigvalsh(rho)
    if w.min() < EIGENVALUE_FLOOR:
        raise ValueError(f"negative eigenvalue {w.min():.3e}")


def fidelity(psi: np.ndarray, rho: np.ndarray) -> float:
    """Overlap <psi|rho|psi> between a pure reference state and a mixed state.

    psi is the density matrix of the pure reference; a non-pure psi
    (purity below 1 - 1e-10) is rejected.
    """
    if psi.shape != rho.shape:
        raise ValueError(f"dimension mismatch: {psi.shape} vs {rho.shape}")
    purity = float((psi @ psi).trace().real)
    if purity < 1.0 - PURITY_ATOL:
        raise ValueError(f"reference state is not pure: tr(psi^2) = {purity}")
    return float((psi @ rho).trace().real)


def _herm_sqrt(rho: np.ndarray) -> np.ndarray:
    # matrix square root via eigendecomposition; tiny negatives are clipped
    w, v = np.linalg.eigh(rho)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ dagger(v)


def wootters_concurrence(rho: np.ndarray) -> float:
    """Two-qubit concurrence from the spin-flip eigenvalue construction.

    C = max{0, l1 - l2 - l3 - l4} with l_i the descending square roots of
    the eigenvalues of rho (Y x Y) rho* (Y x Y), evaluated on the Hermitian
    equivalent sqrt(rho) (Y x Y) rho* (Y x Y) sqrt(rho).
    """
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {rho.shape}")
    eig_rho = np.linalg.eigvalsh(rho)
    if eig_rho.min() < EIGENVALUE_FLOOR:
        raise ValueError(f"state is not positive: eigenvalue {eig_rho.min():.3e}")
    root = _herm_sqrt(rho)
    flipped = YY @ rho.conj() @ YY
    w = np.linalg.eigvalsh(root @ flipped @ root)
    w = np.clip(w, 0.0, None)
    lam = np.sort(np.sqrt(w))[::-1]
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))
