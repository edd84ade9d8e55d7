"""Dense complex linear algebra for 2x2 and 4x4 operators and density matrices."""

from __future__ import annotations

import functools
import math

from ._elementwise import check_azimuth, np, real_trace, reject

HERMITICITY_ATOL = 1e-12
TRACE_ATOL = 1e-12
EIGENVALUE_FLOOR = -1e-10
PURITY_ATOL = 1e-10

_COS_EQUATOR = math.cos(0.5 * math.pi)


@functools.cache
def _yy() -> np.ndarray:
    """Y (x) Y, the spin flip of two qubits, built on first use."""
    pauli_y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    return np.kron(pauli_y, pauli_y)


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose, of each matrix in a (..., d, d) stack."""
    return a.conj().swapaxes(-1, -2)


def equatorial_state(phi: float) -> np.ndarray:
    """Density matrix of (|0> + e^{i phi} |1>) / sqrt(2), for a finite real phi.

    The Bloch form (I + cos(theta) Z + sin(theta) (cos(phi) X + sin(phi) Y)) / 2
    at polar angle theta = pi/2, with the float cos(pi/2) = 6.1e-17 kept on
    the diagonal: the bits of bb84_error_rate that tests/data/pipeline_bits.json
    records were computed with it.
    """
    check_azimuth(phi)
    phi %= 2.0 * math.pi
    coherence = complex(0.5 * math.cos(phi), -0.5 * math.sin(phi))
    return np.array([
        [0.5 * (1.0 + _COS_EQUATOR), coherence],
        [coherence.conjugate(), 0.5 * (1.0 - _COS_EQUATOR)],
    ])


def validate_density(rho: np.ndarray) -> None:
    """Raise ValueError unless rho is Hermitian, unit-trace and positive (NaN fails)."""
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1] or rho.shape[0] not in (2, 4):
        raise ValueError(f"expected a 2x2 or 4x4 matrix, got shape {rho.shape}")
    herm = np.abs(rho - dagger(rho)).max()
    if not herm <= HERMITICITY_ATOL:  # each test written so that NaN fails
        raise ValueError(f"not Hermitian: max |rho - rho^dag| = {herm:.3e}")
    tr = rho.trace()
    if not abs(tr - 1.0) <= TRACE_ATOL:
        raise ValueError(f"trace is {tr}, expected 1")
    w = np.linalg.eigvalsh(rho)
    if not w.min() >= EIGENVALUE_FLOOR:
        raise ValueError(f"negative eigenvalue {w.min():.3e}")


def fidelity(psi: np.ndarray, rho: np.ndarray):
    """Overlap <psi|rho|psi> = tr(psi rho) between a pure reference state and
    a mixed state.

    psi is the density matrix of the pure reference; a non-pure psi
    (purity below 1 - 1e-10) is rejected. psi and rho may be (..., d, d)
    stacks that broadcast together: two matrices give a float, stacks an
    array of overlaps, each with the bits of the call on its two matrices.
    """
    if psi.shape[-2:] != rho.shape[-2:]:
        raise ValueError(f"dimension mismatch: {psi.shape} vs {rho.shape}")
    purity = real_trace(psi @ psi)
    message = "reference state is not pure: tr(psi^2) = {}"
    reject(purity >= 1.0 - PURITY_ATOL, ValueError, message, purity)
    # matmul hands each contiguous matrix, alone or in a stack, to the same
    # BLAS call, as the recorded outputs were computed
    return real_trace(psi @ rho)


def wootters_concurrence(rho: np.ndarray):
    """Two-qubit concurrence from the spin-flip eigenvalue construction.

    C = max{0, l1 - l2 - l3 - l4} with l_i the descending square roots of
    the eigenvalues of rho (Y x Y) rho* (Y x Y), evaluated on the Hermitian
    equivalent sqrt(rho) (Y x Y) rho* (Y x Y) sqrt(rho). One matrix gives a
    float, a (..., 4, 4) stack an array, each with the bits of its lone call.
    """
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {rho.shape}")
    # eigh on a NaN or inf entry fails without naming it
    reject(np.isfinite(rho), ValueError, "rho must be finite, got {!r}", rho)
    # one eigendecomposition serves the check and the root; tiny negatives pass and are clipped
    w, v = np.linalg.eigh(rho)
    if w.min() < EIGENVALUE_FLOOR:
        raise ValueError(f"state is not positive: eigenvalue {w.min():.3e}")
    root = (v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ dagger(v)
    yy = _yy()
    flipped = yy @ rho.conj() @ yy
    w = np.linalg.eigvalsh(root @ flipped @ root)
    w = np.clip(w, 0.0, None)
    lam = np.sort(np.sqrt(w))[..., ::-1]
    c = lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3]
    c = np.where(c > 0.0, c, 0.0)  # max(0.0, c) at each matrix
    return float(c) if c.ndim == 0 else c
