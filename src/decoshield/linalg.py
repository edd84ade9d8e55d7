"""Dense complex linear algebra for 2x2 and 4x4 operators and density matrices."""

from __future__ import annotations

import functools
import math

from ._elementwise import check_azimuth, namespace, np, real_trace, reject

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
    """Density matrix of (|0> + e^{i phi} |1>) / sqrt(2), for a finite real phi;
    a (..., 2, 2) stack for an array of azimuths, each matrix with the bits
    of its lone call (libm's cos and sin at every entry).

    The Bloch form (I + cos(theta) Z + sin(theta) (cos(phi) X + sin(phi) Y)) / 2
    at polar angle theta = pi/2, with the float cos(pi/2) = 6.1e-17 kept on
    the diagonal: the bits of bb84_error_rate that tests/data/pipeline_bits.json
    records were computed with it.
    """
    xp, (phi,) = namespace(check_azimuth(phi))
    phi = phi % (2.0 * math.pi)
    coherence = xp.complex(0.5 * xp.cos(phi), -0.5 * xp.sin(phi))
    return xp.assemble((
        0.5 * (1.0 + _COS_EQUATOR), coherence,
        coherence.conjugate(), 0.5 * (1.0 - _COS_EQUATOR),
    ), (2, 2), complex)


def validate_density(rho: np.ndarray) -> None:
    """Raise ValueError unless rho is Hermitian, unit-trace and positive (NaN
    fails); for a (..., d, d) stack, unless every matrix is. Each test runs
    on the whole stack, in that order, and names the value of the first
    matrix that fails it."""
    rho = np.asarray(rho)
    if rho.ndim < 2 or rho.shape[-2] != rho.shape[-1] or rho.shape[-1] not in (2, 4):
        raise ValueError(f"expected a 2x2 or 4x4 matrix, got shape {rho.shape}")
    herm = np.abs(rho - dagger(rho)).max((-2, -1))
    message = "not Hermitian: max |rho - rho^dag| = {:.3e}"
    reject(herm <= HERMITICITY_ATOL, ValueError, message, herm)
    tr = rho.trace(0, -2, -1)
    reject(abs(tr - 1.0) <= TRACE_ATOL, ValueError, "trace is {}, expected 1", tr)
    low = np.linalg.eigvalsh(rho).min(-1)
    reject(low >= EIGENVALUE_FLOOR, ValueError, "negative eigenvalue {:.3e}", low)


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
