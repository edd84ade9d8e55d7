"""Amplitude-damping channels at finite temperature (Kraus and dilation forms).

The generalized amplitude-damping channel of {p, r} mixes decay toward |0>
(weight p) with excitation toward |1> (weight 1 - p), both of strength r.
Its fixed point is diag(p, 1 - p); p = 1 recovers plain amplitude damping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import dagger, I2


@dataclass(frozen=True)
class GadParams:
    """Channel pair {p, r}: excited-population weight p and damping strength r."""

    p: float
    r: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {self.p}")
        if not 0.0 <= self.r <= 1.0:
            raise ValueError(f"r must be in [0, 1], got {self.r}")


@dataclass(frozen=True)
class KrausChannel:
    """Ordered Kraus operators; complete sets satisfy sum E^dag E = I."""

    operators: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        dims = {op.shape for op in self.operators}
        if len(dims) != 1:
            raise ValueError(f"mixed operator shapes: {dims}")

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]


def gad_channel(params: GadParams) -> KrausChannel:
    """Four Kraus operators of the generalized amplitude-damping channel.

    With p = 1 the two excitation operators vanish and the set reduces to
    the zero-temperature amplitude-damping pair.
    """
    p, r = params.p, params.r
    sp, sq = np.sqrt(p), np.sqrt(1.0 - p)
    kr, kd = np.sqrt(r), np.sqrt(1.0 - r)
    e0 = sp * np.array([[1, 0], [0, kd]], dtype=complex)
    e1 = sp * np.array([[0, kr], [0, 0]], dtype=complex)
    e2 = sq * np.array([[kd, 0], [0, 1]], dtype=complex)
    e3 = sq * np.array([[0, 0], [kr, 0]], dtype=complex)
    return KrausChannel((e0, e1, e2, e3))


def apply_channel(ch: KrausChannel, rho: np.ndarray) -> np.ndarray:
    """Kraus sum: sum_i E_i rho E_i^dag."""
    if rho.shape != (ch.dim, ch.dim):
        raise ValueError(f"dimension mismatch: channel {ch.dim}, rho {rho.shape}")
    out = np.zeros_like(rho, dtype=complex)
    for op in ch.operators:
        out += op @ rho @ dagger(op)
    return out


def apply_on_qubit(ch: KrausChannel, rho: np.ndarray, qubit: int) -> np.ndarray:
    """Apply a single-qubit channel to one side of a two-qubit state."""
    if ch.dim != 2 or rho.shape != (4, 4):
        raise ValueError("expected a single-qubit channel and a 4x4 state")
    if qubit not in (0, 1):
        raise ValueError(f"qubit must be 0 or 1, got {qubit}")
    lifted = tuple(
        np.kron(op, I2) if qubit == 0 else np.kron(I2, op) for op in ch.operators
    )
    return apply_channel(KrausChannel(lifted), rho)


def check_trace_preserving(ch: KrausChannel) -> float:
    """Max-norm completeness defect ||sum E^dag E - I||_max."""
    acc = np.zeros((ch.dim, ch.dim), dtype=complex)
    for op in ch.operators:
        acc += dagger(op) @ op
    return float(np.abs(acc - np.eye(ch.dim)).max())


def _dilation_isometry(params: GadParams) -> np.ndarray:
    # columns are the images of |0> and |1> in system (x) two-environment-qubit
    # space; environment basis ordered binary ascending |00>,|01>,|10>,|11>
    p, r = params.p, params.r
    v = np.zeros((8, 2), dtype=complex)
    v[0, 0] = np.sqrt(p)                          # |0>|00>
    v[1, 0] = np.sqrt((1.0 - p) * (1.0 - r))      # |0>|01>
    v[7, 0] = np.sqrt((1.0 - p) * r)              # |1>|11>
    v[4, 1] = np.sqrt(p * (1.0 - r))              # |1>|00>
    v[2, 1] = np.sqrt(p * r)                      # |0>|10>
    v[5, 1] = np.sqrt(1.0 - p)                    # |1>|01>
    return v


def apply_via_dilation(params: GadParams, rho: np.ndarray) -> np.ndarray:
    """Channel action through the system-environment unitary picture.

    Evolves rho jointly with a two-qubit environment prepared in |00>, then
    traces the environment out. Serves as an independent oracle for the
    Kraus-sum route; both must agree to machine precision.
    """
    if rho.shape != (2, 2):
        raise ValueError(f"expected a 2x2 state, got shape {rho.shape}")
    v = _dilation_isometry(params)
    joint = v @ rho @ dagger(v)
    return np.trace(joint.reshape(2, 4, 2, 4), axis1=1, axis2=3)
