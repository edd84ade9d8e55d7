"""Amplitude-damping channels at finite temperature (Kraus and dilation forms).

The generalized amplitude-damping channel of {p, r} mixes decay toward |0>
(weight p) with excitation toward |1> (weight 1 - p), both of strength r.
Its fixed point is diag(p, 1 - p); p = 1 recovers plain amplitude damping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._elementwise import SCALAR, first_failure, namespace, ordered_sum, stack_matmul
from .linalg import dagger


@dataclass(frozen=True)
class GadParams:
    """Channel pair {p, r}: excited-population weight p and damping strength r.

    p and r may also be numpy arrays that broadcast together, one channel
    per entry; the functions that take such a stack say so.
    """

    p: float
    r: float

    def __post_init__(self) -> None:
        for name, value in (("p", self.p), ("r", self.r)):
            ok = (0.0 <= value) & (value <= 1.0)
            if ok is not True:  # a valid Python float skips the call below
                failed = first_failure(value, ok)
                if failed is not None:
                    raise ValueError(f"{name} must be in [0, 1], got {failed}")
        if isinstance(self.p, np.ndarray) or isinstance(self.r, np.ndarray):
            np.broadcast_shapes(np.shape(self.p), np.shape(self.r))


# for each qubit, the order of the (a, b, a', b') axes of a two-qubit state
# that puts the other qubit's pair first and this qubit's pair last, and the
# order that undoes it
_BLOCK_ORDER = (((1, 3, 0, 2), (2, 0, 3, 1)), ((0, 2, 1, 3), (0, 2, 1, 3)))


def gad_channel(params: GadParams) -> np.ndarray:
    """The four Kraus operators of the generalized amplitude-damping
    channel, as one (4, 2, 2) stack in operator order; a (..., 4, 2, 2)
    stack of channels when p and r are arrays.

    With p = 1 the two excitation operators vanish and the set reduces to
    the zero-temperature amplitude-damping pair.
    """
    xp, (p, r) = namespace(params.p, params.r)
    sp, sq = xp.sqrt(p), xp.sqrt(1.0 - p)
    kr, kd = xp.sqrt(r), xp.sqrt(1.0 - r)
    if xp is SCALAR:
        # the sixteen entries of the (4, 2, 2) stack, in C order
        return np.array((
            sp, 0.0, 0.0, sp * kd,
            0.0, sp * kr, 0.0, 0.0,
            sq * kd, 0.0, 0.0, sq,
            0.0, 0.0, sq * kr, 0.0,
        ), dtype=complex).reshape(4, 2, 2)
    # a stack of channels: its six nonzero entries, written into zeros
    ops = np.zeros(np.broadcast_shapes(np.shape(p), np.shape(r)) + (4, 2, 2), dtype=complex)
    ops[..., 0, 0, 0] = sp
    ops[..., 0, 1, 1] = sp * kd
    ops[..., 1, 0, 1] = sp * kr
    ops[..., 2, 0, 0] = sq * kd
    ops[..., 2, 1, 1] = sq
    ops[..., 3, 1, 0] = sq * kr
    return ops


def apply_channel(ops: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Kraus sum sum_i E_i rho E_i^dag, the terms added in operator order.

    ops is a (k, d, d) operator stack and rho a (d, d) state or a
    (..., d, d) stack of them. ops may also be a (..., k, d, d) stack of
    channels, whose leading axes broadcast against the states'. Each state
    in a stack gets the bits it gets on its own.
    """
    dim = ops.shape[-1]
    if rho.shape[-2:] != (dim, dim):
        raise ValueError(f"dimension mismatch: channel {dim}, rho {rho.shape}")
    terms = stack_matmul(stack_matmul(ops, rho[..., None, :, :]), dagger(ops))
    return ordered_sum(terms[..., i, :, :] for i in range(ops.shape[-3]))


def apply_on_qubit(ops: np.ndarray, rho: np.ndarray, qubit: int) -> np.ndarray:
    """Apply a single-qubit channel to one side of a two-qubit state, or of
    each state in a (..., 4, 4) stack; ops is one channel or a stack of
    them, as for apply_channel.

    The state is viewed as (..., a, b, a', b') and transposed so that the
    qubit's row and column indices come last: each 2x2 block over them is
    one state for apply_channel.
    """
    if ops.shape[-2:] != (2, 2) or rho.shape[-2:] != (4, 4):
        raise ValueError("expected a single-qubit channel and a 4x4 state")
    if qubit not in (0, 1):
        raise ValueError(f"qubit must be 0 or 1, got {qubit}")
    lead = tuple(range(rho.ndim - 2))
    to_blocks, back = (lead + tuple(len(lead) + i for i in axes) for axes in _BLOCK_ORDER[qubit])
    blocks = rho.reshape(rho.shape[:-2] + (2, 2, 2, 2)).transpose(to_blocks)
    # the channel is the same for the 2x2 blocks of one state
    out = apply_channel(ops[..., None, None, :, :, :], blocks)
    return out.transpose(back).reshape(rho.shape)


def check_trace_preserving(ops: np.ndarray) -> float:
    """Max-norm completeness defect ||sum E^dag E - I||_max."""
    acc = ordered_sum(stack_matmul(dagger(ops), ops))
    return float(np.abs(acc - np.eye(ops.shape[-1])).max())


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
