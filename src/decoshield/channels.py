"""Amplitude-damping channels at finite temperature (Kraus and dilation forms).

The generalized amplitude-damping channel of {p, r} mixes decay toward |0>
(weight p) with excitation toward |1> (weight 1 - p), both of strength r.
Its fixed point is diag(p, 1 - p); p = 1 recovers plain amplitude damping.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._elementwise import check_range, namespace, np, ordered_sum
from .linalg import dagger


@dataclass(frozen=True)
class GadParams:
    """Channel pair {p, r}: excited-population weight p and damping strength r.

    p and r may also be numpy arrays that broadcast together, one channel
    per entry; the functions that take such a stack say so. Such a record
    holds both, once checked, as float64 views broadcast to one shape.
    It also holds `_transfer` = (s, u, v, w), the row-stochastic population transfer
    T = [[s, u], [v, w]] (T[i, j] moved from |i><i| to |j><j|) that the closed forms
    read; the Kraus and dilation routes never read it, so they stay independent.
    """

    p: float
    r: float

    def __post_init__(self) -> None:
        check_range(self.p, 0.0, 1.0, "p must be in [0, 1], got {}")
        check_range(self.r, 0.0, 1.0, "r must be in [0, 1], got {}")
        p, r = self.p, self.r
        if not type(p) is type(r) is float:  # the common record: no numpy call
            if isinstance(p, np.ndarray) or isinstance(r, np.ndarray):
                p, r = np.broadcast_arrays(np.asarray(p, float), np.asarray(r, float))
                vars(self).update(p=p, r=r)  # frozen: set past the dataclass's __setattr__
            _, (p, r) = namespace(p, r)  # a numpy scalar as its float, as the closed forms take it
        vars(self)["_transfer"] = 1.0 - r + p * r, (1.0 - p) * r, p * r, 1.0 - p * r


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
    return xp.assemble((
        sp, 0.0, 0.0, sp * kd,
        0.0, sp * kr, 0.0, 0.0,
        sq * kd, 0.0, 0.0, sq,
        0.0, 0.0, sq * kr, 0.0,
    ), (4, 2, 2), complex)


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
    return _kraus_sum(ops, rho, 1, 1)


def apply_on_qubit(ops: np.ndarray, rho: np.ndarray, qubit: int) -> np.ndarray:
    """Apply a single-qubit channel to one side of a two-qubit state.

    rho is a (4, 4) state or a (..., 4, 4) stack, ops a (k, 2, 2) channel or
    a (..., k, 2, 2) stack, and their leading axes broadcast together: one
    channel serves a stack of states, a stack of channels a lone state, and
    each result has the bits of the call on its own state and channel.
    """
    if ops.shape[-2:] != (2, 2) or rho.shape[-2:] != (4, 4):
        raise ValueError("expected a single-qubit channel and a 4x4 state")
    if qubit not in (0, 1):
        raise ValueError(f"qubit must be 0 or 1, got {qubit}")
    return _kraus_sum(ops, rho, (1, 2)[qubit], (2, 1)[qubit])  # (outer, qubit, inner)


def _kraus_sum(ops, rho, outer, inner):
    # sum_i E_i rho E_i^dag, E_i on the middle factor of an (outer, d, inner)
    # space: E_i[r, j] times row j of rho on axes (i, outer, r, j, inner), then
    # column c of E_i rho times conj(E_i[s, c]) on axes (i, s, c), summed over j, c in order
    d, size = ops.shape[-1], rho.shape[-1]  # size = outer * d * inner
    rows = rho.reshape(rho.shape[:-2] + (1, outer, 1, d, inner * size))
    prods = ops[..., :, None, :, :, None] * rows
    half = ordered_sum(prods[..., j, :] for j in range(d))
    cols = half.reshape(half.shape[:-3] + (size * outer, 1, d, inner))
    prods = cols * ops.conj()[..., :, None, :, :, None]
    terms = ordered_sum(prods[..., c, :] for c in range(d))
    out = ordered_sum(terms[..., i, :, :, :] for i in range(ops.shape[-3]))
    return out.reshape(out.shape[:-3] + (size, size))


def check_trace_preserving(ops: np.ndarray) -> float:
    """Max-norm completeness defect ||sum_i E_i^dag E_i - I||_max, each conj(E[c, r]) E[c, s]
    added over c, then i, in order; for a (..., k, d, d) stack of channels, the largest."""
    d, conj = ops.shape[-1], ops.conj()
    terms = ordered_sum(conj[..., c, :, None] * ops[..., c, None, :] for c in range(d))
    gram = ordered_sum(terms[..., i, :, :] for i in range(ops.shape[-3]))
    return float(np.abs(gram - np.eye(d)).max())


def apply_via_dilation(params: GadParams, rho: np.ndarray) -> np.ndarray:
    """Channel action through the system-environment unitary picture.

    Evolves rho jointly with a two-qubit environment prepared in |00>, then
    traces the environment out. Serves as an independent oracle for the
    Kraus-sum route; both must agree to machine precision. rho may be a
    (..., 2, 2) stack and p, r arrays, broadcasting as for apply_channel;
    each state gets the bits it gets on its own.
    """
    if rho.shape[-2:] != (2, 2):
        raise ValueError(f"expected a 2x2 state, got shape {rho.shape}")
    xp, (p, r) = namespace(params.p, params.r)
    # rows: system (x) two-environment-qubit states, the environment ordered
    # binary ascending |00>,|01>,|10>,|11>; columns: the images of |0>, |1>
    v = xp.assemble((
        xp.sqrt(p), 0.0, xp.sqrt((1.0 - p) * (1.0 - r)), 0.0,  # |0>|00>, |0>|01>
        0.0, xp.sqrt(p * r), 0.0, 0.0,                          # |0>|10>, |0>|11>
        0.0, xp.sqrt(p * (1.0 - r)), 0.0, xp.sqrt(1.0 - p),     # |1>|00>, |1>|01>
        0.0, 0.0, xp.sqrt((1.0 - p) * r), 0.0,                  # |1>|10>, |1>|11>
    ), (8, 2), complex)
    joint = v @ rho @ dagger(v)
    return np.trace(joint.reshape(joint.shape[:-2] + (2, 4, 2, 4)), axis1=-3, axis2=-1)
