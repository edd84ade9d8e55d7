"""Diagonal weak measurements and their post-selected application.

A pre-channel measurement diag(1, m) partially collapses toward |0>;
a post-channel reversal diag(n, 1) undoes the collapse probabilistically.
Two-qubit variants are tensor products of the single-qubit forms.
measure_damp_reverse runs the protocol from its strengths and channels, and
apply_postselected applies one measurement given by its raw diagonal.
"""

from __future__ import annotations

import functools

from ._elementwise import (
    FLOAT_MAX, check_finite, check_range, namespace, np, quietly, real_trace, reject,
)
from .channels import apply_channel, apply_on_qubit

MIN_POSTSELECT_PROB = 1e-14
_BAD_STRENGTH = "strengths must be finite and non-negative, got {!r}"


class PostSelectionError(ValueError):
    """Raised when the post-selected outcome has (numerically) zero probability."""


def require_postselection(prob):
    """The success probability prob, scalar or array, once every entry
    reaches MIN_POSTSELECT_PROB; otherwise PostSelectionError names the
    first entry that does not (NaN included).

    The one post-selection rule of the package: every route applies it to
    the joint probability of both outcomes, or to a probability that can
    only be larger, such as one stage's or an unrescaled trace.
    """
    ok = prob >= MIN_POSTSELECT_PROB
    if ok is not True:  # a passing Python float skips the call below
        reject(ok, PostSelectionError, "success probability {} below cutoff", prob)
    return prob


def _tensored(strengths, name) -> np.ndarray:
    """Diagonal of diag(1, s) on each qubit, tensored together, the first
    strength on the leftmost factor; reversed, that of diag(s, 1). Array
    strengths broadcast to a (..., 2 ** len(strengths)) stack of diagonals."""
    xp, strengths = namespace(*strengths)
    if len(strengths) > 1 and xp.loud():  # only a product of strengths can overflow
        return quietly(_tensored, strengths, name)
    entries = [1.0]  # kron order: entry i of the running product spawns entries 2i and 2i + 1
    for strength in strengths:  # an int past the float range is named with its value
        if not (type(strength) is float and 0.0 <= strength <= FLOAT_MAX):  # floats skip the call
            check_range(strength, 0.0, FLOAT_MAX, _BAD_STRENGTH)
        entries = [entry * x for entry in entries for x in (1.0, strength)]
    top = functools.reduce(xp.maximum, entries[2:], 1.0)  # past 1.0 and the last strength
    if (top <= FLOAT_MAX) is not True:
        check_finite(top, ", ".join(f"{name}{i + 1}" for i in range(len(strengths))), *strengths)
    return xp.assemble(entries, (len(entries),), float)


def measure_damp_reverse(rho: np.ndarray, m: tuple, n: tuple, channels) -> tuple[np.ndarray, float]:
    """The generic protection route: measure diag(1, m) on each qubit of rho,
    apply its channel, a Kraus stack, then reverse with diag(n, 1). Returns the
    state and the joint success probability of both outcomes, which must reach
    the cutoff. m, n and channels hold one entry per qubit, strengths float or
    array; they and rho broadcast as for apply_postselected and apply_on_qubit."""
    state, prob_pre = _postselect(_tensored(m, "m"), rho)
    reverse = _tensored(n, "n")[..., ::-1]  # checked before any channel is applied
    if len(channels) != len(m):
        raise ValueError(f"expected one channel per qubit ({len(m)}), got {len(channels)}")
    for qubit, ops in enumerate(channels):
        state = apply_channel(ops, state) if len(m) == 1 else apply_on_qubit(ops, state, qubit)
    state, prob_post = _postselect(reverse, state)
    return state, require_postselection(prob_pre * prob_post)


def apply_postselected(diagonal, rho: np.ndarray) -> tuple[np.ndarray, float]:
    """Post-selected update (K rho K^dag / w, w) of the diagonal measurement
    given by its raw entries, with K its physical form.

    The physical form rescales the diagonal by 1 / max(1, entries), so that
    K^dag K <= I; entries <= 1 are left untouched. The probability
    w = tr(K rho K^dag) uses the rescaled operator, so a strength c > 1
    suppresses the outcome by 1/c^2. A w below MIN_POSTSELECT_PROB raises
    PostSelectionError, which measure_damp_reverse applies to both outcomes.

    diagonal has shape (..., d) and rho (..., d, d); stacks broadcast
    together and give a stack of states and an array of probabilities.
    """
    state, prob = _postselect(check_range(np.asarray(diagonal), 0.0, FLOAT_MAX, _BAD_STRENGTH), rho)
    return state, require_postselection(prob)


def _postselect(diagonal, rho: np.ndarray) -> tuple[np.ndarray, float]:
    # apply_postselected without its entry checks and cutoff; a void outcome
    # keeps its zero weight unnormalized, so a joint probability reads 0, not NaN
    diagonal = np.asarray(diagonal, dtype=float)
    dim = diagonal.shape[-1]
    if rho.shape[-2:] != (dim, dim):
        raise ValueError(f"dimension mismatch: diagonal of {dim} vs rho {rho.shape}")
    k = diagonal * (1.0 / (max(1.0, *diagonal.tolist()) if diagonal.ndim == 1 else
                           np.maximum.reduce(diagonal, axis=-1, keepdims=True, initial=1.0)))
    # row by row, then column by column: K rho K^dag with no zero terms
    k = k.astype(np.result_type(rho, k))  # cast once, not in both products
    raw = rho * k[..., :, None] * k[..., None, :]
    prob = real_trace(raw)
    if isinstance(prob, np.ndarray):
        return raw / np.where(prob > 0.0, prob, 1.0)[..., None, None], prob
    return raw / (prob if prob > 0.0 else 1.0), prob
