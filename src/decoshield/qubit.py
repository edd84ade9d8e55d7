"""Single-qubit protection: weak measurement, damping channel, reversal.

Closed forms for the fidelity of recovered equatorial states, the optimal
measurement strengths, the key-distribution error rate and the six-state
average fidelity. Every closed form here has an independent route through
the generic channel/measurement pipeline for cross-checking.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

from ._elementwise import (
    FLOAT_MAX, SCALAR, SQUARE_MAX, SQUARE_MIN, check_azimuth, check_finite, check_strength,
    namespace, np, ordered_sum, quietly, reject,
)
from .channels import GadParams, gad_channel
from .linalg import equatorial_state, fidelity
from .weakmeas import MIN_POSTSELECT_PROB, measure_damp_reverse, require_postselection

# azimuths of the four key-distribution states and, for each state, the
# index of its conjugate partner (azimuth shifted by pi)
BB84_AZIMUTHS = (0.0, math.pi, 0.5 * math.pi, 1.5 * math.pi)
BB84_PARTNERS = (1, 0, 3, 2)
_TINY = math.ulp(0.0)  # the least positive float


@functools.cache
def _bb84_states() -> np.ndarray:
    """Their density matrices, one stack built on first use; `fidelity`
    checks on every call that each is pure, as a reference must be."""
    return equatorial_state(np.array(BB84_AZIMUTHS))


@dataclass(frozen=True)
class ProtectionResult:
    """Outcome of protecting one equatorial state; its own __init__ stores it
    unchecked, as protect_equatorial built it. output_state, the protected
    density matrix, is built on first read from `_entries`, so a caller
    that reads only the fidelity and success probability never builds it."""

    fidelity: float
    success_prob: float
    _entries: tuple = field(repr=False, compare=False)

    def __init__(self, fidelity: float, success_prob: float, _entries: tuple) -> None:
        vars(self).update(fidelity=fidelity, success_prob=success_prob, _entries=_entries)

    @functools.cached_property
    def output_state(self) -> np.ndarray:
        diag0, diag1, coherence, phi, t = self._entries
        xp, (t, phi) = namespace(t, phi)
        # coherence e^{-i phi}, with libm's cos and sin at every entry
        off = xp.complex(coherence * xp.cos(-phi), coherence * xp.sin(-phi))
        state = xp.assemble((diag0, off, off.conjugate(), diag1), (2, 2), complex)
        state /= xp.per_matrix(t)  # in place: on a grid, the largest array here
        return state


@dataclass(frozen=True)
class OptimalStrengths:
    m: float
    n: float
    f_max: float
    projective: bool = False


@dataclass(frozen=True)
class AverageFidelityReport:
    """Per-state fidelities over the six symmetric input states and their mean."""

    f0: float
    f1: float
    fe: float
    favg: float


def baseline_fidelity(params: GadParams) -> float:
    """Fidelity (1 + sqrt(1 - r)) / 2 of an unprotected equatorial state;
    an array for an array of channels."""
    xp, (_, r) = namespace(params.p, params.r)
    return 0.5 * (1.0 + xp.sqrt(1.0 - r))


def apply_protection(
    params: GadParams, m: float, n: float, rho: np.ndarray
) -> tuple[np.ndarray, float]:
    """Generic route: pre-measure diag(1, m), damp, reverse with diag(n, 1),
    as weakmeas.measure_damp_reverse on the channel's Kraus stack.

    Returns the post-selected state and the joint success probability, held
    to the cutoff once. m, n, the channel's p, r and rho, a (..., 2, 2)
    stack, may all be arrays that broadcast together: a stack of states and
    an array of probabilities, each entry with the bits of the scalar call.
    """
    return measure_damp_reverse(rho, (m,), (n,), (gad_channel(params),))


def protect_equatorial(
    params: GadParams, m: float, n: float, phi: float = 0.0
) -> ProtectionResult:
    """Closed-form protected state for the equatorial input with azimuth phi.

    The output density matrix, its fidelity against the input and the
    success probability (T/2 suppressed by 1/c^2 for every strength c > 1)
    are all evaluated from the analytic expressions, the matrix when it is
    first read; a success probability below the cutoff raises
    PostSelectionError, as the pipeline does.

    Scalar in, float out; array in, array out: m, n, p, r and phi may be
    numpy arrays that broadcast together. The fidelity and the success
    probability do not depend on phi and take the shape of m, n, p and r;
    output_state takes the shape of all five, as (..., 2, 2). Each entry
    equals the scalar call at that point bit for bit.
    """
    xp, p, r = SCALAR, params.p, params.r
    if not (type(p) is type(r) is type(m) is type(n) is type(phi) is float  # the all-float call
            and SQUARE_MIN <= m <= SQUARE_MAX and SQUARE_MIN <= n <= SQUARE_MAX
            and -FLOAT_MAX <= phi <= FLOAT_MAX):  # passes only what the checks below pass
        xp, (p, r, m, n) = namespace(p, r, m, n)
        if xp.loud():
            return quietly(protect_equatorial, params, m, n, phi)
        m = check_strength("m", m)
        n = check_strength("n", n)
        check_azimuth(phi)
    _, u, v, w = params._transfer
    diag0 = n * n * (v * m * m + v - r + 1.0)
    lost = m * m * w
    t = diag0 + lost + u
    if (t <= FLOAT_MAX) is not True:  # a finite float skips the call
        check_finite(t, "m, n", m, n)
    success = 0.5 * t * xp.minimum(1.0, 1.0 / (m * m)) * xp.minimum(1.0, 1.0 / (n * n))
    if (success >= MIN_POSTSELECT_PROB) is not True:
        require_postselection(success)
    coherence = m * n * xp.sqrt(1.0 - r)
    return ProtectionResult(0.5 + coherence / t, success, (diag0, lost + u, coherence, phi, t))


def qkd_error_rate(params: GadParams, m: float, n: float) -> float:
    """Average error rate of the four equatorial key-distribution states,
    1 - protect_equatorial(params, m, n).fidelity, as a sum of non-negative
    terms: it never comes out negative, and keeps its relative accuracy near
    zero, where 1/2 - c/t cancels.

    With a = 1 - r + pr + m^2 pr, b = 1 - pr and k = sqrt(1 - r), the
    output's trace is t = n^2 a + m^2 b + (1 - p) r and its coherence
    c = mnk. The rate is (t - 2c) / (2t), with t = (t - 2c) + 2c and

        t - 2c = (n sqrt(a) - m sqrt(b))^2 + 2mn (sqrt(ab) - k) + (1 - p) r,
        sqrt(ab) - k = (p (1 - p) r^2 + m^2 pr b) / (sqrt(ab) + k).

    Where a and b are at least 1/4, the difference of roots is taken as
    n - m - n (1 - sqrt(a)) + m (1 - sqrt(b)), with 1 - sqrt(x) as
    (1 - x) / (1 + sqrt(x)), which keeps it accurate when r or p is small.

    Refuses what protect_equatorial refuses. Scalar in, float out; array in,
    array out, as protect_equatorial, each entry equal to the scalar call at
    that point bit for bit. bb84_error_rate is its independent route.
    """
    xp, (p, r, m, n) = namespace(params.p, params.r, m, n)
    # its refusals: the strengths, a trace that overflows and a void run
    protect_equatorial(params, m, n)
    m, n = m * 1.0, n * 1.0  # an int as the float protect_equatorial takes it for
    # a, b (as (1 - p) + p (1 - r)) and the gap sum non-negative terms, each to a few ulps
    s, u, v, _ = params._transfer
    a = s + m * m * v
    b = 1.0 - p + p * (1.0 - r)
    k = xp.sqrt(1.0 - r)
    root_a, root_b = xp.sqrt(a), xp.sqrt(b)
    far = n * root_a - m * root_b
    near = n - m - n * ((u - m * m * v) / (1.0 + root_a)) + m * (v / (1.0 + root_b))
    diff = xp.where((a >= 0.25) & (b >= 0.25), near, far)
    # the denominator is 0 only where the numerator is (r = 1, p in {0, 1}):
    # the floor keeps 0 / 0 out and changes no other quotient
    slope = (p * (1.0 - p) * r * r + m * m * v * b) / xp.maximum(xp.sqrt(a * b) + k, _TINY)
    # m n slope is at most t / 2 and no term passes t, a kept run's positive trace; a
    # root past 2^511 puts t near the float maximum: the terms are quartered, exactly
    h = xp.where(xp.maximum(n * root_a, m * root_b) <= 2.0 ** 511, 1.0, 0.5)
    diff, twice = diff * h, h * h * 2.0
    gap = diff * diff + m * n * slope * twice + u * (h * h)
    return gap / (gap + m * n * k * twice) * 0.5  # halved last: gap may be subnormal


def optimal_strengths(params: GadParams) -> OptimalStrengths:
    """Measurement strengths maximizing the equatorial fidelity.

        m = [(1-p)(1-r+pr) / (p(1-pr))]^(1/4)
        n = [(1-p)(1-pr) / (p(1-r+pr))]^(1/4)

    At p = 1 both collapse to zero (projective limit, flagged) and the
    maximal fidelity is exactly 1. p = 0 is rejected: m diverges and the
    channel becomes pure excitation, outside this scheme. So is a p so small
    that p (1 - r + pr) underflows, to zero or so near it that m or n overflows.

    For an array of channels every field is an array, each entry equal to
    the scalar call on that channel bit for bit; the call raises when any
    channel would, naming the first such channel for the underflow.
    """
    xp, (p, r) = namespace(params.p, params.r)
    if xp.loud():
        return quietly(optimal_strengths, params)
    reject(p != 0.0, ValueError, "p = 0: optimal pre-measurement strength diverges")
    reject((p != 1.0) | (r != 1.0), ValueError, "p = 1 with r = 1: optimum is degenerate")
    s, _, _, w = params._transfer
    # a tiny p underflows p s, e.g. p^2 at r = 1; p and r are named as floats
    message = "p = {!r} with r = {!r}: optimal reversal strength overflows"
    reject(p * s != 0.0, ValueError, message, p * 1.0, r * 1.0)
    m = xp.pow((1.0 - p) * s / (p * w), 0.25)
    n = xp.pow((1.0 - p) * w / (p * s), 0.25)
    reject((m <= FLOAT_MAX) & (n <= FLOAT_MAX), ValueError, message, p * 1.0, r * 1.0)
    f_max = 0.5 * (1.0 + xp.sqrt(1.0 - r) / g_value(params))
    return OptimalStrengths(m, n, f_max, projective=(p == 1.0))


def g_value(params: GadParams) -> float:
    """Fidelity penalty factor sqrt((1-rp)(1-r+rp)) + r sqrt(p(1-p)).

    Equals 1 exactly when r = 0 or p = 1/2 (no gain from weak measurement)
    and dips to sqrt(1-r) at p in {0, 1}. An array for an array of channels.
    """
    xp, (p, r) = namespace(params.p, params.r)
    s, _, _, w = params._transfer
    return xp.sqrt(w * s) + r * xp.sqrt(p * (1.0 - p))


def bb84_error_rate(params: GadParams, m: float, n: float) -> float:
    """Average error rate over the four equatorial key-distribution states.

    Each basis state is pushed through the full measure/damp/reverse
    pipeline; the error term of a state is the overlap leaking into its
    conjugate partner (azimuth shifted by pi), normalized per pair. The
    independent route for qkd_error_rate, which the CLI sweeps.

    Scalar in, float out; array in, array out: m, n and the channel
    parameters p, r may be arrays that broadcast together, each entry equal
    to the scalar call at that point bit for bit.
    """
    _, (m, n) = namespace(m, n)
    m = check_strength("m", m)
    n = check_strength("n", n)
    # the four states run as one stack, on an axis after the other axes;
    # the channel, or each channel of a stack, serves all four
    states = _bb84_states()
    outputs, _ = measure_damp_reverse(
        states, (np.asarray(m)[..., None],), (np.asarray(n)[..., None],),
        (gad_channel(params)[..., None, :, :, :],),
    )
    own = fidelity(states, outputs)
    leaked = fidelity(states, outputs[..., BB84_PARTNERS, :, :])
    terms = leaked / (own + leaked)
    error = ordered_sum(terms[..., i] for i in range(len(BB84_AZIMUTHS))) / len(BB84_AZIMUTHS)
    return namespace(error)[1][0]  # one point's numpy scalar as a float


def average_fidelity_six(params: GadParams, m: float, n: float) -> AverageFidelityReport:
    """Fidelities of the six symmetric states |0>, |1> and the four equatorials.

    f0 and f1 are the pole-state fidelities after protection, fe the common
    equatorial one; favg weights the equator four-fold. Takes scalars or
    broadcasting arrays like protect_equatorial, which validates m and n.
    """
    xp, (p, r, m, n) = namespace(params.p, params.r, m, n)
    fe = protect_equatorial(params, m, n).fidelity
    m, n = xp.broadcast(m, n)  # f0 and f1 do not depend on m
    s, _, _, w = params._transfer
    f0 = n * n * s / (r - r * p + n * n * s)
    f1 = w / (w + n * n * r * p)
    return AverageFidelityReport(f0, f1, fe, (f0 + f1 + 4.0 * fe) / 6.0)
