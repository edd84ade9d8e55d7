"""Single-qubit protection: weak measurement, damping channel, reversal.

Closed forms for the fidelity of recovered equatorial states, the optimal
measurement strengths, the key-distribution error rate and the six-state
average fidelity. Every closed form here has an independent route through
the generic channel/measurement pipeline for cross-checking.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from ._elementwise import ARRAY, SCALAR, check_strength
from .channels import GadParams, apply_channel, gad_channel
from .linalg import equatorial_state, fidelity
from .weakmeas import WeakMeasurement, apply_postselected, require_postselection


@dataclass(frozen=True)
class ProtectionResult:
    """Outcome of protecting one equatorial state."""

    fidelity: float
    success_prob: float
    output_state: np.ndarray


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
    """Fidelity (1 + sqrt(1 - r)) / 2 of an unprotected equatorial state."""
    return 0.5 * (1.0 + math.sqrt(1.0 - params.r))


def apply_protection(
    params: GadParams, m: float, n: float, rho: np.ndarray
) -> tuple[np.ndarray, float]:
    """Generic route: pre-measure diag(1, m), damp, reverse with diag(n, 1).

    Returns the post-selected output state and the joint success probability.
    """
    state, prob_pre = apply_postselected(WeakMeasurement.pre(m), rho)
    state = apply_channel(gad_channel(params), state)
    state, prob_post = apply_postselected(WeakMeasurement.post(n), state)
    return state, require_postselection(prob_pre * prob_post)


def protect_equatorial(
    params: GadParams, m: float, n: float, phi: float = 0.0
) -> ProtectionResult:
    """Closed-form protected state for the equatorial input with azimuth phi.

    The output density matrix, its fidelity against the input and the
    success probability (T/2 suppressed by 1/c^2 for every strength c > 1)
    are all evaluated from the analytic expressions; a success probability
    below the cutoff raises PostSelectionError, as the pipeline does.

    Scalar in, float out; array in, array out: m and n may be numpy arrays
    that broadcast together (phi stays a scalar), and then every field is
    an array of their shape, with output_state of shape (..., 2, 2). Each
    entry equals the scalar call at that point bit for bit.
    """
    array = isinstance(m, np.ndarray) or isinstance(n, np.ndarray)
    # scalar fast path of the checks that check_strength spells out
    if array or not (0.0 < m * m < math.inf and 0.0 < n * n < math.inf and m > 0.0 < n):
        check_strength("m", m)
        check_strength("n", n)
    p, r = params.p, params.r
    kd = math.sqrt(1.0 - r)
    xp = ARRAY if array else SCALAR
    diag0 = n * n * (p * r * m * m + p * r - r + 1.0)
    lost = m * m * (1.0 - p * r)
    leak = (1.0 - p) * r
    t = diag0 + lost + leak
    success = 0.5 * t * xp.minimum(1.0, 1.0 / (m * m)) * xp.minimum(1.0, 1.0 / (n * n))
    require_postselection(success)
    coherence = m * n * kd
    rot = cmath.exp(-1j * phi)
    off = xp.complex(coherence * rot.real, coherence * rot.imag)
    diag1 = lost + leak
    if array:
        state = np.empty(np.shape(off) + (2, 2), dtype=complex)
        state[..., 0, 0] = diag0
        state[..., 0, 1] = off
        state[..., 1, 0] = off.conjugate()
        state[..., 1, 1] = diag1
        state /= t[..., None, None]
    else:
        state = np.array([[diag0, off], [off.conjugate(), diag1]], dtype=complex) / t
    return ProtectionResult(0.5 + coherence / t, success, state)


def optimal_strengths(params: GadParams) -> OptimalStrengths:
    """Measurement strengths maximizing the equatorial fidelity.

        m = [(1-p)(1-r+pr) / (p(1-pr))]^(1/4)
        n = [(1-p)(1-pr) / (p(1-r+pr))]^(1/4)

    At p = 1 both collapse to zero (projective limit, flagged) and the
    maximal fidelity is exactly 1. p = 0 is rejected: m diverges and the
    channel becomes pure excitation, outside this scheme.
    """
    p, r = params.p, params.r
    if p == 0.0:
        raise ValueError("p = 0: optimal pre-measurement strength diverges")
    if p == 1.0 and r == 1.0:
        raise ValueError("p = 1 with r = 1: optimum is degenerate")
    stay0 = 1.0 - r + p * r
    stay1 = 1.0 - p * r
    m = ((1.0 - p) * stay0 / (p * stay1)) ** 0.25
    n = ((1.0 - p) * stay1 / (p * stay0)) ** 0.25
    f_max = 0.5 * (1.0 + math.sqrt(1.0 - r) / g_value(params))
    return OptimalStrengths(m, n, f_max, projective=(p == 1.0))


def g_value(params: GadParams) -> float:
    """Fidelity penalty factor sqrt((1-rp)(1-r+rp)) + r sqrt(p(1-p)).

    Equals 1 exactly when r = 0 or p = 1/2 (no gain from weak measurement)
    and dips to sqrt(1-r) at p in {0, 1}.
    """
    p, r = params.p, params.r
    return math.sqrt((1.0 - r * p) * (1.0 - r + r * p)) + r * math.sqrt(p * (1.0 - p))


def bb84_error_rate(params: GadParams, m: float, n: float) -> float:
    """Average error rate over the four equatorial key-distribution states.

    Each basis state is pushed through the full measure/damp/reverse
    pipeline; the error term of a state is the overlap leaking into its
    conjugate partner (azimuth shifted by pi), normalized per pair.
    """
    check_strength("m", m)
    check_strength("n", n)
    phis = (0.0, math.pi, 0.5 * math.pi, 1.5 * math.pi)
    outputs = {
        phi: apply_protection(params, m, n, equatorial_state(phi))[0] for phi in phis
    }
    total = 0.0
    for phi in phis:
        partner = (phi + math.pi) % (2.0 * math.pi)
        psi = equatorial_state(phi)
        own = fidelity(psi, outputs[phi])
        leaked = fidelity(psi, outputs[partner])
        total += leaked / (own + leaked)
    return total / len(phis)


def average_fidelity_six(params: GadParams, m: float, n: float) -> AverageFidelityReport:
    """Fidelities of the six symmetric states |0>, |1> and the four equatorials.

    f0 and f1 are the pole-state fidelities after protection, fe the common
    equatorial one; favg weights the equator four-fold. Takes scalars or
    broadcasting arrays like protect_equatorial, which validates m and n.
    """
    fe = protect_equatorial(params, m, n).fidelity
    if isinstance(fe, np.ndarray):
        m, n = np.broadcast_arrays(m, n)  # f0 and f1 depend on n alone
    p, r = params.p, params.r
    stay0 = 1.0 - r + r * p
    f0 = n * n * stay0 / (r - r * p + n * n * stay0)
    f1 = (1.0 - r * p) / (1.0 - r * p + n * n * r * p)
    return AverageFidelityReport(f0, f1, fe, (f0 + f1 + 4.0 * fe) / 6.0)
