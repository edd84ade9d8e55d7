"""Two-qubit entanglement protection through independent damping channels.

An input alpha|00> + beta|11> sent through one generalized-damping channel
per qubit stays in the X-state family: nonzero entries on the diagonal and
the (|00>, |11>) anti-diagonal only. The functions here track those entries
in closed form through weak measurement, damping and reversal, evaluate the
concurrence before and after protection, and give the measurement strengths
that maximize it. Everything has a generic Kraus-pipeline route alongside
for cross-checking.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from ._elementwise import ARRAY, SCALAR, check_strength
from .channels import GadParams, apply_on_qubit, gad_channel
from .qubit import g_value
from .weakmeas import WeakMeasurement, apply_postselected, require_postselection

NORM_ATOL = 1e-12
# unit coefficients are products of channel weights; they vanish only at
# exact parameter boundaries, so a tiny floor suffices to detect that
_DEGENERATE_FLOOR = 1e-30


@dataclass(frozen=True)
class EntangledInput:
    """Amplitudes of alpha|00> + beta|11>, normalized to one."""

    alpha: complex
    beta: complex

    def __post_init__(self) -> None:
        norm = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if not abs(norm - 1.0) <= NORM_ATOL:
            for name, amp in (("alpha", self.alpha), ("beta", self.beta)):
                if not cmath.isfinite(amp):
                    raise ValueError(f"{name} must be finite, got {amp!r}")
            raise ValueError(f"|alpha|^2 + |beta|^2 = {norm!r}, expected 1")

    @classmethod
    def from_alpha_sq(cls, alpha_sq: float) -> EntangledInput:
        if not 0.0 <= alpha_sq <= 1.0:
            raise ValueError(f"alpha_sq must lie in [0, 1], got {alpha_sq}")
        return cls(math.sqrt(alpha_sq), math.sqrt(1.0 - alpha_sq))

    def ket(self) -> np.ndarray:
        vec = np.zeros(4, dtype=complex)
        vec[0] = self.alpha
        vec[3] = self.beta
        return vec

    def density(self) -> np.ndarray:
        vec = self.ket()
        return np.outer(vec, vec.conj())


@dataclass(frozen=True)
class XStateCoefficients:
    """X-state entries.

    a, b, c, d are the diagonal weights on |00>, |01>, |10>, |11> at the
    current pipeline stage; e is the coherence between |00> and |11>.
    """

    a: float
    b: float
    c: float
    d: float
    e: complex

    @property
    def trace(self) -> float:
        return self.a + self.b + self.c + self.d

    def matrix(self) -> np.ndarray:
        """Assemble the 4x4 X-state (unnormalized when trace != 1)."""
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = self.a
        rho[1, 1] = self.b
        rho[2, 2] = self.c
        rho[3, 3] = self.d
        rho[0, 3] = self.e
        rho[3, 0] = np.conj(self.e)
        return rho


@dataclass(frozen=True)
class ConcurrenceReport:
    """Concurrence before/after protection and the optimizing parameters.

    lambda1, lambda2 and lambda2_max are raw concurrence arguments and may
    be negative; the concurrence itself is max(0, value). degenerate is
    None in the generic case, "no-entanglement" for product inputs and
    "projective-limit" when a channel parameter sits on a boundary that
    pushes the optimal strengths to zero.
    """

    lambda1: float
    lambda2: float
    lambda2_max: float
    m_opt: float
    n1_opt: float
    n2_opt: float
    h: float
    alpha_sq_opt: float
    success_prob: float
    degenerate: str | None = None


def component_coefficients(
    ch1: GadParams, ch2: GadParams
) -> tuple[tuple[float, float, float, float], tuple[float, float, float, float]]:
    """Unit-input diagonal weights (a, b, c, d) produced by the channel pair.

    First tuple: image of |00><00|. Second: image of |11><11|.
    """
    # each channel's row-stochastic transfer T = [[s, u], [v, w]], where
    # T[i, j] is the population moved from |i><i| to |j><j|
    (s1, u1, v1, w1), (s2, u2, v2, w2) = (
        (1.0 - ch.r + ch.p * ch.r, (1.0 - ch.p) * ch.r, ch.p * ch.r, 1.0 - ch.p * ch.r)
        for ch in (ch1, ch2)
    )
    return (s1 * s2, s1 * u2, u1 * s2, u1 * u2), (v1 * v2, v1 * w2, w1 * v2, w1 * w2)


def measured_coefficients(
    inp: EntangledInput, ch1: GadParams, ch2: GadParams, m1: float, m2: float
) -> XStateCoefficients:
    """X-state coefficients after pre-measurement (m1, m2) and the channels.

    The pre-measurement scales the |11> component by m1 m2 before the
    channels act; the reversal is not applied here.
    """
    check_strength("m1", m1, zero_ok=True)
    check_strength("m2", m2, zero_ok=True)
    xp = ARRAY if isinstance(m1, np.ndarray) or isinstance(m2, np.ndarray) else SCALAR
    lo, hi = component_coefficients(ch1, ch2)
    wa = abs(inp.alpha) ** 2
    wb = abs(inp.beta) ** 2
    mm = xp.pow(m1 * m2, 2)
    # each diagonal entry is x0 + x1 m^2: x0 from the |00> piece, x1 from |11>
    a, b, c, d = (x0 * wa + x1 * wb * mm for x0, x1 in zip(lo, hi))
    keep = math.sqrt((1.0 - ch1.r) * (1.0 - ch2.r))
    w = complex(inp.alpha * np.conj(inp.beta))
    e = xp.complex(w.real * m1 * m2 * keep, w.imag * m1 * m2 * keep)
    return XStateCoefficients(a=a, b=b, c=c, d=d, e=e)


def channel_degraded_state(
    inp: EntangledInput, ch1: GadParams, ch2: GadParams
) -> XStateCoefficients:
    """X-state coefficients after the bare channels, no measurements.

    The trace is one; b and c are the single-excitation leak weights that
    ruin the concurrence.
    """
    return measured_coefficients(inp, ch1, ch2, 1.0, 1.0)


def protected_state(
    inp: EntangledInput,
    ch1: GadParams,
    ch2: GadParams,
    m1: float,
    m2: float,
    n1: float,
    n2: float,
) -> tuple[XStateCoefficients, float]:
    """Coefficients after pre-measurement (m1, m2) and channels, plus the
    success probability once the reversal (n1, n2) is post-selected.

    The returned coefficients are the pre-reversal ones; the reversal only
    rescales rows, which reversed_state and concurrence_lambda2 handle.
    Zero strengths are allowed (projective limits); negatives are not.
    """
    for name, val in (("m1", m1), ("m2", m2), ("n1", n1), ("n2", n2)):
        check_strength(name, val, zero_ok=True)
    coeffs = measured_coefficients(inp, ch1, ch2, m1, m2)
    return coeffs, _success_probability(coeffs, m1, m2, n1, n2)


def _success_probability(coeffs: XStateCoefficients, m1, m2, n1, n2):
    prob = _reversed_trace(coeffs, n1, n2)
    xp = ARRAY if isinstance(prob, np.ndarray) else SCALAR
    # strengths above one get rescaled into physical operators, which costs
    # probability quadratically; smaller ones cost nothing extra
    for strength in (m1, m2, n1, n2):
        prob = prob / xp.maximum(1.0, strength * strength)
    return require_postselection(prob)


def _reversed_trace(coeffs: XStateCoefficients, n1: float, n2: float) -> float:
    return (
        n1 * n1 * n2 * n2 * coeffs.a
        + n1 * n1 * coeffs.b
        + n2 * n2 * coeffs.c
        + coeffs.d
    )


def reversed_state(
    coeffs: XStateCoefficients, n1: float, n2: float
) -> tuple[np.ndarray, float]:
    """Final normalized 4x4 state after the reversal, with its raw trace."""
    reversed_coeffs = XStateCoefficients(
        n1 * n1 * n2 * n2 * coeffs.a, n1 * n1 * coeffs.b, n2 * n2 * coeffs.c, coeffs.d,
        n1 * n2 * coeffs.e,
    )
    raw = require_postselection(reversed_coeffs.trace)
    return reversed_coeffs.matrix() / raw, raw


def concurrence_lambda1(coeffs: XStateCoefficients) -> float:
    """Concurrence argument 2(|e| - sqrt(bc)) of a trace-one X state.

    Negative values mean the state is separable (the caller clips at zero).
    """
    return 2.0 * (abs(coeffs.e) - math.sqrt(coeffs.b * coeffs.c))


def concurrence_lambda2(coeffs: XStateCoefficients, n1: float, n2: float) -> float:
    """Concurrence argument of the reversed state, any overall scaling.

    Equals 2 n1 n2 (|e| - sqrt(bc)) divided by the reversed trace, so it
    reduces to the unprotected value at unit strengths.
    """
    raw = require_postselection(_reversed_trace(coeffs, n1, n2))
    xp = ARRAY if isinstance(raw, np.ndarray) else SCALAR
    return 2.0 * n1 * n2 * (xp.modulus(coeffs.e) - xp.sqrt(coeffs.b * coeffs.c)) / raw


def optimal_reversal(coeffs: XStateCoefficients) -> tuple[float, float]:
    """Reversal strengths (CD/AB)^(1/4), (BD/AC)^(1/4) maximizing the
    concurrence of the reversed state at fixed pre-measurement."""
    a, b, c, d = coeffs.a, coeffs.b, coeffs.c, coeffs.d
    xp = ARRAY if isinstance(a, np.ndarray) else SCALAR
    if not xp.all((a * b > 0.0) & (a * c > 0.0)):
        raise ValueError("degenerate coefficients, reversal optimum undefined")
    return xp.pow(c * d / (a * b), 0.25), xp.pow(b * d / (a * c), 0.25)


def optimized_protection(inp: EntangledInput, ch1: GadParams, ch2: GadParams, m):
    """n1, n2, lambda2 and success probability at pre-measurement strength(s)
    m = m1 (m2 = 1), with the reversal optimized at each m; scalar or array."""
    coeffs = measured_coefficients(inp, ch1, ch2, m, 1.0)
    n1, n2 = optimal_reversal(coeffs)
    lam2 = concurrence_lambda2(coeffs, n1, n2)
    return n1, n2, lam2, _success_probability(coeffs, m, 1.0, n1, n2)


def lambda2_max(ch1: GadParams, ch2: GadParams) -> float:
    """Best attainable concurrence argument, independent of the input weights.

    May be negative when the channels are too hot and strong for any
    strength choice to keep entanglement.
    """
    p1, r1 = ch1.p, ch1.r
    p2, r2 = ch2.p, ch2.r
    keep = math.sqrt((1.0 - r1) * (1.0 - r2))
    leak1 = r1 * math.sqrt(p1 * (1.0 - p1) * (1.0 - r2 * p2) * (1.0 - r2 + r2 * p2))
    leak2 = r2 * math.sqrt(p2 * (1.0 - p2) * (1.0 - r1 * p1) * (1.0 - r1 + r1 * p1))
    return (keep - leak1 - leak2) / (g_value(ch1) * g_value(ch2))


def pipeline_state(
    inp: EntangledInput,
    ch1: GadParams,
    ch2: GadParams,
    m1: float,
    m2: float,
    n1: float,
    n2: float,
) -> tuple[np.ndarray, float]:
    """Generic route: local pre-measurements, one Kraus channel per qubit,
    local reversals. Returns the final state and joint success probability."""
    state, prob_pre = apply_postselected(WeakMeasurement.pre(m1, m2), inp.density())
    state = apply_on_qubit(gad_channel(ch1), state, 0)
    state = apply_on_qubit(gad_channel(ch2), state, 1)
    state, prob_post = apply_postselected(WeakMeasurement.post(n1, n2), state)
    return state, require_postselection(prob_pre * prob_post)


def optimal_parameters(
    inp: EntangledInput, ch1: GadParams, ch2: GadParams
) -> ConcurrenceReport:
    """Strengths maximizing the protected concurrence, and its value.

    The pre-measurement freedom sits entirely in m = m1 (m2 stays 1, only
    the product matters); the optimum is m = sqrt(h) |alpha| / |beta| with
    h^2 = b0 c0 / (b1 c1) on unit coefficients. The attained concurrence
    argument lambda2_max does not depend on the input weights; the success
    probability does, peaking at |alpha|^2 = 1/(1 + h).
    """
    base = channel_degraded_state(inp, ch1, ch2)
    lam1 = concurrence_lambda1(base)
    lam2_bar = lambda2_max(ch1, ch2)
    lo, hi = component_coefficients(ch1, ch2)
    bc0 = lo[1] * lo[2]
    bc1 = hi[1] * hi[2]

    if abs(inp.alpha) == 0.0 or abs(inp.beta) == 0.0:
        # local filtering cannot create entanglement from a product state
        h = math.sqrt(bc0 / bc1) if bc1 > _DEGENERATE_FLOOR else math.inf
        m_opt = 0.0 if abs(inp.alpha) == 0.0 else math.inf
        return ConcurrenceReport(
            lambda1=lam1,
            lambda2=0.0,
            lambda2_max=lam2_bar,
            m_opt=m_opt,
            n1_opt=0.0,
            n2_opt=0.0,
            h=h,
            alpha_sq_opt=1.0 / (1.0 + h),
            success_prob=0.0,
            degenerate="no-entanglement",
        )

    if bc0 <= _DEGENERATE_FLOOR or bc1 <= _DEGENERATE_FLOOR:
        # a boundary parameter (p or r at 0/1) zeroes a leak product; the
        # optimum runs off to vanishing strengths with vanishing probability
        h = 0.0 if bc0 <= _DEGENERATE_FLOOR else math.inf
        return ConcurrenceReport(
            lambda1=lam1,
            lambda2=lam2_bar,
            lambda2_max=lam2_bar,
            m_opt=0.0,
            n1_opt=0.0,
            n2_opt=0.0,
            h=h,
            alpha_sq_opt=1.0 / (1.0 + h),
            success_prob=0.0,
            degenerate="projective-limit",
        )

    h = math.sqrt(bc0 / bc1)
    m_opt = math.sqrt(h) * abs(inp.alpha) / abs(inp.beta)
    n1, n2, lam2, success = optimized_protection(inp, ch1, ch2, m_opt)
    return ConcurrenceReport(
        lambda1=lam1,
        lambda2=lam2,
        lambda2_max=lam2_bar,
        m_opt=m_opt,
        n1_opt=n1,
        n2_opt=n2,
        h=h,
        alpha_sq_opt=1.0 / (1.0 + h),
        success_prob=success,
    )
