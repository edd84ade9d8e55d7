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

from ._elementwise import (
    FLOAT_MAX, SCALAR, SQUARE_MAX, check_finite, check_range, check_scalar, check_strength,
    namespace, np, quietly, reject,
)
from .channels import GadParams, gad_channel
from .qubit import g_value
from .weakmeas import MIN_POSTSELECT_PROB, measure_damp_reverse, require_postselection

NORM_ATOL = 1e-12
# unit coefficients are products of channel weights; they vanish only at
# exact parameter boundaries, so a tiny floor suffices to detect that
_DEGENERATE_FLOOR = 1e-30


@dataclass(frozen=True)
class EntangledInput:
    """Amplitudes of alpha|00> + beta|11>, normalized to one.

    alpha and beta may be numpy arrays that broadcast together, one input
    per entry: the record then holds both as complex arrays of one shape,
    and density() and measured_coefficients take the whole stack, each
    entry with the bits of the record built from its two Python complex
    numbers. The checks name the first failing entry. A numpy scalar is
    held as the Python number it holds.
    """

    alpha: complex
    beta: complex

    def __post_init__(self) -> None:
        xp, alpha, beta = SCALAR, self.alpha, self.beta
        if type(alpha) not in (float, complex) or type(beta) not in (float, complex):
            xp, alpha, beta = _amplitudes(alpha, beta)
            vars(self).update(alpha=alpha, beta=beta)  # frozen: past the dataclass's __setattr__
        try:
            wa, wb = xp.pow(xp.modulus(alpha), 2), xp.pow(xp.modulus(beta), 2)
            ok = abs(wa + wb - 1.0) <= NORM_ATOL
        except OverflowError:  # a square past the float range, in libm or from an int
            wa, wb, ok = _square_modulus(alpha), _square_modulus(beta), False
        if ok is not True:
            for name, amp in (("alpha", alpha), ("beta", beta)):
                finite = (abs(amp.real) <= FLOAT_MAX) & (abs(amp.imag) <= FLOAT_MAX)
                reject(finite, ValueError, f"{name} must be finite, got {{!r}}", amp)
            norm = wa + wb
            reject(abs(norm - 1.0) <= NORM_ATOL, ValueError,
                   "|alpha|^2 + |beta|^2 = {!r}, expected 1", norm)
        if xp is SCALAR:
            w = complex(alpha * beta.conjugate())
        else:  # Python's complex product alpha * conj(beta), in real arithmetic
            a, b, c, d = alpha.real, alpha.imag, beta.real, -beta.imag
            w = xp.complex(a * c - b * d, a * d + b * c)
        # |alpha|^2, |beta|^2 and alpha conj(beta), which measured_coefficients reads
        vars(self)["_weights"] = wa, wb, w

    @classmethod
    def from_alpha_sq(cls, alpha_sq: float) -> EntangledInput:
        check_scalar("alpha_sq", alpha_sq)
        check_range(alpha_sq, 0.0, 1.0, "alpha_sq must lie in [0, 1], got {}")
        return cls(math.sqrt(alpha_sq), math.sqrt(1.0 - alpha_sq))

    def density(self) -> np.ndarray:
        """The 4x4 density matrix; a (..., 4, 4) stack for a stack of inputs."""
        # the ket, alpha at |00> and beta at |11>
        vec = np.zeros(getattr(self.alpha, "shape", ()) + (4,), dtype=complex)
        vec[..., 0] = self.alpha
        vec[..., 3] = self.beta
        return vec[..., :, None] * vec.conj()[..., None, :]  # np.outer's product, per input


def _square_modulus(amp):
    """|amp|^2 at each entry, by libm's hypot and pow, or inf past the float range."""
    if isinstance(amp, np.ndarray):
        return np.array([_square_modulus(z) for z in amp.ravel().tolist()]).reshape(amp.shape)
    try:
        return abs(complex(amp)) ** 2
    except OverflowError:
        return math.inf


def _amplitudes(alpha, beta):
    """xp and the two amplitudes: each numpy scalar as the Python number it
    holds, and, when either is an array, both as complex arrays of one shape."""
    amps = []
    for name, z in (("alpha", alpha), ("beta", beta)):
        if not isinstance(z, np.ndarray) and isinstance(
                check_scalar(name, z, "a number or an array"), np.generic):
            z = z.item()
        amps.append(z)
    if not any(isinstance(z, np.ndarray) for z in amps):
        return SCALAR, *amps
    alpha, beta = np.broadcast_arrays(*(np.asarray(z, complex) for z in amps))
    return namespace(alpha)[0], alpha, beta


@dataclass(frozen=True)
class XStateCoefficients:
    """X-state entries.

    a, b, c, d are the diagonal weights on |00>, |01>, |10>, |11> at the
    current pipeline stage; e is the coherence between |00> and |11>. Its
    own __init__ checks each weight, a float or an array, once, in abcd
    order: a complex, negative or NaN entry is refused by the weight's name,
    so the readers below trust the record. Then e: a non-finite entry, or an
    array beside four scalar weights, is refused by the name e.
    """

    a: float
    b: float
    c: float
    d: float
    e: complex

    def __init__(self, a: float, b: float, c: float, d: float, e: complex) -> None:
        vars(self).update(a=a, b=b, c=c, d=d, e=e)  # frozen: set past the dataclass's __setattr__
        weights = a, b, c, d
        if (type(a) is type(b) is type(c) is type(d) is float
                and a >= 0.0 and b >= 0.0 and c >= 0.0 and d >= 0.0
                and type(e) is complex and cmath.isfinite(e)):
            return  # the common record, four valid floats and a finite complex: no more tests
        for name, weight in zip("abcd", weights):
            kind = "real" if np.iscomplexobj(weight) else "non-negative"
            check_range(weight, 0.0, math.inf, f"{name} must be {kind}, got {{!r}}")
        if not any(np.ndim(weight) for weight in weights):
            check_scalar("e", e, "a scalar beside scalar weights")
        reject(np.isfinite(e), ValueError, "e must be finite, got {!r}", e)

    def matrix(self) -> np.ndarray:
        """The 4x4 X state, unnormalized when trace != 1; a (..., 4, 4) stack
        when entries are arrays, each matrix with the bits of its own record's."""
        xp, (a, b, c, d) = namespace(self.a, self.b, self.c, self.d)
        return xp.assemble((
            a, 0.0, 0.0, self.e,
            0.0, b, 0.0, 0.0,
            0.0, 0.0, c, 0.0,
            self.e.conjugate(), 0.0, 0.0, d,
        ), (4, 4), complex)


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
    return _unit_coefficients(ch1.p, ch1.r, ch2.p, ch2.r)


def _unit_coefficients(p1, r1, p2, r2):
    # each channel's row-stochastic transfer T = [[s, u], [v, w]], where
    # T[i, j] is the population moved from |i><i| to |j><j|
    s1, u1, v1, w1 = 1.0 - r1 + p1 * r1, (1.0 - p1) * r1, p1 * r1, 1.0 - p1 * r1
    s2, u2, v2, w2 = 1.0 - r2 + p2 * r2, (1.0 - p2) * r2, p2 * r2, 1.0 - p2 * r2
    return (s1 * s2, s1 * u2, u1 * s2, u1 * u2), (v1 * v2, v1 * w2, w1 * v2, w1 * w2)


def measured_coefficients(
    inp: EntangledInput, ch1: GadParams, ch2: GadParams, m1: float, m2: float
) -> XStateCoefficients:
    """X-state coefficients after pre-measurement (m1, m2) and the channels.

    The pre-measurement scales the |11> component by m1 m2 before the
    channels act; the reversal is not applied here. The input, the channels'
    p, r and the strengths may be stacks that broadcast together.
    """
    xp, p1, r1, p2, r2 = SCALAR, ch1.p, ch1.r, ch2.p, ch2.r
    wa, wb, w = inp._weights
    if not (type(p1) is type(r1) is type(p2) is type(r2) is type(m1) is type(m2) is type(wa)
            is float  # as in protect_equatorial; a stack of inputs holds arrays
            and 0.0 <= m1 <= SQUARE_MAX and 0.0 <= m2 <= SQUARE_MAX):
        xp, (p1, r1, p2, r2, m1, m2, wa) = namespace(p1, r1, p2, r2, m1, m2, wa)
        m1 = check_strength("m1", m1, zero_ok=True)
        m2 = check_strength("m2", m2, zero_ok=True)
    (a0, b0, c0, d0), (a1, b1, c1, d1) = _unit_coefficients(p1, r1, p2, r2)
    try:
        mm = xp.pow(m1 * m2, 2)
    except OverflowError:  # libm's pow: the square of m1 m2 leaves the float range
        mm = check_finite(quietly(np.square, m1 * m2), "m1, m2", m1, m2)
    # each diagonal entry is x0 + x1 m^2: x0 from the |00> piece, x1 from |11>
    a, b = a0 * wa + a1 * wb * mm, b0 * wa + b1 * wb * mm
    c, d = c0 * wa + c1 * wb * mm, d0 * wa + d1 * wb * mm
    keep = xp.sqrt((1.0 - r1) * (1.0 - r2))
    e = xp.complex(w.real * m1 * m2 * keep, w.imag * m1 * m2 * keep)
    return XStateCoefficients(a, b, c, d, e)


def channel_degraded_state(
    inp: EntangledInput, ch1: GadParams, ch2: GadParams
) -> XStateCoefficients:
    """X-state coefficients after the bare channels, no measurements.

    The trace is one; b and c are the single-excitation leak weights that
    ruin the concurrence.
    """
    return measured_coefficients(inp, ch1, ch2, 1.0, 1.0)


def protected_state(
    inp: EntangledInput, ch1: GadParams, ch2: GadParams, m1: float, m2: float, n1: float, n2: float
) -> tuple[XStateCoefficients, float]:
    """Coefficients after pre-measurement (m1, m2) and channels, plus the
    success probability once the reversal (n1, n2) is post-selected.

    The returned coefficients are the pre-reversal ones; the reversal only
    rescales rows, which reversed_state and concurrence_lambda2 handle.
    Zero strengths are allowed (projective limits); negatives are not.
    """
    _, (m1, m2) = namespace(m1, m2)
    coeffs = measured_coefficients(inp, ch1, ch2, m1, m2)
    xp, n1, n2, _, _, _, _, trace = _reversal(coeffs, n1, n2)
    return coeffs, _success_probability(trace, m1, m2, n1, n2, xp)


def _success_probability(prob, m1, m2, n1, n2, xp):
    """The success probability, from prob, the raw reversed trace."""
    # strengths above one get rescaled into physical operators, which costs
    # probability quadratically; smaller ones cost nothing extra
    for strength in (m1, m2, n1, n2):
        prob = prob / xp.maximum(1.0, strength * strength)
    return require_postselection(prob)


def _reversal(coeffs, n1, n2):
    """xp, n1, n2, a, b, c, d, trace: the record read once with the reversal
    (n1, n2), and its unnormalized trace after that reversal. Where the
    reversal strengths enter the chain, so where they and it are checked."""
    xp, a, b, c, d = SCALAR, coeffs.a, coeffs.b, coeffs.c, coeffs.d
    if not (type(n1) is type(n2) is type(a) is type(b) is type(c) is type(d) is float
            and 0.0 <= n1 <= SQUARE_MAX and 0.0 <= n2 <= SQUARE_MAX):  # as in protect_equatorial
        xp, (n1, n2, a, b, c, d) = namespace(n1, n2, a, b, c, d)
        if xp.loud():
            return quietly(_reversal, coeffs, n1, n2)
        n1 = check_strength("n1", n1, zero_ok=True)
        n2 = check_strength("n2", n2, zero_ok=True)
    trace = n1 * n1 * n2 * n2 * a + n1 * n1 * b + n2 * n2 * c + d
    if (trace <= FLOAT_MAX) is not True:  # a finite float skips the call
        check_finite(trace, "n1, n2", n1, n2)
    return xp, n1, n2, a, b, c, d, trace


def reversed_state(
    coeffs: XStateCoefficients, n1: float, n2: float
) -> tuple[np.ndarray, float]:
    """Final normalized 4x4 state after the reversal, with its raw trace; stacks for arrays."""
    xp, n1, n2, a, b, c, d, raw = _reversal(coeffs, n1, n2)
    raw = require_postselection(raw)
    # n1 n2 e as Python's float * complex, in real arithmetic (numpy's can flip a zero's sign)
    k, e = n1 * n2, coeffs.e
    reversed_coeffs = XStateCoefficients(
        n1 * n1 * n2 * n2 * a, n1 * n1 * b, n2 * n2 * c, d,
        xp.complex(k * e.real - 0.0 * e.imag, k * e.imag + 0.0 * e.real),
    )
    return reversed_coeffs.matrix() / xp.per_matrix(raw), raw


def concurrence_lambda1(coeffs: XStateCoefficients) -> float:
    """Concurrence argument 2(|e| - sqrt(bc)) of a trace-one X state.

    Negative values mean the state is separable (the caller clips at zero).
    """
    xp, (b, c) = namespace(coeffs.b, coeffs.c)
    return 2.0 * (xp.modulus(coeffs.e) - xp.sqrt(b * c))


def concurrence_lambda2(coeffs: XStateCoefficients, n1: float, n2: float) -> float:
    """Concurrence argument of the reversed state, any overall scaling.

    Equals 2 n1 n2 (|e| - sqrt(bc)) divided by the reversed trace, so it
    reduces to the unprotected value at unit strengths.
    """
    xp, n1, n2, _, b, c, _, raw = _reversal(coeffs, n1, n2)
    if (raw >= MIN_POSTSELECT_PROB) is not True:  # a passing float skips the call
        require_postselection(raw)
    return _lambda2(coeffs.e, b, c, n1, n2, raw, xp)


def _lambda2(e, b, c, n1, n2, raw, xp):
    """concurrence_lambda2 from the coherence e, the weights b, c and the
    raw reversed trace, once it has passed the cutoff."""
    return 2.0 * n1 * n2 * (xp.modulus(e) - xp.sqrt(b * c)) / raw


def optimal_reversal(coeffs: XStateCoefficients) -> tuple[float, float]:
    """Reversal strengths (CD/AB)^(1/4), (BD/AC)^(1/4) maximizing the
    concurrence of the reversed state at fixed pre-measurement.

    Where a product of coefficients overflows, at pre-measurement strengths
    above about 1e77, a strength is inf or NaN; optimized_protection names
    the strength that caused it."""
    xp, (a, b, c, d) = namespace(coeffs.a, coeffs.b, coeffs.c, coeffs.d)
    if xp.loud():
        return quietly(optimal_reversal, coeffs)
    ok = (a * b > 0.0) & (a * c > 0.0)
    reject(ok, ValueError, "degenerate coefficients, reversal optimum undefined")
    return xp.pow(c * d / (a * b), 0.25), xp.pow(b * d / (a * c), 0.25)


def optimized_protection(inp: EntangledInput, ch1: GadParams, ch2: GadParams, m):
    """n1, n2, lambda2 and success probability at pre-measurement strength(s)
    m = m1 (m2 = 1), with the reversal optimized at each m; scalar or array.
    The reversed trace is computed and checked once, for both results."""
    if type(m) is not float:  # converted once; a float is as namespace would give it
        _, (m,) = namespace(m)
    coeffs = measured_coefficients(inp, ch1, ch2, m, 1.0)
    n1, n2 = optimal_reversal(coeffs)
    # both strengths are at most about 1e77, so their sum is finite unless one is not
    check_finite(n1 + n2, "m", m)
    xp, n1, n2, _, b, c, _, raw = _reversal(coeffs, n1, n2)
    lam2 = _lambda2(coeffs.e, b, c, n1, n2, require_postselection(raw), xp)
    return n1, n2, lam2, _success_probability(raw, m, 1.0, n1, n2, xp)


def lambda2_max(ch1: GadParams, ch2: GadParams) -> float:
    """Best attainable concurrence argument, independent of the input weights.

    May be negative when the channels are too hot and strong for any
    strength choice to keep entanglement. An array for arrays of channels,
    each entry equal to the scalar call on its channels bit for bit.
    """
    xp, (p1, r1, p2, r2) = namespace(ch1.p, ch1.r, ch2.p, ch2.r)
    keep = xp.sqrt((1.0 - r1) * (1.0 - r2))
    leak1 = r1 * xp.sqrt(p1 * (1.0 - p1) * (1.0 - r2 * p2) * (1.0 - r2 + r2 * p2))
    leak2 = r2 * xp.sqrt(p2 * (1.0 - p2) * (1.0 - r1 * p1) * (1.0 - r1 + r1 * p1))
    penalty = g_value(ch1) * g_value(ch2)
    # the product is 0 for a channel that resets its qubit (r = 1, p in {0, 1}),
    # where every strength gives lambda2 = 0 exactly, so the supremum is 0; it
    # also underflows, with the numerator, for two r = 1 channels with tiny p
    zero = penalty == 0.0
    return xp.where(zero, 0.0, (keep - leak1 - leak2) / (penalty + zero))


def pipeline_state(
    inp: EntangledInput, ch1: GadParams, ch2: GadParams, m1: float, m2: float, n1: float, n2: float
) -> tuple[np.ndarray, float]:
    """Generic route: local pre-measurements, one Kraus channel per qubit,
    local reversals, run by weakmeas.measure_damp_reverse. Returns the final
    state and joint success probability. The input, the strengths and the
    channels' p, r may be stacks that broadcast together, each entry with its
    own call's bits."""
    return measure_damp_reverse(
        inp.density(), (m1, m2), (n1, n2), (gad_channel(ch1), gad_channel(ch2)))


def optimal_parameters(
    inp: EntangledInput, ch1: GadParams, ch2: GadParams
) -> ConcurrenceReport:
    """Strengths maximizing the protected concurrence, and its value.

    The pre-measurement freedom sits entirely in m = m1 (m2 stays 1, only
    the product matters); the optimum is m = sqrt(h) |alpha| / |beta| with
    h^2 = b0 c0 / (b1 c1) on unit coefficients. The attained concurrence
    argument lambda2_max does not depend on the input weights; the success
    probability does, peaking at |alpha|^2 = 1/(1 + h). Each channel is one
    channel, and the input one input: a stack is refused by its name.
    """
    for name, ch in (("ch1", ch1), ("ch2", ch2)):
        check_scalar(name, ch.p, "one channel")  # a record's p has the channels' shape
    check_scalar("inp", inp.alpha, "one input")
    lam1 = concurrence_lambda1(channel_degraded_state(inp, ch1, ch2))
    lam2_bar = lambda2_max(ch1, ch2)
    lo, hi = component_coefficients(ch1, ch2)
    bc0 = lo[1] * lo[2]
    bc1 = hi[1] * hi[2]
    n1 = n2 = success = 0.0
    degenerate = None
    if abs(inp.alpha) == 0.0 or abs(inp.beta) == 0.0:
        # local filtering cannot create entanglement from a product state
        h = math.sqrt(bc0 / bc1) if bc1 > _DEGENERATE_FLOOR else math.inf
        m_opt = 0.0 if abs(inp.alpha) == 0.0 else math.inf
        lam2, degenerate = 0.0, "no-entanglement"
    elif bc0 <= _DEGENERATE_FLOOR or bc1 <= _DEGENERATE_FLOOR:
        # a boundary parameter (p or r at 0/1) zeroes a leak product; the
        # optimum runs off to vanishing strengths with vanishing probability
        h = 0.0 if bc0 <= _DEGENERATE_FLOOR else math.inf
        m_opt, lam2, degenerate = 0.0, lam2_bar, "projective-limit"
    else:
        h = math.sqrt(bc0 / bc1)
        m_opt = math.sqrt(h) * abs(inp.alpha) / abs(inp.beta)
        n1, n2, lam2, success = optimized_protection(inp, ch1, ch2, m_opt)
    return ConcurrenceReport(
        lambda1=lam1, lambda2=lam2, lambda2_max=lam2_bar, m_opt=m_opt, n1_opt=n1,
        n2_opt=n2, h=h, alpha_sq_opt=1.0 / (1.0 + h), success_prob=success,
        degenerate=degenerate,
    )
