"""Two properties over the whole domain, on one draw each, for one qubit
and for an entangled pair.

The closed-form optima bound every sampled strength. The optima may reject
a parameter point, but only with a ValueError; a strength point may be
rejected likewise (its post-selection voided, say), and is then skipped.

One post-selection rule: a run is void when the joint success probability
of both weak-measurement outcomes falls below MIN_POSTSELECT_PROB. The
closed forms and the Kraus pipelines each apply that rule on their own
numbers; they void exactly the same runs and agree within 1e-12 on the
runs they keep.

p, r run over [0, 1] with 0 and 1 drawn explicitly, and two-qubit inputs
carry any phase and weights 0 and 1 as well.
"""

import cmath
import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from decoshield.channels import GadParams
from decoshield.entangle import (
    EntangledInput,
    concurrence_lambda2,
    lambda2_max,
    measured_coefficients,
    optimal_parameters,
    pipeline_state,
    protected_state,
    reversed_state,
)
from decoshield.linalg import equatorial_state, fidelity
from decoshield.qubit import apply_protection, optimal_strengths, protect_equatorial
from decoshield.weakmeas import MIN_POSTSELECT_PROB, PostSelectionError, require_postselection

PROPERTY = settings(max_examples=400)
TOL = 1e-12

unit = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
channels = st.builds(GadParams, unit, unit)
# strengths in (0, 50], log-uniform down to 1e-12 so that both outcomes of
# the rule are drawn often, plus hypothesis' own picks of the linear range
strength = st.one_of(
    st.floats(-12.0, math.log10(50.0)).map(lambda e: min(10.0 ** e, 50.0)),
    st.floats(1e-12, 50.0),
)
phases = st.floats(0.0, 2.0 * math.pi)


def attempt(fn, *args):
    """fn(*args), or None when it raises ValueError (PostSelectionError included)."""
    try:
        return fn(*args)
    except ValueError:
        return None


def voided(fn, *args, prob):
    """(result, success probability, whether the call raised
    PostSelectionError); a voided call has no result, and its probability
    is the one its error names."""
    try:
        result = fn(*args)
    except PostSelectionError as exc:
        return None, float(str(exc).split()[2]), True
    return result, prob(result), False


def away_from_cutoff(prob):
    return abs(prob - MIN_POSTSELECT_PROB) > 1e-9 * MIN_POSTSELECT_PROB


def routes_agree(closed, generic):
    """True when both routes kept the run."""
    _, prob, closed_void = closed
    assume(away_from_cutoff(prob))
    assert closed_void == (prob < MIN_POSTSELECT_PROB)
    assert generic[2] == closed_void, (closed, generic)
    if not closed_void:
        assert abs(prob - generic[1]) <= TOL
    return not closed_void


def gap(a, b):
    return float(np.max(np.abs(a - b)))


@PROPERTY
@given(channels, strength, strength, phases)
def test_qubit_routes_void_the_same_runs(params, m, n, phi):
    psi = equatorial_state(phi)
    closed = voided(protect_equatorial, params, m, n, phi, prob=lambda res: res.success_prob)
    generic = voided(apply_protection, params, m, n, psi, prob=lambda out: out[1])
    # the fidelity does not depend on phi: phi only turns the coherence
    best = attempt(optimal_strengths, params)
    if best is not None and closed[0] is not None:
        assert closed[0].fidelity <= best.f_max + TOL, (best, closed[0].fidelity)
    if routes_agree(closed, generic):
        res, (state, _) = closed[0], generic[0]
        assert gap(res.output_state, state) <= TOL
        assert abs(res.fidelity - fidelity(psi, state)) <= TOL


@PROPERTY
@given(channels, channels, unit, phases, strength, strength, strength, strength)
def test_entangle_routes_void_the_same_runs(ch1, ch2, alpha_sq, phase, m1, m2, n1, n2):
    inp = EntangledInput(
        math.sqrt(alpha_sq), math.sqrt(1.0 - alpha_sq) * cmath.exp(1j * phase)
    )
    ceiling = lambda2_max(ch1, ch2)
    report = attempt(optimal_parameters, inp, ch1, ch2)
    if report is not None:
        assert report.lambda2_max == ceiling
        if report.degenerate is None:
            assert abs(report.lambda2 - ceiling) <= TOL, report
    coeffs = attempt(measured_coefficients, inp, ch1, ch2, m1, m2)
    lam2 = None if coeffs is None else attempt(concurrence_lambda2, coeffs, n1, n2)
    if lam2 is not None:
        assert max(0.0, lam2) <= max(0.0, ceiling) + TOL, (lam2, ceiling)

    strengths = (m1, m2, n1, n2)
    closed = voided(protected_state, inp, ch1, ch2, *strengths, prob=lambda out: out[1])
    generic = voided(pipeline_state, inp, ch1, ch2, *strengths, prob=lambda out: out[1])
    if routes_agree(closed, generic):
        state, _ = reversed_state(closed[0][0], n1, n2)
        assert gap(state, generic[0][0]) <= TOL


def test_require_postselection():
    assert require_postselection(0.25) == 0.25
    probs = np.array([0.5, MIN_POSTSELECT_PROB])
    assert require_postselection(probs) is probs
