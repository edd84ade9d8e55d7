"""One post-selection rule: a run is void when the joint success probability
of both weak-measurement outcomes falls below MIN_POSTSELECT_PROB.

The closed forms and the Kraus pipelines each apply that rule on their own
numbers; the properties check they void exactly the same runs.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from decoshield.channels import GadParams
from decoshield.entangle import EntangledInput, pipeline_state, protected_state
from decoshield.linalg import equatorial_state
from decoshield.qubit import apply_protection, average_fidelity_six, protect_equatorial
from decoshield.weakmeas import MIN_POSTSELECT_PROB, PostSelectionError, require_postselection

PROPERTY = settings(max_examples=400, deadline=None, derandomize=True, database=None)

unit = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
channels = st.builds(GadParams, unit, unit)
# strengths in (0, 50], log-uniform down to 1e-12 so that both outcomes of
# the rule are drawn often, plus hypothesis' own picks of the linear range
strength = st.one_of(
    st.floats(-12.0, math.log10(50.0)).map(lambda e: min(10.0 ** e, 50.0)),
    st.floats(1e-12, 50.0),
)
phases = st.floats(0.0, 2.0 * math.pi)


def voided(fn, *args, prob):
    """(success probability, whether the call raised PostSelectionError);
    a voided call's probability is the one its error names."""
    try:
        return prob(fn(*args)), False
    except PostSelectionError as exc:
        return float(str(exc).split()[2]), True


def away_from_cutoff(prob):
    return abs(prob - MIN_POSTSELECT_PROB) > 1e-9 * MIN_POSTSELECT_PROB


def routes_agree(closed, generic):
    prob, closed_void = closed
    assume(away_from_cutoff(prob))
    assert closed_void == (prob < MIN_POSTSELECT_PROB)
    assert generic[1] == closed_void, (closed, generic)


@PROPERTY
@given(channels, strength, strength)
def test_qubit_routes_void_the_same_runs(params, m, n):
    closed = voided(protect_equatorial, params, m, n, prob=lambda res: res.success_prob)
    generic = voided(apply_protection, params, m, n, equatorial_state(0.0),
                     prob=lambda out: out[1])
    routes_agree(closed, generic)


@PROPERTY
@given(channels, channels, unit, phases, strength, strength, strength, strength)
def test_entangle_routes_void_the_same_runs(ch1, ch2, alpha_sq, phase, m1, m2, n1, n2):
    inp = EntangledInput(
        math.sqrt(alpha_sq), math.sqrt(1.0 - alpha_sq) * cmath.exp(1j * phase)
    )
    strengths = (m1, m2, n1, n2)
    closed = voided(protected_state, inp, ch1, ch2, *strengths, prob=lambda out: out[1])
    generic = voided(pipeline_state, inp, ch1, ch2, *strengths, prob=lambda out: out[1])
    routes_agree(closed, generic)


def test_closed_form_voids_where_pipeline_does():
    # p = 1, r = 0 is the identity channel: both outcomes keep m^2 + n^2
    # over two, 1e-16 here
    still = GadParams(1.0, 0.0)
    with pytest.raises(PostSelectionError, match="below cutoff"):
        apply_protection(still, 1e-8, 1e-8, equatorial_state(0.0))
    with pytest.raises(PostSelectionError, match="below cutoff"):
        protect_equatorial(still, 1e-8, 1e-8)
    with pytest.raises(PostSelectionError, match="below cutoff"):
        average_fidelity_six(still, 1e-8, 1e-8)
    # an array call names its first failing entry
    with pytest.raises(PostSelectionError) as exc:
        protect_equatorial(still, np.array([1.0, 1e-8, 2e-8]), 1e-8)
    assert str(exc.value) == "success probability 1.0000000000000001e-16 below cutoff"


def test_require_postselection():
    assert require_postselection(0.25) == 0.25
    probs = np.array([0.5, MIN_POSTSELECT_PROB])
    assert require_postselection(probs) is probs
    for bad, shown in ((0.0, "0.0"), (math.nan, "nan"), (np.array([1.0, math.nan, 0.0]), "nan")):
        with pytest.raises(PostSelectionError) as exc:
            require_postselection(bad)
        assert str(exc.value) == f"success probability {shown} below cutoff"
