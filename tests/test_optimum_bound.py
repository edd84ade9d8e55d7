"""The closed-form optima bound every sampled strength, over the whole domain.

p, r run over [0, 1] with 0 and 1 drawn explicitly, strengths are
log-uniform in [1e-12, 50], and two-qubit inputs carry any phase and
weights 0 and 1 as well. The optima may reject a parameter point, but only
with a ValueError; a strength point may be rejected likewise (its
post-selection voided, say), and is then skipped.
"""

import cmath
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from decoshield.channels import GadParams
from decoshield.entangle import (
    EntangledInput,
    concurrence_lambda2,
    lambda2_max,
    measured_coefficients,
    optimal_parameters,
)
from decoshield.qubit import optimal_strengths, protect_equatorial

PROPERTY = settings(max_examples=400)
TOL = 1e-12

unit = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
channels = st.builds(GadParams, unit, unit)
strength = st.floats(-12.0, math.log10(50.0)).map(lambda e: min(10.0 ** e, 50.0))
phases = st.floats(0.0, 2.0 * math.pi)


def attempt(fn, *args):
    """fn(*args), or None when it raises ValueError (PostSelectionError included)."""
    try:
        return fn(*args)
    except ValueError:
        return None


@PROPERTY
@given(channels, strength, strength)
def test_qubit_optimum_bounds_every_strength(params, m, n):
    best = attempt(optimal_strengths, params)
    res = attempt(protect_equatorial, params, m, n)
    if best is not None and res is not None:
        assert res.fidelity <= best.f_max + TOL, (best, res.fidelity)


@PROPERTY
@given(channels, channels, unit, phases, strength, strength, strength, strength)
def test_pair_optimum_bounds_every_strength(ch1, ch2, alpha_sq, phase, m1, m2, n1, n2):
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
