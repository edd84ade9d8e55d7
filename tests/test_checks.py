"""The check battery fails on a route it cannot measure: a NaN from any
route, wherever it falls among a family's gaps, fails the family and shows
as nan in its detail."""

import dataclasses
import math

import numpy as np
import pytest

from decoshield import checks

real_optimal_parameters = checks.optimal_parameters
real_protected_state = checks.protected_state
real_protect_equatorial = checks.protect_equatorial


def nan_for_later_weights(inp, ch1, ch2):
    # the first report is the reference of the spread, so its fields stay
    report = real_optimal_parameters(inp, ch1, ch2)
    return dataclasses.replace(report, n1_opt=math.nan) if abs(inp.alpha) ** 2 > 0.5 else report


def nan_success(*args):
    return real_protected_state(*args)[0], math.nan


def nan_state(*args):
    # output_state is built on first read and cached in the instance: seed the cache
    result = real_protect_equatorial(*args)
    vars(result)["output_state"] = np.full((2, 2), np.nan)
    return result


# (family, count, name patched in decoshield.checks, its NaN stand-in), one
# for each way a family reduces its gaps: the maximum over a stack inside one
# _gap (a lone NaN state broadcasts against the stack), a running maximum over
# draws, the maximum of several gaps, a spread over reports, a probability
# range, the clip of a concurrence at zero and a state handed to validate_density
NAN_ROUTES = [
    (checks.dilation_vs_kraus, 3, "apply_via_dilation", lambda ch, rho: np.full((2, 2), np.nan)),
    (checks.xstate_vs_wootters, 3, "wootters_concurrence", lambda rho: math.nan),
    (checks.xstate_vs_wootters, 3, "concurrence_lambda2", lambda coeffs, n1, n2: math.nan),
    (checks.kraus_completeness, 3, "check_trace_preserving", lambda ops: math.nan),
    (checks.entangle_optimum_oracle, 1, "lambda2_max", lambda ch1, ch2: math.nan),
    (checks.average_optimum_stationary, 1, "stationarity_check", lambda *args: math.nan),
    (checks.qubit_closed_form_vs_pipeline, 3, "fidelity",
     lambda psi, rho: np.full(psi.shape[:-2], np.nan)),
    (checks.alpha_weight_independence, 5, "optimal_parameters", nan_for_later_weights),
    (checks.output_density_validity, 3, "protected_state", nan_success),
    (checks.output_density_validity, 3, "protect_equatorial", nan_state),
]


@pytest.mark.parametrize(
    "family, count, name, stand_in", NAN_ROUTES, ids=[route[2] for route in NAN_ROUTES]
)
def test_a_nan_route_fails_its_family(monkeypatch, family, count, name, stand_in):
    monkeypatch.setattr(checks, name, stand_in)
    ok, detail = family(np.random.default_rng(0), count)
    assert not ok and "nan" in detail, detail


def test_a_nan_state_fails_the_closed_form_family(monkeypatch):
    # the other family that reads output_state, a lone NaN state among real ones
    monkeypatch.setattr(checks, "protect_equatorial", nan_state)
    ok, detail = checks.qubit_closed_form_vs_pipeline(np.random.default_rng(0), 3)
    assert not ok and "nan" in detail, detail


def test_an_invalid_output_fails_by_its_message(monkeypatch):
    def invalid(rho):
        raise ValueError("negative eigenvalue -1.000e+00")

    monkeypatch.setattr(checks, "validate_density", invalid)
    ok, detail = checks.output_density_validity(np.random.default_rng(0), 3)
    assert (ok, detail) == (False, "invalid output: negative eigenvalue -1.000e+00")
