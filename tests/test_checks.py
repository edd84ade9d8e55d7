"""The check battery fails on a route it cannot measure: a NaN from any
route, wherever it falls among a family's gaps, fails the family and shows
as nan in its detail. A random family calls each route once, on its whole
stack of draws."""

import collections
import dataclasses
import math

import numpy as np
import pytest

from decoshield import checks

real_optimal_parameters = checks.optimal_parameters
real_protected_state = checks.protected_state
real_protect_equatorial = checks.protect_equatorial
real_reversed_state = checks.reversed_state


def nan_like(*values):
    """NaN in the shape the values broadcast to."""
    return np.full(np.broadcast_shapes(*map(np.shape, values)), np.nan)


def nan_for_later_weights(inp, ch1, ch2):
    # the first report is the reference of the spread, so its fields stay
    report = real_optimal_parameters(inp, ch1, ch2)
    return dataclasses.replace(report, n1_opt=math.nan) if abs(inp.alpha) ** 2 > 0.5 else report


def nan_success(*args):
    coeffs, success = real_protected_state(*args)
    return coeffs, nan_like(success)


def nan_state(*args):
    # output_state is built on first read and cached in the instance: seed the cache
    result = real_protect_equatorial(*args)
    vars(result)["output_state"] = nan_like(result.output_state)
    return result


def nan_reversed(coeffs, n1, n2):
    state, raw = real_reversed_state(coeffs, n1, n2)
    return nan_like(state), raw


# (family, count, name patched in decoshield.checks, its NaN stand-in), one
# for each way a family reduces its gaps: the maximum over a stack inside one
# _gap, a running maximum over oracle points, the maximum of several gaps, a
# spread over reports, a probability range, the clip of a concurrence at zero
# and a state handed to validate_density. Each stand-in of a stacked call
# takes and returns the shapes the route does.
NAN_ROUTES = [
    (checks.dilation_vs_kraus, 3, "apply_via_dilation", lambda ch, rho: nan_like(rho)),
    (checks.xstate_vs_wootters, 3, "wootters_concurrence", lambda rho: nan_like(rho[..., 0, 0])),
    (checks.xstate_vs_wootters, 3, "concurrence_lambda2",
     lambda coeffs, n1, n2: nan_like(coeffs.b, n1, n2)),
    (checks.kraus_completeness, 3, "check_trace_preserving", lambda ops: math.nan),
    (checks.entangle_optimum_oracle, 1, "lambda2_max", lambda ch1, ch2: math.nan),
    (checks.average_optimum_stationary, 1, "stationarity_check", lambda *args: math.nan),
    (checks.qubit_closed_form_vs_pipeline, 3, "fidelity", lambda psi, rho: nan_like(rho[..., 0, 0])),
    (checks.alpha_weight_independence, 5, "optimal_parameters", nan_for_later_weights),
    (checks.output_density_validity, 3, "protected_state", nan_success),
    (checks.output_density_validity, 3, "protect_equatorial", nan_state),
    (checks.entangle_closed_form_vs_pipeline, 3, "reversed_state", nan_reversed),
    (checks.xstate_vs_wootters, 3, "concurrence_lambda1", lambda coeffs: nan_like(coeffs.b)),
]


@pytest.mark.parametrize(
    "family, count, name, stand_in", NAN_ROUTES, ids=[route[2] for route in NAN_ROUTES]
)
def test_a_nan_route_fails_its_family(monkeypatch, family, count, name, stand_in):
    monkeypatch.setattr(checks, name, stand_in)
    ok, detail = family(np.random.default_rng(0), count)
    assert not ok and "nan" in detail, detail


def test_a_nan_state_fails_the_closed_form_family(monkeypatch):
    # the other family that reads output_state
    monkeypatch.setattr(checks, "protect_equatorial", nan_state)
    ok, detail = checks.qubit_closed_form_vs_pipeline(np.random.default_rng(0), 3)
    assert not ok and "nan" in detail, detail


def test_an_invalid_output_fails_by_its_message(monkeypatch):
    def invalid(rho):
        raise ValueError("negative eigenvalue -1.000e+00")

    monkeypatch.setattr(checks, "validate_density", invalid)
    ok, detail = checks.output_density_validity(np.random.default_rng(0), 3)
    assert (ok, detail) == (False, "invalid output: negative eigenvalue -1.000e+00")


RANDOM_FAMILIES = (
    checks.kraus_completeness, checks.dilation_vs_kraus, checks.qubit_closed_form_vs_pipeline,
    checks.entangle_closed_form_vs_pipeline, checks.xstate_vs_wootters,
    checks.qkd_error_complement, checks.output_density_validity,
)


def test_random_families_call_each_route_once_per_stack(monkeypatch):
    """Every package function or record that decoshield.checks imports is
    called as often at 40 draws as at 3: no route runs once per draw."""
    calls = collections.Counter()

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    for name, value in list(vars(checks).items()):
        home = getattr(value, "__module__", "") or ""
        if callable(value) and home.startswith("decoshield.") and home != checks.__name__:
            monkeypatch.setattr(checks, name, counted(name, value))
    for family in RANDOM_FAMILIES:
        seen = []
        for count in (3, 40):
            calls.clear()
            ok, detail = family(np.random.default_rng(0), count)
            assert ok, detail
            seen.append(dict(calls))
        assert seen[0] == seen[1], family.__name__
        assert seen[0], family.__name__  # the wrappers saw the family's routes
