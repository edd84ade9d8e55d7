import math

import numpy as np
import pytest

from decoshield.channels import GadParams
from decoshield.linalg import equatorial_state, fidelity, ket_density, validate_density
from decoshield.qubit import (
    apply_protection,
    average_fidelity_six,
    baseline_fidelity,
    bb84_error_rate,
    g_value,
    optimal_strengths,
    protect_equatorial,
)

RNG = np.random.default_rng(41177)

POLES = (ket_density(np.array([1.0, 0.0])), ket_density(np.array([0.0, 1.0])))

# optimum for p = 0.8, r = 0.3, cross-checked against the grid + simplex
# oracle in the verify suite
REF = GadParams(0.8, 0.3)
REF_M = 0.7456990116859171
REF_N = 0.6705118179915145
REF_FMAX = 0.9334029602017091
REF_SUCCESS = 0.48261093218230866
REF_FAVG = 0.9141607240755422


def random_params():
    return GadParams(float(RNG.uniform(0.05, 0.95)), float(RNG.uniform(0.05, 0.95)))


def test_baseline_endpoints():
    assert baseline_fidelity(GadParams(0.5, 0.0)) == 1.0
    assert baseline_fidelity(GadParams(0.5, 1.0)) == 0.5
    assert abs(baseline_fidelity(GadParams(0.3, 0.36)) - 0.9) < 1e-15


def test_unit_strengths_reduce_to_bare_channel():
    for _ in range(20):
        params = random_params()
        res = protect_equatorial(params, 1.0, 1.0)
        assert abs(res.fidelity - baseline_fidelity(params)) < 1e-12
        assert abs(res.success_prob - 1.0) < 1e-12


def test_closed_form_matches_pipeline():
    for _ in range(60):
        params = random_params()
        m, n = RNG.uniform(0.05, 2.0, size=2)
        phi = float(RNG.uniform(0.0, 2.0 * np.pi))
        res = protect_equatorial(params, float(m), float(n), phi)
        state, prob = apply_protection(params, float(m), float(n), equatorial_state(phi))
        assert np.max(np.abs(res.output_state - state)) < 1e-12
        assert abs(res.success_prob - prob) < 1e-12
        assert abs(res.fidelity - fidelity(equatorial_state(phi), state)) < 1e-12
        validate_density(res.output_state)


def test_strength_validation():
    with pytest.raises(ValueError, match="positive"):
        protect_equatorial(REF, 0.0, 0.5)
    with pytest.raises(ValueError, match="positive"):
        protect_equatorial(REF, 0.5, -1.0)
    with pytest.raises(ValueError, match="positive"):
        bb84_error_rate(REF, 0.0, 0.5)
    with pytest.raises(ValueError, match="positive"):
        average_fidelity_six(REF, 0.5, 0.0)
    # non-finite strengths, and ones whose square underflows to zero or
    # overflows, are rejected by name, for scalars and arrays alike
    half = GadParams(0.5, 0.5)
    for bad in (math.nan, math.inf, 1e-200, 1e160):
        with pytest.raises(ValueError, match="m must be finite"):
            protect_equatorial(half, bad, 1.0)
        with pytest.raises(ValueError, match="m must be finite"):
            average_fidelity_six(half, bad, 1.0)
        with pytest.raises(ValueError, match="n must be finite"):
            protect_equatorial(half, np.array([0.5, 1.0]), np.array([1.0, bad]))
        with pytest.raises(ValueError, match="m must be finite"):
            average_fidelity_six(half, np.array([[0.5], [bad]]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="n must be finite"):
            bb84_error_rate(half, 0.5, bad)


def test_reference_optimum_values():
    best = optimal_strengths(REF)
    assert abs(best.m - REF_M) < 1e-12
    assert abs(best.n - REF_N) < 1e-12
    assert abs(best.f_max - REF_FMAX) < 1e-12
    assert not best.projective
    res = protect_equatorial(REF, best.m, best.n)
    assert abs(res.fidelity - best.f_max) < 1e-12
    assert abs(res.success_prob - REF_SUCCESS) < 1e-12


def test_optimum_is_stationary():
    best = optimal_strengths(REF)
    h = 1e-6
    f0 = protect_equatorial(REF, best.m, best.n).fidelity
    dm = (
        protect_equatorial(REF, best.m + h, best.n).fidelity
        - protect_equatorial(REF, best.m - h, best.n).fidelity
    ) / (2 * h)
    dn = (
        protect_equatorial(REF, best.m, best.n + h).fidelity
        - protect_equatorial(REF, best.m, best.n - h).fidelity
    ) / (2 * h)
    assert abs(dm) < 1e-6
    assert abs(dn) < 1e-6
    # nearby points never beat the claimed maximum
    for _ in range(50):
        dm, dn = RNG.uniform(-0.05, 0.05, size=2)
        trial = protect_equatorial(REF, best.m + dm, best.n + dn).fidelity
        assert trial <= f0 + 1e-12


def test_degenerate_parameter_rejection():
    with pytest.raises(ValueError, match="p = 0"):
        optimal_strengths(GadParams(0.0, 0.4))
    with pytest.raises(ValueError, match="degenerate"):
        optimal_strengths(GadParams(1.0, 1.0))


def test_projective_limit():
    best = optimal_strengths(GadParams(1.0, 0.6))
    assert best.projective
    assert best.m == 0.0 and best.n == 0.0
    assert best.f_max == 1.0
    # approaching p = 1 along the optimum, all six fidelities tend to 1
    near = GadParams(1.0 - 1e-12, 0.6)
    best = optimal_strengths(near)
    assert average_fidelity_six(near, best.m, best.n).favg > 1.0 - 1e-5


def test_protection_never_hurts():
    for p in np.linspace(0.05, 1.0, 12):
        for r in np.linspace(0.0, 0.95, 12):
            params = GadParams(float(p), float(r))
            best = optimal_strengths(params)
            assert best.f_max >= baseline_fidelity(params) - 1e-12
            assert g_value(params) <= 1.0 + 1e-12


def test_g_value_special_points():
    assert abs(g_value(GadParams(0.5, 0.7)) - 1.0) < 1e-15
    assert abs(g_value(GadParams(0.3, 0.0)) - 1.0) < 1e-15
    assert abs(g_value(GadParams(1.0, 0.7)) - math.sqrt(0.3)) < 1e-15


def test_key_distribution_error_complements_fidelity():
    for _ in range(25):
        params = random_params()
        m, n = RNG.uniform(0.05, 2.0, size=2)
        err = bb84_error_rate(params, float(m), float(n))
        fid = protect_equatorial(params, float(m), float(n)).fidelity
        assert abs(err - (1.0 - fid)) < 1e-12


def test_pole_fidelities_match_pipeline():
    for _ in range(25):
        params = random_params()
        m, n = RNG.uniform(0.05, 2.0, size=2)
        rep = average_fidelity_six(params, float(m), float(n))
        for target, expect in ((POLES[0], rep.f0), (POLES[1], rep.f1)):
            out, _ = apply_protection(params, float(m), float(n), target)
            assert abs(fidelity(target, out) - expect) < 1e-12
        assert abs(rep.favg - (rep.f0 + rep.f1 + 4 * rep.fe) / 6.0) < 1e-15


def test_pole_fidelities_balance_at_optimal_reversal():
    for _ in range(20):
        params = random_params()
        best = optimal_strengths(params)
        m = float(RNG.uniform(0.1, 1.5))
        rep = average_fidelity_six(params, m, best.n)
        assert abs(rep.f0 - rep.f1) < 1e-12


def test_average_optimum():
    # the equatorial optimum maximizes the six-state average as well
    best = optimal_strengths(REF)
    favg = average_fidelity_six(REF, best.m, best.n).favg
    assert abs(favg - REF_FAVG) < 1e-12
    # small perturbations around the optimum never push the average higher
    for _ in range(50):
        dm, dn = RNG.uniform(-0.03, 0.03, size=2)
        trial = average_fidelity_six(REF, best.m + dm, best.n + dn).favg
        assert trial <= favg + 1e-9


def test_six_states_are_valid():
    equator = [equatorial_state(k * 0.5 * math.pi) for k in range(4)]
    for state in (*POLES, *equator):
        validate_density(state)
