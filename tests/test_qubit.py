import decimal
import math
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np

from decoshield.channels import GadParams
from decoshield.linalg import equatorial_state, fidelity, validate_density
from decoshield.optimize import stationarity_check
from decoshield.qubit import (
    apply_protection,
    average_fidelity_six,
    baseline_fidelity,
    bb84_error_rate,
    g_value,
    optimal_strengths,
    protect_equatorial,
    qkd_error_rate,
)

RNG = np.random.default_rng(41177)

POLES = (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))

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


def test_strength_validation():
    # the pipeline rescales its operators: it takes what the closed form refuses
    assert bb84_error_rate(REF, 1e100, 1e100) == 0.5
    # an integer array is computed as float64, as its ints are, not wrapped
    # in int64; a float32 array as its float32 scalars are, not in float32
    wide = protect_equatorial(REF, np.array([10**10]), np.array([1]))
    assert wide.fidelity.tolist() == [protect_equatorial(REF, 1e10, 1.0).fidelity]
    f32 = np.float32
    point = average_fidelity_six(REF, f32(0.3), f32(0.7))
    narrow = average_fidelity_six(REF, np.array([0.3], f32), np.array([0.7], f32))
    assert {k: v.tolist() for k, v in vars(narrow).items()} == {
        k: [v] for k, v in vars(point).items()
    }


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
    f0 = protect_equatorial(REF, best.m, best.n).fidelity
    assert stationarity_check(
        lambda x: protect_equatorial(REF, x[0], x[1]).fidelity, np.array([best.m, best.n]), 1e-6
    ) < 1e-6
    # nearby points never beat the claimed maximum
    for _ in range(50):
        dm, dn = RNG.uniform(-0.05, 0.05, size=2)
        trial = protect_equatorial(REF, best.m + dm, best.n + dn).fidelity
        assert trial <= f0 + 1e-12


def test_projective_limit():
    best = optimal_strengths(GadParams(1.0, 0.6))
    assert best.projective
    assert best.m == 0.0 and best.n == 0.0
    assert best.f_max == 1.0
    # approaching p = 1 along the optimum, all six fidelities tend to 1
    near = GadParams(1.0 - 1e-12, 0.6)
    best = optimal_strengths(near)
    assert average_fidelity_six(near, best.m, best.n).favg > 1.0 - 1e-5


def test_g_value_special_points():
    assert abs(g_value(GadParams(0.5, 0.7)) - 1.0) < 1e-15
    assert abs(g_value(GadParams(0.3, 0.0)) - 1.0) < 1e-15
    assert abs(g_value(GadParams(1.0, 0.7)) - math.sqrt(0.3)) < 1e-15


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


def decimal_error_rate(p, r, m, n):
    """(t - 2c) / (2t) to 60 digits, with t the trace and c the coherence of
    the protected equatorial state, from the exact values of the floats
    given: a reference with no numpy in its arithmetic. The difference is
    taken as (t^2 - 4c^2) / (t + 2c), whose numerator is exact in rationals,
    so the 60 digits hold however much t - 2c cancels."""
    p, r, m, n = map(Fraction, (p, r, m, n))
    t = n * n * (1 - r + p * r + m * m * p * r) + m * m * (1 - p * r) + (1 - p) * r
    with decimal.localcontext() as ctx:
        ctx.prec = 60

        def digits(x):
            return Decimal(x.numerator) / x.denominator

        two_c = 2 * digits(m * n) * digits(1 - r).sqrt()
        return digits(t * t - 4 * m * m * n * n * (1 - r)) / (2 * digits(t) * (digits(t) + two_c))


# the relative accuracy the README states for the printed rate
RATE_REL_TOL = 1e-11


def whole_domain_weight(rng):
    """0 or 1, a weight within 1e-6 of either, down to the subnormals above 0,
    or a uniform one."""
    tiny = float(10.0 ** rng.uniform(-323.0, -6.0))
    return (0.0, 1.0, tiny, 1.0 - tiny, float(rng.uniform()))[rng.integers(5)]


def test_error_rate_matches_decimal_reference():
    # over the whole domain, strengths log-uniform in [1e-12, 50], and on
    # every other draw near the optimum, where 1/2 - c/t cancels
    rng = np.random.default_rng(2500)
    checked = 0
    for i in range(3000):
        p, r = whole_domain_weight(rng), whole_domain_weight(rng)
        params = GadParams(p, r)
        m, n = (10.0 ** rng.uniform(-12.0, math.log10(50.0), size=2)).tolist()
        if i % 2 and 0.0 < p < 1.0 and p * (1.0 - r + p * r) > 0.0:
            best = optimal_strengths(params)
            m, n = (np.array([best.m, best.n]) * (1.0 + rng.uniform(-1e-3, 1e-3, size=2))).tolist()
        try:
            got = qkd_error_rate(params, m, n)
        except ValueError:  # refused as protect_equatorial refuses: void or overflowing
            continue
        want = decimal_error_rate(p, r, m, n)
        # relative to the rate, or, below the normal floats, where floats lose
        # relative accuracy, to the least normal float
        scale = max(want, Decimal(sys.float_info.min))
        assert abs(Decimal(got) - want) <= Decimal(RATE_REL_TOL) * scale, (p, r, m, n, got, want)
        checked += 1
    assert checked > 2000, checked
