import dataclasses
import math

import numpy as np
import pytest

from decoshield.channels import GadParams
from decoshield.entangle import (
    EntangledInput,
    channel_degraded_state,
    component_coefficients,
    concurrence_lambda1,
    concurrence_lambda2,
    lambda2_max,
    measured_coefficients,
    optimal_parameters,
    optimal_reversal,
    pipeline_state,
    protected_state,
    reversed_state,
)
from decoshield.linalg import validate_density
from decoshield.optimize import stationarity_check
from decoshield.qubit import protect_equatorial

RNG = np.random.default_rng(63388)

BELL = EntangledInput.from_alpha_sq(0.5)
# channel pair (0.9, 0.5) x (0.95, 0.3) used throughout as a worked example,
# optimum cross-checked against the 3-d grid + simplex oracle
REF1 = GadParams(0.9, 0.5)
REF2 = GadParams(0.95, 0.3)
ESD = GadParams(0.7, 0.61)


def random_channel():
    return GadParams(float(RNG.uniform(0.05, 0.95)), float(RNG.uniform(0.05, 0.95)))


def random_input():
    alpha_sq = float(RNG.uniform(0.05, 0.95))
    phase = np.exp(1j * RNG.uniform(0.0, 2.0 * np.pi))
    return EntangledInput(math.sqrt(alpha_sq), math.sqrt(1.0 - alpha_sq) * phase)


def test_bell_density_has_the_x_state_layout():
    rho = BELL.density()
    # alpha|00> + beta|11>: nonzero only where rows and columns 0 and 3 meet
    assert rho[0, 0] == rho[0, 3] == rho[3, 0] == rho[3, 3]
    assert not rho[1:3].any() and not rho[:, 1:3].any()
    validate_density(rho)
    assert abs(rho[0, 3] - 0.5) < 1e-15


def test_records_stay_frozen_dataclasses():
    # both records store their fields in their own __init__, past the
    # dataclass's: what the dataclass gave them must still hold
    coeffs = measured_coefficients(BELL, REF1, REF2, 0.7, 0.6)
    result = protect_equatorial(REF1, 0.7, 0.6)
    for record in (coeffs, result):
        for f in dataclasses.fields(record):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, f.name, 0.0)
        fields = dataclasses.asdict(record)
        assert type(record)(**fields) == type(record)(*fields.values()) == record
    with pytest.raises(ValueError, match=r"^b must be finite and non-negative, got -0\.2$"):
        dataclasses.replace(coeffs, b=-0.2)
    # _entries is out of the repr and of equality
    assert "_entries" not in repr(result)
    assert dataclasses.replace(result, _entries=()) == result
    # output_state is built on first read, then kept
    assert "output_state" not in vars(result)
    state = result.output_state
    assert vars(result)["output_state"] is state is result.output_state


def test_identity_channels_pass_through():
    ident = GadParams(0.4, 0.0)
    inp = random_input()
    coeffs = channel_degraded_state(inp, ident, ident)
    assert abs(coeffs.a - abs(inp.alpha) ** 2) < 1e-15
    assert abs(coeffs.d - abs(inp.beta) ** 2) < 1e-15
    assert coeffs.b == 0.0 and coeffs.c == 0.0
    assert abs(coeffs.e - inp.alpha * np.conj(inp.beta)) < 1e-15


def test_degraded_state_has_unit_trace():
    for _ in range(40):
        coeffs = channel_degraded_state(random_input(), random_channel(), random_channel())
        assert abs(coeffs.a + coeffs.b + coeffs.c + coeffs.d - 1.0) < 1e-12
        validate_density(coeffs.matrix())


def test_degraded_state_matches_pipeline():
    for _ in range(30):
        inp = random_input()
        ch1, ch2 = random_channel(), random_channel()
        coeffs = channel_degraded_state(inp, ch1, ch2)
        rho, prob = pipeline_state(inp, ch1, ch2, 1.0, 1.0, 1.0, 1.0)
        assert np.max(np.abs(coeffs.matrix() - rho)) < 1e-12
        assert abs(prob - 1.0) < 1e-12


def test_reference_degraded_coefficients():
    coeffs = channel_degraded_state(BELL, REF1, REF2)
    assert abs(coeffs.b - 0.168) < 1e-12
    assert abs(coeffs.c - 0.103) < 1e-12
    assert abs(abs(coeffs.e) - 0.29580398915498085) < 1e-12
    assert abs(concurrence_lambda1(coeffs) - 0.32851863987147606) < 1e-12


def test_component_split_consistency():
    for _ in range(20):
        inp = random_input()
        ch1, ch2 = random_channel(), random_channel()
        m1, m2 = RNG.uniform(0.05, 2.0, size=2)
        coeffs = measured_coefficients(inp, ch1, ch2, float(m1), float(m2))
        lo, hi = component_coefficients(ch1, ch2)
        mm = (m1 * m2) ** 2
        wa, wb = abs(inp.alpha) ** 2, abs(inp.beta) ** 2
        totals = (coeffs.a, coeffs.b, coeffs.c, coeffs.d)
        for unit0, unit1, total in zip(lo, hi, totals):
            assert abs(total - (unit0 * wa + unit1 * wb * mm)) < 1e-13


def test_only_strength_product_matters_for_state():
    inp = random_input()
    ch1, ch2 = random_channel(), random_channel()
    joint = measured_coefficients(inp, ch1, ch2, 0.18, 0.9)
    single = measured_coefficients(inp, ch1, ch2, 0.162, 1.0)
    for field in ("a", "b", "c", "d", "e"):
        assert abs(getattr(joint, field) - getattr(single, field)) < 1e-14


def test_channel_swap_symmetry():
    ch1, ch2 = random_channel(), random_channel()
    fwd = channel_degraded_state(BELL, ch1, ch2)
    rev = channel_degraded_state(BELL, ch2, ch1)
    assert abs(fwd.b - rev.c) < 1e-14
    assert abs(fwd.c - rev.b) < 1e-14
    assert abs(concurrence_lambda1(fwd) - concurrence_lambda1(rev)) < 1e-14
    assert abs(lambda2_max(ch1, ch2) - lambda2_max(ch2, ch1)) < 1e-14


def test_lambda1_special_cases():
    ident = GadParams(0.7, 0.0)
    assert abs(concurrence_lambda1(channel_degraded_state(BELL, ident, ident)) - 1.0) < 1e-15
    esd = concurrence_lambda1(channel_degraded_state(BELL, ESD, ESD))
    assert abs(esd - (-0.004181999999999908)) < 1e-12
    assert esd < 0.0


def test_unit_strengths_change_nothing():
    inp = random_input()
    ch1, ch2 = random_channel(), random_channel()
    base = channel_degraded_state(inp, ch1, ch2)
    coeffs, success = protected_state(inp, ch1, ch2, 1.0, 1.0, 1.0, 1.0)
    assert abs(success - 1.0) < 1e-12
    assert np.max(np.abs(coeffs.matrix() - base.matrix())) < 1e-14
    assert abs(concurrence_lambda2(coeffs, 1.0, 1.0) - concurrence_lambda1(base)) < 1e-14


def test_protected_state_is_valid():
    # with m2 != 1, which the output-density-validity family never draws
    for _ in range(30):
        inp = random_input()
        ch1, ch2 = random_channel(), random_channel()
        m1, m2, n1, n2 = (float(x) for x in RNG.uniform(0.05, 2.0, size=4))
        coeffs, _ = protected_state(inp, ch1, ch2, m1, m2, n1, n2)
        validate_density(reversed_state(coeffs, n1, n2)[0])


def test_pipeline_takes_strengths_the_closed_forms_refuse():
    # the pipeline rescales its operators: it takes what the closed forms refuse
    assert pipeline_state(BELL, REF1, REF2, 1.0, 1.0, 1e100, 1e100)[1] > 0.0


def test_optimal_reversal_is_stationary():
    # the reversal formula maximizes n1 n2 / trace; when the coherence
    # deficit |e| - sqrt(bc) is negative that makes lambda2 most negative,
    # so the improvement check runs on the sign-free ratio
    for _ in range(10):
        inp = random_input()
        ch1, ch2 = random_channel(), random_channel()
        m = float(RNG.uniform(0.1, 1.2))
        coeffs = measured_coefficients(inp, ch1, ch2, m, 1.0)
        factor = 2.0 * (abs(coeffs.e) - math.sqrt(coeffs.b * coeffs.c))

        def ratio(v1, v2):
            return concurrence_lambda2(coeffs, v1, v2) / factor

        n1, n2 = optimal_reversal(coeffs)
        best = ratio(n1, n2)
        assert stationarity_check(lambda x: ratio(x[0], x[1]), np.array([n1, n2]), 1e-6) < 1e-6
        for _ in range(20):
            d1, d2 = RNG.uniform(-0.02, 0.02, size=2)
            assert ratio(n1 + float(d1), n2 + float(d2)) <= best + 1e-12


def test_reference_optimum_report():
    rep = optimal_parameters(BELL, REF1, REF2)
    assert rep.degenerate is None
    assert abs(rep.lambda1 - 0.32851863987147606) < 1e-12
    assert abs(rep.lambda2_max - 0.5299918639561245) < 1e-12
    assert abs(rep.lambda2 - rep.lambda2_max) < 1e-12
    assert abs(rep.m_opt - 0.34345808848291176) < 1e-12
    assert abs(rep.n1_opt - 0.5036155644446407) < 1e-12
    assert abs(rep.n2_opt - 0.4421086912138565) < 1e-12
    assert abs(rep.h - 0.11796345854433564) < 1e-12
    assert abs(rep.alpha_sq_opt - 0.8944836187240573) < 1e-12
    assert abs(rep.success_prob - 0.06037974781746659) < 1e-12


def test_optimum_does_not_depend_on_input_weights():
    reports = [
        optimal_parameters(EntangledInput.from_alpha_sq(a_sq), REF1, REF2)
        for a_sq in (0.1, 0.3, 0.5, 0.7, 0.9)
    ]
    first = reports[0]
    for rep in reports[1:]:
        assert abs(rep.lambda2 - first.lambda2) < 1e-10
        assert abs(rep.lambda2_max - first.lambda2_max) < 1e-10
        assert abs(rep.n1_opt - first.n1_opt) < 1e-10
        assert abs(rep.n2_opt - first.n2_opt) < 1e-10
        assert abs(rep.h - first.h) < 1e-10
    for a_sq, rep in zip((0.1, 0.3, 0.5, 0.7, 0.9), reports):
        want_m = math.sqrt(rep.h) * math.sqrt(a_sq) / math.sqrt(1.0 - a_sq)
        assert abs(rep.m_opt - want_m) < 1e-12


def test_amgm_equality_only_at_optimal_strength():
    for _ in range(10):
        inp = random_input()
        ch1, ch2 = random_channel(), random_channel()
        rep = optimal_parameters(inp, ch1, ch2)
        lo, hi = component_coefficients(ch1, ch2)
        wa, wb = abs(inp.alpha) ** 2, abs(inp.beta) ** 2
        for x, y in ((1, 2), (0, 3)):
            x0, x1, y0, y1 = lo[x] * wa, hi[x] * wb, lo[y] * wa, hi[y] * wb
            bound = math.sqrt(x0 * y1) + math.sqrt(x1 * y0)

            def chain(m):
                return math.sqrt(x0 * y0 / (m * m) + x0 * y1 + x1 * y0 + x1 * y1 * m * m)

            assert abs(chain(rep.m_opt) - bound) < 1e-12
            for m in (0.5 * rep.m_opt, 2.0 * rep.m_opt):
                assert chain(m) >= bound - 1e-12


def test_h_is_the_same_through_both_antidiagonal_products():
    for _ in range(25):
        lo, hi = component_coefficients(random_channel(), random_channel())
        via_bc = math.sqrt(lo[1] * lo[2] / (hi[1] * hi[2]))
        via_ad = math.sqrt(lo[0] * lo[3] / (hi[0] * hi[3]))
        assert abs(via_bc - via_ad) < 1e-12 * max(1.0, via_bc)


def test_product_inputs_are_flagged():
    bell = optimal_parameters(BELL, REF1, REF2)
    for a_sq in (0.0, 1.0):
        rep = optimal_parameters(EntangledInput.from_alpha_sq(a_sq), REF1, REF2)
        assert rep.degenerate == "no-entanglement"
        assert rep.lambda2 == 0.0
        assert rep.success_prob == 0.0
        # h, and the weight where the success probability peaks, are the channels' alone
        assert (rep.h, rep.alpha_sq_opt) == (bell.h, bell.alpha_sq_opt)


def test_boundary_channels_are_flagged():
    zerotemp = GadParams(1.0, 0.6)
    rep = optimal_parameters(BELL, zerotemp, GadParams(1.0, 0.4))
    assert rep.degenerate == "projective-limit"
    assert abs(rep.lambda2_max - 1.0) < 1e-12
    assert rep.m_opt == 0.0 and rep.n1_opt == 0.0 and rep.n2_opt == 0.0
    ident = GadParams(0.5, 0.0)
    assert optimal_parameters(BELL, ident, ident).degenerate == "projective-limit"
    # a channel that resets its qubit keeps no entanglement at any strength
    other = GadParams(0.3, 0.4)
    for reset in (GadParams(0.0, 1.0), GadParams(1.0, 1.0)):
        assert lambda2_max(reset, other) == lambda2_max(other, reset) == 0.0
        rep = optimal_parameters(BELL, reset, other)
        assert rep.lambda2_max == rep.lambda2 == 0.0
        assert rep.degenerate == "projective-limit"
        coeffs = measured_coefficients(BELL, reset, other, 0.7, 1.3)
        assert concurrence_lambda2(coeffs, 0.4, 2.0) == 0.0


def test_esd_is_circumvented():
    rep = optimal_parameters(BELL, ESD, ESD)
    assert rep.lambda1 < 0.0
    assert rep.lambda2_max > 0.0
    assert abs(rep.lambda2_max - 0.008049876419679884) < 1e-12
    assert rep.degenerate is None


def test_hot_channels_can_defeat_protection():
    hot = GadParams(0.5, 0.99)
    assert abs(lambda2_max(hot, hot) - (-0.48995)) < 1e-12
    rep = optimal_parameters(BELL, hot, hot)
    assert rep.lambda2 < 0.0
    assert rep.degenerate is None


def test_identity_channels_reach_filtering_limit():
    ident = GadParams(0.5, 0.0)
    inp = EntangledInput.from_alpha_sq(0.3)
    coeffs = channel_degraded_state(inp, ident, ident)
    want = 2.0 * abs(inp.alpha) * abs(inp.beta)
    assert abs(concurrence_lambda2(coeffs, 1.0, 1.0) - want) < 1e-12
    assert abs(lambda2_max(ident, ident) - 1.0) < 1e-15
