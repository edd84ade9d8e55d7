"""Acceptance gate: eight end-to-end criteria with stated tolerances.

Criteria 2-7 run the cross-check families of decoshield.checks, the same
battery `decoshield verify` runs, at gate-sized samples and with their own
seeds. Each test prints one summary line with the measured values and its
runtime; pytest -v adds the per-criterion pass/fail verdict. The reference
numbers are frozen from the independent grid + simplex oracles in this
package.
"""

import time

import numpy as np

from decoshield import checks
from decoshield.channels import GadParams
from decoshield.entangle import (
    EntangledInput,
    channel_degraded_state,
    component_coefficients,
    measured_coefficients,
    optimal_parameters,
    pipeline_state,
    protected_state,
    reversed_state,
)
from decoshield.linalg import wootters_concurrence

BELL = checks.BELL
REF_CH1, REF_CH2 = checks.REF_PAIR
ESD_CH = GadParams(0.7, 0.61)


def _done(num: int, detail: str, t0: float, budget: float | None = None) -> None:
    elapsed = time.perf_counter() - t0
    if budget is not None:
        assert elapsed < budget, f"criterion {num} overran {budget} s: {elapsed:.2f} s"
    print(f"PASS criterion {num}: {detail} [{elapsed:.2f} s]")


def _passes(rng, *runs) -> str:
    """Run each (family, count) on the one generator, require every family
    to pass, and return their details joined."""
    details = []
    for family, count in runs:
        ok, detail = family(rng, count)
        assert ok, f"{family.__name__}: {detail}"
        details.append(f"{family.__name__} {detail}")
    return "; ".join(details)


def test_criterion_1_reference_concurrence_optimum():
    t0 = time.perf_counter()
    rep = optimal_parameters(BELL, REF_CH1, REF_CH2)
    assert abs(max(0.0, rep.lambda2_max) - 0.53) < 0.005
    assert abs(rep.m_opt - 0.34) < 0.005
    assert abs(rep.n1_opt - 0.50) < 0.005
    assert abs(rep.n2_opt - 0.44) < 0.005
    assert abs(rep.success_prob - 0.06) < 0.005
    assert abs(max(0.0, rep.lambda1) - 0.33) < 0.005
    _done(
        1,
        f"protected concurrence {rep.lambda2_max:.4f} at m={rep.m_opt:.4f}, "
        f"n1={rep.n1_opt:.4f}, n2={rep.n2_opt:.4f}, "
        f"success {rep.success_prob:.4f}, unprotected {rep.lambda1:.4f}",
        t0,
        budget=1.0,
    )


def test_criterion_2_sudden_death_circumvention():
    t0 = time.perf_counter()
    rep = optimal_parameters(BELL, ESD_CH, ESD_CH)
    assert rep.lambda1 < 0.0
    assert max(0.0, rep.lambda1) == 0.0
    assert rep.lambda2_max > 0.0
    ok, detail = checks.entangle_optimum_oracle(None, 1, pairs=((ESD_CH, ESD_CH),))
    assert ok, detail
    _done(
        2,
        f"lambda1 {rep.lambda1:.6f} < 0, lambda2_max {rep.lambda2_max:.6f} > 0, "
        f"simplex oracle {detail}",
        t0,
        budget=5.0,
    )


def test_criterion_3_single_qubit_optimum_matches_oracle():
    t0 = time.perf_counter()
    detail = _passes(None, (checks.qubit_optimum_oracle, 10))
    _done(3, f"10x10 channel points: {detail}", t0, budget=60.0)


def test_criterion_4_two_qubit_bound_never_exceeded():
    t0 = time.perf_counter()
    # the bound is tight, not just safe: the search reaches it from below
    detail = _passes(None, (checks.entangle_optimum_oracle, 5))
    _done(4, f"5 channel sets: {detail}", t0, budget=120.0)


def test_criterion_5_closed_forms_equal_pipeline():
    t0 = time.perf_counter()
    detail = _passes(
        np.random.default_rng(224488),
        (checks.qubit_closed_form_vs_pipeline, 5000),
        (checks.entangle_closed_form_vs_pipeline, 5000),
    )
    _done(5, f"10^4 draws: {detail}", t0)


def test_criterion_6_independent_oracles_agree():
    t0 = time.perf_counter()
    detail = _passes(
        np.random.default_rng(995511),
        (checks.dilation_vs_kraus, 500),
        (checks.xstate_vs_wootters, 500),
        (checks.qkd_error_complement, 200),
    )
    _done(6, detail, t0)


def test_criterion_7_invariants():
    t0 = time.perf_counter()
    detail = _passes(
        np.random.default_rng(337799),
        (checks.kraus_completeness, 200),
        (checks.output_density_validity, 50),
        (checks.protection_never_hurts, 50),
        (checks.alpha_weight_independence, 5),
        (checks.success_peak_location, 99),
    )
    _done(7, detail, t0)


def test_criterion_8_typo_regressions():
    t0 = time.perf_counter()
    m1, m2, n1, n2 = 0.34345808848291176, 1.0, 0.5036155644446407, 0.4421086912138565

    # regression 1: the reversal must keep a unit weight on |11> and the
    # single-excitation weights n1, n2; zeroing those rows collapses the
    # state onto |00> and destroys the concurrence entirely
    coeffs = measured_coefficients(BELL, REF_CH1, REF_CH2, m1, m2)
    good, _ = reversed_state(coeffs, n1, n2)
    generic, _ = pipeline_state(BELL, REF_CH1, REF_CH2, m1, m2, n1, n2)
    assert float(np.max(np.abs(good - generic))) <= 1e-12
    broken_op = np.diag([n1 * n2, 0.0, 0.0, 0.0]).astype(complex)
    broken_raw = broken_op @ coeffs.matrix() @ broken_op.conj().T
    broken = broken_raw / broken_raw.trace().real
    assert float(np.max(np.abs(broken - generic))) > 1e-3
    assert wootters_concurrence(broken) < 1e-10
    assert wootters_concurrence(good) > 0.5

    # regression 2: the |11> survival weight is the product
    # (1 - p1 r1)(1 - p2 r2); the additive variant with r2 squared breaks
    # the unit trace and the pipeline match whenever r1 != r2
    p1, r1, p2, r2 = 0.9, 0.5, 0.95, 0.3
    lo, hi = component_coefficients(REF_CH1, REF_CH2)
    d1_good = hi[3]
    assert abs(d1_good - (1 - p1 * r1) * (1 - p2 * r2)) <= 1e-15
    d1_typo = 1 - p1 * r1 - p2 * r2 + p1 * p2 * r2 * r2
    assert abs(d1_typo - d1_good) > 1e-3
    base = channel_degraded_state(EntangledInput.from_alpha_sq(0.0), REF_CH1, REF_CH2)
    rho, _ = pipeline_state(
        EntangledInput.from_alpha_sq(0.0), REF_CH1, REF_CH2, 1.0, 1.0, 1.0, 1.0
    )
    assert abs(base.d - float(rho[3, 3].real)) <= 1e-12
    assert abs(base.d - d1_good) <= 1e-12
    typo_trace = base.a + base.b + base.c + d1_typo
    assert abs(typo_trace - 1.0) > 1e-3

    # regression 3: strengths above one cost probability quadratically;
    # a linear rescaling convention disagrees with the physical pipeline
    strengths = (1.4, 0.7, 1.2, 0.9)
    coeffs, success = protected_state(BELL, REF_CH1, REF_CH2, *strengths)
    _, prob = pipeline_state(BELL, REF_CH1, REF_CH2, *strengths)
    assert abs(success - prob) <= 1e-12
    linear = _reversed_trace_of(coeffs, strengths[2], strengths[3])
    for c in strengths:
        if c > 1.0:
            linear /= c
    assert abs(linear - prob) > 1e-3

    _done(
        8,
        "reversal diagonal, doubly-excited weight and success-probability "
        "conventions all locked to the pipeline",
        t0,
    )


def _reversed_trace_of(coeffs, n1: float, n2: float) -> float:
    return (
        n1 * n1 * n2 * n2 * coeffs.a
        + n1 * n1 * coeffs.b
        + n2 * n2 * coeffs.c
        + coeffs.d
    )
