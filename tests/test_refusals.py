"""Every library refusal, pinned once: one row (entry point name, call, error
type, message) per refusal, each message in full, or by an anchored regex
where numpy writes the text."""

import cmath
import math
import re
from functools import partial

import numpy as np
import pytest

import decoshield
from decoshield import (
    EntangledInput, GadParams, PostSelectionError, SearchBox, XStateCoefficients, apply_channel,
    apply_on_qubit, apply_postselected, apply_protection, apply_via_dilation, average_fidelity_six,
    bb84_error_rate, concurrence_lambda1, concurrence_lambda2, equatorial_state, fidelity,
    gad_channel, measured_coefficients, optimal_parameters, optimal_reversal,
    optimal_strengths, pipeline_state, protect_equatorial, protected_state, qkd_error_rate,
    reversed_state, simplex_maximize, stationarity_check, validate_density, wootters_concurrence,
)
from decoshield.entangle import optimized_protection
from decoshield.weakmeas import measure_damp_reverse, require_postselection

REF, HALF, STILL = GadParams(0.8, 0.3), GadParams(0.5, 0.5), GadParams(0.5, 0.0)
IDENTITY = GadParams(1.0, 0.0)
BELL = EntangledInput.from_alpha_sq(0.5)
PAIR = (BELL, GadParams(0.9, 0.5), GadParams(0.95, 0.3))
COEFFS = measured_coefficients(*PAIR, 0.5, 1.0)
# a state with no |11> weight, and numpy-scalar entries whose reversed trace overflows
GROUND = measured_coefficients(EntangledInput.from_alpha_sq(1.0), STILL, STILL, 1.0, 1.0)
HUGE = XStateCoefficients(*map(np.float64, (1e300, 0.1, 0.1, 0.2)), 0.1 + 0j)
EXCITED = (EntangledInput.from_alpha_sq(0.0), *PAIR[1:])
RHO = equatorial_state(0.4)
PURE_GROUND = np.diag([1.0, 0.0]).astype(complex)
MIXED, MIXED4 = np.diag([0.5, 0.5]).astype(complex), np.eye(4) / 4
UNDAMPED = (np.eye(2, dtype=complex)[None],)  # the identity channel, on one qubit
BOX = SearchBox.cube(0.0, 1.0, 2, 2)
TILTED = (EntangledInput(math.sqrt(0.4), math.sqrt(0.6) * cmath.exp(0.7j)),
          GadParams(0.3, 0.6), GadParams(0.8, 0.2))
# whole-domain inputs whose pipeline voids below the cutoff
FAR = (EntangledInput(0.8950040009737983 + 0.10538606826855873j,
                      -0.4299332915525276 - 0.05494524247464101j),
       GadParams(0.0, 0.03840773339449355), GadParams(0.2758230999922594, 0.8356820104143213))
FAR_VOID = (2057857.551848744, 3014949.7326913644, 2087442.8317731714, 3040626.2231780947)

positive = "{} must be finite and positive with a finite nonzero square, got {!r}".format
non_negative = "{} must be finite and non-negative with a finite square, got {!r}".format
overflow = "strengths {} overflow the float range".format
bad_strength = "strengths must be finite and non-negative, got {!r}".format
unit = "{} must be in [0, 1], got {}".format
P_ZERO = "p = 0: optimal pre-measurement strength diverges"
P_R_ONE = "p = 1 with r = 1: optimum is degenerate"
UNDERFLOW = "p = 1e-200 with r = 1.0: optimal reversal strength overflows"
DEGENERATE = "degenerate coefficients, reversal optimum undefined"
NOT_PURE = "reference state is not pure: tr(psi^2) = 0.5"
# non-finite strengths, and ones whose square underflows or overflows
BAD_SQUARES = (math.nan, math.inf, 1e-200, 1e160)
# a Python complex, a numpy complex scalar and a complex array, whose first
# entry is shown: each is refused as given, never truncated to its real part
COMPLEX = (0.5 + 1j, np.complex128(0.5 + 1j), np.array([0.5 + 1j, 0.7]))


def row(message, fn, *args, error=ValueError):
    """(entry point name, call, error type, message)."""
    return fn.__qualname__, partial(fn, *args), error, message


def void(prob, fn, *args):
    """A run voided below the cutoff, named by its joint success probability."""
    return row(f"success probability {prob} below cutoff", fn, *args, error=PostSelectionError)


def pipeline_rows(fn, args, base, tail=()):
    """Each bad strength, NaN included, in every position of a pipeline,
    alone and as the middle entry of a strength array (Python's min and max
    skip a NaN depending on where it sits), and an int past the float range."""
    rows = []
    for pos in range(len(base)):
        for value in (math.nan, math.inf, -0.5, 10**400):
            lone = [*base[:pos], value, *base[pos + 1:]]
            rows.append(row(bad_strength(value), fn, *args, *lone, *tail))
            if value != 10**400:
                lone[pos] = np.array([base[pos], value, base[pos]])
                rows.append(row(bad_strength(value), fn, *args, *lone, *tail))
    return rows


ROWS = [
    # the qubit closed forms take strengths that are positive and finite with
    # a finite nonzero square; a numpy scalar or an int is named as it holds
    row(positive("m", 0.0), protect_equatorial, REF, 0.0, 0.5),
    row(positive("n", -1.0), protect_equatorial, REF, 0.5, -1.0),
    row(positive("m", 0.0), bb84_error_rate, REF, 0.0, 0.5),
    row(positive("n", 0.0), average_fidelity_six, REF, 0.5, 0.0),
    *(r for bad in BAD_SQUARES for r in (
        row(positive("m", bad), protect_equatorial, HALF, bad, 1.0),
        row(positive("m", bad), average_fidelity_six, HALF, bad, 1.0),
        row(positive("n", bad), protect_equatorial, HALF, np.array([0.5, 1.0]),
            np.array([1.0, bad])),
        row(positive("m", bad), average_fidelity_six, HALF, np.array([[0.5], [bad]]),
            np.array([1.0, 2.0])),
        row(positive("n", bad), bb84_error_rate, HALF, 0.5, bad),
        row(positive("m", bad), bb84_error_rate, HALF, np.float64(bad), 0.5),
    )),
    row(positive("m", 10**200), protect_equatorial, REF, 10**200, 1.0),
    row(positive("m", 10**200), bb84_error_rate, REF, 10**200, 1.0),
    row(positive("n", 10**200), average_fidelity_six, REF, 1.0, 10**200),
    # products that overflow are named by their strengths, ints as floats
    row(overflow("m, n = 1e+100, 1e+100"), protect_equatorial, REF, 1e100, 1e100),
    row(overflow("m, n = 1e+100, 1e+100"), protect_equatorial, REF, 10**100, 10**100),
    row(overflow("m, n = 1e+100, 1e+100"), average_fidelity_six, REF,
        np.array([[1.0], [1e100]]), np.array([1.0, 1e100])),
    # the qubit optimum: p = 0, the degenerate corner and an underflowing
    # p (1 - r + p r), alone and as the first failing channel of an array
    row(P_ZERO, optimal_strengths, GadParams(0.0, 0.4)),
    row(P_R_ONE, optimal_strengths, GadParams(1.0, 1.0)),
    row(UNDERFLOW, optimal_strengths, GadParams(1e-200, 1.0)),
    row(UNDERFLOW, optimal_strengths, GadParams(1e-200, 1)),
    row(P_ZERO, optimal_strengths, GadParams(np.array([0.5, 0.0]), 0.4)),
    row(P_R_ONE, optimal_strengths, GadParams(np.array([0.5, 1.0]), np.array([1.0, 1.0]))),
    row(UNDERFLOW, optimal_strengths,
        GadParams(np.array([[0.5], [1e-200], [1e-300]]), np.array([0.4, 1.0]))),
    # two-qubit inputs
    row("|alpha|^2 + |beta|^2 = 1.62, expected 1", EntangledInput, 0.9, 0.9),
    row("alpha_sq must lie in [0, 1], got 1.2", EntangledInput.from_alpha_sq, 1.2),
    row("alpha must be finite, got nan", EntangledInput, math.nan, 0.0),
    row("beta must be finite, got infj", EntangledInput, 1.0, complex(0.0, math.inf)),
    # the two-qubit closed forms allow zero strengths, not negative ones; the
    # reversal strengths are checked where the reversal enters, on every path
    row(non_negative("m1", -0.5), measured_coefficients, *PAIR, -0.5, 1.0),
    row(non_negative("n2", -0.1), protected_state, *PAIR, 0.5, 1.0, 0.5, -0.1),
    *(r for bad in (math.nan, math.inf, 1e160) for r in (
        row(non_negative("m1", bad), measured_coefficients, *PAIR, bad, 1.0),
        row(non_negative("m2", bad), measured_coefficients, *PAIR, np.array([0.5, 1.0]),
            np.array([1.0, bad])),
        row(non_negative("n2", bad), protected_state, *PAIR, 0.5, 1.0, 0.5, bad),
        row(non_negative("n1", bad), protected_state, *PAIR, np.array([0.5, 0.7]), 1.0,
            np.array([bad, 0.5]), 0.5),
    )),
    *(r for bad in (-0.5, math.nan, math.inf) for r in (
        row(non_negative("n1", bad), concurrence_lambda2, COEFFS, bad, 0.44),
        row(non_negative("n2", bad), reversed_state, COEFFS, 0.44, bad),
    )),
    # overflowing products, from floats, numpy scalars and ints alike
    *(r for big in (1e100, np.float64(1e100), 10**100) for r in (
        row(overflow("m1, m2 = 1e+100, 1e+100"), measured_coefficients, *PAIR, big, big),
        row(overflow("n1, n2 = 1e+100, 1e+100"), protected_state, *PAIR, 1.0, 1.0, big, big),
        row(overflow("n1, n2 = 1e+100, 1e+100"), concurrence_lambda2, COEFFS, big, big),
        row(overflow("n1, n2 = 1e+100, 1e+100"), reversed_state, COEFFS, big, big),
    )),
    row(overflow("m1, m2 = 1e+100, 1e+100"), measured_coefficients, *PAIR,
        np.array([0.5, 1e100]), np.array([1.0, 1e100])),
    row(overflow("n1, n2 = 1e+100, 1e+100"), concurrence_lambda2, COEFFS,
        np.array([0.5, 1e100]), 1e100),
    *(row(overflow("n1, n2 = 10000000000.0, 10000000000.0"), fn, HUGE, 1e10, 1e10)
      for fn in (concurrence_lambda2, reversed_state)),
    # above m of about 1e77 the optimal reversal overflows: the error names m
    row(overflow("m = 5e+99"), optimized_protection, *PAIR, 5e99),
    row(overflow("m = 5e+99"), optimized_protection, *PAIR, np.array([1.0, 5e99, 6e99])),
    row(DEGENERATE, optimal_reversal, XStateCoefficients(0.0, 0.2, 0.2, 0.6, 0.1)),
    row(DEGENERATE, optimal_reversal, XStateCoefficients(np.array([0.1, 0.0]), 0.2, 0.2, 0.6, 0.1)),
    row(DEGENERATE, optimal_parameters, EntangledInput.from_alpha_sq(1e-300), *PAIR[1:]),
    # a void run names its joint success probability; a void first stage
    # keeps its zero weight, so that probability reads 0, not NaN
    void(0.0, protected_state, *EXCITED, 0.0, 1.0, 1.0, 1.0),
    void(0.0, pipeline_state, *EXCITED, 0.0, 1.0, 1.0, 1.0),
    void(0.0, concurrence_lambda2, GROUND, 0.0, 0.0),
    void(0.0, reversed_state, GROUND, 0.0, 0.0),
    void(0.0, apply_postselected, [0.0, 1.0], PURE_GROUND),
    *(void(0.0, measure_damp_reverse, PURE_GROUND, (1.0,), (n,), UNDAMPED)
      for n in (0.0, np.array([0.5, 0.0, 2.0]))),
    *(void(shown, require_postselection, prob)
      for prob, shown in ((0.0, "0.0"), (math.nan, "nan"), (np.array([1, math.nan, 0]), "nan"))),
    void(9.93757819293463e-15, pipeline_state, *FAR, *FAR_VOID),
    void(9.93757819293463e-15, pipeline_state, *FAR, *(np.array([1.0, s, 1.0]) for s in FAR_VOID)),
    void(1.8624999999999994e-15, apply_protection, GadParams(0.0, 1.0), 0.7, 2e7, RHO),
    void(1.8624999999999994e-15, apply_protection, GadParams(0.0, 1.0), 0.7,
         np.array([1.0, 2e7, 3e7]), RHO),
    void(1.8624999999999994e-15, apply_protection, GadParams(np.array([0.5, 0.0]), 1.0), 0.7,
         2e7, np.stack([RHO, RHO])),
    # the Kraus pipelines name a bad strength as given, a negative reversal
    # strength too (not its product with the other qubit's), and a product
    # that overflows by its strengths, not as inf
    *pipeline_rows(pipeline_state, TILTED, (0.7, 1.1, 0.9, 1.2)),
    *pipeline_rows(apply_protection, (GadParams(0.3, 0.6),), (0.7, 1.3), (RHO,)),
    row(overflow("m1, m2 = 1e+200, 1e+200"), pipeline_state, BELL, REF, REF, 1e200, 1e200, 1, 1),
    row(overflow("n1, n2 = 1e+200, 1e+200"), pipeline_state, BELL, REF, REF, 1, 1, 1e200, 1e200),
    row(overflow("m1, m2 = 1e+200, 1e+200"), pipeline_state, BELL, REF, REF,
        np.array([1.0, 1e200]), 1e200, 1.0, 1.0),
    row(overflow("n1, n2 = 1e+200, 1e+200"), measure_damp_reverse, BELL.density(), (1.0, 1.0),
        (10**200, 10**200), (gad_channel(REF), gad_channel(REF))),
    row(overflow("m1, m2 = 1e+200, 1e+200"), measure_damp_reverse, MIXED4, (1e200, 1e200),
        (1.0, 1.0), UNDAMPED * 2),
    row(overflow("n1, n2 = 1e+200, 1e+200"), measure_damp_reverse, MIXED4, (1.0, 1.0),
        (np.array([1e200]), 1e200), UNDAMPED * 2),
    # measurement diagonals, built from strengths or given raw
    *(row(bad_strength(bad), measure_damp_reverse, RHO, (bad,), (1.0,), UNDAMPED)
      for bad in (-0.1, math.inf, math.nan)),
    *(row(bad_strength(bad), apply_postselected, [1.0, bad], RHO)
      for bad in (-0.1, math.inf, math.nan)),
    row("dimension mismatch: diagonal of 3 vs rho (2, 2)", apply_postselected, [1.0, 0.5, 0.2],
        RHO),
    row("dimension mismatch: diagonal of 2 vs rho (4, 4)", apply_postselected, [1.0, 0.5], MIXED4),
    # channel parameters: the first bad entry of an array is named, and every
    # value is shown as given, an int as an int
    row(unit("p", -0.01), GadParams, -0.01, 0.5),
    row(unit("p", 1.01), GadParams, 1.01, 0.5),
    row(unit("r", 1.2), GadParams, 0.5, 1.2),
    row(unit("p", 1.5), GadParams, np.array([0.2, 1.5, -1.0]), 0.5),
    row(unit("r", "nan"), GadParams, 0.5, np.array([[0.2], [np.nan]])),
    row(unit("r", 2), GadParams, 0.5, 2),
    row(unit("p", 1.5), GadParams, np.float64(1.5), 0.5),
    row(unit("p", 1.5), GadParams, np.array([[0.5, 1.5]]), 0.5),
    row(re.compile(r"shape mismatch: objects cannot be broadcast to a single shape\.  Mismatch "
                   r"is between arg 0 with shape \(2,\) and arg 1 with shape \(3,\)\."),
        GadParams, np.array([0.2, 0.5]), np.array([0.2, 0.5, 0.7])),
    # Kraus channels and their dilation
    row("dimension mismatch: channel 2, rho (1, 4, 4)", apply_channel, gad_channel(REF),
        MIXED4[None]),
    row("dimension mismatch: channel 2, rho (4, 4)", apply_channel, gad_channel(HALF), MIXED4),
    row("qubit must be 0 or 1, got 2", apply_on_qubit, gad_channel(REF), np.kron(RHO, RHO), 2),
    row("expected a single-qubit channel and a 4x4 state", apply_on_qubit, gad_channel(REF),
        RHO, 0),
    row("expected a 2x2 state, got shape (4, 4)", apply_via_dilation, HALF, MIXED4),
    # density matrices and their overlaps
    row("not Hermitian: max |rho - rho^dag| = 5.000e-01", validate_density,
        np.array([[0.5, 0.5], [0.0, 0.5]])),
    row("trace is 1.4, expected 1", validate_density, np.diag([0.7, 0.7])),
    row("negative eigenvalue -2.000e-01", validate_density, np.diag([1.2, -0.2])),
    row("expected a 2x2 or 4x4 matrix, got shape (3, 3)", validate_density, np.eye(3) / 3),
    row("expected a 4x4 matrix, got shape (2, 2)", wootters_concurrence, np.eye(2)),
    row("state is not positive: eigenvalue -5.000e-01", wootters_concurrence,
        np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)),
    row(NOT_PURE, fidelity, MIXED, RHO),
    row("dimension mismatch: (2, 2) vs (4, 4)", fidelity, RHO, MIXED4),
    row(NOT_PURE, fidelity, np.stack([RHO, MIXED]), np.stack([RHO, RHO])),
    # search boxes and the oracles
    row("lower, upper and resolution must share a length", SearchBox, (0.0,), (1.0, 2.0), (5, 5)),
    row("need lower < upper, got [1.0, 1.0]", SearchBox, (1.0,), (1.0,), (5,)),
    row("resolution must be at least 2, got 1", SearchBox, (0.0,), (1.0,), (1,)),
    row("start must have shape (2,), got (3,)", simplex_maximize, lambda x: 0.0, np.zeros(3), BOX),
    row("start must lie inside the box", simplex_maximize, lambda x: 0.0, np.array([2, 0.5]), BOX),
    *(row(f"step must be finite and positive, got {step!r}", stationarity_check, lambda x: 0.0,
          np.zeros(1), step) for step in (0.0, math.nan, math.inf)),
    # complex strengths, channel parameters and diagonals, by name where the
    # refusing check knows it
    *(r for z in COMPLEX for r in (
        row(positive("m", 0.5 + 1j), protect_equatorial, REF, z, 1.0),
        row(positive("n", 0.5 + 1j), bb84_error_rate, REF, 1.0, z),
        row(positive("n", 0.5 + 1j), average_fidelity_six, REF, 1.0, z),
        row(non_negative("m2", 0.5 + 1j), measured_coefficients, *PAIR, 1.0, z),
        row(non_negative("n1", 0.5 + 1j), protected_state, *PAIR, 1.0, 1.0, z, 1.0),
        row(non_negative("n2", 0.5 + 1j), concurrence_lambda2, COEFFS, 1.0, z),
        row(non_negative("m1", 0.5 + 1j), optimized_protection, *PAIR, z),
        row(bad_strength(0.5 + 1j), pipeline_state, BELL, REF, REF, z, 1.0, 1.0, 1.0),
        row(bad_strength(0.5 + 1j), pipeline_state, BELL, REF, REF, 1.0, 1.0, 1.0, z),
        row(bad_strength(0.5 + 1j), apply_protection, REF, z, 1.0, RHO),
        row(bad_strength(0.5 + 1j), measure_damp_reverse, MIXED4, (1.0, 1.0), (1.0, z),
            UNDAMPED * 2),
        row(unit("p", 0.5 + 1j), GadParams, z, 0.3),
        row(unit("r", 0.5 + 1j), GadParams, 0.3, z),
    )),
    *(row(bad_strength(0.5 + 1j), apply_postselected, diagonal, RHO)
      for diagonal in ([0.5 + 1j, 1.0], [np.complex128(0.5 + 1j), 1.0], COMPLEX[2])),
    # (rows are appended here, so that every earlier row keeps its test id)
    # complex values no strength check reads: X-state weights, the input weight, a step
    *(row("a must be real, got (0.3+0.1j)", XStateCoefficients, z, 0.2, 0.2, 0.3, 0.1)
      for z in (np.complex128(0.3 + 0.1j), 0.3 + 0.1j)),
    row("c must be real, got (0.2+0.1j)", XStateCoefficients, 0.3, 0.2, 0.2 + 0.1j, 0.3, 0.1),
    *(row("alpha_sq must lie in [0, 1], got (0.5+1j)", EntangledInput.from_alpha_sq, z)
      for z in COMPLEX[:2]),
    row("step must be finite and positive, got (0.0001+1j)", stationarity_check,
        lambda x: 0.0, np.zeros(1), 1e-4 + 1j),
    # search boxes the oracles cannot walk: a resolution that is no integer,
    # NaN included, and an infinite bound
    row("resolution must be an integer, got 2.5", SearchBox, (0.0,), (1.0,), (2.5,)),
    row("resolution must be an integer, got nan", SearchBox, (0.0,), (1.0,), (math.nan,)),
    row("bounds must be finite, got [0.0, inf]", SearchBox, (0.0,), (math.inf,), (3,)),
    # complex X-state weights, and complex, NaN or too-large search bounds and steps
    *(row("b must be real, got (0.5+1j)", XStateCoefficients, 0.3, z, 0.2, 0.3, 0.1)
      for z in COMPLEX),
    *(row("bounds must be finite, got [(0.5+1j), 1.0]", SearchBox, (z,), (1.0,), (3,))
      for z in COMPLEX[:2]),
    row("bounds must be finite, got [nan, 1.0]", SearchBox, (math.nan,), (1.0,), (3,)),
    row(f"bounds must be finite, got [0.0, {10**400}]", SearchBox, (0.0,), (10**400,), (3,)),
    *(row(f"step must be finite and positive, got {shown}", stationarity_check, lambda x: 0.0,
          np.zeros(1), step) for step, shown in ((10**400, 10**400), (np.float64("nan"), "nan"))),
    # a negative or NaN X-state weight as a float, a numpy scalar or an array
    *(row("d must be non-negative, got -0.3", XStateCoefficients, 0.3, 0.2, 0.2, d, 0.1)
      for d in (-0.3, np.array([0.3, -0.3]))),
    *(row("b must be non-negative, got -0.2", XStateCoefficients, a, b, 0.2, 0.3, 0.1)
      for a, b in ((0.3, -0.2), (0.3, np.float64(-0.2)), (np.array([0.3, 0.4]), -0.2),
                   (0.3, np.array([-0.2, 0.2])))),
    *(row("c must be non-negative, got nan", XStateCoefficients, 0.3, 0.2, c, 0.3, 0.1)
      for c in (math.nan, np.array([0.2, math.nan]))),
    # of two bad weights the first in abcd order is named
    *(row("a must be non-negative, got -0.3", XStateCoefficients, -0.3, 0.2, 0.2, d, 0.1)
      for d in (math.nan, 0.3)),
    # a NaN, infinite or complex azimuth, and a NaN density matrix
    *(row(f"phi must be finite and real, got {shown}", fn, *args, phi)
      for phi, shown in ((math.nan, "nan"), (math.inf, "inf"), (COMPLEX[0], "(0.5+1j)"),
                         (COMPLEX[1], "(0.5+1j)"))
      for fn, args in ((equatorial_state, ()), (protect_equatorial, (REF, 0.5, 0.7)))),
    row("not Hermitian: max |rho - rho^dag| = nan", validate_density,
        np.full((2, 2), math.nan, complex)),
    # an azimuth array is refused at its first non-finite entry, a list as
    # given, and the Wootters route names a non-finite entry
    *(row(f"phi must be finite and real, got {shown}", fn, *args, phi)
      for phi, shown in ((np.array([0.1, math.inf, math.nan]), "inf"), ([0.1, 0.2], "[0.1, 0.2]"))
      for fn, args in ((equatorial_state, ()), (protect_equatorial, (REF, 0.5, 0.7)))),
    row("rho must be finite, got (nan+0j)", wootters_concurrence,
        np.full((4, 4), math.nan, complex)),
    row("rho must be finite, got nan", wootters_concurrence, np.diag([0.25, math.nan, 0.25, 0.25])),
    row("rho must be finite, got (inf+0j)", wootters_concurrence,
        np.diag([0.25, math.inf, 0.25, 0.25]).astype(complex)),
    row("alpha_sq must be a scalar, got shape (1,)", EntangledInput.from_alpha_sq, np.array([0.5])),
    # p = 1, r = 0 is the identity channel: both outcomes keep m^2 + n^2
    # over two, 1e-16 here; an array call names its first failing entry
    void(1e-16, apply_protection, IDENTITY, 1e-8, 1e-8, equatorial_state(0.0)),
    *(void(1.0000000000000001e-16, fn, IDENTITY, m, 1e-8)
      for fn, m in ((protect_equatorial, 1e-8), (average_fidelity_six, 1e-8),
                    (protect_equatorial, np.array([1.0, 1e-8, 2e-8])))),
    # the coherence e is checked after the weights: finite, and one number
    # beside scalar weights
    row("e must be a scalar beside scalar weights, got shape (2,)", XStateCoefficients,
        0.3, 0.2, 0.2, 0.3, np.array([0.1 + 0j, 0.2])),
    row("e must be finite, got nan", XStateCoefficients, 0.3, 0.2, 0.2, 0.3, math.nan),
    row("e must be finite, got (0.1+infj)", XStateCoefficients,
        0.3, 0.2, 0.2, 0.3, complex(0.1, math.inf)),
    row("e must be finite, got (nan+0j)", XStateCoefficients, np.array([0.3, 0.3]), 0.2, 0.2,
        0.3, np.array([0.1 + 0j, complex(math.nan, 0.0)])),
    # the pair optimum takes one channel per qubit
    row("ch1 must be one channel, got shape (2,)", optimal_parameters,
        BELL, GadParams(np.array([0.9, 0.5]), np.array([0.5, 0.3])), PAIR[2]),
    # an amplitude stack is refused at its first unnormalized pair; a search
    # bound and a difference step are each one number
    row("|alpha|^2 + |beta|^2 = 1.17, expected 1", EntangledInput, 0.6, np.array([0.8, 0.9, 1.0])),
    row("bounds must be scalars, got shape (2,)", SearchBox, (np.array([0.1, 0.2]),), (1.0,), (3,)),
    row("step must be a scalar, got shape (2,)", stationarity_check, lambda x: float(x @ x),
        np.zeros(2), np.array([1e-4, 1e-4])),
    # a Python list is no number: refused by the value's name, shown as given
    row("p must be in [0, 1], got [0.3, 0.6]", GadParams, [0.3, 0.6], 0.5),
    row(positive("m", [0.5, 0.6]), protect_equatorial, GadParams(0.3, 0.5), [0.5, 0.6], 1.0),
    row("a must be non-negative, got [0.3, 0.3]", XStateCoefficients, [0.3, 0.3], 0.2, 0.2, 0.3,
        0.1),
    # the closed-form error rate refuses what protect_equatorial refuses
    row(positive("m", 0.0), qkd_error_rate, REF, 0.0, 0.5),
    row(positive("n", math.inf), qkd_error_rate, HALF, np.array([0.5, 1.0]),
        np.array([1.0, math.inf])),
    row(overflow("m, n = 1e+100, 1e+100"), qkd_error_rate, REF, 1e100, np.array([1.0, 1e100])),
    void(1.0000000000000001e-16, qkd_error_rate, IDENTITY, 1e-8, 1e-8),
    # a stack of states is refused at its first non-finite entry
    row("rho must be finite, got inf", wootters_concurrence,
        np.stack([MIXED4, np.diag([0.25, math.inf, 0.25, 0.25])])),
    # the protocol route takes one Kraus channel per qubit, each broadcasting
    # against the state stack
    row("expected one channel per qubit (2), got 1", measure_damp_reverse, MIXED4, (1.0, 1.0),
        (1.0, 1.0), UNDAMPED),
    row("expected one channel per qubit (2), got 3", measure_damp_reverse, MIXED4, (1.0, 1.0),
        (1.0, 1.0), UNDAMPED * 3),
    row(re.compile(r"operands could not be broadcast together with shapes \(2,[\d,]*\) "
                   r"\(3,[\d,]*\) ?"), measure_damp_reverse, np.stack([MIXED4] * 3), (0.5, 1.0),
        (1.0, 1.0), (gad_channel(GadParams(np.array([0.2, 0.5]), 0.3)), gad_channel(REF))),
    # the pair optimum takes one input; a stack of density matrices is
    # refused at its first failing matrix, an amplitude list as no number
    row("inp must be one input, got shape (2,)", optimal_parameters,
        EntangledInput(np.array([0.6, 0.8]), np.array([0.8, 0.6])), *PAIR[1:]),
    row("not Hermitian: max |rho - rho^dag| = 2.000e-01", validate_density,
        np.stack([MIXED, np.array([[0.5, 0.2], [0.0, 0.5]])])),
    row("negative eigenvalue -2.000e-01", validate_density,
        np.stack([MIXED, np.diag([1.2, -0.2]), np.diag([1.5, -0.5])])),
    row("alpha must be a number or an array, got shape (2,)", EntangledInput, [0.6, 0.8], 0.8),
    row("beta must be finite, got (nan+0j)", EntangledInput,
        np.array([0.6, 0.6, 0.6]), np.array([0.8, math.nan, math.inf])),
    # a finite amplitude whose square or modulus leaves the float range makes
    # the norm infinite; a stack names its first failing entry
    *(row("|alpha|^2 + |beta|^2 = inf, expected 1", EntangledInput, *amps) for amps in (
        (1e200, 0.0), (complex(1e308, 1e308), 0.0), (0.0, complex(1.5e308, 1.5e308)),
        (np.array([0.6, 1e200, 0.9]), 0.8), (0.6, np.array([0.8, complex(1e308, 1e308)])),
        (np.array([0.6, complex(1.5e308, 1.5e308)]), 0.8))),
    row("|alpha|^2 + |beta|^2 = 1.4500000000000002, expected 1", EntangledInput,
        np.array([0.6, 0.9, 1e200]), 0.8),
    # an int past the float range is not finite, as a strength of 10**400 is not
    row(f"alpha must be finite, got {10**400!r}", EntangledInput, 10**400, 0.0),
    # a finite coherence whose modulus leaves the float range, lone and stacked
    row("e must have a finite modulus, got (1.5e+308+1.5e+308j)", XStateCoefficients,
        0.3, 0.1, 0.1, 0.3, complex(1.5e308, 1.5e308)),
    row("e must have a finite modulus, got (1.5e+308+1.5e+308j)", XStateCoefficients,
        np.array([0.3, 0.3]), 0.1, 0.1, 0.3, np.array([0.1 + 0j, complex(1.5e308, 1.5e308)])),
    # a concurrence argument that overflows is refused by its coherence, lone and
    # stacked: |e| above half the float range, at unit strengths
    *(row("e = (9e+307+9e+307j): the concurrence overflows", fn, coeffs, *strengths)
      for coeffs in (XStateCoefficients(0.3, 0.1, 0.1, 0.3, complex(9e307, 9e307)),
                     XStateCoefficients(np.array([0.3, 0.3]), np.array([0.1, 0.1]), 0.1, 0.3,
                                        np.array([0.1 + 0j, complex(9e307, 9e307)])))
      for fn, strengths in ((concurrence_lambda1, ()), (concurrence_lambda2, (1.0, 1.0)))),
    # and a non-physical record, |e|^2 > ad, at large reversal strengths and a unit trace
    *(row("e = (1e+154+0j): the concurrence overflows", concurrence_lambda2, coeffs, 1e77, 1e77)
      for coeffs in (XStateCoefficients(0.0, 0.0, 0.0, 1.0, 1e154 + 0j),
                     XStateCoefficients(np.zeros(2), 0.0, 0.0, 1.0, np.array([0.1, 1e154 + 0j])))),
]


@pytest.mark.parametrize("name, call, error, message", ROWS,
                         ids=[f"{r[0]}-{i}" for i, r in enumerate(ROWS)])
def test_refusal(name, call, error, message):
    with pytest.raises(Exception) as exc:
        call()
    assert exc.type is error
    text = str(exc.value)
    assert message.fullmatch(text) if isinstance(message, re.Pattern) else text == message


# every other public function or class, and why it has no row
EXEMPT = (
    *((name, "a result record") for name in (
        "AverageFidelityReport", "ConcurrenceReport", "OptimalStrengths", "ProtectionResult",
        "SearchResult")),
    ("PostSelectionError", "the error type of a void run, not an entry point"),
    *((name, "takes only already-validated GadParams") for name in (
        "baseline_fidelity", "g_value", "gad_channel", "lambda2_max", "component_coefficients")),
    ("channel_degraded_state", "takes only validated inputs, at unit strengths"),
    ("check_trace_preserving", "a defect measure of any operator stack"),
    ("grid_maximize", "takes an already-validated SearchBox; a failing point scores -inf"),
)


def test_valid_floats_never_reach_the_refusal_path(monkeypatch):
    """Each site that checks through `_elementwise.check_range` passes valid
    Python floats by its compares alone, without calling reject."""
    def refuse(*args):
        raise AssertionError("a valid float reached reject")

    monkeypatch.setattr("decoshield._elementwise.reject", refuse)
    GadParams(0.9, 0.5)
    EntangledInput.from_alpha_sq(0.5)
    stationarity_check(lambda x: 0.0, np.zeros(1), 1e-4)
    SearchBox((0.0, -1.0), (1.0, 2.0), (3, 4))
    equatorial_state(0.7)
    protect_equatorial(REF, 0.5, 1.2, 0.7)
    qkd_error_rate(REF, 0.5, 1.2)
    pipeline_state(BELL, REF, REF, 0.5, 1.0, 1.2, 1.0)
    concurrence_lambda1(COEFFS)
    concurrence_lambda2(COEFFS, 0.5, 1.2)
    optimal_reversal(COEFFS)
    reversed_state(COEFFS, 0.5, 1.2)  # which builds an XStateCoefficients of floats


def test_every_public_entry_point_has_a_row_or_an_exemption():
    rows, exempt = {r[0] for r in ROWS}, dict(EXEMPT)
    assert not rows & exempt.keys(), "an exempt name has a row"
    public = {name for name in decoshield.__all__ if callable(getattr(decoshield, name))}
    assert exempt.keys() <= public
    assert public - rows - exempt.keys() == set()
