"""The cross-check battery: every closed form against an independent route.

One function per check family. Each takes the caller's generator and a
sample count and returns (ok, detail). `decoshield verify` runs every entry
of CHECKS at its verify count from one generator seeded with VERIFY_SEED;
the acceptance gate runs the same families with its own seeds and counts.

Random families draw with one procedure: p, r uniform in [0.02, 0.98] with
boundary values injected every BOUNDARY_EVERY draws, strengths uniform in
[0.05, 2.0], and two-qubit inputs with random weights and phases on both
amplitudes. The oracle and scan families visit fixed points and ignore the
generator; every search they run must converge.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .channels import (
    GadParams,
    apply_channel,
    apply_via_dilation,
    check_trace_preserving,
    gad_channel,
)
from .entangle import (
    EntangledInput,
    channel_degraded_state,
    concurrence_lambda1,
    concurrence_lambda2,
    lambda2_max,
    measured_coefficients,
    optimal_parameters,
    pipeline_state,
    protected_state,
    reversed_state,
)
from .linalg import equatorial_state, fidelity, validate_density, wootters_concurrence
from .optimize import (
    SearchBox,
    SearchResult,
    grid_maximize,
    simplex_maximize,
    stationarity_check,
)
from .qubit import (
    apply_protection,
    average_fidelity_six,
    baseline_fidelity,
    bb84_error_rate,
    g_value,
    optimal_strengths,
    protect_equatorial,
)

VERIFY_SEED = 716253
BOUNDARY_EVERY = 25
QUBIT_BOX = SearchBox.cube(1e-3, 4.0, 33, 2)
PAIR_BOX = SearchBox.cube(1e-3, 2.0, 17, 3)
BELL = EntangledInput.from_alpha_sq(0.5)
# channel pairs for the two-qubit optimum oracle; the first is the
# reference pair of the other two-qubit checks, the second sits in the
# sudden-death region where the unprotected concurrence is zero
PAIR_SETS = tuple(
    (GadParams(p1, r1), GadParams(p2, r2))
    for p1, r1, p2, r2 in (
        (0.9, 0.5, 0.95, 0.3),
        (0.7, 0.61, 0.7, 0.61),
        (0.8, 0.3, 0.6, 0.45),
        (0.55, 0.75, 0.85, 0.2),
        (0.35, 0.5, 0.45, 0.65),
    )
)
REF_PAIR = PAIR_SETS[0]


def _channel(rng: np.random.Generator, index: int) -> GadParams:
    p = float(rng.uniform(0.02, 0.98))
    r = float(rng.uniform(0.02, 0.98))
    if index % BOUNDARY_EVERY == 0:
        r = float(rng.choice([0.0, 1.0]))
    if index % BOUNDARY_EVERY == BOUNDARY_EVERY // 2:
        p = float(rng.choice([0.0, 1.0]))
    return GadParams(p, r)


def _pair(rng: np.random.Generator, index: int) -> tuple[GadParams, GadParams]:
    # offset the second index so the two qubits hit boundaries on different draws
    return _channel(rng, index), _channel(rng, index + 7)


def _input(rng: np.random.Generator) -> EntangledInput:
    alpha_sq = float(rng.uniform(0.05, 0.95))
    phase_a, phase_b = rng.uniform(0.0, 2.0 * math.pi, size=2)
    return EntangledInput(
        math.sqrt(alpha_sq) * complex(np.exp(1j * phase_a)),
        math.sqrt(1.0 - alpha_sq) * complex(np.exp(1j * phase_b)),
    )


def _strengths(rng: np.random.Generator, count: int) -> list[float]:
    return [float(v) for v in rng.uniform(0.05, 2.0, size=count)]


def _density(rng: np.random.Generator) -> np.ndarray:
    mat = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = mat @ mat.conj().T
    return rho / rho.trace()


def _gap(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)))


def _max_gap(gap: float, tol: float) -> tuple[bool, str]:
    return gap <= tol, f"max gap {gap:.2e} (tol {tol:.0e})"


def _search(objective: Callable[[np.ndarray], float], box: SearchBox) -> SearchResult:
    return simplex_maximize(objective, grid_maximize(objective, box).argmax, box)


def _qubit_points(count: int) -> list[GadParams]:
    axis = np.linspace(0.05, 0.95, count)
    return [GadParams(float(p), float(r)) for p in axis for r in axis]


def kraus_completeness(rng: np.random.Generator, count: int) -> tuple[bool, str]:
    """The four corner channels and `count` drawn ones are complete and fix
    their thermal state diag(p, 1 - p)."""
    corners = [GadParams(p, r) for p in (0.0, 1.0) for r in (0.0, 1.0)]
    defect = 0.0
    for params in corners + [_channel(rng, i) for i in range(count)]:
        ch = gad_channel(params)
        thermal = np.diag([params.p, 1.0 - params.p]).astype(complex)
        defect = max(defect, check_trace_preserving(ch), _gap(apply_channel(ch, thermal), thermal))
    return defect <= 1e-12, f"max defect {defect:.2e} (tol 1e-12)"


def dilation_vs_kraus(rng: np.random.Generator, count: int) -> tuple[bool, str]:
    """Kraus sum and environment dilation act alike on random mixed states."""
    gap = 0.0
    for i in range(count):
        params = _channel(rng, i)
        rho = _density(rng)
        gap = max(gap, _gap(apply_channel(gad_channel(params), rho), apply_via_dilation(params, rho)))
    return _max_gap(gap, 1e-12)


def qubit_closed_form_vs_pipeline(rng: np.random.Generator, count: int) -> tuple[bool, str]:
    """Closed-form protected state, fidelity and success probability match
    the measure/damp/reverse pipeline."""
    gap = 0.0
    for i in range(count):
        params = _channel(rng, i)
        m, n = _strengths(rng, 2)
        if i % 17 == 0:
            m = 1.0
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        psi = equatorial_state(phi)
        res = protect_equatorial(params, m, n, phi)
        state, prob = apply_protection(params, m, n, psi)
        gap = max(
            gap,
            _gap(res.output_state, state),
            abs(res.success_prob - prob),
            abs(res.fidelity - fidelity(psi, state)),
        )
    return _max_gap(gap, 1e-12)


def entangle_closed_form_vs_pipeline(rng: np.random.Generator, count: int) -> tuple[bool, str]:
    """Closed-form X state and success probability match the two-qubit
    Kraus pipeline."""
    gap = 0.0
    for i in range(count):
        ch1, ch2 = _pair(rng, i)
        inp = _input(rng)
        m1, m2, n1, n2 = _strengths(rng, 4)
        if i % 13 == 0:
            n1 = n2 = 1.0
        coeffs, success = protected_state(inp, ch1, ch2, m1, m2, n1, n2)
        closed, _ = reversed_state(coeffs, n1, n2)
        generic, prob = pipeline_state(inp, ch1, ch2, m1, m2, n1, n2)
        gap = max(gap, _gap(closed, generic), abs(success - prob))
    return _max_gap(gap, 1e-12)


def xstate_vs_wootters(rng: np.random.Generator, count: int) -> tuple[bool, str]:
    """X-state concurrence before and after protection equals the Wootters
    eigenvalue concurrence."""
    gap = 0.0
    for i in range(count):
        ch1, ch2 = _pair(rng, i)
        inp = _input(rng)
        base = channel_degraded_state(inp, ch1, ch2)
        m1, n1, n2 = _strengths(rng, 3)
        coeffs = measured_coefficients(inp, ch1, ch2, m1, 1.0)
        rho, _ = reversed_state(coeffs, n1, n2)
        gap = max(
            gap,
            abs(max(0.0, concurrence_lambda1(base)) - wootters_concurrence(base.matrix())),
            abs(max(0.0, concurrence_lambda2(coeffs, n1, n2)) - wootters_concurrence(rho)),
        )
    return _max_gap(gap, 1e-10)


def qkd_error_complement(rng: np.random.Generator, count: int) -> tuple[bool, str]:
    """The four-state error rate from the pipeline is one minus the
    closed-form equatorial fidelity."""
    gap = 0.0
    for i in range(count):
        params = _channel(rng, i)
        m, n = _strengths(rng, 2)
        fid = protect_equatorial(params, m, n).fidelity
        gap = max(gap, abs(bb84_error_rate(params, m, n) - (1.0 - fid)))
    return _max_gap(gap, 1e-12)


def qubit_optimum_oracle(rng: np.random.Generator, count: int) -> tuple[bool, str]:
    """Grid + simplex search reaches the closed-form optimal strengths on a
    count x count grid of channels."""
    arg_gap = val_gap = 0.0
    converged = 0
    points = _qubit_points(count)
    for params in points:
        best = optimal_strengths(params)
        found = _search(
            lambda pt: protect_equatorial(params, float(pt[0]), float(pt[1])).fidelity,
            QUBIT_BOX,
        )
        arg_gap = max(arg_gap, _gap(found.argmax, np.array([best.m, best.n])))
        val_gap = max(val_gap, abs(found.value - best.f_max))
        converged += found.converged
    ok = arg_gap <= 1e-3 and val_gap <= 1e-6 and converged == len(points)
    return ok, (
        f"argmax gap {arg_gap:.2e} (tol 1e-3), value gap {val_gap:.2e} (tol 1e-6), "
        f"{converged}/{len(points)} converged"
    )


def entangle_optimum_oracle(
    rng: np.random.Generator,
    count: int,
    pairs: tuple[tuple[GadParams, GadParams], ...] = PAIR_SETS,
) -> tuple[bool, str]:
    """Grid + simplex search over (m, n1, n2) for the Bell input reaches
    lambda2_max, neither above nor below, on the first `count` pairs."""
    pairs = pairs[:count]
    val_gap = 0.0
    converged = 0
    for ch1, ch2 in pairs:
        found = _search(
            lambda pt: concurrence_lambda2(
                measured_coefficients(BELL, ch1, ch2, float(pt[0]), 1.0),
                float(pt[1]),
                float(pt[2]),
            ),
            PAIR_BOX,
        )
        val_gap = max(val_gap, abs(found.value - lambda2_max(ch1, ch2)))
        converged += found.converged
    ok = val_gap <= 1e-6 and converged == len(pairs)
    return ok, f"value gap {val_gap:.2e} (tol 1e-6), {converged}/{len(pairs)} converged"


def average_optimum_stationary(rng: np.random.Generator, count: int) -> tuple[bool, str]:
    """The six-state average fidelity is stationary at the equatorial
    optimum on a count x count grid of channels."""
    slope = 0.0
    for params in _qubit_points(count):
        best = optimal_strengths(params)
        slope = max(
            slope,
            stationarity_check(
                lambda pt: average_fidelity_six(params, float(pt[0]), float(pt[1])).favg,
                np.array([best.m, best.n]),
                1e-5,
            ),
        )
    return slope <= 1e-6, f"max slope {slope:.2e} (tol 1e-6)"


def success_peak_location(rng: np.random.Generator, count: int) -> tuple[bool, str]:
    """A scan of the optimal success probability over count input weights
    in (0, 1) peaks at |alpha|^2 = 1/(1 + h), within one scan step."""
    alphas = np.linspace(1.0 / (count + 1), count / (count + 1), count)
    probs = [
        optimal_parameters(EntangledInput.from_alpha_sq(float(a)), *REF_PAIR).success_prob
        for a in alphas
    ]
    peak = float(alphas[int(np.argmax(probs))])
    step = float(alphas[1] - alphas[0])
    want = optimal_parameters(BELL, *REF_PAIR).alpha_sq_opt
    return (
        abs(peak - want) <= step,
        f"scan peak {peak:.4f} vs 1/(1+h) {want:.4f} (tol {step:.4f})",
    )


def protection_never_hurts(rng: np.random.Generator, count: int) -> tuple[bool, str]:
    """On a count x count channel grid the optimum never loses fidelity to
    the bare channel and the penalty factor never exceeds one."""
    gain, excess = math.inf, -math.inf
    for p in np.linspace(0.02, 0.98, count):
        for r in np.linspace(0.0, 0.98, count):
            params = GadParams(float(p), float(r))
            gain = min(gain, optimal_strengths(params).f_max - baseline_fidelity(params))
            excess = max(excess, g_value(params) - 1.0)
    return (
        gain >= -1e-12 and excess <= 1e-12,
        f"min fidelity gain {gain:.2e}, max penalty excess {excess:.2e} (tol 1e-12)",
    )


def output_density_validity(rng: np.random.Generator, count: int) -> tuple[bool, str]:
    """Protected one- and two-qubit outputs are valid density matrices with
    success probabilities in (0, 1]."""
    probs = []
    try:
        for i in range(count):
            ch1, ch2 = _pair(rng, i)
            m, n1, n2 = _strengths(rng, 3)
            res = protect_equatorial(ch1, m, n1, float(rng.uniform(0.0, 2.0 * math.pi)))
            validate_density(res.output_state)
            coeffs, success = protected_state(_input(rng), ch1, ch2, m, 1.0, n1, n2)
            validate_density(reversed_state(coeffs, n1, n2)[0])
            probs += [res.success_prob, success]
    except ValueError as exc:
        return False, f"invalid output: {exc}"
    lo, hi = min(probs), max(probs)
    return (
        0.0 < lo and hi <= 1.0 + 1e-12,
        f"{len(probs)} states valid, success probability in [{lo:.2e}, {hi:.4f}]",
    )


def alpha_weight_independence(rng: np.random.Generator, count: int) -> tuple[bool, str]:
    """lambda2_max and the optimal reversal strengths do not depend on the
    input weight |alpha|^2, checked at count evenly spaced weights."""
    reports = [
        optimal_parameters(EntangledInput.from_alpha_sq((2 * k + 1) / (2 * count)), *REF_PAIR)
        for k in range(count)
    ]
    spread = max(
        abs(getattr(rep, field) - getattr(reports[0], field))
        for rep in reports
        for field in ("lambda2_max", "n1_opt", "n2_opt")
    )
    return spread <= 1e-10, f"max spread {spread:.2e} (tol 1e-10)"


# (name, family, verify count), in the order verify prints them
CHECKS = (
    ("kraus-completeness", kraus_completeness, 60),
    ("dilation-vs-kraus", dilation_vs_kraus, 60),
    ("qubit-closed-form-vs-pipeline", qubit_closed_form_vs_pipeline, 300),
    ("entangle-closed-form-vs-pipeline", entangle_closed_form_vs_pipeline, 150),
    ("xstate-vs-wootters", xstate_vs_wootters, 100),
    ("qkd-error-complement", qkd_error_complement, 60),
    ("qubit-optimum-oracle", qubit_optimum_oracle, 1),
    ("entangle-optimum-oracle", entangle_optimum_oracle, 1),
    ("average-optimum-stationary", average_optimum_stationary, 1),
    ("success-peak-location", success_peak_location, 199),
    ("protection-never-hurts", protection_never_hurts, 20),
    ("output-density-validity", output_density_validity, 50),
    ("alpha-weight-independence", alpha_weight_independence, 5),
)
