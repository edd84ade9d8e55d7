"""The cross-check battery: every closed form against an independent route.

One function per check family. Each takes the caller's generator and a
sample count and returns (ok, detail). `decoshield verify` runs every entry
of CHECKS at its verify count from one generator seeded with VERIFY_SEED;
the acceptance gate runs the same families with its own seeds and counts.

Random families draw all `count` samples at once, one generator call per
quantity, in the order the family names them: p and r uniform in
[0.02, 0.98], then boundary values, 0 or 1, for r at every draw i with
i % BOUNDARY_EVERY == 0 and for p where it is BOUNDARY_EVERY // 2 (the
second qubit of a pair counts its draws from 7, so its boundaries fall on
other draws); strengths uniform in [0.05, 2.0]; azimuths uniform in
[0, 2 pi); two-qubit inputs with weights |alpha|^2 uniform in
[0.05, 0.95] and a uniform phase on each amplitude. Each route then runs
once, on the family's whole stack. The oracle and scan families visit
fixed points and ignore the generator; every search they run must converge.
"""

from __future__ import annotations

import math
from typing import Callable

from ._elementwise import np
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
    protected_state,
    reversed_state,
)
from .linalg import dagger, equatorial_state, fidelity, validate_density, wootters_concurrence
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
    qkd_error_rate,
)
from .weakmeas import measure_damp_reverse

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


def _channels(rng: np.random.Generator, count: int, offset: int = 0) -> GadParams:
    """count channels; draw i has r on a boundary where (offset + i) %
    BOUNDARY_EVERY is 0, and p where it is BOUNDARY_EVERY // 2."""
    p, r = rng.uniform(0.02, 0.98, count), rng.uniform(0.02, 0.98, count)
    for values, phase in ((r, 0), (p, BOUNDARY_EVERY // 2)):
        at = values[(phase - offset) % BOUNDARY_EVERY::BOUNDARY_EVERY]
        at[:] = rng.integers(0, 2, at.size)  # 0.0 or 1.0
    return GadParams(p, r)


def _pair(rng: np.random.Generator, count: int) -> tuple[GadParams, GadParams]:
    # the second qubit's draws count from 7, so its boundaries fall on other draws
    return _channels(rng, count), _channels(rng, count, 7)


def _inputs(rng: np.random.Generator, count: int) -> EntangledInput:
    alpha_sq = rng.uniform(0.05, 0.95, count)
    phase_a, phase_b = rng.uniform(0.0, 2.0 * math.pi, (2, count))
    return EntangledInput(
        np.sqrt(alpha_sq) * np.exp(1j * phase_a), np.sqrt(1.0 - alpha_sq) * np.exp(1j * phase_b)
    )


def _strengths(rng: np.random.Generator, rows: int, count: int) -> np.ndarray:
    return rng.uniform(0.05, 2.0, (rows, count))


def _azimuths(rng: np.random.Generator, count: int) -> np.ndarray:
    return rng.uniform(0.0, 2.0 * math.pi, count)


def _densities(rng: np.random.Generator, count: int) -> np.ndarray:
    mat = rng.normal(size=(count, 2, 2)) + 1j * rng.normal(size=(count, 2, 2))
    rho = mat @ dagger(mat)
    return rho / rho.trace(0, -2, -1)[:, None, None]


def _gap(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)))


def _worst(*gaps) -> float:
    """The largest gap, or NaN when any is NaN, which Python's max drops."""
    return float(np.max(gaps))


def _max_gap(gap: float, tol: float) -> tuple[bool, str]:
    return gap <= tol, f"max gap {gap:.2e} (tol {tol:.0e})"


def _search(objective: Callable[..., float], box: SearchBox) -> SearchResult:
    """Grid, then simplex, search of objective(*coordinates): a (dim,) point
    as Python floats, the (dim, N) lattice as dim arrays."""
    def at(pt: np.ndarray) -> float:
        return objective(*(pt.tolist() if pt.ndim == 1 else pt))
    return simplex_maximize(at, grid_maximize(at, box).argmax, box)


def _qubit_points(count: int) -> list[GadParams]:
    axis = np.linspace(0.05, 0.95, count)
    return [GadParams(float(p), float(r)) for p in axis for r in axis]


def kraus_completeness(rng: np.random.Generator, count: int) -> tuple[bool, str]:
    """The four corner channels and `count` drawn ones are complete and fix
    their thermal state diag(p, 1 - p), all checked as one stack."""
    drawn = _channels(rng, count)
    corners = [[0.0, 0.0, 1.0, 1.0], [0.0, 1.0, 0.0, 1.0]]  # their p, then their r
    stack = GadParams(*np.append(corners, [drawn.p, drawn.r], 1))
    ch = gad_channel(stack)
    thermal = (np.stack([stack.p, 1.0 - stack.p], -1)[..., None] * np.eye(2)).astype(complex)
    defect = _worst(check_trace_preserving(ch), _gap(apply_channel(ch, thermal), thermal))
    return defect <= 1e-12, f"max defect {defect:.2e} (tol 1e-12)"


def dilation_vs_kraus(rng: np.random.Generator, count: int) -> tuple[bool, str]:
    """Kraus sum and environment dilation act alike on random mixed states."""
    stack, rho = _channels(rng, count), _densities(rng, count)
    kraus = apply_channel(gad_channel(stack), rho)
    return _max_gap(_gap(kraus, apply_via_dilation(stack, rho)), 1e-12)


def qubit_closed_form_vs_pipeline(rng: np.random.Generator, count: int) -> tuple[bool, str]:
    """Closed-form protected state, fidelity and success probability match
    the measure/damp/reverse pipeline."""
    stack = _channels(rng, count)
    m, n = _strengths(rng, 2, count)
    m[::17] = 1.0
    phi = _azimuths(rng, count)
    closed = protect_equatorial(stack, m, n, phi)
    psi = equatorial_state(phi)
    states, probs = apply_protection(stack, m, n, psi)
    gap = _worst(
        _gap(closed.output_state, states),
        _gap(closed.success_prob, probs),
        _gap(closed.fidelity, fidelity(psi, states)),
    )
    return _max_gap(gap, 1e-12)


def entangle_closed_form_vs_pipeline(rng: np.random.Generator, count: int) -> tuple[bool, str]:
    """Closed-form X state and success probability match the two-qubit
    Kraus pipeline."""
    ch1, ch2 = _pair(rng, count)
    inp = _inputs(rng, count)
    m1, m2, n1, n2 = _strengths(rng, 4, count)
    n1[::13] = n2[::13] = 1.0
    coeffs, success = protected_state(inp, ch1, ch2, m1, m2, n1, n2)
    closed = reversed_state(coeffs, n1, n2)[0]
    generic, probs = measure_damp_reverse(
        inp.density(), (m1, m2), (n1, n2), (gad_channel(ch1), gad_channel(ch2)))
    return _max_gap(_worst(_gap(closed, generic), _gap(success, probs)), 1e-12)


def xstate_vs_wootters(rng: np.random.Generator, count: int) -> tuple[bool, str]:
    """X-state concurrence before and after protection equals the Wootters
    eigenvalue concurrence."""
    ch1, ch2 = _pair(rng, count)
    inp = _inputs(rng, count)
    m1, n1, n2 = _strengths(rng, 3, count)
    base = channel_degraded_state(inp, ch1, ch2)
    coeffs = measured_coefficients(inp, ch1, ch2, m1, 1.0)
    rho, _ = reversed_state(coeffs, n1, n2)
    closed = np.maximum(  # unlike max, np.maximum keeps a NaN
        np.append(concurrence_lambda1(base), concurrence_lambda2(coeffs, n1, n2)), 0.0)
    wootters = wootters_concurrence(np.concatenate([base.matrix(), rho]))
    return _max_gap(_gap(closed, wootters), 1e-10)


def qkd_error_complement(rng: np.random.Generator, count: int) -> tuple[bool, str]:
    """The four-state error rate three ways, pairwise equal: the closed
    form, the pipeline, and one minus the closed-form equatorial fidelity."""
    stack = _channels(rng, count)
    m, n = _strengths(rng, 2, count)
    rate, pipeline = qkd_error_rate(stack, m, n), bb84_error_rate(stack, m, n)
    complement = 1.0 - protect_equatorial(stack, m, n).fidelity
    gap = _worst(_gap(rate, pipeline), _gap(rate, complement), _gap(pipeline, complement))
    return _max_gap(gap, 1e-12)


def qubit_optimum_oracle(rng: np.random.Generator, count: int) -> tuple[bool, str]:
    """Grid + simplex search reaches the closed-form optimal strengths on a
    count x count grid of channels."""
    arg_gap = val_gap = 0.0
    converged = 0
    points = _qubit_points(count)
    for params in points:
        best = optimal_strengths(params)
        found = _search(lambda m, n: protect_equatorial(params, m, n).fidelity, QUBIT_BOX)
        arg_gap = _worst(arg_gap, _gap(found.argmax, np.array([best.m, best.n])))
        val_gap = _worst(val_gap, abs(found.value - best.f_max))
        converged += found.converged
    ok = arg_gap <= 1e-3 and val_gap <= 1e-6 and converged == len(points)
    return ok, (
        f"argmax gap {arg_gap:.2e} (tol 1e-3), value gap {val_gap:.2e} (tol 1e-6), "
        f"{converged}/{len(points)} converged"
    )


def entangle_optimum_oracle(rng: np.random.Generator, count: int) -> tuple[bool, str]:
    """Grid + simplex search over (m, n1, n2) for the Bell input reaches
    lambda2_max, neither above nor below, on the first `count` pairs of
    PAIR_SETS."""
    pairs = PAIR_SETS[:count]
    val_gap = 0.0
    converged = 0
    for ch1, ch2 in pairs:
        found = _search(lambda m, n1, n2: concurrence_lambda2(
            measured_coefficients(BELL, ch1, ch2, m, 1.0), n1, n2), PAIR_BOX)
        val_gap = _worst(val_gap, abs(found.value - lambda2_max(ch1, ch2)))
        converged += found.converged
    ok = val_gap <= 1e-6 and converged == len(pairs)
    return ok, f"value gap {val_gap:.2e} (tol 1e-6), {converged}/{len(pairs)} converged"


def average_optimum_stationary(rng: np.random.Generator, count: int) -> tuple[bool, str]:
    """The six-state average fidelity is stationary at the equatorial
    optimum on a count x count grid of channels."""
    slope = 0.0
    for params in _qubit_points(count):
        best = optimal_strengths(params)
        slope = _worst(slope, stationarity_check(
            lambda pt: average_fidelity_six(params, pt[0], pt[1]).favg,
            np.array([best.m, best.n]),
            1e-5,
        ))
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
    params = GadParams(
        np.linspace(0.02, 0.98, count)[:, None], np.linspace(0.0, 0.98, count)[None, :]
    )
    gain = float(np.min(optimal_strengths(params).f_max - baseline_fidelity(params)))
    excess = float(np.max(g_value(params) - 1.0))
    return (
        gain >= -1e-12 and excess <= 1e-12,
        f"min fidelity gain {gain:.2e}, max penalty excess {excess:.2e} (tol 1e-12)",
    )


def output_density_validity(rng: np.random.Generator, count: int) -> tuple[bool, str]:
    """Protected one- and two-qubit outputs are valid density matrices with
    success probabilities in (0, 1]."""
    ch1, ch2 = _pair(rng, count)
    m, n1, n2 = _strengths(rng, 3, count)
    phi = _azimuths(rng, count)
    inp = _inputs(rng, count)
    try:
        res = protect_equatorial(ch1, m, n1, phi)
        validate_density(res.output_state)
        coeffs, success = protected_state(inp, ch1, ch2, m, 1.0, n1, n2)
        validate_density(reversed_state(coeffs, n1, n2)[0])
    except ValueError as exc:
        return False, f"invalid output: {exc}"
    probs = np.append(res.success_prob, success)
    lo, hi = float(np.min(probs)), float(np.max(probs))  # unlike min and max, keep a NaN
    return (
        0.0 < lo and hi <= 1.0 + 1e-12,
        f"{probs.size} states valid, success probability in [{lo:.2e}, {hi:.4f}]",
    )


def alpha_weight_independence(rng: np.random.Generator, count: int) -> tuple[bool, str]:
    """lambda2_max and the optimal reversal strengths do not depend on the
    input weight |alpha|^2, checked at count evenly spaced weights."""
    reports = [
        optimal_parameters(EntangledInput.from_alpha_sq((2 * k + 1) / (2 * count)), *REF_PAIR)
        for k in range(count)
    ]
    spread = _worst(*(
        abs(getattr(rep, field) - getattr(reports[0], field))
        for rep in reports
        for field in ("lambda2_max", "n1_opt", "n2_opt")
    ))
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
