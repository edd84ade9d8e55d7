"""Correctness checks on workload outputs, run outside the timed rounds.

Two independent checks:

* byte identity: for the default seed, each CSV and each `optimal`
  printout must hash to the digest recorded in `digests.json` at the
  commit that introduced the benchmark (CSV output is held byte-stable);
* re-derivation: for any seed, a seeded sample of rows is recomputed
  through a second route (the Kraus pipeline, the Wootters concurrence,
  the `1 - fe` complement, the library closed forms) and compared at a
  tolerance that values printed to 12 significant digits can meet.

A check returns None when the output is right, else a one-line reason.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

import decoshield as ds
import workloads

DEFAULT_SEED = 0
DIGESTS = Path(__file__).resolve().parent / "digests.json"
SAMPLE_ROWS = 32
# 12 printed significant digits leave a relative error of at most 5e-12
REL_TOL = 1e-10
ABS_TOL = 1e-12
# the Wootters eigenvalue route loses digits near zero concurrence; the
# same tolerance backs the `xstate-vs-wootters` check of `decoshield verify`
WOOTTERS_TOL = 1e-10
# closed form against pipeline on raw float64 states (acceptance criterion 5)
PIPELINE_TOL = 1e-12
VALUE_TOL = 1e-6
ARGMAX_TOL = 1e-3


def digest16(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def load_digests(workload: str, seed: int) -> list[str | None] | None:
    if seed != DEFAULT_SEED:
        return None
    recorded = json.loads(DIGESTS.read_text())
    return recorded["digests"].get(workload)


def _close(got: float, want: float, abs_tol: float = ABS_TOL) -> bool:
    return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=abs_tol)


def _flags(argv: tuple[str, ...]) -> dict[str, str]:
    return {argv[i][2:]: argv[i + 1] for i in range(1, len(argv) - 1, 2)}


def _linspace(spec: str) -> np.ndarray:
    lo, hi, steps = spec.split(":")
    return np.linspace(float(lo), float(hi), int(steps))


def _sample(rng: np.random.Generator, n: int) -> list[int]:
    picks = rng.choice(n, size=min(n, SAMPLE_ROWS), replace=False)
    return sorted({0, n - 1, *(int(i) for i in picks)})


def _parse_csv(text: str, header: str, axes: list[np.ndarray]) -> list[list[float]] | str:
    """Rows as floats, after checking header, count, order and finiteness."""
    lines = text.split("\n")
    if lines[0] != header:
        return f"header {lines[0]!r}, expected {header!r}"
    if lines[-1] != "":
        return "output does not end with a newline"
    lines = lines[1:-1]
    grid = np.stack([a.ravel() for a in np.meshgrid(*axes, indexing="ij")], axis=-1)
    if len(lines) != len(grid):
        return f"{len(lines)} rows, expected {len(grid)}"
    width = header.count(",") + 1
    rows = []
    for i, line in enumerate(lines):
        cells = line.split(",")
        if len(cells) != width:
            return f"row {i}: {len(cells)} cells, expected {width}"
        for j, want in enumerate(grid[i]):
            if cells[j] != format(float(want), ".12g"):
                return f"row {i}: axis value {cells[j]!r}, expected {float(want):.12g}"
        try:
            values = [float(c) for c in cells]
        except ValueError:
            return f"row {i}: unparsable {line!r}"
        if not all(math.isfinite(v) for v in values):
            return f"row {i}: non-finite value in {line!r}"
        rows.append(values)
    return rows


def _strength_axis(flags: dict[str, str]) -> np.ndarray:
    grid = int(flags["grid"])
    return np.linspace(1.0 / grid, 1.0, grid)


def _qubit_sweep(kind: str, argv, text: str, rng) -> str | None:
    flags = _flags(argv)
    params = ds.GadParams(float(flags["p"]), float(flags["r"]))
    axis = _strength_axis(flags)
    header = {"qubit-fidelity": "m,n,fidelity,success_prob",
              "qubit-average": "m,n,f0,f1,fe,favg",
              "qkd-error": "m,n,error_rate"}[kind]
    rows = _parse_csv(text, header, [axis, axis])
    if isinstance(rows, str):
        return rows
    plus = ds.equatorial_state(0.0)
    ground = np.diag([1.0, 0.0]).astype(complex)
    excited = np.diag([0.0, 1.0]).astype(complex)
    for i in _sample(rng, len(rows)):
        m, n = float(axis[i // len(axis)]), float(axis[i % len(axis)])
        got = rows[i][2:]
        if kind == "qkd-error":
            want = [1.0 - ds.protect_equatorial(params, m, n).fidelity]
        else:
            state, prob = ds.apply_protection(params, m, n, plus)
            fe = ds.fidelity(plus, state)
            if kind == "qubit-fidelity":
                want = [fe, prob]
            else:
                f0 = ds.fidelity(ground, ds.apply_protection(params, m, n, ground)[0])
                f1 = ds.fidelity(excited, ds.apply_protection(params, m, n, excited)[0])
                want = [f0, f1, fe, (f0 + f1 + 4.0 * fe) / 6.0]
        if not all(_close(g, w) for g, w in zip(got, want)):
            return f"row {i} (m={m:.12g}, n={n:.12g}): {got} vs second route {want}"
    return None


def _entangle_sweep(argv, text: str, rng) -> str | None:
    flags = _flags(argv)
    ch1 = ds.GadParams(float(flags["p1"]), float(flags["r1"]))
    ch2 = ds.GadParams(float(flags["p2"]), float(flags["r2"]))
    inp = ds.EntangledInput.from_alpha_sq(float(flags["alpha-sq"]))
    ms = _linspace(flags["sweep-m"])
    rows = _parse_csv(text, "m,n1,n2,lambda2,concurrence,success_prob", [ms])
    if isinstance(rows, str):
        return rows
    for i in _sample(rng, len(rows)):
        _, n1, n2, lam2, conc, success = rows[i]
        state, prob = ds.pipeline_state(inp, ch1, ch2, float(ms[i]), 1.0, n1, n2)
        if conc != max(0.0, lam2):
            return f"row {i}: concurrence {conc} is not max(0, lambda2={lam2})"
        woot = ds.wootters_concurrence(state)
        if not _close(conc, woot, WOOTTERS_TOL) or not _close(success, prob):
            return (f"row {i} (m={ms[i]:.12g}): concurrence {conc}, success {success} "
                    f"vs pipeline+Wootters {woot}, {prob}")
    return None


def _optimal(argv, text: str) -> str | None:
    values: dict[str, str] = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if not sep:
            return f"unparsable line {line!r}"
        values[key] = value
    flags = _flags(argv)
    try:
        got = {k: float(v) for k, v in values.items() if v not in ("True", "False", "None")}
        if "p" in flags:
            want = _optimal_qubit(flags, got)
            flag_key, flag_want = "projective", "False"
        else:
            want = _optimal_pair(flags, got)
            flag_key, flag_want = "degenerate", "None"
    except (KeyError, ValueError) as exc:
        return f"missing or bad value: {exc}"
    if values.get(flag_key) != flag_want or set(values) != set(want) | {flag_key}:
        return f"keys {sorted(values)} or {flag_key}={values.get(flag_key)!r} unexpected"
    for key, expected in want.items():
        if not _close(got[key], expected):
            return f"{key} = {got[key]!r}, library closed form gives {expected!r}"
    return None


def _optimal_qubit(flags, got) -> dict[str, float]:
    params = ds.GadParams(float(flags["p"]), float(flags["r"]))
    best = ds.optimal_strengths(params)
    at_opt = ds.protect_equatorial(params, got["m_opt"], got["n_opt"])
    return {
        "m_opt": best.m,
        "n_opt": best.n,
        "fidelity_max": at_opt.fidelity,
        "fidelity_baseline": ds.baseline_fidelity(params),
        "favg_max": ds.average_fidelity_six(params, got["m_opt"], got["n_opt"]).favg,
        "qkd_error_min": 1.0 - at_opt.fidelity,
        "success_prob": at_opt.success_prob,
    }


def _optimal_pair(flags, got) -> dict[str, float]:
    ch1 = ds.GadParams(float(flags["p1"]), float(flags["r1"]))
    ch2 = ds.GadParams(float(flags["p2"]), float(flags["r2"]))
    alpha_sq = float(flags["alpha-sq"])
    inp = ds.EntangledInput.from_alpha_sq(alpha_sq)
    lam1 = ds.concurrence_lambda1(ds.channel_degraded_state(inp, ch1, ch2))
    lo, hi = ds.component_coefficients(ch1, ch2)
    m = got["m_opt"]
    coeffs = ds.measured_coefficients(inp, ch1, ch2, m, 1.0)
    n1, n2 = ds.optimal_reversal(coeffs)
    attained = ds.concurrence_lambda2(coeffs, n1, n2)
    return {
        "lambda1": lam1,
        "concurrence_unprotected": max(0.0, lam1),
        "m_opt": math.sqrt(got["h"] * alpha_sq / (1.0 - alpha_sq)),
        "n1_opt": n1,
        "n2_opt": n2,
        "lambda2_max": attained,
        "concurrence_protected": max(0.0, ds.lambda2_max(ch1, ch2)),
        "h": math.sqrt(lo[1] * lo[2] / (hi[1] * hi[2])),
        "alpha_sq_opt": 1.0 / (1.0 + got["h"]),
        "success_prob": ds.protected_state(inp, ch1, ch2, m, 1.0, n1, n2)[1],
    }


def _verify(text: str) -> str | None:
    lines = text.splitlines()
    checks = lines[:-1]
    if not checks or lines[-1] != "all checks passed":
        return f"verify did not pass: {lines[-1:]!r}"
    bad = [line for line in checks if not line.startswith("[ok] ")]
    return f"verify printed {bad[0]!r}" if bad else None


def _draw(inputs, value) -> str | None:
    inp, ch1, ch2, m1, m2, n1, n2 = workloads.draw_args(inputs)
    generic, prob = value
    coeffs, success = ds.protected_state(inp, ch1, ch2, m1, m2, n1, n2)
    closed, _ = ds.reversed_state(coeffs, n1, n2)
    gap = max(float(np.max(np.abs(closed - generic))), abs(success - prob))
    if gap > PIPELINE_TOL:
        return f"pipeline vs closed form gap {gap:.2e}"
    woot = ds.wootters_concurrence(generic)
    lam2 = max(0.0, ds.concurrence_lambda2(coeffs, n1, n2))
    if abs(woot - lam2) > WOOTTERS_TOL:
        return f"Wootters {woot} vs X-state concurrence {lam2}"
    return None


def _search(kind: str, inputs, value) -> str | None:
    seed, refined = value
    if not (seed.converged and refined.converged):
        return "search did not converge"
    if kind == "search2":
        best = ds.optimal_strengths(ds.GadParams(*inputs))
        arg_gap = float(np.max(np.abs(refined.argmax - np.array([best.m, best.n]))))
        value_gap = abs(refined.value - best.f_max)
        if arg_gap > ARGMAX_TOL:
            return f"argmax gap {arg_gap:.2e} to optimal_strengths"
    else:
        p1, r1, p2, r2, _ = inputs
        value_gap = abs(refined.value - ds.lambda2_max(ds.GadParams(p1, r1),
                                                       ds.GadParams(p2, r2)))
    if value_gap > VALUE_TOL:
        return f"value gap {value_gap:.2e} to the closed-form optimum"
    return None


def output_bytes(op, call, outdir: Path) -> bytes | None:
    """The byte-stable output of an operation: its CSV or its printout."""
    if op.out is not None:
        try:
            return (outdir / op.out).read_bytes()
        except OSError:
            return None
    if op.argv:
        return call.stdout.encode()
    return None


def check(op, call, data: bytes | None, rng: np.random.Generator) -> str | None:
    """Check one operation's output; data is what `output_bytes` returned."""
    if call.error is not None:
        return f"raised {call.error}"
    if op.argv:
        if call.value != 0:
            return f"exit code {call.value}"
        if data is None:
            return "no output file"
        text = data.decode()
        if op.kind in ("qubit-fidelity", "qubit-average", "qkd-error"):
            return _qubit_sweep(op.kind, op.argv, text, rng)
        if op.kind == "entangle":
            return _entangle_sweep(op.argv, text, rng)
        if op.kind == "optimal":
            return _optimal(op.argv, text)
        return _verify(text)
    if op.kind == "draw":
        return _draw(op.inputs, call.value)
    return _search(op.kind, op.inputs, call.value)


def value_key(call) -> bytes:
    """Bytes identifying a call's result when it has no byte output, so
    identical results share one verdict."""
    if call.error is not None:
        return call.error.encode()
    parts = call.value if isinstance(call.value, tuple) else (call.value,)
    key = []
    for part in parts:
        if isinstance(part, np.ndarray):
            key.append(part.tobytes())
        elif isinstance(part, ds.SearchResult):
            key.append(part.argmax.tobytes())
            key.append(repr((part.value, part.evaluations, part.converged)).encode())
        else:
            key.append(repr(part).encode())
    return b"|".join(key)
