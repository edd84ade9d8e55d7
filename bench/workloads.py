"""The four benchmark workloads: seeded inputs and one closed-loop round.

Each workload is a list of operations built from the seed alone. A round
runs them in order with one caller: the next operation starts only after
the previous one returns. Operations reach decoshield only through
`decoshield.cli.entry(argv)` and the names exported by `decoshield`, and
look those names up at call time so the tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import io
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import decoshield as ds
import decoshield.cli as ds_cli
import speed

P_RANGE = (0.05, 0.95)
R_RANGE = (0.02, 0.95)
ALPHA_SQ_RANGE = (0.05, 0.95)
STRENGTH_RANGE = (0.05, 2.0)

SURFACE_GRID = 300
ENTANGLE_SWEEP = "0.01:1:20000"
KRAUS_GRID = 60
KRAUS_DRAWS = 1000
ORACLE_SEARCHES = 8
QUERIES = 2000

# search boxes: every qubit optimum over P_RANGE x R_RANGE has m, n < 3.7;
# two-qubit draws are kept to optima below 6 so the 21^3 grid seeds the
# simplex inside the basin (see README)
QUBIT_BOX = (1e-3, 4.0, 60)
PAIR_BOX = (1e-3, 8.0, 21)
PAIR_OPT_MAX = 6.0
PAIR_DRAW_TRIES = 1000

WORKLOADS = ("surface", "kraus", "oracle", "queries")


@dataclass(frozen=True)
class Op:
    """One closed-loop operation.

    kind is the CLI subcommand for `entry` calls, or "draw", "search2",
    "search3" for library calls. CLI sweeps write to `out` (a file name,
    placed in the round's output directory); other CLI calls print.
    """

    kind: str
    argv: tuple[str, ...] = ()
    out: str | None = None
    inputs: tuple[float, ...] = ()
    items: int = 1


@dataclass
class Call:
    """What one operation did in one round."""

    seconds: float
    value: object = None
    error: str | None = None
    stdout: str = ""
    probes: tuple[int, int] = (0, 0)  # slice of the sampler's probes taken meanwhile


def _num(value: float) -> str:
    return repr(float(value))


def _channel(rng: np.random.Generator) -> tuple[float, float]:
    return float(rng.uniform(*P_RANGE)), float(rng.uniform(*R_RANGE))


def _sweep_argv(kind: str, rng: np.random.Generator, grid: int) -> tuple[str, ...]:
    p, r = _channel(rng)
    return (kind, "--p", _num(p), "--r", _num(r), "--grid", str(grid))


def _pair_argv(rng: np.random.Generator) -> tuple[str, ...]:
    (p1, r1), (p2, r2) = _channel(rng), _channel(rng)
    alpha_sq = float(rng.uniform(*ALPHA_SQ_RANGE))
    return ("--p1", _num(p1), "--r1", _num(r1), "--p2", _num(p2), "--r2", _num(r2),
            "--alpha-sq", _num(alpha_sq))


def _surface(rng: np.random.Generator) -> list[Op]:
    rows = SURFACE_GRID * SURFACE_GRID
    steps = int(ENTANGLE_SWEEP.rsplit(":", 1)[1])
    return [
        Op("qubit-fidelity", _sweep_argv("qubit-fidelity", rng, SURFACE_GRID),
           "qubit-fidelity.csv", items=rows),
        Op("qubit-average", _sweep_argv("qubit-average", rng, SURFACE_GRID),
           "qubit-average.csv", items=rows),
        Op("entangle", ("entangle", *_pair_argv(rng), "--sweep-m", ENTANGLE_SWEEP),
           "entangle.csv", items=steps),
    ]


def _kraus(rng: np.random.Generator) -> list[Op]:
    ops = [Op("qkd-error", _sweep_argv("qkd-error", rng, KRAUS_GRID), "qkd-error.csv",
              items=KRAUS_GRID * KRAUS_GRID)]
    for _ in range(KRAUS_DRAWS):
        (p1, r1), (p2, r2) = _channel(rng), _channel(rng)
        alpha_sq = float(rng.uniform(*ALPHA_SQ_RANGE))
        phase = float(rng.uniform(0.0, 2.0 * math.pi))
        strengths = tuple(float(v) for v in rng.uniform(*STRENGTH_RANGE, size=4))
        ops.append(Op("draw", inputs=(p1, r1, p2, r2, alpha_sq, phase, *strengths)))
    return ops


def _pair_search_inputs(rng: np.random.Generator) -> tuple[float, ...]:
    """Channel pair and input weight whose concurrence optimum the 3-D
    oracle can reach: positive (a negative lambda2_max is a supremum at
    infinite strengths, not a maximum) and inside the box with margin."""
    for _ in range(PAIR_DRAW_TRIES):
        (p1, r1), (p2, r2) = _channel(rng), _channel(rng)
        alpha_sq = float(rng.uniform(*ALPHA_SQ_RANGE))
        ch1, ch2 = ds.GadParams(p1, r1), ds.GadParams(p2, r2)
        if ds.lambda2_max(ch1, ch2) <= 0.0:
            continue
        rep = ds.optimal_parameters(ds.EntangledInput.from_alpha_sq(alpha_sq), ch1, ch2)
        if max(rep.m_opt, rep.n1_opt, rep.n2_opt) <= PAIR_OPT_MAX:
            return (p1, r1, p2, r2, alpha_sq)
    raise RuntimeError("no reachable two-qubit optimum in the search draws")


def _oracle(rng: np.random.Generator) -> list[Op]:
    ops = [Op("verify", ("verify",), items=0)]
    for i in range(ORACLE_SEARCHES):
        if i % 2 == 0:
            ops.append(Op("search2", inputs=_channel(rng), items=0))
        else:
            ops.append(Op("search3", inputs=_pair_search_inputs(rng), items=0))
    return ops


def _queries(rng: np.random.Generator) -> list[Op]:
    ops = []
    for pair in rng.permutation([0, 1] * (QUERIES // 2)):
        if pair:
            ops.append(Op("optimal", ("optimal", *_pair_argv(rng))))
        else:
            p, r = _channel(rng)
            ops.append(Op("optimal", ("optimal", "--p", _num(p), "--r", _num(r))))
    return ops


def build(workload: str, seed: int) -> list[Op]:
    """The workload's operations; the same seed gives the same list."""
    maker = {"surface": _surface, "kraus": _kraus, "oracle": _oracle, "queries": _queries}
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])
    return maker[workload](rng)


def draw_args(inputs: tuple[float, ...]) -> tuple:
    """(input, channel 1, channel 2, m1, m2, n1, n2) of a two-qubit draw."""
    p1, r1, p2, r2, alpha_sq, phase, *strengths = inputs
    inp = ds.EntangledInput(
        math.sqrt(alpha_sq), math.sqrt(1.0 - alpha_sq) * complex(np.exp(1j * phase))
    )
    return (inp, ds.GadParams(p1, r1), ds.GadParams(p2, r2), *strengths)


def _box(spec: tuple[float, float, int], dim: int) -> ds.SearchBox:
    lo, hi, res = spec
    return ds.SearchBox.cube(lo, hi, res, dim)


def _execute(op: Op, outdir: Path) -> object:
    if op.argv:
        argv = list(op.argv)
        if op.out is not None:
            argv += ["--out", str(outdir / op.out)]
        return ds_cli.entry(argv)
    if op.kind == "draw":
        return ds.pipeline_state(*draw_args(op.inputs))
    if op.kind == "search2":
        params = ds.GadParams(*op.inputs)

        def objective(pt: np.ndarray) -> float:
            return ds.protect_equatorial(params, float(pt[0]), float(pt[1])).fidelity

        box = _box(QUBIT_BOX, 2)
    else:
        p1, r1, p2, r2, alpha_sq = op.inputs
        ch1, ch2 = ds.GadParams(p1, r1), ds.GadParams(p2, r2)
        inp = ds.EntangledInput.from_alpha_sq(alpha_sq)

        def objective(pt: np.ndarray) -> float:
            coeffs = ds.measured_coefficients(inp, ch1, ch2, float(pt[0]), 1.0)
            return ds.concurrence_lambda2(coeffs, float(pt[1]), float(pt[2]))

        box = _box(PAIR_BOX, 3)
    seed = ds.grid_maximize(objective, box)
    return seed, ds.simplex_maximize(objective, seed.argmax, box)


def run_round(
    ops: list[Op], outdir: Path, sampler: speed.Sampler | None = None
) -> tuple[list[Call], float]:
    """Run every operation once, in order; return the calls and the wall
    time, both without the time the sampler's probes took."""
    calls = []
    marks = []
    buf = io.StringIO()
    clock = time.perf_counter

    sampler = sampler or speed.Sampler()  # an idle one when none is installed
    begin, begin_spent = clock(), sampler.spent
    with contextlib.redirect_stdout(buf):
        for op in ops:
            mark = buf.tell()
            sampler.begin()
            t0, spent0, n0 = clock(), sampler.spent, len(sampler.samples)
            try:
                call = Call(0.0, value=_execute(op, outdir))
            except Exception as exc:  # a failing operation is counted, not fatal
                call = Call(0.0, error=f"{type(exc).__name__}: {exc}")
            t1, spent1, n1 = clock(), sampler.spent, len(sampler.samples)
            sampler.end()
            call.seconds = t1 - t0 - (spent1 - spent0)
            call.probes = (n0, n1)
            calls.append(call)
            marks.append((mark, buf.tell()))
    wall = clock() - begin - (sampler.spent - begin_spent)
    text = buf.getvalue()
    for call, (lo, hi) in zip(calls, marks):
        call.stdout = text[lo:hi]
    return calls, wall


def items_done(ops: list[Op], calls: list[Call]) -> list[int]:
    """Work units of each operation: rows, draws, queries or objective
    evaluations; 0 for `verify`, whose work is not counted."""
    items = []
    for op, call in zip(ops, calls):
        if op.kind in ("search2", "search3") and call.error is None:
            items.append(sum(result.evaluations for result in call.value))
        else:
            items.append(op.items)
    return items
