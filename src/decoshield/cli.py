"""Command-line front end: strength sweeps to CSV, optimum queries, and a
self-verification command that cross-checks every closed form against the
generic pipeline and the numeric search oracles.

Exit codes: 0 success, 1 verification failure, 2 bad arguments.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from typing import Iterable, Sequence

import numpy as np

from .channels import GadParams
from .checks import CHECKS, VERIFY_SEED
from .entangle import (
    EntangledInput,
    concurrence_lambda2,
    measured_coefficients,
    optimal_parameters,
    optimal_reversal,
    protected_state,
)
from .qubit import (
    average_fidelity_six,
    baseline_fidelity,
    bb84_error_rate,
    optimal_average,
    optimal_strengths,
    protect_equatorial,
)
from .weakmeas import PostSelectionError

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2


class CliError(Exception):
    """Argument-level problem; reported with the offending flag name."""


def _range_type(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected LO:HI:STEPS, got {text!r}")
    try:
        lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise argparse.ArgumentTypeError(f"LO and HI must be finite, got {text!r}")
    if steps < 1:
        raise argparse.ArgumentTypeError(f"steps must be at least 1, got {steps}")
    if hi < lo:
        raise argparse.ArgumentTypeError(f"need LO <= HI, got {text!r}")
    return np.linspace(lo, hi, steps)


def _config_tokens(path: str) -> list[str]:
    tokens: list[str] = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise CliError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if not key or not value:
                raise CliError(f"{path}:{lineno}: empty key or value")
            tokens.extend(["--" + key.replace("_", "-"), value])
    return tokens


def _inject_config(argv: list[str]) -> list[str]:
    """Expand --config FILE into flag tokens placed right after the
    subcommand, so explicitly passed flags (parsed later) win."""
    path = None
    for i, token in enumerate(argv):
        if token == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif token.startswith("--config="):
            path = token.split("=", 1)[1]
    if path is None or not argv:
        return argv
    return [argv[0], *_config_tokens(path), *argv[1:]]


def _gad(p: float, r: float, label: str) -> GadParams:
    try:
        return GadParams(p, r)
    except ValueError as exc:
        raise CliError(f"{label}: {exc}") from None


def _format_cell(value: object) -> str:
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _write_csv(
    path: str, header: Sequence[str], rows: Iterable[Sequence[object]]
) -> None:
    def dump(fh) -> None:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_cell(cell) for cell in row])

    if path == "-":
        dump(sys.stdout)
    else:
        with open(path, "w", newline="") as fh:
            dump(fh)


def _strength_axis(args: argparse.Namespace, flag: str) -> np.ndarray:
    axis = getattr(args, flag.strip("-").replace("-", "_"))
    if axis is None:
        if args.grid < 2:
            raise CliError(f"--grid: need at least 2 points, got {args.grid}")
        axis = np.linspace(1.0 / args.grid, 1.0, args.grid)
    if float(axis[0]) <= 0.0:
        raise CliError(f"{flag}: strengths must be positive")
    return axis


def _cmd_qubit_fidelity(args: argparse.Namespace) -> int:
    params = _gad(args.p, args.r, "--p/--r")
    ms = _strength_axis(args, "--m-range")
    ns = _strength_axis(args, "--n-range")
    rows = []
    for m in ms:
        for n in ns:
            res = protect_equatorial(params, float(m), float(n))
            rows.append((float(m), float(n), res.fidelity, res.success_prob))
    _write_csv(args.out, ("m", "n", "fidelity", "success_prob"), rows)
    return EXIT_OK


def _cmd_qubit_average(args: argparse.Namespace) -> int:
    params = _gad(args.p, args.r, "--p/--r")
    ms = _strength_axis(args, "--m-range")
    ns = _strength_axis(args, "--n-range")
    rows = []
    for m in ms:
        for n in ns:
            rep = average_fidelity_six(params, float(m), float(n))
            rows.append((float(m), float(n), rep.f0, rep.f1, rep.fe, rep.favg))
    _write_csv(args.out, ("m", "n", "f0", "f1", "fe", "favg"), rows)
    return EXIT_OK


def _cmd_qkd_error(args: argparse.Namespace) -> int:
    params = _gad(args.p, args.r, "--p/--r")
    ms = _strength_axis(args, "--m-range")
    ns = _strength_axis(args, "--n-range")
    rows = []
    for m in ms:
        for n in ns:
            rows.append((float(m), float(n), bb84_error_rate(params, float(m), float(n))))
    _write_csv(args.out, ("m", "n", "error_rate"), rows)
    return EXIT_OK


def _cmd_entangle(args: argparse.Namespace) -> int:
    ch1 = _gad(args.p1, args.r1, "--p1/--r1")
    ch2 = _gad(args.p2, args.r2, "--p2/--r2")
    if not 0.0 <= args.alpha_sq <= 1.0:
        raise CliError(f"--alpha-sq: must lie in [0, 1], got {args.alpha_sq}")
    inp = EntangledInput.from_alpha_sq(args.alpha_sq)
    rows = []
    for m in args.sweep_m:
        m = float(m)
        try:
            coeffs = measured_coefficients(inp, ch1, ch2, m, 1.0)
            n1, n2 = optimal_reversal(coeffs)
            lam2 = concurrence_lambda2(coeffs, n1, n2)
            _, success = protected_state(inp, ch1, ch2, m, 1.0, n1, n2)
        except (ValueError, PostSelectionError) as exc:
            raise CliError(f"--sweep-m: at m={m:g}: {exc}") from None
        rows.append((m, n1, n2, lam2, max(0.0, lam2), success))
    _write_csv(
        args.out, ("m", "n1", "n2", "lambda2", "concurrence", "success_prob"), rows
    )
    return EXIT_OK


def _cmd_optimal(args: argparse.Namespace) -> int:
    single = args.p is not None or args.r is not None
    pair = any(v is not None for v in (args.p1, args.r1, args.p2, args.r2))
    if single == pair:
        raise CliError("give either --p/--r (one qubit) or --p1/--r1/--p2/--r2")
    lines: list[tuple[str, object]] = []
    if single:
        if args.p is None or args.r is None:
            raise CliError("--p and --r are both required for the one-qubit query")
        params = _gad(args.p, args.r, "--p/--r")
        try:
            best = optimal_strengths(params)
            avg = optimal_average(params)
        except ValueError as exc:
            raise CliError(f"--p/--r: {exc}") from None
        if best.projective:
            success = 0.0
        else:
            success = protect_equatorial(params, best.m, best.n).success_prob
        lines = [
            ("m_opt", best.m),
            ("n_opt", best.n),
            ("fidelity_max", best.f_max),
            ("fidelity_baseline", baseline_fidelity(params)),
            ("favg_max", avg.f_max),
            ("qkd_error_min", 1.0 - best.f_max),
            ("success_prob", success),
            ("projective", best.projective),
        ]
    else:
        for flag, value in (("--p1", args.p1), ("--r1", args.r1),
                            ("--p2", args.p2), ("--r2", args.r2)):
            if value is None:
                raise CliError(f"{flag} is required for the two-qubit query")
        ch1 = _gad(args.p1, args.r1, "--p1/--r1")
        ch2 = _gad(args.p2, args.r2, "--p2/--r2")
        if not 0.0 <= args.alpha_sq <= 1.0:
            raise CliError(f"--alpha-sq: must lie in [0, 1], got {args.alpha_sq}")
        report = optimal_parameters(EntangledInput.from_alpha_sq(args.alpha_sq), ch1, ch2)
        lines = [
            ("lambda1", report.lambda1),
            ("concurrence_unprotected", max(0.0, report.lambda1)),
            ("m_opt", report.m_opt),
            ("n1_opt", report.n1_opt),
            ("n2_opt", report.n2_opt),
            ("lambda2_max", report.lambda2_max),
            ("concurrence_protected", max(0.0, report.lambda2_max)),
            ("h", report.h),
            ("alpha_sq_opt", report.alpha_sq_opt),
            ("success_prob", report.success_prob),
            ("degenerate", report.degenerate),
        ]
    for key, value in lines:
        print(f"{key} = {value!r}")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(VERIFY_SEED)
    failures = 0
    for name, check, count in CHECKS:
        ok, detail = check(rng, count)
        print(f"[{'ok' if ok else 'FAIL'}] {name}: {detail}")
        if not ok:
            failures += 1
    if failures:
        print(f"{failures} check(s) failed")
        return EXIT_VERIFY_FAILED
    print("all checks passed")
    return EXIT_OK


def _add_sweep_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--p", type=float, required=True, help="stationary weight on |0>")
    sp.add_argument("--r", type=float, required=True, help="damping strength")
    sp.add_argument(
        "--grid", type=int, default=100,
        help="points per strength axis when no explicit range is given (default 100)",
    )
    sp.add_argument(
        "--m-range", type=_range_type, metavar="LO:HI:STEPS",
        help="pre-measurement strengths (default 1/grid:1:grid)",
    )
    sp.add_argument(
        "--n-range", type=_range_type, metavar="LO:HI:STEPS",
        help="reversal strengths (default 1/grid:1:grid)",
    )
    _add_output_flags(sp)


def _add_output_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--out", default="-", help="output CSV path, '-' for stdout")
    sp.add_argument("--config", help="key=value defaults file; explicit flags win")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decoshield",
        description="Weak-measurement protection against finite-temperature damping.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser(
        "qubit-fidelity",
        help="sweep equatorial-state fidelity over strengths",
        description="CSV columns: m,n,fidelity,success_prob (row order: m outer, n inner).",
    )
    _add_sweep_flags(sp)
    sp.set_defaults(handler=_cmd_qubit_fidelity)

    sp = sub.add_parser(
        "qubit-average",
        help="sweep the six-state average fidelity over strengths",
        description="CSV columns: m,n,f0,f1,fe,favg (row order: m outer, n inner).",
    )
    _add_sweep_flags(sp)
    sp.set_defaults(handler=_cmd_qubit_average)

    sp = sub.add_parser(
        "qkd-error",
        help="sweep the four-state key-distribution error rate",
        description="CSV columns: m,n,error_rate (row order: m outer, n inner).",
    )
    _add_sweep_flags(sp)
    sp.set_defaults(handler=_cmd_qkd_error)

    sp = sub.add_parser(
        "entangle",
        help="sweep protected concurrence over the pre-measurement strength",
        description=(
            "CSV columns: m,n1,n2,lambda2,concurrence,success_prob; n1,n2 are "
            "re-optimized at every m."
        ),
    )
    sp.add_argument("--p1", type=float, required=True, help="qubit-1 stationary weight")
    sp.add_argument("--r1", type=float, required=True, help="qubit-1 damping strength")
    sp.add_argument("--p2", type=float, required=True, help="qubit-2 stationary weight")
    sp.add_argument("--r2", type=float, required=True, help="qubit-2 damping strength")
    sp.add_argument(
        "--alpha-sq", type=float, default=0.5,
        help="weight |alpha|^2 of the |00> component (default 0.5)",
    )
    sp.add_argument(
        "--sweep-m", type=_range_type, metavar="LO:HI:STEPS",
        default="0:1:200", help="pre-measurement sweep (default 0:1:200)",
    )
    _add_output_flags(sp)
    sp.set_defaults(handler=_cmd_entangle)

    sp = sub.add_parser(
        "optimal",
        help="print the optimal strengths and what they attain",
        description=(
            "One qubit: --p/--r. Two qubits: --p1/--r1/--p2/--r2 [--alpha-sq]. "
            "Values are printed at full precision, one key = value per line."
        ),
    )
    sp.add_argument("--p", type=float, help="one-qubit stationary weight")
    sp.add_argument("--r", type=float, help="one-qubit damping strength")
    sp.add_argument("--p1", type=float, help="qubit-1 stationary weight")
    sp.add_argument("--r1", type=float, help="qubit-1 damping strength")
    sp.add_argument("--p2", type=float, help="qubit-2 stationary weight")
    sp.add_argument("--r2", type=float, help="qubit-2 damping strength")
    sp.add_argument("--alpha-sq", type=float, default=0.5, help="|alpha|^2 (default 0.5)")
    sp.add_argument("--config", help="key=value defaults file; explicit flags win")
    sp.set_defaults(handler=_cmd_optimal)

    sp = sub.add_parser(
        "verify",
        help="cross-check closed forms against pipelines and search oracles",
        description="Prints one [ok]/[FAIL] line per check; exit 1 on any failure.",
    )
    sp.add_argument("--config", help="accepted for symmetry; no keys are read")
    sp.set_defaults(handler=_cmd_verify)

    return parser


def entry(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        argv = _inject_config(argv)
        args = parser.parse_args(argv)
        return args.handler(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(entry())
