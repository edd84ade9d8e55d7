"""Command-line front end: strength sweeps to CSV, optimum queries, and a
self-verification command that cross-checks every closed form against the
generic pipeline and the numeric search oracles.

Exit codes: 0 success, 1 verification failure, 2 bad arguments.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import sys
from typing import Sequence

from ._elementwise import check_strength, np
from .channels import GadParams
from .qubit import (
    average_fidelity_six,
    baseline_fidelity,
    optimal_strengths,
    protect_equatorial,
    qkd_error_rate,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
# rows rendered per write: bounds the text held in memory at once
CSV_CHUNK_ROWS = 4096


class CliError(Exception):
    """Argument-level problem; reported with the offending flag name."""


@functools.cache
def _entangle():
    """decoshield.entangle, imported by the first call that needs it: the
    one-qubit path never loads it. Its names are read through the module."""
    from . import entangle
    return entangle


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


def _config_tokens(path: str) -> tuple[list[str], dict[str, tuple[str, str]]]:
    """Flag tokens from a key=value file, and for each flag the FILE:LINE
    and key it came from."""
    tokens: list[str] = []
    origins: dict[str, tuple[str, str]] = {}
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
            flag = "--" + key.replace("_", "-")
            tokens.extend([flag, value])
            origins.setdefault(flag, (f"{path}:{lineno}", key))
    return tokens, origins


def _inject_config(argv: list[str]) -> tuple[list[str], dict[str, tuple[str, str]]]:
    """Expand --config FILE into flag tokens placed right after the
    subcommand, so explicitly passed flags (parsed later) win. Also returns
    where each config flag came from. Only a leading subcommand that declares
    --config reads one, from the tokens before --, and none if they ask for help."""
    head = argv[:argv.index("--")] if "--" in argv else argv
    if not head or head[0] not in _CONFIG_COMMANDS or "-h" in head or "--help" in head:
        return argv, {}
    path = None
    for i, token in enumerate(head):
        if token == "--config" and i + 1 < len(head):
            path = head[i + 1]
        elif token.startswith("--config="):
            path = token.split("=", 1)[1]
    if path is None:
        return argv, {}
    tokens, origins = _call("--config", _config_tokens, path)
    return [argv[0], *tokens, *argv[1:]], origins


def _call(flag: str, fn, *args):
    """fn(*args), with a library ValueError (PostSelectionError included) or
    a file's OSError reported against flag: exit 2 with `error: <flag>: <message>`."""
    try:
        return fn(*args)
    except (ValueError, OSError) as exc:
        raise CliError(f"{flag}: {exc}") from None


def _write_csv(path: str, header: Sequence[str], columns: Sequence[np.ndarray]) -> None:
    """Write equal-size float columns as CSV rows, in C order, each value at
    12 significant digits, rendering at most CSV_CHUNK_ROWS rows per write,
    and whole blocks together where they fit.

    The rows are cut into blocks along the first column's last axis: one
    block per m of a qubit sweep, one block for the entangle sweep. What
    repeats by block is formatted once. A leading column that is constant in
    every block (m) is formatted once per block, as the row prefix; the last
    column never is. A column whose blocks are all the same bit for bit (n,
    and f0, f1 of qubit-average) is formatted once per position in a block,
    into that position's row template. Every other value is formatted once
    per row, by one `%` per write. With one block, or when no column
    repeats, all positions share one row template."""
    width = np.shape(columns[0])[-1]
    cols = [np.ascontiguousarray(col, dtype=np.float64).reshape(-1, width) for col in columns]
    bits = [col.view(np.uint64) for col in cols]  # so -0.0 and 0.0 stay apart
    blocks = len(cols[0])
    lead = 0
    while lead < len(cols) - 1 and (bits[lead] == bits[lead][:, :1]).all():
        lead += 1
    heads = zip(*(col[:, 0].tolist() for col in cols[:lead])) if lead else [()] * blocks
    prefixes = [("%.12g," * lead) % head for head in heads]
    repeats = [blocks > 1 and bool((b == b[:1]).all()) for b in bits[lead:]]
    if any(repeats):
        cells = [["%.12g" % value for value in col[0].tolist()] if repeat else ["%.12g"] * width
                 for col, repeat in zip(cols[lead:], repeats)]
        templates = [",".join(parts) + "\n" for parts in zip(*cells)]
    else:
        templates = [",".join(["%.12g"] * len(repeats)) + "\n"] * width
    others = [col for col, repeat in zip(cols[lead:], repeats) if not repeat]
    table = np.stack(others, axis=-1) if others else np.empty((blocks, width, 0))

    # blocks shorter than a write go whole, as many as fit in one; a longer
    # block is cut into writes of CSV_CHUNK_ROWS rows
    group = max(1, CSV_CHUNK_ROWS // width)
    step = min(width, CSV_CHUNK_ROWS)

    with contextlib.nullcontext(sys.stdout) if path == "-" else open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for first in range(0, blocks, group):
            heads = prefixes[first:first + group]
            for start in range(0, width, step):
                stop = start + step
                # no name holds a chunk's floats, so they are freed before
                # the next chunk's are made
                fh.write("".join(prefix + prefix.join(templates[start:stop]) for prefix in heads)
                         % tuple(table[first:first + group, start:stop].ravel().tolist()))


def _strength_axis(args: argparse.Namespace, flag: str) -> np.ndarray:
    axis = getattr(args, flag.strip("-").replace("-", "_"))
    if axis is None:
        if args.grid < 2:
            raise CliError(f"--grid: need at least 2 points, got {args.grid}")
        axis = np.linspace(1.0 / args.grid, 1.0, args.grid)
    _call(flag, check_strength, "strengths", axis)
    return axis


# the qubit sweeps: subcommand, help, the CSV columns after m and n, and the
# function of (params, m grid, n grid) giving a mapping that holds them
QUBIT_SWEEPS = (
    ("qubit-fidelity", "sweep equatorial-state fidelity over strengths",
     ("fidelity", "success_prob"), lambda *a: vars(protect_equatorial(*a))),
    ("qubit-average", "sweep the six-state average fidelity over strengths",
     ("f0", "f1", "fe", "favg"), lambda *a: vars(average_fidelity_six(*a))),
    ("qkd-error", "sweep the four-state key-distribution error rate",
     ("error_rate",), lambda *a: {"error_rate": qkd_error_rate(*a)}),
)
# the subcommands that declare --config: all but verify, which reads no keys
_CONFIG_COMMANDS = frozenset((*(sweep[0] for sweep in QUBIT_SWEEPS), "entangle", "optimal"))


def _cmd_qubit_sweep(args: argparse.Namespace) -> int:
    params = _call("--p/--r", GadParams, args.p, args.r)
    # the (m, n) grid: m outer, n inner in C order
    m, n = np.meshgrid(
        _strength_axis(args, "--m-range"), _strength_axis(args, "--n-range"), indexing="ij"
    )
    values = _call("--m-range/--n-range", args.evaluate, params, m, n)
    columns = (m, n, *(values[c] for c in args.columns))
    _call("--out", _write_csv, args.out, ("m", "n", *args.columns), columns)
    return EXIT_OK


def _cmd_entangle(args: argparse.Namespace) -> int:
    ch1 = _call("--p1/--r1", GadParams, args.p1, args.r1)
    ch2 = _call("--p2/--r2", GadParams, args.p2, args.r2)
    entangle = _entangle()
    inp = _call("--alpha-sq", entangle.EntangledInput.from_alpha_sq, args.alpha_sq)
    ms = args.sweep_m
    try:
        n1, n2, lam2, success = entangle.optimized_protection(inp, ch1, ch2, ms)
    except ValueError as exc:
        # the array call fails when any point does; the first failing point,
        # run alone, names its m and gives that point's own message
        for m in ms.tolist():
            _call(f"--sweep-m: at m={m:g}", entangle.optimized_protection, inp, ch1, ch2, m)
        raise CliError(f"--sweep-m: {exc}") from None
    concurrence = np.where(lam2 > 0.0, lam2, 0.0)  # max(0.0, lambda2) at each point
    _call(
        "--out", _write_csv, args.out, ("m", "n1", "n2", "lambda2", "concurrence", "success_prob"),
        (ms, n1, n2, lam2, concurrence, success),
    )
    return EXIT_OK


def _cmd_optimal(args: argparse.Namespace) -> int:
    single = args.p is not None or args.r is not None
    pair = any(v is not None for v in (args.p1, args.r1, args.p2, args.r2))
    if single == pair:
        raise CliError("give either --p/--r (one qubit) or --p1/--r1/--p2/--r2")
    if single:
        if args.p is None or args.r is None:
            raise CliError("--p and --r are both required for the one-qubit query")
        params = _call("--p/--r", GadParams, args.p, args.r)
        if not 0.0 <= args.alpha_sq <= 1.0:  # unused here, but refused as the pair query does
            _call("--alpha-sq", _entangle().EntangledInput.from_alpha_sq, args.alpha_sq)
        best = _call("--p/--r", optimal_strengths, params)
        if best.projective:
            # m, n -> 0 pushes every one of the six fidelities to 1
            favg, success = 1.0, 0.0
        else:
            success = _call("--p/--r", protect_equatorial, params, best.m, best.n).success_prob
            favg = average_fidelity_six(params, best.m, best.n).favg
        lines = [
            ("m_opt", best.m),
            ("n_opt", best.n),
            ("fidelity_max", best.f_max),
            ("fidelity_baseline", baseline_fidelity(params)),
            ("favg_max", favg),
            ("qkd_error_min", 1.0 - best.f_max),
            ("success_prob", success),
            ("projective", best.projective),
        ]
    else:
        for flag, value in (("--p1", args.p1), ("--r1", args.r1),
                            ("--p2", args.p2), ("--r2", args.r2)):
            if value is None:
                raise CliError(f"{flag} is required for the two-qubit query")
        ch1 = _call("--p1/--r1", GadParams, args.p1, args.r1)
        ch2 = _call("--p2/--r2", GadParams, args.p2, args.r2)
        entangle = _entangle()
        inp = _call("--alpha-sq", entangle.EntangledInput.from_alpha_sq, args.alpha_sq)
        report = _call("--alpha-sq", entangle.optimal_parameters, inp, ch1, ch2)
        lines = [
            ("lambda1", report.lambda1),
            ("concurrence_unprotected", min(1.0, max(0.0, report.lambda1))),
            ("m_opt", report.m_opt),
            ("n1_opt", report.n1_opt),
            ("n2_opt", report.n2_opt),
            ("lambda2_max", report.lambda2_max),
            ("concurrence_protected", min(1.0, max(0.0, report.lambda2_max))),
            ("h", report.h),
            ("alpha_sq_opt", report.alpha_sq_opt),
            ("success_prob", report.success_prob),
            ("degenerate", report.degenerate),
        ]
    sys.stdout.write("".join(f"{key} = {value!r}\n" for key, value in lines))
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    from . import checks  # the battery loads every module; only verify needs it

    rng = np.random.default_rng(checks.VERIFY_SEED)
    failures = 0
    for name, check, count in checks.CHECKS:
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


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser and its subcommands' parsers by name, built on the first
    entry() call and then shared: parsing writes only into a fresh Namespace,
    --sweep-m's string default is converted anew on every parse, and the
    defaults set per subcommand are tuples and functions: no shared state."""
    # flags must be spelled out: a prefix of a flag is not that flag, so an
    # abbreviated --config key is reported as unknown
    parser = argparse.ArgumentParser(
        prog="decoshield",
        description="Weak-measurement protection against finite-temperature damping.",
        allow_abbrev=False,
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    commands: dict[str, argparse.ArgumentParser] = {}

    def add_parser(command: str, **kwargs) -> argparse.ArgumentParser:
        commands[command] = subparsers.add_parser(command, allow_abbrev=False, **kwargs)
        return commands[command]

    for command, summary, columns, evaluate in QUBIT_SWEEPS:
        sp = add_parser(
            command, help=summary,
            description=f"CSV columns: {','.join(('m', 'n', *columns))} "
                        "(row order: m outer, n inner).",
        )
        _add_sweep_flags(sp)
        sp.set_defaults(handler=_cmd_qubit_sweep, columns=columns, evaluate=evaluate)

    sp = add_parser(
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

    sp = add_parser(
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

    sp = add_parser(
        "verify",
        help="cross-check closed forms against pipelines and search oracles",
        description="Prints one [ok]/[FAIL] line per check; exit 1 on any failure.",
    )
    sp.set_defaults(handler=_cmd_verify)

    return parser, commands


def entry(argv: Sequence[str] | None = None) -> int:
    """Run one command line (default sys.argv[1:]); return its exit code.

    A first token naming a subcommand hands the rest to that subcommand's
    parser alone, for the namespace and bytes the top-level parser gives. That
    parser runs when no subcommand leads (no tokens, -h, an unknown word, --)."""
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = _build_parser()
    try:
        argv, origins = _inject_config(argv)
        subparser = commands.get(argv[0]) if argv else None
        args, extras = (parser.parse_known_args(argv) if subparser is None else
                        subparser.parse_known_args(argv[1:], argparse.Namespace(command=argv[0])))
        for token in extras:
            if token in origins:
                where, key = origins[token]
                raise CliError(f"{where}: unknown key {key!r}")
        if extras:
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
        return args.handler(args)
    except (CliError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(entry())
