"""decoshield benchmark driver.

    python3 bench/run.py --workload {surface,kraus,oracle,queries}
                         [--seed N] [--seconds S] [--trace 0|1]

Runs one workload in this process as a closed loop of rounds for about
--seconds, after one untimed warm-up round, then checks every distinct
output. The last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with --trace 0, the per-layer metrics of a separate traced run with
--trace 1. The line before it records the run environment. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

import env

env.prepare()

import numpy as np  # noqa: E402  (after the thread pools are pinned)

import outputs  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 9
SETUP_CODE = (
    "from decoshield.cli import entry; "
    "raise SystemExit(entry(['optimal', '--p', '0.5', '--r', '0.5']))"
)
PERCENTILES = (50.0, 90.0, 99.0, 99.9)
TAIL_SAMPLES = 10

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "call_ms_p50": "ms",
    "call_ms_p99": "ms",
    "peak_rss_mb": "MB",
}
HOT_FUNCTIONS = (
    "qubit.protect_equatorial",
    "qubit.average_fidelity_six",
    "qubit.bb84_error_rate",
    "qubit.apply_protection",
    "entangle.pipeline_state",
    "entangle.measured_coefficients",
    "channels.apply_channel",
    "channels.apply_on_qubit",
    "weakmeas.apply_postselected",
    "linalg.fidelity",
    "linalg.wootters_concurrence",
    "optimize.grid_maximize",
    "optimize.simplex_maximize",
)
COUNTS = {
    "optimize.evaluations": "count",
    "optimize.converged_frac": "ratio",
    "weakmeas.accept_ratio": "ratio",
    "cli.rows_out": "count",
    "cli.bytes_out": "B",
    "trace.overhead_frac": "ratio",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer in spans.LAYERS:
        units.update({f"{layer}.calls": "count", f"{layer}.self_s": "s",
                      f"{layer}.us_per_call": "us"})
    for name in HOT_FUNCTIONS:
        units.update({f"{name}.calls": "count", f"{name}.self_s": "s",
                      f"{name}.us_per_call": "us"})
    units.update(COUNTS)
    return units


def tail_percentile(samples: int) -> float | None:
    """Highest reported percentile with at least ten samples beyond it."""
    # in tenths of a percent, so 99.9 of 10000 leaves exactly 10 beyond
    valid = [q for q in PERCENTILES if samples * (1000 - round(q * 10)) >= TAIL_SAMPLES * 1000]
    return max(valid) if valid else None


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile, as numpy's default (which costs
    the process 10 MB of peak memory on first use)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def measure_setup() -> tuple[float, float]:
    """Median time of a fresh interpreter answering one CLI query: start,
    `import decoshield.cli`, parser build, one call. Returns (normalized,
    wall); the child shares this process's core, whose speed is probed
    right before and after each launch."""
    cmd = [sys.executable, "-c", SETUP_CODE]
    child = env.child_env()
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        subprocess.run(cmd, env=child, stdout=subprocess.DEVNULL, check=True, timeout=120)
        normalized, walls = [], []
        for _ in range(SETUP_RUNS):
            before = speed.bracket()
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, env=child, capture_output=True, timeout=120)
            wall = time.perf_counter() - t0
            if proc.returncode != 0 or not proc.stdout.startswith(b"m_opt = "):
                raise RuntimeError(f"set-up call failed: {proc.stderr.decode()[-500:]}")
            normalized.append(wall * speed.factor(before + speed.bracket()))
            walls.append(wall)
    finally:
        os.sched_setaffinity(0, allowed)
    return statistics.median(normalized), statistics.median(walls)


class Ledger:
    """Every operation run, grouped by distinct output for checking."""

    def __init__(self, ops, outdir, recorded) -> None:
        self.ops, self.outdir, self.recorded = ops, outdir, recorded
        self.keep = outdir / "kept"
        self.keep.mkdir(parents=True, exist_ok=True)
        self.seen: dict[tuple, tuple] = {}
        self.counts: Counter[tuple] = Counter()
        self.reasons: dict[tuple, str] = {}
        self.rows_out: list[int] = []
        self.bytes_out: list[int] = []

    def absorb(self, calls) -> None:
        rows = size = 0
        for i, (op, call) in enumerate(zip(self.ops, calls)):
            data = outputs.output_bytes(op, call, self.outdir)
            if data is not None:
                rows += data.count(b"\n") - (op.out is not None)
                size += len(data)
                key = outputs.digest16(data)
            else:
                key = outputs.digest16(outputs.value_key(call))
            # the exit code is part of the identity: a failed call never
            # shares a verdict with a good one
            ident = (i, key, call.value if op.argv else None)
            self.counts[ident] += 1
            new = ident not in self.seen
            if op.out is not None and data is not None:
                # take the file away, so the next round cannot reuse it
                path = self.outdir / op.out
                if new:
                    kept = self.keep / f"{i}-{key}.csv"
                    os.replace(path, kept)
                    self.seen[ident] = (call, kept)
                else:
                    path.unlink()
            elif new:
                self.seen[ident] = (call, data)
            if new and data is not None and self.recorded and self.recorded[i] not in (None, key):
                self.reasons[ident] = f"digest {key} differs from recorded {self.recorded[i]}"
        self.rows_out.append(rows)
        self.bytes_out.append(size)

    def check(self, seed: int) -> tuple[int, int, list[str]]:
        """(attempted, failed, reasons) over every operation absorbed."""
        for ident, (call, data) in self.seen.items():
            if ident in self.reasons:
                continue
            i = ident[0]
            if not isinstance(data, (bytes, type(None))):
                data = data.read_bytes()
            rng = np.random.default_rng([seed, i])
            reason = outputs.check(self.ops[i], call, data, rng)
            if reason is not None:
                self.reasons[ident] = reason
        failed = sum(self.counts[ident] for ident in self.reasons)
        lines = [f"op {ident[0]} ({self.ops[ident[0]].kind}): {why}"
                 for ident, why in self.reasons.items()]
        return sum(self.counts.values()), failed, lines


def layer_metrics(tracer, traced) -> dict[str, float]:
    """Per-layer figures: medians over traced rounds, counts per round,
    times in nominal-speed seconds like the end-to-end metrics."""
    names = tracer.names
    per_round = []
    for spans_round, searches, raised, f in traced:
        agg = {k: v * f if k.endswith("_ns") else v
               for k, v in spans.aggregate(spans_round, len(names)).items()}
        figures: dict[str, float] = {}
        for layer in spans.LAYERS:
            members = [j for j, n in enumerate(names) if n.split(".", 1)[0] == layer]
            calls = int(agg["calls"][members].sum())
            self_s = float(agg["self_ns"][members].sum()) * 1e-9
            figures[f"{layer}.calls"] = calls
            figures[f"{layer}.self_s"] = self_s
            figures[f"{layer}.us_per_call"] = self_s / calls * 1e6 if calls else 0.0
        for name in HOT_FUNCTIONS:
            j = names.index(name)
            calls = int(agg["calls"][j])
            figures[f"{name}.calls"] = calls
            figures[f"{name}.self_s"] = float(agg["self_ns"][j]) * 1e-9
            figures[f"{name}.us_per_call"] = (
                float(agg["incl_ns"][j]) * 1e-3 / calls if calls else 0.0)
        figures["optimize.evaluations"] = sum(e for e, _ in searches)
        figures["optimize.converged_frac"] = (
            sum(c for _, c in searches) / len(searches) if searches else 0.0)
        attempts = figures["weakmeas.apply_postselected.calls"]
        wasted = raised.get("weakmeas.apply_postselected", 0)
        figures["weakmeas.accept_ratio"] = (attempts - wasted) / attempts if attempts else 0.0
        per_round.append(figures)
    return {key: statistics.median(r[key] for r in per_round) for key in per_round[0]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=outputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    outdir = env.SCRATCH / "out" / args.workload
    outdir.mkdir(parents=True, exist_ok=True)
    for stale in outdir.glob("kept/*"):
        stale.unlink()
    ops = workloads.build(args.workload, args.seed)
    ledger = Ledger(ops, outdir, outputs.load_digests(args.workload, args.seed))

    setup_s, setup_wall = (None, None) if args.trace else measure_setup()
    calls, _ = workloads.run_round(ops, outdir)  # warm-up, untimed
    ledger.absorb(calls)
    del calls

    tracer = spans.Tracer() if args.trace else None
    sampler = speed.Sampler()
    timed, traced, traced_rounds = [], [], []

    def measured_round() -> dict[str, float]:
        """Run a round, hand its outputs to the ledger, keep only figures
        (holding the calls would grow memory with the number of rounds)."""
        calls, wall = workloads.run_round(ops, outdir, sampler)
        ledger.absorb(calls)
        nominal = speed.normalize([(c.seconds, *c.probes) for c in calls], sampler.samples)
        raw = [c.seconds for c in calls]
        items = workloads.items_done(ops, calls)
        return {
            "items": sum(items),
            # time of the operations whose work is counted
            "busy": sum(t for t, n in zip(nominal, items) if n),
            "raw_busy": sum(t for t, n in zip(raw, items) if n),
            "wall": wall,
            "nominal": sum(nominal),
            "p50": percentile(nominal, 50.0) * 1e3,
            "p99": percentile(nominal, 99.0) * 1e3,
            "raw_p50": percentile(raw, 50.0) * 1e3,
            "raw_p99": percentile(raw, 99.0) * 1e3,
            "rows_out": ledger.rows_out[-1],
            "bytes_out": ledger.bytes_out[-1],
        }

    deadline = time.perf_counter() + args.seconds
    with sampler:
        while True:
            timed.append(measured_round())
            if tracer is not None:
                n_search, raised_before = len(tracer.search_results), Counter(tracer.raised)
                with tracer:
                    traced_rounds.append(measured_round())
                last = traced_rounds[-1]
                traced.append((tracer.take_round(), tracer.search_results[n_search:],
                               tracer.raised - raised_before, last["nominal"] / last["wall"]))
            if time.perf_counter() >= deadline:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed, reasons = ledger.check(args.seed)

    def median(key: str, rounds=timed) -> float:
        return statistics.median(r[key] for r in rounds)

    if tracer is None:
        metrics = {
            "setup_s": setup_s,
            "items_per_s": statistics.median(r["items"] / r["busy"] for r in timed),
            "call_ms_p50": median("p50"),
            "call_ms_p99": median("p99"),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
    else:
        tracer.save(env.SCRATCH / f"spans-{args.workload}.npz")
        metrics = layer_metrics(tracer, traced)
        metrics["cli.rows_out"] = median("rows_out", traced_rounds)
        metrics["cli.bytes_out"] = median("bytes_out", traced_rounds)
        metrics["trace.overhead_frac"] = (
            median("nominal", traced_rounds) / median("nominal") - 1.0)
        units = per_layer_units()

    for line in reasons[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "rounds": len(timed),
        "traced_rounds": len(traced),
        "calls_per_round": len(ops),
        "tail_percentile_with_10_beyond": tail_percentile(len(ops)),
        "speed_factor_median": statistics.median(r["nominal"] / r["wall"] for r in timed),
        "wall_clock": {
            "setup_s": setup_wall,
            "items_per_s": statistics.median(r["items"] / r["raw_busy"] for r in timed),
            "call_ms_p50": median("raw_p50"),
            "call_ms_p99": median("raw_p99"),
        },
        "wait_s": "none: one thread, no queues, so no layer waits",
    }
    print("info " + json.dumps(info))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
