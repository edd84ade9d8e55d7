"""Self-tests of the benchmark harness.

    python3 bench/selftest.py

Covers the self-time subtraction on nested spans, the tracer's reach into
every namespace, the percentile rule, seed determinism of the generated
inputs, that a corrupted CSV is counted as failed, and that BENCHMARK.json
lists exactly the metrics the driver prints.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import unittest

import env

env.prepare()

import numpy as np  # noqa: E402

import decoshield  # noqa: E402
import decoshield.cli  # noqa: E402
import decoshield.qubit  # noqa: E402
import outputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class SelfTime(unittest.TestCase):
    def test_children_are_subtracted_from_nested_spans(self):
        # a [0, 100] holds b [10, 30] and b [40, 90]; the second b holds c [50, 60]
        rnd = {
            "name": np.array([0, 1, 1, 2], dtype=np.int32),
            "parent": np.array([-1, 0, 0, 2], dtype=np.int32),
            "start": np.array([0, 10, 40, 50], dtype=np.int64),
            "end": np.array([100, 30, 90, 60], dtype=np.int64),
        }
        agg = spans.aggregate(rnd, 3)
        self.assertEqual(agg["calls"].tolist(), [1, 2, 1])
        self.assertEqual(agg["incl_ns"].tolist(), [100.0, 70.0, 10.0])
        self.assertEqual(agg["self_ns"].tolist(), [30.0, 60.0, 10.0])

    def test_tracer_sees_calls_through_every_namespace(self):
        original = decoshield.protect_equatorial
        params = decoshield.GadParams(0.8, 0.3)
        tracer = spans.Tracer()
        with tracer, contextlib.redirect_stdout(io.StringIO()):
            decoshield.protect_equatorial(params, 0.5, 0.5)  # package root
            decoshield.qubit.average_fidelity_six(params, 0.5, 0.5)  # module-internal call
            decoshield.cli.entry(["optimal", "--p", "0.8", "--r", "0.3"])  # cli's own import
        agg = spans.aggregate(tracer.take_round(), len(tracer.names))
        calls = dict(zip(tracer.names, agg["calls"].tolist()))
        self.assertEqual(calls["qubit.protect_equatorial"], 4)
        self.assertEqual(calls["cli.entry"], 1)
        self.assertEqual(calls["qubit.optimal_strengths"], 2)
        self.assertIs(decoshield.protect_equatorial, original)
        self.assertIs(decoshield.cli.protect_equatorial, original)


class PercentileRule(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertIsNone(run.tail_percentile(19))
        self.assertEqual(run.tail_percentile(20), 50.0)
        self.assertEqual(run.tail_percentile(999), 90.0)
        self.assertEqual(run.tail_percentile(1000), 99.0)
        self.assertEqual(run.tail_percentile(2000), 99.0)
        self.assertEqual(run.tail_percentile(10000), 99.9)

    def test_percentile_interpolates_like_numpy(self):
        values = [float(v) for v in np.random.default_rng(1).exponential(size=1001)]
        for q in (0.0, 50.0, 99.0, 100.0):
            self.assertAlmostEqual(run.percentile(values, q), float(np.percentile(values, q)))


class Inputs(unittest.TestCase):
    def test_same_seed_gives_same_inputs(self):
        for name in workloads.WORKLOADS:
            first = workloads.build(name, 7)
            self.assertEqual(first, workloads.build(name, 7), name)
            if name != "oracle":  # verify has no inputs, searches have
                self.assertNotEqual(first, workloads.build(name, 8), name)
        self.assertNotEqual(workloads.build("oracle", 7)[1:], workloads.build("oracle", 8)[1:])

    def test_inputs_stay_in_their_ranges(self):
        for op in workloads.build("queries", 3):
            values = [float(v) for v in op.argv[2::2]]
            self.assertTrue(all(0.02 <= v <= 0.95 for v in values), op.argv)


class FailedCount(unittest.TestCase):
    def setUp(self):
        self.outdir = env.SCRATCH / "selftest"
        shutil.rmtree(self.outdir, ignore_errors=True)
        self.outdir.mkdir(parents=True)
        argv = ("qubit-fidelity", "--p", "0.8", "--r", "0.3", "--grid", "6")
        self.ops = [workloads.Op("qubit-fidelity", argv, "f.csv", items=36)]

    def tearDown(self):
        shutil.rmtree(self.outdir, ignore_errors=True)

    def _corrupt(self):
        path = self.outdir / "f.csv"
        lines = path.read_text().split("\n")
        cells = lines[1].split(",")
        cells[2] = repr(float(cells[2]) + 1e-6)
        lines[1] = ",".join(cells)
        path.write_text("\n".join(lines))

    def _run(self, recorded):
        ledger = run.Ledger(self.ops, self.outdir, recorded)
        for corrupt in (False, True, False):
            calls, _ = workloads.run_round(self.ops, self.outdir)
            if corrupt:
                self._corrupt()
            ledger.absorb(calls)
        return ledger.check(seed=5)

    def test_corrupted_csv_counts_as_failed(self):
        attempted, failed, reasons = self._run(recorded=None)
        self.assertEqual((attempted, failed), (3, 1))
        self.assertIn("second route", reasons[0])

    def test_digest_mismatch_counts_as_failed(self):
        calls, _ = workloads.run_round(self.ops, self.outdir)
        good = outputs.digest16(outputs.output_bytes(self.ops[0], calls[0], self.outdir))
        attempted, failed, reasons = self._run(recorded=[good])
        self.assertEqual((attempted, failed), (3, 1))
        self.assertIn("differs from recorded", reasons[0])


class Contract(unittest.TestCase):
    def test_benchmark_json_lists_the_printed_metrics(self):
        spec = json.loads((env.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual([m["name"] for m in spec["per_layer"]], list(run.per_layer_units()))
        self.assertEqual([m["unit"] for m in spec["per_layer"]],
                         list(run.per_layer_units().values()))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
