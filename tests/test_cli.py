import argparse
import contextlib
import hashlib
import inspect
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import decoshield
from decoshield import cli
from decoshield.channels import GadParams
from decoshield.checks import CHECKS
from decoshield.cli import entry
from decoshield.entangle import (
    EntangledInput,
    concurrence_lambda2,
    measured_coefficients,
    optimal_reversal,
    protected_state,
)
from decoshield.qubit import average_fidelity_six, protect_equatorial, qkd_error_rate


def fmt(value):
    return format(value, ".12g")


def test_stdout_output(capsys):
    code = entry(
        ["qubit-fidelity", "--p", "0.8", "--r", "0.3", "--grid", "2", "--out", "-"]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "m,n,fidelity,success_prob"
    assert len(lines) == 5


def scalar_csv(header, rows):
    """CSV bytes built point by point, without the CLI's writer."""
    lines = [",".join(header)] + [",".join(fmt(v) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


def entangle_rows(inp, ch1, ch2, ms):
    rows = []
    for m in ms.tolist():
        coeffs = measured_coefficients(inp, ch1, ch2, m, 1.0)
        n1, n2 = optimal_reversal(coeffs)
        lam2 = concurrence_lambda2(coeffs, n1, n2)
        _, success = protected_state(inp, ch1, ch2, m, 1.0, n1, n2)
        rows.append((m, n1, n2, lam2, max(0.0, lam2), success))
    return rows


def test_output_is_byte_stable(tmp_path, monkeypatch, capsys):
    # every sweep's bytes equal rows built from scalar library calls
    params = GadParams(0.7, 0.4)
    ms, ns = np.linspace(0.05, 3.5, 23).tolist(), np.linspace(0.1, 2.7, 19).tolist()
    grid = [(m, n) for m in ms for n in ns]
    small = [(m, n) for m in np.linspace(0.25, 1.0, 4).tolist()
             for n in np.linspace(0.25, 1.0, 4).tolist()]
    qubit = ["--p", "0.7", "--r", "0.4"]
    ranges = ["--m-range", "0.05:3.5:23", "--n-range", "0.1:2.7:19"]
    pair = ["--p1", "0.9", "--r1", "0.5", "--p2", "0.95", "--r2", "0.3"]
    ch1, ch2 = GadParams(0.9, 0.5), GadParams(0.95, 0.3)
    cases = [
        (
            ["qubit-fidelity", *qubit, *ranges],
            ("m", "n", "fidelity", "success_prob"),
            [(m, n, res.fidelity, res.success_prob)
             for m, n in grid for res in [protect_equatorial(params, m, n)]],
        ),
        (
            ["qubit-average", *qubit, *ranges],
            ("m", "n", "f0", "f1", "fe", "favg"),
            [(m, n, rep.f0, rep.f1, rep.fe, rep.favg)
             for m, n in grid for rep in [average_fidelity_six(params, m, n)]],
        ),
        (
            ["qkd-error", *qubit, "--grid", "4"],
            ("m", "n", "error_rate"),
            [(m, n, qkd_error_rate(params, m, n)) for m, n in small],
        ),
        (
            ["entangle", *pair],
            ("m", "n1", "n2", "lambda2", "concurrence", "success_prob"),
            entangle_rows(EntangledInput.from_alpha_sq(0.5), ch1, ch2,
                          np.linspace(0.0, 1.0, 200)),
        ),
        (
            ["entangle", *pair, "--sweep-m", "0:5:3001", "--alpha-sq", "0.8"],
            ("m", "n1", "n2", "lambda2", "concurrence", "success_prob"),
            entangle_rows(EntangledInput.from_alpha_sq(0.8), ch1, ch2,
                          np.linspace(0.0, 5.0, 3001)),
        ),
    ]
    # the writer's edge shapes: one row per block, where every column but
    # the last is constant in its block; one block; blocks that are all the
    # same, which leave no value to format per row
    average = ("m", "n", "f0", "f1", "fe", "favg")
    cases += [
        (
            ["qubit-average", *qubit, "--m-range", "0.05:3.5:23", "--n-range", "0.7:0.7:1"],
            average, [(m, 0.7, *vars(average_fidelity_six(params, m, 0.7)).values())
                      for m in ms],
        ),
        (
            ["qubit-fidelity", *qubit, "--m-range", "0.6:0.6:1", "--n-range", "0.1:2.7:19"],
            ("m", "n", "fidelity", "success_prob"),
            [(0.6, n, res.fidelity, res.success_prob)
             for n in ns for res in [protect_equatorial(params, 0.6, n)]],
        ),
        (
            ["qubit-average", *qubit, "--m-range", "0.6:0.6:3", "--n-range", "0.1:2.7:19"],
            average, [(0.6, n, *vars(average_fidelity_six(params, 0.6, n)).values())
                      for _ in range(3) for n in ns],
        ),
    ]
    for argv, header, rows in cases:
        out = tmp_path / "out.csv"
        assert entry([*argv, "--out", str(out)]) == 0
        assert out.read_bytes() == scalar_csv(header, rows), argv
    # stdout takes the same bytes
    argv, header, rows = cases[2]
    assert entry([*argv, "--out", "-"]) == 0
    assert capsys.readouterr().out.encode() == scalar_csv(header, rows)
    # writes of at most 5 rows split each block of the two grids
    monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", 5)
    for argv, header, rows in cases[:2]:
        writes = []
        with contextlib.redirect_stdout(SimpleNamespace(write=writes.append)):
            assert entry([*argv, "--out", "-"]) == 0
        assert "".join(writes).encode() == scalar_csv(header, rows), argv
        assert max(text.count("\n") for text in writes) == 5, argv
    # blocks are compared bit for bit: -0.0 is not taken for 0.0
    cli._write_csv(str(out), ("a", "b"), (np.ones((2, 2)), np.array([[0.0, 1.0], [-0.0, 1.0]])))
    assert out.read_bytes() == b"a,b\n1,0\n1,1\n1,-0\n1,1\n"
    # the m = 0 row of the default entangle sweep is the fully collapsed
    # limit: no coherence survives, and the concurrence prints as 0
    m, _, _, lam2, concurrence, _ = cases[3][2][0]
    assert m == 0.0 and lam2 < 0.0 and fmt(concurrence) == "0"


def test_one_row_blocks_share_writes(monkeypatch):
    # a one-step --n-range makes blocks of one row: they are written whole,
    # as many to a write as CSV_CHUNK_ROWS allows
    params, ms = GadParams(0.7, 0.4), np.linspace(0.05, 3.5, 300).tolist()
    argv = ["qubit-fidelity", "--p", "0.7", "--r", "0.4", "--m-range", "0.05:3.5:300",
            "--n-range", "0.7:0.7:1", "--out", "-"]
    want = scalar_csv(("m", "n", "fidelity", "success_prob"),
                      [(m, 0.7, res.fidelity, res.success_prob)
                       for m in ms for res in [protect_equatorial(params, m, 0.7)]])
    for chunk in (cli.CSV_CHUNK_ROWS, 7):
        monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", chunk)
        writes = []
        with contextlib.redirect_stdout(SimpleNamespace(write=writes.append)):
            assert entry(argv) == 0
        assert "".join(writes).encode() == want
        assert len(writes) <= math.ceil(300 / chunk) + 1
        assert max(text.count("\n") for text in writes) <= chunk


def parse_report(text):
    report = {}
    for line in text.strip().splitlines():
        key, value = line.split(" = ", 1)
        report[key] = value
    return report


def test_optimal_single_qubit(capsys):
    assert entry(["optimal", "--p", "0.8", "--r", "0.3"]) == 0
    report = parse_report(capsys.readouterr().out)
    assert float(report["m_opt"]) == pytest.approx(0.7456990116859171, abs=1e-15)
    assert float(report["n_opt"]) == pytest.approx(0.6705118179915145, abs=1e-15)
    assert float(report["fidelity_max"]) == pytest.approx(0.9334029602017091, abs=1e-15)
    assert float(report["favg_max"]) == pytest.approx(0.9141607240755422, abs=1e-15)
    assert float(report["qkd_error_min"]) == pytest.approx(
        1.0 - 0.9334029602017091, abs=1e-15
    )
    assert float(report["success_prob"]) == pytest.approx(0.48261093218230866, abs=1e-15)
    assert report["projective"] == "False"
    # p = 1: the projective limit, where every six-state fidelity reaches 1
    assert entry(["optimal", "--p", "1", "--r", "0.6"]) == 0
    report = parse_report(capsys.readouterr().out)
    assert report["favg_max"] == "1.0" and report["success_prob"] == "0.0"
    assert report["projective"] == "True"


def test_optimal_two_qubit(capsys):
    assert entry(
        ["optimal", "--p1", "0.9", "--r1", "0.5", "--p2", "0.95", "--r2", "0.3"]
    ) == 0
    report = parse_report(capsys.readouterr().out)
    assert float(report["lambda1"]) == pytest.approx(0.32851863987147606, abs=1e-15)
    assert float(report["m_opt"]) == pytest.approx(0.34345808848291176, abs=1e-15)
    assert float(report["n1_opt"]) == pytest.approx(0.5036155644446407, abs=1e-15)
    assert float(report["n2_opt"]) == pytest.approx(0.4421086912138565, abs=1e-15)
    assert float(report["lambda2_max"]) == pytest.approx(0.5299918639561245, abs=1e-15)
    assert float(report["success_prob"]) == pytest.approx(0.06037974781746659, abs=1e-15)
    assert report["degenerate"] == "None"
    # a channel that resets its qubit: no entanglement survives, at any strength
    assert entry(["optimal", "--p1", "0", "--r1", "1", "--p2", "0.3", "--r2", "0.4"]) == 0
    report = parse_report(capsys.readouterr().out)
    assert report["lambda2_max"] == "0.0"
    assert report["degenerate"] == "'projective-limit'"
    # lambda1 of the Bell input rounds one ulp above 1; a concurrence stays in [0, 1]
    for r in ("0", "1e-17"):
        assert entry(["optimal", "--p1", "0.3", "--r1", r, "--p2", "0.3", "--r2", r]) == 0
        report = parse_report(capsys.readouterr().out)
        assert report["concurrence_unprotected"] == report["concurrence_protected"] == "1.0"


def test_optimal_mode_selection_is_exclusive(capsys):
    assert entry(["optimal"]) == 2
    assert entry(["optimal", "--p", "0.8", "--r", "0.3", "--p1", "0.9"]) == 2
    assert entry(["optimal", "--p", "0.8"]) == 2
    assert entry(["optimal", "--p1", "0.9", "--r1", "0.5"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_config_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# defaults for the worked example\np = 0.8\nr = 0.3\n\n")
    assert entry(["optimal", "--config", str(cfg)]) == 0
    report = parse_report(capsys.readouterr().out)
    assert float(report["m_opt"]) == pytest.approx(0.7456990116859171, abs=1e-15)


def test_explicit_flags_beat_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p = 0.8\nr = 0.9\n")
    assert entry(["optimal", "--config", str(cfg), "--r", "0.3"]) == 0
    report = parse_report(capsys.readouterr().out)
    assert float(report["fidelity_max"]) == pytest.approx(0.9334029602017091, abs=1e-15)


def test_config_with_underscore_keys(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha_sq = 0.5\np1 = 0.9\nr1 = 0.5\np2 = 0.95\nr2 = 0.3\n")
    assert entry(["optimal", "--config=" + str(cfg)]) == 0
    report = parse_report(capsys.readouterr().out)
    assert float(report["lambda2_max"]) == pytest.approx(0.5299918639561245, abs=1e-15)


def test_config_errors(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("p =\n")
    assert entry(["optimal", "--config", str(bad)]) == 2
    assert capsys.readouterr().err == f"error: {bad}:1: empty key or value\n"
    bad.write_text("p = 0.8\nno equals sign here\n")
    assert entry(["optimal", "--config", str(bad)]) == 2
    assert "bad.cfg:2" in capsys.readouterr().err
    bad.write_text("p = 0.8\nr = 0.3\nbogus = 1\n")
    assert entry(["optimal", "--config", str(bad)]) == 2
    assert f"{bad}:3: unknown key 'bogus'" in capsys.readouterr().err
    # a prefix of a flag is not that flag
    bad.write_text("alpha = 0.2\np1 = 0.9\nr1 = 0.5\np2 = 0.95\nr2 = 0.3\n")
    assert entry(["optimal", "--config", str(bad)]) == 2
    assert f"{bad}:1: unknown key 'alpha'" in capsys.readouterr().err
    # verify reads no keys, so it takes no --config
    bad.write_text("")
    with pytest.raises(SystemExit) as exc:
        entry(["verify", "--config", str(bad)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --config" in capsys.readouterr().err
    # only a leading subcommand that declares --config reads the file, from
    # the tokens before --, and none when help is asked for; a file read here
    # would answer with its own error and exit 2 without a SystemExit
    _, commands = cli._build_parser()
    assert {name for name, sp in commands.items() if "--config" in sp.format_usage()} == (
        cli._CONFIG_COMMANDS)
    broken, missing = str(tmp_path / "broken.cfg"), str(tmp_path / "missing.cfg")
    Path(broken).write_text("p 0.8\n")
    for argv, code, stream, text in (
        (["optimal", "-h", "--config", missing], 0, "out", "usage: decoshield optimal"),
        (["optimal", "--config", broken, "--help"], 0, "out", "usage: decoshield optimal"),
        (["--config", broken, "optimal"], 2, "err", f"invalid choice: '{broken}'"),
        (["verify", "--config", broken], 2, "err", f"unrecognized arguments: --config {broken}"),
        (["optimal", "--", "--config", broken], 2, "err", "unrecognized arguments: --"),
    ):
        with pytest.raises(SystemExit) as exc:
            entry(argv)
        assert exc.value.code == code
        assert text in getattr(capsys.readouterr(), stream), argv
    assert entry(["optimal", "--config", broken, "--", "extra"]) == 2
    assert capsys.readouterr().err == f"error: {broken}:1: expected key=value, got 'p 0.8'\n"


def test_os_errors_name_their_flag(tmp_path, capsys):
    missing = tmp_path / "missing.cfg"
    assert entry(["optimal", "--config", str(missing)]) == 2
    assert capsys.readouterr() == (
        "", f"error: --config: [Errno 2] No such file or directory: '{missing}'\n")
    (tmp_path / "latin.cfg").write_bytes(b"p = 0.8\xff\n")
    assert entry(["optimal", "--config", str(tmp_path / "latin.cfg")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --config: ") and "can't decode" in err
    nowhere = tmp_path / "absent" / "x.csv"
    assert entry(["qubit-fidelity", "--p", "0.8", "--r", "0.3", "--out", str(nowhere)]) == 2
    assert capsys.readouterr() == (
        "", f"error: --out: [Errno 2] No such file or directory: '{nowhere}'\n")


def test_out_of_range_parameters(capsys):
    assert entry(["qubit-fidelity", "--p", "1.5", "--r", "0.3"]) == 2
    assert "--p/--r" in capsys.readouterr().err
    assert entry(["entangle", "--p1", "0.9", "--r1", "0.5",
                  "--p2", "0.95", "--r2", "0.3", "--alpha-sq", "1.5"]) == 2
    assert "error: --alpha-sq: alpha_sq must lie in [0, 1]" in capsys.readouterr().err
    # the one-qubit query reads no --alpha-sq, yet refuses a bad one
    for alpha_sq in ("7", "nan"):
        assert entry(["optimal", "--p", "0.8", "--r", "0.3", "--alpha-sq", alpha_sq]) == 2
        assert capsys.readouterr().err == (
            f"error: --alpha-sq: alpha_sq must lie in [0, 1], got {float(alpha_sq)}\n"
        )
    assert entry(["qubit-fidelity", "--p", "0.8", "--r", "0.3", "--grid", "1"]) == 2
    assert capsys.readouterr().err == "error: --grid: need at least 2 points, got 1\n"


def test_zero_strengths_rejected_in_qubit_sweeps(capsys):
    assert entry(
        ["qubit-fidelity", "--p", "0.8", "--r", "0.3", "--m-range", "0:1:5"]
    ) == 2
    assert "--m-range" in capsys.readouterr().err


def test_entangle_reports_dead_sweep_points(monkeypatch, capsys):
    # |11> input killed by a zero-strength pre-measurement cannot be
    # post-selected, and the failing m is named
    assert entry(
        ["entangle", "--p1", "0.9", "--r1", "0.5", "--p2", "0.95", "--r2", "0.3",
         "--alpha-sq", "0", "--sweep-m", "0:1:3"]
    ) == 2
    assert "--sweep-m: at m=0" in capsys.readouterr().err
    # a failure past the first point names that point: here 1/m^2 pushes
    # the success probability below the cutoff from the second m on
    assert entry(
        ["entangle", "--p1", "0.9", "--r1", "0.5", "--p2", "0.95", "--r2", "0.3",
         "--alpha-sq", "1", "--sweep-m", "0:1e8:5"]
    ) == 2
    assert capsys.readouterr().err == (
        "error: --sweep-m: at m=2.5e+07: success probability "
        "4.800000000000003e-18 below cutoff\n"
    )
    # an array call that fails where every lone point passes is reported
    # with the array call's own message
    lone_only = decoshield.entangle.optimized_protection

    def refuse_arrays(inp, ch1, ch2, m):
        if isinstance(m, np.ndarray):
            raise ValueError("array call refused")
        return lone_only(inp, ch1, ch2, m)

    monkeypatch.setattr(decoshield.entangle, "optimized_protection", refuse_arrays)
    assert entry(
        ["entangle", "--p1", "0.9", "--r1", "0.5", "--p2", "0.95", "--r2", "0.3",
         "--sweep-m", "0.5:1:3"]
    ) == 2
    assert capsys.readouterr() == ("", "error: --sweep-m: array call refused\n")


def test_library_errors_exit_with_usage(capsys):
    # a library ValueError, PostSelectionError included, is one error line
    # naming the flag: no traceback, no rows
    still = ["--p", "1", "--r", "0", "--m-range", "1e-8:1e-8:1", "--n-range", "1e-8:1e-8:1"]
    huge = ["--p", "0.8", "--r", "0.3", "--m-range", "1:1e160:2"]
    overflow = ["--p", "0.8", "--r", "0.3", "--m-range", "1e100:1e100:1",
                "--n-range", "1e100:1e100:1"]
    pair = ["--p1", "0.9", "--r1", "0.5", "--p2", "0.95", "--r2", "0.3"]
    cases = [
        (["qubit-fidelity", *still], "--m-range/--n-range: success probability"),
        (["qkd-error", *still], "--m-range/--n-range: success probability"),
        (["optimal", *pair, "--alpha-sq", "1e-300"], "--alpha-sq: degenerate coefficients"),
        (["optimal", "--p", "0.9999999999999999", "--r", "1"], "--p/--r: success probability"),
        (["qubit-fidelity", *huge], "--m-range: strengths must be finite"),
        (["qubit-average", *huge], "--m-range: strengths must be finite"),
        (["entangle", *pair, "--sweep-m", "1:1e160:2"], "--sweep-m: at m=1e+160: m1 must be"),
        (["entangle", *pair, "--sweep-m", "1:1e100:3"],
         "--sweep-m: at m=5e+99: strengths m = 5e+99 overflow"),
        (["qubit-fidelity", *overflow], "--m-range/--n-range: strengths m, n = 1e+100, 1e+100"),
        (["qubit-average", *overflow], "--m-range/--n-range: strengths m, n = 1e+100, 1e+100"),
        (["qkd-error", *overflow], "--m-range/--n-range: strengths m, n = 1e+100, 1e+100"),
        (["optimal", "--p", "1e-200", "--r", "1"], "--p/--r: p = 1e-200 with r = 1.0"),
    ]
    for argv, start in cases:
        assert entry(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {start}"), (argv, err)
        assert err.count("\n") == 1, err
    # both sweeps name the joint probability of the two outcomes, not the
    # reversal stage's 2e-16, from the one evaluation they share
    named = []
    for command in ("qubit-fidelity", "qkd-error"):
        assert entry([command, *still]) == 2
        named.append(capsys.readouterr().err.split()[4])
    assert named[0] == named[1], named


def test_benchmark_sweep_keeps_its_recorded_digest(capsys):
    # the kraus workload's first operation at seed 0: its bytes hash to the
    # digest the benchmark checks them against
    recorded = json.loads((Path(__file__).parents[1] / "bench" / "digests.json").read_text())
    argv = ["qkd-error", "--p", "0.510639462230231", "--r", "0.9039312375831198", "--grid", "60"]
    assert entry([*argv, "--out", "-"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16]
    assert digest == recorded["digests"]["kraus"][0]


def test_benchmark_queries_keep_their_recorded_digests(capsys):
    # two of the queries workload's operations at seed 0, a pair query and a
    # one-qubit one: their printouts hash to the digests the benchmark holds
    recorded = json.loads((Path(__file__).parents[1] / "bench" / "digests.json").read_text())
    queries = {
        0: ["--p1", "0.46910499210958806", "--r1", "0.7735555340609571", "--p2",
            "0.9103982352557479", "--r2", "0.560429567096834", "--alpha-sq", "0.46029408969787067"],
        2: ["--p", "0.27185381114297263", "--r", "0.9008566317062335"],
    }
    for op, flags in queries.items():
        assert entry(["optimal", *flags]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16]
        assert digest == recorded["digests"]["queries"][op], op


# channel parameters and input weights with their ends drawn explicitly, and
# tiny ones; strength ranges anywhere in the positive floats, a few steps each
weights = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(5e-324, 1e-8), st.floats(0.0, 1.0))
ends = st.one_of(st.floats(5e-324, 1e300), st.floats(1e-3, 5.0))


def strength_range(low):
    return st.tuples(low, ends, st.integers(1, 4)).map(
        lambda t: f"{min(t[:2])!r}:{max(t[:2])!r}:{t[2]}")


@st.composite
def sweeps(draw):
    kind = draw(st.sampled_from(["qubit-fidelity", "qubit-average", "qkd-error", "entangle"]))
    if kind == "entangle":
        flags = ("--p1", "--r1", "--p2", "--r2", "--alpha-sq")
        argv = [item for flag in flags for item in (flag, repr(draw(weights)))]
        return [kind, *argv, "--sweep-m", draw(strength_range(st.just(0.0) | ends))]
    return [kind, "--p", repr(draw(weights)), "--r", repr(draw(weights)),
            "--m-range", draw(strength_range(ends)), "--n-range", draw(strength_range(ends))]


# each printed column's physical range; strengths need only be finite
BOUNDS = {"error_rate": (0.0, 0.5), "lambda2": (-math.inf, math.inf)}
BOUNDS.update(dict.fromkeys(("m", "n", "n1", "n2"), (0.0, math.inf)))
BOUNDS.update(dict.fromkeys(
    ("fidelity", "success_prob", "f0", "f1", "fe", "favg", "concurrence"), (0.0, 1.0)))


@settings(max_examples=100)
@given(sweeps())
@example(["qkd-error", "--p", "1e-17", "--r", "0.0", "--m-range", "0.01:0.1:1",
          "--n-range", "0.01:0.02:2"])
def test_sweeps_print_only_physical_values(argv):
    # a sweep either prints finite values, each in its column's range, or
    # refuses with one error line and no rows
    code, out, err = capture([*argv, "--out", "-"])
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
        return
    assert code == 0 and err == "", (code, err)
    header, *rows = out.splitlines()
    bounds = [BOUNDS[name] for name in header.split(",")]
    for row in rows:
        for (lo, hi), text in zip(bounds, row.split(","), strict=True):
            value = float(text)
            assert math.isfinite(value) and lo <= value <= hi, (argv, header, row)


def test_malformed_range_exits_with_usage(capsys):
    for bad in ("0.1-1-5", "1:0:5", "0.1:1:0", "nan:1:2", "1:inf:2", "a:b:3"):
        with pytest.raises(SystemExit) as exc:
            entry(["qubit-fidelity", "--p", "0.8", "--r", "0.3", "--m-range", bad])
        assert exc.value.code == 2
        assert "--m-range" in capsys.readouterr().err


def test_unknown_subcommand_exits_with_usage():
    with pytest.raises(SystemExit) as exc:
        entry(["melt"])
    assert exc.value.code == 2


def test_verify_reports_failures(monkeypatch, capsys):
    failing = (("always-fails", lambda rng, count: (False, "gap 1.00e+00 (tol 1e-12)"), 1),)
    monkeypatch.setattr(decoshield.checks, "CHECKS", failing)
    assert entry(["verify"]) == 1
    assert capsys.readouterr().out == (
        "[FAIL] always-fails: gap 1.00e+00 (tol 1e-12)\n1 check(s) failed\n"
    )


def test_verify_stdout_matches_record(capsys):
    # every measured gap, count and scan value that verify prints, to the
    # byte: a change of route or batching that moves a printed digit fails
    record = Path(__file__).with_name("data") / "verify_stdout.txt"
    assert entry(["verify"]) == 0
    assert capsys.readouterr().out.encode() == record.read_bytes()
    # the record itself: one passing line per check, in CHECKS order
    lines = record.read_text().splitlines()
    assert lines[-1] == "all checks passed"
    assert [line.split(":", 1)[0] for line in lines[:-1]] == [
        f"[ok] {name}" for name, _, _ in CHECKS
    ]


def test_shared_parser_holds_no_state(tmp_path, capsys):
    # entry() builds its parser once per process: in either order, every
    # call gives the same exit code, stdout and stderr
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("p = 0.8\nr = 0.3\nbogus = 1\n")
    calls = [
        ["optimal", "--p", "0.5"],
        ["optimal", "--config", str(cfg)],
        ["optimal", "-h"],
        ["optimal", "--p", "0.8", "--r", "0.3"],
        ["optimal", "--p1", "0.9", "--r1", "0.5", "--p2", "0.95", "--r2", "0.3"],
        ["qubit-fidelity", "--p", "0.8", "--r", "0.3", "--grid", "3", "--out", "-"],
        ["entangle", "--p1", "0.9", "--r1", "0.5", "--p2", "0.95", "--r2", "0.3", "--out", "-"],
    ]

    def run(argv):
        try:
            code = entry(argv)
        except SystemExit as exc:
            code = exc.code
        return (code, *capsys.readouterr())

    forward = [run(argv) for argv in calls]
    backward = [run(argv) for argv in reversed(calls)][::-1]
    assert forward == backward
    assert [code for code, _, _ in forward] == [2, 2, 0, 0, 0, 0, 0]


def test_parser_is_built_once_and_lazily(monkeypatch):
    argv = ["optimal", "--p", "0.8", "--r", "0.3"]
    assert entry(argv) == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert entry(argv) == 0
    assert built == []
    # nor does importing the package build one, in a fresh interpreter
    count = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "argparse.ArgumentParser.__init__ = lambda *a, **k: built.append(init(*a, **k))\n"
        "import decoshield, decoshield.cli\n"
        "print(len(built))\n"
    )
    assert fresh_interpreter(count) == "0\n"


def fresh_interpreter(script):
    """stdout of script, run by a new interpreter that imports this package."""
    env = {**os.environ, "PYTHONPATH": str(Path(decoshield.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout


def capture(argv):
    """[exit code or SystemExit, stdout, stderr] of one entry() call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = entry(argv)
        except SystemExit as exc:
            code = f"SystemExit({exc.code})"
    return [code, out.getvalue(), err.getvalue()]


# command lines that answer fast: each subcommand with a valid query or
# none, then flags of every subcommand with valid and invalid values, and,
# but for optimal, a token that stops the call before its handler; config
# files (by name, in their folder) with good keys, a bad key, a line with no
# `=`, and none at all
BASES = ([], ["--p", "0.8", "--r", "0.3"], ["--config", "good.cfg"],
         ["--p1", "0.9", "--r1", "0.5", "--p2", "0.95", "--r2", "0.3"])
SUBCOMMANDS = ("qubit-fidelity", "qubit-average", "qkd-error", "entangle", "optimal", "verify")
FLAGS = ("--p", "--r", "--p1", "--r1", "--p2", "--r2", "--alpha-sq", "--grid", "--m-range",
         "--n-range", "--sweep-m", "--out", "--config", "--bogus", "-x")
VALUES = ("0.5", "0.31", "1e-3", "0", "1.5", "-0.5", "nan", "abc", "", "0.1:1:3", "1:0:5", "7",
          "good.cfg", "bad.cfg", "broken.cfg", "missing.cfg")
STOPS = ("-h", "--help", "--bogus", "--", "extra", "--grid=x", "--m-range", "--p1")


@st.composite
def command_lines(draw):
    lead = draw(st.just("optimal") | st.sampled_from([*SUBCOMMANDS, None, "-h", "--", "melt"]))
    pairs = draw(st.lists(st.tuples(st.sampled_from(FLAGS), st.sampled_from(VALUES),
                                    st.booleans()), max_size=3))
    tokens = [*draw(st.sampled_from(BASES)), *(
        token for flag, value, joined in pairs
        for token in ([f"{flag}={value}"] if joined else [flag, value]))]
    if lead != "optimal":
        tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from(STOPS)))
    return tokens if lead is None else [lead, *tokens]


@pytest.fixture(scope="module")
def config_folder(tmp_path_factory):
    folder = tmp_path_factory.mktemp("configs")
    (folder / "good.cfg").write_text("p = 0.8\nr = 0.3\n")
    (folder / "bad.cfg").write_text("p = 0.8\nr = 0.3\nbogus = 1\n")
    (folder / "broken.cfg").write_text("p 0.8\n")
    return folder


def parsed(argv):
    """capture(argv), and the namespace and extras its outermost parse gave."""
    results = []
    parse = argparse.ArgumentParser.parse_known_args

    def spy(self, *args, **kwargs):
        results.append(parse(self, *args, **kwargs))
        return results[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(argparse.ArgumentParser, "parse_known_args", spy)
        return [*capture(argv), repr(results[-1]) if results else None]


@settings(max_examples=150)
@given(command_lines())
@example(["optimal", "-h"])
@example(["optimal", "--config", "bad.cfg", "--p", "0.5"])
@example(["optimal", "--", "--p", "0.5", "--r", "0.5"])
@example(["optimal", "--p", "0.5", "--r", "0.5", "--bogus"])
@example(["qubit-fidelity", "--r", "0.3"])
@example([])
def test_subcommand_parser_answers_as_the_top_level_parser(config_folder, argv):
    # entry() hands a call led by a subcommand to that subcommand's parser;
    # with no subcommand known to entry(), the top-level parser takes every
    # call and hands it on: both give the same namespace, extras and bytes
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(config_folder)
        direct = parsed(argv)
        parser, _ = cli._build_parser()
        mp.setattr(cli, "_build_parser", lambda: (parser, {}))
        assert parsed(argv) == direct


ONE_SHOT = (
    ["optimal", "--p", "0.5", "--r", "0.5"],
    ["optimal", "--p1", "0.9", "--r1", "0.5", "--p2", "0.95", "--r2", "0.3"],
    ["--help"],
    ["optimal", "--p", "0.5"],
    ["optimal", "--p", "1.5", "--r", "0.5"],
)


def test_one_shot_calls_never_import_numpy(monkeypatch):
    # both optimal modes, --help and two usage errors answer on Python floats
    # alone, with the bytes they print here, where numpy is loaded
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps --help to this width
    script = (
        "import contextlib, io, json, sys\n"
        "from decoshield.cli import entry\n"
        f"{inspect.getsource(capture)}\n"
        f"results = [capture(argv) for argv in {ONE_SHOT!r}]\n"
        "print(json.dumps(['numpy' in sys.modules, results]))\n"
    )
    loaded, results = json.loads(fresh_interpreter(script))
    assert not loaded
    assert results == [capture(argv) for argv in ONE_SHOT]
    assert [code for code, _, _ in results] == [0, 0, "SystemExit(0)", 2, 2]
    # the first sweep loads it
    script = (
        "import os, sys\n"
        "from decoshield.cli import entry\n"
        "before = 'numpy' in sys.modules\n"
        "entry(['qubit-fidelity', '--p', '0.8', '--r', '0.3', '--out', os.devnull])\n"
        "print(before, 'numpy' in sys.modules)\n"
    )
    assert fresh_interpreter(script) == "False True\n"


def test_one_shot_calls_import_only_what_they_run():
    # the package root loads no submodule; a one-qubit query leaves out the
    # pair, search and battery modules, a pair query the last two
    script = (
        "import contextlib, io, json, sys\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('decoshield.'))\n"
        "import decoshield\n"
        "stages = [loaded()]\n"
        "from decoshield.cli import entry\n"
        f"for argv in {ONE_SHOT[:2]!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        entry(argv)\n"
        "    stages.append(loaded())\n"
        "names = dir(decoshield)\n"
        "scope = {}\n"
        "exec('from decoshield import *', scope)\n"
        "print(json.dumps([stages, names, sorted(scope.keys() - {'__builtins__'})]))\n"
    )
    stages, names, star = json.loads(fresh_interpreter(script))
    one_qubit = ["decoshield._elementwise", "decoshield.channels", "decoshield.cli",
                 "decoshield.linalg", "decoshield.qubit", "decoshield.weakmeas"]
    assert stages == [[], one_qubit, sorted([*one_qubit, "decoshield.entangle"])]
    assert len(decoshield.__all__) == 42
    assert names == sorted(names) and set(decoshield.__all__) <= set(names)
    assert star == decoshield.__all__
    with pytest.raises(AttributeError, match="no attribute 'cli_entry'"):
        decoshield.cli_entry  # noqa: B018
