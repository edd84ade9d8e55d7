import argparse
import contextlib
import hashlib
import inspect
import io
import json
import math
import os
import re
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


def ok(argv, out):  # a call that prints out and exits 0
    return argv, 0, out, ""


def refused(argv, message):  # one error line that names the flag: exit 2, no rows
    return argv, 2, "", f"error: {message}\n"


def usage(argv, last):  # an argparse exit: the usage block, wrapped by COLUMNS, then last
    return argv, "SystemExit(2)", "", last


PAIR = "--p1 0.9 --r1 0.5 --p2 0.95 --r2 0.3"
ONE_QUBIT = (  # the worked example, also in README
    "m_opt = 0.7456990116859171\nn_opt = 0.6705118179915145\nfidelity_max = 0.9334029602017091\n"
    "fidelity_baseline = 0.9183300132670378\nfavg_max = 0.9141607240755422\n"
    "qkd_error_min = 0.0665970397982909\nsuccess_prob = 0.48261093218230866\nprojective = False\n")
PAIR_OPTIMUM = (  # also in README
    "lambda1 = 0.32851863987147606\nconcurrence_unprotected = 0.32851863987147606\n"
    "m_opt = 0.34345808848291176\nn1_opt = 0.5036155644446407\nn2_opt = 0.4421086912138565\n"
    "lambda2_max = 0.5299918639561245\nconcurrence_protected = 0.5299918639561245\n"
    "h = 0.11796345854433564\nalpha_sq_opt = 0.8944836187240573\n"
    "success_prob = 0.06037974781746659\ndegenerate = None\n")


# the pair printout where the optimum is the projective limit, by lambda1 and the concurrence
projective_limit = (
    "lambda1 = {0}\nconcurrence_unprotected = {1}\nm_opt = 0.0\nn1_opt = 0.0\nn2_opt = 0.0\n"
    "lambda2_max = {1}\nconcurrence_protected = {1}\nh = 0.0\nalpha_sq_opt = 1.0\n"
    "success_prob = 0.0\ndegenerate = 'projective-limit'\n").format
OPTIMAL_HELP = """\
usage: decoshield optimal [-h] [--p P] [--r R] [--p1 P1] [--r1 R1] [--p2 P2]
                          [--r2 R2] [--alpha-sq ALPHA_SQ] [--config CONFIG]

One qubit: --p/--r. Two qubits: --p1/--r1/--p2/--r2 [--alpha-sq]. Values are
printed at full precision, one key = value per line.

options:
  -h, --help           show this help message and exit
  --p P                one-qubit stationary weight
  --r R                one-qubit damping strength
  --p1 P1              qubit-1 stationary weight
  --r1 R1              qubit-1 damping strength
  --p2 P2              qubit-2 stationary weight
  --r2 R2              qubit-2 damping strength
  --alpha-sq ALPHA_SQ  |alpha|^2 (default 0.5)
  --config CONFIG      key=value defaults file; explicit flags win
"""
# config files, by name in config_folder; missing.cfg is absent
CONFIGS = {
    "good.cfg": b"# defaults for the worked example\np = 0.8\nr = 0.3\n\n",
    "override.cfg": b"p = 0.8\nr = 0.9\n", "empty.cfg": b"p =\n", "broken.cfg": b"p 0.8\n",
    "pair.cfg": b"alpha_sq = 0.5\np1 = 0.9\nr1 = 0.5\np2 = 0.95\nr2 = 0.3\n",
    "prefix.cfg": b"alpha = 0.2\np1 = 0.9\nr1 = 0.5\np2 = 0.95\nr2 = 0.3\n",
    "noequals.cfg": b"p = 0.8\nno equals sign here\n", "latin.cfg": b"p = 0.8\xff\n",
    "bad.cfg": b"p = 0.8\nr = 0.3\nbogus = 1\n",
}
STILL = "--p 1 --r 0 --m-range 1e-8:1e-8:1 --n-range 1e-8:1e-8:1"
invalid_choice = (r"decoshield: error: argument command: invalid choice: '{}' "
                  r"\(choose from .+\)").format  # argparse's list, quoted by its version's rule
positive = "strengths must be finite and positive with a finite nonzero square, got {}".format
void = "success probability {} below cutoff".format

# every answer of the CLI but a sweep's rows and verify: (command line, exit code or
# SystemExit, stdout, stderr), run in config_folder with COLUMNS=80; a text in full, or by an
# anchored regex where Python or argparse writes it; an argparse exit by its last line
ANSWERS = [
    ok("qubit-fidelity --p 0.8 --r 0.3 --grid 2 --out -",
       "m,n,fidelity,success_prob\n0.5,0.5,0.918330013267,0.25\n0.5,1,0.834664010614,0.625\n"
       "1,0.5,0.875183868401,0.5575\n1,1,0.918330013267,1\n"),
    # the optimum queries; at p = 1 the projective limit, every six-state fidelity 1; a
    # channel that resets its qubit keeps no entanglement; lambda1 of the Bell input
    # rounds one ulp above 1, and a concurrence stays in [0, 1]
    ok("optimal --p 0.8 --r 0.3", ONE_QUBIT),
    ok("optimal --p 1 --r 0.6",
       "m_opt = 0.0\nn_opt = 0.0\nfidelity_max = 1.0\nfidelity_baseline = 0.816227766016838\n"
       "favg_max = 1.0\nqkd_error_min = 0.0\nsuccess_prob = 0.0\nprojective = True\n"),
    ok(f"optimal {PAIR}", PAIR_OPTIMUM),
    ok("optimal --p1 0 --r1 1 --p2 0.3 --r2 0.4", projective_limit(0.0, 0.0)),
    *(ok(f"optimal --p1 0.3 --r1 {r} --p2 0.3 --r2 {r}", projective_limit(1.0000000000000002, 1.0))
      for r in ("0", "1e-17")),
    # one mode, whole
    *(refused(argv, "give either --p/--r (one qubit) or --p1/--r1/--p2/--r2")
      for argv in ("optimal", "optimal --p 0.8 --r 0.3 --p1 0.9")),
    refused("optimal --p 0.8", "--p and --r are both required for the one-qubit query"),
    refused("optimal --p1 0.9 --r1 0.5", "--p2 is required for the two-qubit query"),
    # a config file gives defaults, past comments and blank lines, by underscore keys; flags win
    ok("optimal --config good.cfg", ONE_QUBIT),
    ok("optimal --config override.cfg --r 0.3", ONE_QUBIT),
    ok("optimal --config=pair.cfg", PAIR_OPTIMUM),
    # a bad line is named by FILE:LINE; a prefix of a flag is not that flag
    refused("optimal --config empty.cfg", "empty.cfg:1: empty key or value"),
    refused("optimal --config noequals.cfg",
            "noequals.cfg:2: expected key=value, got 'no equals sign here'"),
    refused("optimal --config bad.cfg", "bad.cfg:3: unknown key 'bogus'"),
    refused("optimal --config prefix.cfg", "prefix.cfg:1: unknown key 'alpha'"),
    # only a leading subcommand declaring --config reads it, before --, and not for help
    usage("verify --config broken.cfg",
          "decoshield: error: unrecognized arguments: --config broken.cfg"),
    ("optimal -h --config missing.cfg", "SystemExit(0)", OPTIMAL_HELP, ""),
    ("optimal --config broken.cfg --help", "SystemExit(0)", OPTIMAL_HELP, ""),
    usage("--config broken.cfg optimal", re.compile(invalid_choice(r"broken\.cfg"))),
    usage("optimal --config",
          "decoshield optimal: error: argument --config: expected one argument"),
    usage("optimal -- --config broken.cfg",
          "decoshield: error: unrecognized arguments: -- --config broken.cfg"),
    refused("optimal --config broken.cfg -- extra",
            "broken.cfg:1: expected key=value, got 'p 0.8'"),
    # an OSError names its flag
    refused("optimal --config missing.cfg",
            "--config: [Errno 2] No such file or directory: 'missing.cfg'"),
    ("optimal --config latin.cfg", 2, "",
     re.compile(r"error: --config: '[\w-]+' codec can't decode byte 0xff in position 7: .+\n")),
    refused("qubit-fidelity --p 0.8 --r 0.3 --out absent/x.csv",
            "--out: [Errno 2] No such file or directory: 'absent/x.csv'"),
    # out-of-range values; the one-qubit query refuses an --alpha-sq it does not read
    refused("qubit-fidelity --p 1.5 --r 0.3", "--p/--r: p must be in [0, 1], got 1.5"),
    refused(f"entangle {PAIR} --alpha-sq 1.5",
            "--alpha-sq: alpha_sq must lie in [0, 1], got 1.5"),
    *(refused(f"optimal --p 0.8 --r 0.3 --alpha-sq {bad}",
              f"--alpha-sq: alpha_sq must lie in [0, 1], got {shown}")
      for bad, shown in (("7", "7.0"), ("nan", "nan"))),
    refused("qubit-fidelity --p 0.8 --r 0.3 --grid 1", "--grid: need at least 2 points, got 1"),
    refused("qubit-fidelity --p 0.8 --r 0.3 --m-range 0:1:5", "--m-range: " + positive(0.0)),
    # a dead sweep point names its m: an |11> input killed by m = 0, on the default sweep and
    # another; past the first point, 1/m^2 pushes the success probability below the cutoff
    *(refused(f"entangle {PAIR} --alpha-sq 0{sweep}",
              "--sweep-m: at m=0: degenerate coefficients, reversal optimum undefined")
      for sweep in ("", " --sweep-m 0:1:3")),
    refused(f"entangle {PAIR} --alpha-sq 1 --sweep-m 0:1e8:5",
            "--sweep-m: at m=2.5e+07: " + void(4.800000000000003e-18)),
    # a library ValueError, PostSelectionError included; both sweeps name the joint
    # probability of the two outcomes, not the reversal stage's 2e-16, from one evaluation
    refused(f"qubit-fidelity {STILL}", "--m-range/--n-range: " + void(1.0000000000000001e-16)),
    refused(f"qkd-error {STILL}", "--m-range/--n-range: " + void(1.0000000000000001e-16)),
    refused(f"optimal {PAIR} --alpha-sq 1e-300",
            "--alpha-sq: degenerate coefficients, reversal optimum undefined"),
    refused("optimal --p 0.9999999999999999 --r 1", "--p/--r: " + void(2.220446049250313e-16)),
    *(refused(f"{command} --p 0.8 --r 0.3 --m-range 1:1e160:2", "--m-range: " + positive(1e160))
      for command in ("qubit-fidelity", "qubit-average")),
    refused(f"entangle {PAIR} --sweep-m 1:1e160:2", "--sweep-m: at m=1e+160: m1 must be finite"
            " and non-negative with a finite square, got 1e+160"),
    refused(f"entangle {PAIR} --sweep-m 1:1e100:3",
            "--sweep-m: at m=5e+99: strengths m = 5e+99 overflow the float range"),
    *(refused(f"{command} --p 0.8 --r 0.3 --m-range 1e100:1e100:1 --n-range 1e100:1e100:1",
              "--m-range/--n-range: strengths m, n = 1e+100, 1e+100 overflow the float range")
      for command in ("qubit-fidelity", "qubit-average", "qkd-error")),
    refused("optimal --p 1e-200 --r 1",
            "--p/--r: p = 1e-200 with r = 1.0: optimal reversal strength overflows"),
    # argparse's own exits: a malformed range, an unknown subcommand
    *(usage(f"qubit-fidelity --p 0.8 --r 0.3 --m-range {bad}",
            f"decoshield qubit-fidelity: error: argument --m-range: {message}")
      for bad, message in (
          ("0.1-1-5", "expected LO:HI:STEPS, got '0.1-1-5'"),
          ("1:0:5", "need LO <= HI, got '1:0:5'"), ("0.1:1:0", "steps must be at least 1, got 0"),
          ("nan:1:2", "LO and HI must be finite, got 'nan:1:2'"),
          ("1:inf:2", "LO and HI must be finite, got '1:inf:2'"),
          ("a:b:3", "could not convert string to float: 'a'"))),
    usage("melt", re.compile(invalid_choice("melt"))),
]


@pytest.fixture
def in_config_folder(config_folder, monkeypatch):
    monkeypatch.chdir(config_folder)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps --help to this width


@pytest.mark.parametrize("argv, code, out, err", ANSWERS, ids=[row[0] for row in ANSWERS])
def test_answers(in_config_folder, argv, code, out, err):
    got_code, got_out, got_err = capture(argv.split())
    if code == "SystemExit(2)":
        block, got_err, end = got_err.rsplit("\n", 2)
        assert block.startswith("usage: decoshield") and end == "", block
    assert (got_code, got_out) == (code, out)
    assert err.fullmatch(got_err) if isinstance(err, re.Pattern) else got_err == err, got_err


def test_shared_parser_holds_no_state(in_config_folder):
    # entry() builds its parser once per process: run forward or backward,
    # every row gives the same exit code, stdout and stderr
    calls = [argv.split() for argv, *_ in ANSWERS]
    forward = [capture(argv) for argv in calls]
    assert forward == [capture(argv) for argv in reversed(calls)][::-1]
    assert [code for code, _, _ in forward] == [code for _, code, _, _ in ANSWERS]


def test_config_commands_are_those_that_declare_it():
    # entry() reads a config file before parsing only for a subcommand that declares
    # --config; for any other, the file's own error would come before argparse's
    _, commands = cli._build_parser()
    assert {name for name, sp in commands.items() if "--config" in sp.format_usage()} == (
        cli._CONFIG_COMMANDS)


def test_entangle_reports_dead_sweep_points(monkeypatch, capsys):
    # an array call failing where every lone point passes is reported by its own message
    lone_only = decoshield.entangle.optimized_protection

    def refuse_arrays(inp, ch1, ch2, m):
        if isinstance(m, np.ndarray):
            raise ValueError("array call refused")
        return lone_only(inp, ch1, ch2, m)

    monkeypatch.setattr(decoshield.entangle, "optimized_protection", refuse_arrays)
    assert entry(["entangle", *PAIR.split(), "--sweep-m", "0.5:1:3"]) == 2
    assert capsys.readouterr() == ("", "error: --sweep-m: array call refused\n")


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
    for name, text in CONFIGS.items():
        (folder / name).write_bytes(text)
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
