import csv
import math

import numpy as np
import pytest

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
from decoshield.qubit import average_fidelity_six, bb84_error_rate, protect_equatorial

REF = GadParams(0.8, 0.3)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def fmt(value):
    return format(value, ".12g")


def test_qubit_fidelity_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    code = entry(
        [
            "qubit-fidelity", "--p", "0.8", "--r", "0.3",
            "--m-range", "0.2:1:3", "--n-range", "0.5:1:2", "--out", str(out),
        ]
    )
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["m", "n", "fidelity", "success_prob"]
    assert len(rows) == 6
    # m is the outer loop
    assert [row[0] for row in rows] == [fmt(v) for v in (0.2, 0.2, 0.6, 0.6, 1.0, 1.0)]
    for m_s, n_s, fid_s, prob_s in rows:
        res = protect_equatorial(REF, float(m_s), float(n_s))
        assert fid_s == fmt(res.fidelity)
        assert prob_s == fmt(res.success_prob)


def test_stdout_output(capsys):
    code = entry(
        ["qubit-fidelity", "--p", "0.8", "--r", "0.3", "--grid", "2", "--out", "-"]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "m,n,fidelity,success_prob"
    assert len(lines) == 5


def test_default_axis_spans_grid(tmp_path):
    out = tmp_path / "grid.csv"
    assert entry(
        ["qubit-fidelity", "--p", "0.8", "--r", "0.3", "--grid", "4", "--out", str(out)]
    ) == 0
    _, rows = read_csv(out)
    ms = sorted({float(row[0]) for row in rows})
    assert np.allclose(ms, [0.25, 0.5, 0.75, 1.0])


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


def test_output_is_byte_stable(tmp_path):
    # every sweep's bytes equal rows built from scalar library calls
    params = GadParams(0.7, 0.4)
    grid = [(m, n) for m in np.linspace(0.05, 3.5, 23).tolist()
            for n in np.linspace(0.1, 2.7, 19).tolist()]
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
            [(m, n, bb84_error_rate(params, m, n)) for m, n in small],
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
    for argv, header, rows in cases:
        out = tmp_path / "out.csv"
        assert entry([*argv, "--out", str(out)]) == 0
        assert out.read_bytes() == scalar_csv(header, rows), argv


def test_qubit_average_csv(tmp_path):
    out = tmp_path / "avg.csv"
    assert entry(
        [
            "qubit-average", "--p", "0.7", "--r", "0.4",
            "--m-range", "0.5:0.5:1", "--n-range", "0.8:0.8:1", "--out", str(out),
        ]
    ) == 0
    header, rows = read_csv(out)
    assert header == ["m", "n", "f0", "f1", "fe", "favg"]
    rep = average_fidelity_six(GadParams(0.7, 0.4), 0.5, 0.8)
    assert rows[0][2:] == [fmt(rep.f0), fmt(rep.f1), fmt(rep.fe), fmt(rep.favg)]


def test_qkd_error_csv(tmp_path):
    out = tmp_path / "qkd.csv"
    assert entry(
        [
            "qkd-error", "--p", "0.8", "--r", "0.3",
            "--m-range", "0.6:0.6:1", "--n-range", "0.9:0.9:1", "--out", str(out),
        ]
    ) == 0
    header, rows = read_csv(out)
    assert header == ["m", "n", "error_rate"]
    want = bb84_error_rate(REF, 0.6, 0.9)
    assert rows[0][2] == fmt(want)
    fid = protect_equatorial(REF, 0.6, 0.9).fidelity
    assert abs(want - (1.0 - fid)) < 1e-12


def test_entangle_sweep_csv(tmp_path):
    out = tmp_path / "ent.csv"
    assert entry(
        [
            "entangle", "--p1", "0.9", "--r1", "0.5", "--p2", "0.95", "--r2", "0.3",
            "--alpha-sq", "0.5", "--sweep-m", "0:1:5", "--out", str(out),
        ]
    ) == 0
    header, rows = read_csv(out)
    assert header == ["m", "n1", "n2", "lambda2", "concurrence", "success_prob"]
    assert len(rows) == 5
    bell = EntangledInput.from_alpha_sq(0.5)
    ch1, ch2 = GadParams(0.9, 0.5), GadParams(0.95, 0.3)
    for row in rows:
        m = float(row[0])
        coeffs = measured_coefficients(bell, ch1, ch2, m, 1.0)
        n1, n2 = optimal_reversal(coeffs)
        lam2 = concurrence_lambda2(coeffs, n1, n2)
        _, success = protected_state(bell, ch1, ch2, m, 1.0, n1, n2)
        assert row[1:] == [fmt(n1), fmt(n2), fmt(lam2), fmt(max(0.0, lam2)), fmt(success)]
    # the m = 0 row is the fully collapsed limit: no coherence survives
    assert float(rows[0][3]) < 0.0
    assert rows[0][4] == "0"


def test_entangle_default_sweep_length(tmp_path):
    out = tmp_path / "ent.csv"
    assert entry(
        [
            "entangle", "--p1", "0.9", "--r1", "0.5", "--p2", "0.95", "--r2", "0.3",
            "--out", str(out),
        ]
    ) == 0
    _, rows = read_csv(out)
    assert len(rows) == 200
    assert float(rows[0][0]) == 0.0 and float(rows[-1][0]) == 1.0


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
    bad.write_text("p = 0.8\nno equals sign here\n")
    assert entry(["optimal", "--config", str(bad)]) == 2
    assert "bad.cfg:2" in capsys.readouterr().err
    assert entry(["optimal", "--config", str(tmp_path / "missing.cfg")]) == 2
    bad.write_text("p = 0.8\nr = 0.3\nbogus = 1\n")
    assert entry(["optimal", "--config", str(bad)]) == 2
    assert f"{bad}:3: unknown key 'bogus'" in capsys.readouterr().err
    # a prefix of a flag is not that flag
    bad.write_text("alpha = 0.2\np1 = 0.9\nr1 = 0.5\np2 = 0.95\nr2 = 0.3\n")
    assert entry(["optimal", "--config", str(bad)]) == 2
    assert f"{bad}:1: unknown key 'alpha'" in capsys.readouterr().err


def test_out_of_range_parameters(capsys):
    assert entry(["qubit-fidelity", "--p", "1.5", "--r", "0.3"]) == 2
    assert "--p/--r" in capsys.readouterr().err
    assert entry(["entangle", "--p1", "0.9", "--r1", "0.5",
                  "--p2", "0.95", "--r2", "0.3", "--alpha-sq", "1.5"]) == 2
    assert "error: --alpha-sq: alpha_sq must lie in [0, 1]" in capsys.readouterr().err


def test_zero_strengths_rejected_in_qubit_sweeps(capsys):
    assert entry(
        ["qubit-fidelity", "--p", "0.8", "--r", "0.3", "--m-range", "0:1:5"]
    ) == 2
    assert "--m-range" in capsys.readouterr().err


def test_entangle_reports_dead_sweep_points(capsys):
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


def test_library_errors_exit_with_usage(capsys):
    # a library ValueError, PostSelectionError included, is one error line
    # naming the flag: no traceback, no rows
    still = ["--p", "1", "--r", "0", "--m-range", "1e-8:1e-8:1", "--n-range", "1e-8:1e-8:1"]
    huge = ["--p", "0.8", "--r", "0.3", "--m-range", "1:1e160:2"]
    pair = ["--p1", "0.9", "--r1", "0.5", "--p2", "0.95", "--r2", "0.3"]
    cases = [
        (["qubit-fidelity", *still], "--m-range/--n-range: success probability"),
        (["qkd-error", *still], "--m-range/--n-range: success probability"),
        (["optimal", *pair, "--alpha-sq", "1e-300"], "--alpha-sq: degenerate coefficients"),
        (["optimal", "--p", "0.9999999999999999", "--r", "1"], "--p/--r: success probability"),
        (["qubit-fidelity", *huge], "--m-range: strengths must be finite"),
        (["qubit-average", *huge], "--m-range: strengths must be finite"),
        (["entangle", *pair, "--sweep-m", "1:1e160:2"], "--sweep-m: at m=1e+160: m1 must be"),
    ]
    for argv, start in cases:
        assert entry(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {start}"), (argv, err)
        assert err.count("\n") == 1, err


def test_malformed_range_exits_with_usage(capsys):
    for bad in ("0.1-1-5", "1:0:5", "0.1:1:0", "nan:1:2", "1:inf:2"):
        with pytest.raises(SystemExit) as exc:
            entry(["qubit-fidelity", "--p", "0.8", "--r", "0.3", "--m-range", bad])
        assert exc.value.code == 2
        assert "--m-range" in capsys.readouterr().err


def test_unknown_subcommand_exits_with_usage():
    with pytest.raises(SystemExit) as exc:
        entry(["melt"])
    assert exc.value.code == 2


def test_verify_command_passes(capsys):
    assert entry(["verify"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "all checks passed"
    assert [line.split(":", 1)[0] for line in lines[:-1]] == [
        f"[ok] {name}" for name, _, _ in CHECKS
    ]
