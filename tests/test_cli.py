"""Command line contract tests: output formats, exit codes, flag
handling, and determinism, all through real subprocess invocations."""

import csv
import json
import math
import subprocess
import sys

import pytest

ONE_PLUS_LOG2 = 1.0 + math.log(2.0)


def run_cli(*args, timeout=300):
    return subprocess.run([sys.executable, "-m", "chientropy", *args],
                          capture_output=True, text=True, timeout=timeout)


def parse_csv(text):
    rows = list(csv.reader(text.splitlines()))
    header, data = rows[0], rows[1:]
    return [dict(zip(header, row)) for row in data]


def test_entropy_shannon_example():
    proc = run_cli("entropy", "--dist", "chisq", "--k", "2", "--kind", "shannon")
    assert proc.returncode == 0
    (row,) = parse_csv(proc.stdout)
    assert row["state"] == "finite"
    assert float(row["value"]) == pytest.approx(ONE_PLUS_LOG2, rel=1e-11)
    assert proc.stderr == ""


def test_entropy_tsallis_example():
    proc = run_cli("entropy", "--dist", "chisq", "--k", "2",
                   "--kind", "tsallis", "--alpha", "2")
    assert proc.returncode == 0
    (row,) = parse_csv(proc.stdout)
    assert float(row["value"]) == pytest.approx(0.75, rel=1e-11)


def test_entropy_gate_failure_exit_code():
    proc = run_cli("entropy", "--dist", "ncchisq", "--k", "1.2", "--lambda", "1",
                   "--kind", "renyi", "--alpha", "4")
    assert proc.returncode == 3
    (row,) = parse_csv(proc.stdout)
    assert row["state"] == "undefined"
    assert row["value"] == ""
    assert row["reason"] == "existence-gate"


def test_entropy_large_order_exit_code():
    # the log-Bessel series cannot reach order 9999 there: an undefined
    # result, not a usage error
    proc = run_cli("entropy", "--dist", "ncchisq", "--k", "20000", "--lambda", "100")
    assert proc.returncode == 3, proc.stderr
    (row,) = parse_csv(proc.stdout)
    assert (row["state"], row["reason"]) == ("undefined", "non-convergence")


def test_entropy_json_round_trip():
    proc = run_cli("--format", "json", "entropy", "--dist", "ncchisq",
                   "--k", "4", "--lambda", "4", "--kind", "shannon")
    assert proc.returncode == 0
    record = json.loads(proc.stdout)
    assert record["state"] == "finite"
    assert record["value"] == pytest.approx(2.889205307662322614784, rel=1e-11)
    # numeric fields round-trip at the emitted precision
    for key in ("value", "error_estimate", "k", "lam"):
        v = record[key]
        assert v == float(f"{v:.12g}")


def test_premapped_route_matches_process_route():
    # power users can pass the (k, C, lambda) triple directly; the CIR
    # marginal at t = log 2 with a=b=sigma=r0=1 is C=1/8, lambda=4, k=4
    direct = run_cli("entropy", "--dist", "ncchisq", "--k", "4", "--lambda", "4",
                     "--scale-factor", "0.125", "--kind", "shannon")
    curve = run_cli("curve", "--process", "cir", "--a", "1", "--b", "1",
                    "--sigma", "1", "--r0", "1",
                    "--times", repr(math.log(2.0)), "--kind", "shannon")
    assert direct.returncode == 0 and curve.returncode == 0
    (row,) = parse_csv(direct.stdout)
    assert row["scale_factor"] == "0.125"  # mapping echoed for audit
    t_row = parse_csv(curve.stdout)[0]
    assert float(row["value"]) == pytest.approx(float(t_row["value"]), rel=1e-9)


@pytest.mark.parametrize("kind", [("shannon",), ("tsallis", "--alpha", "2")])
def test_scaled_direct_matches_scaling_identity(kind):
    # --scaled-direct integrates the density of C X itself instead of
    # mapping the entropy of X through the scaling identity
    args = ("entropy", "--dist", "ncchisq", "--k", "4", "--lambda", "4",
            "--scale-factor", "7", "--kind", *kind)
    mapped = run_cli(*args)
    direct = run_cli(*args, "--scaled-direct")
    assert mapped.returncode == 0 and direct.returncode == 0, direct.stderr
    (m_row,), (d_row,) = parse_csv(mapped.stdout), parse_csv(direct.stdout)
    assert float(d_row["value"]) == pytest.approx(float(m_row["value"]), rel=1e-8)


def test_scaled_direct_at_an_extreme_factor_is_undefined():
    # f^3 overflows at a node of the density of 1e-120 X itself
    proc = run_cli("entropy", "--dist", "chisq", "--k", "4", "--scale-factor", "1e-120",
                   "--kind", "renyi", "--alpha", "3", "--scaled-direct")
    assert proc.returncode == 3, proc.stderr
    (row,) = parse_csv(proc.stdout)
    assert (row["state"], row["reason"]) == ("undefined", "non-convergence")
    assert proc.stderr == ""


def test_limits_bessel_infinite():
    proc = run_cli("limits", "--process", "bessel", "--kind", "shannon")
    assert proc.returncode == 4
    (row,) = parse_csv(proc.stdout)
    assert row["state"] == "infinite"
    assert row["value"] == "inf"
    as_json = run_cli("--format", "json", "limits", "--process", "bessel",
                      "--kind", "shannon")
    record = json.loads(as_json.stdout)
    assert record["state"] == "infinite"
    assert record["value"] is None


def test_limits_bessel_validates_given_params():
    # the limit value ignores a and sigma, but nonsense parameters
    # must still be refused rather than echoed back with a result
    proc = run_cli("limits", "--process", "bessel", "--a", "1", "--sigma", "2",
                   "--kind", "shannon")
    assert proc.returncode == 2
    assert "Feller" in proc.stderr
    proc = run_cli("limits", "--process", "bessel", "--a", "2",
                   "--kind", "shannon")
    assert proc.returncode == 2
    assert "together" in proc.stderr
    proc = run_cli("limits", "--process", "bessel", "--a", "2", "--sigma", "2",
                   "--kind", "shannon")
    assert proc.returncode == 4


def test_limits_finite_values():
    proc = run_cli("limits", "--process", "bessel", "--kind", "tsallis",
                   "--alpha", "2")
    assert proc.returncode == 0
    (row,) = parse_csv(proc.stdout)
    assert float(row["value"]) == pytest.approx(1.0, rel=1e-12)
    proc = run_cli("limits", "--process", "cir", "--a", "1", "--b", "1",
                   "--sigma", "1", "--kind", "shannon")
    (row,) = parse_csv(proc.stdout)
    assert float(row["value"]) == pytest.approx(0.884068484341587551, rel=1e-11)


def test_curve_header_and_cir_limit_row():
    proc = run_cli("curve", "--process", "cir", "--a", "1", "--b", "1",
                   "--sigma", "1", "--r0", "1", "--times", "1,5,50",
                   "--kind", "shannon")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == "t,state,value"
    rows = parse_csv(proc.stdout)
    assert [r["t"] for r in rows] == ["1", "5", "50", "limit"]
    assert abs(float(rows[2]["value"]) - float(rows[3]["value"])) < 1e-6


def test_curve_bessel_has_no_limit_row():
    proc = run_cli("curve", "--process", "bessel", "--a", "1", "--sigma", "1",
                   "--y0", "1", "--times", "1,2", "--kind", "shannon")
    assert proc.returncode == 0
    rows = parse_csv(proc.stdout)
    assert [r["t"] for r in rows] == ["1", "2"]
    # a table stays a JSON list even when it has one row
    proc = run_cli("--format", "json", "curve", "--process", "bessel", "--a", "1",
                   "--sigma", "1", "--y0", "1", "--times", "1", "--kind", "shannon")
    assert proc.returncode == 0
    table = json.loads(proc.stdout)
    assert isinstance(table, list) and len(table) == 1
    assert table[0]["t"] == 1 and table[0]["state"] == "finite"


def test_noncentrality_beyond_library_bessel_range():
    # lambda = 2e7 needs log I at arguments above 1.07e9, where the
    # library Bessel function returns NaN; it used to be a usage error
    proc = run_cli("entropy", "--dist", "ncchisq", "--k", "4",
                   "--lambda", "2e7", "--kind", "shannon")
    assert proc.returncode == 0, proc.stderr
    assert float(parse_csv(proc.stdout)[0]["value"]) == pytest.approx(
        10.517707142, rel=1e-9)
    proc = run_cli("curve", "--process", "bessel", "--a", "1", "--sigma", "1",
                   "--y0", "1", "--times", "2e-7", "--kind", "shannon")
    assert proc.returncode == 0, proc.stderr
    assert parse_csv(proc.stdout)[0]["state"] == "finite"


def test_curve_empty_grid_usage_error():
    proc = run_cli("curve", "--process", "cir", "--a", "1", "--b", "1",
                   "--sigma", "1", "--r0", "1", "--times", "", "--kind", "shannon")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "error" in proc.stderr


def test_curve_feller_violation():
    proc = run_cli("curve", "--process", "cir", "--a", "0.4", "--b", "1",
                   "--sigma", "1", "--r0", "1", "--times", "1", "--kind", "shannon")
    assert proc.returncode == 2
    assert "Feller" in proc.stderr


def test_study_lambda_to_zero():
    proc = run_cli("study", "lambda-to-zero", "--k", "2", "--kind", "shannon",
                   "--grid", "1,0.1,0.01")
    assert proc.returncode == 0
    rows = parse_csv(proc.stdout)
    assert [r["lambda"] for r in rows] == ["1", "0.1", "0.01"]
    gaps = [float(r["gap"]) for r in rows]
    assert gaps[0] > gaps[1] > gaps[2]


def test_study_gate_failure_reported_in_rows():
    proc = run_cli("study", "lambda-to-zero", "--k", "1.2", "--kind", "renyi",
                   "--alpha", "4", "--grid", "1,0.1")
    assert proc.returncode == 0
    rows = parse_csv(proc.stdout)
    assert all(r["state"] == "undefined" and r["value"] == "" for r in rows)


def test_study_b_to_zero():
    proc = run_cli("study", "b-to-zero", "--a", "1", "--sigma", "1", "--r0", "1",
                   "--t", "1", "--kind", "shannon", "--grid", "1,0.1,0.01")
    assert proc.returncode == 0
    rows = parse_csv(proc.stdout)
    gaps = [float(r["gap"]) for r in rows]
    assert gaps[0] > gaps[1] > gaps[2]


def test_study_grid_and_feller_errors():
    proc = run_cli("study", "lambda-to-zero", "--k", "2", "--kind", "shannon",
                   "--grid", "0.1,1")
    assert proc.returncode == 2
    proc = run_cli("study", "b-to-zero", "--a", "0.4", "--sigma", "1",
                   "--r0", "1", "--t", "1", "--kind", "shannon", "--grid", "1,0.1")
    assert proc.returncode == 2
    assert "Feller" in proc.stderr


def test_validate_pass_and_report():
    proc = run_cli("--seed", "1", "validate", "--k", "3", "--lambda", "2.5",
                   "--n", "200000")
    assert proc.returncode == 0
    (row,) = parse_csv(proc.stdout)
    assert row["verdict"] == "pass"
    assert abs(float(row["z_score"])) <= 4.0
    expected_z = ((float(row["mc_estimate"]) - float(row["quadrature"]))
                  / float(row["std_error"]))
    assert float(row["z_score"]) == pytest.approx(expected_z, rel=1e-6)


def test_validate_central_matches_closed_form():
    proc = run_cli("--seed", "2", "validate", "--k", "2", "--lambda", "0",
                   "--n", "1000000")
    assert proc.returncode == 0
    (row,) = parse_csv(proc.stdout)
    assert abs(float(row["mc_estimate"]) - ONE_PLUS_LOG2) <= \
        4.0 * float(row["std_error"])
    assert float(row["quadrature"]) == pytest.approx(ONE_PLUS_LOG2, rel=1e-10)


def test_validate_minimum_n():
    proc = run_cli("validate", "--k", "4", "--lambda", "4", "--n", "10")
    assert proc.returncode == 2


def test_determinism():
    args = ("--seed", "9", "validate", "--k", "4", "--lambda", "4", "--n", "100000")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode


def test_global_flags_both_positions():
    before = run_cli("--precision", "15", "entropy", "--dist", "chisq",
                     "--k", "2", "--kind", "shannon")
    after = run_cli("entropy", "--dist", "chisq", "--k", "2",
                    "--kind", "shannon", "--precision", "15")
    assert before.stdout == after.stdout
    assert before.stdout != run_cli("entropy", "--dist", "chisq", "--k", "2",
                                    "--kind", "shannon").stdout


def test_precision_range():
    for bad in ("5", "18", "0"):
        proc = run_cli("--precision", bad, "entropy", "--dist", "chisq",
                       "--k", "2", "--kind", "shannon")
        assert proc.returncode == 2
    proc = run_cli("--precision", "6", "entropy", "--dist", "chisq",
                   "--k", "2", "--kind", "shannon")
    assert proc.returncode == 0
    (row,) = parse_csv(proc.stdout)
    assert row["value"] == "1.69315"


def test_config_file(tmp_path):
    cfg = tmp_path / "quad.cfg"
    cfg.write_text("# tiny budget\nmax_subdivisions = 2\n")
    proc = run_cli("entropy", "--dist", "ncchisq", "--k", "4", "--lambda", "40",
                   "--kind", "shannon", "--config", str(cfg))
    assert proc.returncode == 3
    (row,) = parse_csv(proc.stdout)
    assert row["reason"] == "non-convergence"
    # command line tolerance beats the config file value
    # a budget written as a float is read as the integer it is
    cfg.write_text("rel_tol = 1e-3\nmax_subdivisions = 1e3\n")
    loose = run_cli("entropy", "--dist", "ncchisq", "--k", "4", "--lambda", "4",
                    "--kind", "shannon", "--config", str(cfg))
    tight = run_cli("entropy", "--dist", "ncchisq", "--k", "4", "--lambda", "4",
                    "--kind", "shannon", "--config", str(cfg),
                    "--rel-tol", "1e-11")
    assert float(parse_csv(loose.stdout)[0]["error_estimate"]) > \
        float(parse_csv(tight.stdout)[0]["error_estimate"])


def test_config_file_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    # every refused line is reported by file and line number
    for line in ("no_such_key = 1", "rel_tol = abc", "max_subdivisions = 2.5"):
        bad.write_text(f"# line 1\n{line}\n")
        proc = run_cli("entropy", "--dist", "chisq", "--k", "2", "--kind", "shannon",
                       "--config", str(bad))
        assert proc.returncode == 2, line
        assert proc.stderr.startswith(f"error: {bad}:2: "), proc.stderr
    proc = run_cli("entropy", "--dist", "chisq", "--k", "2", "--kind", "shannon",
                   "--config", str(tmp_path / "missing.cfg"))
    assert proc.returncode == 2


def test_csv_is_lf_only():
    proc = run_cli("curve", "--process", "cir", "--a", "1", "--b", "1",
                   "--sigma", "1", "--r0", "1", "--times", "1,2",
                   "--kind", "shannon")
    assert "\r" not in proc.stdout


def test_missing_required_params():
    proc = run_cli("entropy", "--dist", "ncchisq", "--kind", "shannon")
    assert proc.returncode == 2
    proc = run_cli("entropy", "--dist", "chisq", "--k", "2", "--kind", "nosuch")
    assert proc.returncode == 2


_SCIPY_BOUNDARY_SCRIPT = """
import contextlib, io, json, sys
import chientropy, chientropy.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

steps = [["import", None, scipy_modules()]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = chientropy.cli.main(argv)
        except SystemExit as exc:  # --help and argparse usage errors
            code = exc.code
    steps.append([" ".join(argv), code, scipy_modules()])
print(json.dumps(steps))
"""


def test_cli_import_and_closed_form_commands_leave_out_scipy():
    # scipy.special is imported at first use: importing the package and
    # the commands that evaluate no special function load no scipy module
    commands = [
        (["entropy", "--dist", "ncchisq", "--k", "1.2", "--lambda", "1",
          "--kind", "renyi", "--alpha", "4"], 3),
        (["limits", "--process", "bessel", "--kind", "shannon"], 4),
        (["limits", "--process", "bessel", "--kind", "tsallis", "--alpha", "2"], 0),
        (["entropy", "--dist", "ncchisq", "--kind", "shannon"], 2),
        (["entropy", "--dist", "nosuch"], 2),
        (["--help"], 0),
    ]
    # last, a noncentral entropy must load it, or the test could pass vacuously
    nc_entropy = (["entropy", "--dist", "ncchisq", "--k", "4", "--lambda", "2"], 0)
    argvs = [argv for argv, _ in commands + [nc_entropy]]
    proc = subprocess.run([sys.executable, "-c", _SCIPY_BOUNDARY_SCRIPT, json.dumps(argvs)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    (_, _, at_import), *steps = json.loads(proc.stdout)
    assert at_import == []
    for (argv, code), (_, got, loaded) in zip(commands, steps):
        assert (got, loaded) == (code, []), argv
    *_, (_, got, loaded) = steps
    assert got == 0
    assert "scipy.special" in loaded
