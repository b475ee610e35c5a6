"""End-to-end command-line behavior: outputs, formats and exit codes."""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from spdcfc import bundled_bbo, magnification
from spdcfc.cli import CSV_HEADER, SELLMEIER_PATH_ENV, main

GOLDEN = Path(__file__).parent / "data" / "golden_sweep.csv"

REFERENCE_FLAGS = ["--rp-um", "53", "--w-um", "1.48", "--mu", "49",
               "--Mp", "0.07631", "--M", "0.07243", "--QK", "0.036215"]
WALKOFF_FLAGS = REFERENCE_FLAGS[6:]


def run_cli(args, capsys):
    try:
        code = main(args)
    except SystemExit as exc:  # argparse's own usage failures
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def parse_kv(out: str) -> dict:
    values = {}
    for line in out.splitlines():
        if "=" in line:
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip().split()[0]
    return values


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def test_eval_reference_point(capsys):
    code, out, _ = run_cli(["eval", "--L-mm", "3", *REFERENCE_FLAGS], capsys)
    assert code == 0
    assert parse_kv(out)["eta"] == "0.435079926"


def test_eval_one_mm(capsys):
    code, out, _ = run_cli(["eval", "--L-mm", "1", *REFERENCE_FLAGS], capsys)
    assert code == 0
    assert parse_kv(out)["eta"] == "0.623883621"


def test_eval_accepts_mfd(capsys):
    args = ["eval", "--L-mm", "3", "--rp-um", "53", "--mfd-um", "4.2",
            "--mu", "49", *WALKOFF_FLAGS]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    eta = float(parse_kv(out)["eta"])
    assert eta == pytest.approx(0.43, abs=0.05)


def test_eval_lens_flags_equal_mu(capsys):
    mu, _ = magnification(15.4, 780.0)
    base = ["eval", "--L-mm", "3", "--rp-um", "53", "--w-um", "1.48",
            *WALKOFF_FLAGS]
    code_a, out_a, _ = run_cli(base + ["--f-mm", "15.4", "--dbl-mm", "780"],
                               capsys)
    code_b, out_b, _ = run_cli(base + ["--mu", repr(mu)], capsys)
    assert code_a == code_b == 0
    assert parse_kv(out_a)["eta"] == parse_kv(out_b)["eta"]


def test_eval_missing_waist_is_usage_error(capsys):
    args = ["eval", "--L-mm", "3", "--w-um", "1.48", "--mu", "49",
            *WALKOFF_FLAGS]
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert out == ""
    assert "rp-um" in err


def test_eval_flag_conflicts_are_usage_errors(capsys):
    base = ["eval", "--L-mm", "3", "--rp-um", "53", "--mu", "49",
            *WALKOFF_FLAGS]
    assert run_cli(base + ["--w-um", "1.48", "--mfd-um", "4.2"], capsys)[0] == 2
    base_w = ["eval", "--L-mm", "3", "--rp-um", "53", "--w-um", "1.48",
              *WALKOFF_FLAGS]
    assert run_cli(base_w + ["--mu", "49", "--f-mm", "15.4", "--dbl-mm",
                             "780"], capsys)[0] == 2
    assert run_cli(base_w + ["--f-mm", "15.4"], capsys)[0] == 2


def test_eval_incomplete_walkoffs_is_usage_error(capsys):
    args = ["eval", "--L-mm", "3", "--rp-um", "53", "--w-um", "1.48",
            "--mu", "49", "--Mp", "0.07631"]
    assert run_cli(args, capsys)[0] == 2


def test_eval_no_walkoffs_is_usage_error(capsys):
    args = ["eval", "--L-mm", "3", "--rp-um", "53", "--w-um", "1.48",
            "--mu", "49"]
    assert run_cli(args, capsys)[0] == 2


def test_eval_negative_waist_is_domain_error(capsys):
    args = ["eval", "--L-mm", "3", "--rp-um", "-53", "--w-um", "1.48",
            "--mu", "49", *WALKOFF_FLAGS]
    code, _, err = run_cli(args, capsys)
    assert code == 1
    assert "pump_waist" in err


def test_eval_unknown_flag_exits_2(capsys):
    assert run_cli(["eval", "--bogus", "1"], capsys)[0] == 2


def test_eval_json_round_trip(capsys, tmp_path):
    args = ["eval", "--L-mm", "3", *REFERENCE_FLAGS, "--format", "json"]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["config"]["L_um"] == 3000.0
    path = tmp_path / "run.json"
    path.write_text(out)
    code2, out2, _ = run_cli(["eval", "--config", str(path), "--format",
                              "json"], capsys)
    assert code2 == 0
    doc2 = json.loads(out2)
    assert doc2["eta"] == doc["eta"]  # bit-for-bit
    assert doc2["config"] == doc["config"]


def test_eval_flags_override_config(capsys, tmp_path):
    code, out, _ = run_cli(["eval", "--L-mm", "3", *REFERENCE_FLAGS,
                            "--format", "json"], capsys)
    path = tmp_path / "run.json"
    path.write_text(out)
    code, out_direct, _ = run_cli(["eval", "--L-mm", "1", *REFERENCE_FLAGS],
                                  capsys)
    code, out_override, _ = run_cli(["eval", "--config", str(path),
                                     "--L-mm", "1"], capsys)
    assert parse_kv(out_override)["eta"] == parse_kv(out_direct)["eta"]


def test_config_file_rejects_unknown_keys(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema_version": 1, "L_um": 3000.0,
                                "typo_key": 1.0}))
    code, _, err = run_cli(["eval", "--config", str(path), *REFERENCE_FLAGS],
                           capsys)
    assert code == 2
    assert "typo_key" in err


def test_config_file_rejects_wrong_schema_version(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema_version": 99, "L_um": 3000.0}))
    assert run_cli(["eval", "--config", str(path), *REFERENCE_FLAGS],
                   capsys)[0] == 2


def test_config_file_rejects_malformed_json(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert run_cli(["eval", "--config", str(path), *REFERENCE_FLAGS],
                   capsys)[0] == 2


def test_missing_config_file_exits_2(capsys, tmp_path):
    assert run_cli(["eval", "--config", str(tmp_path / "nope.json"),
                    *REFERENCE_FLAGS], capsys)[0] == 2


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_reference_curve(capsys):
    args = ["sweep", "--L-range", "0.1:5:0.1", "--mu", "49", "--rp-um", "53",
            "--w-um", "1.48", *WALKOFF_FLAGS]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 51  # header + 50 rows
    row = next(l for l in lines[1:] if l.startswith("1,"))
    assert float(row.split(",")[3]) == pytest.approx(0.6239, abs=1e-3)


def test_sweep_single_row(capsys):
    args = ["sweep", "--L-range", "1:1:1", "--mu", "49", "--rp-um", "53",
            "--w-um", "1.48", *WALKOFF_FLAGS]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    assert len(out.strip().splitlines()) == 2


def test_sweep_invalid_range_exits_2(capsys):
    args = ["sweep", "--L-range", "5:1:1", "--mu", "49", "--rp-um", "53",
            "--w-um", "1.48", *WALKOFF_FLAGS]
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert "L-range" in err


@pytest.mark.parametrize("l_range", ["0.1:inf:1", "nan:1:1", "0.1:5:nan",
                                     "0.1:5:1e-9", "0.1:1e308:1e-300"])
def test_sweep_unbounded_range_exits_2(l_range, capsys):
    # each fails the finiteness or count check before any list is built
    args = ["sweep", "--L-range", l_range, "--mu", "49", "--rp-um", "53",
            "--w-um", "1.48", *WALKOFF_FLAGS]
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert "L-range" in err
    assert "Traceback" not in err
    assert out == ""


def test_sweep_range_cap_counts_lengths():
    from spdcfc.cli import MAX_L_RANGE_POINTS, UsageError, _parse_l_range_mm
    assert len(_parse_l_range_mm(f"1:{MAX_L_RANGE_POINTS}:1")) == \
        MAX_L_RANGE_POINTS
    with pytest.raises(UsageError):
        _parse_l_range_mm(f"1:{MAX_L_RANGE_POINTS + 1}:1")


def test_sweep_rejects_bad_mu_lists(capsys):
    base = ["sweep", "--L-range", "1:2:1", "--rp-um", "53", "--w-um", "1.48",
            *WALKOFF_FLAGS]
    assert run_cli(base + ["--mu", "49,25"], capsys)[0] == 2
    assert run_cli(base + ["--mu", "0"], capsys)[0] == 2
    assert run_cli(base + ["--mu", ""], capsys)[0] == 2
    assert run_cli(base + ["--mu", "25;49"], capsys)[0] == 2


def test_sweep_matches_golden_file(capsys):
    args = ["sweep", "--L-range", "1:3:1", "--mu", "25,49", "--rp-um", "53",
            "--w-um", "1.48", *WALKOFF_FLAGS]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    assert out == GOLDEN.read_text()


def test_sweep_deterministic(capsys):
    args = ["sweep", "--L-range", "0.5:3:0.5", "--mu", "25,49,80",
            "--rp-um", "53", "--w-um", "1.48", *WALKOFF_FLAGS]
    _, first, _ = run_cli(args, capsys)
    _, second, _ = run_cli(args, capsys)
    assert first == second


def test_sweep_rows_are_locale_proof(capsys):
    args = ["sweep", "--L-range", "1:2:1", "--mu", "49", "--rp-um", "53",
            "--w-um", "1.48", *WALKOFF_FLAGS]
    _, out, _ = run_cli(args, capsys)
    for line in out.strip().splitlines()[1:]:
        assert re.fullmatch(r"[0-9.eE+-]+(,[0-9.eE+-]+){3}", line)


def test_sweep_default_mu_set(capsys):
    # default magnifications: illustrative curve family around mu = 49
    args = ["sweep", "--L-range", "1:1:1", "--rp-um", "53", "--w-um", "1.48",
            *WALKOFF_FLAGS]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert [float(r.split(",")[1]) for r in rows] == [25.0, 35.0, 49.0,
                                                      60.0, 80.0]


def test_sweep_domain_failure_exits_1(capsys):
    args = ["sweep", "--L-range", "1e305:1e305:1", "--mu", "49",
            "--rp-um", "53", "--w-um", "1.48", *WALKOFF_FLAGS]
    code, _, err = run_cli(args, capsys)
    assert code == 1
    assert "row" in err


def test_optimize_domain_failure_exits_1(capsys):
    args = ["optimize", "--var", "xi", "--bounds", "0.1:10", "--L-mm", "2",
            "--rp-um", "-53", *WALKOFF_FLAGS]
    assert run_cli(args, capsys)[0] == 1


def test_sweep_json_rows(capsys):
    args = ["sweep", "--L-range", "1:2:1", "--mu", "25,49", "--rp-um", "53",
            "--w-um", "1.48", *WALKOFF_FLAGS, "--format", "json"]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["rows"]) == 4
    assert set(doc["rows"][0]) == {"L_mm", "mu", "xi", "eta"}


# ---------------------------------------------------------------------------
# optimize
# ---------------------------------------------------------------------------

def test_optimize_reference_ceiling(capsys):
    args = ["optimize", "--var", "xi", "--bounds", "0.1:10", "--L-mm", "2",
            "--rp-um", "53", *WALKOFF_FLAGS]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    values = parse_kv(out)
    assert 0.45 <= float(values["eta_max"]) <= 0.53
    assert values["boundary"] == "no"


def test_optimize_rejects_nonpositive_bounds(capsys):
    args = ["optimize", "--var", "mu", "--bounds", "0:10", "--L-mm", "2",
            "--rp-um", "53", "--w-um", "1.48", *WALKOFF_FLAGS]
    code, _, err = run_cli(args, capsys)
    assert code == 2
    assert "bounds" in err


def test_optimize_rejects_malformed_bounds(capsys):
    args = ["optimize", "--var", "xi", "--bounds", "1-10", "--L-mm", "2",
            "--rp-um", "53", *WALKOFF_FLAGS]
    assert run_cli(args, capsys)[0] == 2
    args[4] = "10:1"
    assert run_cli(args, capsys)[0] == 2


def test_optimize_unknown_variable_exits_2(capsys):
    args = ["optimize", "--var", "waist", "--bounds", "1:10", "--L-mm", "2",
            "--rp-um", "53", *WALKOFF_FLAGS]
    assert run_cli(args, capsys)[0] == 2


def test_optimize_mu_matches_xi_run(capsys):
    common = ["--L-mm", "2", "--rp-um", "53", *WALKOFF_FLAGS]
    _, out_xi, _ = run_cli(["optimize", "--var", "xi", "--bounds", "0.1:10",
                            *common], capsys)
    scale = 53.0 / 1.48
    bounds = f"{0.1 * scale}:{10.0 * scale}"
    _, out_mu, _ = run_cli(["optimize", "--var", "mu", "--bounds", bounds,
                            "--w-um", "1.48", *common], capsys)
    eta_xi = float(parse_kv(out_xi)["eta_max"])
    eta_mu = float(parse_kv(out_mu)["eta_max"])
    assert eta_mu == pytest.approx(eta_xi, rel=1e-6)


def test_optimize_boundary_flagged(capsys):
    args = ["optimize", "--var", "xi", "--bounds", "0.1:10", "--L-mm",
            "1e-6", "--rp-um", "53", *WALKOFF_FLAGS]
    code, out, err = run_cli(args, capsys)
    assert code == 0
    assert parse_kv(out)["boundary"] == "yes"
    assert "boundary" in err


def test_optimize_pump_waist_variable(capsys):
    args = ["optimize", "--var", "rp", "--bounds", "10:300", "--L-mm", "2",
            "--w-um", "1.48", "--mu", "49", *WALKOFF_FLAGS]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    assert 0.0 < float(parse_kv(out)["eta_max"]) <= 1.0


def test_optimize_json(capsys):
    args = ["optimize", "--var", "xi", "--bounds", "0.1:10", "--L-mm", "2",
            "--rp-um", "53", *WALKOFF_FLAGS, "--format", "json"]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"schema_version", "variable", "argmax", "eta_max",
                        "bracket", "iterations", "boundary"}


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def test_oracle_agrees_on_reference_point(capsys):
    args = ["oracle", "--L-mm", "3", *REFERENCE_FLAGS]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    values = parse_kv(out)
    assert float(values["rel_deviation"]) <= 1e-4
    assert values["eta_closed"] == "0.435079926"


def test_oracle_short_crystal(capsys):
    args = ["oracle", "--L-mm", "1e-6", *REFERENCE_FLAGS]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    values = parse_kv(out)
    # both sides sit at the zero-length mode-matching prefactor
    assert float(values["eta_closed"]) == pytest.approx(0.7662, abs=1e-3)
    assert float(values["eta_numeric"]) == pytest.approx(0.7662, abs=1e-3)


def test_oracle_convergence_failure_reports_and_exits_1(capsys):
    mu_hard = repr(5.0 * 53.0 / 1.48)
    args = ["oracle", "--L-mm", "3", "--rp-um", "53", "--w-um", "1.48",
            "--mu", mu_hard, *WALKOFF_FLAGS,
            "--n-tau", "8", "--n-trans", "16", "--extent-factor", "4"]
    code, out, err = run_cli(args, capsys)
    assert code == 1
    assert "eta_numeric" in out and "unconverged" in out
    assert "did not converge" in err


def test_oracle_json(capsys):
    args = ["oracle", "--L-mm", "3", *REFERENCE_FLAGS, "--format", "json"]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["rel_deviation"] <= 1e-4
    assert len(doc["pieces"]) == 3


def test_oracle_rejects_bad_quadrature(capsys):
    args = ["oracle", "--L-mm", "3", *REFERENCE_FLAGS, "--n-tau", "4"]
    assert run_cli(args, capsys)[0] == 1  # QuadratureSpec invariant violated


def test_oracle_oversized_grid_is_domain_error(capsys):
    for flags in (["--n-tau", "100000000"], ["--n-trans", "100000000"]):
        code, out, err = run_cli(["oracle", "--L-mm", "3", *REFERENCE_FLAGS,
                                  *flags], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: grid too large") and err.count("\n") == 1


def test_oracle_nine_digits_on_reference_point(capsys):
    # the README example: quadrature and closed form agree to 9 digits
    code, out, _ = run_cli(["oracle", "--L-mm", "3", *REFERENCE_FLAGS], capsys)
    assert code == 0
    lines = out.splitlines()
    assert "eta_closed    = 0.435079926" in lines
    assert "eta_numeric   = 0.435079926" in lines


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                    "OMP_NUM_THREADS")


@pytest.mark.parametrize("extra", [[], ["--target-rel-err", "1e-300"]],
                         ids=["converges", "level-2-failure"])
def test_oracle_output_independent_of_blas_threads(extra):
    pytest.importorskip("numpy")
    args = [sys.executable, "-m", "spdcfc", "oracle", "--L-mm", "3",
            *REFERENCE_FLAGS, "--format", "json", *extra]
    default_env = {k: v for k, v in os.environ.items()
                   if k not in BLAS_THREAD_VARS}  # BLAS picks its own count
    runs = [subprocess.run(args, env=env, capture_output=True)
            for env in ({**default_env, "OPENBLAS_NUM_THREADS": "1"},
                        default_env)]
    one, default = runs
    assert one.returncode == default.returncode == (1 if extra else 0)
    assert one.stdout == default.stdout and one.stdout
    assert one.stderr == default.stderr
    if extra:
        assert default.stderr.startswith(b"error: oracle did not converge")
        assert default.stderr.count(b"\n") == 1


def test_oracle_json_convergence_failure_is_one_document(capsys):
    args = ["oracle", "--L-mm", "3", *REFERENCE_FLAGS, "--format", "json",
            "--target-rel-err", "1e-300"]
    code, out, err = run_cli(args, capsys)
    assert code == 1
    doc = json.loads(out)
    assert list(doc) == ["schema_version", "config", "eta_closed",
                         "eta_numeric", "est_rel_err", "pass"]
    assert doc["pass"] is False
    assert doc["schema_version"] == 1 and doc["config"]["L_um"] == 3000.0
    assert doc["est_rel_err"] > 1e-300
    assert f"{doc['eta_numeric']:.9g}" == "0.435079926"
    assert err.startswith("error: oracle did not converge")
    assert err.count("\n") == 1


def test_oracle_readme_point_pinned(capsys):
    # the README's oracle example; the eta lines must not move, while the
    # two roundoff-level lines may read other digits on another BLAS build
    code, out, _ = run_cli(["oracle", "--L-mm", "3", *REFERENCE_FLAGS],
                           capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[:2] == ["eta_closed    = 0.435079926",
                         "eta_numeric   = 0.435079926"]
    assert [line.split(" = ")[0] for line in lines[2:]] == [
        "rel_deviation", "est_rel_err  "]
    assert all(float(line.split(" = ")[1]) < 1e-12 for line in lines[2:])


# ---------------------------------------------------------------------------
# params
# ---------------------------------------------------------------------------

def test_params_explicit_reference_values(capsys):
    code, out, _ = run_cli(["params", *WALKOFF_FLAGS], capsys)
    assert code == 0
    values = parse_kv(out)
    assert float(values["alpha1"]) == pytest.approx(7.1347e-3, rel=1e-4)
    assert float(values["alpha2"]) == pytest.approx(1.32658e-3, rel=1e-4)
    assert float(values["beta"]) == pytest.approx(1.04922e-2, rel=1e-4)
    assert "D_fs_per_um" not in values  # no dispersion inputs given


def test_params_all_zero(capsys):
    code, out, _ = run_cli(["params", "--Mp", "0", "--M", "0", "--QK", "0"],
                           capsys)
    assert code == 0
    values = parse_kv(out)
    assert float(values["alpha1"]) == 0.0
    assert float(values["beta"]) == 0.0


def test_params_bundled_sellmeier_reproduces_reference(capsys):
    code, out, _ = run_cli(["params", "--sellmeier"], capsys)
    assert code == 0
    values = parse_kv(out)
    assert float(values["Mp"]) == pytest.approx(0.07631, rel=0.10)
    assert float(values["M"]) == pytest.approx(0.07243, rel=0.10)
    assert float(values["QK"]) == pytest.approx(0.036215, rel=0.10)
    assert float(values["D_fs_per_um"]) == pytest.approx(0.19, rel=0.25)


def test_params_sellmeier_env_var_location(capsys, tmp_path, monkeypatch):
    doc = json.loads(
        (Path(bundled_bbo.__code__.co_filename).parent / "data"
         / "bbo_sellmeier.json").read_text())
    doc["ordinary"]["coeffs"][0] += 0.2  # visibly different walk-off
    custom = tmp_path / "custom.json"
    custom.write_text(json.dumps(doc))
    _, out_bundled, _ = run_cli(["params", "--sellmeier"], capsys)
    monkeypatch.setenv(SELLMEIER_PATH_ENV, str(custom))
    code, out_env, _ = run_cli(["params", "--sellmeier"], capsys)
    assert code == 0
    assert parse_kv(out_env)["Mp"] != parse_kv(out_bundled)["Mp"]
    # an explicit path still wins over the environment
    code, out_explicit, _ = run_cli(
        ["params", "--sellmeier", str(custom)], capsys)
    assert parse_kv(out_explicit)["Mp"] == parse_kv(out_env)["Mp"]


def test_params_requires_some_input(capsys):
    assert run_cli(["params"], capsys)[0] == 2


def test_params_rejects_conflicting_sources(capsys):
    assert run_cli(["params", *WALKOFF_FLAGS, "--sellmeier"], capsys)[0] == 2


def test_params_wavelength_outside_model_is_domain_error(capsys):
    code, _, err = run_cli(["params", "--sellmeier", "--pump-nm", "100"],
                           capsys)
    assert code == 1
    assert "range" in err


def test_params_json(capsys):
    code, out, _ = run_cli(["params", "--sellmeier", "--format", "json"],
                           capsys)
    assert code == 0
    doc = json.loads(out)
    assert set(doc["walkoffs"]) == {"Mp", "M", "QK"}
    assert doc["temporal"] is not None


# ---------------------------------------------------------------------------
# process-level entry points
# ---------------------------------------------------------------------------

def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "spdcfc", "eval", "--L-mm", "3", *REFERENCE_FLAGS],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "0.435079926" in proc.stdout


def test_console_script_if_installed():
    exe = shutil.which("spdcfc")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "eval", "--L-mm", "3", *REFERENCE_FLAGS],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "0.435079926" in proc.stdout


EXTREME_XI_RUNS = [
    ["optimize", "--var", "xi", "--bounds", "0.1:1e150", "--L-mm", "2",
     "--rp-um", "53", *WALKOFF_FLAGS],
    ["eval", "--L-mm", "2", "--rp-um", "53", "--w-um", "1e-170", "--mu", "1",
     *WALKOFF_FLAGS],
]


@pytest.mark.parametrize("args", EXTREME_XI_RUNS, ids=["overflow", "underflow"])
def test_extreme_xi_exits_1_without_traceback(args):
    proc = subprocess.run([sys.executable, "-m", "spdcfc", *args],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


def test_closed_stdout_exits_1_without_traceback():
    # ~1.2 MB of CSV, far beyond a pipe's buffer, so the writer meets the
    # closed pipe while it is still printing
    args = ["sweep", "--L-range", "0.1:5:0.001", "--rp-um", "53",
            "--w-um", "1.48", *WALKOFF_FLAGS]
    proc = subprocess.Popen([sys.executable, "-m", "spdcfc", *args],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        assert proc.stdout.readline().startswith("L_mm,")
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    finally:
        proc.kill()
        proc.stderr.close()
    assert "Traceback" not in err and "Error" not in err


NUMPY_FREE_RUNS = [
    ["eval", "--L-mm", "3", *REFERENCE_FLAGS],
    ["eval", "--L-mm", "3", *REFERENCE_FLAGS, "--format", "json"],
    ["sweep", "--L-range", "1:3:1", "--mu", "25,49", "--rp-um", "53",
     "--w-um", "1.48", *WALKOFF_FLAGS],
    ["optimize", "--var", "xi", "--bounds", "0.1:10", "--L-mm", "3",
     "--rp-um", "53", *WALKOFF_FLAGS],
    ["params", "--sellmeier"],
]

# runs each argument list through main() in one fresh interpreter and
# reports, after the import and after each run, whether numpy is loaded
NUMPY_PROBE = """
import contextlib, io, json, sys
import spdcfc.cli
report = {"import": "numpy" in sys.modules, "runs": []}
for args in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = spdcfc.cli.main(args)
    report["runs"].append([code, out.getvalue(), "numpy" in sys.modules])
print(json.dumps(report))
"""


def test_numpy_is_loaded_by_the_oracle_only(capsys):
    runs = [*NUMPY_FREE_RUNS, ["oracle", "--L-mm", "3", *REFERENCE_FLAGS]]
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE, json.dumps(runs)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["import"] is False
    assert [loaded for _, _, loaded in report["runs"]] == [False] * 5 + [True]
    for args, (code, out, _) in zip(runs, report["runs"]):
        assert (code, out) == run_cli(args, capsys)[:2]


def test_usage_error_prints_to_stderr_only(capsys):
    code, out, err = run_cli(["eval", "--L-mm", "3"], capsys)
    assert code == 2
    assert out == ""
    assert err != ""


@pytest.mark.parametrize("args", [
    ["sweep", "--L-range", "1:2:1", "--mu", "1,inf", "--rp-um", "53",
     "--w-um", "1.48", *WALKOFF_FLAGS],
    ["sweep", "--L-range", "1:2:1", "--mu", "nan", "--rp-um", "53",
     "--w-um", "1.48", *WALKOFF_FLAGS],
    ["optimize", "--var", "xi", "--bounds", "nan:1", "--L-mm", "2",
     "--rp-um", "53", *WALKOFF_FLAGS],
    ["optimize", "--var", "mu", "--bounds", "0.1:inf", "--L-mm", "2",
     "--rp-um", "53", "--w-um", "1.48", *WALKOFF_FLAGS],
], ids=["mu-inf", "mu-nan", "bounds-nan", "bounds-inf"])
def test_nonfinite_mu_and_bounds_exit_2(args, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error:") and "finite" in err


# runs main() with numpy blocked, as an interpreter without numpy would
NUMPY_BLOCKED_PROBE = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
import spdcfc.cli
runs = []
for args in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()) as out, \\
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = spdcfc.cli.main(args)
    runs.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(runs))
"""


def test_oracle_without_numpy_exits_1_with_one_error_line(capsys):
    runs = [["oracle", "--L-mm", "3", *REFERENCE_FLAGS], *NUMPY_FREE_RUNS]
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_BLOCKED_PROBE, json.dumps(runs)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    (code, out, err), *others = json.loads(proc.stdout)
    assert (code, out) == (1, "")
    assert err.startswith("error: the quadrature oracle needs numpy")
    assert err.count("\n") == 1
    # the other subcommands do not need numpy
    for args, (code, out, _) in zip(NUMPY_FREE_RUNS, others):
        assert (code, out) == run_cli(args, capsys)[:2]


# imports spdcfc, then runs one argument list through main(), in a fresh
# interpreter; reports the spdcfc modules loaded after each step
MODULES_PROBE = """
import contextlib, io, json, sys
def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "spdcfc")
import spdcfc
report = {"import": loaded()}
import spdcfc.cli
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = spdcfc.cli.main(json.loads(sys.argv[1]))
report.update(code=code, out=out.getvalue(), run=loaded(),
              numpy="numpy" in sys.modules)
print(json.dumps(report))
"""

CLI_CORE_MODULES = ["spdcfc", "spdcfc.cli", "spdcfc.core", "spdcfc.errors"]


@pytest.mark.parametrize("args, extra", [
    (["eval", "--L-mm", "3", *REFERENCE_FLAGS], []),
    (["eval", "--L-mm", "3", *REFERENCE_FLAGS, "--format", "json"], []),
    (["eval", "--config", "CONFIG"], []),
    (NUMPY_FREE_RUNS[2], ["spdcfc.sweep"]),
    (NUMPY_FREE_RUNS[3], ["spdcfc.sweep"]),
    (["oracle", "--L-mm", "3", *REFERENCE_FLAGS], ["spdcfc.oracle"]),
    (["params", "--sellmeier"], ["spdcfc.dispersion"]),
], ids=["eval", "eval-json", "eval-config", "sweep", "optimize", "oracle",
        "params-sellmeier"])
def test_each_subcommand_loads_only_the_modules_it_runs(args, extra, capsys,
                                                       tmp_path):
    config = tmp_path / "run.json"
    config.write_text(run_cli(["eval", "--L-mm", "3", *REFERENCE_FLAGS,
                               "--format", "json"], capsys)[1])
    args = [str(config) if a == "CONFIG" else a for a in args]
    proc = subprocess.run(
        [sys.executable, "-c", MODULES_PROBE, json.dumps(args)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["import"] == ["spdcfc", "spdcfc.core", "spdcfc.errors"]
    assert report["run"] == sorted(CLI_CORE_MODULES + extra)
    assert report["numpy"] is (extra == ["spdcfc.oracle"])
    assert (report["code"], report["out"]) == run_cli(args, capsys)[:2]
    assert report["code"] == 0
